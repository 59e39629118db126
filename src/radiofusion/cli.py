"""Command line entry point.

Subcommands:
  synth             generate a synthetic world and/or emulated detections
  simulate-regions  build noisy radio regions from ground-truth boxes
  localize          CSI frames -> per-image people estimates
  project           estimates -> image-plane regions via the camera model
  run               execute one or more methods end to end and write metrics
  sweep             re-run a method across a localization-error parameter

Every subcommand accepts ``--config config.json`` plus a few common
overrides; flags win over the config file. File formats are documented in
docs/SCHEMAS.md.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache
from pathlib import Path

from . import fileio, pipeline
from .config import METHODS, RunConfig
from .errors import SchemaError, InvalidInputError
from .synth import make_world
from .world import Annotations


def _load_config(args) -> RunConfig:
    config = RunConfig.load(args.config) if args.config else RunConfig()
    flag = vars(args).get
    overrides = {
        "seed": flag("seed"),
        "method": flag("method"),
        "lambda": flag("lam"),
        "score_threshold": flag("score_threshold"),
        "noise": {"sigma": flag("sigma"), "k1": flag("k"), "k2": flag("k")},
        "nms": {"iou_threshold": flag("iou_threshold")},
        "paths": {key: flag(key)
                  for key in ("annotations", "detections", "regions", "output_dir")},
    }
    return config.merge(_given(overrides))


def _given(overrides: dict) -> dict:
    """The overrides without unset flags (None) and sections left empty."""
    nested = {k: _given(v) if isinstance(v, dict) else v for k, v in overrides.items()}
    return {k: v for k, v in nested.items() if v is not None and v != {}}


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="run configuration JSON")
    parser.add_argument("--seed", type=int, help="override the run seed")
    parser.add_argument("--output-dir", dest="output_dir", help="output directory")


def cmd_synth(args) -> int:
    config = _load_config(args)
    out = Path(config.paths.output_dir)
    if args.annotations:
        image_ids, gts = pipeline.load_world(config)
    else:
        image_ids, gts = make_world(
            num_images=args.num_images,
            image_size=config.image_size,
            seed=config.substream_seed("world"),
        )
        fileio.write_annotations(out / "annotations.json", image_ids, gts,
                                 image_size=config.image_size)
        print(f"wrote {out / 'annotations.json'} ({len(gts)} people, {len(image_ids)} images)")
        gts = Annotations.from_records(gts)
    # Always emulate, even when the config names a detections file.
    detections = pipeline.build_detections(config.merge({"paths": {"detections": None}}),
                                           gts, image_ids)
    fileio.write_detections(out / "detections.json", detections)
    print(f"wrote {out / 'detections.json'} ({len(detections)} detections)")
    return 0


def cmd_simulate_regions(args) -> int:
    config = _load_config(args)
    _, gts = pipeline.load_world(config)
    # Always simulate, even when the config names a regions file.
    regions = pipeline.build_regions(config.merge({"paths": {"regions": None}}), gts)
    out = args.out or str(Path(config.paths.output_dir) / "regions.json")
    fileio.write_regions(out, regions)
    print(f"wrote {out} ({len(regions)} regions over {len(regions.ids)} images)")
    return 0


def cmd_localize(args) -> int:
    config = _load_config(args)
    # Read lazily: localize_frames holds each frame only until its pair is computed.
    frames = (fileio.read_csi_frame(path) for path in args.csi)
    estimates = pipeline.localize_frames(frames, config.radio)
    out = args.out or str(Path(config.paths.output_dir) / "estimates.json")
    fileio.write_estimates(out, estimates)
    print(f"wrote {out} ({len(estimates)} estimates over {len(estimates.ids)} images)")
    return 0


def cmd_project(args) -> int:
    config = _load_config(args)
    estimates = fileio.read_estimates(args.estimates)
    regions = pipeline.batch_project(estimates, config.camera, config.radio.person_extent_m,
                                     config.radio.round_trip_factor)
    out = args.out or str(Path(config.paths.output_dir) / "regions.json")
    fileio.write_regions(out, regions)
    print(f"wrote {out} ({len(regions)} regions over {len(regions.ids)} images)")
    return 0


def cmd_run(args) -> int:
    config = _load_config(args)
    methods = args.methods or [config.method]
    for method, (report, display) in zip(methods, pipeline.run_methods(config, methods)):
        print(f"method={method} output_dir={config.paths.output_dir}")
        print(f"  AP={report.ap:.4f} AP50={report.ap50:.4f} AP75={report.ap75:.4f}")
        print(f"  log-avg miss rate={report.log_avg_miss_rate:.4f}")
        print(f"  FP&FN per image={report.fp_fn_per_image:.4f} "
              f"true detection ratio={report.true_detection_ratio:.4f}")
        print(f"  detections shown={len(display)} runtime={report.runtime_s:.2f}s")
    return 0


def cmd_sweep(args) -> int:
    config = _load_config(args)
    rows = pipeline.sweep(config, args.param, args.values)
    out = args.out or str(Path(config.paths.output_dir) / f"sweep_{args.param}.csv")
    fileio.write_sweep_csv(out, rows)
    print(f"wrote {out} ({len(rows)} rows)")
    return 0


@cache  # one parser per process; callers only parse with it, each into a new namespace
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="radiofusion",
        description="Radio-region assisted detection post-processing toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic world and detections")
    _add_common(p)
    p.add_argument("--annotations", help="reuse an existing annotation file")
    p.add_argument("--num-images", type=int, default=100,
                   help="world size when generating annotations")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("simulate-regions", help="noisy regions from ground truth")
    _add_common(p)
    p.add_argument("--annotations", help="annotation file (overrides config)")
    p.add_argument("--sigma", type=float, help="edge scale noise std")
    p.add_argument("--k", type=float, help="center shift noise factor (k1 = k2)")
    p.add_argument("--out", help="output regions file")
    p.set_defaults(func=cmd_simulate_regions)

    p = sub.add_parser("localize", help="estimate people from CSI frames")
    _add_common(p)
    p.add_argument("--csi", nargs="+", required=True, help="CSI frame files")
    p.add_argument("--out", help="output estimates file")
    p.set_defaults(func=cmd_localize)

    p = sub.add_parser("project", help="project estimates to image regions")
    _add_common(p)
    p.add_argument("--estimates", required=True, help="estimates file")
    p.add_argument("--out", help="output regions file")
    p.set_defaults(func=cmd_project)

    p = sub.add_parser("run", help="run one or more methods end to end")
    _add_common(p)
    p.add_argument("--annotations", help="annotation file (overrides config)")
    p.add_argument("--detections", help="detections file (overrides config); "
                   "read by baseline and the method1 variants only")
    p.add_argument("--regions", help="regions file (overrides config); "
                   "read by every method but baseline")
    p.add_argument("--method", dest="methods", nargs="+", choices=METHODS,
                   help="pipeline methods, each at most once; the inputs are read once")
    p.add_argument("--lam", type=float, help="radio trust weight in [0, 1]")
    p.add_argument("--sigma", type=float, help="edge scale noise std")
    p.add_argument("--k", type=float, help="center shift noise factor (k1 = k2)")
    p.add_argument("--iou-threshold", dest="iou_threshold", type=float,
                   help="NMS IoU threshold")
    p.add_argument("--score-threshold", dest="score_threshold", type=float,
                   help="display confidence threshold for non-constrained methods")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("sweep", help="sweep a localization-error parameter")
    _add_common(p)
    p.add_argument("--annotations", help="annotation file (overrides config)")
    p.add_argument("--detections", help="detections file (overrides config); "
                   "read by baseline and the method1 variants only")
    p.add_argument("--method", choices=METHODS, help="pipeline method")
    p.add_argument("--param", required=True, choices=pipeline.SWEEP_PARAMS)
    p.add_argument("--values", nargs="+", type=float, required=True)
    p.add_argument("--out", help="output CSV path")
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SchemaError, InvalidInputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
