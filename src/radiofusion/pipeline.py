"""End-to-end batch runs: inputs, method dispatch, metrics, outputs.

A run starts from ground truth (file or synthetic world), radio regions
(file, simulated from ground truth, or projected from CSI), and detections
(file or the detector emulator). The selected method transforms the
detections of the whole world. Detections, ground truth and regions are
``world`` columns from the readers through every stage and metric to the
writer (a file-driven run builds no ``Detection``, ``Annotation`` or
``RadioRegion``). Every stage call is a world call, and every row names
its image:

  baseline        plain greedy NMS
  method1         confidence revision against the regions, then NMS
  method2         region proposals scored by the emulated head, then NMS
  method1+cnms    revision, IoU region association, constrained NMS
  method2+cnms    region proposals, provenance association, constrained NMS

Ranking metrics (AP family, miss rate curve) always see the full output.
The confidence-free visual metrics see what a user would see: methods
without the constrained NMS display boxes above ``score_threshold``, while
the constrained NMS needs no threshold because each region already yields
at most one box. Count-constrained evaluation replaces the threshold with
a per-image cap at the ground-truth count. A detection or region on an
image off the run's image list is refused.

The radio commands keep their world in tables too: ``localize_frames``
returns one ``Estimates`` table, and the ``project`` command maps it to
``Regions`` by one ``batch_project`` call, which it looks up in this
module, as a run looks up every stage here.

All randomness derives from the run seed through named substreams, so a
full run is byte-reproducible.
"""

from __future__ import annotations

import time
from collections.abc import Iterable, Iterator
from dataclasses import replace

import numpy as np

from . import fileio
from .config import METHOD_READS, METHOD_STEPS, RunConfig
from .errors import InvalidInputError, SchemaError
from .fusion import proposals_to_detections, revise_detections
from .imaging import batch_project
from .metrics import (
    MetricsReport,
    check_image_ids,
    coco_map,
    mr_fppi,
    truncate_to_gt_count,
    visual_metrics,
)
from .nms import associate_regions, constrained_nms, standard_nms
from .radio import CsiFrame, RadioEstimate, compute_spectrum, default_aoa_grid, \
    default_tof_grid, fuse_axes, pick_peaks
from .sim_regions import GT_FILTERS, build_simulative_set
from .synth import generate as synth_generate
from .world import Annotations, Detections, Estimates, Regions


def load_world(config: RunConfig) -> tuple[list[str], Annotations]:
    """Read annotations and apply the configured ground-truth filter."""
    if config.paths.annotations is None:
        raise InvalidInputError("run requires an annotations file")
    image_ids, annotations = fileio.read_annotations(config.paths.annotations)
    keep = GT_FILTERS[config.gt_filter](annotations)
    return image_ids, annotations.take((annotations.categories == "person") & keep)


def build_regions(config: RunConfig, gts: Annotations) -> Regions:
    """Regions from the configured file, else simulated from the ground truth."""
    if config.paths.regions is not None:
        return fileio.read_regions(config.paths.regions)
    noise = replace(config.noise, seed=config.substream_seed("regions"))
    return build_simulative_set(gts, noise)


def build_detections(config: RunConfig, gts: Annotations, image_ids: list[str]) -> Detections:
    """Detections from the configured file, else the detector emulator."""
    if config.paths.detections is not None:
        return fileio.read_detections(config.paths.detections)
    synth = replace(config.synth, seed=config.substream_seed("synth"))
    return synth_generate(gts, synth, image_size=config.image_size, image_ids=image_ids)


def apply_method(config: RunConfig, image_ids: list[str], detections: Detections,
                 regions: Regions) -> Detections:
    """Run the configured method on the whole world; returns the full output.

    Every stage is one world call on the detections and regions of
    ``image_ids``; a row on any other image is an input error.
    """
    check_image_ids(image_ids, detections=detections.named_ids(), regions=regions.ids)
    source, cnms = METHOD_STEPS[config.method]
    nms_cfg = replace(config.nms, mode=cnms) if cnms else config.nms
    if source == "revised":
        detections = revise_detections(detections, regions, config.lam, mode=config.mode)
    elif source == "proposals":
        detections = proposals_to_detections(regions)
    if cnms is None:
        return standard_nms(detections, nms_cfg.iou_threshold)
    detections = associate_regions(detections, regions, mode=cnms)
    return constrained_nms(detections, regions, nms_cfg)


def evaluate(config: RunConfig, image_ids: list[str], gts: Annotations,
             detections: Detections, regions: Regions) -> tuple[MetricsReport, Detections]:
    """Apply the method and compute the full metrics report.

    Returns the report and the display set of detections (the boxes a user
    would actually see, which the visual metrics are computed on): a score
    prefix of each image's ranked rows. ``visual_metrics`` is given the AP's
    match and decides itself whether it may read it. ``image_ids`` is the
    evaluated universe: ``apply_method`` refuses detections or regions on
    any other image.
    """
    start = time.perf_counter()
    ranked = apply_method(config, image_ids, detections, regions)

    display, floor = ranked, -np.inf
    if config.count_constrained:
        ranked = display = truncate_to_gt_count(ranked, gts)
    elif METHOD_STEPS[config.method][1] is None:
        floor = config.score_threshold
        display = ranked.take(ranked.scores >= floor)

    coco = coco_map(ranked, gts, image_ids)
    curve, lamr = mr_fppi(ranked, gts, image_ids=image_ids, matches=coco.matches)
    fp_fn, ratio = visual_metrics(display, gts, image_ids=image_ids, matches=coco.matches,
                                  floor=floor)
    report = MetricsReport(
        ap=coco.ap, ap50=coco.ap50, ap75=coco.ap75,
        ap_s=coco.ap_s, ap_m=coco.ap_m, ap_l=coco.ap_l,
        log_avg_miss_rate=lamr, mr_fppi_curve=curve,
        fp_fn_per_image=fp_fn, true_detection_ratio=ratio,
        runtime_s=time.perf_counter() - start,
    )
    return report, display


def evaluate_each(config: RunConfig, configs: list[RunConfig]) -> Iterator[tuple]:
    """Evaluate each of ``configs`` (``config`` but for method, lambda or
    region noise) on inputs loaded once: yields the config, image ids, ground
    truth, report and display set. An input no method reads is not opened,
    emulated or simulated, and a method gets an empty table for one it does
    not read; regions are built again only when their noise changes."""
    image_ids, gts = load_world(config)
    needs = [METHOD_READS[cfg.method] for cfg in configs]
    no_detections, no_regions = Detections.from_records(()), Regions.from_records({})
    detections = (build_detections(config, gts, image_ids) if any(d for d, _ in needs)
                  else no_detections)
    regions, built_for = no_regions, None
    for cfg, (uses_detections, uses_regions) in zip(configs, needs):
        if uses_regions and built_for != cfg.noise:
            regions, built_for = build_regions(cfg, gts), cfg.noise
        report, display = evaluate(cfg, image_ids, gts,
                                   detections if uses_detections else no_detections,
                                   regions if uses_regions else no_regions)
        yield cfg, image_ids, gts, report, display


def run_methods(config: RunConfig, methods: list[str]) -> list[tuple[MetricsReport, Detections]]:
    """Full file-driven run of each method: load the inputs once, evaluate
    every method, then write each method's files, so a method that fails
    leaves no file of the call behind."""
    if len(set(methods)) < len(methods):
        raise InvalidInputError(f"a method may run once per call, got {methods}")
    out, results = config.paths.output_dir, []
    for cfg, image_ids, gts, report, display in list(evaluate_each(
            config, [config.merge({"method": method}) for method in methods])):
        tag = cfg.method.replace("+", "_")
        fileio.write_detections(f"{out}/detections_{tag}.json", display)
        fileio.write_report(f"{out}/report_{tag}.json", {
            "method": cfg.method,
            "metrics": report.to_dict(),
            "num_images": len(image_ids),
            "num_gts": len(gts),
            "num_detections": len(display),
        })
        fileio.write_curve_csv(f"{out}/mr_fppi_{tag}.csv", report.mr_fppi_curve)
        results.append((report, display))
    return results


def run(config: RunConfig) -> tuple[MetricsReport, Detections]:
    """Full file-driven run of the configured method."""
    return run_methods(config, [config.method])[0]


# Per sweep parameter: the config keys one value sets. A noise value also
# drops the regions file, so each value simulates its own regions.
SWEEP_PATCHES = {
    "sigma": lambda v: {"noise": {"sigma": v}, "paths": {"regions": None}},
    "k": lambda v: {"noise": {"k1": v, "k2": v}, "paths": {"regions": None}},
    "k1": lambda v: {"noise": {"k1": v}, "paths": {"regions": None}},
    "k2": lambda v: {"noise": {"k2": v}, "paths": {"regions": None}},
    "lambda": lambda v: {"lambda": v},
}
SWEEP_PARAMS = tuple(SWEEP_PATCHES)


def sweep(
    config: RunConfig,
    param: str,
    values: list[float],
) -> list[dict]:
    """Re-run the configured method across one localization-error parameter.

    Inputs are loaded once. A noise sweep always simulates its regions, as
    ``simulate-regions`` does, and re-seeds the region noise substream
    identically for every value (common random numbers), so metric changes
    reflect the parameter alone. Returns one row of metrics per value.
    """
    if param not in SWEEP_PARAMS:
        raise InvalidInputError(f"sweep param must be one of {SWEEP_PARAMS}")
    configs = [config.merge(SWEEP_PATCHES[param](value)) for value in values]

    rows = []
    for value, (_, _, _, report, _) in zip(values, evaluate_each(config, configs)):
        row = {"param": param, "value": value}
        row.update({k: v for k, v in vars(report).items() if k != "mr_fppi_curve"})
        rows.append(row)
    return rows


# -- Radio localization commands -----------------------------------------

def _time_key(timestamp: float) -> str:
    """An image key for a frame without an image id, exact to its timestamp."""
    short = f"{timestamp + 0.0:g}"  # + 0.0 gives -0.0, the same moment, 0.0's key
    return f"t{short}" if float(short) == timestamp else f"t{timestamp!r}"


# Complete image pairs whose spectra are computed together. A call holds one
# chunk's frames plus those waiting for a partner. On localize-csi, 32 pairs
# cut the call's traced heap peak from 1.82 to 0.75 MB at the batch's speed;
# one pair at a time took 12% longer.
CHUNK_PAIRS = 32


def localize_frames(
    frames: Iterable[tuple[CsiFrame, str | None]],
    radio_params,
) -> Estimates:
    """Estimate people per image from paired horizontal/vertical CSI frames.

    Frames are grouped by image id (falling back to the frame timestamp);
    each group must contain exactly one frame per orientation. Peaks above
    the configured fraction of the strongest response are paired across the
    two axes by time-of-flight agreement. ``frames`` is consumed once, in
    order: a frame is held until its image has both orientations, and the
    spectra of complete pairs are computed ``CHUNK_PAIRS`` pairs at a time,
    keeping only their peaks. A pair's spectra are due at its second frame,
    so of two faults the first met in ``frames`` order is raised, whatever
    the chunk.
    """
    aoa_grid = default_aoa_grid(radio_params.aoa_step_deg)
    waiting: dict[str, CsiFrame] = {}  # an image's first frame, until its partner comes
    pairs: dict[str, tuple] = {}  # an image's two frames, then its peaks and interval
    chunk: list[str] = []

    def settle() -> None:
        due = chunk.copy()
        chunk.clear()  # first, so that a fault raised here is not settled again
        for key in due:
            peaks = {}
            for frame in pairs[key]:
                geometry = frame.geometry
                tof_grid = default_tof_grid(geometry, radio_params.num_tof_bins)
                spectrum = compute_spectrum(frame, aoa_grid, tof_grid)
                peaks[geometry.orientation] = pick_peaks(spectrum, radio_params.peak_threshold)
                if geometry.orientation == "horizontal":
                    interval = geometry.frequency_interval
            pairs[key] = peaks["horizontal"], peaks["vertical"], interval

    try:
        for frame, image_id in frames:
            key = image_id if image_id is not None else _time_key(frame.timestamp)
            orientation = frame.geometry.orientation
            first = waiting.pop(key, None)
            if key in pairs or (first is not None and first.geometry.orientation == orientation):
                raise InvalidInputError(f"image {key!r} has more than one {orientation} frame")
            if first is None:
                waiting[key] = frame
                continue
            pairs[key] = first, frame
            chunk.append(key)
            if len(chunk) == CHUNK_PAIRS:
                settle()
    except (InvalidInputError, SchemaError, OSError):  # a frame refused, read or grouped
        settle()  # a fault in a pair completed earlier is met first
        raise
    settle()

    # Fused after the last chunk, not per chunk: between spectra, fuse_axes ran
    # 1.7x slower in a profile, and localize-csi lost 2% in 10 of 10 pairs.
    estimates: dict[str, list[RadioEstimate]] = {}
    for key in sorted(pairs.keys() | waiting.keys()):
        if key in waiting:
            estimates[key] = []
            continue
        horizontal, vertical, interval = pairs[key]
        tolerance = radio_params.tof_tolerance
        if tolerance is None:
            tolerance = 2.0 / (radio_params.num_tof_bins * interval)
        estimates[key] = fuse_axes(horizontal, vertical, tolerance)
    return Estimates.from_records(estimates)
