"""End-to-end batch runs: inputs, method dispatch, metrics, outputs.

A run starts from ground truth (file or synthetic world), radio regions
(file, simulated from ground truth, or projected from CSI), and detections
(file or the detector emulator). The selected method transforms the
per-image detections:

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
a per-image cap at the ground-truth count.

All randomness derives from the run seed through named substreams, so a
full run is byte-reproducible.
"""

from __future__ import annotations

import time
from dataclasses import replace

from . import fileio
from .config import METHOD_STEPS, RunConfig
from .errors import InvalidInputError
from .fusion import Detection, proposals_to_detections, revise_detections
from .imaging import CameraModel, RadioRegion, batch_project
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
from .sim_regions import GT_FILTERS, Annotation, build_simulative_set, group_by_image
from .synth import generate as synth_generate

EVAL_IOU = 0.5


def load_world(config: RunConfig) -> tuple[list[str], list[Annotation]]:
    """Read annotations and apply the configured ground-truth filter."""
    if config.paths.annotations is None:
        raise InvalidInputError("run requires an annotations file")
    image_ids, annotations = fileio.read_annotations(config.paths.annotations)
    keep = GT_FILTERS[config.gt_filter]
    gts = [ann for ann in annotations if ann.category == "person" and keep(ann)]
    return image_ids, gts


def build_regions(config: RunConfig, gts: list[Annotation]) -> dict[str, list[RadioRegion]]:
    """Regions from the configured file, else simulated from ground truth."""
    if config.paths.regions is not None:
        return fileio.read_regions(config.paths.regions)
    noise = replace(config.noise, seed=config.substream_seed("regions"))
    return build_simulative_set(gts, noise)


def build_detections(
    config: RunConfig,
    gts: list[Annotation],
    image_ids: list[str],
) -> list[Detection]:
    """Detections from the configured file, else the detector emulator."""
    if config.paths.detections is not None:
        return fileio.read_detections(config.paths.detections)
    synth = replace(config.synth, seed=config.substream_seed("synth"))
    return synth_generate(gts, synth, image_size=config.image_size, image_ids=image_ids)


def apply_method(
    config: RunConfig,
    image_ids: list[str],
    detections: list[Detection],
    regions_by_image: dict[str, list[RadioRegion]],
) -> list[Detection]:
    """Run the configured method image by image; returns the full output."""
    source, cnms = METHOD_STEPS[config.method]
    nms_cfg = replace(config.nms, mode=cnms) if cnms else config.nms
    dets_by_image = group_by_image(detections)
    output: list[Detection] = []
    for image_id in sorted(set(image_ids)):
        dets = dets_by_image.get(image_id, [])
        regions = regions_by_image.get(image_id, [])
        if source == "revised":
            dets = revise_detections(dets, regions, config.lam, mode=config.mode)
        elif source == "proposals":
            dets = proposals_to_detections(regions, image_id)
        if cnms is None:
            output.extend(standard_nms(dets, nms_cfg.iou_threshold))
        else:
            dets = associate_regions(dets, regions, mode=cnms)
            output.extend(constrained_nms(dets, regions, nms_cfg, image_id=image_id))
    return output


def evaluate(
    config: RunConfig,
    image_ids: list[str],
    gts: list[Annotation],
    detections: list[Detection],
    regions_by_image: dict[str, list[RadioRegion]],
) -> tuple[MetricsReport, list[Detection]]:
    """Apply the method and compute the full metrics report.

    Returns the report and the display set of detections (the boxes a user
    would actually see, which the visual metrics are computed on).
    ``image_ids`` is the evaluated universe: detections or regions on any
    other image are an input error.
    """
    check_image_ids(image_ids, detections=(det.image_id for det in detections),
                    regions=regions_by_image)
    start = time.perf_counter()
    ranked = apply_method(config, image_ids, detections, regions_by_image)

    if config.count_constrained:
        ranked = truncate_to_gt_count(ranked, gts)
        display = ranked
    elif METHOD_STEPS[config.method][1] is not None:
        display = ranked
    else:
        display = [d for d in ranked if d.score >= config.score_threshold]

    coco = coco_map(ranked, gts, image_ids)
    curve, lamr = mr_fppi(ranked, gts, EVAL_IOU, image_ids)
    fp_fn, ratio = visual_metrics(display, gts, EVAL_IOU, image_ids)
    report = MetricsReport(
        ap=coco.ap, ap50=coco.ap50, ap75=coco.ap75,
        ap_s=coco.ap_s, ap_m=coco.ap_m, ap_l=coco.ap_l,
        log_avg_miss_rate=lamr, mr_fppi_curve=curve,
        fp_fn_per_image=fp_fn, true_detection_ratio=ratio,
        runtime_s=time.perf_counter() - start,
    )
    return report, display


def run(config: RunConfig) -> tuple[MetricsReport, list[Detection]]:
    """Full file-driven run: load inputs, evaluate, write outputs."""
    image_ids, gts = load_world(config)
    regions_by_image = build_regions(config, gts)
    detections = build_detections(config, gts, image_ids)
    report, display = evaluate(config, image_ids, gts, detections, regions_by_image)

    out = config.paths.output_dir
    fileio.write_detections(f"{out}/detections_{config.method.replace('+', '_')}.json", display)
    fileio.write_report(f"{out}/report_{config.method.replace('+', '_')}.json", {
        "method": config.method,
        "metrics": report.to_dict(),
        "num_images": len(image_ids),
        "num_gts": len(gts),
        "num_detections": len(display),
    })
    fileio.write_curve_csv(f"{out}/mr_fppi_{config.method.replace('+', '_')}.csv",
                           report.mr_fppi_curve)
    return report, display


# Per sweep parameter: the config keys one value sets.
SWEEP_PATCHES = {
    "sigma": lambda v: {"noise": {"sigma": v}},
    "k": lambda v: {"noise": {"k1": v, "k2": v}},
    "k1": lambda v: {"noise": {"k1": v}},
    "k2": lambda v: {"noise": {"k2": v}},
    "lambda": lambda v: {"lambda": v},
}
SWEEP_PARAMS = tuple(SWEEP_PATCHES)


def sweep(
    config: RunConfig,
    param: str,
    values: list[float],
) -> list[dict]:
    """Re-run the configured method across one localization-error parameter.

    Inputs are loaded once; the region noise substream is re-seeded
    identically for every value (common random numbers), so metric changes
    reflect the parameter alone. Returns one row of metrics per value.
    """
    if param not in SWEEP_PARAMS:
        raise InvalidInputError(f"sweep param must be one of {SWEEP_PARAMS}")
    image_ids, gts = load_world(config)
    detections = build_detections(config, gts, image_ids)

    rows = []
    for value in values:
        cfg = config.merge(SWEEP_PATCHES[param](value))
        regions_by_image = build_regions(cfg, gts)
        report, _ = evaluate(cfg, image_ids, gts, detections, regions_by_image)
        row = {"param": param, "value": value}
        row.update({k: v for k, v in report.to_dict().items() if k != "mr_fppi_curve"})
        rows.append(row)
    return rows


# -- Radio localization commands -----------------------------------------

def localize_frames(
    frames: list[tuple[CsiFrame, str | None]],
    radio_params,
) -> dict[str, list[RadioEstimate]]:
    """Estimate people per image from paired horizontal/vertical CSI frames.

    Frames are grouped by image id (falling back to the frame timestamp);
    each group must contain exactly one frame per orientation. Peaks above
    the configured fraction of the strongest response are paired across the
    two axes by time-of-flight agreement.
    """
    groups: dict[str, dict[str, CsiFrame]] = {}
    for frame, image_id in frames:
        key = image_id if image_id is not None else f"t{frame.timestamp:g}"
        slot = groups.setdefault(key, {})
        orientation = frame.geometry.orientation
        if orientation in slot:
            raise InvalidInputError(
                f"image {key!r} has more than one {orientation} frame"
            )
        slot[orientation] = frame

    estimates: dict[str, list[RadioEstimate]] = {}
    for key in sorted(groups):
        slot = groups[key]
        if "horizontal" not in slot or "vertical" not in slot:
            estimates[key] = []
            continue
        peaks = {}
        for orientation, frame in slot.items():
            aoa_grid = default_aoa_grid(radio_params.aoa_step_deg)
            tof_grid = default_tof_grid(frame.geometry, radio_params.num_tof_bins)
            spectrum = compute_spectrum(frame, aoa_grid, tof_grid)
            peaks[orientation] = pick_peaks(spectrum, radio_params.peak_threshold)
        tolerance = radio_params.tof_tolerance
        if tolerance is None:
            interval = slot["horizontal"].geometry.frequency_interval
            tolerance = 2.0 / (radio_params.num_tof_bins * interval)
        estimates[key] = fuse_axes(peaks["horizontal"], peaks["vertical"], tolerance)
    return estimates


def project_estimates(
    estimates_by_image: dict[str, list[RadioEstimate]],
    camera: CameraModel,
    radio_params,
) -> dict[str, list[RadioRegion]]:
    """Project per-image estimates to square regions, dropping out-of-view ones."""
    return {
        image_id: batch_project(
            ests, camera,
            person_extent_m=radio_params.person_extent_m,
            range_factor=radio_params.round_trip_factor,
        )
        for image_id, ests in estimates_by_image.items()
    }
