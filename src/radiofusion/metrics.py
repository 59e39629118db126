"""Detection metrics: COCO-style AP, miss rate vs FPPI, and visual counts.

Matching is greedy and one-to-one: detections are visited by descending
score (or in file order for the visual metrics, which deliberately ignore
confidence) and each takes the unmatched ground truth with the highest
overlap at or above the threshold. Average precision uses the 101-point
interpolated precision envelope and the mean over IoU thresholds
0.50:0.05:0.95; size-bucketed APs treat out-of-bucket ground truth as
ignore regions and discard unmatched detections whose own area falls
outside the bucket, so boxes are never penalized for people that the
bucket excludes. The miss-rate summary averages the curve at nine FPPI
samples spaced evenly in log space over [0.01, 1].
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .fusion import Detection, score_order
from .geometry import iou, rect_area
from .sim_regions import Annotation, group_by_image

COCO_IOU_THRESHOLDS = tuple(round(0.5 + 0.05 * i, 2) for i in range(10))
SMALL_AREA_MAX = 32.0 ** 2
MEDIUM_AREA_MAX = 96.0 ** 2
MR_FPPI_SAMPLES = tuple(np.logspace(-2.0, 0.0, 9))


@dataclass(frozen=True)
class MatchResult:
    """Per-image detection flags and miss count at one IoU threshold."""

    tp: tuple[bool, ...]
    fp: tuple[bool, ...]
    fn: int


class CocoMapResult(NamedTuple):
    ap: float
    ap50: float
    ap75: float
    ap_s: float
    ap_m: float
    ap_l: float


@dataclass
class MetricsReport:
    """Bundle of every evaluation output for one pipeline run."""

    ap: float = 0.0
    ap50: float = 0.0
    ap75: float = 0.0
    ap_s: float = 0.0
    ap_m: float = 0.0
    ap_l: float = 0.0
    log_avg_miss_rate: float = 0.0
    mr_fppi_curve: list[tuple[float, float]] = field(default_factory=list)
    fp_fn_per_image: float = 0.0
    true_detection_ratio: float = 1.0
    runtime_s: float = 0.0

    def to_dict(self) -> dict:
        report = asdict(self)
        report["mr_fppi_curve"] = [[f, m] for f, m in self.mr_fppi_curve]
        return report


def _greedy_match(
    detections: list[Detection],
    gts: list[Annotation],
    iou_t: float,
    sorted_by_score: bool,
    gt_ignore: list[bool] | None = None,
    det_in_bucket: Callable[[Detection], bool] | None = None,
) -> tuple[list[bool], list[bool], int]:
    """One-to-one greedy matching with optional ignore handling.

    Returns (tp flags, ignored flags, fn count), flags aligned to the input
    detection order. A detection first tries the best real ground truth; if
    none reaches the threshold it may absorb an ignored ground truth or, if
    its own area is outside the evaluated bucket, be ignored outright.
    """
    if gt_ignore is None:
        gt_ignore = [False] * len(gts)
    order = range(len(detections))
    if sorted_by_score:
        order = score_order([det.score for det in detections])
    taken = [False] * len(gts)
    tp = [False] * len(detections)
    ignored = [False] * len(detections)
    for i in order:
        det = detections[i]
        matched = False
        for pick_ignored in (False, True):
            best_j = None
            best_iou = 0.0
            for j, gt in enumerate(gts):
                if taken[j] or gt_ignore[j] != pick_ignored:
                    continue
                overlap = iou(det.bbox, gt.bbox)
                if overlap > best_iou:
                    best_j, best_iou = j, overlap
            if best_j is not None and best_iou >= iou_t:
                taken[best_j] = True
                if pick_ignored:
                    ignored[i] = True
                else:
                    tp[i] = True
                matched = True
                break
        if not matched and det_in_bucket is not None and not det_in_bucket(det):
            ignored[i] = True
    fn = sum(1 for j in range(len(gts)) if not taken[j] and not gt_ignore[j])
    return tp, ignored, fn


def match(
    detections: list[Detection],
    gts: list[Annotation],
    iou_t: float,
    sorted_by_score: bool = True,
) -> MatchResult:
    """Match one image's detections against its ground truth."""
    tp, _, fn = _greedy_match(detections, gts, iou_t, sorted_by_score)
    return MatchResult(tp=tuple(tp), fp=tuple(not f for f in tp), fn=fn)


def average_precision(scored_matches: list[tuple[float, bool]], num_gt: int) -> float:
    """101-point interpolated AP from pooled (score, is_tp) pairs.

    Pairs are ranked by descending score, stable on pooled order. Returns 0
    when there is nothing to rank or no ground truth to recall.
    """
    if num_gt <= 0 or not scored_matches:
        return 0.0
    order = score_order([score for score, _ in scored_matches])
    tp = np.array([1.0 if scored_matches[i][1] else 0.0 for i in order])
    cum_tp = np.cumsum(tp)
    ranks = np.arange(1, tp.size + 1)
    recall = cum_tp / num_gt
    precision = cum_tp / ranks
    # Monotone envelope from the right, then sample at 101 recall points.
    for i in range(precision.size - 2, -1, -1):
        precision[i] = max(precision[i], precision[i + 1])
    sample_idx = np.searchsorted(recall, np.linspace(0.0, 1.0, 101), side="left")
    total = float(np.sum(precision[sample_idx[sample_idx < precision.size]]))
    return total / 101.0


def _bucket_contains(area: float, bucket: str) -> bool:
    if bucket == "all":
        return True
    if bucket == "small":
        return area < SMALL_AREA_MAX
    if bucket == "medium":
        return SMALL_AREA_MAX <= area <= MEDIUM_AREA_MAX
    return area > MEDIUM_AREA_MAX


def _pooled_ap(
    dets_by_image: dict[str, list[Detection]],
    gts_by_image: dict[str, list[Annotation]],
    image_ids: list[str],
    iou_t: float,
    bucket: str,
) -> float:
    scored: list[tuple[float, bool]] = []
    num_gt = 0
    for image_id in image_ids:
        dets = dets_by_image.get(image_id, [])
        gts = gts_by_image.get(image_id, [])
        gt_ignore = [not _bucket_contains(rect_area(gt.bbox), bucket) for gt in gts]
        det_pred = None
        if bucket != "all":
            det_pred = lambda det: _bucket_contains(rect_area(det.bbox), bucket)
        tp, ignored, _ = _greedy_match(dets, gts, iou_t, True, gt_ignore, det_pred)
        num_gt += gt_ignore.count(False)
        for i, det in enumerate(dets):
            if not ignored[i]:
                scored.append((det.score, tp[i]))
    return average_precision(scored, num_gt)


def coco_map(detections: list[Detection], gts: list[Annotation]) -> CocoMapResult:
    """AP summary: mean over IoU 0.50:0.05:0.95 plus fixed-IoU and size APs.

    Size buckets follow ground-truth box area: small below 32^2, medium
    between 32^2 and 96^2 inclusive, large above 96^2. A bucket with no
    ground truth reports 0.
    """
    dets_by_image = group_by_image(detections)
    gts_by_image = group_by_image(gts)
    image_ids = sorted(set(dets_by_image) | set(gts_by_image))

    per_threshold = {
        t: _pooled_ap(dets_by_image, gts_by_image, image_ids, t, "all")
        for t in COCO_IOU_THRESHOLDS
    }
    size_aps = {}
    for bucket in ("small", "medium", "large"):
        values = [
            _pooled_ap(dets_by_image, gts_by_image, image_ids, t, bucket)
            for t in COCO_IOU_THRESHOLDS
        ]
        size_aps[bucket] = sum(values) / len(values)
    return CocoMapResult(
        ap=sum(per_threshold.values()) / len(per_threshold),
        ap50=per_threshold[0.5],
        ap75=per_threshold[0.75],
        ap_s=size_aps["small"],
        ap_m=size_aps["medium"],
        ap_l=size_aps["large"],
    )


def mr_fppi(
    detections: list[Detection],
    gts: list[Annotation],
    iou_t: float = 0.5,
    image_ids: list[str] | None = None,
) -> tuple[list[tuple[float, float]], float]:
    """Miss rate versus false positives per image, plus its log-average.

    Detections are matched once at full depth, then the score threshold is
    swept over every distinct score; each threshold contributes one
    (fppi, miss rate) point, with the empty-output operating point
    (0, 1) always present. The summary is the arithmetic mean of the lowest
    miss rate achieved at FPPI at or below each of the nine log-spaced
    sample points. With no ground truth at all the miss rate is defined
    as 0.
    """
    dets_by_image = group_by_image(detections)
    gts_by_image = group_by_image(gts)
    if image_ids is None:
        image_ids = sorted(set(dets_by_image) | set(gts_by_image))
    else:
        image_ids = sorted(set(image_ids))
    num_images = max(len(image_ids), 1)
    total_gt = sum(len(gts_by_image.get(i, [])) for i in image_ids)

    scored: list[tuple[float, bool]] = []
    for image_id in image_ids:
        dets = dets_by_image.get(image_id, [])
        tp, _, _ = _greedy_match(dets, gts_by_image.get(image_id, []), iou_t, True)
        scored.extend((det.score, tp[i]) for i, det in enumerate(dets))
    order = score_order([score for score, _ in scored])

    curve: list[tuple[float, float]] = [(0.0, 1.0 if total_gt > 0 else 0.0)]
    cum_tp = 0
    cum_fp = 0
    for pos, i in enumerate(order):
        score, is_tp = scored[i]
        cum_tp += int(is_tp)
        cum_fp += int(not is_tp)
        last = pos + 1 == len(order)
        if last or scored[order[pos + 1]][0] != score:
            miss = (total_gt - cum_tp) / total_gt if total_gt > 0 else 0.0
            curve.append((cum_fp / num_images, miss))

    curve.sort(key=lambda p: p[0])
    samples = []
    for ref in MR_FPPI_SAMPLES:
        eligible = [m for f, m in curve if f <= ref]
        samples.append(min(eligible) if eligible else curve[0][1])
    return curve, float(sum(samples) / len(samples))


def visual_metrics(
    detections: list[Detection],
    gts: list[Annotation],
    iou_t: float = 0.5,
    image_ids: list[str] | None = None,
) -> tuple[float, float]:
    """Confidence-free visual quality: (FP+FN per image, TP/(TP+FP+FN)).

    Detections are matched in file order, never sorted by score, so every
    displayed box counts the same. The ratio is 1 for a run with no boxes
    and no people at all.
    """
    dets_by_image = group_by_image(detections)
    gts_by_image = group_by_image(gts)
    if image_ids is None:
        image_ids = sorted(set(dets_by_image) | set(gts_by_image))
    else:
        image_ids = sorted(set(image_ids))

    total_tp = total_fp = total_fn = 0
    for image_id in image_ids:
        result = match(
            dets_by_image.get(image_id, []),
            gts_by_image.get(image_id, []),
            iou_t,
            sorted_by_score=False,
        )
        total_tp += sum(result.tp)
        total_fp += sum(result.fp)
        total_fn += result.fn

    fp_fn = (total_fp + total_fn) / max(len(image_ids), 1)
    denominator = total_tp + total_fp + total_fn
    ratio = total_tp / denominator if denominator > 0 else 1.0
    return fp_fn, ratio


def truncate_to_gt_count(
    detections: list[Detection],
    gts: list[Annotation],
) -> list[Detection]:
    """Keep at most as many detections per image as that image has people.

    Survivors are the per-image top scorers (stable on input position);
    their original input order is preserved. Used for count-constrained
    evaluation runs.
    """
    budget = {image_id: len(anns) for image_id, anns in group_by_image(gts).items()}
    keep: set[int] = set()
    for i in score_order([det.score for det in detections]):
        image_id = detections[i].image_id
        if budget.get(image_id, 0) > 0:
            budget[image_id] -= 1
            keep.add(i)
    return [det for i, det in enumerate(detections) if i in keep]
