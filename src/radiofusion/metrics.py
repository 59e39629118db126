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

Every metric evaluates one image universe: the given ``image_ids`` (a run
passes the annotation image list), else every image a record names. A
record on an image outside a given list is an input error. Each image's
IoU table and score order are computed once and shared by every threshold
and size bucket.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from dataclasses import asdict, dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import InvalidInputError
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


SIZE_BUCKETS: dict[str, Callable[[float], bool]] = {
    "all": lambda area: True,
    "small": lambda area: area < SMALL_AREA_MAX,
    "medium": lambda area: SMALL_AREA_MAX <= area <= MEDIUM_AREA_MAX,
    "large": lambda area: area > MEDIUM_AREA_MAX,
}


class _Image(NamedTuple):
    """One evaluated image: what every threshold and bucket matches on."""

    scores: list[float]
    order: Sequence[int]  # visiting order of the detections
    ious: list[list[float]]  # [detection][ground truth]
    det_areas: list[float]
    gt_areas: list[float]


def _image(detections: list[Detection], gts: list[Annotation], by_score: bool) -> _Image:
    scores = [det.score for det in detections]
    order = score_order(scores) if by_score else range(len(scores))
    return _Image(scores, order, [[iou(det.bbox, gt.bbox) for gt in gts] for det in detections],
                  [rect_area(det.bbox) for det in detections], [rect_area(gt.bbox) for gt in gts])


def check_image_ids(image_ids: Iterable[str], **ids_by_kind: Iterable[str]) -> None:
    """Raise InvalidInputError for any record id outside ``image_ids``."""
    universe = set(image_ids)
    for kind, ids in ids_by_kind.items():
        if stray := sorted(set(ids) - universe):
            raise InvalidInputError(f"{kind} on images outside the image list: {stray[:3]}")


def _images(detections: list[Detection], gts: list[Annotation],
            image_ids: Iterable[str] | None, by_score: bool = True) -> list[_Image]:
    """The evaluated images in id order: ``image_ids``, else every image seen."""
    dets_by_image = group_by_image(detections)
    gts_by_image = group_by_image(gts)
    universe = set(dets_by_image) | set(gts_by_image) if image_ids is None else set(image_ids)
    check_image_ids(universe, detections=dets_by_image, annotations=gts_by_image)
    return [_image(dets_by_image.get(i, []), gts_by_image.get(i, []), by_score)
            for i in sorted(universe)]


def _greedy_match(image: _Image, iou_t: float, bucket: str) -> tuple[list[bool], list[bool], int]:
    """One-to-one greedy matching of one image inside one size bucket.

    Returns (tp flags, ignored flags, fn count), flags aligned to the input
    detection order. Ground truth outside the bucket is an ignore region. A
    detection first tries the best real ground truth; if none reaches the
    threshold it may absorb an ignored ground truth or, if its own area is
    outside the bucket, be ignored outright.
    """
    inside = SIZE_BUCKETS[bucket]
    real = [inside(area) for area in image.gt_areas]
    taken = [False] * len(real)
    tp = [False] * len(image.scores)
    ignored = [False] * len(image.scores)
    for i in image.order:
        for pick_real in (True, False):
            best_j, best_iou = None, 0.0
            for j, overlap in enumerate(image.ious[i]):
                if not taken[j] and real[j] == pick_real and overlap > best_iou:
                    best_j, best_iou = j, overlap
            if best_j is not None and best_iou >= iou_t:
                taken[best_j] = True
                (tp if pick_real else ignored)[i] = True
                break
        else:
            ignored[i] = not inside(image.det_areas[i])
    fn = sum(1 for j in range(len(real)) if real[j] and not taken[j])
    return tp, ignored, fn


def match(detections: list[Detection], gts: list[Annotation], iou_t: float,
          sorted_by_score: bool = True) -> MatchResult:
    """Match one image's detections against its ground truth."""
    tp, _, fn = _greedy_match(_image(detections, gts, sorted_by_score), iou_t, "all")
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


def _pooled(images: list[_Image], iou_t: float, bucket: str) -> tuple[list, int]:
    """(score, is_tp) of every detection the bucket keeps, and the real ground truth count."""
    scored: list[tuple[float, bool]] = []
    num_gt = 0
    for image in images:
        tp, ignored, fn = _greedy_match(image, iou_t, bucket)
        num_gt += fn + sum(tp)
        scored.extend((score, is_tp) for score, is_tp, skip
                      in zip(image.scores, tp, ignored) if not skip)
    return scored, num_gt


def coco_map(
    detections: list[Detection],
    gts: list[Annotation],
    image_ids: list[str] | None = None,
) -> CocoMapResult:
    """AP summary: mean over IoU 0.50:0.05:0.95 plus fixed-IoU and size APs.

    Size buckets follow ground-truth box area: small below 32^2, medium
    between 32^2 and 96^2 inclusive, large above 96^2. A bucket with no
    ground truth reports 0.
    """
    images = _images(detections, gts, image_ids)
    ap = {(t, bucket): average_precision(*_pooled(images, t, bucket))
          for bucket in SIZE_BUCKETS for t in COCO_IOU_THRESHOLDS}

    def mean(bucket: str) -> float:
        return sum(ap[t, bucket] for t in COCO_IOU_THRESHOLDS) / len(COCO_IOU_THRESHOLDS)

    return CocoMapResult(ap=mean("all"), ap50=ap[0.5, "all"], ap75=ap[0.75, "all"],
                         ap_s=mean("small"), ap_m=mean("medium"), ap_l=mean("large"))


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
    images = _images(detections, gts, image_ids)
    num_images = max(len(images), 1)
    scored, total_gt = _pooled(images, iou_t, "all")
    order = score_order([score for score, _ in scored])

    curve: list[tuple[float, float]] = [(0.0, 1.0 if total_gt > 0 else 0.0)]
    cum_tp = cum_fp = 0
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
    images = _images(detections, gts, image_ids, by_score=False)
    total_tp = total_fp = total_fn = 0
    for image in images:
        tp, _, fn = _greedy_match(image, iou_t, "all")
        total_tp += sum(tp)
        total_fp += len(tp) - sum(tp)
        total_fn += fn

    fp_fn = (total_fp + total_fn) / max(len(images), 1)
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
