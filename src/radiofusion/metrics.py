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
record on an image outside a given list is an input error.

One batched core does the matching for all three metrics, after
pycocotools' ``COCOeval.evaluateImg``. Only images with both detections
and people can match; they are sorted by those two counts and taken
``CHUNK_IMAGES`` at a time, so a chunk's padding stays small and memory
grows with the chunk, not the world. A chunk's boxes are padded with zero
boxes to (image, detection, 4) and (image, person, 4), detections in
visiting order. The core then walks the detection ranks once. At each rank
one IoU kernel call (``geometry.iou_arrays``, bit-equal to
``geometry.iou``) gives the rank's (image, person) IoUs, and every (size
bucket, IoU threshold, image) takes, in one masked argmax, the free real
person of highest IoU if that IoU is above 0 and reaches the threshold; a
detection that took none tries the ignored people the same way. Of equal
IoUs the argmax takes the first person, the one a scalar scan with a
strict > keeps. The flags go back to image-id-then-input order, where AP,
the miss-rate curve and the visual counts read them.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import asdict, dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import InvalidInputError
from .fusion import Detection, score_order
from .geometry import iou_arrays, rect_areas
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


SIZE_BUCKETS = ("all", "small", "medium", "large")
CHUNK_IMAGES = 128  # images padded and matched together; bounds the padded arrays
_RECALL_POINTS = np.linspace(0.0, 1.0, 101)


def _in_buckets(areas: np.ndarray, buckets: Sequence[str]) -> np.ndarray:
    """``(bucket, *areas.shape)`` membership of each box area."""
    small, large = areas < SMALL_AREA_MAX, areas > MEDIUM_AREA_MAX
    inside = {"all": np.ones(areas.shape, bool), "small": small,
              "medium": ~small & ~large, "large": large}
    return np.stack([inside[bucket] for bucket in buckets])


def check_image_ids(image_ids: Iterable[str], **ids_by_kind: Iterable[str]) -> None:
    """Raise InvalidInputError for any record id outside ``image_ids``."""
    universe = set(image_ids)
    for kind, ids in ids_by_kind.items():
        if stray := sorted(set(ids) - universe):
            raise InvalidInputError(f"{kind} on images outside the image list: {stray[:3]}")


def _per_image(
    detections: list[Detection], gts: list[Annotation], image_ids: Iterable[str] | None,
) -> tuple[list[list[Detection]], list[list[Annotation]]]:
    """Detections and ground truth of the evaluated images in id order.

    The images are ``image_ids``, else every image a record names.
    """
    dets_by_image = group_by_image(detections)
    gts_by_image = group_by_image(gts)
    universe = set(dets_by_image) | set(gts_by_image) if image_ids is None else set(image_ids)
    check_image_ids(universe, detections=dets_by_image, annotations=gts_by_image)
    ids = sorted(universe)
    return [dets_by_image.get(i, []) for i in ids], [gts_by_image.get(i, []) for i in ids]


class _Matches(NamedTuple):
    """Every detection's match flags, in image-id-then-input order."""

    scores: np.ndarray  # (N,)
    tp: np.ndarray  # (bucket, threshold, N): matched a real person
    ignored: np.ndarray  # (bucket, threshold, N): left out of the bucket's AP
    num_gt: np.ndarray  # (bucket,): real ground truth in the bucket
    num_images: int


def _flat(groups: list[list]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(N, 4) boxes of every record in group order, each group's size and start."""
    boxes = np.array([r.bbox for group in groups for r in group], dtype=float).reshape(-1, 4)
    counts = np.array([len(group) for group in groups], dtype=np.intp)
    return boxes, counts, np.cumsum(counts) - counts


def _slots(counts: np.ndarray, starts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per image, its records padded to the largest count: (index, is real)."""
    slot = np.arange(counts.max(initial=0))
    valid = slot < counts[:, None]
    return np.where(valid, starts[:, None] + slot, 0), valid


def _claim(free: np.ndarray, row: np.ndarray, limit: np.ndarray) -> np.ndarray:
    """Each (bucket, threshold, image) takes its free ground truth of highest IoU.

    ``free`` is (bucket, threshold, image, gt), ``row`` one rank's (image,
    gt) IoUs and ``limit`` the flat IoU each take must reach. The taken
    ground truth leaves ``free``. Returns the flat flags of the takes.
    """
    candidates = np.where(free, row, 0.0).reshape(limit.size, -1)
    # argmax takes the first of equal maxima, as a scalar strict > would.
    best = candidates.argmax(axis=1)
    won = candidates[np.arange(best.size), best] >= limit
    takers = np.flatnonzero(won)
    free.reshape(candidates.shape)[takers, best[takers]] = False
    return won


def _greedy(dets: np.ndarray, gts: np.ndarray, real: np.ndarray, ignore: np.ndarray,
            thresholds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Greedy one-to-one matching of every (bucket, threshold, image) at once.

    ``dets`` is (image, rank, 4) in visiting order and ``gts`` (image, gt,
    4), both padded with zero boxes, whose IoU with any box is 0;
    ``real``/``ignore`` are (bucket, image, gt). Returns two (bucket,
    threshold, image, rank) flags: matched a real person, absorbed an
    ignored one.
    """
    num_images, depth, _ = dets.shape
    shape = (real.shape[0], thresholds.size, num_images)
    free_real = np.repeat(real[:, None], thresholds.size, axis=1)
    free_ignored = np.repeat(ignore[:, None], thresholds.size, axis=1) if ignore.any() else None
    # An IoU must reach the threshold and be above 0; IoUs are never negative,
    # so both tests are one >= against the threshold raised to the least float.
    limit = np.maximum(thresholds, np.nextafter(0.0, 1.0))
    limit = np.broadcast_to(limit[:, None], shape).ravel()
    hit = np.zeros((limit.size, depth), bool)
    absorbed = np.zeros_like(hit)
    for rank in range(depth):
        row = iou_arrays(dets[:, rank, None], gts)
        hit[:, rank] = won = _claim(free_real, row, limit)
        if free_ignored is not None:  # only a detection no real person took
            absorbed[:, rank] = _claim(free_ignored, row, np.where(won, np.inf, limit))
    return hit.reshape(*shape, depth), absorbed.reshape(*shape, depth)


def _match(dets_per_image: list[list[Detection]], gts_per_image: list[list[Annotation]],
           thresholds: Sequence[float], buckets: Sequence[str] = ("all",),
           by_score: bool = True) -> _Matches:
    """Match every image at every threshold inside every size bucket."""
    det_boxes, det_counts, det_starts = _flat(dets_per_image)
    gt_boxes, gt_counts, gt_starts = _flat(gts_per_image)
    scores = np.array([det.score for dets in dets_per_image for det in dets], dtype=float)
    visit = np.arange(scores.size)
    if by_score:
        visit = np.lexsort((-scores, np.repeat(np.arange(det_counts.size), det_counts)))
    det_in = _in_buckets(rect_areas(det_boxes), buckets)
    gt_in = _in_buckets(rect_areas(gt_boxes), buckets)
    limits = np.asarray(thresholds, dtype=float)
    tp = np.zeros((len(buckets), limits.size, scores.size), bool)
    absorbed = np.zeros_like(tp)
    # Only images with both detections and people can match anything. Chunks
    # of images of alike shape keep the padding small.
    busy = np.flatnonzero((det_counts > 0) & (gt_counts > 0))
    busy = busy[np.lexsort((gt_counts[busy], det_counts[busy]))]
    for first in range(0, busy.size, CHUNK_IMAGES):
        images = busy[first:first + CHUNK_IMAGES]
        det_slot, det_valid = _slots(det_counts[images], det_starts[images])
        gt_slot, gt_valid = _slots(gt_counts[images], gt_starts[images])
        det_slot = visit[det_slot]
        dets = np.where(det_valid[..., None], det_boxes[det_slot], 0.0)
        gts = np.where(gt_valid[..., None], gt_boxes[gt_slot], 0.0)
        inside = gt_in[:, gt_slot]
        hit, took_ignored = _greedy(dets, gts, inside & gt_valid, ~inside & gt_valid, limits)
        owners = det_slot[det_valid]
        tp[..., owners] = hit[..., det_valid]
        absorbed[..., owners] = took_ignored[..., det_valid]
    ignored = absorbed | (~tp & ~det_in[:, None])
    return _Matches(scores, tp, ignored, gt_in.sum(axis=1), len(dets_per_image))


def match(detections: list[Detection], gts: list[Annotation], iou_t: float,
          sorted_by_score: bool = True) -> MatchResult:
    """Match one image's detections against its ground truth."""
    tp = _match([detections], [gts], (iou_t,), by_score=sorted_by_score).tp[0, 0].tolist()
    return MatchResult(tp=tuple(tp), fp=tuple(not f for f in tp), fn=len(gts) - sum(tp))


def _ranked_ap(is_tp: np.ndarray, num_gt: int) -> float:
    """101-point interpolated AP of tp flags already ranked by score."""
    if num_gt <= 0 or is_tp.size == 0:
        return 0.0
    cum_tp = np.cumsum(is_tp, dtype=float)
    recall = cum_tp / num_gt
    precision = cum_tp / np.arange(1, is_tp.size + 1)
    # Monotone envelope from the right, then sample at 101 recall points.
    precision = np.maximum.accumulate(precision[::-1])[::-1]
    sample_idx = np.searchsorted(recall, _RECALL_POINTS, side="left")
    return float(np.sum(precision[sample_idx[sample_idx < precision.size]])) / 101.0


def _rank(scores: np.ndarray) -> np.ndarray:
    """Indices by descending score, stable on position (as ``score_order``)."""
    return np.argsort(-scores, kind="stable")


def average_precision(scored_matches: list[tuple[float, bool]], num_gt: int) -> float:
    """101-point interpolated AP from pooled (score, is_tp) pairs.

    Pairs are ranked by descending score, stable on pooled order. Returns 0
    when there is nothing to rank or no ground truth to recall.
    """
    scores = np.array([score for score, _ in scored_matches], dtype=float)
    is_tp = np.array([is_tp for _, is_tp in scored_matches], dtype=bool)
    return _ranked_ap(is_tp[_rank(scores)], num_gt)


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
    matches = _match(*_per_image(detections, gts, image_ids), COCO_IOU_THRESHOLDS, SIZE_BUCKETS)
    order = _rank(matches.scores)
    tp, kept = matches.tp[..., order], ~matches.ignored[..., order]
    ap = {(t, bucket): _ranked_ap(tp[b, k][kept[b, k]], matches.num_gt[b])
          for b, bucket in enumerate(SIZE_BUCKETS) for k, t in enumerate(COCO_IOU_THRESHOLDS)}

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
    matches = _match(*_per_image(detections, gts, image_ids), (iou_t,))
    num_images = max(matches.num_images, 1)
    total_gt = int(matches.num_gt[0])
    order = _rank(matches.scores)
    ranked = matches.scores[order]
    # One point at the last detection of each distinct score.
    ends = np.flatnonzero(np.append(ranked[1:] != ranked[:-1], True))[:ranked.size]
    cum_tp = np.cumsum(matches.tp[0, 0, order])[ends]
    fppi = np.append(0.0, (ends + 1 - cum_tp) / num_images)
    miss = np.append(1.0, (total_gt - cum_tp) / total_gt) if total_gt > 0 else np.zeros(fppi.size)
    curve = list(zip(fppi.tolist(), miss.tolist()))
    # fppi never falls and the miss rate never rises along the ranking, so the
    # lowest miss rate at FPPI <= ref is the one at the last such point.
    samples = miss[np.searchsorted(fppi, MR_FPPI_SAMPLES, side="right") - 1].tolist()
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
    matches = _match(*_per_image(detections, gts, image_ids), (iou_t,), by_score=False)
    total_tp = int(matches.tp.sum())
    total_fp = matches.scores.size - total_tp
    total_fn = int(matches.num_gt[0]) - total_tp

    fp_fn = (total_fp + total_fn) / max(matches.num_images, 1)
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
