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
record on an image outside a given list is an input error. Detections and
ground truth are ``world.Detections`` and ``world.Annotations`` columns,
put in image-id order by their image index.

AP, the miss rate and the visual counts read one match of the ranked
detections (``coco_map`` returns it, the others read its all-people row at
``EVAL_IOU``); ``visual_metrics`` reads it only if that match visited each
image's rows in their given order, and else matches the display in file
order, as it would with no match. One batched core makes each match, after
pycocotools' ``COCOeval.evaluateImg``. Only images with both detections
and people can match; sorted by those two counts, they are padded with
zero boxes ``CHUNK_IMAGES`` at a time to (image, detection, 4) and (image,
person, 4), detections in visiting order, so memory grows with the chunk,
not the world. Each image is walked once with all its people real, and
again for each size bucket that holds some but not all of them. At each
detection rank one IoU kernel call (``geometry.iou_arrays``, bit-equal to
the scalar ``iou`` in ``tests/conftest.py``) gives the rank's IoUs, and
each walk at each IoU threshold takes, in one masked argmax, the free real
person of highest IoU if that IoU is above 0 and reaches the threshold; in
a bucket's own walk a detection that took none tries the ignored people
the same way.
Of equal IoUs the argmax takes the first, as a scalar scan with a strict >
does. The flags go back to image-id-then-input order, where AP, the
miss-rate curve and the visual counts read them.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field, fields
from typing import NamedTuple

import numpy as np

from .errors import InvalidInputError
from .geometry import iou_arrays, rect_areas
from .world import Annotations, Detections, image_score_order, score_order

COCO_IOU_THRESHOLDS = tuple(round(0.5 + 0.05 * i, 2) for i in range(10))
SMALL_AREA_MAX = 32.0 ** 2
MEDIUM_AREA_MAX = 96.0 ** 2
MR_FPPI_SAMPLES = tuple(np.logspace(-2.0, 0.0, 9))
EVAL_IOU = 0.5  # the miss rate's and the visual counts' IoU threshold


@dataclass(frozen=True)
class CocoMapResult:
    ap: float
    ap50: float
    ap75: float
    ap_s: float
    ap_m: float
    ap_l: float
    # The match the APs were read from, for ``mr_fppi`` to read again.
    matches: _Matches | None = field(default=None, compare=False, repr=False)


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
        report = {f.name: getattr(self, f.name) for f in fields(self)}
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


def _per_image(detections: Detections, gts: Annotations, image_ids: Iterable[str] | None,
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Detection boxes, scores and per-image counts, then ground-truth boxes
    and per-image counts, of the evaluated images (``image_ids``, else every
    image a record names) in image-id-then-input order."""
    named, gt_named = detections.named_ids(), gts.named_ids()
    universe = sorted(set(named).union(gt_named) if image_ids is None else set(image_ids))
    check_image_ids(universe, detections=named, annotations=gt_named)
    dets, truth = detections.grouped(universe), gts.grouped(universe)
    return (dets.boxes, dets.scores, np.bincount(dets.image, minlength=len(universe)),
            truth.boxes, np.bincount(truth.image, minlength=len(universe)))


class _Matches(NamedTuple):
    """Every detection's match flags, in image-id-then-input order."""

    thresholds: tuple[float, ...]
    scores: np.ndarray  # (N,)
    tp: np.ndarray  # (bucket, threshold, N): matched a real person
    ignored: np.ndarray  # (bucket, threshold, N): left out of the bucket's AP
    num_gt: np.ndarray  # (bucket,): real ground truth in the bucket
    num_images: int
    in_order: bool  # every image's rows were visited in their given order


def _slots(counts: np.ndarray, starts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per image, its records padded to the largest count: (index, is real)."""
    slot = np.arange(counts.max(initial=0))
    valid = slot < counts[:, None]
    return np.where(valid, starts[:, None] + slot, 0), valid


def _claim(free: np.ndarray, row: np.ndarray, limit: np.ndarray) -> np.ndarray:
    """Each (walk, threshold) takes its free ground truth of highest IoU.

    ``free`` is (walk, threshold, gt), ``row`` one rank's IoUs broadcast
    against it and ``limit`` the flat IoU each take must reach. The taken
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
    ignored one. A bucket that ignores none of an image's people takes the
    image's walk's hits as its matches, one that ignores all of them as its
    absorptions; a bucket that splits them walks the image on its own.
    """
    num_images, depth, _ = dets.shape
    has_real, has_ignored = real.any(axis=2), ignore.any(axis=2)
    split_bucket, split_image = np.nonzero(has_real & has_ignored)
    walks = np.concatenate([real[0] | ignore[0], real[split_bucket, split_image]])
    free_real = np.repeat(walks[:, None], thresholds.size, axis=1)
    free_ignored = np.repeat(ignore[split_bucket, split_image, None], thresholds.size, axis=1)
    # An IoU must reach the threshold and be above 0; IoUs are never negative,
    # so both tests are one >= against the threshold raised to the least float.
    limit = np.maximum(thresholds, np.nextafter(0.0, 1.0))[None].repeat(len(walks), axis=0).ravel()
    hit = np.zeros((len(walks), thresholds.size, depth), bool)
    absorbed = np.zeros((split_image.size * thresholds.size, depth), bool)
    for rank in range(depth):
        row = iou_arrays(dets[:, rank, None], gts)[:, None]
        if split_image.size:  # a split walk reuses its image's IoUs
            row = np.concatenate([row, row[split_image]])
        hit.reshape(limit.size, depth)[:, rank] = won = _claim(free_real, row, limit)
        if split_image.size:  # only a detection no real person took
            absorbed[:, rank] = _claim(free_ignored, row[num_images:], np.where(
                won[-len(absorbed):], np.inf, limit[-len(absorbed):]))
    whole = hit[None, :num_images].swapaxes(1, 2)
    matched = np.where(~has_ignored[:, None, :, None], whole, False)
    took = np.where(~has_real[:, None, :, None], whole, False)
    matched[split_bucket, :, split_image] = hit[num_images:]
    took[split_bucket, :, split_image] = absorbed.reshape(-1, thresholds.size, depth)
    return matched, took


def _match(det_boxes: np.ndarray, scores: np.ndarray, det_counts: np.ndarray,
           gt_boxes: np.ndarray, gt_counts: np.ndarray, thresholds: Sequence[float],
           buckets: Sequence[str] = ("all",), by_score: bool = True) -> _Matches:
    """Match every image at every threshold inside every size bucket."""
    det_starts, gt_starts = np.cumsum(det_counts) - det_counts, np.cumsum(gt_counts) - gt_counts
    visit = np.arange(scores.size)
    if by_score:
        visit = image_score_order(np.repeat(np.arange(det_counts.size), det_counts), scores)
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
    return _Matches(tuple(thresholds), scores, tp, ignored, gt_in.sum(axis=1), det_counts.size,
                    bool((visit == np.arange(visit.size)).all()))


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


def coco_map(detections: Detections, gts: Annotations,
             image_ids: list[str] | None = None) -> CocoMapResult:
    """AP summary: mean over IoU 0.50:0.05:0.95 plus fixed-IoU and size APs.

    Size buckets follow ground-truth box area: small below 32^2, medium
    between 32^2 and 96^2 inclusive, large above 96^2. A bucket with no
    ground truth reports 0.
    """
    matches = _match(*_per_image(detections, gts, image_ids), COCO_IOU_THRESHOLDS, SIZE_BUCKETS)
    order = score_order(matches.scores)
    tp, kept = matches.tp[..., order], ~matches.ignored[..., order]
    ap = {(t, bucket): _ranked_ap(tp[b, k][kept[b, k]], matches.num_gt[b])
          for b, bucket in enumerate(SIZE_BUCKETS) for k, t in enumerate(COCO_IOU_THRESHOLDS)}

    def mean(bucket: str) -> float:
        return sum(ap[t, bucket] for t in COCO_IOU_THRESHOLDS) / len(COCO_IOU_THRESHOLDS)

    return CocoMapResult(ap=mean("all"), ap50=ap[0.5, "all"], ap75=ap[0.75, "all"],
                         ap_s=mean("small"), ap_m=mean("medium"), ap_l=mean("large"),
                         matches=matches)


def mr_fppi(detections: Detections, gts: Annotations, iou_t: float = EVAL_IOU,
            image_ids: list[str] | None = None, matches: _Matches | None = None,
            ) -> tuple[list[tuple[float, float]], float]:
    """Miss rate versus false positives per image, plus its log-average.

    Detections are matched once at full depth, then the score threshold is
    swept over every distinct score; each threshold contributes one
    (fppi, miss rate) point, with the empty-output operating point
    (0, 1) always present. The summary is the arithmetic mean of the lowest
    miss rate achieved at FPPI at or below each of the nine log-spaced
    sample points. With no ground truth at all the miss rate is defined
    as 0. Given ``matches``, which must be ``coco_map``'s of the same
    detections on the same ``image_ids``, it reads their ``iou_t`` row.
    """
    if matches is None:
        matches = _match(*_per_image(detections, gts, image_ids), (iou_t,))
    num_images = max(matches.num_images, 1)
    total_gt = int(matches.num_gt[0])
    order = score_order(matches.scores)
    ranked = matches.scores[order]
    # One point at the last detection of each distinct score.
    ends = np.flatnonzero(np.append(ranked[1:] != ranked[:-1], True))[:ranked.size]
    cum_tp = np.cumsum(matches.tp[0, matches.thresholds.index(iou_t), order])[ends]
    fppi = np.append(0.0, (ends + 1 - cum_tp) / num_images)
    miss = np.append(1.0, (total_gt - cum_tp) / total_gt) if total_gt > 0 else np.zeros(fppi.size)
    curve = list(zip(fppi.tolist(), miss.tolist()))
    # fppi never falls and the miss rate never rises along the ranking, so the
    # lowest miss rate at FPPI <= ref is the one at the last such point.
    samples = miss[np.searchsorted(fppi, MR_FPPI_SAMPLES, side="right") - 1].tolist()
    return curve, float(sum(samples) / len(samples))


def visual_metrics(detections: Detections, gts: Annotations, iou_t: float = EVAL_IOU,
                   image_ids: list[str] | None = None, matches: _Matches | None = None,
                   floor: float = -np.inf) -> tuple[float, float]:
    """Confidence-free visual quality: (FP+FN per image, TP/(TP+FP+FN)).

    Detections are matched in file order, never sorted by score, so every
    displayed box counts the same. The ratio is 1 for a run with no boxes
    and no people at all. ``matches`` must be ``coco_map``'s on the same
    ``image_ids``, of ranked rows whose scores at least ``floor`` are
    ``detections``. It counts their ``iou_t`` flags only if that match
    visited each image's rows in their given order, else it matches
    ``detections`` in file order as without ``matches``.
    """
    if matches is None or not matches.in_order:
        matches = _match(*_per_image(detections, gts, image_ids), (iou_t,), by_score=False)
    tp = matches.tp[0, matches.thresholds.index(iou_t), matches.scores >= floor]
    total_tp = int(tp.sum())
    total_fp = tp.size - total_tp
    total_fn = int(matches.num_gt[0]) - total_tp

    fp_fn = (total_fp + total_fn) / max(matches.num_images, 1)
    denominator = total_tp + total_fp + total_fn
    ratio = total_tp / denominator if denominator > 0 else 1.0
    return fp_fn, ratio


def truncate_to_gt_count(detections: Detections, gts: Annotations) -> Detections:
    """Keep at most as many detections per image as that image has people.

    Survivors are the per-image top scorers (stable on input position);
    their original input order is preserved. Used for count-constrained
    evaluation runs.
    """
    budget = dict(zip(gts.ids, np.bincount(gts.image, minlength=len(gts.ids)).tolist()))
    caps = np.array([budget.get(key, 0) for key in detections.ids], dtype=np.intp)
    # Each image's walk in score order; a row survives within its image's cap.
    order = image_score_order(detections.image, detections.scores)
    image = detections.image[order]
    counts = np.bincount(image, minlength=len(detections.ids))
    keep = np.zeros(len(detections), dtype=bool)
    keep[order] = np.arange(order.size) - (np.cumsum(counts) - counts)[image] < caps[image]
    return detections.take(keep)
