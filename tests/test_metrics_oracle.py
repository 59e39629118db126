"""The metrics against the scalar matcher they replaced, compared with ==.

The functions below, up to the scene generator, are the earlier
implementation of the metrics kept verbatim as an oracle: they match each
IoU threshold and size bucket from scratch with scalar ``geometry.iou``.
The current metrics build one IoU table per image and must give exactly the
same floats, not merely close ones.
"""

from typing import Callable

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radiofusion.fusion import Detection, score_order
from radiofusion.geometry import iou, rect_area
from radiofusion.metrics import (
    COCO_IOU_THRESHOLDS,
    MEDIUM_AREA_MAX,
    MR_FPPI_SAMPLES,
    SMALL_AREA_MAX,
    CocoMapResult,
    MatchResult,
    coco_map,
    match,
    mr_fppi,
    visual_metrics,
)
from radiofusion.sim_regions import Annotation, group_by_image


def oracle_greedy_match(
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


def oracle_match(
    detections: list[Detection],
    gts: list[Annotation],
    iou_t: float,
    sorted_by_score: bool = True,
) -> MatchResult:
    """Match one image's detections against its ground truth."""
    tp, _, fn = oracle_greedy_match(detections, gts, iou_t, sorted_by_score)
    return MatchResult(tp=tuple(tp), fp=tuple(not f for f in tp), fn=fn)


def oracle_average_precision(scored_matches: list[tuple[float, bool]], num_gt: int) -> float:
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


def oracle_bucket_contains(area: float, bucket: str) -> bool:
    if bucket == "all":
        return True
    if bucket == "small":
        return area < SMALL_AREA_MAX
    if bucket == "medium":
        return SMALL_AREA_MAX <= area <= MEDIUM_AREA_MAX
    return area > MEDIUM_AREA_MAX


def oracle_pooled_ap(
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
        gt_ignore = [not oracle_bucket_contains(rect_area(gt.bbox), bucket) for gt in gts]
        det_pred = None
        if bucket != "all":
            det_pred = lambda det: oracle_bucket_contains(rect_area(det.bbox), bucket)
        tp, ignored, _ = oracle_greedy_match(dets, gts, iou_t, True, gt_ignore, det_pred)
        num_gt += gt_ignore.count(False)
        for i, det in enumerate(dets):
            if not ignored[i]:
                scored.append((det.score, tp[i]))
    return oracle_average_precision(scored, num_gt)


def oracle_coco_map(detections: list[Detection], gts: list[Annotation]) -> CocoMapResult:
    """AP summary: mean over IoU 0.50:0.05:0.95 plus fixed-IoU and size APs.

    Size buckets follow ground-truth box area: small below 32^2, medium
    between 32^2 and 96^2 inclusive, large above 96^2. A bucket with no
    ground truth reports 0.
    """
    dets_by_image = group_by_image(detections)
    gts_by_image = group_by_image(gts)
    image_ids = sorted(set(dets_by_image) | set(gts_by_image))

    per_threshold = {
        t: oracle_pooled_ap(dets_by_image, gts_by_image, image_ids, t, "all")
        for t in COCO_IOU_THRESHOLDS
    }
    size_aps = {}
    for bucket in ("small", "medium", "large"):
        values = [
            oracle_pooled_ap(dets_by_image, gts_by_image, image_ids, t, bucket)
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


def oracle_mr_fppi(
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
        tp, _, _ = oracle_greedy_match(dets, gts_by_image.get(image_id, []), iou_t, True)
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


def oracle_visual_metrics(
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
        result = oracle_match(
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


# -- Scenes ---------------------------------------------------------------

# Boxes at exactly the small/medium and medium/large area limits, and others.
BOUNDARY_SIZES = [(32.0, 32.0), (16.0, 64.0), (96.0, 96.0), (48.0, 192.0)]
TIED_SCORES = [0.3, 0.6, 0.9]


def _size(rng):
    if rng.random() < 0.4:
        return BOUNDARY_SIZES[rng.integers(len(BOUNDARY_SIZES))]
    return float(rng.uniform(4, 160)), float(rng.uniform(4, 160))


def _score(rng):
    return TIED_SCORES[rng.integers(3)] if rng.random() < 0.5 else float(rng.uniform(0, 1))


def random_scene(rng):
    """Detections and ground truth on a few images, in shuffled file order.

    Returns (detections, ground truth, image ids); the id list also holds
    images without any record.
    """
    image_ids = [f"im{k}" for k in range(int(rng.integers(1, 5)))]
    dets, gts = [], []
    for image_id in image_ids[:-1] if len(image_ids) > 1 else image_ids:
        for _ in range(int(rng.integers(0, 7))):
            w, h = _size(rng)
            x, y = (float(v) for v in rng.integers(0, 160, size=2))
            gts.append(Annotation(image_id=image_id, bbox=(x, y, w, h)))
            for _ in range(int(rng.integers(0, 3))):  # hits, duplicates, near misses
                if rng.random() < 0.3:
                    box = (x, y, w, h)
                else:
                    dx, dy = rng.normal(0.0, 0.15 * min(w, h), size=2)
                    box = (x + float(dx), y + float(dy), w * float(rng.uniform(0.7, 1.3)), h)
                dets.append(Detection(image_id=image_id, bbox=box, score=_score(rng)))
        if rng.random() < 0.3:  # a box with equal IoU to two people, one of them hit
            w, h = _size(rng)
            x, y = (float(v) for v in rng.integers(40, 160, size=2))
            dx = float(rng.integers(1, max(2, int(w / 3))))
            gts += [Annotation(image_id=image_id, bbox=(x + s * dx, y, w, h)) for s in (-1, 1)]
            dets += [Detection(image_id=image_id, bbox=(x, y, w, h), score=0.9),
                     Detection(image_id=image_id, bbox=(x + dx * rng.choice([-1, 1]), y, w, h),
                               score=0.6)]
        for _ in range(int(rng.integers(0, 3))):  # strays
            w, h = _size(rng)
            x, y = (float(v) for v in rng.integers(0, 160, size=2))
            dets.append(Detection(image_id=image_id, bbox=(x, y, w, h), score=_score(rng)))
    dets = [dets[i] for i in rng.permutation(len(dets))]
    gts = [gts[i] for i in rng.permutation(len(gts))]
    return dets, gts, image_ids


SCENES = [random_scene(np.random.default_rng(seed)) for seed in range(120)]


def _iou_rows(scene):
    """Per detection, its positive IoUs with the people on its image."""
    dets, gts, _ = scene
    gts_by_image = group_by_image(gts)
    for det in dets:
        yield [v for g in gts_by_image.get(det.image_id, []) if (v := iou(det.bbox, g.bbox)) > 0]


def test_scenes_cover_the_edge_cases():
    boundary = {SMALL_AREA_MAX, MEDIUM_AREA_MAX}
    dets = [d for scene in SCENES for d in scene[0]]
    gts = [g for scene in SCENES for g in scene[1]]
    assert boundary <= {rect_area(d.bbox) for d in dets}
    assert boundary <= {rect_area(g.bbox) for g in gts}
    assert len({d.score for d in dets}) < len(dets)
    assert any(len(set(row)) < len(row) for scene in SCENES for row in _iou_rows(scene))
    absorbed = 0
    for scene_dets, scene_gts, _ in SCENES:
        dets_by_image, gts_by_image = group_by_image(scene_dets), group_by_image(scene_gts)
        for image_id, image_dets in dets_by_image.items():
            image_gts = gts_by_image.get(image_id, [])
            ignore = [not oracle_bucket_contains(rect_area(g.bbox), "small") for g in image_gts]
            _, ignored, _ = oracle_greedy_match(image_dets, image_gts, 0.5, True, ignore)
            absorbed += sum(ignored)
    assert absorbed > 0


@pytest.mark.parametrize("scene", range(len(SCENES)))
def test_metrics_equal_the_scalar_oracle(scene):
    dets, gts, image_ids = SCENES[scene]
    expected = oracle_coco_map(dets, gts)
    assert coco_map(dets, gts) == expected
    assert coco_map(dets, gts, image_ids) == expected
    for t in (0.5, 0.7):
        assert mr_fppi(dets, gts, t) == oracle_mr_fppi(dets, gts, t)
        assert mr_fppi(dets, gts, t, image_ids) == oracle_mr_fppi(dets, gts, t, image_ids)
        assert visual_metrics(dets, gts, t) == oracle_visual_metrics(dets, gts, t)
        assert (visual_metrics(dets, gts, t, image_ids)
                == oracle_visual_metrics(dets, gts, t, image_ids))
    gts_by_image = group_by_image(gts)
    for image_id, image_dets in group_by_image(dets).items():
        for by_score in (True, False):
            assert (match(image_dets, gts_by_image.get(image_id, []), 0.5, by_score)
                    == oracle_match(image_dets, gts_by_image.get(image_id, []), 0.5, by_score))


# -- Image order ----------------------------------------------------------

_edge = st.sampled_from([8.0, 16.0, 32.0, 64.0, 96.0, 120.0])
_box = st.tuples(st.integers(0, 60).map(float), st.integers(0, 60).map(float), _edge, _edge)
_image = st.tuples(st.lists(_box, max_size=4),
                   st.lists(st.tuples(_box, st.sampled_from(TIED_SCORES)), max_size=5))


@settings(max_examples=60, deadline=None)
@given(st.lists(_image, min_size=1, max_size=4).flatmap(
    lambda images: st.tuples(st.just(images), st.permutations(range(len(images))))))
def test_metrics_invariant_under_image_order(world):
    """AP, MR and the visual metrics ignore the order images come in."""
    images, permutation = world

    def records(order):
        image_ids = [f"im{k}" for k in order]
        gts = [Annotation(image_id=f"im{k}", bbox=box) for k in order for box in images[k][0]]
        dets = [Detection(image_id=f"im{k}", bbox=box, score=score)
                for k in order for box, score in images[k][1]]
        return dets, gts, image_ids

    given_order = records(range(len(images)))
    permuted = records(permutation)
    for metric in (coco_map, lambda d, g, i: mr_fppi(d, g, 0.5, i),
                   lambda d, g, i: visual_metrics(d, g, 0.5, i)):
        assert metric(*permuted) == metric(*given_order)
