"""The metrics against the scalar matcher they replaced, compared with ==.

The functions below, up to the scene generator, are the earlier
implementation of the metrics kept verbatim as an oracle: they match each
IoU threshold and size bucket from scratch with the scalar ``conftest.iou``.
The current metrics build one IoU table per image and must give exactly the
same floats, not merely close ones. They take ``Detections`` columns, so
they are called here on the oracle's records through
``Detections.from_records`` (``conftest.on_records``).
"""

from dataclasses import replace
from typing import Callable

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import MatchResult, group_by_image, iou, match, on_records, rect_area
from radiofusion import metrics
from radiofusion.config import METHODS, RunConfig
from radiofusion.geometry import iou_arrays, rect_areas
from radiofusion.metrics import (
    COCO_IOU_THRESHOLDS,
    EVAL_IOU,
    MEDIUM_AREA_MAX,
    MR_FPPI_SAMPLES,
    SMALL_AREA_MAX,
    CocoMapResult,
)
from radiofusion.nms import NmsConfig
from radiofusion.pipeline import apply_method, evaluate
from radiofusion.sim_regions import Annotation
from radiofusion.world import Annotations, Detection, Detections, RadioRegion, Regions, score_order

# The metrics under test, called on records through the columns.
coco_map, mr_fppi, visual_metrics = map(on_records, (
    metrics.coco_map, metrics.mr_fppi, metrics.visual_metrics))


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
    # Every size bucket holds all, none and some of an image's people on
    # images that reach the matching core (detections and people both).
    kinds = set()
    for scene_dets, scene_gts, _ in SCENES:
        dets_by_image = group_by_image(scene_dets)
        for image_id, image_gts in group_by_image(scene_gts).items():
            for bucket in ("small", "medium", "large"):
                inside = [oracle_bucket_contains(rect_area(g.bbox), bucket) for g in image_gts]
                if image_id in dets_by_image:
                    kinds.add((bucket, "all" if all(inside) else "some" if any(inside) else "none"))
    assert kinds == {(b, k) for b in ("small", "medium", "large") for k in ("all", "some", "none")}


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


# -- The dense matching core ----------------------------------------------

# The matching core as it was before images shared walks across size
# buckets, kept verbatim: every (bucket, threshold, image) claims its own
# real and ignored people at every rank.


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


# Boxes on an 8-pixel grid with sides that are multiples of 8: exact hits,
# equal IoUs with two people, and areas of exactly 32^2 and 96^2.
_sides = st.sampled_from([(8.0, 8.0), (24.0, 16.0), (32.0, 32.0), (16.0, 64.0), (40.0, 40.0),
                          (96.0, 96.0), (48.0, 192.0), (104.0, 96.0), (120.0, 120.0)])
_grid_box = st.builds(lambda x, y, side: (8.0 * x, 8.0 * y, *side),
                      st.integers(0, 5), st.integers(0, 5), _sides)
_flag_image = st.tuples(st.lists(_grid_box, max_size=5),
                        st.lists(st.tuples(_grid_box, st.sampled_from(TIED_SCORES)), max_size=6))
# People of every bucket, all in one bucket, split across buckets, none at
# all, and a box with equal IoU to two people.
_COVERING = [
    ([(0.0, 0.0, 32.0, 32.0), (8.0, 0.0, 96.0, 96.0)],
     [((0.0, 0.0, 32.0, 32.0), 0.6), ((8.0, 8.0, 96.0, 96.0), 0.9)]),
    ([(0.0, 0.0, 8.0, 8.0), (0.0, 0.0, 40.0, 40.0), (0.0, 0.0, 120.0, 120.0)],
     [((0.0, 0.0, 40.0, 40.0), 0.3), ((0.0, 0.0, 8.0, 16.0), 0.3), ((0.0, 0.0, 120.0, 112.0), 0.9)]),
    ([], [((0.0, 0.0, 32.0, 32.0), 0.9)]),
    ([(0.0, 0.0, 32.0, 32.0), (16.0, 0.0, 32.0, 32.0)],
     [((8.0, 0.0, 32.0, 32.0), 0.9), ((8.0, 0.0, 32.0, 32.0), 0.6)]),
    ([(0.0, 0.0, 16.0, 16.0), (8.0, 8.0, 16.0, 16.0)], [((0.0, 0.0, 16.0, 16.0), 0.3)]),
    ([(0.0, 0.0, 120.0, 120.0)], []),
]


# Crowded images: more than 16 ranks and more than 16 people, of every size
# bucket, so the chunk's IoUs span many ranks and most buckets split.
_crowd_image = st.tuples(
    st.lists(_grid_box, min_size=17, max_size=24),
    st.lists(st.tuples(_grid_box, st.sampled_from(TIED_SCORES)), min_size=17, max_size=28))
# One such image: 20 people, 22 detections.
_SIDES = [(8.0, 8.0), (32.0, 32.0), (40.0, 40.0), (96.0, 96.0), (104.0, 96.0), (120.0, 120.0)]
_CROWD = ([(8.0 * (k % 6), 8.0 * (k // 6), *_SIDES[k % 6]) for k in range(20)],
          [((8.0 * (k % 5), 8.0 * (k // 5), *_SIDES[k % 4]), TIED_SCORES[k % 3]) for k in range(22)])


def _padded(images, by_score):
    """Every image of ``images`` as one chunk for the core, people or not."""
    depth = max(1, max(len(dets) for _, dets in images))
    width = max(1, max(len(people) for people, _ in images))
    dets = np.zeros((len(images), depth, 4))
    gts = np.zeros((len(images), width, 4))
    valid = np.zeros((len(images), width), bool)
    for i, (people, image_dets) in enumerate(images):
        order = score_order([score for _, score in image_dets]) if by_score else range(
            len(image_dets))
        dets[i, :len(image_dets)] = np.reshape([image_dets[k][0] for k in order], (-1, 4))
        gts[i, :len(people)] = np.reshape(people, (-1, 4))
        valid[i, :len(people)] = True
    inside = metrics._in_buckets(rect_areas(gts), metrics.SIZE_BUCKETS)
    return dets, gts, inside & valid, ~inside & valid


@settings(max_examples=150, deadline=None)
@given(st.lists(_flag_image | _crowd_image, min_size=1, max_size=7),
       st.sampled_from([1, 2, 3, 128]), st.booleans())
@example(_COVERING, 2, True)
@example(_COVERING, 128, False)
@example([_CROWD, _COVERING[0], _CROWD], 128, True)
@example([_CROWD], 1, False)
def test_shared_walks_give_the_dense_flags(images, chunk, by_score):
    """The core walks an image once for every bucket that holds all or none
    of its people; its (bucket, threshold, image, rank) flags are the dense
    core's, per chunk of a run and on a chunk holding images without people,
    and on crowded chunks deeper than 16 ranks whose buckets split."""
    dets, gts, real, ignore = _padded(images, by_score)
    for rows in ([0, 1, 2, 3], [0]):  # every bucket, then "all" alone
        args = (dets, gts, real[rows], ignore[rows], np.asarray(COCO_IOU_THRESHOLDS))
        for got, expected in zip(metrics._greedy(*args), _greedy(*args)):
            assert got.shape == expected.shape and (got == expected).all()
    chunks = []

    def both(*args):
        got, expected = metrics_greedy(*args), _greedy(*args)
        for flags, dense in zip(got, expected):
            assert flags.shape == dense.shape and (flags == dense).all()
        chunks.append(args[0].shape[0])
        return got

    metrics_greedy = metrics._greedy
    ids = [f"im{k}" for k in range(len(images))]
    detections = Detections.from_records([Detection(image_id, box, score) for image_id, (_, image_dets)
                                    in zip(ids, images) for box, score in image_dets])
    people = Annotations.from_records([Annotation(image_id, box) for image_id, (boxes, _)
                                       in zip(ids, images) for box in boxes])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(metrics, "_greedy", both)
        patch.setattr(metrics, "CHUNK_IMAGES", chunk)
        for buckets in (metrics.SIZE_BUCKETS, ("all",)):
            metrics._match(*metrics._per_image(detections, people, ids), COCO_IOU_THRESHOLDS,
                           buckets, by_score)
    busy = sum(1 for people, image_dets in images if people and image_dets)
    assert chunks == [min(chunk, busy - first) for first in range(0, busy, chunk)] * 2


# -- The shared ranking match ----------------------------------------------

# Box edges by size bucket: a world drawn from one palette has all of its
# people in that bucket.
_PALETTES = {"small": (8.0, 16.0, 24.0), "medium": (40.0, 64.0, 96.0),
             "large": (100.0, 120.0), "mixed": (8.0, 32.0, 64.0, 96.0, 120.0)}


@st.composite
def _ranked_worlds(draw):
    """(image ids, people, detections) on up to four images."""
    edges = st.sampled_from(_PALETTES[draw(st.sampled_from(sorted(_PALETTES)))])
    box = st.tuples(st.integers(0, 60).map(float), st.integers(0, 60).map(float), edges, edges)
    ids = [f"im{k}" for k in range(draw(st.integers(1, 4)))]
    people = [Annotation(image_id, b) for image_id in ids for b in draw(st.lists(box, max_size=4))]
    dets = [Detection(image_id, b, score) for image_id in ids for b, score in draw(
        st.lists(st.tuples(box, st.sampled_from(TIED_SCORES)), max_size=5))]
    return ids, people, dets


_MEDIUM = [(0.0, 0.0, 40.0, 64.0), (30.0, 10.0, 96.0, 96.0)]


@settings(max_examples=80, deadline=None)
@given(_ranked_worlds(), st.sampled_from([0.5, 1.0]), st.booleans())
@example((["im0", "im1"], [], [Detection("im1", _MEDIUM[0], 0.9)]), 0.5, False)  # no people
@example((["im0"], [Annotation("im0", box) for box in _MEDIUM], []), 0.5, False)  # no detections
@example((["im0", "im1"], [Annotation("im0", box) for box in _MEDIUM],  # one bucket
          [Detection("im0", box, 0.6) for box in _MEDIUM]), 0.5, True)
def test_evaluate_reads_the_miss_rate_off_the_shared_match(world, nms_iou, count_constrained):
    """``evaluate``'s curve and log-average, read off ``coco_map``'s match,
    are the scalar oracle's on the ranked detections."""
    image_ids, people, dets = world
    config = replace(RunConfig(), nms=NmsConfig(iou_threshold=nms_iou),
                     count_constrained=count_constrained)
    gts, detections, regions = (Annotations.from_records(people),
                                Detections.from_records(dets), Regions.from_records({}))
    report, _ = evaluate(config, image_ids, gts, detections, regions)
    ranked = apply_method(config, image_ids, detections, regions)
    if count_constrained:
        ranked = metrics.truncate_to_gt_count(ranked, gts)
    assert (report.mr_fppi_curve, report.log_avg_miss_rate) == oracle_mr_fppi(
        ranked.records(), people, EVAL_IOU, image_ids)


# -- The visual counts off the shared match ---------------------------------

# A method2+cnms world at NMS IoU 0.3 whose fallback pass revives r2's 1.0
# proposal after r1's 0.5625 one, which pass one kept: the display's file
# order is not its score order, and a walk in score order would match both
# people where the file-order walk matches one.
REVIVED = (["im0"], [Annotation("im0", (46.0, 27.0, 16.0, 8.0)),
                     Annotation("im0", (45.0, 25.0, 16.0, 16.0))], [],
           {"im0": [RadioRegion(48.0, 37.0, 24.0, "r0"), RadioRegion(54.0, 32.0, 16.0, "r1"),
                    RadioRegion(52.0, 35.0, 16.0, "r2")]})


@st.composite
def _displayed_worlds(draw):
    """(image ids, people, detections, regions by image) on up to four images."""
    image_ids, people, dets = draw(_ranked_worlds())
    scores = st.sampled_from([0.1, *TIED_SCORES])  # 0.1 is below the display threshold
    dets = [replace(det, score=draw(scores)) for det in dets]
    square = st.tuples(st.integers(30, 60).map(float), st.integers(30, 60).map(float),
                       st.sampled_from([8.0, 16.0, 24.0]))
    regions = {image_id: [RadioRegion(x, y, edge, f"{image_id}r{k}") for k, (x, y, edge)
                          in enumerate(draw(st.lists(square, max_size=3)))]
               for image_id in image_ids}
    return image_ids, people, dets, regions


@settings(max_examples=80, deadline=None)
@given(_displayed_worlds(), st.sampled_from(METHODS), st.sampled_from([0.3, 0.5]),
       st.booleans())
@example(REVIVED, "method2+cnms", 0.3, False)
@example(REVIVED, "method2+cnms", 0.3, True)
def test_evaluate_reads_the_visual_counts_off_the_shared_match(world, method, nms_iou,
                                                              count_constrained):
    """``evaluate``'s visual counts, read off ``coco_map``'s match when the
    ranked rows' file order is their score order, are the scalar oracle's
    file-order counts on the display set."""
    image_ids, people, dets, regions = world
    config = replace(RunConfig(), method=method, nms=NmsConfig(iou_threshold=nms_iou),
                     count_constrained=count_constrained)
    report, display = evaluate(config, image_ids, Annotations.from_records(people),
                               Detections.from_records(dets), Regions.from_records(regions))
    assert (report.fp_fn_per_image, report.true_detection_ratio) == oracle_visual_metrics(
        display.records(), people, EVAL_IOU, image_ids)


def test_a_match_off_the_file_order_is_not_reused():
    """Given ``coco_map``'s match of ranked rows that rise in score within an
    image, ``visual_metrics`` matches the rows in file order itself."""
    image_ids, people, dets, regions = REVIVED
    config = replace(RunConfig(), method="method2+cnms", nms=NmsConfig(iou_threshold=0.3))
    gts = Annotations.from_records(people)
    ranked = apply_method(config, image_ids, Detections.from_records(dets),
                          Regions.from_records(regions))
    matches = metrics.coco_map(ranked, gts, image_ids).matches
    expected = oracle_visual_metrics(ranked.records(), people, EVAL_IOU, image_ids)
    assert expected == (3.0, 0.25)
    assert metrics.visual_metrics(ranked, gts, 0.5, image_ids, matches, -np.inf) == expected
    assert not matches.in_order


@settings(max_examples=100, deadline=None)
@given(_ranked_worlds(), st.booleans())
def test_the_match_records_whether_it_walked_the_file_order(world, by_score):
    """On rows in image-id order, the match's ``in_order`` is the test the
    pipeline made before reusing it: scores never rise within an image."""
    image_ids, people, dets = world
    if by_score:
        dets = sorted(dets, key=lambda det: (det.image_id, -det.score))
    detections = Detections.from_records(dets)
    step, fall = np.diff(detections.image), np.diff(detections.scores)
    walked = bool(((step > 0) | (step == 0) & (fall <= 0)).all())
    matches = metrics.coco_map(detections, Annotations.from_records(people), image_ids).matches
    assert matches.in_order == walked
