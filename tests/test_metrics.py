"""Metric tests: hand-computed scenes plus an independent reference matcher."""

import itertools

import numpy as np
import pytest

from conftest import match, on_records
from radiofusion import metrics
from radiofusion.metrics import COCO_IOU_THRESHOLDS, _ranked_ap
from radiofusion.sim_regions import Annotation
from radiofusion.world import Detection, score_order

coco_map, mr_fppi, truncate_to_gt_count, visual_metrics = map(on_records, (
    metrics.coco_map, metrics.mr_fppi, metrics.truncate_to_gt_count,
    metrics.visual_metrics))


def det(x, y, w, h, score, image_id="i"):
    return Detection(image_id=image_id, bbox=(float(x), float(y), float(w), float(h)),
                     score=score)


def gt(x, y, w, h, image_id="i"):
    return Annotation(image_id=image_id, bbox=(float(x), float(y), float(w), float(h)))


def average_precision(scored, num_gt):
    """AP of pooled (score, is_tp) pairs, ranked as ``coco_map`` ranks them."""
    scores = np.array([score for score, _ in scored], dtype=float)
    is_tp = np.array([tp for _, tp in scored], dtype=bool)
    return _ranked_ap(is_tp[score_order(scores)], num_gt)


# -- Independent reference implementations --------------------------------

def ref_iou(a, b):
    ax1, ay1, aw, ah = a
    bx1, by1, bw, bh = b
    iw = min(ax1 + aw, bx1 + bw) - max(ax1, bx1)
    ih = min(ay1 + ah, by1 + bh) - max(ay1, by1)
    inter = iw * ih if iw > 0 and ih > 0 else 0.0
    union = aw * ah + bw * bh - inter
    return inter / union if union > 0 else 0.0


def ref_greedy_tp(dets, gts, t):
    """Greedy matcher written independently: returns per-detection TP flags."""
    order = sorted(range(len(dets)), key=lambda i: (-dets[i].score, i))
    taken = set()
    flags = [False] * len(dets)
    for i in order:
        best, best_overlap = None, 0.0
        for j in range(len(gts)):
            if j in taken:
                continue
            overlap = ref_iou(dets[i].bbox, gts[j].bbox)
            if overlap > best_overlap:
                best, best_overlap = j, overlap
        if best is not None and best_overlap >= t:
            taken.add(best)
            flags[i] = True
    return flags


def ref_ap(dets_by_image, gts_by_image, t):
    """101-point AP computed by direct max-scan instead of an envelope."""
    scored = []
    num_gt = 0
    for image_id in sorted(set(dets_by_image) | set(gts_by_image)):
        dets = dets_by_image.get(image_id, [])
        gts = gts_by_image.get(image_id, [])
        num_gt += len(gts)
        flags = ref_greedy_tp(dets, gts, t)
        scored.extend((d.score, f) for d, f in zip(dets, flags))
    if num_gt == 0 or not scored:
        return 0.0
    scored = [scored[i] for i in sorted(range(len(scored)),
                                        key=lambda i: (-scored[i][0], i))]
    tp_cum = 0
    precisions, recalls = [], []
    for rank, (_, is_tp) in enumerate(scored, start=1):
        tp_cum += int(is_tp)
        precisions.append(tp_cum / rank)
        recalls.append(tp_cum / num_gt)
    total = 0.0
    for ref_recall in [r / 100.0 for r in range(101)]:
        candidates = [p for p, r in zip(precisions, recalls) if r >= ref_recall]
        total += max(candidates) if candidates else 0.0
    return total / 101.0


def exhaustive_max_tp(dets, gts, t):
    """Best achievable TP count over all one-to-one assignments."""
    best = 0
    indices = list(range(len(gts)))
    for assignment in itertools.permutations(indices, min(len(dets), len(gts))):
        count = 0
        for d, j in zip(dets, assignment):
            if ref_iou(d.bbox, gts[j].bbox) >= t:
                count += 1
        best = max(best, count)
    return best


class TestMatch:
    def test_perfect_single(self):
        result = match([det(0, 0, 10, 10, 0.9)], [gt(0, 0, 10, 10)], 0.5)
        assert result.tp == (True,) and result.fp == (False,) and result.fn == 0

    def test_duplicate_penalized(self):
        dets = [det(0, 0, 10, 10, 0.9), det(0, 0, 10, 10, 0.8)]
        result = match(dets, [gt(0, 0, 10, 10)], 0.5)
        assert result.tp == (True, False) and result.fn == 0

    def test_crossing_detections_vs_exhaustive_reference(self):
        gts = [gt(0, 0, 10, 10), gt(8, 0, 10, 10)]
        dets = [det(8, 0, 10, 10, 0.9), det(0, 0, 10, 10, 0.8)]
        result = match(dets, gts, 0.5)
        assert sum(result.tp) == exhaustive_max_tp(dets, gts, 0.5) == 2
        assert result.fn == 0

    def test_matches_reference_greedy_on_random_scenes(self):
        rng = np.random.default_rng(31)
        for _ in range(150):
            dets = [det(rng.uniform(0, 60), rng.uniform(0, 60), rng.uniform(5, 30),
                        rng.uniform(5, 30), float(rng.uniform(0, 1))) for _ in range(5)]
            gts = [gt(rng.uniform(0, 60), rng.uniform(0, 60), rng.uniform(5, 30),
                      rng.uniform(5, 30)) for _ in range(3)]
            result = match(dets, gts, 0.5)
            assert list(result.tp) == ref_greedy_tp(dets, gts, 0.5)
            assert sum(result.tp) <= len(gts)
            assert sum(result.tp) + result.fn == len(gts)

    def test_unordered_matching_uses_input_order(self):
        gts = [gt(0, 0, 10, 10)]
        weak_first = [det(0, 0, 10, 8, 0.2), det(0, 0, 10, 10, 0.9)]
        by_score = match(weak_first, gts, 0.5, sorted_by_score=True)
        by_order = match(weak_first, gts, 0.5, sorted_by_score=False)
        assert by_score.tp == (False, True)
        assert by_order.tp == (True, False)


class TestAveragePrecision:
    def test_all_tp_full_recall(self):
        assert average_precision([(0.9, True), (0.8, True)], 2) == 1.0

    def test_no_detections(self):
        assert average_precision([], 3) == 0.0

    def test_iou_06_case_gives_03_map(self):
        # One GT, one detection with IoU exactly 0.6: perfect at thresholds
        # 0.50/0.55/0.60, empty above, so the 10-threshold mean is 0.3.
        dets = [det(0, 0, 10, 6, 0.9)]
        gts = [gt(0, 0, 10, 10)]
        result = coco_map(dets, gts)
        assert result.ap50 == 1.0
        assert result.ap75 == 0.0
        assert result.ap == 0.3

    def test_half_fp_precision(self):
        # A trailing FP never hurts once recall already reached 1.
        assert average_precision([(0.9, True), (0.8, False)], 1) == 1.0
        # FP first: every operating point has precision <= 1/2, so the
        # envelope is flat at 1/2.
        assert average_precision([(0.9, False), (0.8, True)], 1) == 0.5


class TestCocoMap:
    def test_equals_reference_on_random_scenes(self):
        rng = np.random.default_rng(37)
        for _ in range(40):
            dets, gts = [], []
            for image_id in ("a", "b"):
                dets.extend(
                    det(rng.uniform(0, 60), rng.uniform(0, 60), rng.uniform(5, 30),
                        rng.uniform(5, 30), float(rng.uniform(0, 1)), image_id=image_id)
                    for _ in range(5)
                )
                gts.extend(
                    gt(rng.uniform(0, 60), rng.uniform(0, 60), rng.uniform(5, 30),
                       rng.uniform(5, 30), image_id=image_id)
                    for _ in range(3)
                )
            dets_by_image = {"a": [d for d in dets if d.image_id == "a"],
                             "b": [d for d in dets if d.image_id == "b"]}
            gts_by_image = {"a": [g for g in gts if g.image_id == "a"],
                            "b": [g for g in gts if g.image_id == "b"]}
            result = coco_map(dets, gts)
            expected = [ref_ap(dets_by_image, gts_by_image, t) for t in COCO_IOU_THRESHOLDS]
            assert result.ap50 == pytest.approx(expected[0], abs=1e-12)
            assert result.ap75 == pytest.approx(expected[5], abs=1e-12)
            assert result.ap == pytest.approx(sum(expected) / 10.0, abs=1e-12)

    def test_size_buckets(self):
        # One small person (10x10) and one large (200x200), each matched
        # perfectly; the opposite-bucket detection is ignored, not a FP.
        gts = [gt(0, 0, 10, 10), gt(300, 300, 200, 200)]
        dets = [det(0, 0, 10, 10, 0.9), det(300, 300, 200, 200, 0.8)]
        result = coco_map(dets, gts)
        assert result.ap == 1.0
        assert result.ap_s == 1.0
        assert result.ap_l == 1.0
        assert result.ap_m == 0.0  # no medium ground truth anywhere

    def test_cross_bucket_fp_not_ignored(self):
        # A small unmatched detection must count as FP in the small bucket.
        gts = [gt(0, 0, 10, 10)]
        dets = [det(500, 500, 10, 10, 0.9), det(0, 0, 10, 10, 0.8)]
        result = coco_map(dets, gts)
        # FP outranks the TP, so every operating point has precision 1/2.
        assert result.ap_s == 0.5

    def test_ap_monotone_in_iou_threshold(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            dets = [det(rng.uniform(0, 50), rng.uniform(0, 50), rng.uniform(5, 30),
                        rng.uniform(5, 30), float(rng.uniform(0, 1))) for _ in range(6)]
            gts = [gt(rng.uniform(0, 50), rng.uniform(0, 50), rng.uniform(5, 30),
                      rng.uniform(5, 30)) for _ in range(3)]
            dets_map, gts_map = {"i": dets}, {"i": gts}
            values = [ref_ap(dets_map, gts_map, t) for t in COCO_IOU_THRESHOLDS]
            assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_pure_fp_never_raises_ap(self):
        gts = [gt(0, 0, 10, 10)]
        dets = [det(0, 0, 10, 10, 0.8)]
        with_fp = dets + [det(500, 500, 10, 10, 0.9)]
        assert coco_map(with_fp, gts).ap <= coco_map(dets, gts).ap


class TestMrFppi:
    def test_perfect_detector(self):
        dets = [det(0, 0, 10, 10, 0.9, image_id=f"i{k}") for k in range(5)]
        gts = [gt(0, 0, 10, 10, image_id=f"i{k}") for k in range(5)]
        curve, lamr = mr_fppi(dets, gts, 0.5)
        assert lamr == 0.0
        assert curve[-1] == (0.0, 0.0)

    def test_silent_detector(self):
        gts = [gt(0, 0, 10, 10, image_id=f"i{k}") for k in range(5)]
        curve, lamr = mr_fppi([], gts, 0.5)
        assert lamr == 1.0
        assert curve == [(0.0, 1.0)]

    def test_ten_image_toy_curve_matches_hand_computation(self):
        gts = [gt(0, 0, 10, 10, image_id=f"img{k}") for k in range(10)]
        dets = []
        tp_scores = [0.95, 0.90, 0.85, 0.80, 0.75, 0.70, 0.65, 0.60]
        for k, score in enumerate(tp_scores):
            dets.append(det(0, 0, 10, 10, score, image_id=f"img{k}"))
        dets.append(det(50, 50, 10, 10, 0.99, image_id="img0"))  # planted FPs
        dets.append(det(50, 50, 10, 10, 0.72, image_id="img1"))
        dets.append(det(50, 50, 10, 10, 0.55, image_id="img2"))

        curve, lamr = mr_fppi(dets, gts, 0.5)
        expected_curve = [
            (0.0, 1.0),
            (0.1, 1.0),   # only the 0.99 FP visible
            (0.1, 0.9), (0.1, 0.8), (0.1, 0.7), (0.1, 0.6), (0.1, 0.5),
            (0.2, 0.5),   # the 0.72 FP joins
            (0.2, 0.4), (0.2, 0.3), (0.2, 0.2),
            (0.3, 0.2),   # the 0.55 FP joins
        ]
        assert curve == expected_curve
        # Nine log-spaced FPPI samples: four below 0.1 see miss rate 1.0,
        # 0.1 and 0.178 see 0.5, the last three see 0.2.
        assert lamr == pytest.approx((4 * 1.0 + 2 * 0.5 + 3 * 0.2) / 9.0)

    def test_empty_frames_count_in_fppi(self):
        gts = [gt(0, 0, 10, 10, image_id="a")]
        dets = [det(50, 50, 5, 5, 0.9, image_id="a")]
        curve_2, _ = mr_fppi(dets, gts, 0.5, image_ids=["a", "b"])
        curve_1, _ = mr_fppi(dets, gts, 0.5, image_ids=["a"])
        assert curve_2[-1][0] == 0.5 and curve_1[-1][0] == 1.0


class TestVisualMetrics:
    def test_one_tp_two_fp_ratio_one_third(self):
        gts = [gt(0, 0, 10, 20)]
        dets = [
            det(0, 0, 10, 20, 0.9),
            det(0, 1, 10, 20, 0.8),
            det(1, 0, 10, 20, 0.7),
        ]
        fp_fn, ratio = visual_metrics(dets, gts, 0.5)
        assert fp_fn == 2.0
        assert ratio == 1.0 / 3.0

    def test_one_tp_one_fp_ratio_one_half(self):
        gts = [gt(0, 0, 10, 20)]
        dets = [det(0, 0, 10, 20, 0.9), det(0, 1, 10, 20, 0.8)]
        fp_fn, ratio = visual_metrics(dets, gts, 0.5)
        assert fp_fn == 1.0
        assert ratio == 0.5

    def test_one_missed_person_ratio_one_half(self):
        gts = [gt(0, 0, 10, 20), gt(100, 0, 10, 20)]
        dets = [det(0, 0, 10, 20, 0.9)]
        fp_fn, ratio = visual_metrics(dets, gts, 0.5)
        assert fp_fn == 1.0
        assert ratio == 0.5

    def test_perfect(self):
        gts = [gt(0, 0, 10, 20), gt(100, 0, 10, 20)]
        dets = [det(0, 0, 10, 20, 0.9), det(100, 0, 10, 20, 0.4)]
        assert visual_metrics(dets, gts, 0.5) == (0.0, 1.0)

    def test_empty_everything_is_perfect(self):
        assert visual_metrics([], [], 0.5, image_ids=["a", "b"]) == (0.0, 1.0)

    def test_adding_pure_fp_never_improves(self):
        gts = [gt(0, 0, 10, 20)]
        dets = [det(0, 0, 10, 20, 0.9)]
        base_fp_fn, base_ratio = visual_metrics(dets, gts, 0.5)
        more_fp_fn, more_ratio = visual_metrics(
            dets + [det(400, 400, 10, 10, 0.99)], gts, 0.5)
        assert more_fp_fn >= base_fp_fn
        assert more_ratio <= base_ratio


class TestTruncateToGtCount:
    def test_per_image_budget(self):
        gts = [gt(0, 0, 10, 10, image_id="a"), gt(20, 0, 10, 10, image_id="a"),
               gt(0, 0, 10, 10, image_id="b")]
        dets = [
            det(0, 0, 10, 10, 0.5, image_id="a"),
            det(20, 0, 10, 10, 0.9, image_id="a"),
            det(40, 0, 10, 10, 0.7, image_id="a"),
            det(0, 0, 10, 10, 0.2, image_id="b"),
            det(5, 0, 10, 10, 0.1, image_id="b"),
        ]
        kept = truncate_to_gt_count(dets, gts)
        assert [d.score for d in kept] == [0.9, 0.7, 0.2]

    def test_image_without_gts_loses_all(self):
        dets = [det(0, 0, 10, 10, 0.9, image_id="z")]
        assert truncate_to_gt_count(dets, []) == []
