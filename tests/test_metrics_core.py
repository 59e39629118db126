"""The batched matching core at its seams, against the scalar oracle with ==.

The core pads images into chunks of ``metrics.CHUNK_IMAGES`` and matches
every threshold, size bucket and image of a chunk in one pass per detection
rank. These tests run it at chunk sizes 1, 2 and the default on a world
larger than one chunk, and on generated worlds, and require exactly the
floats of the scalar matcher kept in ``test_metrics_oracle``.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import group_by_image, iou, on_records, rect_area
from test_metrics_oracle import (
    oracle_average_precision,
    oracle_coco_map,
    oracle_match,
    oracle_mr_fppi,
    oracle_visual_metrics,
)

from radiofusion import metrics
from radiofusion.metrics import COCO_IOU_THRESHOLDS
from radiofusion.sim_regions import Annotation
from radiofusion.synth import SynthParams, generate, make_world
from radiofusion.world import Annotations, Detection, image_score_order, score_order

coco_map, mr_fppi, visual_metrics = map(on_records, (
    metrics.coco_map, metrics.mr_fppi, metrics.visual_metrics))

CHUNK_SIZES = (1, 2, metrics.CHUNK_IMAGES)


def _crowd(rng, image_id, dets, gts):
    """Jittered hits, duplicates and strays in random score order."""
    for _ in range(int(rng.integers(1, 6))):
        w, h = (float(v) for v in rng.choice([8.0, 32.0, 40.0, 96.0, 120.0], size=2))
        x, y = (float(v) for v in rng.integers(0, 200, size=2))
        gts.append(Annotation(image_id, (x, y, w, h)))
        for _ in range(int(rng.integers(0, 3))):
            dx, dy = rng.normal(0.0, 0.2 * min(w, h), size=2)
            dets.append(Detection(image_id, (x + float(dx), y + float(dy), w, h),
                                  float(rng.choice([0.3, 0.6, 0.9, rng.uniform()]))))
    for _ in range(int(rng.integers(0, 3))):
        x, y = (float(v) for v in rng.integers(0, 200, size=2))
        dets.append(Detection(image_id, (x, y, 30.0, 30.0), float(rng.uniform())))


def seam_world(num_images=300, seed=0):
    """Detections, ground truth and image ids of a world larger than one chunk.

    Images cycle through: no records, people only, detections only (one of
    zero area), detections at exactly an IoU threshold, a detection with
    equal IoU to two people, a detection on two people in different size
    buckets, and a random crowd. Record order is shuffled,
    so file order and score order differ.
    """
    rng = np.random.default_rng(seed)
    image_ids = [f"im{k:03d}" for k in range(num_images)]
    dets, gts = [], []
    for k, image_id in enumerate(image_ids):
        x, y = (float(v) for v in rng.integers(0, 200, size=2))
        kind = k % 7
        if kind == 1:
            gts.append(Annotation(image_id, (x, y, 40.0, 80.0)))
        elif kind == 2:
            dets += [Detection(image_id, (x, y, 0.0, 12.0), 0.8),
                     Detection(image_id, (x, y, 40.0, 80.0), 0.4)]
        elif kind == 3:  # IoUs of exactly 0.5 and 0.75 with a 40 x 40 person
            gts.append(Annotation(image_id, (x, y, 40.0, 40.0)))
            dets += [Detection(image_id, (x, y, 40.0, 20.0), 0.7),
                     Detection(image_id, (x, y, 40.0, 30.0), 0.5),
                     Detection(image_id, (x, y, 80.0, 40.0), 0.5)]
        elif kind == 4:  # one box over two people with IoU 0.5 to each
            gts += [Annotation(image_id, (x, y, 40.0, 80.0)),
                    Annotation(image_id, (x + 40.0, y, 40.0, 80.0))]
            dets += [Detection(image_id, (x, y, 80.0, 80.0), 0.9),
                     Detection(image_id, (x + 40.0, y, 40.0, 80.0), 0.2)]
        elif kind == 5:  # people either side of the small/medium limit under one box
            gts += [Annotation(image_id, (x, y, 32.0, 32.0)),
                    Annotation(image_id, (x, y, 30.0, 32.0))]
            dets.append(Detection(image_id, (x, y, 32.0, 32.0), 0.8))
        elif kind == 6:
            _crowd(rng, image_id, dets, gts)
    dets = [dets[i] for i in rng.permutation(len(dets))]
    gts = [gts[i] for i in rng.permutation(len(gts))]
    return dets, gts, image_ids


WORLD = seam_world()


def test_seam_world_covers_the_edge_cases():
    dets, gts, image_ids = WORLD
    dets_by_image, gts_by_image = group_by_image(dets), group_by_image(gts)
    busy = set(dets_by_image) & set(gts_by_image)
    assert len(busy) > metrics.CHUNK_IMAGES
    assert set(image_ids) - set(dets_by_image) - set(gts_by_image)
    assert set(dets_by_image) - set(gts_by_image)
    assert set(gts_by_image) - set(dets_by_image)
    assert any(rect_area(det.bbox) == 0.0 for det in dets)
    rows = {image_id: [[iou(d.bbox, g.bbox) for g in gts_by_image[image_id]]
                       for d in dets_by_image[image_id]] for image_id in busy}
    overlaps = [v for table in rows.values() for row in table for v in row]
    assert {0.5, 0.75} <= set(overlaps) & set(COCO_IOU_THRESHOLDS)
    assert any(max(row) > 0 and row.count(max(row)) > 1
               for table in rows.values() for row in table)
    assert any(oracle_match(dets_by_image[i], gts_by_image[i], 0.5, True)
               != oracle_match(dets_by_image[i], gts_by_image[i], 0.5, False) for i in busy)


@pytest.mark.parametrize("chunk", CHUNK_SIZES)
def test_metrics_equal_the_oracle_at_every_chunk_size(monkeypatch, chunk):
    monkeypatch.setattr(metrics, "CHUNK_IMAGES", chunk)
    dets, gts, image_ids = WORLD
    assert coco_map(dets, gts) == oracle_coco_map(dets, gts)
    for t in (0.5, 0.75):
        assert mr_fppi(dets, gts, t, image_ids) == oracle_mr_fppi(dets, gts, t, image_ids)
        assert (visual_metrics(dets, gts, t, image_ids)
                == oracle_visual_metrics(dets, gts, t, image_ids))


_edge = st.sampled_from([0.0, 20.0, 32.0, 40.0, 80.0, 96.0, 120.0])
_corner = st.sampled_from([0.0, 20.0, 40.0, 60.0])
_det_box = st.tuples(_corner, _corner, _edge, _edge)
_gt_box = st.tuples(_corner, _corner, _edge.filter(bool), _edge.filter(bool))
_image = st.tuples(st.lists(_gt_box, max_size=4),
                   st.lists(st.tuples(_det_box, st.sampled_from([0.3, 0.6, 0.9])), max_size=6))


@settings(max_examples=80, deadline=None)
@given(st.lists(_image, min_size=1, max_size=7), st.sampled_from(CHUNK_SIZES), st.randoms())
def test_metrics_equal_the_oracle_on_generated_worlds(images, chunk, random):
    """Boxes on a coarse grid: many exact ties, thresholds and empty images."""
    image_ids = [f"im{k}" for k in range(len(images))]
    gts = [Annotation(image_ids[k], box) for k, (boxes, _) in enumerate(images) for box in boxes]
    dets = [Detection(image_ids[k], box, score)
            for k, (_, scored) in enumerate(images) for box, score in scored]
    random.shuffle(dets)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(metrics, "CHUNK_IMAGES", chunk)
        assert coco_map(dets, gts) == oracle_coco_map(dets, gts)
        for t in (0.5, 0.75):
            assert mr_fppi(dets, gts, t, image_ids) == oracle_mr_fppi(dets, gts, t, image_ids)
            assert (visual_metrics(dets, gts, t, image_ids)
                    == oracle_visual_metrics(dets, gts, t, image_ids))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from([0.0, 0.25, 0.5, 1.0]) | st.floats(0.0, 1.0),
                          st.booleans()), max_size=40),
       st.integers(-1, 50))
def test_average_precision_equals_the_loop(scored, num_gt):
    scores = np.array([score for score, _ in scored], dtype=float)
    is_tp = np.array([tp for _, tp in scored], dtype=bool)
    assert (metrics._ranked_ap(is_tp[score_order(scores)], num_gt)
            == oracle_average_precision(scored, num_gt))


def test_coco_map_memory_on_the_north_star_world():
    """The 5000-image world's coco_map stays within 6 MB of traced allocation."""
    image_ids, gts = make_world(5000, seed=1234)
    dets = generate(gts, SynthParams(seed=1234), image_ids=image_ids)
    truth = Annotations.from_records(gts)
    tracemalloc.start()
    try:
        metrics.coco_map(dets, truth, image_ids)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 6_000_000


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 4), st.sampled_from([0.0, -0.0, 0.25, 1.0, np.nan])
                          | st.floats(0.0, 1.0)), max_size=40))
def test_image_score_order_is_the_score_order_stably_regrouped(rows):
    """The one per-image walk that nms, the matcher and the count cap share
    equals the world's score order regrouped by a second stable argsort,
    ties, ``-0.0`` and NaN included."""
    image = np.array([i for i, _ in rows], dtype=np.intp)
    scores = np.array([score for _, score in rows], dtype=float)
    order = score_order(scores)
    regrouped = order[np.argsort(image[order], kind="stable")]
    assert image_score_order(image, scores).tolist() == regrouped.tolist()
