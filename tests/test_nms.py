"""Suppression tests, including oracle equivalence with a brute-force NMS."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import iou, on_records, regions_in, to_bbox
from radiofusion import nms
from radiofusion.errors import InvalidInputError
from radiofusion.geometry import MAX_COORD, iou_arrays
from radiofusion.imaging import RadioRegion
from radiofusion.nms import NmsConfig
from radiofusion.world import Detection, Detections, image_score_order

standard_nms = on_records(nms.standard_nms)
associate_regions = on_records(nms.associate_regions)
constrained_nms = on_records(nms.constrained_nms)


def det(x, y, w, h, score, image_id="i", region_id=None):
    return Detection(image_id=image_id, bbox=(float(x), float(y), float(w), float(h)),
                     score=score, region_id=region_id)


def brute_force_nms(detections, threshold):
    """Independent reference: corner-based IoU, explicit O(n^2) greedy loop."""

    def ref_iou(a, b):
        ax1, ay1, aw, ah = a
        bx1, by1, bw, bh = b
        ax2, ay2 = ax1 + aw, ay1 + ah
        bx2, by2 = bx1 + bw, by1 + bh
        iw = min(ax2, bx2) - max(ax1, bx1)
        ih = min(ay2, by2) - max(ay1, by1)
        inter = iw * ih if iw > 0 and ih > 0 else 0.0
        union = aw * ah + bw * bh - inter
        return inter / union if union > 0 else 0.0

    remaining = list(range(len(detections)))
    remaining.sort(key=lambda i: (-detections[i].score, i))
    kept = []
    while remaining:
        best = remaining.pop(0)
        kept.append(best)
        remaining = [
            i for i in remaining
            if ref_iou(detections[i].bbox, detections[best].bbox) < threshold
        ]
    return [detections[i] for i in kept]


def random_scene(rng, n=10, image_id="i"):
    return [
        det(rng.uniform(0, 80), rng.uniform(0, 80), rng.uniform(5, 40),
            rng.uniform(5, 40), round(float(rng.uniform(0, 1)), 6), image_id=image_id)
        for _ in range(n)
    ]


class TestIou:
    def test_examples(self):
        assert iou((0, 0, 2, 2), (0, 0, 2, 2)) == 1.0
        assert iou((0, 0, 2, 2), (5, 5, 1, 1)) == 0.0
        assert iou((0, 0, 2, 2), (1, 1, 2, 2)) == pytest.approx(1.0 / 7.0)


class TestStandardNms:
    def test_single_detection(self):
        d = det(0, 0, 10, 10, 0.5)
        assert standard_nms([d], 0.5) == [d]

    def test_identical_boxes_keep_best(self):
        a = det(0, 0, 10, 10, 0.9)
        b = det(0, 0, 10, 10, 0.8)
        assert standard_nms([b, a], 0.5) == [a]

    def test_matches_brute_force_reference(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            scene = random_scene(rng, n=5)
            assert standard_nms(scene, 0.5) == brute_force_nms(scene, 0.5)

    def test_stable_tie_break(self):
        a = det(0, 0, 10, 10, 0.7)
        b = det(100, 100, 10, 10, 0.7)
        assert standard_nms([a, b], 0.5) == [a, b]


class TestAssociateRegions:
    REGIONS = [
        RadioRegion(center_x=20.0, center_y=20.0, edge=20.0, identifier="rA"),
        RadioRegion(center_x=80.0, center_y=20.0, edge=20.0, identifier="rB"),
    ]

    def test_centered_detection_gets_its_region(self):
        dets = associate_regions([det(10, 10, 20, 20, 0.9)], self.REGIONS)
        assert dets[0].region_id == "rA"

    def test_no_overlap_gets_none(self):
        dets = associate_regions([det(200, 200, 10, 10, 0.9)], self.REGIONS)
        assert dets[0].region_id is None

    def test_argmax_iou_wins(self):
        # Box overlaps rA with IoU 0.4-ish and rB barely.
        regions = [
            RadioRegion(center_x=15.0, center_y=10.0, edge=20.0, identifier="rA"),
            RadioRegion(center_x=40.0, center_y=10.0, edge=20.0, identifier="rB"),
        ]
        box = det(5, 0, 28, 20, 0.9)
        iou_a = iou(box.bbox, to_bbox(regions[0]))
        iou_b = iou(box.bbox, to_bbox(regions[1]))
        assert iou_a > iou_b > 0
        assert associate_regions([box], regions)[0].region_id == "rA"

    def test_two_stage_passthrough_and_validation(self):
        tagged = det(0, 0, 10, 10, 0.9, region_id="rX")
        assert associate_regions([tagged], self.REGIONS, mode="two_stage")[0].region_id == "rX"
        with pytest.raises(InvalidInputError):
            associate_regions([det(0, 0, 10, 10, 0.9)], self.REGIONS, mode="two_stage")

    @settings(max_examples=100, deadline=None)
    @given(ids=st.lists(st.none() | st.sampled_from(["None", "", "rA", "0"]) | st.text(max_size=3),
                        max_size=6),
           images=st.lists(st.sampled_from(["i", "j"]), min_size=6, max_size=6))
    def test_two_stage_refuses_exactly_when_an_id_is_none(self, ids, images):
        dets = [det(i, 0, 10, 10, 0.5, image_id=image, region_id=rid)
                for i, (rid, image) in enumerate(zip(ids, images))]
        if None in ids:
            with pytest.raises(InvalidInputError, match="^two_stage association requires"):
                associate_regions(dets, self.REGIONS, mode="two_stage")
        else:
            kept = associate_regions(dets, self.REGIONS, mode="two_stage")
            assert sorted(map(repr, kept)) == sorted(map(repr, dets))


class TestConstrainedNms:
    def test_one_region_three_boxes_keeps_best(self):
        regions = [RadioRegion(center_x=15.0, center_y=15.0, edge=30.0, identifier="r0")]
        dets = [
            det(0, 0, 30, 30, 0.9, region_id="r0"),
            det(2, 2, 30, 30, 0.8, region_id="r0"),
            det(4, 0, 30, 30, 0.7, region_id="r0"),
        ]
        cfg = NmsConfig(iou_threshold=0.5, mode="one_stage", enable_fallback_loop=False)
        kept = constrained_nms(dets, regions, cfg)
        assert kept == [dets[0]]

    def test_region_used_skip_traced_by_hand(self):
        # Best two boxes both belong to region A and are disjoint, so the
        # overlap test alone would keep both; the region constraint must
        # skip the second and let the region-B box through.
        regions = [
            RadioRegion(center_x=25.0, center_y=25.0, edge=50.0, identifier="rA"),
            RadioRegion(center_x=200.0, center_y=25.0, edge=50.0, identifier="rB"),
        ]
        dets = [
            det(0, 0, 20, 20, 0.9, region_id="rA"),
            det(30, 30, 20, 20, 0.8, region_id="rA"),
            det(190, 10, 30, 30, 0.7, region_id="rB"),
        ]
        cfg = NmsConfig(iou_threshold=0.5, mode="one_stage", enable_fallback_loop=False)
        kept = constrained_nms(dets, regions, cfg)
        assert kept == [dets[0], dets[2]]

    def test_strict_drops_unassociated(self):
        regions = [RadioRegion(center_x=15.0, center_y=15.0, edge=30.0, identifier="r0")]
        stray = det(500, 500, 20, 20, 0.99, region_id=None)
        cfg = NmsConfig(iou_threshold=0.5, mode="one_stage", enable_fallback_loop=False)
        assert constrained_nms([stray], regions, cfg) == []
        permissive = NmsConfig(iou_threshold=0.5, mode="one_stage",
                               enable_fallback_loop=False, require_region=False)
        assert constrained_nms([stray], regions, permissive) == [stray]

    def test_fallback_revives_best_suppressed(self):
        # Two overlapping region squares: the lower-scored region's boxes
        # are all suppressed by overlap, so the fallback loop revives its
        # best candidate.
        regions = [
            RadioRegion(center_x=25.0, center_y=25.0, edge=50.0, identifier="rA"),
            RadioRegion(center_x=30.0, center_y=25.0, edge=50.0, identifier="rB"),
        ]
        dets = [
            det(0, 0, 50, 50, 0.9, region_id="rA"),
            det(5, 0, 50, 50, 0.8, region_id="rB"),  # IoU with first is high
            det(6, 0, 50, 50, 0.5, region_id="rB"),
        ]
        cfg = NmsConfig(iou_threshold=0.5, mode="two_stage", enable_fallback_loop=True)
        kept = constrained_nms(dets, regions, cfg)
        assert dets[0] in kept and dets[1] in kept and len(kept) == 2

    def test_fallback_emits_region_anchor_at_floor_score(self):
        # Region with no candidate detections at all: its own square comes
        # back at the configured floor score.
        regions = [
            RadioRegion(center_x=25.0, center_y=25.0, edge=50.0, identifier="rA"),
            RadioRegion(center_x=300.0, center_y=25.0, edge=40.0, identifier="rB"),
        ]
        dets = [det(0, 0, 50, 50, 0.9, image_id="img7", region_id="rA")]
        cfg = NmsConfig(iou_threshold=0.5, mode="two_stage", enable_fallback_loop=True,
                        fallback_floor_score=0.01)
        kept = constrained_nms(dets, regions_in(regions, "img7"), cfg)
        assert len(kept) == 2
        anchor = kept[1]
        assert anchor.bbox == (280.0, 5.0, 40.0, 40.0)
        assert anchor.score == 0.01
        assert anchor.region_id == "rB"
        assert anchor.image_id == "img7"

    def test_fallback_anchor_without_detections_names_its_regions_image(self):
        # No detections: the region columns name the image an anchor belongs
        # to, so no record with an empty image id is made.
        regions = regions_in(
            [RadioRegion(center_x=10.0, center_y=10.0, edge=8.0, identifier="r0")], "img3")
        cfg = NmsConfig(mode="two_stage", enable_fallback_loop=True)
        (anchor,) = constrained_nms([], regions, cfg)
        assert anchor.image_id == "img3" and anchor.region_id == "r0"
        assert constrained_nms([], regions, NmsConfig(enable_fallback_loop=False)) == []

    def test_disabled_constraint_equals_standard(self):
        rng = np.random.default_rng(13)
        cfg = NmsConfig(iou_threshold=0.5, mode="one_stage", enable_fallback_loop=False)
        for _ in range(100):
            scene = random_scene(rng)
            assert constrained_nms(scene, None, cfg) == standard_nms(scene, 0.5)

    def test_invariants_on_random_scenes(self):
        rng = np.random.default_rng(17)
        cfg = NmsConfig(iou_threshold=0.5, mode="one_stage", enable_fallback_loop=False)
        for _ in range(100):
            scene = random_scene(rng)
            regions = [
                RadioRegion(center_x=float(rng.uniform(10, 90)),
                            center_y=float(rng.uniform(10, 90)),
                            edge=float(rng.uniform(10, 40)),
                            identifier=f"r{k}")
                for k in range(3)
            ]
            kept = constrained_nms(associate_regions(scene, regions),
                                   regions, cfg)
            assert len(kept) <= len(regions)
            ids = [d.region_id for d in kept]
            assert len(set(ids)) == len(ids)
            for a in range(len(kept)):
                for b in range(a + 1, len(kept)):
                    assert iou(kept[a].bbox, kept[b].bbox) < cfg.iou_threshold

    def test_fallback_guarantees_one_per_region(self):
        rng = np.random.default_rng(19)
        cfg = NmsConfig(iou_threshold=0.5, mode="two_stage", enable_fallback_loop=True)
        for _ in range(50):
            regions = [
                RadioRegion(center_x=float(rng.uniform(10, 90)),
                            center_y=float(rng.uniform(10, 90)),
                            edge=float(rng.uniform(10, 40)),
                            identifier=f"r{k}")
                for k in range(4)
            ]
            scene = [
                det(rng.uniform(0, 80), rng.uniform(0, 80), rng.uniform(5, 40),
                    rng.uniform(5, 40), round(float(rng.uniform(0, 1)), 6),
                    region_id=f"r{rng.integers(0, 4)}")
                for _ in range(10)
            ]
            kept = constrained_nms(scene, regions, cfg)
            assert sorted(d.region_id for d in kept) == sorted(r.identifier for r in regions)

    def test_deterministic(self):
        rng = np.random.default_rng(23)
        scene = random_scene(rng)
        regions = [RadioRegion(center_x=40.0, center_y=40.0, edge=60.0, identifier="r0")]
        cfg = NmsConfig(iou_threshold=0.5, mode="one_stage", enable_fallback_loop=False)
        first = constrained_nms(associate_regions(scene, regions),
                                regions, cfg)
        second = constrained_nms(associate_regions(scene, regions),
                                 regions, cfg)
        assert first == second

    def test_config_validation(self):
        with pytest.raises(InvalidInputError):
            NmsConfig(iou_threshold=1.5)
        with pytest.raises(InvalidInputError):
            NmsConfig(mode="three_stage")


def _scenes():
    """Regions r0..r(n-1) and detections tagged with one of them, none, or an unknown id."""

    def scene(num_regions):
        ids = [f"r{k}" for k in range(num_regions)]
        coord = st.integers(0, 60).map(float)
        side = st.integers(1, 30).map(float)
        score = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]) | st.floats(0.0, 1.0)  # with ties
        regions = st.tuples(*[
            st.builds(RadioRegion, center_x=coord, center_y=coord, edge=side,
                      identifier=st.just(rid))
            for rid in ids
        ]).map(list)
        detections = st.lists(st.builds(
            det, coord, coord, side, side, score,
            region_id=st.sampled_from([None, "unknown", *ids])), max_size=10)
        return st.tuples(regions, detections)

    return st.integers(0, 4).flatmap(scene)


_nms_configs = st.builds(NmsConfig, iou_threshold=st.floats(0.0, 1.0),
                         mode=st.sampled_from(("one_stage", "two_stage")),
                         enable_fallback_loop=st.booleans(), require_region=st.booleans())


@settings(max_examples=100, deadline=None)
@given(_scenes(), _nms_configs)
def test_constrained_nms_keeps_at_most_one_box_per_region(scene, cfg):
    regions, detections = scene
    kept = constrained_nms(detections, regions, cfg)
    ids = {region.identifier for region in regions}
    constrained = [d.region_id for d in kept if d.region_id in ids]
    assert len(constrained) == len(set(constrained))
    assert len(constrained) <= len(regions)
    if cfg.require_region:  # otherwise boxes without a known region may be kept too
        assert len(kept) == len(constrained)


@settings(max_examples=100, deadline=None)
@given(_scenes(), st.floats(0.0, 1.0))
def test_two_stage_fallback_keeps_exactly_one_box_per_region(scene, iou_threshold):
    regions, detections = scene
    cfg = NmsConfig(iou_threshold=iou_threshold, mode="two_stage", enable_fallback_loop=True)
    kept = constrained_nms(detections, regions, cfg)
    assert sorted(d.region_id for d in kept) == sorted(r.identifier for r in regions)


# -- The lockstep walk on (n, 4) gathers, kept as the oracle of nms._greedy --

def oracle_greedy(dets: Detections, threshold: float, known: list[set[str]],
                  require_region: bool) -> tuple[list[list[int]], list[set[str]]]:
    """``nms._greedy`` before the corner kernel, verbatim: each round takes
    one ``iou_arrays`` call on ``dets.boxes`` gathers of the (box, newly
    kept box) pairs."""
    sizes = np.bincount(dets.image, minlength=len(dets.ids))
    starts = np.cumsum(sizes) - sizes
    suppressed = np.zeros(len(dets), dtype=bool)
    ranked = image_score_order(dets.image, dets.scores).tolist()  # each image's walk
    orders = [iter(ranked[a:a + n]) for a, n in zip(starts.tolist(), sizes.tolist())]
    region_ids = dets.region_ids.tolist()
    kept: list[list[int]] = [[] for _ in dets.ids]
    used: list[set[str]] = [set() for _ in dets.ids]
    walking = np.flatnonzero(sizes).tolist()
    while walking:
        fresh = []
        for m in walking:
            for i in orders[m]:
                if suppressed[i]:
                    continue
                # An id that names no region in this image constrains nothing.
                rid = region_ids[i] if region_ids[i] in known[m] else None
                if rid is not None and rid in used[m]:
                    continue
                if rid is None and require_region:
                    continue
                kept[m].append(i)
                if rid is not None:
                    used[m].add(rid)
                fresh.append(m)
                break
        if fresh:
            # Every box of each image that kept one this round, against that box.
            first, counts = starts[fresh], sizes[fresh]
            shift = np.repeat(first + counts - np.cumsum(counts), counts)
            targets = np.arange(shift.size) + shift
            new = np.repeat([kept[m][-1] for m in fresh], counts)
            overlap = iou_arrays(dets.boxes[targets], dets.boxes[new])
            suppressed[targets[overlap >= threshold]] = True
        walking = fresh
    return kept, used


# Duplicates (a box drawn twice), zero-extent boxes, a box whose rounded
# corners make its union with itself negative, and boxes at +-MAX_COORD.
_WALK_BOXES = [(0.0, 0.0, 10.0, 10.0), (5.0, 0.0, 10.0, 10.0), (0.0, 5.0, 10.0, 20.0),
               (2.0, 2.0, 0.0, 6.0), (2.0, 2.0, 6.0, 0.0), (3.0, 3.0, 0.0, 0.0),
               (0.1, 0.1, 7e-18, 7e-18), (-MAX_COORD, -MAX_COORD, MAX_COORD, MAX_COORD),
               (0.0, 0.0, MAX_COORD, MAX_COORD), (-MAX_COORD, 0.0, 2 * MAX_COORD, 10.0),
               (MAX_COORD, MAX_COORD, 0.0, 0.0), (-MAX_COORD, -MAX_COORD, 0.0, 0.0)]
_WALK_IMAGES = ("a", "b", "c")
_WALK_REGIONS = ("r0", "r1", "r2")


@st.composite
def _walk_worlds(draw):
    """Detections on up to three images, with tied scores and region ids
    that name a region of their image, of another image only, or none; and
    each image's known region ids."""
    coord = st.integers(-2, 30).map(float)
    box = st.sampled_from(_WALK_BOXES) | st.tuples(coord, coord, st.integers(0, 20).map(float),
                                                   st.integers(0, 20).map(float))
    records = draw(st.lists(st.builds(
        Detection, st.sampled_from(_WALK_IMAGES), box,
        st.sampled_from([0.25, 0.5, 0.75]) | st.floats(0.0, 1.0),
        st.sampled_from([None, "ghost", *_WALK_REGIONS])), max_size=14))
    dets = Detections.from_records(records)
    dets = dets.grouped(dets.ids)
    known = [set(draw(st.lists(st.sampled_from(_WALK_REGIONS), unique=True))) for _ in dets.ids]
    return dets, known


@settings(max_examples=300, deadline=None)
@given(_walk_worlds(), st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0), st.booleans())
@example((Detections.from_records([Detection("a", box, 0.5, "r0") for box in _WALK_BOXES * 2]),
          [{"r0"}]), 0.5, True)
@example((Detections.from_records([Detection("a", box, 0.5) for box in _WALK_BOXES * 2]),
          [set()]), 1.0, False)
@example((Detections.from_records([Detection("a", box, 0.5) for box in _WALK_BOXES]),
          [set()]), 0.0, False)
def test_corner_walk_keeps_the_rows_of_the_gather_walk(world, threshold, require_region):
    """The walk on corner columns keeps the rows and claims the regions of
    the walk that gathers ``(n, 4)`` boxes every round."""
    dets, known = world
    assert nms._greedy(dets, threshold, known, require_region) == oracle_greedy(
        dets, threshold, known, require_region)
