"""Confidence revision and proposal generation tests."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import on_records, regions_in
from radiofusion import fusion
from radiofusion.errors import InvalidInputError
from radiofusion.imaging import RadioRegion
from radiofusion.world import Detection

revise_detections = on_records(fusion.revise_detections)


def proposals_to_detections(regions):
    return fusion.proposals_to_detections(regions).records()


def anchor_boxes(regions):
    return fusion.anchor_boxes(regions_in(regions))


def region(cx=50.0, cy=50.0, edge=100.0, identifier="r0"):
    return RadioRegion(center_x=cx, center_y=cy, edge=edge, identifier=identifier)


def revised(score, lam, bbox=(0.0, 0.0, 100.0, 100.0), regions=None, mode="two_stage",
            cell=None):
    """The revised score of one detection, by a world call (``region()`` by default)."""
    regions = [region()] if regions is None else regions
    det = Detection(image_id="i", bbox=bbox, score=score, cell=cell)
    (out,) = revise_detections([det], regions, lam, mode)
    return out.score


def decay_two_stage(bbox, r):
    """The box-over-region decay factor: at ``lam = 1`` and score 1 the score is gamma."""
    return revised(1.0, 1.0, bbox, [r])


def decay_one_stage(r, cell):
    """The region-over-cell decay factor, by the same world call in one-stage mode."""
    return revised(1.0, 1.0, regions=[r], mode="one_stage", cell=cell)


class TestDecayFactors:
    def test_cell_inside_region_full_decay(self):
        assert decay_one_stage(region(), (10.0, 10.0, 20.0, 20.0)) == 1.0

    def test_disjoint_zero(self):
        assert decay_one_stage(region(), (500.0, 500.0, 20.0, 20.0)) == 0.0
        assert decay_two_stage((500.0, 500.0, 20.0, 20.0), region()) == 0.0

    def test_half_covered_cell(self):
        # Region spans x in [0, 100]; the cell spans x in [90, 110].
        assert decay_one_stage(region(), (90.0, 10.0, 20.0, 20.0)) == 0.5

    def test_box_containing_region(self):
        assert decay_two_stage((-100.0, -100.0, 300.0, 300.0), region()) == 1.0

    def test_box_over_half_region(self):
        # Box covers the region's left half exactly.
        assert decay_two_stage((0.0, 0.0, 50.0, 100.0), region()) == 0.5

    def test_degenerate_cell_rejected(self):
        with pytest.raises(InvalidInputError):
            decay_one_stage(region(), (0.0, 0.0, 0.0, 10.0))

    def test_gamma_monotone_in_overlap(self):
        r = region()
        widths = np.linspace(1.0, 100.0, 25)
        gammas = [decay_two_stage((0.0, 0.0, float(w), 100.0), r) for w in widths]
        assert all(0.0 <= g <= 1.0 for g in gammas)
        assert all(a <= b for a, b in zip(gammas, gammas[1:]))


class TestReviseScore:
    # Against region(), which spans [0, 100] on both axes, a box of width
    # 100 * g and height 100 at the origin has decay factor g.
    def test_lambda_zero_identity(self):
        for bbox in ((500.0, 500.0, 10.0, 10.0), (0.0, 0.0, 30.0, 100.0),
                     (0.0, 0.0, 100.0, 100.0)):
            assert revised(0.7, 0.0, bbox) == 0.7

    def test_full_overlap_identity(self):
        assert revised(0.7, 0.8, (0.0, 0.0, 100.0, 100.0)) == pytest.approx(0.7)

    def test_direct_substitution(self):
        assert revised(0.8, 1.0, (0.0, 0.0, 50.0, 100.0)) == pytest.approx(0.4)

    def test_out_of_range_rejected(self):
        with pytest.raises(InvalidInputError):
            revised(1.2, 0.5)
        with pytest.raises(InvalidInputError):
            revised(0.5, 2.0)
        with pytest.raises(InvalidInputError):
            revised(0.5, -0.1)

    def test_monotone_and_bounded(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            s, lam = rng.uniform(0, 1, size=2).tolist()
            w1, w2 = sorted(rng.uniform(0, 100, size=2).tolist())
            low = revised(s, lam, (0.0, 0.0, w1, 100.0))
            high = revised(s, lam, (0.0, 0.0, w2, 100.0))
            assert 0.0 <= low <= high <= s <= 1.0


_unit = st.floats(0.0, 1.0)


@settings(max_examples=300, deadline=None)
@given(_unit, st.floats(0.0, 100.0), _unit)
def test_revise_score_never_exceeds_input(score, width, lam):
    bbox = (0.0, 0.0, width, 100.0)
    assert 0.0 <= revised(score, lam, bbox) <= score
    assert revised(score, 0.0, bbox) == score


_coord = st.floats(-50.0, 150.0)
_side = st.floats(0.0, 120.0)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.builds(Detection, image_id=st.just("i"),
                          bbox=st.tuples(_coord, _coord, _side, _side), score=_unit,
                          cell=st.tuples(_coord, _coord, st.floats(1.0, 60.0),
                                         st.floats(1.0, 60.0))), max_size=8),
       st.lists(st.builds(region, _coord, _coord, st.floats(1.0, 120.0)), max_size=4),
       st.sampled_from(("one_stage", "two_stage")))
def test_lambda_zero_leaves_every_score_unchanged(dets, regions, mode):
    revised = revise_detections(dets, regions, lam=0.0, mode=mode)
    assert [d.score for d in revised] == [d.score for d in dets]
    assert [replace(d, score=0.0) for d in revised] == [replace(d, score=0.0) for d in dets]


class TestReviseDetections:
    def _dets(self):
        return [
            Detection(image_id="i", bbox=(0.0, 0.0, 100.0, 100.0), score=0.9),
            Detection(image_id="i", bbox=(300.0, 300.0, 50.0, 50.0), score=0.6),
        ]

    def test_no_regions_full_decay(self):
        revised = revise_detections(self._dets(), [], lam=1.0)
        assert [d.score for d in revised] == [0.0, 0.0]

    def test_region_containing_boxes_keeps_scores(self):
        # gamma = 1 for a box fully covering the region.
        dets = [Detection(image_id="i", bbox=(-10.0, -10.0, 500.0, 500.0), score=0.8)]
        regions = [region()]
        revised = revise_detections(dets, regions, lam=1.0)
        assert revised[0].score == pytest.approx(0.8)

    def test_max_over_regions(self):
        # Two overlapping regions: the detection covers 30% of one and 70%
        # of the other, so the larger decay factor wins.
        det = Detection(image_id="i", bbox=(0.0, 0.0, 70.0, 10.0), score=1.0)
        r1 = RadioRegion(center_x=5.0, center_y=5.0, edge=10.0, identifier="a")  # x 0..10
        r2 = RadioRegion(center_x=55.0, center_y=5.0, edge=10.0, identifier="b")  # x 50..60
        gamma1 = decay_two_stage(det.bbox, r1)
        gamma2 = decay_two_stage(det.bbox, r2)
        assert gamma1 == 1.0 and gamma2 == 1.0
        # Shrink the box so it covers 30% and 70% instead.
        det = Detection(image_id="i", bbox=(7.0, 0.0, 50.0, 10.0), score=1.0)
        gammas = sorted([decay_two_stage(det.bbox, r1), decay_two_stage(det.bbox, r2)])
        assert gammas == [pytest.approx(0.3), pytest.approx(0.7)]
        revised = revise_detections([det], [r1, r2], lam=1.0)
        assert revised[0].score == pytest.approx(0.7)

    def test_order_preserved_and_pure(self):
        dets = self._dets()
        regions = [region()]
        revised = revise_detections(dets, regions, lam=0.5)
        assert [d.bbox for d in revised] == [d.bbox for d in dets]
        assert dets[0].score == 0.9  # inputs untouched

    def test_ranking_preserved_at_lambda_zero(self):
        rng = np.random.default_rng(8)
        dets = [
            Detection(image_id="i",
                      bbox=tuple(map(float, (rng.uniform(0, 200), rng.uniform(0, 200), 20, 40))),
                      score=float(rng.uniform(0, 1)))
            for _ in range(30)
        ]
        regions = [region()]
        revised = revise_detections(dets, regions, lam=0.0)
        assert [d.score for d in revised] == [d.score for d in dets]

    @pytest.mark.parametrize("lam", [1.5, -0.1, math.nan])
    def test_lam_is_checked_on_entry(self, lam):
        """An out-of-range lam is an input error even when there is nothing to revise."""
        with pytest.raises(InvalidInputError, match="lam="):
            revise_detections([], [], lam)

    def test_one_stage_requires_cell(self):
        dets = [Detection(image_id="i", bbox=(0, 0, 10, 10), score=0.5)]
        with pytest.raises(InvalidInputError):
            revise_detections(dets, [region()], lam=0.5, mode="one_stage")

    def test_one_stage_uses_cell(self):
        det = Detection(image_id="i", bbox=(0, 0, 10, 10), score=0.5,
                        cell=(90.0, 10.0, 20.0, 20.0))
        revised = revise_detections([det], [region()], lam=1.0, mode="one_stage")
        assert revised[0].score == pytest.approx(0.25)  # gamma 0.5 from the cell


class TestGenerateProposals:
    def test_identity_anchor(self):
        # Scale-major: scale 1.0 with ratio 1.0 is anchor 3 of 9.
        assert anchor_boxes([region(cx=50, cy=50, edge=100)])[:, 3].tolist() == [
            [0.0, 0.0, 100.0, 100.0]]

    def test_cardinality(self):
        (boxes,) = anchor_boxes([region()]).tolist()
        assert len(boxes) == 9
        for i, scale in enumerate([0.75, 1.0, 1.25]):
            for j, ratio in enumerate([1.0, 2.0, 3.0]):
                _, _, w, h = boxes[3 * i + j]
                assert w * h == pytest.approx((scale * 100.0) ** 2)
                assert h / w == pytest.approx(ratio)

    def test_no_regions_give_an_empty_anchor_table(self):
        assert anchor_boxes([]).shape == (0, 9, 4)

    def test_ratio_two_shape(self):
        (bbox,) = anchor_boxes([region(cx=50, cy=50, edge=100)])[:, 4].tolist()
        x, y, w, h = bbox
        assert w == pytest.approx(100.0 / math.sqrt(2.0))
        assert h == pytest.approx(100.0 * math.sqrt(2.0))
        assert w * h == pytest.approx(100.0 ** 2)
        assert (x + w / 2, y + h / 2) == (pytest.approx(50.0), pytest.approx(50.0))

    def test_center_and_id_preserved(self):
        z = region(cx=20, cy=30, edge=50, identifier="z")
        for x, y, w, h in anchor_boxes([z])[0].tolist():
            assert x + w / 2 == pytest.approx(20.0)
            assert y + h / 2 == pytest.approx(30.0)
        proposals = proposals_to_detections(regions_in([z], "img"))
        assert {det.region_id for det in proposals} == {"z"}


class TestProposalsToDetections:
    def test_overlap_scores_favor_identity_anchor(self):
        dets = proposals_to_detections(regions_in([region()], "img"))
        assert len(dets) == 9
        best = max(dets, key=lambda d: d.score)
        assert best.score == 1.0
        assert best.bbox == (0.0, 0.0, 100.0, 100.0)
        assert all(d.region_id == "r0" for d in dets)

    def test_each_anchor_scored_against_its_own_region(self):
        far = region(cx=500, cy=500, edge=40, identifier="r1")
        regions = [region(), far]
        dets = proposals_to_detections(regions_in(regions, "img"))
        assert [d.region_id for d in dets] == ["r0"] * 9 + ["r1"] * 9
        assert [d.score for d in dets[9:]] == [decay_two_stage(d.bbox, far) for d in dets[9:]]
        assert max(d.score for d in dets[9:]) == 1.0

    def test_detection_validation(self):
        with pytest.raises(InvalidInputError):
            Detection(image_id="i", bbox=(0, 0, 10, 10), score=1.5)
