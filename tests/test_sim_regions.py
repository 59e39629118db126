"""Simulated region construction tests, including Monte Carlo calibration."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radiofusion.errors import InvalidInputError
from radiofusion.sim_regions import (
    MIN_EDGE_SCALE,
    Annotation,
    NoiseParams,
    all_filter,
    build_simulative_set,
    draw_region_noise,
    gt_to_region,
    reasonable_filter,
)
from radiofusion.world import Annotations

BBOX = Annotation(image_id="img0", bbox=(0.0, 0.0, 100.0, 200.0))


class TestGtToRegion:
    def test_zero_noise_exact_square(self):
        rng = np.random.default_rng(0)
        region = gt_to_region(BBOX, NoiseParams(sigma=0, k1=0, k2=0), rng)
        assert (region.center_x, region.center_y) == (50.0, 100.0)
        assert region.edge == 100.0

    def test_zero_noise_fixpoint_for_any_bbox(self):
        rng = np.random.default_rng(1)
        sampler = np.random.default_rng(99)
        for _ in range(50):
            w, h = sampler.uniform(1, 500, size=2)
            x, y = sampler.uniform(-100, 100, size=2)
            ann = Annotation(image_id="i", bbox=(x, y, w, h))
            region = gt_to_region(ann, NoiseParams(sigma=0, k1=0, k2=0), rng)
            assert region.center_x == x + w / 2
            assert region.center_y == y + h / 2
            assert region.edge == min(w, h)

    def test_monte_carlo_calibration(self):
        # Sample std of edge/side near sigma, of shift/edge near k (oracle:
        # plain sample statistics over 1e5 draws).
        noise = NoiseParams(sigma=0.2, k1=0.1, k2=0.1, seed=0)
        rng = np.random.default_rng(42)
        n = 100_000
        scale = np.empty(n)
        shift_x = np.empty(n)
        shift_y = np.empty(n)
        for i in range(n):
            draw = draw_region_noise(noise, 100.0, rng)
            scale[i] = draw.edge / 100.0
            shift_x[i] = draw.dx / draw.edge
            shift_y[i] = draw.dy / draw.edge
        assert abs(scale.std(ddof=1) - 0.2) < 0.01
        assert abs(scale.mean() - 1.0) < 0.01
        assert abs(shift_x.std(ddof=1) - 0.1) < 0.01
        assert abs(shift_y.std(ddof=1) - 0.1) < 0.01
        assert abs(shift_x.mean()) < 0.01 and abs(shift_y.mean()) < 0.01

    def test_edge_floor_under_huge_noise(self):
        noise = NoiseParams(sigma=5.0, k1=0.0, k2=0.0, seed=3)
        rng = np.random.default_rng(3)
        draws = [draw_region_noise(noise, 80.0, rng) for _ in range(2000)]
        assert any(d.scale < MIN_EDGE_SCALE for d in draws)  # the floor does bind
        assert all(d.edge >= MIN_EDGE_SCALE * 80.0 for d in draws)

    def test_invalid_bbox_rejected(self):
        with pytest.raises(InvalidInputError):
            Annotation(image_id="x", bbox=(0, 0, 0, 10))
        with pytest.raises(InvalidInputError):
            NoiseParams(sigma=-0.1)


class TestBuildSimulativeSet:
    def _annotations(self):
        return [
            Annotation(image_id="b", bbox=(0, 0, 50, 100)),
            Annotation(image_id="a", bbox=(10, 10, 40, 80)),
            Annotation(image_id="a", bbox=(200, 50, 60, 60)),
            Annotation(image_id="a", bbox=(400, 50, 30, 90)),
        ]

    def test_empty(self):
        assert build_simulative_set([], NoiseParams()) == {}

    def test_cardinality_and_unique_ids(self):
        regions = build_simulative_set(self._annotations(), NoiseParams(seed=5))
        assert set(regions) == {"a", "b"}
        assert len(regions["a"]) == 3
        assert len({r.identifier for r in regions["a"]}) == 3

    def test_same_seed_bit_identical(self):
        first = build_simulative_set(self._annotations(), NoiseParams(seed=7))
        second = build_simulative_set(self._annotations(), NoiseParams(seed=7))
        assert first == second
        third = build_simulative_set(self._annotations(), NoiseParams(seed=8))
        assert first != third

    def test_non_person_annotations_skipped(self):
        anns = self._annotations() + [
            Annotation(image_id="a", bbox=(0, 0, 10, 10), category="dog")
        ]
        regions = build_simulative_set(anns, NoiseParams(seed=5))
        assert len(regions["a"]) == 3


class TestGtFilters:
    def test_reasonable(self):
        tall = Annotation(image_id="i", bbox=(0, 0, 30, 80))
        short = Annotation(image_id="i", bbox=(0, 0, 30, 50))
        occluded = Annotation(image_id="i", bbox=(0, 0, 30, 80), occlusion_fraction=0.5)
        assert reasonable_filter(tall)
        assert not reasonable_filter(short)
        assert not reasonable_filter(occluded)

    def test_all(self):
        tiny = Annotation(image_id="i", bbox=(0, 0, 10, 15))
        mostly_hidden = Annotation(image_id="i", bbox=(0, 0, 30, 80),
                                   occlusion_fraction=0.9)
        visible = Annotation(image_id="i", bbox=(0, 0, 30, 25), occlusion_fraction=0.5)
        assert not all_filter(tiny)
        assert not all_filter(mostly_hidden)
        assert all_filter(visible)

    def test_bounds_are_strict(self):
        at_60 = Annotation(image_id="i", bbox=(0, 0, 30, 60))
        at_20 = Annotation(image_id="i", bbox=(0, 0, 30, 20))
        assert not reasonable_filter(at_60) and all_filter(at_60)
        assert not all_filter(at_20)
        assert not reasonable_filter(replace(at_60, height_px=61.0, occlusion_fraction=0.35))
        assert not all_filter(replace(at_60, occlusion_fraction=0.8))

    def test_height_field_overrides_bbox(self):
        ann = Annotation(image_id="i", bbox=(0, 0, 30, 80), height_px=50.0)
        assert not reasonable_filter(ann)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.builds(
        Annotation, image_id=st.sampled_from(["a", "b"]),
        bbox=st.tuples(st.just(0.0), st.just(0.0), st.floats(1.0, 90.0),
                       st.floats(1.0, 90.0) | st.sampled_from([20.0, 60.0])),
        height_px=st.none() | st.floats(1.0, 90.0) | st.sampled_from([20.0, 60.0]),
        occlusion_fraction=st.none() | st.floats(0.0, 1.0) | st.sampled_from([0.35, 0.8])),
        max_size=8))
    def test_column_masks_equal_the_record_filters(self, anns):
        """Each filter's mask over the columns is its value on every record."""
        gts = Annotations.from_records(anns)
        for keep in (reasonable_filter, all_filter):
            assert keep(gts).tolist() == [bool(keep(ann)) for ann in anns]
