"""Simulated region construction tests, including Monte Carlo calibration.

The one-pass draw of ``build_simulative_set`` is held to the scalar loop it
replaced (``oracle_simulative_set``): per image in ascending id order, per
person three ``rng.normal`` calls, bit for bit.
"""

import math
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radiofusion import fileio
from radiofusion.errors import InvalidInputError
from radiofusion.sim_regions import (
    MIN_EDGE_SCALE,
    Annotation,
    NoiseParams,
    RadioRegion,
    all_filter,
    build_simulative_set,
    draw_region_noise,
    reasonable_filter,
)
from conftest import group_by_image, gt_to_region, reasonable, visible
from radiofusion.world import Annotations, Regions

BBOX = Annotation(image_id="img0", bbox=(0.0, 0.0, 100.0, 200.0))


def oracle_draw(noise, side, rng):
    """Three scalar draws: the scale, then the x and y shifts of the floored edge."""
    scale = float(rng.normal(1.0, noise.sigma))
    edge = side * max(scale, MIN_EDGE_SCALE)
    return scale, edge, float(rng.normal(0.0, noise.k1 * edge)), \
        float(rng.normal(0.0, noise.k2 * edge))


def oracle_region(ann, noise, rng, identifier):
    """One person's region from its three scalar draws."""
    x, y, w, h = ann.bbox
    _, edge, dx, dy = oracle_draw(noise, min(w, h), rng)
    return RadioRegion(center_x=x + w / 2.0 + dx, center_y=y + h / 2.0 + dy, edge=edge,
                       identifier=identifier)


def oracle_simulative_set(annotations, noise, category="person"):
    """The scalar loop: images in ascending id order, people in input order."""
    per_image = group_by_image(ann for ann in annotations if ann.category == category)
    rng = np.random.default_rng(noise.seed)
    return {image_id: [oracle_region(ann, noise, rng, f"r{i}")
                       for i, ann in enumerate(per_image[image_id])]
            for image_id in sorted(per_image)}


def exact(regions):
    """Keys, ids and every value's bits, in order (``==`` equates 0.0 and -0.0)."""
    return [(image_id, r.identifier, *map(float.hex, (r.center_x, r.center_y, r.edge)))
            for image_id, rs in regions.items() for r in rs]


def outcome(build, *args):
    """``build``'s regions as ``exact`` reads them (a table through its
    ``records``), or the message of the error it raises."""
    try:
        regions = build(*args)
        return "ok", exact(regions.records() if isinstance(regions, Regions) else regions)
    except InvalidInputError as exc:
        return "error", str(exc)


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

    @pytest.mark.parametrize("sigma", [0.0, 0.2, 3.0])
    def test_one_person_draws_are_the_scalar_draws(self, sigma):
        noise = NoiseParams(sigma=sigma, k1=0.3, k2=0.1)
        mine, theirs = np.random.default_rng(4), np.random.default_rng(4)
        sampler = np.random.default_rng(8)
        for _ in range(200):
            x, y = sampler.uniform(-50.0, 50.0, 2).tolist()
            w, h = sampler.uniform(1.0, 300.0, 2).tolist()
            ann = Annotation(image_id="i", bbox=(x, y, w, h))
            region = gt_to_region(ann, noise, mine, "r3")
            expected = oracle_region(ann, noise, theirs, "r3")
            assert exact({"i": [region]}) == exact({"i": [expected]})
            assert type(region.edge) is float

    def test_monte_carlo_calibration(self):
        # Sample std of edge/side near sigma, of shift/edge near k (oracle:
        # plain sample statistics over 1e5 draws).
        noise = NoiseParams(sigma=0.2, k1=0.1, k2=0.1, seed=0)
        rng = np.random.default_rng(42)
        n = 100_000
        draw = draw_region_noise(noise, np.full(n, 100.0), rng)
        scale = draw.edge / 100.0
        shift_x = draw.dx / draw.edge
        shift_y = draw.dy / draw.edge
        assert abs(scale.std(ddof=1) - 0.2) < 0.01
        assert abs(scale.mean() - 1.0) < 0.01
        assert abs(shift_x.std(ddof=1) - 0.1) < 0.01
        assert abs(shift_y.std(ddof=1) - 0.1) < 0.01
        assert abs(shift_x.mean()) < 0.01 and abs(shift_y.mean()) < 0.01

    def test_edge_floor_under_huge_noise(self):
        noise = NoiseParams(sigma=5.0, k1=0.0, k2=0.0, seed=3)
        rng = np.random.default_rng(3)
        draw = draw_region_noise(noise, np.full(2000, 80.0), rng)
        assert (draw.scale < MIN_EDGE_SCALE).any()  # the floor does bind
        assert (draw.edge >= MIN_EDGE_SCALE * 80.0).all()

    def test_invalid_bbox_rejected(self):
        with pytest.raises(InvalidInputError):
            Annotation(image_id="x", bbox=(0, 0, 0, 10))
        with pytest.raises(InvalidInputError):
            NoiseParams(sigma=-0.1)

    @pytest.mark.parametrize("sigma, k1, k2", [(0.2, 0.1, 0.1), (0.0, 0.0, 0.0),
                                               (3.0, 0.5, 0.7), (5.0, 1.0, 0.0)])
    def test_array_draw_is_the_scalar_draws_bit_for_bit(self, sigma, k1, k2):
        noise = NoiseParams(sigma=sigma, k1=k1, k2=k2)
        sides = np.random.default_rng(9).uniform(0.5, 500.0, size=5000)
        rng = np.random.default_rng(17)
        scalar = [oracle_draw(noise, side, rng) for side in sides.tolist()]
        after_scalar = rng.random()
        rng = np.random.default_rng(17)
        draw = draw_region_noise(noise, sides, rng)
        drawn = np.stack([draw.scale, draw.edge, draw.dx, draw.dy], axis=-1)
        assert np.array_equal(drawn.view(np.int64), np.array(scalar).view(np.int64))
        assert rng.random() == after_scalar  # the generator is left where the loop left it


class TestNoiseParams:
    @pytest.mark.parametrize("field", ["sigma", "k1", "k2"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -0.1, "0.2", None])
    def test_a_bad_noise_level_is_named(self, field, value):
        with pytest.raises(InvalidInputError, match=f"^noise {field} must be finite and >= 0"):
            NoiseParams(**{field: value})

    @pytest.mark.parametrize("value", [-1, 2.5, math.nan, True, "3", None, np.float64(3.0)])
    def test_a_bad_seed_is_named(self, value):
        with pytest.raises(InvalidInputError, match="^noise seed must be an integer >= 0"):
            NoiseParams(seed=value)

    def test_a_nan_level_is_refused_even_for_a_world_without_people(self):
        with pytest.raises(InvalidInputError, match="noise sigma"):
            build_simulative_set([], NoiseParams(sigma=math.nan))

    @pytest.mark.parametrize("fields", [{"sigma": 0}, {"k1": 0.0, "k2": 1e300},
                                        {"seed": 0}, {"seed": np.int64(2**40)},
                                        {"seed": 2**70}, {"sigma": np.float32(0.5)}])
    def test_finite_levels_and_integer_seeds_are_accepted(self, fields):
        assert NoiseParams(**fields) == replace(NoiseParams(), **fields)


class TestBuildSimulativeSet:
    def _annotations(self):
        return [
            Annotation(image_id="b", bbox=(0, 0, 50, 100)),
            Annotation(image_id="a", bbox=(10, 10, 40, 80)),
            Annotation(image_id="a", bbox=(200, 50, 60, 60)),
            Annotation(image_id="a", bbox=(400, 50, 30, 90)),
        ]

    def test_empty(self):
        assert build_simulative_set([], NoiseParams()).records() == {}

    def test_cardinality_and_unique_ids(self):
        regions = build_simulative_set(self._annotations(), NoiseParams(seed=5)).records()
        assert set(regions) == {"a", "b"}
        assert len(regions["a"]) == 3
        assert len({r.identifier for r in regions["a"]}) == 3

    def test_same_seed_bit_identical(self):
        first = build_simulative_set(self._annotations(), NoiseParams(seed=7)).records()
        second = build_simulative_set(self._annotations(), NoiseParams(seed=7)).records()
        assert first == second
        third = build_simulative_set(self._annotations(), NoiseParams(seed=8)).records()
        assert first != third

    def test_non_person_annotations_skipped(self):
        anns = self._annotations() + [
            Annotation(image_id="a", bbox=(0, 0, 10, 10), category="dog")
        ]
        regions = build_simulative_set(anns, NoiseParams(seed=5)).records()
        assert len(regions["a"]) == 3

    def test_columns_and_records_give_the_scalar_loops_regions(self):
        noise = NoiseParams(seed=5)
        expected = exact(oracle_simulative_set(self._annotations(), noise))
        assert exact(build_simulative_set(self._annotations(), noise).records()) == expected
        gts = Annotations.from_records(self._annotations())
        assert exact(build_simulative_set(gts, noise).records()) == expected

    @settings(max_examples=150, deadline=None)
    @given(anns=st.lists(st.builds(
        Annotation, image_id=st.sampled_from(["c", "a", "b10", "b2", "0"]),
        bbox=st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3),
                       st.floats(0.5, 1e3), st.floats(0.5, 1e3)),
        category=st.sampled_from(["person", "person", "dog"])), max_size=12),
        sigma=st.floats(0.0, 5.0), k1=st.floats(0.0, 1.0), k2=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32))
    def test_random_worlds_give_the_scalar_loops_regions(self, anns, sigma, k1, k2, seed):
        """Interleaved, unsorted image ids with other categories mixed in, and
        sigma up to 5, where the edge floor binds."""
        noise = NoiseParams(sigma=sigma, k1=k1, k2=k2, seed=seed)
        expected = oracle_simulative_set(anns, noise)
        for given_world in (anns, Annotations.from_records(anns)):
            got = build_simulative_set(given_world, noise).records()
            assert got == expected
            assert exact(got) == exact(expected)

    @settings(max_examples=100, deadline=None)
    @given(anns=st.lists(st.builds(
        Annotation, image_id=st.sampled_from(["b", "a"]),
        bbox=st.tuples(st.just(0.0), st.floats(-1e149, 1e149),
                       st.floats(1.0, 1e3) | st.floats(1e148, 9e149),
                       st.floats(1e148, 9e149))), min_size=1, max_size=6),
        sigma=st.floats(0.0, 3.0), seed=st.integers(0, 2**32))
    def test_a_region_that_leaves_the_box_domain_fails_as_the_loop_does(self, anns, sigma, seed):
        noise = NoiseParams(sigma=sigma, seed=seed)
        expected = outcome(oracle_simulative_set, anns, noise)
        assert outcome(build_simulative_set, anns, noise) == expected
        assert outcome(build_simulative_set, Annotations.from_records(anns), noise) == expected

    @settings(max_examples=150, deadline=None)
    @given(anns=st.lists(st.builds(
        Annotation, image_id=st.sampled_from(["c", "a", "b10", "b2", "0"]),
        bbox=st.tuples(st.floats(-1e3, 1e3), st.floats(-1e149, 1e149),
                       st.floats(0.5, 1e3) | st.floats(1e148, 9e149),
                       st.floats(0.5, 1e3) | st.floats(1e148, 9e149)),
        category=st.sampled_from(["person", "person", "dog"])), max_size=10),
        empty=st.sets(st.sampled_from(["d", "a", "b3", "z"])),
        sigma=st.floats(0.0, 5.0), k1=st.floats(0.0, 1.0), seed=st.integers(0, 2**32))
    def test_the_table_is_the_record_maps_table(self, anns, empty, sigma, k1, seed):
        """Over an id table that names images without annotations, and
        images with only other categories: the table names the images that
        have a person, writes the bytes its records write, reads as their map,
        and a refused region raises the record path's error."""
        gts = Annotations.from_records(anns)
        gts = gts.grouped(sorted(set(gts.ids) | empty))
        noise = NoiseParams(sigma=sigma, k1=k1, k2=k1, seed=seed)
        try:
            expected = oracle_simulative_set(anns, noise)
        except Exception as exc:
            with pytest.raises(type(exc)) as refused:
                build_simulative_set(gts, noise)
            assert str(refused.value) == str(exc)
            return
        table = build_simulative_set(gts, noise)
        records = table.records()
        assert table.ids == tuple(expected) == tuple(sorted(
            {a.image_id for a in anns if a.category == "person"}))
        assert exact(records) == exact(expected)
        assert list(table.items()) == list(records.items())
        assert list(table.values()) == list(records.values())
        with tempfile.TemporaryDirectory() as tmp:
            written = []
            for name, regions in (("table", table), ("records", Regions.from_records(records))):
                fileio.write_regions(Path(tmp, name), regions)
                written.append(Path(tmp, name).read_bytes())
        assert written[0] == written[1]

    def test_the_first_region_out_of_the_domain_is_named(self):
        anns = [Annotation(image_id="b", bbox=(0.0, 0.0, 9e149, 9e149)),
                Annotation(image_id="a", bbox=(0.0, 0.0, 10.0, 20.0)),
                Annotation(image_id="b", bbox=(1e149, 0.0, 8e149, 9e149))]
        noise = NoiseParams(sigma=0.0, k1=0.0, k2=0.0)
        with pytest.raises(InvalidInputError) as first:  # image b's first person
            RadioRegion(center_x=4.5e149, center_y=4.5e149, edge=9e149, identifier="r0")
        assert outcome(oracle_simulative_set, anns, noise) == ("error", str(first.value))
        assert outcome(build_simulative_set, anns, noise) == ("error", str(first.value))


class TestGtFilters:
    def test_reasonable(self):
        tall = Annotation(image_id="i", bbox=(0, 0, 30, 80))
        short = Annotation(image_id="i", bbox=(0, 0, 30, 50))
        occluded = Annotation(image_id="i", bbox=(0, 0, 30, 80), occlusion_fraction=0.5)
        assert reasonable(tall)
        assert not reasonable(short)
        assert not reasonable(occluded)

    def test_all(self):
        tiny = Annotation(image_id="i", bbox=(0, 0, 10, 15))
        mostly_hidden = Annotation(image_id="i", bbox=(0, 0, 30, 80),
                                   occlusion_fraction=0.9)
        half_hidden = Annotation(image_id="i", bbox=(0, 0, 30, 25), occlusion_fraction=0.5)
        assert not visible(tiny)
        assert not visible(mostly_hidden)
        assert visible(half_hidden)

    def test_bounds_are_strict(self):
        at_60 = Annotation(image_id="i", bbox=(0, 0, 30, 60))
        at_20 = Annotation(image_id="i", bbox=(0, 0, 30, 20))
        assert not reasonable(at_60) and visible(at_60)
        assert not visible(at_20)
        assert not reasonable(replace(at_60, height_px=61.0, occlusion_fraction=0.35))
        assert not visible(replace(at_60, occlusion_fraction=0.8))

    def test_height_field_overrides_bbox(self):
        ann = Annotation(image_id="i", bbox=(0, 0, 30, 80), height_px=50.0)
        assert not reasonable(ann)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.builds(
        Annotation, image_id=st.sampled_from(["a", "b"]),
        bbox=st.tuples(st.just(0.0), st.just(0.0), st.floats(1.0, 90.0),
                       st.floats(1.0, 90.0) | st.sampled_from([20.0, 60.0])),
        height_px=st.none() | st.floats(1.0, 90.0) | st.sampled_from([20.0, 60.0]),
        occlusion_fraction=st.none() | st.floats(0.0, 1.0) | st.sampled_from([0.35, 0.8])),
        max_size=8))
    def test_column_masks_equal_the_record_filters(self, anns):
        """Each filter's mask over the columns is the scalar rule's value on
        every record."""
        gts = Annotations.from_records(anns)
        for mask, keep in ((reasonable_filter, reasonable), (all_filter, visible)):
            assert mask(gts).tolist() == [keep(ann) for ann in anns]
