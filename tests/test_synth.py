"""Synthetic world and detector emulator tests."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

import test_synth_oracle as oracle
from radiofusion import fileio
from radiofusion.cli import main
from radiofusion.config import RunConfig
from radiofusion.errors import InvalidInputError
from radiofusion.synth import POISSON_LAM_MAX, SynthParams, generate, make_world
from radiofusion.world import Detections


class TestMakeWorld:
    def test_boxes_inside_image_and_counts_bounded(self):
        image_ids, anns = make_world(200, image_size=(640.0, 480.0), max_people=3, seed=1)
        assert len(image_ids) == 200
        per_image = {}
        for ann in anns:
            per_image[ann.image_id] = per_image.get(ann.image_id, 0) + 1
            x, y, w, h = ann.bbox
            assert x >= 0 and y >= 0
            assert x + w <= 640.0 and y + h <= 480.0
        assert max(per_image.values()) <= 3
        assert len(per_image) < 200  # some frames stay empty

    def test_aspect_band(self):
        _, anns = make_world(100, seed=2)
        for ann in anns:
            _, _, w, h = ann.bbox
            assert 1.3 <= h / w <= 1.9 + 1e-9

    def test_deterministic(self):
        assert make_world(50, seed=3) == make_world(50, seed=3)
        assert make_world(50, seed=3) != make_world(50, seed=4)


class TestGenerate:
    def _world(self, n=50, seed=5):
        return make_world(n, seed=seed)

    def test_identity_configuration(self):
        image_ids, gts = self._world()
        params = SynthParams(jitter_std=0.0, fp_per_image=0.0, fn_rate=0.0,
                             duplicate_rate=0.0, score_model=(0.8, 0.4, 0.0), seed=9)
        dets = generate(gts, params, image_ids=image_ids).records()
        assert len(dets) == len(gts)
        produced = sorted((d.image_id, d.bbox) for d in dets)
        expected = sorted((g.image_id, tuple(g.bbox)) for g in gts)
        assert produced == expected
        assert all(d.score == 0.8 for d in dets)

    def test_fn_rate_one_drops_everything(self):
        image_ids, gts = self._world()
        params = SynthParams(fn_rate=1.0, fp_per_image=0.0, seed=9)
        assert len(generate(gts, params, image_ids=image_ids)) == 0

    def test_poisson_fp_concentration(self):
        # 2 expected FP per image over 1e4 empty images: total within
        # 3*sqrt(2e4) of 2e4.
        image_ids = [f"i{k:05d}" for k in range(10_000)]
        params = SynthParams(fp_per_image=2.0, seed=13)
        dets = generate([], params, image_ids=image_ids)
        expected = 2.0 * 10_000
        assert abs(len(dets) - expected) <= 3.0 * math.sqrt(expected)

    def test_deterministic_under_seed(self):
        image_ids, gts = self._world()
        params = SynthParams(seed=21)
        assert generate(gts, params, image_ids=image_ids).records() == \
            generate(gts, params, image_ids=image_ids).records()
        other = SynthParams(seed=22)
        assert generate(gts, params, image_ids=image_ids).records() != \
            generate(gts, other, image_ids=image_ids).records()

    def test_scores_in_unit_interval(self):
        image_ids, gts = self._world(100)
        params = SynthParams(score_model=(0.9, 0.1, 0.6), seed=7)
        dets = generate(gts, params, image_ids=image_ids).records()
        assert all(0.0 <= d.score <= 1.0 for d in dets)

    def test_fp_boxes_never_equal_gt_boxes(self):
        image_ids, gts = self._world(100)
        params = SynthParams(fn_rate=1.0, fp_per_image=3.0, seed=17)
        dets = generate(gts, params, image_ids=image_ids).records()
        gt_boxes = {(g.image_id, tuple(g.bbox)) for g in gts}
        assert all((d.image_id, d.bbox) not in gt_boxes for d in dets)

    def test_duplicates_appear(self):
        image_ids, gts = self._world(200)
        params = SynthParams(fn_rate=0.0, fp_per_image=0.0, duplicate_rate=0.5, seed=23)
        dets = generate(gts, params, image_ids=image_ids)
        assert len(dets) > len(gts)

    def test_param_validation(self):
        with pytest.raises(InvalidInputError):
            SynthParams(fn_rate=1.5)
        with pytest.raises(InvalidInputError):
            SynthParams(fp_per_image=-1.0)

    @pytest.mark.parametrize("field, value", [
        ("jitter_std", math.nan), ("jitter_std", math.inf),
        ("duplicate_jitter_std", math.nan), ("duplicate_jitter_std", math.inf),
        ("fp_per_image", math.nan), ("fp_per_image", math.inf),
        ("fn_rate", math.nan), ("duplicate_rate", -math.inf),
        ("score_model", (0.8, math.nan, 0.15)), ("score_model", (0.8, 0.4, math.inf)),
    ])
    def test_non_finite_field_is_named(self, field, value):
        with pytest.raises(InvalidInputError, match=f"synth {field} must be finite"):
            SynthParams(**{field: value})

    def test_fp_per_image_up_to_the_poisson_cap(self):
        # Only constructed: generate loops once per false positive, so it
        # must never run with a mean near the cap.
        assert SynthParams(fp_per_image=POISSON_LAM_MAX).fp_per_image == POISSON_LAM_MAX
        np.random.default_rng(0).poisson(POISSON_LAM_MAX)  # numpy accepts the cap itself
        above = float(np.nextafter(POISSON_LAM_MAX, math.inf))
        with pytest.raises(ValueError, match="lam value too large"):
            np.random.default_rng(0).poisson(above)
        for too_many in (above, 1e20):
            with pytest.raises(InvalidInputError, match="fp_per_image"):
                SynthParams(fp_per_image=too_many)

    @pytest.mark.parametrize("field, value", [
        ("duplicate_jitter_std", -0.0), ("fp_per_image", -0.0), ("score_model", (0.8, 0.4, -0.0)),
    ])
    def test_negative_zero_spreads_are_refused(self, field, value):
        # numpy's normal and poisson refuse a -0.0 scale or mean ("scale < 0").
        with pytest.raises(InvalidInputError, match="must be >= 0"):
            SynthParams(**{field: value})

    def test_negative_zero_jitter_draws_no_jitter(self):
        image_ids, gts = self._world()
        assert generate(gts, SynthParams(jitter_std=-0.0), image_ids).records() == \
            generate(gts, SynthParams(jitter_std=0.0), image_ids).records()


BAD_SIZES = [(math.inf, 720.0), (1280.0, math.nan), (-math.inf, 720.0), (1280.0, -1.0),
             (0.0, 720.0), (1280.0, -0.0)]


class TestMaxPeople:
    @pytest.mark.parametrize("max_people", [-1, -5, 2.5, 2.0, math.nan, True, False, "3", None])
    def test_make_world_refuses_a_bad_max_people(self, max_people):
        with pytest.raises(InvalidInputError, match="max_people must be an integer >= 0"):
            make_world(3, max_people=max_people)

    def test_zero_and_numpy_integers_are_accepted(self):
        assert make_world(4, max_people=0, seed=1)[1] == []
        assert make_world(9, max_people=np.int64(2), seed=1) == make_world(9, max_people=2, seed=1)


class TestImageSize:
    @pytest.mark.parametrize("size", BAD_SIZES)
    def test_make_world_refuses_at_entry(self, size):
        with pytest.raises(InvalidInputError, match="image size must be finite and > 0"):
            make_world(5, image_size=size)

    @pytest.mark.parametrize("size", BAD_SIZES)
    def test_generate_refuses_at_entry(self, size):
        with pytest.raises(InvalidInputError, match="image size must be finite and > 0"):
            generate([], SynthParams(), ["a"], image_size=size)

    @pytest.mark.parametrize("width", [99.99, 50.0, 1.0])
    def test_false_positives_need_a_width_of_100(self, width):
        with pytest.raises(InvalidInputError, match="width must be >= 100"):
            generate([], SynthParams(fp_per_image=1.0), ["a"], image_size=(width, 720.0))
        assert len(generate([], SynthParams(fp_per_image=0.0), ["a"], (width, 720.0))) == 0
        assert len(generate([], SynthParams(fp_per_image=1e-9), ["a"], (100.0, 720.0))) == 0

    def test_a_box_outside_the_domain_is_named(self):
        # Positive and finite, but a quarter of it overflows the box domain.
        with pytest.raises(InvalidInputError, match="detection corners must be finite"):
            generate([], SynthParams(fp_per_image=5.0), ["a"], image_size=(1e200, 720.0))


def test_cli_synth_writes_the_oracle_files(tmp_path):
    config = RunConfig(seed=1234)
    assert main(["synth", "--num-images", "300", "--seed", "1234",
                 "--output-dir", str(tmp_path / "cli")]) == 0
    image_ids, gts = oracle.make_world(300, image_size=config.image_size,
                                       seed=config.substream_seed("world"))
    params = replace(config.synth, seed=config.substream_seed("synth"))
    fileio.write_annotations(tmp_path / "annotations.json", image_ids, gts,
                             image_size=config.image_size)
    fileio.write_detections(tmp_path / "detections.json", Detections.from_records(
        oracle.generate(gts, params, image_ids, image_size=config.image_size)))
    for name in ("annotations.json", "detections.json"):
        assert (tmp_path / "cli" / name).read_bytes() == (tmp_path / name).read_bytes()


@pytest.mark.parametrize("patch", [
    {"camera": {"image_width": 50.0}},
    {"synth": {"score_model": [0.8, 0.4, -0.0]}},
])
def test_cli_synth_exits_2_where_the_emulator_cannot_draw(tmp_path, patch, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(patch))
    assert main(["synth", "--config", str(path), "--num-images", "5",
                 "--output-dir", str(tmp_path)]) == 2
    assert "error:" in capsys.readouterr().err
