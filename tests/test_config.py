"""Run configuration documents: the on-disk format, round trips, rejection."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radiofusion.config import METHODS, RadioParams, RunConfig, RunPaths
from radiofusion.errors import SchemaError
from radiofusion.imaging import CameraModel
from radiofusion.nms import NmsConfig
from radiofusion.sim_regions import NoiseParams
from radiofusion.synth import SynthParams


def test_default_document_is_pinned():
    assert RunConfig().to_dict() == {
        "seed": 1234,
        "lambda": 0.5,
        "mode": "two_stage",
        "method": "baseline",
        "score_threshold": 0.3,
        "gt_filter": "none",
        "count_constrained": False,
        "noise": {"sigma": 0.2, "k1": 0.1, "k2": 0.1},
        "nms": {
            "iou_threshold": 0.5,
            "enable_fallback_loop": True,
            "fallback_floor_score": 0.01,
            "require_region": True,
        },
        "camera": {
            "focal_length_px": 3000.0,
            "image_width": 1280.0,
            "image_height": 720.0,
            "fov_h": 64.0,
            "fov_v": 52.0,
        },
        "radio": {
            "aoa_step_deg": 1.0,
            "num_tof_bins": 64,
            "peak_threshold": 0.5,
            "tof_tolerance": None,
            "round_trip_factor": 1.0,
            "person_extent_m": 1.0,
        },
        "synth": {
            "jitter_std": 0.05,
            "fp_per_image": 1.0,
            "fn_rate": 0.1,
            "duplicate_rate": 0.2,
            "duplicate_jitter_std": 0.35,
            "score_model": [0.8, 0.4, 0.15],
        },
        "paths": {
            "annotations": None,
            "detections": None,
            "regions": None,
            "output_dir": "out",
        },
    }


def test_partial_document_merges_onto_defaults():
    config = RunConfig.from_dict({"lambda": 0.25, "noise": {"k1": 0.3},
                                  "camera": {"image_width": 640}})
    assert config.lam == 0.25
    assert config.noise == NoiseParams(k1=0.3)
    assert config.image_size == (640.0, 720.0)


@pytest.mark.parametrize("document", [
    [1],
    {"lamda": 0.9},
    {"lam": 0.9},
    {"image_size": [640, 480]},
    {"paths": {"csi": "frame.json"}},
    {"nms": {"iou": 1}},
    {"nms": 0.5},
    {"lambda": "abc"},
    {"seed": 1e400},
    {"count_constrained": "false"},
    {"synth": {"score_model": [0.8, 0.4]}},
    {"synth": {"fp_per_image": float("inf")}},
    {"noise": {"sigma": float("nan")}},
    {"radio": {"tof_tolerance": -1}},
    {"radio": {"tof_tolerance": 0}},
    {"seed": -1},
    {"seed": 2.5},
    {"radio": {"num_tof_bins": 64.9}},
    {"lambda": True},
    {"nms": {"mode": "one_stage"}},
    {"noise": {"seed": 1}},
    {"synth": {"seed": 1}},
    {"radio": {"num_tof_bins": 100000000000}},
    {"radio": {"num_tof_bins": 5525}},
    {"radio": {"aoa_step_deg": 1e-9}},
    {"radio": {"aoa_step_deg": 5e-324}},
    {"radio": {"aoa_step_deg": 0.018, "num_tof_bins": 100}},
])
def test_malformed_documents_are_rejected(document):
    with pytest.raises(SchemaError):
        RunConfig.from_dict(document)


@pytest.mark.parametrize("radio", [
    {"num_tof_bins": 5524},  # 181 x 5524 = 999,844 cells
    {"aoa_step_deg": 0.0181, "num_tof_bins": 100},  # 9946 x 100 cells
])
def test_radio_grid_up_to_the_cell_cap_is_accepted(radio):
    assert RunConfig.from_dict({"radio": radio}).radio == RadioParams(**radio)


def test_integral_floats_read_as_integers():
    config = RunConfig.from_dict({"seed": 7.0, "radio": {"num_tof_bins": "32"}})
    assert (config.seed, config.radio.num_tof_bins) == (7, 32)
    assert isinstance(config.seed, int)


_unit = st.floats(0.0, 1.0)


def _positive(high):
    return st.floats(0.01, high)


_modes = st.sampled_from(("one_stage", "two_stage"))
_paths = st.none() | st.text(max_size=12)
configs = st.builds(
    RunConfig,
    seed=st.integers(0, 2**31 - 1),
    lam=_unit,
    mode=_modes,
    method=st.sampled_from(METHODS),
    score_threshold=_unit,
    gt_filter=st.sampled_from(("none", "reasonable", "all")),
    count_constrained=st.booleans(),
    noise=st.builds(NoiseParams, sigma=_positive(2.0), k1=_positive(2.0),
                    k2=_positive(2.0)),
    nms=st.builds(NmsConfig, iou_threshold=_unit,
                  enable_fallback_loop=st.booleans(), fallback_floor_score=_unit,
                  require_region=st.booleans()),
    camera=st.builds(CameraModel, focal_length_px=_positive(1e4),
                     image_width=_positive(1e4), image_height=_positive(1e4),
                     fov_h=st.floats(1.0, 179.0), fov_v=st.floats(1.0, 179.0)),
    # A step of 0.2 degrees or more keeps 512 delay bins under the grid cell cap.
    radio=st.builds(RadioParams, aoa_step_deg=st.floats(0.2, 10.0),
                    num_tof_bins=st.integers(1, 512), peak_threshold=_positive(1.0),
                    tof_tolerance=st.none() | _positive(1.0),
                    round_trip_factor=_positive(2.0), person_extent_m=_positive(3.0)),
    synth=st.builds(SynthParams, jitter_std=_unit, fp_per_image=_positive(5.0),
                    fn_rate=_unit, duplicate_rate=_unit, duplicate_jitter_std=_unit,
                    score_model=st.tuples(_unit, _unit, _unit)),
    paths=st.builds(RunPaths, annotations=_paths, detections=_paths, regions=_paths,
                    output_dir=st.text(min_size=1, max_size=12)),
)


@settings(max_examples=60, deadline=None)
@given(configs)
def test_json_round_trip_is_exact(config):
    assert RunConfig.from_dict(json.loads(json.dumps(config.to_dict()))) == config
