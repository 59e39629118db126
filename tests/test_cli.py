"""CLI subcommand tests, invoked in process."""

import json

import pytest

from radiofusion import fileio
from radiofusion.cli import main
from radiofusion.config import RunConfig, RunPaths
from radiofusion.radio import ArrayGeometry, synthesize_csi


def test_synth_then_regions_then_run(tmp_path):
    out = str(tmp_path)
    assert main(["synth", "--num-images", "40", "--seed", "7", "--output-dir", out]) == 0
    assert (tmp_path / "annotations.json").exists()
    assert (tmp_path / "detections.json").exists()

    assert main([
        "simulate-regions", "--seed", "7",
        "--annotations", str(tmp_path / "annotations.json"),
        "--out", str(tmp_path / "regions.json"),
        "--output-dir", out,
    ]) == 0
    regions = fileio.read_regions(tmp_path / "regions.json")
    assert sum(len(v) for v in regions.values()) > 0

    for method in ("baseline", "method1+cnms"):
        assert main([
            "run", "--seed", "7", "--method", method,
            "--annotations", str(tmp_path / "annotations.json"),
            "--detections", str(tmp_path / "detections.json"),
            "--regions", str(tmp_path / "regions.json"),
            "--output-dir", out,
        ]) == 0
    base = fileio.read_report(tmp_path / "report_baseline.json")
    fused = fileio.read_report(tmp_path / "report_method1_cnms.json")
    assert fused["metrics"]["fp_fn_per_image"] < base["metrics"]["fp_fn_per_image"]


def test_sweep_writes_csv(tmp_path):
    out = str(tmp_path)
    assert main(["synth", "--num-images", "30", "--seed", "3", "--output-dir", out]) == 0
    assert main([
        "sweep", "--seed", "3", "--method", "method2",
        "--annotations", str(tmp_path / "annotations.json"),
        "--param", "k", "--values", "0.1", "0.3",
        "--out", str(tmp_path / "sweep.csv"),
        "--output-dir", out,
    ]) == 0
    rows = (tmp_path / "sweep.csv").read_text().strip().splitlines()
    assert rows[0].startswith("param,value,ap")
    assert len(rows) == 3


def test_localize_and_project(tmp_path):
    geo_h = ArrayGeometry(num_antennas=8, element_spacing=0.0258, num_subcarriers=32,
                          base_frequency=5.8e9, frequency_interval=312.5e3,
                          orientation="horizontal")
    geo_v = ArrayGeometry(num_antennas=8, element_spacing=0.0258, num_subcarriers=32,
                          base_frequency=5.8e9, frequency_interval=312.5e3,
                          orientation="vertical")
    tof = 4 / (64 * 312.5e3)  # bin 3 of the default 64-bin delay grid
    fileio.write_csi_frame(tmp_path / "h.json",
                           synthesize_csi([(93.0, tof, 1.0)], geo_h), image_id="f0")
    fileio.write_csi_frame(tmp_path / "v.json",
                           synthesize_csi([(89.0, tof, 1.0)], geo_v), image_id="f0")

    assert main([
        "localize", "--csi", str(tmp_path / "h.json"), str(tmp_path / "v.json"),
        "--out", str(tmp_path / "estimates.json"), "--output-dir", str(tmp_path),
    ]) == 0
    estimates = fileio.read_estimates(tmp_path / "estimates.json")
    assert len(estimates["f0"]) == 1
    assert estimates["f0"][0].aoa_h == 93.0

    assert main([
        "project", "--estimates", str(tmp_path / "estimates.json"),
        "--out", str(tmp_path / "regions.json"), "--output-dir", str(tmp_path),
    ]) == 0
    regions = fileio.read_regions(tmp_path / "regions.json")
    assert len(regions["f0"]) == 1


def test_config_file_round_trip(tmp_path):
    config = RunConfig(seed=99, method="method2+cnms", lam=0.7)
    path = tmp_path / "config.json"
    config.save(path)
    loaded = RunConfig.load(path)
    assert loaded.to_dict() == config.to_dict()
    # CLI flags override config values.
    assert main(["synth", "--config", str(path), "--num-images", "5",
                 "--output-dir", str(tmp_path / "o")]) == 0


def test_schema_violation_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema": "nope/0"}))
    code = main(["run", "--annotations", str(bad), "--output-dir", str(tmp_path)])
    assert code == 2


def test_missing_file_exit_code(tmp_path):
    code = main(["run", "--annotations", str(tmp_path / "absent.json"),
                 "--output-dir", str(tmp_path)])
    assert code == 2


_REGION = {"center_x": 100.0, "center_y": 100.0, "edge": 40.0}


@pytest.mark.parametrize("flag, content", [
    ("--config", "[1]"),
    ("--config", '{"lambda": "abc"}'),
    ("--config", "{nope"),
    ("--config", '{"lamda": 0.9}'),
    ("--detections", json.dumps({"schema": "detections/1", "detections": [5]})),
    ("--detections", json.dumps({"schema": "detections/1", "detections": 5})),
    ("--regions", json.dumps({"schema": "regions/1", "images": [1]})),
    ("--regions", json.dumps({"schema": "regions/1", "images": {
        "img00000": [{"id": "p", **_REGION}, {"id": "p", **_REGION}]}})),
    ("--detections", json.dumps({"schema": "detections/1", "detections": [
        {"image_id": "img00000", "bbox": [0, 0, 10, 10], "score": "abc"}]})),
    ("--detections", json.dumps({"schema": "detections/1", "detections": [
        {"image_id": "img00000", "bbox": ["0", "0", "ten", "ten"], "score": 0.5}]})),
    ("--detections", json.dumps({"schema": "detections/1", "detections": [
        {"image_id": "img00000", "bbox": [0, 0, float("nan"), 10], "score": 0.5}]})),
    ("--regions", json.dumps({"schema": "regions/1", "images": {
        "img00000": [{"id": "p", **_REGION, "edge": float("inf")}]}})),
    ("--config", '{"synth": {"fp_per_image": Infinity}}'),
    ("--config", '{"noise": {"sigma": NaN}}'),
    ("--annotations", json.dumps({"schema": "annotations/1", "images": [{"id": "a"}],
                                  "annotations": [{"image_id": "b", "bbox": [0, 0, 9, 9]}]})),
    ("--detections", json.dumps({"schema": "detections/1", "detections": [
        {"image_id": "elsewhere", "bbox": [0, 0, 10, 10], "score": 0.5}]})),
    ("--regions", json.dumps({"schema": "regions/1", "images": {"elsewhere": [
        {"id": "p", **_REGION}]}})),
    ("--config", '{"radio": {"tof_tolerance": -1}}'),
    ("--config", '{"seed": -1}'),
    ("--config", '{"seed": 2.5}'),
    ("--config", '{"radio": {"num_tof_bins": 64.9}}'),
    ("--config", '{"lambda": true}'),
    ("--config", '{"nms": {"mode": "one_stage"}}'),
    ("--config", '{"noise": {"seed": 1}}'),
    ("--config", '{"synth": {"seed": 1}}'),
    ("--config", '{"radio": {"num_tof_bins": 100000000000}}'),
    ("--config", '{"radio": {"aoa_step_deg": 1e-9}}'),
    ("--detections", json.dumps({"schema": "detections/1", "detections": [
        {"image_id": "img00000", "bbox": [0, 0, 10, 10], "score": True}]})),
])
def test_malformed_input_exit_code(tmp_path, flag, content):
    out = str(tmp_path)
    assert main(["synth", "--num-images", "3", "--seed", "5", "--output-dir", out]) == 0
    bad = tmp_path / "bad.json"
    bad.write_text(content)
    code = main(["run", "--method", "method1+cnms", "--annotations",
                 str(tmp_path / "annotations.json"), flag, str(bad), "--output-dir", out])
    assert code == 2


def _command_argv(tmp_path, command):
    """Inputs for one subcommand on a 3-image world and one CSI frame."""
    assert main(["synth", "--num-images", "3", "--seed", "5", "--output-dir", str(tmp_path)]) == 0
    geo = ArrayGeometry(num_antennas=4, element_spacing=0.0258, num_subcarriers=8,
                        base_frequency=5.8e9, frequency_interval=312.5e3)
    fileio.write_csi_frame(tmp_path / "h.json", synthesize_csi([(93.0, 40e-9, 1.0)], geo),
                           image_id="f0")
    fileio.write_estimates(tmp_path / "estimates.json", {"f0": []})
    annotations = str(tmp_path / "annotations.json")
    return {
        "synth": ["--num-images", "3"],
        "simulate-regions": ["--annotations", annotations],
        "localize": ["--csi", str(tmp_path / "h.json")],
        "project": ["--estimates", str(tmp_path / "estimates.json")],
        "run": ["--annotations", annotations],
        "sweep": ["--annotations", annotations, "--param", "k", "--values", "0.1"],
    }[command]


COMMANDS = ["synth", "simulate-regions", "localize", "project", "run", "sweep"]


@pytest.mark.parametrize("command", COMMANDS)
def test_bad_tof_tolerance_exit_code_for_every_command(tmp_path, command):
    """A config with tof_tolerance <= 0 is refused before any work, whatever the command."""
    argv = _command_argv(tmp_path, command)
    for tolerance, expected in ((1e-7, 0), (0, 2), (-1, 2)):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"radio": {"tof_tolerance": tolerance}}))
        out = str(tmp_path / f"out{tolerance}")
        assert main([command, *argv, "--config", str(config), "--output-dir", out]) == expected


@pytest.mark.parametrize("command", COMMANDS)
def test_oversized_radio_grid_exit_code_for_every_command(tmp_path, command):
    """A config whose angle x delay grid is over the cell cap is refused by every command."""
    argv = _command_argv(tmp_path, command)
    cases = (({"num_tof_bins": 5524}, 0), ({"num_tof_bins": 5525}, 2),
             ({"num_tof_bins": 100000000000}, 2), ({"aoa_step_deg": 1e-9}, 2))
    for case, (radio, expected) in enumerate(cases):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"radio": radio}))
        out = str(tmp_path / f"out{case}")
        assert main([command, *argv, "--config", str(config), "--output-dir", out]) == expected


@pytest.mark.parametrize("sample", [[1.0], ["a", "b"]])
def test_malformed_csi_sample_exit_code(tmp_path, sample):
    geo = ArrayGeometry(num_antennas=4, element_spacing=0.0258, num_subcarriers=8,
                        base_frequency=5.8e9, frequency_interval=312.5e3)
    path = tmp_path / "h.json"
    fileio.write_csi_frame(path, synthesize_csi([(93.0, 40e-9, 1.0)], geo), image_id="f0")
    doc = json.loads(path.read_text())
    doc["samples"][0] = sample
    path.write_text(json.dumps(doc))
    code = main(["localize", "--csi", str(path), "--output-dir", str(tmp_path)])
    assert code == 2


@pytest.mark.parametrize("patch", [{"num_subcarriers": 32.9}, {"num_antennas": 4.5},
                                   {"element_spacing": True}])
def test_malformed_csi_geometry_exit_code(tmp_path, patch):
    geo = ArrayGeometry(num_antennas=4, element_spacing=0.0258, num_subcarriers=32,
                        base_frequency=5.8e9, frequency_interval=312.5e3)
    path = tmp_path / "h.json"
    fileio.write_csi_frame(path, synthesize_csi([(93.0, 40e-9, 1.0)], geo), image_id="f0")
    doc = json.loads(path.read_text())
    doc["geometry"].update(patch)
    path.write_text(json.dumps(doc))
    code = main(["localize", "--csi", str(path), "--output-dir", str(tmp_path)])
    assert code == 2


def test_negative_seed_flag_exit_code(tmp_path):
    out = str(tmp_path)
    assert main(["synth", "--num-images", "3", "--seed", "5", "--output-dir", out]) == 0
    for argv in (["synth"], ["run", "--annotations", str(tmp_path / "annotations.json")]):
        assert main([*argv, "--seed", "-1", "--output-dir", out]) == 2


def test_synth_and_simulate_ignore_input_paths_in_config(tmp_path):
    """synth always emulates and simulate-regions always simulates."""
    out = str(tmp_path)
    assert main(["synth", "--num-images", "6", "--seed", "4", "--output-dir", out]) == 0
    emulated = (tmp_path / "detections.json").read_text()
    assert main(["simulate-regions", "--seed", "4", "--annotations",
                 str(tmp_path / "annotations.json"), "--out", str(tmp_path / "regions.json"),
                 "--output-dir", out]) == 0
    simulated = (tmp_path / "regions.json").read_text()
    config = tmp_path / "config.json"
    stale = tmp_path / "stale.json"
    stale.write_text("not read")
    RunConfig(seed=4, paths=RunPaths(detections=str(stale), regions=str(stale))).save(config)
    again = tmp_path / "again"
    assert main(["synth", "--config", str(config), "--annotations",
                 str(tmp_path / "annotations.json"), "--output-dir", str(again)]) == 0
    assert (again / "detections.json").read_text() == emulated
    assert main(["simulate-regions", "--config", str(config), "--annotations",
                 str(tmp_path / "annotations.json"), "--out", str(again / "regions.json"),
                 "--output-dir", str(again)]) == 0
    assert (again / "regions.json").read_text() == simulated
