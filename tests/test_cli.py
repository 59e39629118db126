"""CLI subcommand tests, invoked in process."""

import csv
import json
import warnings

import pytest

from radiofusion import cli, fileio
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
    assert len(fileio.read_regions(tmp_path / "regions.json")) > 0

    for method in ("baseline", "method1+cnms"):
        assert main([
            "run", "--seed", "7", "--method", method,
            "--annotations", str(tmp_path / "annotations.json"),
            "--detections", str(tmp_path / "detections.json"),
            "--regions", str(tmp_path / "regions.json"),
            "--output-dir", out,
        ]) == 0
    base = fileio.load_json(tmp_path / "report_baseline.json")
    fused = fileio.load_json(tmp_path / "report_method1_cnms.json")
    assert fused["metrics"]["fp_fn_per_image"] < base["metrics"]["fp_fn_per_image"]


def test_a_method_that_fails_leaves_no_file_of_its_call(tmp_path, capsys):
    """Every method of a call is evaluated before any file is written: when
    method1 refuses the cell-less detections, baseline's files are not left."""
    out = tmp_path / "out"
    assert main(["synth", "--num-images", "6", "--seed", "3", "--output-dir", str(tmp_path)]) == 0
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"mode": "one_stage"}), encoding="utf-8")
    capsys.readouterr()
    assert main(["run", "--config", str(config), "--method", "baseline", "method1",
                 "--annotations", str(tmp_path / "annotations.json"),
                 "--detections", str(tmp_path / "detections.json"),
                 "--output-dir", str(out)]) == 2
    assert "one_stage revision requires a cell on every detection" in capsys.readouterr().err
    assert not out.exists()


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


@pytest.mark.parametrize("param", ["sigma", "k", "k1", "k2"])
def test_a_noise_sweep_simulates_its_regions_even_when_the_config_names_a_file(tmp_path, param):
    """Each noise value draws its own regions, as without a regions file:
    a regions file in the config is not read."""
    out = str(tmp_path)
    assert main(["synth", "--num-images", "20", "--seed", "3", "--output-dir", out]) == 0
    assert main(["simulate-regions", "--seed", "3", "--annotations",
                 str(tmp_path / "annotations.json"), "--output-dir", out]) == 0
    config = tmp_path / "config.json"
    RunConfig(paths=RunPaths(regions=str(tmp_path / "regions.json"))).save(config)
    sweep = ["sweep", "--seed", "3", "--method", "method1+cnms", "--param", param,
             "--annotations", str(tmp_path / "annotations.json"),
             "--values", "0.05", "0.5", "2.0", "--output-dir", out]
    assert main([*sweep, "--config", str(config), "--out", str(tmp_path / "file.csv")]) == 0
    assert main([*sweep, "--out", str(tmp_path / "none.csv")]) == 0

    def rows(name):
        table = list(csv.DictReader((tmp_path / name).read_text().splitlines()))
        return [{k: v for k, v in row.items() if k != "runtime_s"} for row in table]

    assert rows("file.csv") == rows("none.csv")
    assert len({row["ap"] for row in rows("file.csv")}) > 1


def test_one_parser_serves_every_call(tmp_path, monkeypatch):
    """Calls with different subcommands build the parser once, and each
    parses only its own arguments: no ``--values`` list carries over."""
    add_common, built = cli._add_common, []
    monkeypatch.setattr(cli, "_add_common", lambda p: (built.append(p), add_common(p)))
    cli.build_parser.cache_clear()
    out = str(tmp_path)
    sweep = ["sweep", "--seed", "3", "--method", "method2", "--param", "k",
             "--annotations", str(tmp_path / "annotations.json"), "--output-dir", out]
    assert main(["synth", "--num-images", "6", "--seed", "3", "--output-dir", out]) == 0
    assert main([*sweep, "--values", "0.1", "0.3", "--out", str(tmp_path / "two.csv")]) == 0
    assert main([*sweep, "--values", "0.2", "--out", str(tmp_path / "one.csv")]) == 0
    assert len(built) == 6  # every subcommand's parser, each once
    for name, values in (("two.csv", ["0.1", "0.3"]), ("one.csv", ["0.2"])):
        rows = (tmp_path / name).read_text().strip().splitlines()[1:]
        assert [row.split(",")[1] for row in rows] == values
    cli.build_parser.cache_clear()


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
    assert regions.ids == ("f0",) and len(regions) == 1


@pytest.mark.parametrize("tof, message", [
    (1e300, "region edge must be > 0, got 0.0"),
    (1e-300, "region corners must be finite and within 1e+150 of 0"),
], ids=["far", "near"])
def test_project_names_the_estimate_whose_region_is_refused(tmp_path, capsys, tof, message):
    """A schema-valid delay can make a region the box domain refuses: too far
    for a positive edge, or so near that the square leaves the domain."""
    path = tmp_path / "estimates.json"
    path.write_text(json.dumps({"schema": "estimates/1", "images": {
        "f0": [{"id": "p0", "aoa_h": 92.0, "aoa_v": 88.0, "tof": 2e-8}],
        "f1": [{"id": "p0", "aoa_h": 92.0, "aoa_v": 88.0, "tof": 2e-8},
               {"id": "p1", "aoa_h": 92.0, "aoa_v": 88.0, "tof": tof}]}}))
    capsys.readouterr()
    assert main(["project", "--estimates", str(path), "--output-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: image 'f1': estimate 'p1': {message}")


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


# Paths that cannot be opened as a file or made into a directory: ``{dir}``
# is a directory, ``{file}`` a regular file and ``{world}`` the directory of
# a synthetic world.
_WORLD = ["--annotations", "{world}/annotations.json", "--detections", "{world}/detections.json"]


@pytest.mark.parametrize("argv", [
    ["run", "--annotations", "{dir}/absent.json"],
    ["run", "--annotations", "{dir}"],
    ["run", *_WORLD, "--method", "method1", "--regions", "{dir}"],
    ["run", *_WORLD, "--output-dir", "{file}"],
    ["run", *_WORLD, "--config", "{dir}"],
    ["synth", "--num-images", "2", "--output-dir", "{file}/x"],
    ["localize", "--csi", "{dir}"],
    ["project", "--estimates", "{dir}"],
], ids=["absent", "annotations-dir", "regions-dir", "output-dir-file", "config-dir",
        "output-dir-under-file", "csi-dir", "estimates-dir"])
def test_missing_file_exit_code(tmp_path, capsys, argv):
    world, folder, file = tmp_path / "world", tmp_path / "folder", tmp_path / "file"
    assert main(["synth", "--num-images", "3", "--seed", "5", "--output-dir", str(world)]) == 0
    folder.mkdir()
    file.write_text("")
    argv = [arg.format(world=world, dir=folder, file=file) for arg in argv]
    out = [] if "--output-dir" in argv else ["--output-dir", str(tmp_path / "out")]
    capsys.readouterr()
    assert main(argv + out) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("command, flag", [("run", "--annotations"), ("localize", "--csi")])
def test_deeply_nested_json_exit_code(tmp_path, capsys, command, flag):
    """JSON nested past the decoder's recursion limit is not valid JSON."""
    bad = tmp_path / "deep.json"
    bad.write_text("[" * 100_000)
    assert main([command, flag, str(bad), "--output-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {bad}: not valid JSON (")


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
    ("--detections", json.dumps({"schema": "detections/1", "detections": [
        {"image_id": "img00000", "bbox": [0, 0, 1e200, 1e200], "score": 0.5}]})),
    ("--detections", json.dumps({"schema": "detections/1", "detections": [
        {"image_id": "img00000", "bbox": [-1e308, 0, 1e308, 10], "score": 0.5}]})),
    ("--annotations", json.dumps({"schema": "annotations/1", "images": [{"id": "img00000"}],
                                  "annotations": [{"image_id": "img00000",
                                                   "bbox": [0, 0, 1e200, 1e200]}]})),
    ("--regions", json.dumps({"schema": "regions/1", "images": {
        "img00000": [{"id": "p", **_REGION, "edge": 1e200}]}})),
    # The square fits the box domain, its tallest proposal anchor does not.
    ("--regions", json.dumps({"schema": "regions/1", "images": {
        "img00000": [{"id": "p", "center_x": 0.0, "center_y": 0.0, "edge": 1.9e150}]}})),
    # The ignore flag is a JSON boolean; anything else is not read as one.
    *(("--annotations", json.dumps({"schema": "annotations/1", "images": [{"id": "img00000"}],
                                    "annotations": [{"image_id": "img00000",
                                                     "bbox": [0, 0, 9, 9], "ignore": flag}]}))
      for flag in ("false", 1, [0], 0.0, "true")),
    # Image sizes are optional finite numbers > 0.
    *(("--annotations", json.dumps({"schema": "annotations/1",
                                    "images": [{"id": "img00000", key: size}]}))
      for key in ("width", "height") for size in ("abc", 0.0, -1, float("nan"), True)),
])
def test_malformed_input_exit_code(tmp_path, flag, content):
    out = str(tmp_path)
    assert main(["synth", "--num-images", "3", "--seed", "5", "--output-dir", out]) == 0
    bad = tmp_path / "bad.json"
    bad.write_text(content)
    code = main(["run", "--method", "method1+cnms", "--annotations",
                 str(tmp_path / "annotations.json"), flag, str(bad), "--output-dir", out])
    assert code == 2


def test_region_with_an_anchor_outside_the_box_domain_names_the_regions_file(tmp_path, capsys):
    """Region proposals build no records, so the region rule refuses a region
    whose tallest anchor leaves the box domain when its file is read."""
    out = str(tmp_path)
    assert main(["synth", "--num-images", "3", "--seed", "5", "--output-dir", out]) == 0
    bad = tmp_path / "regions.json"
    bad.write_text(json.dumps({"schema": "regions/1", "images": {
        "img00000": [{"id": "p", "center_x": 0.0, "center_y": 0.0, "edge": 1.9e150}]}}))
    capsys.readouterr()
    assert main(["run", "--method", "method2", "--annotations", str(tmp_path / "annotations.json"),
                 "--regions", str(bad), "--output-dir", out]) == 2
    assert f"error: {bad}: image 'img00000': region anchor corners" in capsys.readouterr().err


def test_region_edge_whose_reach_overflows_names_the_regions_file(tmp_path, capsys):
    """An edge of 1e308 overflows the anchor reach of the column check, which
    warns nothing even when warnings are errors; the record check names it."""
    out = str(tmp_path)
    assert main(["synth", "--num-images", "3", "--seed", "5", "--output-dir", out]) == 0
    bad = tmp_path / "regions.json"
    bad.write_text(json.dumps({"schema": "regions/1", "images": {
        "img00000": [{"id": "p", "center_x": 0.0, "center_y": 0.0, "edge": 1e308}]}}))
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["run", "--method", "method2", "--annotations",
                     str(tmp_path / "annotations.json"), "--regions", str(bad),
                     "--output-dir", out])
    assert code == 2
    assert f"error: {bad}: image 'img00000': region corners" in capsys.readouterr().err


def test_repeated_region_id_names_the_id(tmp_path, capsys):
    out = str(tmp_path)
    assert main(["synth", "--num-images", "3", "--seed", "5", "--output-dir", out]) == 0
    bad = tmp_path / "regions.json"
    bad.write_text(json.dumps({"schema": "regions/1", "images": {
        "img00001": [{"id": "r0", **_REGION}],
        "img00000": [{"id": "r0", **_REGION}, {"id": "r1", **_REGION}, {"id": "r1", **_REGION}],
    }}))
    capsys.readouterr()
    assert main(["run", "--method", "method1+cnms", "--annotations",
                 str(tmp_path / "annotations.json"), "--regions", str(bad),
                 "--output-dir", out]) == 2
    assert capsys.readouterr().err == f"error: {bad}: image 'img00000' repeats id 'r1'\n"


@pytest.mark.parametrize("images, annotation", [
    (["img00000", "img00001", "img00000"], {}),
    (["img00000"], {"occlusion": 5.0}),
    (["img00000"], {"height": 0.0}),
    ([], {"image_id": True}),
], ids=["repeated-image-id", "occlusion", "height", "bool-image-id"])
def test_malformed_annotations_exit_code(tmp_path, capsys, images, annotation):
    path = tmp_path / "annotations.json"
    path.write_text(json.dumps({
        "schema": "annotations/1", "images": [{"id": image_id} for image_id in images],
        "annotations": [{"image_id": "img00000", "bbox": [0, 0, 9, 9], **annotation}]}))
    assert main(["run", "--annotations", str(path), "--output-dir", str(tmp_path)]) == 2
    assert f"error: {path}: " in capsys.readouterr().err


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


@pytest.mark.parametrize("command", ["synth", "run", "sweep"])
def test_huge_fp_per_image_exit_code(tmp_path, capsys, command):
    """A false-positive mean over numpy's Poisson cap is refused, not a traceback."""
    argv = _command_argv(tmp_path, command)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"synth": {"fp_per_image": 1e20}}))
    capsys.readouterr()
    assert main([command, *argv, "--config", str(config), "--output-dir", str(tmp_path)]) == 2
    assert "fp_per_image" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["fov_h", "fov_v"])
def test_removed_camera_fov_key_exit_code(tmp_path, capsys, key):
    """The field of view follows from the focal length and frame; a document naming it fails."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"camera": {key: 60}}))
    assert main(["synth", "--num-images", "3", "--config", str(config),
                 "--output-dir", str(tmp_path)]) == 2
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("sample", [[1.0], ["a", "b"], [True, 0.5], [0.5, False]])
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


def _frame_pair(tmp_path, field: str, value) -> list:
    """A valid horizontal and vertical frame of one emitter at 80 degrees,
    the vertical frame's geometry ``field`` set to ``value``."""
    paths = []
    for orientation in ("horizontal", "vertical"):
        geo = ArrayGeometry(num_antennas=8, element_spacing=0.0258, num_subcarriers=32,
                            base_frequency=5.8e9, frequency_interval=312.5e3,
                            orientation=orientation)
        paths.append(tmp_path / f"{orientation}.json")
        fileio.write_csi_frame(paths[-1], synthesize_csi([(80.0, 40e-9, 1.0)], geo), image_id="f0")
    doc = json.loads(paths[1].read_text())
    doc["geometry"][field] = value
    paths[1].write_text(json.dumps(doc))
    return paths


@pytest.mark.parametrize("base_frequency", [-5.8e9, 0.0])
def test_non_positive_base_frequency_exit_code(tmp_path, capsys, base_frequency):
    """A carrier at or below 0 Hz is refused when the frame is read; it used
    to mirror or zero the vertical angle of an emitter at 80 degrees."""
    paths = _frame_pair(tmp_path, "base_frequency", base_frequency)
    capsys.readouterr()
    assert main(["localize", "--csi", *map(str, paths), "--output-dir", str(tmp_path)]) == 2
    assert f"{paths[1]}: geometry: base frequency must be > 0" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [
    ("element_spacing", 1e308), ("base_frequency", 1e308), ("frequency_interval", 1e-320),
    ("frequency_interval", 1e-308),
])
def test_rig_whose_steering_phases_overflow_names_the_file(tmp_path, capsys, field, value):
    """A rig whose angle or delay phases overflow is refused when the frame is
    read; it used to leak a numpy overflow warning and then fail on the
    spectrum with a message that named no file."""
    paths = _frame_pair(tmp_path, field, value)
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["localize", "--csi", *map(str, paths), "--output-dir", str(tmp_path)])
    assert code == 2
    assert f"{paths[1]}: geometry: steering phases overflow" in capsys.readouterr().err
    assert not (tmp_path / "estimates.json").exists()


@pytest.mark.parametrize("synth, code", [
    ({"jitter_std": 1e308}, 2),
    ({"duplicate_jitter_std": 1e308, "duplicate_rate": 1.0}, 2),
    ({"score_model": [0.8, 0.4, 1e308]}, 0),
], ids=["jitter", "duplicate-jitter", "score-std"])
def test_emulator_spreads_at_the_overflow_bound(tmp_path, capsys, synth, code):
    """A corner jitter of 1e308 overflows to an infinite corner, which the
    detection rule refuses; a score spread of 1e308 is clamped to [0, 1].
    Neither leaks a numpy warning."""
    assert main(["synth", "--num-images", "3", "--seed", "5", "--output-dir", str(tmp_path)]) == 0
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"synth": synth}))
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", "--config", str(config), "--annotations",
                     str(tmp_path / "annotations.json"), "--output-dir", str(tmp_path)]) == code
    err = capsys.readouterr().err
    assert err.startswith("error: detection corners must be finite") if code else err == ""


def test_overflowing_csi_spectrum_exit_code(tmp_path, capsys):
    """Finite samples whose response overflows end in exit 2 naming the spectrum."""
    paths = []
    for orientation in ("horizontal", "vertical"):
        geo = ArrayGeometry(num_antennas=8, element_spacing=0.0258, num_subcarriers=32,
                            base_frequency=5.8e9, frequency_interval=312.5e3,
                            orientation=orientation)
        frame = synthesize_csi([(90.0, 40e-9, 1e306)], geo, timestamp=3.0)
        paths.append(tmp_path / f"{orientation}.json")
        fileio.write_csi_frame(paths[-1], frame, image_id="f0")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["localize", "--csi", *map(str, paths), "--output-dir", str(tmp_path)])
    assert code == 2
    assert caught == []
    err = capsys.readouterr().err
    assert err == "error: spectrum of CSI frame t=3.0 overflows\n"
    assert not (tmp_path / "estimates.json").exists()


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
