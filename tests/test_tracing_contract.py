"""The benchmark tracer still fits the program: every hook runs clean.

``perfbench/tracing.py`` wraps pipeline and fileio globals and reads
arguments and record fields in its hooks (``NmsConfig.mode``,
``CsiFrame.geometry`` ...). Removing or renaming one of those breaks the
benchmark's traced rounds, so a tiny world is run here under the tracer.
The stages are world-level calls, so the hooks' counts must still match
what a run writes: ``nms.kept`` of a cNMS run is the detections it shows.
"""

import json
import sys
from pathlib import Path

import pytest

from radiofusion import fileio, pipeline
from radiofusion.cli import main
from radiofusion.config import METHODS, RadioParams, RunConfig, RunPaths
from radiofusion.radio import ArrayGeometry, default_aoa_grid, synthesize_csi

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    yield tracing
    sys.modules.pop("tracing", None)


def test_every_command_runs_clean_under_the_tracer(tmp_path, tracing):
    out = str(tmp_path)
    assert main(["synth", "--num-images", "8", "--seed", "3", "--output-dir", out]) == 0
    frames = []
    for orientation, aoa in (("horizontal", 93.0), ("vertical", 88.0)):
        geo = ArrayGeometry(num_antennas=4, element_spacing=0.0258, num_subcarriers=8,
                            base_frequency=5.8e9, frequency_interval=312.5e3,
                            orientation=orientation)
        path = tmp_path / f"{orientation}.json"
        fileio.write_csi_frame(path, synthesize_csi([(aoa, 40e-9, 1.0)], geo), image_id="f0")
        frames.append(str(path))

    tracer = tracing.Tracer()
    annotations = str(tmp_path / "annotations.json")

    def metric_spans(first):
        names = [span.name for span in tracer.spans[first:]]
        return tuple(names.count(f"metrics.{name}")
                     for name in ("coco_map", "mr_fppi", "visual_metrics"))

    with tracing.installed(tracer):
        for method in METHODS:
            kept_before, first = tracer.counts.get("nms.kept", 0), len(tracer.spans)
            assert main(["run", "--method", method, "--annotations", annotations,
                         "--output-dir", out]) == 0
            # The match is timed once, inside coco_map; mr_fppi and the
            # visual counts read it, each under its own span.
            assert metric_spans(first) == (1, 1, 1), method
            if method.endswith("+cnms"):
                written = tmp_path / f"detections_{method.replace('+', '_')}.json"
                shown = json.loads(written.read_text(encoding="utf-8"))["detections"]
                assert shown and tracer.counts["nms.kept"] - kept_before == len(shown), method
        people = int((fileio.read_annotations(annotations)[1].categories == "person").sum())
        for method in ("method1+cnms", "method2+cnms"):
            first = len(tracer.spans)
            before = {key: tracer.counts.get(key, 0) for key in ("sim_regions.regions", "nms.kept")}
            assert main(["sweep", "--method", method, "--annotations", annotations,
                         "--param", "k", "--values", "0.05", "0.4",
                         "--output-dir", out]) == 0
            assert metric_spans(first) == (2, 2, 2), method
            # Each value simulates one region per person; the two-stage
            # fallback keeps exactly one box per region, however short its pass.
            added = {key: tracer.counts[key] - count for key, count in before.items()}
            assert added["sim_regions.regions"] == 2 * people > 0, method
            if method == "method2+cnms":
                assert added["nms.kept"] == added["sim_regions.regions"]
        first = len(tracer.spans)
        assert main(["localize", "--csi", *frames, "--output-dir", out]) == 0
        # One spectrum and one peak pick per frame: the hooks count frames and
        # multiply-accumulates per compute_spectrum call, so a batched radio
        # pass would need them changed with it.
        names = [span.name for span in tracer.spans[first:]]
        assert names.count("radio.compute_spectrum") == len(frames)
        assert names.count("radio.pick_peaks") == len(frames)
        assert main(["project", "--estimates", str(tmp_path / "estimates.json"),
                     "--output-dir", out]) == 0

    assert tracer.violations == []
    assert tracer.nesting_errors() == []
    radio = RadioParams()
    cells, bins = default_aoa_grid(radio.aoa_step_deg).size, radio.num_tof_bins
    values = tracing.layer_metrics(tracer.spans, tracer.counts)
    assert values["radio.frames"] == len(frames)
    # I*M*K + I*K*J per frame, with M = 4 antennas and K = 8 subcarriers.
    assert values["radio.spectrum_cmacs"] == cells * 4 * 8 + cells * 8 * bins
    # sim_regions.regions: runs without a regions file simulate them, so the
    # benchmark's timer on region simulation must see every call.
    # metrics.ranked and metrics.gts: the coco_map timer must see every call.
    for key in ("nms.in", "fusion.revised", "fusion.proposals", "sim_regions.regions",
                "metrics.ranked", "metrics.gts", "radio.frames", "radio.estimates",
                "imaging.regions"):
        assert tracer.counts.get(key, 0) > 0, key


def test_a_localize_call_of_several_chunks_runs_clean_under_the_tracer(tmp_path, tracing,
                                                                       monkeypatch):
    """Frames are read as the call needs them, pairs split across chunks,
    and each frame still gets one spectrum span and one peak span."""
    monkeypatch.setattr(pipeline, "CHUNK_PAIRS", 2)
    order = [(0, "horizontal"), (1, "horizontal"), (0, "vertical"), (2, "horizontal"),
             (1, "vertical"), (2, "vertical"), (3, "horizontal"), (4, "horizontal"),
             (3, "vertical"), (4, "vertical")]
    frames = []
    for pair, orientation in order:
        geo = ArrayGeometry(num_antennas=4, element_spacing=0.0258, num_subcarriers=8,
                            base_frequency=5.8e9, frequency_interval=312.5e3,
                            orientation=orientation)
        path = tmp_path / f"{pair}{orientation[0]}.json"
        fileio.write_csi_frame(path, synthesize_csi([(80.0 + pair, 40e-9, 1.0)], geo),
                               image_id=f"f{pair}")
        frames.append(str(path))

    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        assert main(["localize", "--csi", *frames, "--output-dir", str(tmp_path)]) == 0

    names = [span.name for span in tracer.spans]
    assert names.count("fileio.read_csi_frame") == len(frames)
    assert names.count("radio.compute_spectrum") == len(frames)
    assert names.count("radio.pick_peaks") == len(frames)
    assert names.count("radio.fuse_axes") == 5
    # The first chunk is computed before the last frame is read.
    last_read = max(i for i, name in enumerate(names) if name == "fileio.read_csi_frame")
    assert names.index("radio.compute_spectrum") < last_read
    assert tracer.violations == []
    assert tracer.nesting_errors() == []
    estimates = fileio.load_json(tmp_path / "estimates.json")["images"]
    assert len(estimates) == 5


# The input flag a method does not read; the method1 variants read both.
UNREAD = {"baseline": "--regions", "method2": "--detections", "method2+cnms": "--detections"}


def _inputs(tmp_path) -> dict[str, str]:
    """A tiny world's three input files, by the ``run`` flag that names each."""
    out = str(tmp_path)
    assert main(["synth", "--num-images", "8", "--seed", "3", "--output-dir", out]) == 0
    assert main(["simulate-regions", "--seed", "3", "--annotations",
                 str(tmp_path / "annotations.json"), "--output-dir", out]) == 0
    return {f"--{name}": str(tmp_path / f"{name}.json")
            for name in ("annotations", "detections", "regions")}


def _run(flags: dict[str, str], out, *methods: str) -> int:
    argv = [arg for flag, path in flags.items() for arg in (flag, path)]
    return main(["run", "--method", *methods, *argv, "--seed", "3", "--output-dir", str(out)])


def _outputs(out, method: str) -> tuple:
    """A method's written files: detections and curve bytes, and the report
    without ``runtime_s``, its one field that is not byte-stable."""
    tag = method.replace("+", "_")
    report = json.loads((out / f"report_{tag}.json").read_text(encoding="utf-8"))
    report["metrics"].pop("runtime_s")
    return ((out / f"detections_{tag}.json").read_bytes(),
            (out / f"mr_fppi_{tag}.csv").read_bytes(), report)


def test_a_call_opens_only_the_inputs_its_methods_read(tmp_path, tracing):
    """Given all three files, baseline opens no regions file and the method2
    variants no detections file; a call of several methods opens each file
    once, a noise sweep simulates its regions and a lambda sweep reads the
    regions file once."""
    flags, out = _inputs(tmp_path), tmp_path / "out"
    config = tmp_path / "config.json"
    RunConfig(paths=RunPaths(regions=flags["--regions"])).save(config)
    tracer = tracing.Tracer()

    def opened(first):
        """Annotation, detection and region files read, then region sets
        simulated, since span ``first``."""
        names = [span.name for span in tracer.spans[first:]]
        return (*(names.count(f"fileio.read_{name}")
                  for name in ("annotations", "detections", "regions")),
                names.count("sim_regions.build_simulative_set"))

    with tracing.installed(tracer):
        for method in METHODS:
            first = len(tracer.spans)
            assert _run(flags, out, method) == 0
            unread = UNREAD.get(method)
            assert opened(first) == (1, unread != "--detections", unread != "--regions", 0), method
        first = len(tracer.spans)
        assert _run(flags, out, *METHODS) == 0
        assert opened(first) == (1, 1, 1, 0)
        sweep = ["sweep", "--config", str(config), "--method", "method1+cnms",
                 "--annotations", flags["--annotations"], "--detections", flags["--detections"],
                 "--values", "0.05", "0.4", "--output-dir", str(out)]
        for param, expected in (("k", (1, 1, 0, 2)), ("lambda", (1, 1, 1, 0))):
            first = len(tracer.spans)
            assert main([*sweep, "--param", param]) == 0
            assert opened(first) == expected, param

    assert tracer.violations == []
    assert tracer.nesting_errors() == []


@pytest.mark.parametrize("method", sorted(UNREAD))
def test_an_unread_input_changes_no_output(tmp_path, method):
    """A method's outputs are the same with its unread flag, without it, and
    with it naming a file that is not JSON or is not there."""
    flags = _inputs(tmp_path)
    unread = UNREAD[method]
    (tmp_path / "bad.json").write_text("{not json", encoding="utf-8")
    variants = {
        "given": flags,
        "left out": {flag: path for flag, path in flags.items() if flag != unread},
        "malformed": {**flags, unread: str(tmp_path / "bad.json")},
        "absent": {**flags, unread: str(tmp_path / "absent.json")},
    }
    outputs = {}
    for name, given in variants.items():
        assert _run(given, tmp_path / name, method) == 0, name
        outputs[name] = _outputs(tmp_path / name, method)
    assert all(files == outputs["given"] for files in outputs.values())


@pytest.mark.parametrize("given", ["annotations", "all"])
def test_one_call_of_every_method_writes_what_each_methods_own_call_writes(tmp_path, given):
    """Whether the inputs are read, or emulated and simulated from the
    annotations, one multi-method call equals the single-method calls."""
    flags = _inputs(tmp_path)
    if given == "annotations":
        flags = {"--annotations": flags["--annotations"]}
    assert _run(flags, tmp_path / "together", *METHODS) == 0
    for method in METHODS:
        assert _run(flags, tmp_path / "alone", method) == 0
        assert _outputs(tmp_path / "together", method) == _outputs(tmp_path / "alone", method)


def test_a_repeated_method_exits_2_before_writing(tmp_path, capsys):
    flags = _inputs(tmp_path)
    capsys.readouterr()
    assert _run(flags, tmp_path / "out", "method1", "baseline", "method1") == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "out").exists()
