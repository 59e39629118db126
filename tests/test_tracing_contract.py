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

from radiofusion import fileio
from radiofusion.cli import main
from radiofusion.config import METHODS, RadioParams
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
