"""Every benchmark workload still writes its golden outputs.

``perfbench/run.py`` compares output digests with ``perfbench/golden.json``
only when the benchmark runs. Here one full-size round of each workload of
``perfbench/workloads.py`` runs at the golden seed in a temporary
directory, and its digests must equal the recorded ones: the
``detections_*.json``, report, curve, sweep, estimates and regions bytes
are unchanged. Nothing under ``perfbench/`` is written.

The input files are pinned too. A file spelled differently parses to the
same records, so no output digest would catch a writer that changes its
bytes; ``INPUTS`` holds each workload's input digests at the golden seed.
"""

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from radiofusion.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
GOLDEN = json.loads((PERFBENCH / "golden.json").read_text(encoding="utf-8"))
INPUTS = {
    "eval-sparse": {
        "annotations.json": "558bbd4ca12d584c2f7ae2174eef1f4516abf0c754de712561a1856d99b0787e",
        "detections.json": "2b4b3dd0deb41e50fe3e83bb75ec14c40355868884265193a0bcc9106f81b6ea",
        "regions.json": "a7dec4391618a99be34948988116f3c5e1b187d0e6312dcca34680eb8d7c189c",
    },
    "crowd-sweep": {
        "annotations.json": "9184e40c529d1f577bf9be6dcc8b770d249fe2fe95758b6c7df38fe255dbbc33",
        "detections.json": "913540291873b85c79dbeedc1f101d38985f344cb558732ac374bcebeaa89c15",
    },
    "localize-csi": {
        "frames/*.json (300 files)":
            "2551830efa43f8fa15223ae287c73f57ad49fe588779c6f0c04c0ca1b080205e",
    },
}


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    yield workloads
    sys.modules.pop("workloads", None)


@pytest.mark.parametrize("name", sorted(GOLDEN["digests"]))
def test_one_round_reproduces_the_golden_digests(tmp_path, workloads, name):
    workload = workloads.WORKLOADS[name](tmp_path / name, GOLDEN["seed"])
    workload.reset()
    inputs, _ = workload.setup()
    assert inputs.sha256s() == INPUTS[name]
    digests = {}
    for call in workload.calls(inputs):
        printed = io.StringIO()
        with redirect_stdout(printed), redirect_stderr(printed):
            rc = main(call.argv)
        assert rc == 0, printed.getvalue()
        assert call.check(call.outputs) is None
        digests[call.name] = call.digest()
    assert digests == GOLDEN["digests"][name]
