"""Every benchmark workload still writes its golden outputs.

``perfbench/run.py`` compares output digests with ``perfbench/golden.json``
only when the benchmark runs. Here one full-size round of each workload of
``perfbench/workloads.py`` runs at the golden seed in a temporary
directory, and its digests must equal the recorded ones: the
``detections_*.json``, report, curve, sweep, estimates and regions bytes
are unchanged. Nothing under ``perfbench/`` is written.
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
    digests = {}
    for call in workload.calls(inputs):
        printed = io.StringIO()
        with redirect_stdout(printed), redirect_stderr(printed):
            rc = main(call.argv)
        assert rc == 0, printed.getvalue()
        assert call.check(call.outputs) is None
        digests[call.name] = call.digest()
    assert digests == GOLDEN["digests"][name]
