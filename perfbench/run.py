"""Benchmark the radiofusion CLI in-process on seeded inputs.

    python3 perfbench/run.py --workload eval-sparse --seed 1234 --seconds 30 --trace 0

One client keeps one CLI call in flight (a closed loop): each round runs
the workload's calls through ``radiofusion.cli.main(argv)`` one after the
other, for ``--seconds`` seconds. Every call's outputs are digested
(without ``runtime_s``) and checked; at the default seed the digests must
equal ``golden.json``, at any seed every round must reproduce the first.
A call fails on a nonzero exit, an exception, a digest mismatch, a failed
output check or, when traced, a broken counter invariant.

Each timed step is bracketed by calibration probes and also reported at
reference host speed (calibrate.py), which is what ``BENCHMARK.json``
gates. ``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced rounds and reports per-layer metrics from the traced
ones (see tracing.py). ``--workload all`` runs every workload in turn.
The last line of standard output is one JSON object: correct, attempted,
failed and metrics. Inputs, outputs, spans and a result record with the
environment go to ``perfbench/work/<workload>/``.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "work"
GOLDEN = HERE / "golden.json"
DEFAULT_SEED = 1234
SETUPS = 5
MIN_ROUNDS = 2


def load_program() -> None:
    """Put the checkout's ``src`` first on the path; exit if it is missing."""
    # One BLAS thread, set before numpy loads: a call's time is not set by
    # thread contention on a small shared machine, and BLAS sums do not
    # depend on the thread count.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    package = ROOT / "src" / "radiofusion"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: {package} not found; run from the root of a radiofusion checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import radiofusion

    if Path(radiofusion.__file__).resolve().parent != package.resolve():
        sys.exit(f"error: imported radiofusion from {radiofusion.__file__}, not {package}")


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int, inputs) -> dict:
    import numpy
    import radiofusion

    return {
        "radiofusion": radiofusion.__version__,
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "seed": seed,
        "inputs_sha256": inputs.sha256s(),
    }


def golden_digests(name: str, seed: int, size: str) -> dict[str, str]:
    if seed != DEFAULT_SEED or size != "full" or not GOLDEN.is_file():
        return {}
    return dict(json.loads(GOLDEN.read_text())["digests"].get(name, {}))


class Runner:
    """Runs the rounds of one workload and keeps their samples and failures."""

    def __init__(self, calls, reference: dict[str, str]) -> None:
        self.calls = calls
        self.reference = reference
        self.attempted = 0
        self.problems: list[str] = []

    def round(self, tracer=None) -> tuple[dict[str, float], dict[str, float]]:
        """One pass over the workload's calls.

        Returns each call's wall time and its time scaled to the reference
        host speed by the calibration probes before and after it.
        """
        from calibrate import probe, scaled
        from radiofusion import cli

        gc.collect()
        walls, scaled_walls = {}, {}
        before = probe()
        for call in self.calls:
            self.attempted += 1
            violations = len(tracer.violations) if tracer else 0
            if tracer:
                tracer.call = self.attempted
            start = time.perf_counter()
            span = tracer.open(f"cli.{call.argv[0]}") if tracer else None
            printed = io.StringIO()
            try:
                with redirect_stdout(printed), redirect_stderr(printed):
                    rc = cli.main(call.argv)
            except (Exception, SystemExit) as exc:  # a failed call, not a failed benchmark
                rc = f"{type(exc).__name__}: {exc}"
            finally:
                if span:
                    tracer.close(span)
            walls[call.name] = time.perf_counter() - start
            after = probe()
            scaled_walls[call.name] = scaled(walls[call.name], before, after)
            before = after
            problem = self._verify(call, rc, printed.getvalue())
            if problem is None and tracer and len(tracer.violations) > violations:
                new = tracer.violations[violations:]
                problem = "; ".join(new[:3]) + (f" (+{len(new) - 3} more)" if len(new) > 3 else "")
            if problem:
                self.problems.append(f"call {self.attempted} {call.name}: {problem}")
        return walls, scaled_walls

    def _verify(self, call, rc, printed: str) -> str | None:
        if rc != 0:
            return f"exit {rc}: {printed.strip()[-200:]}"
        digest = call.digest()
        expected = self.reference.setdefault(call.name, digest)
        if digest != expected:
            return f"output digest {digest[:12]} != reference {expected[:12]}"
        return call.check(call.outputs)


def bench(name: str, seed: int, seconds: float, trace: bool, size: str = "full") -> dict:
    """Set up one workload, measure it and return its result record."""
    import tracing
    from calibrate import probe, scaled
    from workloads import WORKLOADS

    workload = WORKLOADS[name](WORK / name, seed, size)
    workload.reset()
    for _ in range(3):
        probe()  # warm the probe itself
    setup_s, setup_scaled, generate_s = [], [], []
    for _ in range(SETUPS):
        before = probe()
        start = time.perf_counter()
        inputs, generated = workload.setup()
        setup_s.append(time.perf_counter() - start)
        setup_scaled.append(scaled(setup_s[-1], before, probe()))
        generate_s.append(generated)

    runner = Runner(workload.calls(inputs), golden_digests(name, seed, size))
    runner.round()  # warm-up: checked like every round, not timed
    tracer = tracing.Tracer()
    plain, traced, layers = [], [], []
    deadline = time.perf_counter() + seconds
    min_rounds = 2 * MIN_ROUNDS if trace else MIN_ROUNDS
    while time.perf_counter() < deadline or len(plain) + len(traced) < min_rounds:
        # Untraced and traced rounds in the order U T T U, so neither side
        # always runs first.
        if trace and (len(plain) + len(traced)) % 4 in (1, 2):
            first = len(tracer.spans)
            tracer.counts = {}
            with tracing.installed(tracer):
                traced.append(runner.round(tracer))
            layers.append(tracing.layer_metrics(tracer.spans[first:], tracer.counts))
        else:
            plain.append(runner.round())

    problems = runner.problems + tracer.nesting_errors()
    plain_s = [sum(walls.values()) for walls, _ in plain]
    plain_scaled = [sum(scaled_walls.values()) for _, scaled_walls in plain]
    traced_scaled = [sum(scaled_walls.values()) for _, scaled_walls in traced]
    items = inputs.items_per_round
    metrics = {}
    if trace:
        units = declared_metrics(trace=True)
        for key in layers[0]:
            metrics[key] = (statistics.median(r[key] for r in layers), units[key], len(layers))
        metrics["synth.generate_s"] = (statistics.median(generate_s), "s", SETUPS)
        metrics["trace_overhead_ratio"] = (
            statistics.median(traced_scaled) / statistics.median(plain_scaled), "ratio",
            len(traced))
        tracer.write(workload.work / "spans.jsonl")
    else:
        metrics["norm_items_per_s"] = (statistics.median(items / t for t in plain_scaled),
                                       "1/s", len(plain))
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                                  "MB", 1)
        metrics["setup_s"] = (statistics.median(setup_scaled), "s", SETUPS)
        # Raw wall-clock figures, as a user of this host saw them.
        metrics["items_per_s"] = (statistics.median(items / t for t in plain_s),
                                  f"{workload.unit}s/s", len(plain))
        metrics["setup_raw_s"] = (statistics.median(setup_s), "s", SETUPS)
        for call in plain[0][0]:
            metrics[f"{call}_s"] = (statistics.median(w[call] for w, _ in plain), "s",
                                    len(plain))
        metrics["failed_ratio"] = (len(runner.problems) / runner.attempted, "ratio",
                                   runner.attempted)
    record = {
        "workload": name,
        "trace": int(trace),
        "environment": environment(seed, inputs),
        "attempted": runner.attempted,
        "failed": len(runner.problems),
        "problems": problems,
        "digests": runner.reference,
        "metrics": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in metrics.items()},
    }
    (workload.work / "result.json").write_text(json.dumps(record, indent=1) + "\n")
    return record


def declared_metrics(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def print_record(record: dict) -> None:
    print(f"workload {record['workload']} trace {record['trace']}: "
          f"{record['attempted']} calls, {record['failed']} failed")
    for name, m in record["metrics"].items():
        note = " (computed from array sizes)" if name == "radio.spectrum_cmacs" else ""
        print(f"  {name:28s} {m['value']:14.6g} {m['unit']:10s} n={m['samples']}{note}")
    for problem in record["problems"][:20]:
        print(f"  problem: {problem}")
    print("  env " + json.dumps(record["environment"], sort_keys=True))


def summary(records: list[dict], trace: bool) -> dict:
    """The final result line; metrics are the ones BENCHMARK.json declares."""
    declared = declared_metrics(trace)
    metrics = {}
    for record in records:
        prefix = f"{record['workload']}." if len(records) > 1 else ""
        for name, unit in declared.items():
            metrics[prefix + name] = {"value": record["metrics"][name]["value"], "unit": unit}
    return {
        "correct": not any(r["problems"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }


def record_golden() -> None:
    """Write golden.json: one round of every workload at the default seed."""
    from workloads import WORKLOADS

    digests = {}
    for name, cls in WORKLOADS.items():
        workload = cls(WORK / name, DEFAULT_SEED)
        workload.reset()
        inputs, _ = workload.setup()
        runner = Runner(workload.calls(inputs), {})
        runner.round()
        if runner.problems:
            sys.exit("error: " + "; ".join(runner.problems))
        digests[name] = runner.reference
    GOLDEN.write_text(json.dumps({"seed": DEFAULT_SEED, "digests": digests},
                                 indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true",
                        help="rewrite golden.json from the current program and exit")
    args = parser.parse_args(argv)
    load_program()
    if args.record_golden:
        record_golden()
        return 0
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if not set(names) <= set(WORKLOADS):
        parser.error(f"--workload must be one of {sorted(WORKLOADS)} or all")
    records = []
    for name in names:
        record = bench(name, args.seed, args.seconds, bool(args.trace))
        print_record(record)
        records.append(record)
    print(json.dumps(summary(records, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
