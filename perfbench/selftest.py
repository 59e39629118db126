"""Self-test of the benchmark on tiny inputs.

    python3 perfbench/selftest.py

For every workload it checks that two runs at one seed write the same
inputs and outputs, that another seed writes other inputs, that a traced
run's outputs equal the untraced ones, and that no call fails. It checks
that every metric name is well formed and that each metric BENCHMARK.json
declares is reported. Last, it runs the benchmark in a directory holding
only BENCHMARK.json and this directory, where it must fail without a
result. Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys

import run

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def tiny(name: str, seed: int, trace: bool) -> dict:
    return run.bench(name, seed, seconds=0.0, trace=trace, size="tiny")


def bare_checkout_fails() -> str | None:
    """Run the benchmark where src/ is missing; it must exit nonzero, silently."""
    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / run.HERE.name,
                    ignore=shutil.ignore_patterns("work", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        done = subprocess.run(
            [sys.executable, f"{run.HERE.name}/run.py", "--workload", "eval-sparse",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or '"correct"' in done.stdout:
        return f"bare checkout: exit {done.returncode}, stdout {done.stdout[-200:]!r}"
    return None


def main() -> int:
    run.load_program()
    # Own work directories, so a benchmark run in progress keeps its inputs.
    run.WORK = run.WORK / "selftest"
    from workloads import WORKLOADS

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    failures = []
    for section in ("end_to_end", "per_layer"):
        for metric in spec[section]:
            if not NAME.fullmatch(metric["name"]):
                failures.append(f"BENCHMARK.json: bad metric name {metric['name']!r}")

    for name in WORKLOADS:
        first = tiny(name, 1, trace=False)
        again = tiny(name, 1, trace=False)
        other = tiny(name, 2, trace=False)
        traced = tiny(name, 1, trace=True)
        inputs = [r["environment"]["inputs_sha256"] for r in (first, again, other)]
        checks = {
            "same seed, same inputs": inputs[0] == inputs[1],
            "same seed, same outputs": first["digests"] == again["digests"],
            "other seed, other inputs": inputs[0] != inputs[2],
            "traced outputs equal untraced": traced["digests"] == first["digests"],
            "no failed call": not any(r["problems"] for r in (first, again, other, traced)),
        }
        for record, section in ((first, "end_to_end"), (traced, "per_layer")):
            reported = record["metrics"]
            checks[f"every {section} metric reported"] = all(
                m["name"] in reported for m in spec[section])
            checks[f"{section} names well formed"] = all(NAME.fullmatch(k) for k in reported)
        for check, ok in checks.items():
            print(f"{name:14s} {check:34s} {'ok' if ok else 'FAILED'}")
            if not ok:
                failures.append(f"{name}: {check}")
        for record in (first, again, other, traced):
            failures.extend(f"{name}: {p}" for p in record["problems"])

    problem = bare_checkout_fails()
    print(f"{'bare checkout':14s} {'exits nonzero without a result':34s} "
          f"{'ok' if problem is None else 'FAILED'}")
    if problem:
        failures.append(problem)
    for failure in failures:
        print(f"FAILED: {failure}")
    print("selftest " + ("failed" if failures else "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
