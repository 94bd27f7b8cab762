"""Self-test of the benchmark's tracing and of BENCHMARK.json's metric list.

    python3 perfbench/selftest.py [--seed 7]

For each workload, two traced runs on one seed must print identical work
counts (every per-layer metric except the time shares and the tracing
overhead), both must pass run.py's own checks (traced outputs equal to
untraced ones; every layer the workload exercises recorded calls), and
the metric names and units must be the ones BENCHMARK.json lists.  One
untraced run per workload checks the end-to-end names the same way.
Exits non-zero on any mismatch.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIMED = {"%"}                     # units of time shares, which may differ
NOT_COUNTS = {"trace.overhead"}   # a time ratio


def run(workload: str, seed: int, trace: int, seconds: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)], cwd=ROOT, capture_output=True, text=True, check=True,
        timeout=600)
    return json.loads(done.stdout.strip().splitlines()[-1])


def units(out: dict) -> dict:
    return {name: m["unit"] for name, m in out["metrics"].items()}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        first = run(workload, args.seed, 1, spec["run_seconds"])
        second = run(workload, args.seed, 1, spec["run_seconds"])
        plain = run(workload, args.seed, 0, 2)
        for label, out, trace in (("traced", first, 1), ("traced", second, 1),
                                  ("untraced", plain, 0)):
            if not out["correct"] or out["failed"]:
                problems.append(f"{workload}: {label} run not correct")
            if units(out) != expected[trace]:
                problems.append(f"{workload}: {label} metric names or units "
                                "differ from BENCHMARK.json")
        for name, m in first["metrics"].items():
            if m["unit"] in TIMED or name in NOT_COUNTS:
                continue
            again = second["metrics"][name]["value"]
            if m["value"] != again:
                problems.append(f"{workload}: {name} {m['value']} then {again}")
        print(f"{workload}: counts compared over {first['attempted']} ops; "
              f"tracing overhead x{first['metrics']['trace.overhead']['value']:.3f}"
              f" and x{second['metrics']['trace.overhead']['value']:.3f}")
    for text in problems:
        print(f"FAIL {text}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
