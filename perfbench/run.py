"""Benchmark of cmospath: one seeded workload per run, one JSON line out.

    python3 perfbench/run.py --workload short-mix --seed 1 --seconds 30 --trace 0

Runs from the root of a cmospath checkout and imports the package from
its ``src``.  One client, closed loop, no threads: each op is one public
call, timed alone, and every output is checked (see check.py) before the
next op starts.  A fixed pure-Python reference slice runs between ops so
latencies can also be read in units of machine speed.

--trace 0  measures for --seconds and prints the end-to-end metrics.
--trace 1  runs a fixed number of ops, each once plain and once with
           spans around every public cmospath function, and prints the
           per-layer metrics.  Spans are written to .perfbench/.

The last line of standard output is the JSON result; lines before it
starting with '#' are context (op counts, tail percentile, reference
slice speed, raw per-layer seconds).
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import check
import refslice
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_LAUNCHES = 15
MAX_REPORTED_FAILURES = 3


def load_package():
    """cmospath and cmospath.cli from this checkout's src, nowhere else."""
    src = ROOT / "src"
    if not (src / "cmospath" / "__init__.py").is_file() \
            or not (ROOT / "fixtures" / "ref.proc").is_file():
        raise SystemExit(f"perfbench: no cmospath source tree or fixtures "
                         f"under {ROOT}")
    sys.path.insert(0, str(src))
    import cmospath
    import cmospath.cli
    if Path(cmospath.__file__).resolve().parent != src / "cmospath":
        raise SystemExit(f"perfbench: imported cmospath from "
                         f"{cmospath.__file__}, not from {src}")
    return cmospath, cmospath.cli


def measure_setup_s() -> tuple[float, float]:
    """Set-up time over fresh interpreters, after one warm-up launch.

    Returns the median of set-up time over the reference slice timed in
    the same launch, scaled by refslice.NOMINAL_S, and the raw median.
    """
    cmd = [sys.executable, "-I", str(HERE / "setup_probe.py"), str(ROOT)]
    raw = []
    relative = []
    for launch in range(SETUP_LAUNCHES + 1):
        done = subprocess.run(cmd, capture_output=True, text=True, check=True,
                              timeout=60)
        if launch:
            elapsed, slice_s = (float(x) for x in done.stdout.split())
            raw.append(elapsed)
            relative.append(elapsed / slice_s)
    return (statistics.median(relative) * refslice.NOMINAL_S,
            statistics.median(raw))


def run_op(op, infeasible_cls):
    """Time one op, then check it: (seconds, Outcome or None, error text)."""
    start = time.perf_counter()
    try:
        value = op.call()
    except infeasible_cls as exc:
        value = exc
    except Exception:  # any other failure counts against the run
        return time.perf_counter() - start, None, \
            f"{op.label}: {traceback.format_exc()}"
    elapsed = time.perf_counter() - start
    try:
        return elapsed, op.check(value), None
    except Exception:  # a failed check, whatever raised it
        return elapsed, None, f"{op.label}: {traceback.format_exc()}"


class Slices:
    """Reference slice timings, one before the first op and one after each."""

    def __init__(self):
        self.expected = refslice.reference_slice()
        self.seconds: list[float] = []

    def run(self) -> None:
        start = time.perf_counter()
        value = refslice.reference_slice()
        self.seconds.append(time.perf_counter() - start)
        if value != self.expected:
            raise SystemExit("perfbench: reference slice result changed")

    def around(self, i: int) -> float:
        """Mean of the slices just before and after op i.

        Machine speed here wanders within a second; the adjacent slices
        tracked it best among the windows tried (1 to 10 per side).
        """
        return (self.seconds[i] + self.seconds[i + 1]) / 2.0


def percentile(values, p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def report(failures: list[str]) -> None:
    for text in failures[:MAX_REPORTED_FAILURES]:
        print(f"perfbench: failed op: {text}", file=sys.stderr)


def timed_run(name: str, seed: int, seconds: float, env) -> dict:
    setup_s, setup_raw_s = measure_setup_s()
    ops = workloads.ops(name, seed, env)
    slices = Slices()
    slices.run()
    latencies: list[float] = []
    failures: list[str] = []
    infeasible = over_tc = 0
    log_area = 0.0
    n_area = 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        op = next(ops)
        elapsed, outcome, error = run_op(op, env.cp.InfeasibleError)
        latencies.append(elapsed)
        slices.run()
        if error is not None:
            failures.append(error)
            continue
        infeasible += outcome.infeasible
        over_tc += outcome.over_tc
        log_area += sum(math.log(a) for a in outcome.areas)
        n_area += len(outcome.areas)
    report(failures)

    attempted = len(latencies)
    succeeded = attempted - len(failures)
    tail_p = workloads.TAIL_PERCENTILE[name]
    relative = [t / slices.around(i) for i, t in enumerate(latencies)]
    ms = [t * 1e3 for t in latencies]
    beyond = sum(1 for t in ms if t > percentile(ms, tail_p))
    print(f"# {name} seed={seed}: {attempted} ops, {len(failures)} failed, "
          f"{infeasible} infeasible, {over_tc} over tc; tail p{tail_p} has "
          f"{beyond} ops beyond it")
    print(f"# raw wall time (machine context, not metrics): "
          f"{succeeded / sum(latencies):.4f} ops/s, op p50 "
          f"{statistics.median(ms):.4f} ms, op p{tail_p} "
          f"{percentile(ms, tail_p):.4f} ms, set-up {setup_raw_s:.5f} s, "
          f"reference slice median {statistics.median(slices.seconds) * 1e3:.4f}"
          f" ms over {len(slices.seconds)} runs")
    metrics = {
        "op_ref_p50": (statistics.median(relative), "ref"),
        "op_ref_tail": (percentile(relative, tail_p), "ref"),
        "op_ref_mean": (statistics.fmean(relative), "ref"),
        "area_geomean_um": (math.exp(log_area / n_area) if n_area else 0.0,
                            "um"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }
    return result(not failures, attempted, len(failures), metrics)


def traced_run(name: str, seed: int, env) -> dict:
    ops = workloads.ops(name, seed, env)
    tracer = tracing.Tracer()
    failures: list[str] = []
    outcomes = []
    plain_s = traced_s = 0.0
    for k in range(workloads.TRACE_OPS[name]):
        op = next(ops)
        p_elapsed, p_outcome, p_error = run_op(op, env.cp.InfeasibleError)
        tracer.op_id = k
        tracer.install(env.cp)
        try:
            t_elapsed, t_outcome, t_error = run_op(op, env.cp.InfeasibleError)
        finally:
            tracer.uninstall()
        plain_s += p_elapsed
        traced_s += t_elapsed
        if p_error or t_error:
            failures.append(p_error or t_error)
        elif p_outcome.digest != t_outcome.digest:
            failures.append(f"{op.label}: traced output differs from untraced")
        else:
            outcomes.append(p_outcome)
    report(failures)
    for span in workloads.REQUIRED_SPANS[name]:
        if not tracer.calls[span]:
            failures.append(f"no calls recorded at {span}")
            print(f"perfbench: no calls recorded at {span}", file=sys.stderr)

    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    trace_file = out_dir / f"trace-{name}.txt.gz"
    tracer.write(trace_file)
    layer_s = tracer.layer_self_s()
    print(f"# {name} seed={seed}: {len(outcomes)} ops ok of "
          f"{workloads.TRACE_OPS[name]}; untraced {plain_s:.4f} s, traced "
          f"{traced_s:.4f} s, overhead x{traced_s / plain_s:.3f}; "
          f"{len(tracer.span_start)} spans in {trace_file.relative_to(ROOT)}")
    print("# self seconds by layer (traced): " + ", ".join(
        f"{layer}={s:.4f}" for layer, s in sorted(layer_s.items())))
    metrics = layer_metrics(tracer, outcomes, traced_s, plain_s)
    return result(not failures, workloads.TRACE_OPS[name], len(failures),
                  metrics)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer, outcomes, traced_s: float, plain_s: float) -> dict:
    """Per-layer counts and time shares (percent of traced op time)."""
    calls = tracer.calls
    values = tracer.values
    scope = tracer.in_scope
    layer_s = tracer.layer_self_s()

    def pct(seconds: float) -> float:
        return 100.0 * seconds / traced_s

    def count(name: str):
        return (calls[name], "count")

    solves = calls["bounds.link_fixed_point"]
    iterations = values["bounds.iterations"]
    greedy = calls["buffering.greedy"]
    trials = scope[("bounds.min_delay", "buffering.greedy")] - greedy
    accepted = values["buffering.greedy.accepted"]
    n_ok = len(outcomes)
    successes = [o for o in outcomes if not o.infeasible]
    return {
        "process.load.calls": count("process.load"),
        "process.load.pct": (pct(tracer.total_s["process.load"]), "%"),
        "cli.main.calls": count("cli.main"),
        "cli.main.self_pct": (pct(tracer.self_s["cli.main"]), "%"),
        "path.models_built": count("path.model"),
        "path.evaluate.calls": count("path.evaluate"),
        "path.evaluate.gates": (values["path.evaluate.gates"], "count"),
        "path.evaluate.pct": (pct(tracer.total_s["path.evaluate"]), "%"),
        "path.coefficients.calls": count("path.coefficients"),
        "path.coefficients.pct": (pct(tracer.total_s["path.coefficients"]), "%"),
        "path.model_gradient.calls": count("path.model_gradient"),
        "path.model_gradient.pct": (pct(tracer.total_s["path.model_gradient"]), "%"),
        "path.model_curvature.calls": count("path.model_curvature"),
        "path.model_curvature.pct": (pct(tracer.total_s["path.model_curvature"]), "%"),
        "path.self_pct": (pct(layer_s["path"]), "%"),
        "bounds.solves": (solves, "count"),
        "bounds.iterations": (iterations, "count"),
        "bounds.iters_per_solve": (_ratio(iterations, solves), "ratio"),
        "bounds.evals_per_iteration": (_ratio(
            scope[("path.evaluate", "bounds.link_fixed_point")] - solves,
            iterations), "ratio"),
        "bounds.min_delay.calls": count("bounds.min_delay"),
        "bounds.self_pct": (pct(layer_s["bounds"]), "%"),
        "sizing.distribute.calls": count("sizing.distribute"),
        "sizing.solves_per_distribute": (_ratio(
            scope[("bounds.link_fixed_point", "sizing.distribute")],
            calls["sizing.distribute"]), "ratio"),
        "sizing.distribute.pct": (pct(tracer.total_s["sizing.distribute"]), "%"),
        "sizing.sweep.calls": count("sizing.sweep"),
        "sizing.sweep.rows": (values["sizing.sweep.rows"], "count"),
        "sizing.self_pct": (pct(layer_s["sizing"]), "%"),
        "buffering.flimit.calls": count("buffering.flimit"),
        "buffering.flimit.distinct": (len(tracer.flimit_args), "count"),
        "buffering.flimit.pct": (pct(tracer.total_s["buffering.flimit"]), "%"),
        "buffering.greedy.calls": (greedy, "count"),
        "buffering.greedy.trial_resizes": (trials, "count"),
        "buffering.greedy.accepted": (accepted, "count"),
        "buffering.greedy.accept_ratio": (_ratio(accepted, trials), "ratio"),
        "buffering.greedy.pct": (pct(tracer.total_s["buffering.greedy"]), "%"),
        "buffering.self_pct": (pct(layer_s["buffering"]), "%"),
        "restructure.rank.calls": count("restructure.rank"),
        "restructure.rank.pct": (pct(tracer.total_s["restructure.rank"]), "%"),
        "restructure.rewrites": count("restructure.rewrite"),
        "restructure.equiv_checks": count("restructure.equiv"),
        "restructure.equiv.pct": (pct(tracer.total_s["restructure.equiv"]), "%"),
        "restructure.self_pct": (pct(layer_s["restructure"]), "%"),
        "protocol.optimize.calls": count("protocol.optimize"),
        "protocol.optimize.self_pct": (pct(tracer.self_s["protocol.optimize"]), "%"),
        "protocol.domain.weak": (values["protocol.domain.weak"], "count"),
        "protocol.domain.medium": (values["protocol.domain.medium"], "count"),
        "protocol.domain.hard": (values["protocol.domain.hard"], "count"),
        "protocol.domain.infeasible": (values["protocol.domain.infeasible"], "count"),
        "protocol.route.restruct": (values["protocol.route.restruct"], "count"),
        "protocol.route.buffer": (values["protocol.route.buffer"], "count"),
        "protocol.infeasible_share": (_ratio(n_ok - len(successes), n_ok), "ratio"),
        "protocol.over_tc_share": (_ratio(sum(o.over_tc for o in successes),
                                          len(successes)), "ratio"),
        "trace.overhead": (traced_s / plain_s, "ratio"),
        "trace.spans": (len(tracer.span_start), "count"),
    }


def result(correct: bool, attempted: int, failed: int, metrics: dict) -> dict:
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    package, cli = load_package()
    env = workloads.Env(package, cli, ROOT)
    if args.trace:
        out = traced_run(args.workload, args.seed, env)
    else:
        out = timed_run(args.workload, args.seed, args.seconds, env)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
