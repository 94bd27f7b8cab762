"""Differential check of optimize between this checkout and another one.

Runs optimize on the same seeded random paths under two source trees,
each in its own interpreter, and compares the results case by case:

* structural differences: result kind, domain, final gates, the
  structural trace steps (buffer insertions, rewrites, route choices)
  and notes;
* infeasible flips: a case one tree solves and the other reports
  infeasible;
* area changes: both trees solve the case but their areas differ by more
  than 1e-9 relative, with or without a structural difference;
* min-delay steps and passes: the Newton steps and the derivative
  passes of the cold min-delay solve of the case's path
  (bounds.link_fixed_point at a = 0, as min_delay_sizing runs it), each
  change listed and each tree's totals printed, so an engine refactor
  shows the same iterations and passes as well as the same outputs;
* greedy t_min: min_delay_with_buffers on the case's path in its buffer
  mode, counted per mode as lower, higher or equal (1e-9 relative),
  each change listed;
* infeasible t_min: the minimum delay InfeasibleError reports in the
  cases both trees raise on, counted as lower, higher or equal (1e-9
  relative), each change listed;
* sweep rows: sweep on the case's path over the CLI's 24-point ladder
  (23 geometric values from -100 t_min / cref down to 1e-5 of that, then
  a = 0), each row or row failure compared by its repr, so a row that
  differs by any bit counts, and each one is listed;
* coupled distribute: distribute_constraint on the case's gates, with
  an input cap of 2-10 fF and a load of 2-500 fF, under a random
  coupled library (each kind's par_coeff drawn from 0-2.5 and its
  cm_override_ff from None or 1-1000 fF), at 1.01, 1.5 and 3 times its
  t_min there, each result or failure compared by its repr and each
  difference listed, with the largest relative drift of the numbers (a,
  delay, area and sizes) of the results that differ in nothing else; a
  difference in anything else, or a drift above 1e-9 relative, is a
  change.  On ref.proc alone the bordered Newton of distribute_constraint
  never takes a corrector step at fixed a; with these libraries a few
  calls do;
* coupled optimize: optimize on the same gates and endpoints under the
  same coupled library, at the case's ratio of its t_min there and in
  its buffer mode, counted by the area of the cases both trees solve as
  lower, higher or equal (1e-9 relative), and each case one tree solves
  and the other reports infeasible as a flip, each change listed;
* equal-delay flips: equal_delay_distribution on the case's path at
  1.05, 1.5 and 3 times its t_min, each call one tree solves and the
  other raises on listed, and the largest relative drift of the sizes
  where both solve;
* the largest relative numeric drift over every number of the cases
  whose structure agrees (sizes, delays, areas, a values, trace values);
* fanout limits: fanout_limits on ref.proc for each buffer kind of
  FANOUT_BUFFERS, each limit compared by its repr and each difference
  listed.

Paths draw their gate kinds from fixtures/ref.proc, input cap 2-8 fF, a
log-uniform load of 100-2000 fF, a random input edge, driver slopes of
0-50 ps and a random buffer polarity mode; tc cycles through ratios of
each tree's own t_min that cover its infeasible, hard, medium and weak
domains.  Both trees read this checkout's ref.proc.  Run from the
repository root, e.g.

    python3 scripts/diff_optimize.py ../parent/src --seed 1 --count 1000
    python3 scripts/diff_optimize.py ../parent/src --count 100 \
        --gates 100 130

The other tree's src/ comes first; "-" lines are its results, "+" lines
this tree's.  Exits 1 when any structural difference, infeasible flip,
area change, sweep row difference or coupled distribute difference is
found, any coupled distribute change, coupled optimize area change or
flip, any equal-delay flip, or any fanout limit difference, 0 otherwise;
min-delay step and pass changes, greedy and infeasible t_min changes and
the coupled-distribute and equal-delay drifts are reported but leave the
exit status alone.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import math
import os
import random
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PROC = os.path.join(ROOT, "fixtures", "ref.proc")
RATIOS = (0.8, 0.9, 0.97, 1.02, 1.1, 1.2, 1.5, 2.0, 2.5, 3.5)
RTOL = 1e-9
SWEEP_POINTS = 24
COUPLED_RATIOS = (1.01, 1.5, 3.0)
EQUAL_DELAY_RATIOS = (1.05, 1.5, 3.0)
FANOUT_BUFFERS = ("inv", "nand2")


def cases(seed: int, count: int, gates: tuple[int, int], kinds):
    """The seeded case list, as plain data both trees can rebuild."""
    rng = random.Random(seed)
    for index in range(count):
        yield {
            "gates": [rng.choice(kinds)
                      for _ in range(rng.randint(*gates))],
            "input_cap": rng.uniform(2.0, 8.0),
            "terminal_load": math.exp(rng.uniform(math.log(100.0),
                                                  math.log(2000.0))),
            "input_edge": rng.choice(("rising", "falling")),
            "driver_slope_rise": rng.uniform(0.0, 50.0),
            "driver_slope_fall": rng.uniform(0.0, 50.0),
            "buffer_mode": rng.choice(("pair", "single")),
            "ratio": RATIOS[index % len(RATIOS)],
        }


def _trace(trace):
    """Structural fields of each trace step, and its numbers by name."""
    steps, numbers = [], {}
    for k, step in enumerate(trace):
        fields = []
        for key, value in step.data.items():
            if isinstance(value, float):
                numbers[f"trace[{k}].{key}"] = value
            else:
                fields.append(f"{key}={value}")
        steps.append(" ".join([step.kind, *fields]))
    return steps, numbers


def ladder(t_min: float, cref: float) -> list[float]:
    """The CLI sweep's default a values for a path with minimum delay
    t_min."""
    a_deep = -100.0 * t_min / cref
    ratio = 1e-5 ** (1.0 / (SWEEP_POINTS - 2))
    return [a_deep * ratio ** k for k in range(SWEEP_POINTS - 1)] + [0.0]


def sweep_rows(path, t_min: float, params, library) -> list[str]:
    """Each ladder point's sweep row or failure, as its repr, by a."""
    from cmospath import sweep

    values = ladder(t_min, params.cref)
    rows, failures = sweep(path, values, params, library)
    by_a = {row.a_value: repr(row) for row in rows}
    by_a.update((a, f"a={a!r} failed: {exc!r}") for a, exc in failures)
    return [by_a[a] for a in sorted(values)]


def coupled_runs(path, spec: dict, seed: int, index: int, params,
                 library) -> tuple[list[dict], dict]:
    """distribute_constraint and optimize on path's gates under case
    index's coupled library and endpoints.  distribute_constraint runs
    at each of COUPLED_RATIOS times the t_min there: each result's repr,
    note and numbers (a, delay, area, sizes), or each failure's repr
    alone.  optimize runs at the case's ratio of that t_min, in its
    buffer mode: its result ("ok", "infeasible" or the failure's repr)
    and, when it solves, its area."""
    from cmospath import (InfeasibleError, compute_bounds,
                          distribute_constraint, optimize)

    rng = random.Random(1_000_003 * seed + index)
    coupled = {kind: dataclasses.replace(
        t, par_coeff=rng.uniform(0.0, 2.5),
        cm_override=rng.choice((None, rng.uniform(1.0, 1000.0))))
        for kind, t in library.items()}
    path = dataclasses.replace(path, input_cap=rng.uniform(2.0, 10.0),
                               terminal_load=rng.uniform(2.0, 500.0))
    try:
        bounds = compute_bounds(path, params, coupled)
    except Exception as exc:  # reported, not raised: it is a result
        failed = f"bounds failed: {exc!r}"
        return [{"repr": failed}] * len(COUPLED_RATIOS), {"result": failed}
    out = []
    for ratio in COUPLED_RATIOS:
        try:
            sol = distribute_constraint(path, ratio * bounds.t_min, params,
                                        coupled, bounds=bounds)
        except Exception as exc:
            out.append({"repr": f"ratio={ratio} failed: {exc!r}"})
        else:
            out.append({"repr": repr(sol), "note": sol.note,
                        "numbers": [sol.a_value, sol.delay, sol.area,
                                    *sol.sizing]})
    try:
        result = optimize(path, spec["ratio"] * bounds.t_min, params,
                          coupled, buffer_mode=spec["buffer_mode"])
    except InfeasibleError:
        return out, {"result": "infeasible"}
    except Exception as exc:
        return out, {"result": repr(exc)}
    return out, {"result": "ok", "area": result.area}


def equal_delay(path, t_min: float, params, library) -> list:
    """equal_delay_distribution on path at each of EQUAL_DELAY_RATIOS
    times t_min: its sizes, or its failure as a string."""
    from cmospath import equal_delay_distribution

    out = []
    for ratio in EQUAL_DELAY_RATIOS:
        try:
            out.append(list(equal_delay_distribution(
                path, ratio * t_min, params, library)))
        except Exception as exc:  # reported, not raised: it is a result
            out.append(f"ratio={ratio} failed: {exc!r}")
    return out


def worker(argv) -> int:
    """Solve every case under the tree on PYTHONPATH; one JSON line each,
    after a first line naming the package and holding its fanout limits
    on ref.proc, by buffer kind and gate kind, each limit by its repr."""
    import cmospath
    from cmospath.bounds import link_fixed_point

    seed, count, lo, hi = argv
    params, library = cmospath.load_process_file(PROC)
    print(json.dumps({
        "package": os.path.abspath(cmospath.__file__),
        "fanout_limits": {
            buffer: {kind: repr(limit) for kind, limit in
                     cmospath.fanout_limits(params, library, buffer).items()}
            for buffer in FANOUT_BUFFERS}}))
    for index, spec in enumerate(cases(int(seed), int(count),
                                       (int(lo), int(hi)), sorted(library))):
        path = cmospath.LogicPath(
            gates=tuple(spec["gates"]), input_cap=spec["input_cap"],
            terminal_load=spec["terminal_load"],
            input_edge=spec["input_edge"],
            driver_slope_rise=spec["driver_slope_rise"],
            driver_slope_fall=spec["driver_slope_fall"])
        out = {"spec": spec, "numbers": {}}
        out["coupled"], out["coupled_optimize"] = coupled_runs(
            path, spec, int(seed), index, params, library)
        try:
            fixed = link_fixed_point(cmospath.PathModel(path, params,
                                                        library))
            t_min = fixed.pass_.total
            out["steps"], out["passes"] = fixed.steps, fixed.passes
            out["numbers"]["t_min"] = t_min
            out["sweep"] = sweep_rows(path, t_min, params, library)
            out["equal_delay"] = equal_delay(path, t_min, params, library)
            out["numbers"]["greedy_t_min"] = cmospath.min_delay_with_buffers(
                path, params, library,
                polarity_mode=spec["buffer_mode"]).t_min
            result = cmospath.optimize(path, spec["ratio"] * t_min, params,
                                       library,
                                       buffer_mode=spec["buffer_mode"])
        except cmospath.InfeasibleError as exc:
            steps, numbers = _trace(exc.trace)
            out["numbers"].update(numbers, best_t_min=exc.t_min)
            out["structure"] = {"result": "infeasible", "trace": steps,
                                "gates": list(exc.best_path.gates)}
        except Exception as exc:  # reported, not raised: it is a result
            out["structure"] = {"result": type(exc).__name__,
                                "message": str(exc)}
        else:
            steps, numbers = _trace(result.trace)
            out["numbers"].update(numbers, delay=result.achieved_delay,
                                  area=result.area, a=result.a_value)
            out["numbers"].update(
                (f"sizing[{i}]", c) for i, c in enumerate(result.sizing))
            out["structure"] = {
                "result": "ok", "domain": result.domain.kind.value,
                "gates": list(result.final_path.gates),
                "polarity_flips": result.final_path.polarity_flips,
                "trace": steps, "notes": list(result.notes)}
        print(json.dumps(out))
    return 0


def run_tree(src: str, args) -> list[dict]:
    """The records of the worker run under one source tree: its first
    line, then one per case."""
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--worker",
         str(args.seed), str(args.count), str(args.gates[0]),
         str(args.gates[1])],
        env=dict(os.environ, PYTHONPATH=os.path.abspath(src)),
        capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"worker under {src} failed:\n{done.stderr}")
    lines = [json.loads(line) for line in done.stdout.splitlines()]
    package = lines[0]["package"]
    if os.path.commonpath([package, os.path.abspath(src)]) \
            != os.path.abspath(src):
        raise SystemExit(f"worker under {src} imported {package}")
    return lines


def relative(old: float, new: float) -> float:
    if old == new:
        return 0.0
    return abs(new - old) / max(abs(old), abs(new))


def compare(label: str, what: str, old_t: float, new_t: float,
            unit: str = "ps") -> str:
    """"lower", "higher" or "equal" (RTOL relative) for a delay or an
    area, printing the change unless equal."""
    verdict = ("equal" if relative(old_t, new_t) <= RTOL
               else "lower" if new_t < old_t else "higher")
    if verdict != "equal":
        print(f"{label}: {what} {old_t:.9g} -> {new_t:.9g} {unit} "
              f"({(new_t - old_t) / old_t:+.3e})")
    return verdict


def describe(index: int, spec: dict) -> str:
    return (f"case {index} (n={len(spec['gates'])} r={spec['ratio']} "
            f"mode={spec['buffer_mode']})")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--worker"]:
        return worker(argv[1:])
    parser = argparse.ArgumentParser(
        description="compare optimize between this tree and another src/")
    parser.add_argument("other", help="the other checkout's src/ directory")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--count", type=int, default=200,
                        help="number of random paths (default 200)")
    parser.add_argument("--gates", type=int, nargs=2, default=(2, 20),
                        metavar=("LO", "HI"),
                        help="gate count range (default 2 20)")
    args = parser.parse_args(argv)
    if not 1 <= args.gates[0] <= args.gates[1]:
        parser.error("--gates needs 1 <= LO <= HI")
    this = os.path.join(ROOT, "src")
    with ThreadPoolExecutor(max_workers=2) as pool:
        (head_a, *old), (head_b, *new) = pool.map(
            lambda src: run_tree(src, args), (args.other, this))
    print(f"# diff_optimize seed={args.seed} count={args.count} "
          f"gates={args.gates[0]}-{args.gates[1]}: - {args.other}  + {this}")

    structural = flips = area_changes = rows = rows_differ = 0
    steps_differ = passes_differ = 0
    calls = calls_differ = calls_changed = 0
    coupled_areas = {"lower": 0, "higher": 0, "equal": 0}
    coupled_flips = 0
    coupled_drift = (0.0, None, None)
    equal_calls = equal_flips = 0
    equal_drift = (0.0, None, None)
    greedy = {mode: {"lower": 0, "higher": 0, "equal": 0}
              for mode in ("pair", "single")}
    infeasible = {"lower": 0, "higher": 0, "equal": 0}
    largest_area = (0.0, None)
    drift = (0.0, None, None)
    for index, (a, b) in enumerate(zip(old, new)):
        if a["spec"] != b["spec"]:
            raise SystemExit(f"case {index}: the trees generated different "
                             f"paths")
        label = describe(index, a["spec"])
        sa, sb = a["structure"], b["structure"]
        na, nb = a["numbers"], b["numbers"]
        if sa != sb:
            if {sa["result"], sb["result"]} == {"ok", "infeasible"}:
                flips += 1
                print(f"{label}: infeasible flip {sa['result']} -> "
                      f"{sb['result']}")
            else:
                structural += 1
                print(f"{label}: structure differs")
            for key in sorted(set(sa) | set(sb)):
                if sa.get(key) != sb.get(key):
                    print(f"  - {key}: {sa.get(key)}")
                    print(f"  + {key}: {sb.get(key)}")
        else:
            for name in na:
                gap = relative(na[name], nb[name])
                if gap > drift[0]:
                    drift = (gap, index, name)
        if a.get("steps") != b.get("steps"):
            steps_differ += 1
            print(f"{label}: min-delay steps {a.get('steps')} -> "
                  f"{b.get('steps')}")
        if a.get("passes") != b.get("passes"):
            passes_differ += 1
            print(f"{label}: min-delay derivative passes {a.get('passes')} "
                  f"-> {b.get('passes')}")
        if "greedy_t_min" in na and "greedy_t_min" in nb:
            verdict = compare(label, "greedy t_min", na["greedy_t_min"],
                              nb["greedy_t_min"])
            greedy[a["spec"]["buffer_mode"]][verdict] += 1
        if sa["result"] == sb["result"] == "infeasible":
            infeasible[compare(label, "infeasible t_min", na["best_t_min"],
                               nb["best_t_min"])] += 1
        sweep_a, sweep_b = a.get("sweep", []), b.get("sweep", [])
        rows += max(len(sweep_a), len(sweep_b))
        for k, (ra, rb) in enumerate(itertools.zip_longest(sweep_a,
                                                           sweep_b)):
            if ra != rb:
                rows_differ += 1
                print(f"{label}: sweep row {k} differs")
                print(f"  - {ra}")
                print(f"  + {rb}")
        calls += len(a["coupled"])
        for ratio, ra, rb in zip(COUPLED_RATIOS, a["coupled"], b["coupled"]):
            if ra["repr"] == rb["repr"]:
                continue
            calls_differ += 1
            gap = math.inf
            if ("numbers" in ra and "numbers" in rb
                    and ra["note"] == rb["note"]
                    and len(ra["numbers"]) == len(rb["numbers"])):
                gap = max(map(relative, ra["numbers"], rb["numbers"]))
                if gap > coupled_drift[0]:
                    coupled_drift = (gap, index, ratio)
            calls_changed += gap > RTOL
            print(f"{label}: coupled distribute at {ratio} t_min differs")
            print(f"  - {ra['repr']}")
            print(f"  + {rb['repr']}")
        oa, ob = a["coupled_optimize"], b["coupled_optimize"]
        if oa["result"] == ob["result"] == "ok":
            coupled_areas[compare(label, "coupled optimize area",
                                  oa["area"], ob["area"], "um")] += 1
        elif oa["result"] != ob["result"]:
            coupled_flips += "ok" in (oa["result"], ob["result"])
            print(f"{label}: coupled optimize {oa['result']} -> "
                  f"{ob['result']}")
        for ratio, ea, eb in zip(EQUAL_DELAY_RATIOS, a.get("equal_delay", []),
                                 b.get("equal_delay", [])):
            equal_calls += 1
            if isinstance(ea, str) != isinstance(eb, str):
                equal_flips += 1
                print(f"{label}: equal-delay at {ratio} t_min flips")
                print(f"  - {ea}")
                print(f"  + {eb}")
            elif not isinstance(ea, str):
                gap = max(map(relative, ea, eb))
                if gap > equal_drift[0]:
                    equal_drift = (gap, index, ratio)
        if sa["result"] == sb["result"] == "ok":
            change = (nb["area"] - na["area"]) / na["area"]
            if abs(change) > abs(largest_area[0]):
                largest_area = (change, index)
            if abs(change) > RTOL:
                area_changes += 1
                print(f"{label}: area {na['area']:.9g} -> "
                      f"{nb['area']:.9g} um ({change:+.3e})")

    print(f"# {len(old)} cases: {structural} structural differences, "
          f"{flips} infeasible flips, {area_changes} area changes")
    for what, key, differ in (("steps", "steps", steps_differ),
                              ("derivative passes", "passes", passes_differ)):
        print(f"# min-delay {what}: {len(old)} cases, {differ} differ; total "
              f"{sum(a.get(key, 0) for a in old)} -> "
              f"{sum(b.get(key, 0) for b in new)}")
    for mode, counts in greedy.items():
        print(f"# greedy t_min, {mode} mode: {counts['lower']} lower, "
              f"{counts['higher']} higher, {counts['equal']} equal")
    print(f"# infeasible t_min: {infeasible['lower']} lower, "
          f"{infeasible['higher']} higher, {infeasible['equal']} equal")
    print(f"# sweep on the {SWEEP_POINTS}-point ladder: {rows} rows, "
          f"{rows_differ} differ")
    print(f"# coupled distribute: {calls} calls, {calls_differ} differ, "
          f"{calls_changed} beyond drift; largest drift "
          f"{coupled_drift[0]:.3e} (case {coupled_drift[1]}, "
          f"{coupled_drift[2]} t_min)")
    print(f"# coupled optimize: {len(old)} calls, "
          f"{coupled_areas['lower']} lower, {coupled_areas['higher']} "
          f"higher, {coupled_areas['equal']} equal area; {coupled_flips} "
          f"infeasible flips")
    print(f"# equal-delay: {equal_calls} calls, {equal_flips} raise/solve "
          f"flips; largest size drift {equal_drift[0]:.3e} (case "
          f"{equal_drift[1]}, {equal_drift[2]} t_min)")
    limits = limits_differ = 0
    for buffer in FANOUT_BUFFERS:
        la = head_a["fanout_limits"][buffer]
        lb = head_b["fanout_limits"][buffer]
        for kind in sorted(set(la) | set(lb)):
            limits += 1
            if la.get(kind) != lb.get(kind):
                limits_differ += 1
                print(f"fanout limit of {kind} buffered by {buffer}: "
                      f"{la.get(kind)} -> {lb.get(kind)}")
    print(f"# fanout limits: {limits} limits, {limits_differ} differ")
    print(f"# largest area change {largest_area[0]:+.3e} "
          f"(case {largest_area[1]}); largest relative drift "
          f"{drift[0]:.3e} (case {drift[1]}, {drift[2]})")
    differs = (structural or flips or area_changes or rows_differ
               or calls_changed or coupled_areas["lower"]
               or coupled_areas["higher"] or coupled_flips or equal_flips
               or limits_differ)
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
