"""Exact solver results on seeded random paths.

Pins the `repr` of every number the sizing engine hands back: the
minimum-delay solve (sizing, t_min, iterations), `distribute_constraint`
at three tc/t_min ratios and above the all-minimum-drive ceiling, one
`sweep` ladder and the equal-delay reference split.  The paths are 24
seeded random chains over every `ref.proc` kind and both input edges,
plus one chain on a library with a fixed 500 fF coupling capacitance,
whose exact Hessian turns indefinite on the way, so the solver steps on
its diagonally dominant fix.

Regenerate the recording only when an output change is intended:

    PYTHONPATH=src python tests/test_solver_golden.py

Before it rewrites the file, that prints the largest relative change of
any recorded number per result field and every min-delay iteration count
that changed.
"""

import json
import math
import pathlib
import random
import re

import pytest

from cmospath import (
    CmosPathError,
    DelayBounds,
    LogicPath,
    distribute_constraint,
    equal_delay_distribution,
    load_process_config,
    max_delay_sizing,
    min_delay_sizing,
    sweep,
)

ROOT = pathlib.Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden" / "solver.json"
REF_PROC = ROOT / "fixtures" / "ref.proc"

KINDS = ("inv", "nand2", "nand3", "nor2", "nor3")
COUPLED_GATES = ("inv", "nand2", "nor2", "inv", "nand3", "inv", "nor3",
                 "nand2", "inv", "inv", "nand2", "inv")
TC_RATIOS = (1.05, 1.5, 3.0)
SWEEP_POINTS = 9


def _configs():
    text = REF_PROC.read_text(encoding="utf-8")
    coupled = []
    for line in text.splitlines():
        coupled.append(line)
        if line.startswith("inputs ="):
            coupled.append("cm_override_ff = 500")
    return {"ref": load_process_config(text),
            "coupled": load_process_config("\n".join(coupled) + "\n")}


def _paths() -> list[tuple[str, str, LogicPath]]:
    """(case id, config name, path) for every recorded case."""
    rng = random.Random(2024)
    out = []
    for k in range(24):
        n = rng.randint(2, 40)
        # every kind and both edges appear in the first ten cases
        gates = tuple(KINDS[(k + i) % len(KINDS)] if i == 0
                      else rng.choice(KINDS) for i in range(n))
        edge = ("rising", "falling")[k % 2]
        path = LogicPath(gates=gates,
                         input_cap=rng.uniform(2.0, 10.0),
                         terminal_load=rng.uniform(30.0, 2000.0),
                         input_edge=edge,
                         driver_slope_rise=rng.uniform(0.0, 60.0),
                         driver_slope_fall=rng.uniform(0.0, 60.0))
        out.append((f"ref-{k:02d}-n{n}-{edge}", "ref", path))
    out.append(("coupled-n12", "coupled",
                LogicPath(gates=COUPLED_GATES, input_cap=4.0,
                          terminal_load=200.0)))
    return out


def _attempt(fn):
    try:
        return repr(fn())
    except CmosPathError as exc:
        return f"{type(exc).__name__}: {exc}"


def solve_case(path: LogicPath, params, library) -> dict[str, str]:
    sizing_min, t_min, iters = min_delay_sizing(path, params, library)
    sizing_max, t_max = max_delay_sizing(path, params, library)
    bounds = DelayBounds(t_min=t_min, t_max=t_max, sizing_min=sizing_min,
                         sizing_max=sizing_max)
    out = {"min_delay": repr((sizing_min, t_min, iters)),
           "t_max": repr(t_max)}
    for ratio in TC_RATIOS:
        out[f"distribute@{ratio}"] = _attempt(
            lambda: distribute_constraint(path, ratio * t_min, params,
                                          library, bounds=bounds))
    out["distribute@ceiling"] = _attempt(
        lambda: distribute_constraint(path, 1.25 * t_max, params, library,
                                      bounds=bounds))
    a_deep = -100.0 * t_min / params.cref
    step = 1e-5 ** (1.0 / (SWEEP_POINTS - 2))
    ladder = [a_deep * step ** k for k in range(SWEEP_POINTS - 1)] + [0.0]
    out["sweep"] = _attempt(lambda: sweep(path, ladder, params, library))
    out["equal_delay@1.5"] = _attempt(
        lambda: equal_delay_distribution(path, 1.5 * t_min, params, library))
    return out


def record() -> list[dict]:
    configs = _configs()
    return [{"case": case, "results": solve_case(path, *configs[config])}
            for case, config, path in _paths()]


def _recorded() -> list[dict]:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_recording_covers_every_case():
    cases = _paths()
    assert [r["case"] for r in _recorded()] == [c[0] for c in cases]
    kinds = {g for _, _, path in cases for g in path.gates}
    assert kinds == set(KINDS)
    assert {path.input_edge for _, _, path in cases} == {"rising", "falling"}


@pytest.mark.parametrize("index", range(len(_paths())),
                         ids=[c[0] for c in _paths()])
def test_solver_results_are_exact(index):
    case, config, path = _paths()[index]
    expected = _recorded()[index]
    assert expected["case"] == case
    assert solve_case(path, *_configs()[config]) == expected["results"]


NUMBER = re.compile(r"-?(?:\d+\.?\d*(?:e[-+]?\d+)?|inf)|nan")


def _rel(old: str, new: str) -> float:
    x, y = float(old), float(new)
    if x == y or (math.isnan(x) and math.isnan(y)):
        return 0.0
    return abs(y - x) / abs(x) if x else math.inf


def report_drift(old: list[dict], new: list[dict]) -> None:
    """Print how far `new` moved from `old`, field by field.

    A field whose text changed in anything but its numbers counts as
    changed in structure.  The last number of `min_delay` is the
    iteration count, which is listed per case instead.
    """
    before = {r["case"]: r["results"] for r in old}
    worst: dict[str, float] = {}
    reshaped: dict[str, int] = {}
    iterations = []
    for row in new:
        prev = before.get(row["case"])
        if prev is None:
            print(f"new case {row['case']}")
            continue
        for field, text in row["results"].items():
            was = prev.get(field, "")
            a, b = NUMBER.findall(was), NUMBER.findall(text)
            if NUMBER.sub("#", was) != NUMBER.sub("#", text):
                reshaped[field] = reshaped.get(field, 0) + 1
                continue
            if field == "min_delay":
                iterations.append((row["case"], int(a.pop()), int(b.pop())))
            worst[field] = max([worst.get(field, 0.0)]
                               + [_rel(x, y) for x, y in zip(a, b)])
    print("largest relative change per field:")
    for field, rel in worst.items():
        print(f"  {field:20s} {rel:.3g}")
    for field, count in reshaped.items():
        print(f"  {field:20s} structure changed in {count} cases")
    changed = [(c, x, y) for c, x, y in iterations if x != y]
    print(f"min-delay iterations changed in {len(changed)} of "
          f"{len(iterations)} cases, total {sum(x for _, x, _ in iterations)}"
          f" -> {sum(y for _, _, y in iterations)}:")
    for case, x, y in changed:
        print(f"  {case:24s} {x} -> {y}")


def test_drift_report_names_each_change(capsys):
    old = [{"case": "c", "results": {"min_delay": "((4.0, 8.0), 2.0, 9)",
                                      "sweep": "ValueError: x"}}]
    new = [{"case": "c", "results": {"min_delay": "((4.0, 8.2), 2.0, 6)",
                                      "sweep": "([], [])"}}]
    report_drift(old, new)
    out = capsys.readouterr().out
    assert "min_delay            0.025\n" in out
    assert "sweep                structure changed in 1 cases" in out
    assert "changed in 1 of 1 cases, total 9 -> 6:\n  c " in out


if __name__ == "__main__":
    recording = record()
    if GOLDEN.exists():
        report_drift(_recorded(), recording)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(recording, indent=1) + "\n",
                      encoding="utf-8")
