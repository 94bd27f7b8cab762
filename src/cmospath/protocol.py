"""Constraint-driven selection of the optimization route.

How hard a delay constraint is, relative to the fastest the path can go,
decides which transformations are worth their area: generous constraints
are pure sizing problems, tight ones justify buffers, and unreachable
ones call for logic restructuring before anything else.  Every structural
decision lands in a replayable trace.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple

from .bounds import (DelayBounds, compute_bounds, max_delay_sizing,
                     min_delay_sizing)
from .buffering import (check_polarity_mode, insert_buffers,
                        min_delay_with_buffers)
from .errors import InfeasibleError, InvariantError
from .path import GateLibrary, LogicPath, Sizing
from .process import ProcessParams
from .restructure import (
    MAX_EQUIV_INPUTS,
    cancel_inverter_pairs,
    demorgan_rewrite,
    dual_kind,
    local_equivalence_check,
    rank_gate_efficiency,
    segment_of,
    without_inverter_pairs,
)
from .sizing import SensitivitySolution, distribute_constraint


class Domain(enum.Enum):
    INFEASIBLE = "infeasible"
    HARD = "hard"
    MEDIUM = "medium"
    WEAK = "weak"


@dataclass(frozen=True)
class ConstraintDomain:
    """Where a constraint falls relative to the path's fastest delay."""

    kind: Domain
    ratio: float


def classify_constraint(tc: float, t_min: float,
                        params: ProcessParams) -> ConstraintDomain:
    """Domain of tc/t_min, boundaries resolving toward the harder domain."""
    if not tc > 0:
        raise ValueError("tc must be positive")
    if not t_min > 0:
        raise ValueError("t_min must be positive")
    ratio = tc / t_min
    if tc < t_min:
        kind = Domain.INFEASIBLE
    elif ratio <= params.hard_threshold:
        kind = Domain.HARD
    elif ratio <= params.weak_threshold:
        kind = Domain.MEDIUM
    else:
        kind = Domain.WEAK
    return ConstraintDomain(kind=kind, ratio=ratio)


@dataclass(frozen=True)
class TraceStep:
    """One protocol decision: a kind tag plus ordered detail fields."""

    kind: str
    data: dict

    def line(self) -> str:
        parts = []
        for key, value in self.data.items():
            if isinstance(value, float):
                parts.append(f"{key}={value:.6g}")
            else:
                parts.append(f"{key}={value}")
        return f"step={self.kind} detail=<{' '.join(parts)}>"


@dataclass(frozen=True)
class OptimizationResult:
    """Final structure and sizing meeting the constraint."""

    final_path: LogicPath
    sizing: Sizing
    achieved_delay: float
    area: float
    a_value: float
    domain: ConstraintDomain
    trace: tuple[TraceStep, ...]
    notes: tuple[str, ...] = ()


def replay_trace(path: LogicPath, trace, library: GateLibrary) -> LogicPath:
    """Re-apply the structural steps of a trace to the original path."""
    current = path
    for step in trace:
        if step.kind == "insert_buffer":
            current = insert_buffers(current, [step.data["index"]],
                                     buffer_kind=step.data.get("kind", "inv"),
                                     polarity_mode=step.data["mode"])
        elif step.kind == "restruct":
            current = cancel_inverter_pairs(
                demorgan_rewrite(current, step.data["index"], library))
    return current


def _checked_rewrite(path: LogicPath, index: int, library: GateLibrary,
                     sizing: Sizing) -> tuple[LogicPath, int, list]:
    """demorgan_rewrite + cancellation, with a truth-table window check.

    Returns the new path, the number of inverter pairs cancelled and, as
    a warm start, the parent's sizing carried through the same edit: the
    three gates the rewrite puts in place of gate `index` are unsized
    (None), and a cancelled pair takes its sizes with it.  A rewrite that
    changes the window's function raises InvariantError.
    """
    lo = max(0, index - 1)
    hi = min(path.n - 1, index + 1)
    before = segment_of(path, library, lo, hi + 1)
    if before.n_inputs > MAX_EQUIV_INPUTS:
        lo = hi = index
        before = segment_of(path, library, lo, hi + 1)
    rewritten = demorgan_rewrite(path, index, library)
    after = segment_of(rewritten, library, lo, hi + 3)
    if not local_equivalence_check(before, after):
        raise InvariantError(
            f"rewrite at gate {index} changed the segment function")
    cancelled = cancel_inverter_pairs(rewritten)
    sizes = [*sizing[:index], None, None, None, *sizing[index + 1:]]
    sizes = [size for _, size in
             without_inverter_pairs(zip(rewritten.gates, sizes))]
    return cancelled, (rewritten.n - cancelled.n) // 2, sizes


class _Route(NamedTuple):
    """One candidate structure for optimize: the path, the trace steps
    that built it from the input path, its fastest sizing and, once
    known, its all-minimum-drive corner (sizing, t_max).

    A named tuple, not a frozen dataclass: creating a dataclass costs
    about 1 ms at import.
    """

    path: LogicPath
    steps: tuple[TraceStep, ...]
    t_min: float
    sizing_min: Sizing
    max_corner: tuple[Sizing, float] | None = None


def optimize(path: LogicPath, tc: float, params: ProcessParams,
             library: GateLibrary, *, allow_buffer: bool = True,
             allow_restruct: bool = True, buffer_mode: str = "pair",
             buffer_kind: str = "inv") -> OptimizationResult:
    """Meet delay constraint tc at minimum area, restructuring if needed.

    The domain picks the candidate routes: weak the path as it is,
    medium that and its greedy-buffered route, hard the buffered route
    (the path itself without allow_buffer), infeasible the restructure
    walk (least efficient gates rewritten while t_min misses tc, then
    buffered if still short) and the buffer-only route.  Each candidate
    meeting tc is distributed at tc; the smallest area wins, the earlier
    on ties.  Else InfeasibleError carries the fastest route built: its
    t_min, its path as best_path, and a trace (bounds, classify, its
    steps) that replay_trace turns into best_path.  An unknown
    buffer_mode raises ValueError in every domain.
    """
    check_polarity_mode(buffer_mode)
    bounds = compute_bounds(path, params, library)
    base = _Route(path, (), bounds.t_min, bounds.sizing_min,
                  (bounds.sizing_max, bounds.t_max))
    domain = classify_constraint(tc, bounds.t_min, params)
    trace = [TraceStep("bounds", {"t_min": bounds.t_min,
                                  "t_max": bounds.t_max}),
             TraceStep("classify", {"domain": domain.kind.value,
                                    "ratio": domain.ratio, "tc": tc})]
    visited = [base]  # every route built, for the error's fastest one

    def buffered(route: _Route) -> _Route:
        """Greedy buffering of a route, its insertions appended as steps."""
        outcome = min_delay_with_buffers(
            route.path, params, library, buffer_kind, buffer_mode,
            start=(route.sizing_min, route.t_min))
        steps = tuple(TraceStep("insert_buffer", {
            "index": index, "mode": mode, "kind": buffer_kind})
            for index, mode in outcome.insertions)
        visited.append(_Route(outcome.path, route.steps + steps,
                              outcome.t_min, outcome.sizing))
        return visited[-1]

    def distribute(route: _Route) -> SensitivitySolution:
        sizing_max, t_max = route.max_corner \
            or max_delay_sizing(route.path, params, library)
        return distribute_constraint(
            route.path, tc, params, library,
            bounds=DelayBounds(t_min=route.t_min, t_max=t_max,
                               sizing_min=route.sizing_min,
                               sizing_max=sizing_max))

    candidates: list[tuple[str, _Route]] = []
    if domain.kind is Domain.INFEASIBLE:
        if allow_restruct:
            # The rank of each library kind whose De Morgan dual, and the
            # inv the rewrite adds, are in the library, the dual ranked
            # strictly later.
            rank = {kind: i for i, (kind, _) in enumerate(
                rank_gate_efficiency(library, params, buffer_kind))}
            rewritable = {kind: i for kind, i in rank.items() if "inv" in rank
                          and rank.get(dual_kind(kind), -1) > i}
            route = base
            while tc < route.t_min:
                # The least efficient rewritable gate, the first on ties.
                _, index = min(((rewritable[kind], i) for i, kind in
                                enumerate(route.path.gates)
                                if kind in rewritable), default=(0, None))
                if index is None:
                    break
                old_kind = route.path.gates[index]
                new_path, pairs, sizes = _checked_rewrite(
                    route.path, index, library, route.sizing_min)
                sizing, t_min, _ = min_delay_sizing(new_path, params,
                                                    library, warm=sizes)
                step = TraceStep("restruct", {
                    "index": index, "from": old_kind,
                    "to": f"inv+{dual_kind(old_kind)}+inv",
                    "cancelled": pairs, "equivalent": True, "t_min": t_min})
                route = _Route(new_path, route.steps + (step,), t_min, sizing)
                visited.append(route)
            if route.steps and tc < route.t_min and allow_buffer:
                route = buffered(route)
            candidates.append(("restruct", route))
        # The buffer-only route competes with restructuring, and is all
        # that is left when restructuring found nothing to rewrite.
        if allow_buffer:
            candidates.append(("buffer", buffered(base)))
    elif domain.kind is Domain.HARD and allow_buffer:
        candidates.append(("buffer", buffered(base)))
    else:
        candidates.append(("plain", base))
        if domain.kind is Domain.MEDIUM and allow_buffer:
            # Buffers must pay for themselves in area at this constraint.
            alt = buffered(base)
            if alt.steps:
                candidates.append(("buffer", alt))

    scored = [(name, route, distribute(route)) for name, route in candidates
              if route.t_min <= tc]
    if not scored:
        fastest = min(visited, key=lambda route: route.t_min)
        raise InfeasibleError(
            f"constraint {tc:.6g} ps unreachable; best achievable "
            f"minimum delay is {fastest.t_min:.6g} ps",
            t_min=fastest.t_min, best_path=fastest.path,
            trace=(*trace, *fastest.steps))
    name, chosen, solution = min(scored, key=lambda s: s[2].area)
    trace.extend(chosen.steps)
    if domain.kind is Domain.INFEASIBLE:
        trace.append(TraceStep("route", {"chosen": name}))
    elif len(scored) == 2:
        trace.append(TraceStep(
            "buffering_kept" if chosen.steps else "buffering_rejected",
            {"area_with": scored[1][2].area,
             "area_without": scored[0][2].area}))
    elif chosen.steps:
        trace.append(TraceStep("rebound", {"t_min": chosen.t_min}))
    trace.append(TraceStep("distribute", {
        "a": solution.a_value, "delay": solution.delay,
        "area": solution.area}))

    if solution.delay > tc:
        raise InvariantError(
            f"optimizer produced delay {solution.delay:.6g} ps above "
            f"constraint {tc:.6g} ps")
    return OptimizationResult(
        final_path=chosen.path, sizing=solution.sizing,
        achieved_delay=solution.delay, area=solution.area,
        a_value=solution.a_value, domain=domain, trace=tuple(trace),
        notes=(solution.note,) if solution.note else ())
