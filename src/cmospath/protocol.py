"""Constraint-driven selection of the optimization route.

How hard a delay constraint is, relative to the fastest the path can go,
decides which transformations are worth their area: generous constraints
are pure sizing problems, tight ones justify buffers, and unreachable
ones call for logic restructuring before anything else.  Every structural
decision lands in a replayable trace.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass

from .bounds import DelayBounds, max_delay_sizing, min_delay_sizing
from .buffering import FlimitCache, insert_buffers, min_delay_with_buffers
from .errors import InfeasibleError, InvariantError
from .path import GateLibrary, LogicPath, Sizing
from .process import ProcessParams
from .restructure import (
    cancel_inverter_pairs,
    demorgan_rewrite,
    local_equivalence_check,
    rank_gate_efficiency,
    segment_of,
)
from .sizing import SensitivitySolution, distribute_constraint

_ARITY_RE = re.compile(r"^(nand|nor)(\d+)$")


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


STRUCTURAL_STEPS = ("insert_buffer", "restruct")


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


def _checked_rewrite(path: LogicPath, index: int,
                     library: GateLibrary) -> tuple[LogicPath, int, bool]:
    """demorgan_rewrite + cancellation, with a truth-table window check.

    Returns the new path, the number of inverter pairs cancelled, and the
    equivalence verdict (always True on success; inequivalence raises).
    """
    lo = max(0, index - 1)
    hi = min(path.n - 1, index + 1)
    before = segment_of(path, library, lo, hi + 1)
    if before.n_inputs > 6:
        lo = hi = index
        before = segment_of(path, library, lo, hi + 1)
    rewritten = demorgan_rewrite(path, index, library)
    after = segment_of(rewritten, library, lo, hi + 3)
    if not local_equivalence_check(before, after):
        raise InvariantError(
            f"rewrite at gate {index} changed the segment function")
    cancelled = cancel_inverter_pairs(rewritten)
    pairs = (rewritten.n - cancelled.n) // 2
    return cancelled, pairs, True


def _pick_rewrite(path: LogicPath, library: GateLibrary,
                  rank_pos: dict[str, int]) -> int | None:
    """Lowest-efficiency gate whose De Morgan dual ranks strictly better."""
    best: tuple[int, int] | None = None
    for i, kind in enumerate(path.gates):
        m = _ARITY_RE.match(kind)
        if m is None or int(m.group(2)) > 3:
            continue
        partner = ("nand" if m.group(1) == "nor" else "nor") + m.group(2)
        if partner not in library or "inv" not in library:
            continue
        if kind not in rank_pos or partner not in rank_pos:
            continue
        if rank_pos[partner] <= rank_pos[kind]:
            continue
        key = (rank_pos[kind], i)
        if best is None or key < best:
            best = key
    return None if best is None else best[1]


def _quick_bounds(path: LogicPath, params, library, t_min: float,
                  sizing_min: Sizing) -> DelayBounds:
    sizing_max, t_max = max_delay_sizing(path, params, library)
    return DelayBounds(t_min=t_min, t_max=t_max,
                       sizing_min=sizing_min, sizing_max=sizing_max)


def optimize(path: LogicPath, tc: float, params: ProcessParams,
             library: GateLibrary, *, allow_buffer: bool = True,
             allow_restruct: bool = True, buffer_mode: str = "pair",
             buffer_kind: str = "inv") -> OptimizationResult:
    """Meet delay constraint tc at minimum area, restructuring if needed.

    Weak constraints distribute area directly.  Medium ones try buffer
    insertion but keep it only on measured area improvement.  Hard ones
    buffer first, then distribute.  Infeasible ones restructure the least
    efficient gates (then buffer if still short); a buffer-only route is
    kept as the alternative and the smaller final area wins, ties going to
    restructuring.  Still-unreachable constraints raise InfeasibleError
    carrying the best achievable t_min and the trace.
    """
    trace: list[TraceStep] = []
    limits = FlimitCache(params, library, buffer_kind)

    sizing_min, t_min0, _ = min_delay_sizing(path, params, library)
    bounds0 = _quick_bounds(path, params, library, t_min0, sizing_min)
    trace.append(TraceStep("bounds", {"t_min": t_min0, "t_max": bounds0.t_max}))
    domain = classify_constraint(tc, t_min0, params)
    trace.append(TraceStep("classify", {
        "domain": domain.kind.value, "ratio": domain.ratio, "tc": tc}))

    def distribute(target_path: LogicPath, known: DelayBounds | None = None):
        return distribute_constraint(target_path, tc, params, library,
                                     bounds=known)

    final_path = path
    solution: SensitivitySolution

    if domain.kind is Domain.WEAK:
        solution = distribute(path, bounds0)

    elif domain.kind is Domain.MEDIUM:
        solution = distribute(path, bounds0)
        # The buffer-only route competes with restructuring, and is all
        # that is left when restructuring found nothing to rewrite.
        if allow_buffer:
            outcome = min_delay_with_buffers(path, params, library,
                                             buffer_kind, buffer_mode, limits)
            if outcome.path.n > path.n:
                buffered_sol = distribute(outcome.path)
                if buffered_sol.area < solution.area:
                    for index, mode in outcome.insertions:
                        trace.append(TraceStep("insert_buffer", {
                            "index": index, "mode": mode, "kind": buffer_kind}))
                    trace.append(TraceStep("buffering_kept", {
                        "area_with": buffered_sol.area,
                        "area_without": solution.area}))
                    final_path, solution = outcome.path, buffered_sol
                else:
                    trace.append(TraceStep("buffering_rejected", {
                        "area_with": buffered_sol.area,
                        "area_without": solution.area}))

    elif domain.kind is Domain.HARD:
        # The buffer-only route competes with restructuring, and is all
        # that is left when restructuring found nothing to rewrite.
        if allow_buffer:
            outcome = min_delay_with_buffers(path, params, library,
                                             buffer_kind, buffer_mode, limits)
            for index, mode in outcome.insertions:
                trace.append(TraceStep("insert_buffer", {
                    "index": index, "mode": mode, "kind": buffer_kind}))
            final_path = outcome.path
            if outcome.path.n > path.n:
                trace.append(TraceStep("rebound", {"t_min": outcome.t_min}))
                solution = distribute(final_path)
            else:
                solution = distribute(path, bounds0)
        else:
            solution = distribute(path, bounds0)

    else:  # infeasible at the current structure
        best_t_min = t_min0
        best_path = path
        candidates: list[tuple[str, LogicPath, list[TraceStep], float, Sizing]] = []
        did_rewrite = False

        if allow_restruct:
            ranking = rank_gate_efficiency(library, params, buffer_kind)
            rank_pos = {kind: i for i, (kind, _) in enumerate(ranking)}
            r_path, r_tmin, r_sizing = path, t_min0, sizing_min
            r_steps: list[TraceStep] = []
            while tc < r_tmin:
                index = _pick_rewrite(r_path, library, rank_pos)
                if index is None:
                    break
                old_kind = r_path.gates[index]
                new_path, pairs, _ = _checked_rewrite(r_path, index, library)
                r_sizing, r_tmin, _ = min_delay_sizing(new_path, params, library)
                dual = ("nand" if old_kind.startswith("nor") else "nor") + old_kind[-1]
                r_steps.append(TraceStep("restruct", {
                    "index": index, "from": old_kind,
                    "to": f"inv+{dual}+inv", "cancelled": pairs,
                    "equivalent": True, "t_min": r_tmin}))
                r_path = new_path
                did_rewrite = True
            if did_rewrite and tc < r_tmin and allow_buffer:
                outcome = min_delay_with_buffers(r_path, params, library,
                                                 buffer_kind, buffer_mode,
                                                 limits)
                for index, mode in outcome.insertions:
                    r_steps.append(TraceStep("insert_buffer", {
                        "index": index, "mode": mode, "kind": buffer_kind}))
                r_path, r_sizing, r_tmin = (outcome.path, outcome.sizing,
                                            outcome.t_min)
            if r_tmin < best_t_min:
                best_t_min, best_path = r_tmin, r_path
            if tc >= r_tmin:
                candidates.append(("restruct", r_path, r_steps, r_tmin, r_sizing))

        # The buffer-only route competes with restructuring, and is all
        # that is left when restructuring found nothing to rewrite.
        if allow_buffer:
            outcome = min_delay_with_buffers(path, params, library,
                                             buffer_kind, buffer_mode, limits)
            b_steps = [TraceStep("insert_buffer", {
                "index": index, "mode": mode, "kind": buffer_kind})
                for index, mode in outcome.insertions]
            if outcome.t_min < best_t_min:
                best_t_min, best_path = outcome.t_min, outcome.path
            if tc >= outcome.t_min:
                candidates.append(("buffer", outcome.path, b_steps,
                                   outcome.t_min, outcome.sizing))

        if not candidates:
            raise InfeasibleError(
                f"constraint {tc:.6g} ps unreachable; best achievable "
                f"minimum delay is {best_t_min:.6g} ps", t_min=best_t_min,
                best_path=best_path, trace=tuple(trace))

        best: tuple[str, LogicPath, list[TraceStep], SensitivitySolution] | None = None
        for route, cand_path, steps, cand_tmin, cand_sizing in candidates:
            sol = distribute(cand_path,
                             _quick_bounds(cand_path, params, library,
                                           cand_tmin, cand_sizing))
            if best is None or sol.area < best[3].area:
                best = (route, cand_path, steps, sol)
        route, final_path, steps, solution = best
        trace.extend(steps)
        trace.append(TraceStep("route", {"chosen": route}))

    trace.append(TraceStep("distribute", {
        "a": solution.a_value, "delay": solution.delay,
        "area": solution.area}))

    notes = (solution.note,) if solution.note else ()
    achieved = solution.delay
    if achieved > tc * (1.0 + 1e-3):
        raise InvariantError(
            f"optimizer produced delay {achieved:.6g} ps above constraint "
            f"{tc:.6g} ps")
    return OptimizationResult(
        final_path=final_path, sizing=solution.sizing,
        achieved_delay=achieved, area=solution.area,
        a_value=solution.a_value, domain=domain, trace=tuple(trace),
        notes=notes)
