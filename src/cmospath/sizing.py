"""Area distribution under a delay constraint via constant sensitivity.

At the area-optimal sizing for a given delay budget every free gate sees
the same delay-per-capacitance sensitivity a <= 0; a = 0 is the fastest
point and a -> -inf collapses everything to minimum drive.  A solve at a
fixed a is the bounds engine's fixed point.  Meeting a constraint tc
solves those stationarity conditions and T = tc at once: one Newton
iteration on the log sizes and a together, whose bordered tridiagonal
Jacobian costs one derivative pass, windowed on the pass before as the
engine's are, and one Thomas sweep with two right-hand sides per step,
opened by an Euler predictor from the fastest sizing.  Every sweep, the
predictor's H^-1 1 included, is the engine's (bounds._newton_solve).
It stops on the engine's one certificate (bounds.certified) once the
delay lands in tc * (1 - 1e-3) <= delay <= tc.  Every solution takes
its delay from the pass it stopped on (its total) and its area from
PathModel.total_width.  Where strong fixed coupling folds the solution
branch back in a and the iterate leaves it, a corrector step at fixed
a, from the same sweep, takes it back.  A tc at or above the
all-minimum-drive delay takes that corner with no solve.  The
equal-delay-per-stage reference sizing, a heuristic for comparison,
sizes each stage in closed form (PathModel.stage_size).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

from .bounds import (DelayBounds, FixedPoint, _model_bounds, _newton_solve,
                     all_minimum, certified, link_fixed_point)
from .errors import ConvergenceError, InfeasibleError
from .path import GateLibrary, LogicPath, Pass, PathModel, Sizing
from .process import ProcessParams

logger = logging.getLogger(__name__)

DELAY_MATCH_TOL = 1e-3
MAX_SENSITIVITY_STEPS = 60


@dataclass(frozen=True)
class SensitivitySolution:
    """A converged constant-sensitivity sizing."""

    a_value: float
    sizing: Sizing
    delay: float
    area: float
    note: str | None = None

    def __post_init__(self):
        if self.a_value > 0:
            raise ValueError("a_value must be <= 0")


def _solution(model: PathModel, a: float,
              fixed: FixedPoint) -> SensitivitySolution:
    return SensitivitySolution(a_value=a, sizing=fixed.sizing,
                               delay=fixed.pass_.total,
                               area=model.total_width(fixed.sizing))


def solve_at_sensitivity(path: LogicPath, a: float, params: ProcessParams,
                         library: GateLibrary,
                         warm: Sizing | None = None) -> SensitivitySolution:
    """Sizing whose free delay sensitivities all equal a (a <= 0).

    The minimum-delay engine at target a, stopped by bounds.certified:
    every unclamped exact sensitivity g_j ends within 5e-5 * |a| +
    1e-6 * delay / cref of a, so their spread stays within twice that.
    """
    model = PathModel(path, params, library)
    return _solution(model, a, link_fixed_point(model, a=a, warm=warm))


def _unit_response(model: PathModel, held: Pass) -> list[float] | None:
    """dcin/da = H_ff^-1 1 at a constant-sensitivity point.

    Differentiating the stationarity system g(cin) = a * 1 over the free
    gates gives H_ff dcin/da = 1.  H_ff is the exact Hessian of the pass
    held, with its clamped gates pinned (unit row, zero right-hand side).
    The response is the border right-hand side of the fixed-point
    engine's solve (_newton_solve) at unit sizes and a = 0, where its
    system is H_ff itself: a zero residual on the free gates, and a
    positive one on the clamped gates, which pins them.  Where H_ff is
    positive definite this is the Thomas sweep of H_ff x = 1, operation
    for operation.  Where it is not, which strong fixed coupling can
    cause, the response is that of H_ff made diagonally dominant, as in
    the engine's steps; None only when that fails too.
    """
    clamped = model.clamped(held.sizing)
    solved = _newton_solve([1.0] * model.n, list(map(float, clamped[1:])),
                           held.diag, held.off, 0.0, clamped, 1, model.n - 1,
                           border=True)
    return None if solved is None else solved[1]


def _bordered_newton(model: PathModel, bounds: DelayBounds, tc: float,
                     first: Pass) -> tuple[SensitivitySolution, int, int]:
    """Newton on the log sizes y and the sensitivity a together.

    The unknowns (y, a) solve r_j = c_j (g_j - a) = 0 over the free gates
    and T = target, the middle of the band.  The Jacobian is bordered
    tridiagonal, [[M, -c], [(c*g)^T, 0]], with M the log-space system of
    the fixed-point engine (_newton_solve), so each iteration takes one
    derivative pass, windowed on the pass it holds (`first` on the first
    step), and one sweep of M for two right-hand sides, M u = -r and
    M v = c; then da = (target - T - (c*g).u) / ((c*g).v) and dy = u + v
    da.  Where (c*g).v is not negative, the iterate has left the solution
    branch (strong fixed coupling can fold it back in a), and the step is
    a corrector at fixed a instead: da = 0 and dy = u.  At a = 0 the
    delay is flat to first order, so the first step is the Euler
    predictor from the fastest sizing, whose pass is `first`: da = a0 =
    -sqrt(2 (target - t_min) / q) and dy = a0 * H^-1 1 / c.  Every step
    is scaled to at most one e-fold per gate, and further so that a stops
    halfway to 0 if it would reach it; sizes are clamped at cref.  It
    stops on the engine's certificate (bounds.certified) once the pass's
    delay lies in the band, and reports that pass as evaluate returns it
    (which computes no gate), with total_width's area.  Returns the
    solution, the iterations and the corrector steps among them.  Raises
    ConvergenceError with the iterations and the last (T - tc) / tc when
    q is not positive, a sweep fails even on the dominance-fixed M, da is
    not finite, or MAX_SENSITIVITY_STEPS iterations pass.
    """
    cref, n = model.params.cref, model.n
    low = tc * (1.0 - DELAY_MATCH_TOL)
    target = tc * (1.0 - 0.5 * DELAY_MATCH_TOL)
    a, cin, held, delay = 0.0, list(bounds.sizing_min), first, bounds.t_min
    corrections = 0
    x = _unit_response(model, first)
    q = sum(x) if x is not None else math.nan
    if not 0.0 < q < math.inf:
        raise ConvergenceError("no delay curvature at the fastest sizing",
                               iterations=0, residual=(delay - tc) / tc)
    da = -math.sqrt(2.0 * (target - delay) / q)
    dy = [da * dc / c for c, dc in zip(cin[1:], x)]
    for iteration in range(1, MAX_SENSITIVITY_STEPS + 1):
        scale = 1.0 / max(1.0, max(abs(d) for d in dy))
        if a + scale * da >= 0.0:
            scale = -0.5 * a / da
        a += scale * da
        cin = [cin[0]] + [max(cref, c * math.exp(scale * d))
                          for c, d in zip(cin[1:], dy)]
        held = model.derivatives(cin, held)
        grad, delay = held.grad, held.total
        clamped = model.clamped(cin)
        if low <= delay <= tc and certified(model, held, a, 1, n - 1, clamped):
            return SensitivitySolution(
                a_value=a, sizing=tuple(cin),
                delay=model.evaluate(cin, held).total,
                area=model.total_width(cin)), iteration, corrections
        solved = _newton_solve(cin, grad, held.diag, held.off, a, clamped,
                               1, n - 1, border=True)
        if solved is None:
            break
        u, v = solved
        cg = [c * g for c, g in zip(cin[1:], grad)]
        slope = sum(w * vj for w, vj in zip(cg, v))
        if not -math.inf < slope < 0.0:
            da, dy = 0.0, u
            corrections += 1
            continue
        da = (target - delay - sum(w * uj for w, uj in zip(cg, u))) / slope
        if not math.isfinite(da):
            break
        dy = [uj + vj * da for uj, vj in zip(u, v)]
    raise ConvergenceError("sensitivity search did not meet the constraint",
                           iterations=iteration, residual=(delay - tc) / tc)


def _floor_sensitivity(model: PathModel, bounds: DelayBounds) -> float:
    """The a reported with the all-minimum corner, tc >= t_max: the lower
    of -1e6 * t_min / cref and twice the steepest gate sensitivity there,
    so below every one of them, where the corner holds."""
    return min(-1e6 * bounds.t_min / model.params.cref, 2.0 * min(
        model.derivatives(bounds.sizing_max).grad, default=0.0))


def distribute_constraint(path: LogicPath, tc: float, params: ProcessParams,
                          library: GateLibrary,
                          bounds: DelayBounds | None = None) -> SensitivitySolution:
    """Minimum-area sizing meeting delay constraint tc.

    The result's delay lies in the one-sided band tc * (1 - 1e-3) <=
    delay <= tc, and its sizing carries bounds.certified at its
    sensitivity a.  The fastest sizing (a = 0, taken from bounds) answers
    when it already lies in the band.  Otherwise one Newton iteration on
    the log sizes and a together (_bordered_newton) aims at the band's
    middle from the fastest sizing, and raises ConvergenceError where it
    cannot go on.  tc below t_min raises InfeasibleError carrying t_min;
    tc at or above t_max returns the all-minimum sizing with a note, at
    the floor sensitivity (_floor_sensitivity).
    """
    if not tc > 0:
        raise ValueError("tc must be positive")
    model = PathModel(path, params, library)
    if bounds is None:
        bounds = _model_bounds(model)
    if tc < bounds.t_min:
        raise InfeasibleError(
            f"constraint {tc:.6g} ps below minimum achievable delay "
            f"{bounds.t_min:.6g} ps", t_min=bounds.t_min, best_path=path)
    if tc >= bounds.t_max:
        return SensitivitySolution(
            a_value=_floor_sensitivity(model, bounds),
            sizing=bounds.sizing_max, delay=bounds.t_max,
            area=model.total_width(bounds.sizing_max),
            note="constraint at or above the all-minimum-drive delay; "
                 "every free gate held at cref")
    if bounds.t_min >= tc * (1.0 - DELAY_MATCH_TOL):
        return SensitivitySolution(
            a_value=0.0, sizing=bounds.sizing_min, delay=bounds.t_min,
            area=model.total_width(bounds.sizing_min))

    first = model.derivatives(bounds.sizing_min)
    sol, iterations, corrections = _bordered_newton(model, bounds, tc, first)
    logger.debug("distribute: %d bordered iterations, %d corrector steps, "
                 "%d derivative passes", iterations, corrections,
                 1 + iterations)
    return sol


def sweep(path: LogicPath, a_values, params: ProcessParams,
          library: GateLibrary) -> tuple[list[SensitivitySolution],
                                         list[tuple[float, Exception]]]:
    """Constant-sensitivity solutions over a grid of a values.

    Rows come back ordered by a ascending (most negative first); solver
    failures (a > 0 among them) are collected per row instead of aborting
    the sweep.  Each solve with a < 0 starts warm from the last row
    solved, handed its FixedPoint: it opens on the pass that solve ended
    on (pass_), so a row computes only the gates near the sizes it
    moved.
    The first starts from the all-minimum corner, where a -> -inf sends
    every free gate.  So every such row after the first solved takes one
    derivative pass fewer than solve_at_sensitivity warm from the
    previous row's sizing, and returns the same row bit for bit.  The a =
    0 row starts cold, on the clamped optimum of the logical-effort delay,
    which lies nearer the fastest sizing than the row before it, whose
    gates mostly sit at cref; that row is min_delay_sizing's result bit
    for bit.
    """
    model = PathModel(path, params, library)
    solutions: list[SensitivitySolution] = []
    failures: list[tuple[float, Exception]] = []
    warm: FixedPoint | Sizing = all_minimum(model)
    for a in sorted(a_values):
        try:
            fixed = link_fixed_point(model, a=a, warm=warm if a else None)
        except (ConvergenceError, ValueError) as exc:
            failures.append((a, exc))
            continue
        solutions.append(_solution(model, a, fixed))
        warm = fixed
    return solutions, failures


def equal_delay_distribution(path: LogicPath, tc: float,
                             params: ProcessParams,
                             library: GateLibrary) -> Sizing:
    """Reference sizing giving every stage the same delay budget tc/n.

    One backward pass per slope round (two rounds, slopes from the last
    full evaluation): each stage takes its share of what is left of tc
    at the size that meets it exactly (PathModel.stage_size), or cref if
    cref does.  A stage whose floor (PathModel.stage_floor) reaches its
    share budgets 5% above it, at any size, and the stages nearer the
    input absorb the deficit: the saturated extreme of the method's
    over-sizing.  Raises InfeasibleError when that bump takes the rest
    of tc, or the exact total lands above 1.01 tc.
    """
    if not tc > 0:
        raise ValueError("tc must be positive")
    model = PathModel(path, params, library)
    n = model.n
    cref = params.cref
    sizing = list(all_minimum(model))

    for sweep_round in range(2):
        slopes_in = [path.driver_slope(), *model.evaluate(sizing).slopes[:-1]]
        pool = tc
        for i in range(n - 1, 0, -1):
            x = sizing[i + 1] if i < n - 1 else model.terminal_load
            slope = slopes_in[i]
            # stages i..0 still have to fit into what is left of tc
            target = pool / (i + 1)
            floor = model.stage_floor(i, slope)
            if floor >= target:
                target = floor * 1.05
                if target >= pool:
                    raise InfeasibleError(
                        f"stage {i} needs {target:.6g} ps, exhausting the "
                        f"remaining budget {pool:.6g} ps of the equal split")
            sizing[i] = (cref if model.stage(i, cref, x, slope)[0] <= target
                         else model.stage_size(i, target, x, slope))
            pool -= model.stage(i, sizing[i], x, slope)[0]

    total = model.evaluate(sizing).total
    if total > tc * 1.01:
        raise InfeasibleError(
            f"equal-delay distribution lands at {total:.6g} ps, above the "
            f"constraint {tc:.6g} ps", t_min=None)
    return tuple(sizing)


def path_area(path: LogicPath, sizing, params: ProcessParams,
              library: GateLibrary) -> float:
    """Total transistor width of a checked sizing, off-path inverters
    included."""
    model = PathModel(path, params, library)
    model.check_sizing(sizing)
    return model.total_width(sizing)
