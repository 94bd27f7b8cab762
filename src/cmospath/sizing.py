"""Area distribution under a delay constraint via constant sensitivity.

At the area-optimal sizing for a given delay budget every free gate sees
the same delay-per-capacitance sensitivity a <= 0; a = 0 is the fastest
point and a -> -inf collapses everything to minimum drive.  A solve at a
fixed a is the bounds engine's fixed point with its one stopping rule.
The constrained area problem becomes a one-dimensional search on a: a
safeguarded Newton iteration, with dT/da from the exact Hessian, that
starts at the fastest sizing and stops once the delay lands in tc * (1 -
1e-3) <= delay <= tc.  A tc at or above the all-minimum-drive delay takes
that corner with no solve.  The equal-delay-per-stage reference sizing
is a heuristic for comparison, not an optimizer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .bounds import (DelayBounds, FixedPoint, _solve_tridiagonal,
                     compute_bounds, link_fixed_point)
from .errors import ConvergenceError, InfeasibleError
from .path import GateLibrary, LogicPath, PathModel, Sizing
from .process import ProcessParams

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


def _solution(a: float, fixed: FixedPoint) -> SensitivitySolution:
    return SensitivitySolution(a_value=a, sizing=fixed.sizing,
                               delay=fixed.timing.total_delay,
                               area=fixed.timing.total_width)


def _solve(model: PathModel, a: float,
           warm: Sizing | None = None) -> SensitivitySolution:
    return _solution(a, link_fixed_point(model, a=a, warm=warm))


def solve_at_sensitivity(path: LogicPath, a: float, params: ProcessParams,
                         library: GateLibrary,
                         warm: Sizing | None = None) -> SensitivitySolution:
    """Sizing whose free delay sensitivities all equal a (a <= 0).

    The minimum-delay engine at target a, with its one stopping rule:
    every unclamped exact sensitivity g_j ends within 5e-5 * |a| +
    1e-6 * delay / cref of a, so their spread stays within twice that.
    """
    if a > 0:
        raise ValueError("sensitivity target a must be <= 0")
    return _solve(PathModel(path, params, library), a, warm=warm)


def _delay_curvature(model: PathModel, sizing: Sizing, diag,
                     off) -> float | None:
    """q = 1^T H_ff^-1 1 at a constant-sensitivity point, so dT/da = a * q.

    Differentiating the stationarity system g(cin) = a * 1 over the free
    gates gives H_ff dcin/da = 1, hence dT/da = g^T dcin/da = a * q.  H_ff
    is the exact Hessian (diag, off) at sizing, as PathModel.derivatives
    or the solve that reached sizing gives it, with clamped gates pinned
    (unit diagonal, zero right-hand side); diag and off are not modified.
    Returns None when H_ff is not positive definite, which strong fixed
    coupling can cause.
    """
    clamped = model.clamped(sizing)[1:]
    x = _solve_tridiagonal(list(diag), list(off), [1.0] * len(diag),
                           [idx for idx, c in enumerate(clamped) if c])
    if x is None:
        return None
    q = sum(x)
    return q if 0.0 < q < math.inf else None


def distribute_constraint(path: LogicPath, tc: float, params: ProcessParams,
                          library: GateLibrary,
                          bounds: DelayBounds | None = None) -> SensitivitySolution:
    """Minimum-area sizing meeting delay constraint tc.

    Starts from the fastest sizing (a = 0, taken from bounds) and runs a
    safeguarded Newton iteration on the sensitivity a, warm-starting each
    solve from the previous one, until the achieved delay lands in the
    one-sided band tc * (1 - 1e-3) <= delay <= tc.  Newton uses dT/da =
    a * 1^T H^-1 1 over the unclamped gates, and its first step from a = 0
    the quadratic model T = t_min + q a^2 / 2; q is read off the last
    derivative pass of the solve that reached each a, so only the one at
    the fastest sizing takes a pass of its own.  A step that leaves the
    bracket of a values known to be too slow and too fast falls back to
    the bracket's geometric mean.  tc below t_min raises InfeasibleError
    carrying t_min; tc at or above t_max returns the all-minimum sizing
    with a note.
    """
    if not tc > 0:
        raise ValueError("tc must be positive")
    model = PathModel(path, params, library)
    if bounds is None:
        bounds = compute_bounds(path, params, library)
    if tc < bounds.t_min:
        raise InfeasibleError(
            f"constraint {tc:.6g} ps below minimum achievable delay "
            f"{bounds.t_min:.6g} ps", t_min=bounds.t_min, best_path=path)

    # Below every gate's sensitivity at the all-minimum corner, so the
    # corner holds there: a_floor is too slow whenever tc < t_max.
    a_floor = min(-1e6 * bounds.t_min / params.cref, 2.0 * min(
        model.derivatives(bounds.sizing_max)[0], default=0.0))
    if tc >= bounds.t_max:
        return SensitivitySolution(
            a_value=a_floor, sizing=bounds.sizing_max, delay=bounds.t_max,
            area=model.total_width(bounds.sizing_max),
            note="constraint at or above the all-minimum-drive delay; "
                 "every free gate held at cref")

    sol = SensitivitySolution(a_value=0.0, sizing=bounds.sizing_min,
                              delay=bounds.t_min,
                              area=model.total_width(bounds.sizing_min))
    low = tc * (1.0 - DELAY_MATCH_TOL)
    if sol.delay >= low:
        return sol
    target = tc * (1.0 - 0.5 * DELAY_MATCH_TOL)

    # T(a) rises monotonically as a falls below 0.  lo is too slow (at
    # a_floor T = t_max > tc), hi too fast.
    lo, hi = a_floor, 0.0
    a = 0.0
    curvature = model.derivatives(sol.sizing)[1:3]
    for _ in range(MAX_SENSITIVITY_STEPS):
        q = _delay_curvature(model, sol.sizing, *curvature)
        if q is None:
            step = math.nan  # fails the bracket test below
        elif a == 0.0:
            step = -math.sqrt(2.0 * (target - sol.delay) / q)
        else:
            step = a - (sol.delay - target) / (a * q)
        if lo < step < hi:
            a = step
        else:
            a = -math.sqrt(lo * hi) if hi < 0.0 else lo / 8.0
        fixed = link_fixed_point(model, a=a, warm=sol.sizing)
        sol = _solution(a, fixed)
        curvature = fixed.diag, fixed.off
        if low <= sol.delay <= tc:
            return sol
        if sol.delay > tc:
            lo = a
        else:
            hi = a
    raise ConvergenceError("sensitivity search did not meet the constraint",
                           iterations=MAX_SENSITIVITY_STEPS,
                           residual=(sol.delay - tc) / tc)


def sweep(path: LogicPath, a_values, params: ProcessParams,
          library: GateLibrary) -> tuple[list[SensitivitySolution],
                                         list[tuple[float, Exception]]]:
    """Constant-sensitivity solutions over a grid of a values.

    Rows come back ordered by a ascending (most negative first); solver
    failures are collected per row instead of aborting the sweep.  Each
    solve starts warm from the last row solved, and the first from the
    all-minimum corner, where a -> -inf sends every free gate.
    """
    model = PathModel(path, params, library)
    solutions: list[SensitivitySolution] = []
    failures: list[tuple[float, Exception]] = []
    warm = (path.input_cap,) + (params.cref,) * (model.n - 1)
    for a in sorted(a_values):
        if a > 0:
            failures.append((a, ValueError("sensitivity target a must be <= 0")))
            continue
        try:
            sol = _solve(model, a, warm=warm)
        except (ConvergenceError, ValueError) as exc:
            failures.append((a, exc))
            continue
        solutions.append(sol)
        warm = sol.sizing
    return solutions, failures


def equal_delay_distribution(path: LogicPath, tc: float,
                             params: ProcessParams,
                             library: GateLibrary) -> Sizing:
    """Reference sizing giving every stage the same delay budget tc/n.

    Backward per-stage solves with input slopes taken from the previous
    full evaluation, then one slope-refresh round and a final check that
    the exact total stays within 1% of tc.  Stages already at minimum
    drive below their budget are left clamped.  A stage whose parasitic
    self-loading floor sits above the equal share takes its achievable
    floor instead (paying for it in size) and the stages closer to the
    input absorb the deficit; this is the saturated extreme of the
    over-sizing the method is known for.  Raises InfeasibleError when
    even that redistribution cannot land the total under tc.
    """
    if not tc > 0:
        raise ValueError("tc must be positive")
    model = PathModel(path, params, library)
    n = model.n
    cref = params.cref
    sizing = [path.input_cap] + [cref] * (n - 1)

    for sweep_round in range(2):
        slopes_in = [path.driver_slope()] + \
            list(model.evaluate(sizing).per_gate_slope[:-1])
        pool = tc
        for i in range(n - 1, 0, -1):
            next_cap = sizing[i + 1] if i < n - 1 else model.terminal_load
            slope = slopes_in[i]
            # stages i..0 still have to fit into what is left of tc
            target = pool / (i + 1)
            # delay never falls below the huge-size limit; budget at
            # least that, plus a margin the bisection can actually hit
            floor = model.stage(i, 1e9, next_cap, slope)[0]
            if floor >= target:
                target = floor * 1.05
            if target >= pool:
                raise InfeasibleError(
                    f"stage {i} needs {target:.6g} ps, exhausting the "
                    f"remaining budget {pool:.6g} ps of the equal split")
            if model.stage(i, cref, next_cap, slope)[0] <= target:
                sizing[i] = cref
            else:
                lo = cref
                hi = cref * 2.0
                guard = 0
                while model.stage(i, hi, next_cap, slope)[0] > target:
                    lo = hi
                    hi *= 2.0
                    guard += 1
                    if guard > 120:
                        raise InfeasibleError(
                            f"stage {i} cannot reach its budget "
                            f"{target:.6g} ps at any realizable size")
                for _ in range(100):
                    mid = 0.5 * (lo + hi)
                    if model.stage(i, mid, next_cap, slope)[0] > target:
                        lo = mid
                    else:
                        hi = mid
                    if hi - lo <= 1e-12 * hi:
                        break
                sizing[i] = hi
            pool -= model.stage(i, sizing[i], next_cap, slope)[0]

    total = model.evaluate(sizing).total_delay
    if total > tc * 1.01:
        raise InfeasibleError(
            f"equal-delay distribution lands at {total:.6g} ps, above the "
            f"constraint {tc:.6g} ps", t_min=None)
    return tuple(sizing)


def path_area(path: LogicPath, sizing, params: ProcessParams,
              library: GateLibrary) -> float:
    """Total transistor width of a sizing, off-path inverters included."""
    return PathModel(path, params, library).total_width(sizing)
