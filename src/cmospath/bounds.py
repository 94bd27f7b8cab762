"""Delay bounds of a bounded path: slowest and fastest reachable delay.

The slowest corner is every free gate at minimum drive (all_minimum).
The fastest makes every free gate's exact delay sensitivity vanish.  A
cold solve starts on the clamped logical-effort optimum from the fixed
input capacitance to the terminal load (effort_seed): with the Miller
and coupling terms dropped the delay is sum_i w_i x_i / cin[i], and the
start is the sizing at cref or above that minimizes it, which gives
every stage between two gates held at cref the same weighted effort
w_i cin[i+1] / cin[i].  A path with fixed coupling weighs every gate 1:
where nothing clamps, the geometric taper cin[i] = input_cap * (load /
input_cap)^(i/n).  A start is lifted to cref where it lies below
(check_sizing accepts sizes to within 1e-9 of it), so every sizing the
solve visits has its free gates at cref or above.  From there the solve
runs log-space Newton iterations on the exact model.  Each sizing
visited gets one pass (stage delays, exact gradient, tridiagonal Hessian
and total delay), which judges the step to it and opens the next
iteration.  A pass is windowed on the pass the iteration holds: it
computes only the gates next to the sizes the step moved and splices
them in, bit for bit the full pass, so a step that moves a few gates
costs a few gates, and one that moves none computes none.  The solve
checks its start once and takes every later pass through
PathModel._pass, which checks nothing and looks for moved sizes only in
the rows the step swept.  Each step
solves the log-space system in one sweep that builds and eliminates each
row; it is the package's one Thomas sweep.  The sweep, the proposal, the
clamp and the certificate read one window of rows, the suffix lo..n-1.
A row pinned at cref solves to exactly 0, so the window leaves out the
pinned rows at the front of the chain: a solve that holds most gates
clamped (a warm sweep row, say) sweeps from the row before its first
free one to the last, the pinned rows after it included.  A solve whose
every row is pinned at its start, a one-gate path's among them, returns
the start with no step.  After each step it trims again from the
earlier of its window's first row and the new pass's, since no row
before that can come free.  The solve
returns its last pass in its FixedPoint, and a solve warm from that
FixedPoint opens on the pass, so it takes no pass at its start.
Steps go in this order of preference: exact Newton; Newton on the exact
Hessian made diagonally dominant where it loses positive definiteness,
which strong fixed coupling causes; the chosen step damped toward the
previous sizing when it would raise the descent merit; when every
damping ascends, only the gates the clamp held at cref in the last
damping moved to cref; and standing still when that ascends too.
It stops on the package's one certificate (certified), read off the pass
the step made, after a step that settled: every unclamped sensitivity
lies within 5e-5 * |a| + 1e-6 * delay / cref of a, and no clamped one
more than that below a.  The result carries that pass as evaluate
returns it: its total is the delay, and total_width gives the width.
The same engine with target a < 0 solves the constant-sensitivity
problem of the area distribution module.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .errors import ConvergenceError
from .path import GateLibrary, LogicPath, Pass, PathModel, Sizing
from .process import ProcessParams

logger = logging.getLogger(__name__)

MAX_ITERATIONS = 500
CAP_TOL = 1e-7
DELAY_TOL = 1e-9
RESIDUAL_TOL = 1e-6
SENSITIVITY_REL = 5e-5


@dataclass(frozen=True)
class DelayBounds:
    """Reachable delay window of a path and the sizings realizing it."""

    t_min: float
    t_max: float
    sizing_min: Sizing
    sizing_max: Sizing

    def __post_init__(self):
        if self.t_min > self.t_max * (1.0 + 1e-12):
            raise ValueError("t_min must not exceed t_max")


class FixedPoint(NamedTuple):
    """A converged link fixed point and the derivative pass it stopped on.

    pass_ is that pass (a path.Pass whose sizing is this sizing object)
    as PathModel.evaluate returns it, which computes no gate: its total
    is the delay, and a caller that needs the gradient or curvature
    there has it without another pass; a solve warm from this
    FixedPoint opens on it.  steps stays at index 2, where tracing reads
    it.  passes counts every derivative pass the solve took, damping
    trials included; a solve whose every row is pinned at its start, a
    one-gate path's among them, takes no step and one pass, at its start
    (none from a FixedPoint).  A named tuple, not a frozen dataclass:
    creating a dataclass costs about 1 ms at import.
    """

    sizing: Sizing
    pass_: Pass
    steps: int
    passes: int


def all_minimum(model: PathModel) -> Sizing:
    """The all-minimum corner: every free gate at minimum drive (cref)."""
    return (model.input_cap,) + (model.params.cref,) * (model.n - 1)


def max_delay_sizing(path: LogicPath, params: ProcessParams,
                     library: GateLibrary) -> tuple[Sizing, float]:
    """The all-minimum corner and its delay; the slowest the path can be."""
    model = PathModel(path, params, library)
    sizing = all_minimum(model)
    return sizing, model.evaluate(sizing).total


def _newton_solve(cin, grad, hd, ho, a: float, clamped, lo: int,
                  border: bool = False) -> list[list[float]] | None:
    """Solve the log-space Newton system at cin; None if it degenerates.

    The system M is the Jacobian of the residual r_j = cin[j] * (dT/dcin[j]
    - a) with respect to the log sizes: the exact delay Hessian mapped to
    log space, d2/dy2 = c^2 T'' + c (T' - a).  Gates clamped at cref
    (clamped[j]) whose residual pushes further down are pinned: each is a
    unit row with a zero right-hand side and no coupling, so it solves to
    exactly 0, and its coefficients are not computed.  The sweep visits
    rows lo..n-1 (lo = 1 for every row; none when lo = n); every row
    before lo must be pinned, and lo must be gate 1 or a pinned row, so a
    row left out changes nothing.  Each row is built and eliminated in
    one Thomas sweep; a pivot that is not positive means M is not
    positive definite, which strong fixed coupling causes.  Then the
    sweep runs again with every row whose diagonal does not exceed the
    sum of its absolute couplings (pinned neighbours included) given that
    sum times 1 + 1e-9 (its |diagonal| if it has no coupling).  The
    result is strictly diagonally dominant with a positive diagonal,
    hence positive definite.  Returns [M^-1 (-r)], and with border also
    M^-1 c, the response to the target a, eliminated in the same sweep,
    each over rows lo..n-1; None when a sweep of the dominance-fixed M
    fails too or a solution is not finite.
    """
    for dominant in (False, True):
        # A unit row stands ahead of the first; it is dropped at the end.
        piv, r, rv, o, o_raw = 1.0, 0.0, 0.0, 0.0, 0.0
        eliminated = []  # (off, pivot, rhs, border rhs) of each row
        push = eliminated.append
        for cj, cn, g, d, oo, cl in zip(
                cin[lo:], (*cin[lo + 1:], 0.0), grad[lo - 1:], hd[lo - 1:],
                ho[lo - 1:], clamped[lo:]):
            res = cj * (g - a)
            if cl and res > 0.0:
                # Pinned: the row above loses its coupling to this one.
                push((0.0, piv, r, rv))
                piv, r, rv, o = 1.0, 0.0, 0.0, 0.0
                if dominant:
                    o_raw = cj * cn * oo
                continue
            d = cj * cj * d + res
            o_next = cj * cn * oo
            if dominant:
                coupling = abs(o_next) + abs(o_raw)
                if not d > coupling:
                    d = coupling * (1.0 + 1e-9) if coupling else abs(d)
                o_raw = o_next
            push((o, piv, r, rv))
            w = o / piv
            piv = d - w * o
            if not piv > 0.0:
                break  # not positive definite
            r = -res - w * r
            rv = cj - w * rv
            o = o_next
        else:
            if not eliminated:
                return [[], []] if border else [[]]  # no row visited
            del eliminated[0]
            x = r / piv
            step = [x]
            for o, p, b, _ in reversed(eliminated):
                x = (b - o * x) / p
                step.append(x)
            step.reverse()
            if not all(map(math.isfinite, step)):
                continue
            if not border:
                return [step]
            x = rv / piv
            v = [x]
            for o, p, _, b in reversed(eliminated):
                x = (b - o * x) / p
                v.append(x)
            v.reverse()
            if all(map(math.isfinite, v)):
                return [step, v]
    return None


def _unpinned(held: Pass, a: float, clamped, lo: int) -> int:
    """The first row of the window a sweep from row lo visits: past the
    rows from lo on that the kernel's own test pins, led by the row before
    the first row kept; n, the empty window, when every row from lo on is
    pinned.  The clamped run at lo is tested whole first (_pins); the
    result is the row loop's bit for bit.  A pinned row after the first
    free one stays in the window: a unit row, it solves to exactly 0, and
    its proposal is its own size."""
    sizes, grad, n = held.sizing, held.grad, len(clamped)
    if lo < n and clamped[lo]:
        try:
            end = clamped.index(False, lo)
        except ValueError:
            end = n
        if _pins(sizes, grad, a, lo, end - 1):
            lo = end
    while lo < n and clamped[lo] and sizes[lo] * (grad[lo - 1] - a) > 0.0:
        lo += 1
    return lo if lo == n else max(1, lo - 1)


def _pins(sizes, grad, a: float, first: int, last: int) -> bool:
    """Whether the kernel pins every row of the clamped run first..last,
    by one test on the whole run: its smallest size times its smallest
    g - a is positive.  Sizes are positive and rounding is monotone, so
    each row's own sizes[j] * (grad[j - 1] - a) is then positive too.
    False for a run with a NaN g, which min can pass over, so the row
    loop of _unpinned decides there."""
    g = grad[first - 1:last]
    return (min(sizes[first:last + 1]) * (min(g) - a) > 0.0
            and not math.isnan(sum(g)))


def _newton_step(cin, grad, hd, ho, a: float, clamped,
                 lo: int) -> list[float]:
    """One log-space Newton step on the stationarity residual.

    Solves the system of _newton_solve over rows lo..n-1, exact or made
    diagonally dominant, so the step descends the merit.  The step is
    scaled to at most one e-fold per gate and applied multiplicatively:
    it returns the proposed sizes of rows lo..n-1, a pinned row's its own
    size.  The proposal is returned unclamped so the caller can damp
    along the undistorted direction; clamping each coordinate here would
    bend the direction and can turn it uphill.
    """
    solved = _newton_solve(cin, grad, hd, ho, a, clamped, lo)
    if solved is None:
        raise ConvergenceError("Newton system degenerated")
    step = solved[0]
    widest = max(map(abs, step)) if step else 0.0
    if widest > 1.0:
        step = [s / widest for s in step]
    return [c * math.exp(s) for c, s in zip(cin[lo:], step)]


def link_fixed_point(model: PathModel, a: float = 0.0,
                     warm: FixedPoint | Sequence[float] | None = None
                     ) -> FixedPoint:
    """Solve the equal-sensitivity stationarity system at target a <= 0.

    warm is one of three starts.  A FixedPoint of this same model (a
    sweep's previous row, say): the solve opens on its pass_, takes no
    pass there, and windows its next pass on it.  The pass must have this
    path's lengths, else ValueError; one of another model of the same
    length would be spliced in silently.  A full sizing, or None, the
    cold start (effort_seed): the clamped optimum of the logical-effort
    delay from input_cap to the load (with every weight 1 on a path with
    fixed coupling, the geometric taper cin[i] = input_cap * (load /
    input_cap)^(i/n) where that clamps no gate), which depends neither
    on a nor on cref unless it clamps; either is checked
    (PathModel.check_sizing, a ValueError for a size that is None or not
    finite), each free gate below cref is lifted to cref, and the solve
    takes a full pass there; no later pass is checked.  A bare Pass is
    a TypeError, and a start whose delay is not finite a
    ConvergenceError at iteration 0.  The solve drives the
    exact sensitivities dT/dcin[i] to a for every unclamped gate, within
    MAX_ITERATIONS steps.  Each iteration takes a tridiagonal Newton step
    off the pass that opens it, on the exact Hessian, each row that is not
    diagonally dominant made so where that is not positive definite.  The
    step sweeps one window of rows, a suffix of the chain: the chain less
    the rows pinned at its front in the first pass (_unpinned), trimmed so
    again after each step from the earlier of the window's first row and
    the new pass's, where the solve also updates its clamped flags; when
    the first pass pins every row, as on a one-gate path, the start is
    returned with no step.
    Every later pass is windowed on the pass the iteration holds
    (PathModel._pass).  A step is accepted only if it
    does not raise the descent merit T - a * sum(cin), else it is damped
    toward the previous sizing in log space, up to 20 halvings of one pass
    each.  Sizes are clamped at cref from below, which can bend every
    damping uphill (a free gate just above cref that the step shrinks);
    then one more pass moves only the gates the last damping held at cref,
    taken if it does not raise the merit, else the iteration stands still.
    a = 0 is the minimum-delay condition.  Once a step settles (sizes move
    less than CAP_TOL, the delay less than DELAY_TOL, both relative) on a
    certified pass (certified), it returns the sizing, that pass as
    evaluate returns it (which computes no gate), the steps and the
    passes taken as a FixedPoint.
    Each solve logs one debug line, converged or not: its steps, its
    passes and the gates they computed against n per pass, and the
    Newton rows its steps swept against n - 1 per step.
    """
    if not a <= 0:
        raise ValueError("sensitivity target a must be <= 0")
    n = model.n
    cref = model.params.cref

    passes = gates = rows = 0

    def opened(dv):
        """(a derivative pass, its descent merit)."""
        return dv, dv.total - a * sum(dv.sizing[1:])

    def visit(sizing, base, lo):
        """The pass at sizing, whose sizes differ from base's in lo..n-1
        alone."""
        nonlocal passes, gates
        dv = model._pass(sizing, base, lo)
        passes += 1
        gates += dv.gates
        return opened(dv)

    if isinstance(warm, Pass):
        raise TypeError("warm takes a FixedPoint, a sizing or None, not "
                        "a bare Pass")
    if isinstance(warm, FixedPoint):
        held = warm.pass_
        model.check_sizing(held.sizing)
        if not (len(held.grad) == len(held.diag) == len(held.off) == n - 1
                and len(held.terms) == len(held.slopes) == n):
            raise ValueError(f"warm pass does not match the path's {n} "
                             "gates")
        here = opened(held)
    else:
        start = effort_seed(model) if warm is None else warm
        model.check_sizing(start)  # then lift what it admits below cref
        here = visit([start[0], *[c if c > cref else cref
                                  for c in start[1:]]], None, 0)
    new = here[0]
    if not math.isfinite(new.total):
        raise ConvergenceError("sizing fixed point starts at a delay that "
                               "is not finite", iterations=0)
    clamped = model.clamped(new.sizing)
    lo = _unpinned(new, a, clamped, 1)

    # With every row pinned the start is the fixed point: no step.
    settled = lo == n
    steps = 0
    while not settled and steps < MAX_ITERATIONS:
        steps += 1
        held, merit = here
        cin = held.sizing
        prop = _newton_step(cin, held.grad, held.diag, held.off, a, clamped,
                            lo)
        rows += len(prop)
        ceiling = merit + abs(merit) * 1e-12
        # p if p > cref else cref is max(cref, p) bit for bit, in a third
        # of the time.
        nxt = visit([*cin[:lo], *[p if p > cref else cref for p in prop]],
                    held, lo)
        if nxt[1] > ceiling:
            # Damp along the unclamped direction, clamping after the
            # scale: scaling the clamped proposal instead would keep the
            # bent direction at every lambda.  If every damping ascends,
            # try moving only the gates the last one held at cref, unless
            # that is the last damping or no move; else stand still and
            # let the stopping rule decide.
            nxt = here
            start = cin[lo:]
            for k in range(1, 21):
                shrink = 0.5 ** k
                sizes = [max(cref, c * (p / c) ** shrink)
                         for c, p in zip(start, prop)]
                trial = visit([*cin[:lo], *sizes], held, lo)
                if trial[1] <= ceiling:
                    nxt = trial
                    break
            else:
                snap = [c if s > cref else cref for s, c in zip(sizes, start)]
                if snap != sizes and snap != list(start):
                    trial = visit([*cin[:lo], *snap], held, lo)
                    if trial[1] <= ceiling:
                        nxt = trial
        new, _ = here = nxt
        # Only the sizes of the pass's window moved, so no other flag
        # changes, and no row before it and lo can come free.
        first, last = new.first + 1, new.first + new.gates - 1
        if first <= last:
            clamped[first:last + 1] = model.clamped(new.sizing[first:last + 1])
            lo = _unpinned(new, a, clamped, min(lo, first))
        settled = (abs(new.total - held.total) <= DELAY_TOL * new.total
                   and _largest_move(new.sizing, cin, first, last) < CAP_TOL
                   and certified(model, new, a, lo, clamped))
    logger.debug("fixed point at a=%g: %d steps, %d derivative passes, %d "
                 "of %d gates computed, %d of %d rows swept", a, steps,
                 passes, gates, n * passes, rows, (n - 1) * steps)
    if not settled:
        raise ConvergenceError("sizing fixed point did not converge",
                               iterations=steps,
                               residual=_largest_move(new.sizing, cin, first,
                                                      last))
    new = new._replace(sizing=tuple(new.sizing))
    return FixedPoint(new.sizing, model.evaluate(new.sizing, new), steps,
                      passes)


def certified(model: PathModel, held: Pass, a: float, lo: int,
              clamped) -> bool:
    """The package's one stopping rule, read off the pass held at target a.

    Every unclamped gate has |g_j - a| <= SENSITIVITY_REL * |a| +
    RESIDUAL_TOL * T / cref, with T the pass's delay, and no clamped g_j
    lies more than that below a, which would make it grow.  Only gates
    lo..n-1 are read, before which every gate is pinned (lo = 1 for every
    gate; lo = n reads none): a pinned gate has g_j > a, so it always
    passes.  clamped holds the flags of held's sizes
    (PathModel.clamped).  link_fixed_point checks it once a step settles;
    the bordered Newton of distribute_constraint once its delay lies in
    its band.
    """
    tol = SENSITIVITY_REL * -a + RESIDUAL_TOL * held.total / model.params.cref
    return all(g - a >= -tol if c else abs(g - a) <= tol
               for g, c in zip(held.grad[lo - 1:], clamped[lo:]))


def _largest_move(new, old, first: int, last: int) -> float:
    """The largest relative change of a size among gates first..last,
    outside which no size changed (0.0 for none)."""
    if first > last:
        return 0.0
    return max(abs(x - y) / y for x, y in zip(new[first:last + 1],
                                              old[first:last + 1]))


def effort_seed(model: PathModel) -> list[float]:
    """The cold start of link_fixed_point: the clamped optimum of the
    delay sum_k w_k x_k / cin[k] from input_cap to the terminal load,
    with weights w per gate (PathModel.effort_weights): the sizes at cref
    or above that minimize it.

    Unclamped, that is the logical-effort taper: stage k, gate k driving
    gate k + 1, takes the gain h_k with w_k h_k the same for every stage,
    and the h_k multiply to the load over input_cap.  So gate i sits at
    input_cap * ratio^(i / n) times exp(i / n * (sum of log w) - (sum of
    log w over its i stages)); with all weights 1 that factor is exp(0),
    and the seed is the geometric taper bit for bit.  A taper that dips
    below cref instead holds at cref the gates of one concave hull
    (_held) and fills each stretch between them on its own taper, held
    at cref or above, once.  A taper that does not dip is kept bit for
    bit.
    """
    cref, n, right = model.params.cref, model.n, model.terminal_load
    logs = [math.log(w) for w in model.effort_weights()]
    out = [model.input_cap] * n
    if _taper(out, logs, 1, n, right, cref):
        ends = [0, *_held(out[0], right, logs, cref), n]
        for first, last in zip(ends, ends[1:]):
            if last < n:
                out[last] = cref
            _taper(out, logs, first + 1, last,
                   right if last == n else cref, cref)
    return out


def _taper(out, logs, start: int, stop: int, right: float,
           cref: float) -> bool:
    """Fill gates start..stop - 1 of out on the logical-effort taper from
    out[start - 1] to right (effort_seed), each held at cref or above;
    whether the taper dipped below cref at any of them."""
    left = out[start - 1]
    ratio = right / left
    span = stop - start + 1
    effort = sum(logs[start - 1:stop])
    drop = 0.0
    dipped = False
    for i in range(start, stop):
        drop += logs[i - 1]
        share = (i - start + 1) / span
        c = left * ratio ** share * math.exp(share * effort - drop)
        dipped = dipped or c < cref
        out[i] = max(cref, c)
    return dipped


def _held(left: float, right: float, logs, cref: float) -> list[int]:
    """The gates 1..n - 1 that the clamped optimum from left (gate 0) to
    right (the load past gate n - 1), with n = len(logs), holds at cref,
    in order.

    With z_i = log cin[i] + sum_{k<i} log w_k every stage costs exp(z[i+1]
    - z[i]), a convex function of the rise, so the optimum over cin >=
    cref is the least concave majorant (the taut string) of the two ends
    and the floor points (i, log cref + sum_{k<i} log w_k).  Its
    interior vertices are the gates held at cref; between them it is
    straight, which is the unclamped taper.  One monotone-chain upper hull
    builds it; a point on a chord is not a vertex.
    """
    floor = math.log(cref)
    n = len(logs)
    hull = [(0, math.log(left))]
    rise = 0.0
    for i in range(1, n + 1):
        rise += logs[i - 1]
        y = rise + (math.log(right) if i == n else floor)
        while len(hull) > 1:
            (x0, y0), (x1, y1) = hull[-2], hull[-1]
            if (y1 - y0) * (i - x0) > (y - y0) * (x1 - x0):
                break
            hull.pop()
        hull.append((i, y))
    return [i for i, _ in hull[1:-1]]


def min_delay_sizing(path: LogicPath, params: ProcessParams,
                     library: GateLibrary) -> tuple[Sizing, float, int]:
    """Fastest sizing of the path, its delay and the Newton steps taken.

    The cold a = 0 solve of link_fixed_point, so it stops once every
    unclamped exact sensitivity g_i has |g_i| <= 1e-6 * t_min / cref.  It
    starts on the clamped optimum of the logical-effort delay from
    input_cap to the terminal load (effort_seed).  Where every kind has
    cm_override_ff = 0, that start is the fastest sizing, clamped or
    not, and the solve certifies it in one step.  On libraries with
    strong fixed coupling (cm_override_ff) the delay can have several
    local minima, and the answer is the minimum whose basin the start
    lies in; a path with fixed coupling starts on the geometric taper,
    since the weighted one can start in a slower minimum's basin.  So
    the answer depends on the path alone: optimize, greedy buffering and
    the fanout probe solve every edited path this way.
    """
    fixed = link_fixed_point(PathModel(path, params, library), a=0.0)
    return fixed.sizing, fixed.pass_.total, fixed.steps


def compute_bounds(path: LogicPath, params: ProcessParams,
                   library: GateLibrary) -> DelayBounds:
    """Both delay extremes of a path: the all-minimum corner's delay, then
    the cold a = 0 solve of min_delay_sizing, on one PathModel."""
    return _model_bounds(PathModel(path, params, library))


def _model_bounds(model: PathModel) -> DelayBounds:
    """compute_bounds on a model of the path already built."""
    sizing_max = all_minimum(model)
    t_max = model.evaluate(sizing_max).total
    fixed = link_fixed_point(model)
    return DelayBounds(t_min=fixed.pass_.total, t_max=t_max,
                       sizing_min=fixed.sizing, sizing_max=sizing_max)


def feasibility(path: LogicPath, tc: float, bounds: DelayBounds) -> bool:
    """Whether a delay constraint is reachable by sizing alone."""
    if not tc > 0:
        raise ValueError("tc must be positive")
    return tc >= bounds.t_min
