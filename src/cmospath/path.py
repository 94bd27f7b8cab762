"""Bounded path representation and delay evaluation.

A path is a chain of inverting gates with both endpoints electrically
fixed: the first gate's input capacitance is pinned by the driving stage
and the last gate drives a fixed terminal load.  Evaluation walks the
chain once, alternating transition polarity at every node and feeding each
gate's output transition time into the next gate's delay term.

``PathModel`` builds one constant tuple per gate kind and input edge,
which ``stage``, ``coefficients`` and ``derivatives`` all read.
``process.stage_delay`` writes the stage delay: ``PathModel.stage``
calls it, and ``stage_size`` and ``stage_floor``, its inverse and its
unbounded-size floor, sit next to ``stage``.  The per-gate algebra lives
in one kernel (``_window``): one walk down the chain gives each gate's
stage delay, in stage_delay's order of operations, and its output
transition time, the exact gradient and tridiagonal Hessian, and the
total delay.  ``PathModel.derivatives`` returns them as a ``Pass``, the
one record of a pass the solvers hold, hand on and warm-start from; they
step on it, judge steps by its total and stop on its gradient, and its
total is the delay they report.  A pass taken on a base (an earlier
``Pass``) computes only the gates next to the sizes that moved and
splices them in, equal to the full pass bit for bit; the full pass is
that window over the whole chain.
``evaluate`` is ``derivatives`` plus the slow-input warnings: it returns
the same Pass, whose stage delays, transition times and total are the
evaluation; ``total_width`` gives the width.
``coefficients`` regroups the same expression by each gate's output
transition time into T = const + sum A_i * (cin[i+1] + c_par[i]) /
cin[i], freezing the Miller factors and parasitics at the current sizing.
At the freezing point it agrees with the pass's total to rounding.
Nothing in the package reads the frozen view (``CoefficientSet``,
``coefficients``, ``model_gradient`` and ``model_curvature``); it stays
only until the benchmark's trace spans on those methods are retired.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from operator import ne
from typing import NamedTuple, Sequence

from .errors import ConfigError, ConvergenceError
from .process import (
    FALLING,
    RISING,
    GateLibrary,
    GateTemplate,
    ProcessParams,
    add_entry,
    build_from_file,
    check_keys,
    config_lines,
    coupling_split,
    other_edge,
    output_scale,
    parse_number,
    read_config_file,
    require_finite,
    stage_delay,
)

Sizing = tuple[float, ...]

# Largest accepted capacitance (fF).  Far above any real net, and small
# enough that cubes of node capacitances in the curvature stay finite.
MAX_CAP_FF = 1e12


@dataclass(frozen=True)
class LogicPath:
    """A bounded chain of library gate kinds.

    gates            gate kind names, input to output
    input_cap        fixed input capacitance of the first gate (fF)
    terminal_load    fixed capacitance at the last output node (fF)
    input_edge       polarity of the transition entering gate 0
    driver_slope_rise / driver_slope_fall
                     transition time of the driving signal per polarity (ps)
    seed_cin         optional per-gate cin= values from the path file;
                     checked and carried through edits, read by no solver
    side_inverted    per-gate flag: True when the gate's side inputs pass
                     through added off-path inverters (set by rewrites)
    offpath_inverters  count of off-path inverters charged to this path's
                     area (kept at minimum drive)
    polarity_flips   net inversions added by single-inverter insertions
    """

    gates: tuple[str, ...]
    input_cap: float
    terminal_load: float
    input_edge: str = RISING
    driver_slope_rise: float = 0.0
    driver_slope_fall: float = 0.0
    seed_cin: tuple[float | None, ...] | None = None
    side_inverted: tuple[bool, ...] | None = None
    offpath_inverters: int = 0
    polarity_flips: int = 0

    def __post_init__(self):
        if len(self.gates) < 1:
            raise ValueError("a path needs at least one gate")
        require_finite(self, ("input_cap", "terminal_load",
                               "driver_slope_rise", "driver_slope_fall"))
        for name in ("input_cap", "terminal_load"):
            value = getattr(self, name)
            if value > MAX_CAP_FF:
                raise ValueError(f"{name} must be at most {MAX_CAP_FF:g} fF")
            if not value > 0:
                raise ValueError(f"{name} must be positive")
        if self.seed_cin is not None and not all(
                s is None or (math.isfinite(s) and s <= MAX_CAP_FF)
                for s in self.seed_cin):
            raise ValueError(
                f"seed_cin must be finite and at most {MAX_CAP_FF:g} fF")
        if self.input_edge not in (RISING, FALLING):
            raise ValueError("input_edge must be rising or falling, got "
                             f"{self.input_edge!r}")
        for name in ("driver_slope_rise", "driver_slope_fall"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.seed_cin is not None and len(self.seed_cin) != len(self.gates):
            raise ValueError("seed_cin length must match gates")
        if self.side_inverted is not None and len(self.side_inverted) != len(self.gates):
            raise ValueError("side_inverted length must match gates")
        if self.offpath_inverters < 0:
            raise ValueError("offpath_inverters must be non-negative")

    @property
    def n(self) -> int:
        return len(self.gates)

    def driver_slope(self) -> float:
        return (self.driver_slope_rise if self.input_edge == RISING
                else self.driver_slope_fall)

    def side_flag(self, i: int) -> bool:
        return bool(self.side_inverted[i]) if self.side_inverted is not None else False

    def records(self) -> list[tuple[str, float | None, bool]]:
        """Per-gate (kind, seed_cin, side_inverted), input to output."""
        seeds = self.seed_cin or (None,) * self.n
        flags = self.side_inverted or (False,) * self.n
        return list(zip(self.gates, seeds, flags))

    def with_records(self, records, **changes) -> LogicPath:
        """This path with its gates replaced by `records`.

        The one constructor of every path edit: the endpoints, edge and
        driver slopes carry over, `changes` sets any other field, and
        all-None seeds or all-False flags are stored as None.
        """
        gates, seeds, flags = zip(*records)
        return replace(
            self, gates=gates,
            seed_cin=seeds if any(s is not None for s in seeds) else None,
            side_inverted=flags if any(flags) else None, **changes)


@dataclass(frozen=True)
class CoefficientSet:
    """Frozen regrouping of the path delay at one sizing snapshot.

    a[i] multiplies (cin[i+1] + c_par[i]) / cin[i] in the frozen delay;
    c_par holds the parasitics frozen at the snapshot.  The constant term
    is the driving stage's slope contribution into gate 0.
    """

    a: tuple[float, ...]
    c_par: tuple[float, ...]
    constant_term: float
    terminal_load: float

    def frozen_delay(self, sizing: Sizing) -> float:
        n = len(self.a)
        total = self.constant_term
        for i in range(n):
            nxt = sizing[i + 1] if i < n - 1 else self.terminal_load
            total += self.a[i] * (nxt + self.c_par[i]) / sizing[i]
        return total


class Pass(NamedTuple):
    """One derivative pass of a PathModel, the one record of it, which
    evaluate returns too.

    grad, diag and off are the exact gradient and tridiagonal Hessian over
    the free gates at sizing, total the exact delay there.  terms are the
    n stage delays, the driving slope's share in gate 0's, whose running
    sum from 0.0 in gate order is total; slopes are the n output
    transition times.  A later pass on this one as its base splices into
    both.  gates counts the gates the pass computed (n for a full pass, 0
    when no size moved), and first is the first of them: rows
    first+1..first+gates-1 are the ones it computed.
    """

    grad: tuple[float, ...]
    diag: list[float]
    off: list[float]
    total: float
    sizing: Sequence[float]
    terms: list[float]
    slopes: list[float]
    gates: int
    first: int = 0


def _moved(sizing, base) -> tuple[int, int]:
    """(first, last): the gates from two before the first size that
    differs from base's to one past the last, clipped to the chain;
    (0, -1) when no size differs."""
    moved = list(map(ne, sizing, base))
    if not any(moved):
        return 0, -1
    n = len(moved)
    return (max(0, moved.index(True) - 2),
            min(n - 1, n - moved[::-1].index(True)))


def _gate_constants(template: GateTemplate, edge_in: str,
                    params: ProcessParams, v_next: float) -> tuple:
    """A gate's delay constants for one input edge, as a plain tuple:

        (tau_s, v_half, gamma, cm_fixed, par, k_half, v_next,
         gamma * gamma, 2 * gamma * par, par * par)

    tau_s is tau * S for the output edge, v_half half the threshold
    weighting the input slope, c_m = gamma * cin + cm_fixed the coupling
    and par * cin the parasitic.  k_half = tau_s / 2, and v_next is the
    threshold of the next gate's input (0 for a path's last gate).  The
    last three are the products the curvature reads.  A plain tuple
    unpacks faster than a named one in the derivative loop.
    """
    tau_s = output_scale(template, other_edge(edge_in), params)
    gamma, cm_fixed = coupling_split(template, edge_in, params)
    par = template.par_coeff
    return (tau_s, params.threshold(edge_in) / 2.0, gamma, cm_fixed, par,
            tau_s / 2.0, v_next, gamma * gamma, 2.0 * gamma * par, par * par)


class PathModel:
    """Per-path evaluation context with the edge chain precomputed.

    Alternating polarity fixes, per gate: which symmetry factor governs
    its output transition, which threshold weights its input slope term,
    and which coupling split applies.  Solvers construct one model per
    structure and reuse it across iterations.
    """

    def __init__(self, path: LogicPath, params: ProcessParams,
                 library: GateLibrary):
        self.path = path
        self.params = params
        self.n = path.n
        self.input_cap = path.input_cap
        self.terminal_load = path.terminal_load

        if path.input_cap < params.cref * (1.0 - 1e-12):
            raise ValueError("input_cap below the minimum realizable cin")

        # One entry (template, constants) per (kind, input edge), shared
        # by its gates.
        table: dict[tuple[str, str], tuple[GateTemplate, tuple]] = {}
        self.templates: list[GateTemplate] = []
        self.out_edges: list[str] = []
        self._consts: list[tuple] = []
        edge_in = path.input_edge
        edge_out = other_edge(edge_in)
        for kind in path.gates:
            entry = table.get((kind, edge_in))
            if entry is None:
                template = library.get(kind)
                if template is None:
                    raise ConfigError(f"unknown gate kind: {kind}")
                entry = table[kind, edge_in] = template, _gate_constants(
                    template, edge_in, params, params.threshold(edge_out))
            self.templates.append(entry[0])
            self._consts.append(entry[1])
            self.out_edges.append(edge_out)
            edge_in, edge_out = edge_out, edge_in
        # No gate follows the last one, so no threshold weights its output.
        last = self._consts[-1]
        self._consts[-1] = last[:6] + (0.0,) + last[7:]

    def check_sizing(self, sizing) -> None:
        if len(sizing) != self.n:
            raise ValueError("mismatched sizing length: "
                             f"{len(sizing)} sizes for {self.n} gates")
        try:
            moved = abs(sizing[0] - self.input_cap) > 1e-9 * self.input_cap
            smallest = min(sizing)
            finite = math.isfinite(sum(sizing))
        except TypeError:  # None, checked here to keep every pass cheap
            raise ValueError(f"cin[{list(sizing).index(None)}] has no size"
                             ) from None
        if not finite:
            for i, c in enumerate(sizing):
                if not math.isfinite(c):
                    raise ValueError(f"cin[{i}] must be finite, got {c!r}")
        if moved:
            raise ValueError("cin[0] must equal the path's fixed input_cap")
        floor = self.params.cref * (1.0 - 1e-9)
        if not smallest >= floor:
            for i, c in enumerate(sizing):
                if c < floor:
                    raise ValueError(
                        f"cin[{i}] below the minimum realizable cin")

    def total_width(self, sizing) -> float:
        cap = sum(sizing) + self.path.offpath_inverters * self.params.cref
        return cap / self.params.cap_per_width

    def stage(self, i: int, cin: float, x: float,
              slope: float) -> tuple[float, float]:
        """(delay, output transition time) of gate i at size cin, driving
        downstream node capacitance x from an input transition slope."""
        tau_s, v_half, gamma, cm_fixed, par = self._consts[i][:5]
        return stage_delay(tau_s, v_half, gamma * cin + cm_fixed, cin,
                           x + par * cin, slope)

    def stage_floor(self, i: int, slope: float) -> float:
        """The delay stage(i, cin, x, slope) approaches from above as cin
        grows without bound, for any x."""
        tau_s, v_half, gamma, _, par = self._consts[i][:5]
        span = par + gamma
        return v_half * slope + (
            tau_s * par * (par + 3.0 * gamma) / (2.0 * span) if span else 0.0)

    def stage_size(self, i: int, delay: float, x: float,
                   slope: float) -> float:
        """The one cin at which stage(i, cin, x, slope) takes a delay above
        stage_floor: the positive root of the stage delay times 2 cin (load
        + c_m) / tau_s, a quadratic q2 cin^2 + q1 cin + q0 with q2 <= 0 <
        q0, in the root form whose denominator does not cancel."""
        tau_s, v_half, gamma, cm_fixed, par = self._consts[i][:5]
        k = 2.0 * (delay - v_half * slope) / tau_s
        q2 = par * (par + 3.0 * gamma) - k * (par + gamma)
        q1 = (x * (par + 3.0 * gamma) + par * (x + 3.0 * cm_fixed)
              - k * (x + cm_fixed))
        q0 = x * (x + 3.0 * cm_fixed)
        r = math.sqrt(q1 * q1 - 4.0 * q2 * q0)
        return (q1 + r) / (-2.0 * q2) if q1 > 0 else 2.0 * q0 / (r - q1)

    def evaluate(self, sizing, base: Pass | None = None) -> Pass:
        """Exact chained delay of the path at one sizing: the Pass of
        derivatives(sizing, base), its stage delays, output transition
        times and total included.  With slope_warn_ratio set, every gate
        whose input transition exceeds that many times its output
        transition warns, in gate order, whether the pass computed the
        gate or spliced it from base.
        """
        dv = self.derivatives(sizing, base)
        warn_ratio = self.params.slope_warn_ratio
        if warn_ratio is not None:
            slope = self.path.driver_slope()
            for i, t_out in enumerate(dv.slopes):
                if slope > warn_ratio * t_out:
                    warnings.warn(
                        f"gate {i} ({self.path.gates[i]}): input transition "
                        f"{slope:.4g} ps exceeds {warn_ratio:g}x its output "
                        f"transition {t_out:.4g} ps; model accuracy "
                        "degrades for slow inputs", stacklevel=2)
                slope = t_out
        return dv

    def coefficients(self, sizing) -> CoefficientSet:
        """Freeze Miller factors and parasitics at the given sizing.

        Gate i's output transition time appears twice in the exact total:
        in its own Miller term and in gate i+1's slope term.  Collecting
        both gives a[i] = tau * S_i * (M_i + v_next) / 2, with v_next = 0
        for the last gate.  The driving slope contributes the constant.
        """
        self.check_sizing(sizing)
        a = []
        c_par = []
        for ((tau_s, _, gamma, cm_fixed, par, _, v_next, _, _, _), c,
             x) in zip(self._consts, sizing,
                       (*sizing[1:], self.terminal_load)):
            cp = par * c
            load = x + cp
            c_m = gamma * c + cm_fixed
            m = 1.0 + 2.0 * c_m / (c_m + load)
            a.append(tau_s * (m + v_next) / 2.0)
            c_par.append(cp)
        constant = self._consts[0][1] * self.path.driver_slope()
        return CoefficientSet(tuple(a), tuple(c_par), constant,
                              self.terminal_load)

    def derivatives(self, sizing, base: Pass | None = None) -> Pass:
        """Stage delays, exact gradient, tridiagonal Hessian and total in
        one pass.

        Gate i's stage delay is process.stage_delay's, v_half_i * t_in +
        M_i * t_out_i / 2, with t_in the driving slope for gate 0 and
        t_out_(i-1) after it.  Collecting gate i's output transition time
        from its own Miller term and gate i+1's slope term, the total is
        a constant plus sum_i f_i(cin[i], x_i), where x_i is gate i's
        downstream node (cin[i+1], or the terminal load for the last gate)
        and f_i = tau * S_i * (M_i + v_next) * load_i / (2 * cin[i]).
        Growing cin[j] loads gate j-1 (raising its transition time but
        lowering its Miller factor), speeds up gate j's own fanout and
        raises gate j's coupling share, so over the free gates 1..n-1:

            grad[j-1] = f_x[j-1] + f_c[j]     dT/dcin[j]
            diag[j-1] = f_xx[j-1] + f_cc[j]   d2T/dcin[j]^2
            off[j-1]  = f_cx[j]               d2T/dcin[j]dcin[j+1]

        with off zero for the last gate, whose downstream node is the
        fixed terminal load.  Only adjacent gates couple, so the full
        Hessian is this symmetric tridiagonal matrix.  The total is the
        stage delays added from 0.0 in gate order.  A one-gate path has
        no free gate: its grad, diag and off are empty.

        With base, an earlier Pass of this model, if sizes lo..hi differ
        from base's, only gates lo-2..hi+1 are computed, the first of them
        driven by base's transition time before it, their rows, delays
        and transition times spliced into base's, and the total re-added
        in gate order, so the pass equals the full one bit for bit; if no
        size differs, no gate is computed.  The full pass is the same
        window over the whole chain.  A node capacitance so small that
        its square underflows to 0 raises ConvergenceError.
        """
        self.check_sizing(sizing)
        n = self.n
        first, last = 0, n - 1
        if base is not None:
            first, last = _moved(sizing, base.sizing)
            if first > last:
                return base._replace(sizing=sizing, gates=0, first=0)
        slope = base.slopes[first - 1] if first else self.path.driver_slope()
        try:
            terms, slopes, grad, diag, off = self._window(sizing, first,
                                                          last, slope)
        except ZeroDivisionError:
            raise ConvergenceError("derivative pass underflowed: a node "
                                   "capacitance squares to 0") from None
        if last == n - 1 and off:
            off[-1] = 0.0  # the last gate drives the fixed terminal load
        if first == 0 and last == n - 1:
            grad = tuple(grad)
        else:
            terms = [*base.terms[:first], *terms, *base.terms[last + 1:]]
            slopes = [*base.slopes[:first], *slopes, *base.slopes[last + 1:]]
            grad = (*base.grad[:first], *grad, *base.grad[last:])
            diag = [*base.diag[:first], *diag, *base.diag[last:]]
            off = [*base.off[:first], *off, *base.off[last:]]
        total = 0.0
        for term in terms:
            total += term
        return Pass(grad, diag, off, total, sizing, terms, slopes,
                    last - first + 1, first)

    def _window(self, sizing, first: int, last: int, t_out: float):
        """Gates first..last of a derivative pass, the one copy of its
        per-gate algebra: their stage delays and output transition times,
        gate first driven by the transition time t_out, and (grad, diag,
        off) of rows first+1..last.  Each stage delay and transition time
        is process.stage_delay's, operation for operation.  Gate first is
        peeled off the loop: its own row lies outside the window, so only
        its delay, its transition time and its pull on row first+1 are
        taken.  sizing is checked."""
        gates = zip(self._consts[first:last + 1], sizing[first:last + 1],
                    (*sizing[first + 1:last + 2], self.terminal_load))
        (tau_s, v_half, gamma, cm_fixed, p, k_half, v_next, _, _, _), c, x = \
            next(gates)
        load = x + p * c
        m = gamma * c + cm_fixed
        den = m + load
        miller = 1.0 + 2.0 * m / den
        mil_v = miller + v_next
        t_in, t_out = t_out, tau_s * load / c
        terms = [v_half * t_in + miller * t_out / 2.0]
        slopes = [t_out]
        den2 = den * den
        mil_load = -2.0 * m / den2
        mil_loadload = 4.0 * m / (den2 * den)
        f_x_up = k_half * (mil_load * load / c + mil_v / c)
        f_xx_up = k_half * (mil_loadload * load / c + 2.0 * mil_load / c)
        grad = []
        diag = []
        off = []
        for ((tau_s, v_half, gamma, cm_fixed, p, k_half, v_next, gamma_gamma,
              gamma_par2, par_par), c, x) in gates:
            load = x + p * c
            m = gamma * c + cm_fixed
            den = m + load
            miller = 1.0 + 2.0 * m / den
            mil_v = miller + v_next
            t_in, t_out = t_out, tau_s * load / c
            terms.append(v_half * t_in + miller * t_out / 2.0)
            slopes.append(t_out)
            den2 = den * den
            den3 = den2 * den
            mil_m = 2.0 * load / den2
            mil_load = -2.0 * m / den2
            mil_mm = -4.0 * load / den3
            mil_mload = 2.0 * (m - load) / den3
            mil_loadload = 4.0 * m / den3
            mil_c = gamma * mil_m + p * mil_load
            cc = c * c
            f_c = k_half * (mil_c * load / c - mil_v * x / cc)
            f_cc = k_half * (
                (gamma_gamma * mil_mm + gamma_par2 * mil_mload
                 + par_par * mil_loadload) * load / c
                - 2.0 * mil_c * x / cc
                + 2.0 * mil_v * x / (cc * c))
            grad.append(f_x_up + f_c)
            diag.append(f_cc + f_xx_up)
            off.append(k_half * (
                (gamma * mil_mload + p * mil_loadload) * load / c
                + mil_c / c - mil_load * x / cc - mil_v / cc))
            f_x_up = k_half * (mil_load * load / c + mil_v / c)
            f_xx_up = k_half * (mil_loadload * load / c + 2.0 * mil_load / c)
        return terms, slopes, grad, diag, off

    def model_gradient(self, sizing) -> tuple[float, ...]:
        """Exact-model delay sensitivities for the free gates 1..n-1."""
        return self.derivatives(sizing)[0]

    def model_curvature(self, sizing) -> tuple[list[float], list[float]]:
        """(diag, off) of the exact tridiagonal Hessian over the free gates."""
        return self.derivatives(sizing)[1:3]

    def effort_weights(self) -> list[float]:
        """Each gate's logical-effort weight w_i = k_half_i (1 + v_next_i).

        With the Miller and coupling terms dropped the total is a constant
        plus sum_i w_i (x_i / cin[i] + par_i).  Its clamped optimum, the
        sizing at cref or above that minimizes it, starts cold solves
        (bounds.effort_seed): the taper of equal weighted stage effort
        between the gates it holds at cref.  A path with any fixed
        coupling (cm_override) weighs every gate 1, the geometric taper:
        there the weighted one can start the solve in a slower minimum's
        basin.
        """
        if any(c[3] for c in self._consts):
            return [1.0] * self.n
        return [c[5] * (1.0 + c[6]) for c in self._consts]

    def clamped(self, sizing) -> list[bool]:
        """Which free gates sit at the minimum realizable size."""
        floor = self.params.cref * (1.0 + 1e-9)
        return [c <= floor for c in sizing]


def evaluate_path(path: LogicPath, sizing, params: ProcessParams,
                  library: GateLibrary) -> Pass:
    """Exact chained delay, stage delays and slopes at one sizing."""
    return PathModel(path, params, library).evaluate(sizing)


_PATH_HEADER_KEYS = {
    "input_cap_ff": "input_cap",
    "load_ff": "terminal_load",
    "input_edge": "input_edge",
    "driver_slope_rise_ps": "driver_slope_rise",
    "driver_slope_fall_ps": "driver_slope_fall",
}

_PATH_REQUIRED = ("input_cap_ff", "load_ff")


def parse_path_file(text: str) -> LogicPath:
    """Parse the line-oriented path format into a LogicPath.

    Header ``key = value`` lines first (input_cap_ff and load_ff required;
    input_edge defaults to rising, driver slopes to 0), then one gate kind
    per line with an optional ``cin=<fF>`` starting size.  The grammar is
    the process config's: ``#`` comments, a one-word key before ``=``,
    unknown keys rejected, errors reported with the key and its line.
    """
    header: dict = {}
    gates: list[str] = []
    seeds: list[float | None] = []

    for line_no, line, key, raw_value in config_lines(text):
        if key is not None:
            if gates and key in _PATH_HEADER_KEYS:
                raise ConfigError(f"header key {key} after gate lines", line_no)
            add_entry(header, key, raw_value, line_no,
                      number=key != "input_edge")
            continue
        kind, *tokens = line.split()
        seed = None
        for token in tokens:
            name, _, raw_seed = token.partition("=")
            if name != "cin" or not raw_seed:
                raise ConfigError(f"unexpected token {token!r} on gate line",
                                  line_no)
            seed = parse_number(raw_seed, line_no,
                                f"cin on gate line: {token!r}")
            if not 0 < seed <= MAX_CAP_FF:
                raise ConfigError("cin on gate line must be positive and "
                                  f"finite, at most {MAX_CAP_FF:g} fF", line_no)
        gates.append(kind)
        seeds.append(seed)

    check_keys(header, _PATH_HEADER_KEYS, _PATH_REQUIRED)
    if not gates:
        raise ConfigError("path file lists no gates")
    return build_from_file(
        LogicPath, header, _PATH_HEADER_KEYS, gates=tuple(gates),
        seed_cin=tuple(seeds) if any(s is not None for s in seeds) else None)


def parse_path_text_file(path: str) -> LogicPath:
    """parse_path_file on a file, prefixing errors with the file name."""
    return read_config_file(path, "path file", parse_path_file)
