"""Fanout limits and buffer insertion.

A gate kind has a characteristic fanout beyond which handing its load to
an optimally sized buffer is faster than driving the load directly.  That
crossing, measured on a two-gate probe structure, depends only on the
loaded gate, the buffer kind, and the process: the driving stage
contributes identically to both alternatives.  Nodes whose effective
fanout exceeds the limit of their driving gate are where insertion pays;
insertion is accepted greedily, worst node first, only while the global
minimum delay keeps improving.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .bounds import min_delay_sizing, splice_sizing
from .errors import ConfigError
from .path import GateLibrary, LogicPath, PathModel, Sizing
from .process import EDGES, GateTemplate, ProcessParams

FLIMIT_LO = 1.0
FLIMIT_HI = 100.0
FLIMIT_TOL = 1e-3
IMPROVE_TOL = 1e-3
MAX_INSERTIONS = 32
TIE_RTOL = 1e-9


@dataclass(frozen=True)
class FanoutLimit:
    """Break-even fanout of a (driver, gate) pair; inf when none in range."""

    driver: str
    gate: str
    f_limit: float

    def __post_init__(self):
        if not self.f_limit > 1.0:
            raise ValueError("f_limit must exceed 1")

    @property
    def finite(self) -> bool:
        return math.isfinite(self.f_limit)


def optimal_buffer_size(a_gate: float, cin_gate: float, a_buf: float,
                        c_par_buf_coeff: float, load: float,
                        params: ProcessParams) -> float:
    """Buffer input capacitance minimizing the frozen two-stage delay.

    Stationarity of a_gate * C_buf / cin_gate + a_buf * load / C_buf gives
    C_buf = sqrt(a_buf * load * cin_gate / a_gate); one re-freeze folds the
    buffer's own parasitic back into its load.  Clamped at cref.
    """
    if min(a_gate, a_buf, cin_gate, load) <= 0:
        raise ValueError("coefficients, cin_gate, and load must be positive")
    c0 = math.sqrt(a_buf * load * cin_gate / a_gate)
    c1 = math.sqrt(a_buf * (load + c_par_buf_coeff * c0) * cin_gate / a_gate)
    return max(c1, params.cref)


def _probe_paths(gate: str, buffer_kind: str, cin: float, fanout: float,
                 edge: str) -> tuple[LogicPath, LogicPath]:
    """Plain and buffered probe structures, the buffer kind driving both."""
    common = dict(input_cap=cin, terminal_load=fanout * cin,
                  input_edge=edge, driver_slope_rise=0.0,
                  driver_slope_fall=0.0)
    return (LogicPath(gates=(buffer_kind, gate), **common),
            LogicPath(gates=(buffer_kind, gate, buffer_kind), **common))


def _buffered_probe_delay(model: PathModel, cin: float, load: float,
                          params: ProcessParams) -> float:
    """Delay of the 3-gate probe with its buffer optimally sized."""
    p_buf = model.templates[2].par_coeff
    c_buf = max(params.cref, math.sqrt(cin * load))
    for _ in range(6):
        coeffs = model.coefficients((cin, cin, c_buf))
        new = optimal_buffer_size(coeffs.a[1], cin, coeffs.a[2], p_buf,
                                  load, params)
        if abs(new - c_buf) <= 1e-9 * c_buf:
            c_buf = new
            break
        c_buf = new
    return model.evaluate((cin, cin, c_buf)).total_delay


def flimit(driver: str, gate: str, params: ProcessParams,
           library: GateLibrary, buffer_kind: str = "inv") -> FanoutLimit:
    """Break-even fanout of `gate` under `driver`, probed in [1, 100].

    Compares the plain two-gate structure against the same structure with
    an optimally sized buffer appended, full chained delays averaged over
    both input polarities, and bisects the crossing to 1e-3 absolute.
    Returns f_limit = inf when the buffered structure never wins in range.

    The driving stage adds the same delay to both structures, so the probe
    always uses the buffer kind as its driver and the crossing is computed
    once per process for each (gate, buffer) template pair.
    """
    for kind in (driver, gate, buffer_kind):
        if kind not in library:
            raise ConfigError(f"unknown gate kind: {kind}")
    value = _crossing(params, gate, library[gate], buffer_kind,
                      library[buffer_kind])
    return FanoutLimit(driver, gate, value)


@functools.lru_cache(maxsize=256)
def _crossing(params: ProcessParams, gate: str, gate_template: GateTemplate,
              buffer_kind: str, buffer_template: GateTemplate) -> float:
    """The bisection behind `flimit`, keyed on frozen values only.

    The kind names ride along with their templates because the probe
    paths refer to the gates by the names the library files them under.
    """
    library = {gate: gate_template, buffer_kind: buffer_template}
    cin = 64.0 * params.cref

    def gap(fanout: float) -> float:
        total = 0.0
        for edge in EDGES:
            plain, buffered = _probe_paths(gate, buffer_kind, cin, fanout,
                                           edge)
            d_plain = PathModel(plain, params, library).evaluate(
                (cin, cin)).total_delay
            d_buf = _buffered_probe_delay(
                PathModel(buffered, params, library), cin, fanout * cin,
                params)
            total += d_buf - d_plain
        return total / len(EDGES)

    lo, hi = FLIMIT_LO, FLIMIT_HI
    if gap(lo) <= 0.0:
        # Buffering already wins at unit fanout; the limit degenerates.
        return 1.0 + FLIMIT_TOL
    if gap(hi) > 0.0:
        return math.inf
    while hi - lo > FLIMIT_TOL:
        mid = 0.5 * (lo + hi)
        if gap(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def flimit_table(params: ProcessParams, library: GateLibrary,
                 buffer_kind: str = "inv") -> dict[tuple[str, str], FanoutLimit]:
    """Fanout limits for the full driver x gate matrix of the library."""
    table: dict[tuple[str, str], FanoutLimit] = {}
    for driver in library:
        for gate in library:
            table[(driver, gate)] = flimit(driver, gate, params, library,
                                           buffer_kind)
    return table


class FlimitCache:
    """Lazy fanout-limit lookup keyed by (driver_kind, gate_kind)."""

    def __init__(self, params: ProcessParams, library: GateLibrary,
                 buffer_kind: str = "inv"):
        self.params = params
        self.library = library
        self.buffer_kind = buffer_kind
        self._table: dict[tuple[str, str], FanoutLimit] = {}

    def __getitem__(self, key: tuple[str, str]) -> FanoutLimit:
        if key not in self._table:
            driver, gate = key
            self._table[key] = flimit(driver, gate, self.params,
                                      self.library, self.buffer_kind)
        return self._table[key]


def find_critical_nodes(path: LogicPath, sizing, limits,
                        params: ProcessParams, library: GateLibrary,
                        buffer_kind: str = "inv") -> list[int]:
    """Gate indices whose effective fanout exceeds their kind's limit.

    Effective fanout of gate i is (next cin + own parasitic) / cin[i]; the
    applicable limit is looked up under the gate's actual driver (the
    buffer kind stands in for the external driver of gate 0).  Sorted by
    overshoot ratio, worst first.  Ratios within TIE_RTOL (relative) of
    the worst one left count as tied and go in index order, so rounding
    in the last bits of the sizing cannot reorder nodes that tie exactly.
    """
    model = PathModel(path, params, library)
    model.check_sizing(sizing)
    flagged: list[tuple[float, int]] = []
    for i in range(model.n):
        nxt = sizing[i + 1] if i < model.n - 1 else model.terminal_load
        fanout = (nxt + model._par[i] * sizing[i]) / sizing[i]
        driver = path.gates[i - 1] if i > 0 else buffer_kind
        limit = limits[(driver, path.gates[i])].f_limit
        if math.isfinite(limit) and fanout > limit:
            flagged.append((fanout / limit, i))
    flagged.sort(key=lambda item: (-item[0], item[1]))
    order: list[int] = []
    while flagged:
        lead = flagged[0][0]
        tied = [item for item in flagged if item[0] >= lead * (1.0 - TIE_RTOL)]
        order.extend(sorted(i for _, i in tied))
        flagged = flagged[len(tied):]
    return order


def insert_buffers(path: LogicPath, node_indices, buffer_kind: str = "inv",
                   polarity_mode: str = "pair") -> LogicPath:
    """Insert buffers after the given gate indices.

    ``pair`` mode adds two inverters (polarity preserving), ``single``
    adds one and records the net inversion on the path.  New gates enter
    unsized (minimum drive until the next global resize).
    """
    if polarity_mode not in ("single", "pair"):
        raise ValueError(f"bad polarity_mode: {polarity_mode!r}")
    indices = sorted(set(node_indices))
    if not indices:
        return path
    if indices[0] < 0 or indices[-1] >= path.n:
        raise ValueError("buffer insertion index out of range")

    count = 1 if polarity_mode == "single" else 2
    records = path.records()
    for i in reversed(indices):
        records[i + 1:i + 1] = [(buffer_kind, None, False)] * count
    return path.with_records(records, polarity_flips=(
        path.polarity_flips + (len(indices) if count == 1 else 0)))


@dataclass(frozen=True)
class BufferingOutcome:
    """Result of greedy insertion with global resizing."""

    path: LogicPath
    sizing: Sizing
    t_min: float
    insertions: tuple[tuple[int, str], ...]  # (index in the path it was applied to, mode)


def min_delay_with_buffers(path: LogicPath, params: ProcessParams,
                           library: GateLibrary, buffer_kind: str = "inv",
                           polarity_mode: str = "pair",
                           limits=None, *, start=None) -> BufferingOutcome:
    """Greedy buffer insertion: worst over-limit node, one at a time.

    After each tentative insertion the whole path is resized for minimum
    delay, starting from the current sizing with the new buffers spliced
    in (splice_sizing); the insertion sticks only if it improves t_min by
    at least 0.1%, and its sizing is then the one the next trial splices.
    Stops when no node is over its limit or the gain dries up.
    Never returns a slower path than the input, whose min-delay solve
    (sizing, t_min) is passed as `start` when the caller already has it.
    """
    if limits is None:
        limits = FlimitCache(params, library, buffer_kind)
    current = path
    sizing, t_min = start or min_delay_sizing(current, params, library)[:2]
    steps: list[tuple[int, str]] = []
    for _ in range(MAX_INSERTIONS):
        nodes = find_critical_nodes(current, sizing, limits, params, library,
                                    buffer_kind)
        accepted = False
        for node in nodes:
            candidate = insert_buffers(current, [node], buffer_kind,
                                       polarity_mode)
            warm = splice_sizing(
                [*sizing[:node + 1], *(None,) * (candidate.n - current.n),
                 *sizing[node + 1:]], candidate, params.cref)
            cand_sizing, cand_t, _ = min_delay_sizing(candidate, params,
                                                      library, warm=warm)
            if cand_t < t_min * (1.0 - IMPROVE_TOL):
                steps.append((node, polarity_mode))
                current, sizing, t_min = candidate, cand_sizing, cand_t
                accepted = True
                break
        if not accepted:
            break
    return BufferingOutcome(path=current, sizing=sizing, t_min=t_min,
                            insertions=tuple(steps))
