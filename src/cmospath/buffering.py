"""Fanout limits and buffer insertion.

A gate kind has a characteristic fanout beyond which handing its load to
an optimally sized buffer is faster than driving the load directly.  The
probe compares the gate alone against the gate with a buffer that
min_delay_sizing sizes, so the crossing depends only on the loaded gate,
the buffer kind, and the process.  A gate's fanout is its downstream
node's capacitance over its own input capacitance (`load_ratios`); the
model adds the gate's parasitic par_coeff * cin on top, in the probe and
on a path alike.  The gate whose fanout most exceeds its kind's limit is
where insertion pays; insertion is accepted greedily, one site per round,
only while the global minimum delay keeps improving.  The probe holds the
gate's size fixed and sees no edge flip, so a round also tries the worst
gate below its limit where the path wants more stages, and in single
mode the other over-limit gates and the best flip site; it keeps the
fastest site that pays (`_sites`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .bounds import min_delay_sizing
from .errors import ConfigError
from .path import GateLibrary, LogicPath, PathModel, Sizing
from .process import (EDGES, GateTemplate, ProcessParams, coupling_split,
                      other_edge, output_scale, stage_delay)

FLIMIT_LO = 1.0
FLIMIT_HI = 100.0
FLIMIT_TOL = 1e-3
IMPROVE_TOL = 1e-3
MAX_INSERTIONS = 32
TIE_RTOL = 1e-9


def flimit(gate: str, params: ProcessParams, library: GateLibrary,
           buffer_kind: str = "inv") -> float:
    """Break-even fanout of `gate`, probed in [1, 100]; inf when none.

    Compares the gate alone, driving fanout times its cin, against the
    same gate with a buffer appended and sized by min_delay_sizing (the
    gate's cin is pinned, so the buffer is the one free size), delays
    averaged over both input polarities, and bisects the crossing to 1e-3
    absolute.  Returns inf when the buffered structure never wins in
    range.  A driving stage would add the same delay and the same input
    slope into the gate to both structures, so the probe has none: the
    limit depends only on the gate, the buffer kind and the process, and
    it is computed once for each (gate, buffer) template pair.
    """
    for kind in (gate, buffer_kind):
        if kind not in library:
            raise ConfigError(f"unknown gate kind: {kind}")
    return _crossing(params, gate, library[gate], buffer_kind,
                     library[buffer_kind])


@functools.lru_cache(maxsize=256)
def _crossing(params: ProcessParams, gate: str, gate_template: GateTemplate,
              buffer_kind: str, buffer_template: GateTemplate) -> float:
    """The bisection behind `flimit`, keyed on frozen values only.

    The kind names ride along with their templates because the probe
    paths refer to the gates by the names the library files them under.
    """
    library = {gate: gate_template, buffer_kind: buffer_template}
    cin = 64.0 * params.cref
    # The gate alone per input edge, timed as its one stage: the probe has
    # no driver slope, so that is the whole path delay.
    plain = {edge: PathModel(LogicPath(gates=(gate,), input_cap=cin,
                                       terminal_load=cin, input_edge=edge),
                             params, library) for edge in EDGES}

    def gap(fanout: float) -> float:
        total = 0.0
        for edge in EDGES:
            buffered = LogicPath(gates=(gate, buffer_kind), input_cap=cin,
                                 terminal_load=fanout * cin, input_edge=edge)
            total += (min_delay_sizing(buffered, params, library)[1]
                      - plain[edge].stage(0, cin, fanout * cin, 0.0)[0])
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


def fanout_limits(params: ProcessParams, library: GateLibrary,
                  buffer_kind: str = "inv") -> dict[str, float]:
    """Fanout limit of every library kind, in library order."""
    return {kind: flimit(kind, params, library, buffer_kind)
            for kind in library}


def load_ratios(path: LogicPath, sizing, limits) -> list[float | None]:
    """Each gate's fanout over its kind's limit; None where the limit is inf.

    A gate's fanout is its downstream node over its own cin: cin[i+1], or
    the terminal load for the last gate.  Its parasitic is left out, as
    the probe leaves it out: the model adds it in both.
    """
    n = len(sizing)
    ratios: list[float | None] = []
    for i, kind in enumerate(path.gates):
        nxt = sizing[i + 1] if i < n - 1 else path.terminal_load
        limit = limits[kind]
        ratios.append(nxt / sizing[i] / limit if math.isfinite(limit)
                      else None)
    return ratios


def _chain_stage_delay(template: GateTemplate, params: ProcessParams,
                       effort: float) -> float:
    """Stage delay in a long chain of one gate kind at a given stage effort.

    Each stage drives effort times its own cin and is driven by its twin's
    output transition, which falls on its input edge; the two edges
    alternate, so they are averaged.  Sized at the probe's cin, since
    coupling may be fixed.
    """
    cin = 64.0 * params.cref
    load = (effort + template.par_coeff) * cin
    total = 0.0
    for edge_in in EDGES:
        gamma, fixed = coupling_split(template, edge_in, params)
        total += stage_delay(
            output_scale(template, other_edge(edge_in), params),
            params.threshold(edge_in) / 2.0, gamma * cin + fixed, cin, load,
            output_scale(template, edge_in, params) * load / cin)[0]
    return total / len(EDGES)


def _wants_more_stages(model: PathModel,
                       buffer_template: GateTemplate) -> bool:
    """Whether one more stage would speed the path up, by logical effort.

    The path effort is its electrical gain, terminal_load / input_cap,
    times each gate's output scale over the buffer kind's mean one.  Spread
    evenly over N stages timed as buffer kind stages, it is faster over
    N + 1 stages when N is below the count that effort wants.  This is a
    screen for a trial, not a verdict: positions, parasitics and edges are
    left to the trial solve.
    """
    params = model.params
    scale = sum(output_scale(buffer_template, edge, params)
                for edge in EDGES) / len(EDGES)
    log_effort = math.log(model.terminal_load / model.input_cap) + sum(
        math.log(output_scale(template, edge, params) / scale)
        for template, edge in zip(model.templates, model.out_edges))

    def delay(stages: int) -> float:
        return stages * _chain_stage_delay(
            buffer_template, params, math.exp(log_effort / stages))

    return delay(model.n + 1) < delay(model.n)


def _flip_site(model: PathModel) -> int | None:
    """The gate after which one inverter most lowers the path effort.

    The inverter flips the output edge of every later gate, swapping the
    symmetry factor its transition takes (output_scale).  The site whose
    later gates' product of factors falls the most wins, lowest index
    among ties; None when no flip lowers it.
    """
    params = model.params
    best, site, suffix = 0.0, None, 0.0
    for i in range(model.n - 1, -1, -1):
        if suffix < 0.0 and suffix <= best:
            best, site = suffix, i
        template, edge = model.templates[i], model.out_edges[i]
        suffix += math.log(output_scale(template, other_edge(edge), params)
                           / output_scale(template, edge, params))
    return site


def _sites(model: PathModel, sizing, limits, buffer_template: GateTemplate,
           polarity_mode: str) -> list[int]:
    """The gates after which a greedy round tries buffers, in trial order.

    First the worst gate: the lowest index among those whose load ratio
    (load_ratios) lies within TIE_RTOL (relative) of the highest, so
    rounding in the last bits of the sizing cannot choose between gates
    that tie exactly.  It is tried when it is over its limit; below its
    limit, always in single mode, and in pair mode on a path with fewer
    stages than its effort wants (_wants_more_stages), where the whole
    path resizes around the pair and the break-even sits below the
    probe's limit, which holds the gate's size fixed.  Single mode then
    adds every other gate over its limit, worst first, and the site whose
    edge flip lowers the path effort most (_flip_site): a single inverter
    mostly pays by flipping every later gate's edge, which no fanout test
    sees.  A bad sizing raises ValueError.
    """
    model.check_sizing(sizing)
    ranked = sorted((-r, i) for i, r in
                    enumerate(load_ratios(model.path, sizing, limits))
                    if r is not None)
    sites: list[int | None] = []
    if ranked:
        lead = -ranked[0][0]
        if (lead > 1.0 or polarity_mode == "single"
                or _wants_more_stages(model, buffer_template)):
            sites.append(min(i for r, i in ranked
                             if -r >= lead * (1.0 - TIE_RTOL)))
    if polarity_mode == "single":
        sites += [i for r, i in ranked if -r > 1.0]
        sites.append(_flip_site(model))
    return [site for site in dict.fromkeys(sites) if site is not None]


def check_polarity_mode(polarity_mode: str) -> None:
    """Raise ValueError unless polarity_mode is ``single`` or ``pair``."""
    if polarity_mode not in ("single", "pair"):
        raise ValueError(f"bad polarity_mode: {polarity_mode!r}")


def insert_buffers(path: LogicPath, node_indices, buffer_kind: str = "inv",
                   polarity_mode: str = "pair") -> LogicPath:
    """Insert buffers after the given gate indices.

    ``pair`` mode adds two inverters (polarity preserving), ``single``
    adds one and records the net inversion on the path.  New gates enter
    unsized (minimum drive until the next global resize).
    """
    check_polarity_mode(polarity_mode)
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
                           polarity_mode: str = "pair", *,
                           start=None) -> BufferingOutcome:
    """Greedy buffer insertion, one site per round.

    Each round tries the sites of the site rule (_sites): the worst gate
    and, in single mode, the other over-limit gates and the flip site.
    After each tentative insertion the whole path is resized for minimum
    delay, cold (min_delay_sizing), so a trial's t_min depends on its
    path alone; an insertion pays if it improves t_min by at least 0.1%.
    The round keeps the fastest that pays, the first tried among equals.
    Stops when a round's trials all fail.
    Never returns a slower path than the input, whose min-delay solve
    (sizing, t_min) is passed as `start` when the caller already has it.
    An unknown buffer kind or polarity mode raises before any solve.
    """
    check_polarity_mode(polarity_mode)
    limits = fanout_limits(params, library, buffer_kind)
    current = path
    sizing, t_min = start or min_delay_sizing(current, params, library)[:2]
    steps: list[tuple[int, str]] = []

    def trial(node: int) -> tuple[float, int, LogicPath, Sizing]:
        """(t_min, node, path, sizing) with buffers after node."""
        candidate = insert_buffers(current, [node], buffer_kind,
                                   polarity_mode)
        cand_sizing, cand_t, _ = min_delay_sizing(candidate, params, library)
        return cand_t, node, candidate, cand_sizing

    for _ in range(MAX_INSERTIONS):
        bar = t_min * (1.0 - IMPROVE_TOL)
        sites = _sites(PathModel(current, params, library), sizing, limits,
                       library[buffer_kind], polarity_mode)
        paying = [t for t in map(trial, sites) if t[0] < bar]
        best = min(paying, key=lambda t: t[0], default=None)
        if best is None:
            break
        t_min, node, current, sizing = best
        steps.append((node, polarity_mode))
    return BufferingOutcome(path=current, sizing=sizing, t_min=t_min,
                            insertions=tuple(steps))
