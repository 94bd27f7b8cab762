"""Local logic rewrites that trade gate kinds for drive efficiency.

nor gates pay the largest delay-weight penalty, so replacing a nor with
inverters plus a nand of the same arity (De Morgan) often unlocks delay
that sizing alone cannot reach.  Side inputs keep their logic through
added off-path inverters, which are charged to the path's area but carry
no path delay.  Rewrites are verified by exhaustive truth-table
comparison over a small window, and back-to-back inverter pairs on the
critical line are cancelled afterwards.
"""

from __future__ import annotations

import functools
import itertools
import re
from dataclasses import dataclass

from .buffering import fanout_limits
from .errors import ConfigError
from .path import GateLibrary, LogicPath
from .process import ProcessParams

MAX_EQUIV_INPUTS = 6

_ARITY_RE = re.compile(r"^(nand|nor)(\d+)$")


def gate_function(kind: str, inputs: tuple[bool, ...]) -> bool:
    """Boolean function of a library kind by naming convention.

    ``inv`` negates; ``nand<m>`` and ``nor<m>`` follow their names.  Kinds
    outside the convention cannot be equivalence-checked.
    """
    if kind == "inv":
        if len(inputs) != 1:
            raise ValueError("inv takes exactly one input")
        return not inputs[0]
    m = _ARITY_RE.match(kind)
    if m is None:
        raise ValueError(f"no boolean semantics for gate kind {kind!r}")
    arity = int(m.group(2))
    if len(inputs) != arity:
        raise ValueError(f"{kind} takes exactly {arity} inputs")
    if m.group(1) == "nand":
        return not all(inputs)
    return not any(inputs)


@dataclass(frozen=True)
class SegmentGate:
    """One gate inside a path segment: kind plus its side-input shape."""

    kind: str
    n_side: int
    side_inverted: bool = False

    def __post_init__(self):
        if self.n_side < 0:
            raise ValueError("n_side must be non-negative")


@dataclass(frozen=True)
class PathSegment:
    """A contiguous slice of a path with side inputs kept symbolic.

    External inputs are ordered: the critical input first, then each
    gate's side inputs in chain order.
    """

    gates: tuple[SegmentGate, ...]

    def __post_init__(self):
        if not self.gates:
            raise ValueError("a segment needs at least one gate")

    @property
    def n_inputs(self) -> int:
        return 1 + sum(g.n_side for g in self.gates)

    def evaluate(self, inputs: tuple[bool, ...]) -> bool:
        if len(inputs) != self.n_inputs:
            raise ValueError("wrong number of segment inputs")
        signal = inputs[0]
        pos = 1
        for gate in self.gates:
            sides = inputs[pos:pos + gate.n_side]
            pos += gate.n_side
            if gate.side_inverted:
                sides = tuple(not s for s in sides)
            signal = gate_function(gate.kind, (signal,) + tuple(sides))
        return signal

    def truth_table(self) -> tuple[bool, ...]:
        """Output over all input assignments, inputs counted LSB-first."""
        if self.n_inputs > MAX_EQUIV_INPUTS:
            raise ValueError(
                f"segment has {self.n_inputs} inputs; equivalence checking "
                f"is exhaustive and capped at {MAX_EQUIV_INPUTS}")
        rows = []
        for bits in itertools.product((False, True), repeat=self.n_inputs):
            rows.append(self.evaluate(bits))
        return tuple(rows)


def segment_of(path: LogicPath, library: GateLibrary, start: int,
               stop: int) -> PathSegment:
    """Segment view of path gates [start, stop)."""
    if not 0 <= start < stop <= path.n:
        raise ValueError("bad segment range")
    gates = []
    for i in range(start, stop):
        kind = path.gates[i]
        if kind not in library:
            raise ConfigError(f"unknown gate kind: {kind}")
        gates.append(SegmentGate(kind=kind,
                                 n_side=library[kind].n_inputs - 1,
                                 side_inverted=path.side_flag(i)))
    return PathSegment(tuple(gates))


@functools.lru_cache(maxsize=256)
def local_equivalence_check(before: PathSegment, after: PathSegment) -> bool:
    """Exhaustive truth-table equality of two segments.

    The segments must expose the same number of external inputs;
    mismatched arity is a structural error, not inequivalence.  Segments
    are frozen values and rewrites revisit the same few windows, so
    answers are memoized; an arity error is raised on every call.
    """
    if before.n_inputs != after.n_inputs:
        raise ValueError(
            f"segment input arity mismatch: {before.n_inputs} vs {after.n_inputs}")
    return before.truth_table() == after.truth_table()


def dual_kind(kind: str) -> str | None:
    """De Morgan partner of a nand/nor kind of arity up to 3, else None."""
    m = _ARITY_RE.match(kind)
    if m is None or int(m.group(2)) > 3:
        return None
    return ("nand" if m.group(1) == "nor" else "nor") + m.group(2)


def demorgan_rewrite(path: LogicPath, index: int,
                     library: GateLibrary) -> LogicPath:
    """Replace gate `index` by inv + dual gate + inv.

    nor(x, s...) = inv(nand(inv(x), inv(s)...)) and symmetrically for
    nand.  The two added critical-line inverters book as path gates; the
    m-1 side inverters book as off-path area.  No cancellation happens
    here; pair it with cancel_inverter_pairs.
    """
    if not 0 <= index < path.n:
        raise ValueError("rewrite index out of range")
    kind = path.gates[index]
    if kind not in library:
        raise ConfigError(f"unknown gate kind: {kind}")
    partner = dual_kind(kind)
    if partner is None:
        raise ValueError(f"gate kind {kind!r} has no De Morgan rewrite; "
                         "only nand/nor of arity up to 3 have one")
    for needed in (partner, "inv"):
        if needed not in library:
            raise ConfigError(f"rewrite needs gate kind {needed} in the library")
    arity = int(_ARITY_RE.match(kind).group(2))
    if library[kind].n_inputs != arity:
        raise ConfigError(
            f"gate {kind} declares {library[kind].n_inputs} inputs; "
            f"its name implies {arity}")

    was_inverted = path.side_flag(index)
    n_side = arity - 1
    if was_inverted and path.offpath_inverters < n_side:
        raise ConfigError(
            f"gate {index} ({kind}) has inverted side inputs that need "
            f"{n_side} off-path inverters, but the path counts only "
            f"{path.offpath_inverters}")
    records = path.records()
    records[index:index + 1] = [("inv", None, False),
                                (partner, None, not was_inverted),
                                ("inv", None, False)]
    return path.with_records(records, offpath_inverters=(
        path.offpath_inverters + (-n_side if was_inverted else n_side)))


def cancel_inverter_pairs(path: LogicPath) -> LogicPath:
    """Remove back-to-back inverter pairs on the critical line, to fixpoint.

    Only plain ``inv`` gates cancel; the operation preserves the segment
    function exactly and leaves off-path bookkeeping untouched.
    """
    stack = []
    for record in path.records():
        if stack and record[0] == "inv" and stack[-1][0] == "inv":
            stack.pop()
        else:
            stack.append(record)
    if len(stack) == path.n:
        return path
    # A pure inverter chain of even length cancels to nothing; keep one
    # pair so the path stays structurally valid.
    return path.with_records(stack or [("inv", None, False)] * 2)


def rank_gate_efficiency(library: GateLibrary, params: ProcessParams,
                         buffer_kind: str = "inv") -> list[tuple[str, float]]:
    """Library kinds from least to most drive-efficient.

    Efficiency is the fanout limit (fanout_limits); ties break toward the
    larger dw_hl, then lexicographic name.
    """
    return sorted(fanout_limits(params, library, buffer_kind).items(),
                  key=lambda row: (row[1], -library[row[0]].dw_hl, row[0]))
