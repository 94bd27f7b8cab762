"""Independent output checks for benchmark ops.

Nothing here calls cmospath.  The process config and path headers are
parsed again from the files, and delay and area are recomputed from the
README's stage recurrence: per gate, d = v_in/2 * slope_in + M * t_out/2
with t_out = tau * S_out * load / cin, load = next cin (or the terminal
load) + par * cin, M = 1 + 2 c_m / (c_m + load), edges alternating from
the path's input edge.  Area is (sum cin + offpath * cref) / cap_per_width.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

RISING = "rising"
FALLING = "falling"

RECOMPUTE_TOL = 1e-9     # API results carry full doubles
PRINTED_TOL = 1e-4       # CLI prints six significant digits
TC_SLACK = 1e-3          # today's acceptance contract: delay <= tc * (1 + 1e-3)


class CheckError(Exception):
    """An op's output disagrees with the independent recomputation."""


@dataclass(frozen=True)
class Gate:
    dw_hl: float
    dw_lh: float
    par: float
    cm_override: float | None


@dataclass(frozen=True)
class Process:
    tau: float
    vtn: float
    vtp: float
    r_ratio: float
    k_ratio: float
    cref: float
    cap_per_width: float
    weak_threshold: float
    hard_threshold: float
    gates: dict


@dataclass(frozen=True)
class Header:
    """The electrical frame of a path: what stays fixed under rewrites."""

    input_cap: float
    load: float
    input_edge: str
    slope_rise: float
    slope_fall: float


def _pairs(text: str):
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            yield line


def parse_process(text: str) -> Process:
    top: dict[str, float] = {}
    gates: dict[str, dict[str, float]] = {}
    block = top
    for line in _pairs(text):
        if line.startswith("["):
            name = line[1:-1].split()[1]
            block = gates.setdefault(name, {})
            continue
        key, _, value = line.partition("=")
        block[key.strip()] = float(value)
    return Process(
        tau=top["tau_ps"], vtn=top["vtn"], vtp=top["vtp"],
        r_ratio=top["r_ratio"], k_ratio=top["k_ratio"], cref=top["cref_ff"],
        cap_per_width=top["cap_per_width_ff_um"],
        weak_threshold=top.get("weak_threshold", 2.5),
        hard_threshold=top.get("hard_threshold", 1.2),
        gates={name: Gate(g["dw_hl"], g["dw_lh"], g["par_coeff"],
                          g.get("cm_override_ff"))
               for name, g in gates.items()})


def parse_path_header(text: str) -> Header:
    values: dict[str, str] = {}
    for line in _pairs(text):
        if "=" in line:
            key, _, value = line.partition("=")
            values[key.strip()] = value.strip()
    return Header(float(values["input_cap_ff"]), float(values["load_ff"]),
                  values.get("input_edge", RISING),
                  float(values.get("driver_slope_rise_ps", 0.0)),
                  float(values.get("driver_slope_fall_ps", 0.0)))


def stage_recurrence(proc: Process, gates, header: Header, sizing) -> float:
    """Total delay (ps) of a sized chain, gate by gate."""
    k = proc.k_ratio
    edge_in = header.input_edge
    slope = header.slope_rise if edge_in == RISING else header.slope_fall
    total = 0.0
    n = len(gates)
    for i, kind in enumerate(gates):
        g = proc.gates[kind]
        cin = sizing[i]
        load = (sizing[i + 1] if i < n - 1 else header.load) + g.par * cin
        if edge_in == RISING:      # output falls: pull-down strength
            s_out = (1.0 + k) * g.dw_hl
            v_in = proc.vtn
            c_m = k * cin / (2.0 * (1.0 + k))
        else:
            s_out = proc.r_ratio * (1.0 + k) / k * g.dw_lh
            v_in = proc.vtp
            c_m = cin / (2.0 * (1.0 + k))
        if g.cm_override is not None:
            c_m = g.cm_override
        t_out = proc.tau * s_out * load / cin
        miller = 1.0 + 2.0 * c_m / (c_m + load)
        total += v_in / 2.0 * slope + miller * t_out / 2.0
        slope = t_out
        edge_in = FALLING if edge_in == RISING else RISING
    return total


def sizing_area(proc: Process, sizing, offpath: int) -> float:
    return (sum(sizing) + offpath * proc.cref) / proc.cap_per_width


def _close(got: float, want: float, tol: float, what: str) -> None:
    if not abs(got - want) <= tol * max(abs(want), 1e-300):
        raise CheckError(f"{what}: reported {got!r}, recomputed {want!r}")


def check_sized_chain(proc: Process, header: Header, gates, sizing, offpath,
                      delay: float, area: float, tol: float) -> None:
    """Reported delay and area match the recurrence; sizing is legal."""
    if len(sizing) != len(gates):
        raise CheckError(f"{len(sizing)} sizes for {len(gates)} gates")
    _close(sizing[0], header.input_cap, tol, "gate 0 cin vs input_cap")
    low = min(sizing)
    if low < proc.cref * (1.0 - tol):
        raise CheckError(f"cin {low!r} below cref {proc.cref!r}")
    _close(delay, stage_recurrence(proc, gates, header, sizing), tol, "delay")
    _close(area, sizing_area(proc, sizing, offpath), tol, "area")


def check_meets(delay: float, tc: float, tol: float = 0.0) -> bool:
    """Whether delay honours today's contract; False means over tc only."""
    if delay > tc * (1.0 + TC_SLACK) * (1.0 + tol):
        raise CheckError(f"delay {delay!r} exceeds tc {tc!r} by more than "
                         f"{TC_SLACK:g}")
    return delay <= tc


def check_infeasible(t_min, tc: float) -> None:
    if t_min is None or not t_min > tc:
        raise CheckError(f"InfeasibleError carries t_min {t_min!r}, "
                         f"not above tc {tc!r}")


def expected_domain(proc: Process, ratio: float) -> str:
    if ratio < 1.0:
        return "infeasible"
    if ratio <= proc.hard_threshold:
        return "hard"
    if ratio <= proc.weak_threshold:
        return "medium"
    return "weak"


def check_frontier(rows) -> None:
    """rows of (a, delay, area): a ascending, delay falls as area grows."""
    for (a0, _, _), (a1, _, _) in zip(rows, rows[1:]):
        if not a1 > a0:
            raise CheckError(f"sweep rows not ascending in a: {a0!r}, {a1!r}")
    by_area = sorted(rows, key=lambda r: r[2])
    for (_, d0, ar0), (_, d1, ar1) in zip(by_area, by_area[1:]):
        if d1 > d0 * (1.0 + RECOMPUTE_TOL):
            raise CheckError(f"delay rises with area: {d0!r} at {ar0!r} um, "
                             f"{d1!r} at {ar1!r} um")


_FIELD_RE = re.compile(r"^(\w+) = ")
_PS_RE = re.compile(r"([-+0-9.eE]+) ps\s*$")


def parse_cli_optimize(stdout: str):
    """Fields, final gates and the (kind, cin) gate table of CLI output."""
    fields: dict[str, str] = {}
    table = []
    lines = stdout.splitlines()
    for pos, line in enumerate(lines):
        if line.startswith("index kind cin_ff"):
            for row in lines[pos + 1:]:
                parts = row.split()
                if not parts or not parts[0].isdigit():
                    break
                table.append((parts[1], float(parts[2])))
            break
        m = _FIELD_RE.match(line)
        if m:
            fields[m.group(1)] = line.split(" = ", 1)[1]
    return fields, table


def infeasible_t_min(message: str):
    """The achievable t_min an infeasible message ends with, or None."""
    m = _PS_RE.search(message.strip())
    return float(m.group(1)) if m else None
