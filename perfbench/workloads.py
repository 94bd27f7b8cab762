"""The three seeded workloads and their per-op output checks.

Every op is one timed public call.  Inputs come only from the seed: the
same seed yields the same op sequence.  They are drawn in stratified
rounds (see ``_designs``), so that runs on different seeds see the same
mix and their latencies compare.  The ``tc`` of each op is set from
``t_min`` computed in an untimed pre-pass.

short-mix       optimize on 2-20 gate paths; every tenth op is the CLI
                ``optimize`` on a shipped fixture.  Fanout-limit probing
                dominates; the only workload exercising cli and process.
long-chains     optimize on 100-130 gate chains in the infeasible, hard
                and medium domains.  The fixed-point engine and greedy
                buffering dominate.
frontier-sweep  sizing.sweep over the CLI's 24-point ladder on 100-1000
                gate chains.  Warm-started, often clamped solves; no
                bisection, buffering or protocol.
"""

from __future__ import annotations

import io
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Callable

import check

SHORT_RATIOS = (0.85, 0.95, 1.1, 1.5, 2.0, 3.0)
LONG_RATIOS = (0.95, 1.1, 1.5, 2.0)
FIXTURES = ("chain11.path", "chain13.path", "heavy.path")
CLI_EVERY = 10
SWEEP_POINTS = 24
LOAD_FF = (100.0, 2000.0)
CAP_FF = (2.0, 8.0)
ROUND = 24            # ops per stratified round; a multiple of each ratio set

# Tail percentile per workload: the highest with at least ten ops beyond
# it at the seed commit's op count in a 40 s run on a 2-core VM (about
# 1200-1700, 125-195 and 95-140 ops), slow phases of that VM included.
# Fixed, so that a faster program does not move the tail elsewhere.
TAIL_PERCENTILE = {"short-mix": 99, "long-chains": 90, "frontier-sweep": 85}

# Trace mode runs a fixed op count, so that its work counts repeat.
TRACE_OPS = {"short-mix": 150, "long-chains": 30, "frontier-sweep": 30}

# Spans that must record calls in a traced run of each workload: the
# layers this workload is meant to exercise.  A miss means a wrapper lost
# an import site.
REQUIRED_SPANS = {
    "short-mix": ("process.load", "cli.main", "path.evaluate",
                  "bounds.link_fixed_point", "sizing.distribute",
                  "buffering.flimit", "buffering.greedy", "restructure.rank",
                  "restructure.equiv", "protocol.optimize"),
    "long-chains": ("path.evaluate", "bounds.link_fixed_point",
                    "sizing.distribute", "buffering.flimit",
                    "buffering.greedy", "protocol.optimize"),
    "frontier-sweep": ("path.evaluate", "bounds.link_fixed_point",
                       "sizing.sweep"),
}


@dataclass(frozen=True)
class Outcome:
    """What one op produced, after its output check passed."""

    infeasible: bool      # ended in a legitimate InfeasibleError
    over_tc: bool         # succeeded with delay above tc (within 1e-3)
    areas: tuple          # um, one per result row
    digest: object        # everything the op returned, for equality


@dataclass(frozen=True)
class Op:
    label: str
    call: Callable[[], object]
    check: Callable[[object], Outcome]


class Env:
    """What the workloads need from the benchmark process."""

    def __init__(self, package, cli, root):
        self.cp = package
        self.cli = cli
        self.root = root
        proc_file = root / "fixtures" / "ref.proc"
        self.proc_file = str(proc_file)
        self.proc = check.parse_process(proc_file.read_text())
        self.params, self.library = package.load_process_file(self.proc_file)
        self.kinds = sorted(self.proc.gates)
        self.fixture_t_min: dict[str, float] = {}

    def t_min(self, path) -> float:
        return self.cp.min_delay_sizing(path, self.params, self.library)[1]


def _rounds(rng: random.Random, values):
    """Endless shuffled rounds over values, each value once per round."""
    while True:
        order = list(values)
        rng.shuffle(order)
        yield from order


def _strata(rng: random.Random, count: int) -> list[float]:
    """One uniform draw from each of count equal strata of [0, 1), shuffled."""
    order = list(range(count))
    rng.shuffle(order)
    return [(k + rng.random()) / count for k in order]


def _designs(rng: random.Random, n_lo: int, n_hi: int, ratios=(None,)):
    """Endless (gates, load, input cap, ratio) in stratified rounds.

    A round has ROUND ops, the same number for every ratio.  Within each
    ratio's share of the round, the gate count, the load (on a log scale)
    and the input cap each take one value from every one of that many
    equal strata of their range (a Latin hypercube per ratio).  Gate
    kinds, edges and slopes stay plainly random.
    """
    per = ROUND // len(ratios)
    while True:
        designs = []
        for ratio in ratios:
            columns = zip(_strata(rng, per), _strata(rng, per),
                          _strata(rng, per))
            designs.extend((u_n, u_load, u_cap, ratio)
                           for u_n, u_load, u_cap in columns)
        rng.shuffle(designs)
        for u_n, u_load, u_cap, ratio in designs:
            n = n_lo + min(int(u_n * (n_hi - n_lo + 1)), n_hi - n_lo)
            load = LOAD_FF[0] * (LOAD_FF[1] / LOAD_FF[0]) ** u_load
            cap = CAP_FF[0] + (CAP_FF[1] - CAP_FF[0]) * u_cap
            yield n, load, cap, ratio


def _random_path(env: Env, rng: random.Random, n: int, load: float,
                 cap: float):
    path = env.cp.LogicPath(
        gates=tuple(rng.choice(env.kinds) for _ in range(n)),
        input_cap=cap,
        terminal_load=load,
        input_edge=rng.choice((check.RISING, check.FALLING)),
        driver_slope_rise=rng.uniform(0.0, 50.0),
        driver_slope_fall=rng.uniform(0.0, 50.0))
    header = check.Header(path.input_cap, path.terminal_load, path.input_edge,
                          path.driver_slope_rise, path.driver_slope_fall)
    return path, header


def _optimize_op(env: Env, path, header, ratio: float) -> Op:
    t_min = env.t_min(path)
    tc = ratio * t_min
    cp = env.cp

    def call():
        return cp.optimize(path, tc, env.params, env.library)

    def verify(value) -> Outcome:
        expected = check.expected_domain(env.proc, tc / t_min)
        if isinstance(value, cp.InfeasibleError):
            check.check_infeasible(value.t_min, tc)
            if expected != "infeasible":
                raise check.CheckError(f"InfeasibleError in the {expected} "
                                       "domain")
            return Outcome(True, False, (), ("infeasible", value.t_min))
        final = value.final_path
        if (final.input_cap, final.terminal_load, final.input_edge,
                final.driver_slope_rise, final.driver_slope_fall) != \
                (path.input_cap, path.terminal_load, path.input_edge,
                 path.driver_slope_rise, path.driver_slope_fall):
            raise check.CheckError("optimize changed the path's endpoints")
        check.check_sized_chain(env.proc, header, final.gates, value.sizing,
                                final.offpath_inverters, value.achieved_delay,
                                value.area, check.RECOMPUTE_TOL)
        within = check.check_meets(value.achieved_delay, tc)
        if value.domain.kind.value != expected:
            raise check.CheckError(f"domain {value.domain.kind.value}, "
                                   f"expected {expected}")
        return Outcome(False, not within, (value.area,),
                       (expected, value.achieved_delay, value.area,
                        final.gates, value.sizing))

    return Op(f"optimize n={path.n} r={ratio}", call, verify)


def _cli_op(env: Env, fixture: str, ratio: float) -> Op:
    path_file = env.root / "fixtures" / fixture
    if fixture not in env.fixture_t_min:
        env.fixture_t_min[fixture] = env.t_min(
            env.cp.parse_path_text_file(str(path_file)))
    tc = ratio * env.fixture_t_min[fixture]
    header = check.parse_path_header(path_file.read_text())
    argv = ["optimize", "--tc", repr(tc), env.proc_file, str(path_file)]
    cli = env.cli

    def call():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def verify(value) -> Outcome:
        code, out, err = value
        if code == 2:
            check.check_infeasible(check.infeasible_t_min(err), tc)
            return Outcome(True, False, (), value)
        if code != 0:
            raise check.CheckError(f"cli exit {code}: {err.strip()}")
        fields, table = check.parse_cli_optimize(out)
        gates = [kind for kind, _ in table]
        if fields.get("final_gates", "").split() != gates:
            raise check.CheckError("final_gates disagrees with the gate table")
        delay = float(fields["achieved_delay_ps"])
        area = float(fields["area_um"])
        check.check_sized_chain(env.proc, header, gates,
                                [cin for _, cin in table],
                                int(fields["offpath_inverters"]), delay, area,
                                check.PRINTED_TOL)
        within = check.check_meets(delay, tc, check.PRINTED_TOL)
        return Outcome(False, not within, (area,), value)

    return Op(f"cli {fixture} r={ratio}", call, verify)


def _sweep_op(env: Env, path, header) -> Op:
    a_deep = -100.0 * env.t_min(path) / env.params.cref
    ratio = 1e-5 ** (1.0 / (SWEEP_POINTS - 2))
    values = [a_deep * ratio ** k for k in range(SWEEP_POINTS - 1)] + [0.0]
    cp = env.cp

    def call():
        return cp.sweep(path, values, env.params, env.library)

    def verify(value) -> Outcome:
        solutions, failures = value
        if failures:
            raise check.CheckError(f"{len(failures)} sweep rows failed: "
                                   f"{failures[0][1]}")
        if [s.a_value for s in solutions] != sorted(values):
            raise check.CheckError("sweep rows do not match the requested a")
        for s in solutions:
            check.check_sized_chain(env.proc, header, path.gates, s.sizing, 0,
                                    s.delay, s.area, check.RECOMPUTE_TOL)
        rows = [(s.a_value, s.delay, s.area) for s in solutions]
        check.check_frontier(rows)
        return Outcome(False, False, tuple(r[2] for r in rows), tuple(rows))

    return Op(f"sweep n={path.n}", call, verify)


def short_mix(env: Env, rng: random.Random):
    designs = _designs(rng, 2, 20, SHORT_RATIOS)
    cli_ratios = _rounds(rng, SHORT_RATIOS)
    fixtures = _rounds(rng, FIXTURES)
    i = 0
    while True:
        i += 1
        if i % CLI_EVERY == 0:
            yield _cli_op(env, next(fixtures), next(cli_ratios))
        else:
            n, load, cap, ratio = next(designs)
            path, header = _random_path(env, rng, n, load, cap)
            yield _optimize_op(env, path, header, ratio)


def long_chains(env: Env, rng: random.Random):
    for n, load, cap, ratio in _designs(rng, 100, 130, LONG_RATIOS):
        path, header = _random_path(env, rng, n, load, cap)
        yield _optimize_op(env, path, header, ratio)


def frontier_sweep(env: Env, rng: random.Random):
    for n, load, cap, _ in _designs(rng, 100, 1000):
        path, header = _random_path(env, rng, n, load, cap)
        yield _sweep_op(env, path, header)


WORKLOADS = {
    "short-mix": short_mix,
    "long-chains": long_chains,
    "frontier-sweep": frontier_sweep,
}


def ops(name: str, seed: int, env: Env):
    """The endless op sequence of a workload; the same seed, the same ops."""
    return WORKLOADS[name](env, random.Random(f"{name}/{seed}"))
