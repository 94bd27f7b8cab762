"""Delay window of a path: minimum-delay solver and the all-cref ceiling."""

import dataclasses
import json
import logging
import math
import re
import pathlib
import random
import warnings
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from conftest import REF_PROC
from cmospath import (
    ConvergenceError,
    DelayBounds,
    GateTemplate,
    LogicPath,
    PathModel,
    ProcessParams,
    compute_bounds,
    distribute_constraint,
    evaluate_path,
    feasibility,
    load_process_file,
    max_delay_sizing,
    min_delay_sizing,
    solve_at_sensitivity,
    sweep,
)
from cmospath import bounds as bounds_module
from cmospath.bounds import FixedPoint, certified, link_fixed_point
from cmospath.path import MAX_CAP_FF, Pass


KINDS = ("inv", "nand2", "nand3", "nor2", "nor3")


def ideal_chain(n, input_cap, load, params_kwargs=None):
    """All-inverter chain with no parasitics or coupling."""
    kw = dict(tau=10.0, vtn=1e-9, vtp=1e-9, r_ratio=2.0, k_ratio=2.0,
              cref=1.0, cap_per_width=2.0)
    if params_kwargs:
        kw.update(params_kwargs)
    params = ProcessParams(**kw)
    inv = GateTemplate(name="inv", n_inputs=1, dw_hl=1.0, dw_lh=1.0,
                       par_coeff=0.0, cm_override=0.0)
    path = LogicPath(gates=("inv",) * n, input_cap=input_cap,
                     terminal_load=load)
    return path, params, {"inv": inv}


def warm_min_delay(path, params, library, warm):
    """min_delay_sizing's (sizing, t_min, steps), solved from warm."""
    fixed = link_fixed_point(PathModel(path, params, library), warm=warm)
    return fixed.sizing, fixed.pass_.total, fixed.steps


def random_path(rng, n_max=40):
    n = rng.randint(2, n_max)
    return LogicPath(gates=tuple(rng.choice(KINDS) for _ in range(n)),
                     input_cap=rng.uniform(2.0, 10.0),
                     terminal_load=rng.uniform(30.0, 5000.0),
                     input_edge=rng.choice(("rising", "falling")),
                     driver_slope_rise=rng.uniform(0.0, 60.0),
                     driver_slope_fall=rng.uniform(0.0, 60.0))


class TestMaxDelay:
    def test_all_free_gates_at_cref(self, ref_params, ref_library, chain11):
        sizing, t_max = max_delay_sizing(chain11, ref_params, ref_library)
        assert sizing[0] == chain11.input_cap
        assert all(c == ref_params.cref for c in sizing[1:])
        assert t_max > 0

    def test_single_gate_window_collapses(self, ref_params, ref_library):
        path = LogicPath(gates=("inv",), input_cap=4.0, terminal_load=30.0)
        bounds = compute_bounds(path, ref_params, ref_library)
        assert bounds.t_min == bounds.t_max

    def test_heavier_load_is_slower(self, ref_params, ref_library):
        base = LogicPath(gates=("inv", "nand2"), input_cap=4.0,
                         terminal_load=50.0)
        heavier = LogicPath(gates=("inv", "nand2"), input_cap=4.0,
                            terminal_load=80.0)
        _, t1 = max_delay_sizing(base, ref_params, ref_library)
        _, t2 = max_delay_sizing(heavier, ref_params, ref_library)
        assert t2 > t1


class TestMinDelayClosedForms:
    def test_geometric_mean_single_free_gate(self):
        path, params, lib = ideal_chain(2, 1.0, 64.0)
        sizing, _, _ = min_delay_sizing(path, params, lib)
        assert sizing[1] == pytest.approx(8.0, rel=1e-6)

    def test_uniform_taper(self):
        path, params, lib = ideal_chain(3, 1.0, 64.0)
        sizing, _, _ = min_delay_sizing(path, params, lib)
        assert sizing[1] == pytest.approx(4.0, rel=1e-6)
        assert sizing[2] == pytest.approx(16.0, rel=1e-6)

    def test_link_equations_hold_without_feedback(self):
        # with nothing frozen (no parasitics, no coupling) the stationary
        # point satisfies the product form c_i^2 = (A_i/A_{i-1}) c_next c_prev
        path, params, lib = ideal_chain(5, 2.0, 500.0,
                                        {"vtn": 0.2, "vtp": 0.3,
                                         "k_ratio": 1.0})
        sizing, _, _ = min_delay_sizing(path, params, lib)
        coeffs = PathModel(path, params, lib).coefficients(sizing)
        for i in range(1, path.n):
            nxt = sizing[i + 1] if i + 1 < path.n else path.terminal_load
            want = math.sqrt(coeffs.a[i] / coeffs.a[i - 1]
                             * (nxt + coeffs.c_par[i]) * sizing[i - 1])
            assert sizing[i] == pytest.approx(want, rel=1e-5)


class TestLogicalEffortSeed:
    @staticmethod
    def uncoupled(ref_library):
        """ref.proc's kinds with cm_override_ff = 0: the Miller factor is
        1, so the delay is the posynomial the seed minimizes."""
        return {kind: dataclasses.replace(t, cm_override=0.0)
                for kind, t in ref_library.items()}

    def test_cold_start_is_the_oracle_seed(self, ref_params, ref_library):
        # Every kind at cm_override_ff = 0: the cold start equals the
        # oracle's exact clamped optimum, clamped or not, and it is the
        # fastest sizing, which the solve certifies in one step.
        library = self.uncoupled(ref_library)
        rng = random.Random(27)
        clamped = 0
        for _ in range(400):
            path = random_path(rng)
            templates = [library[kind] for kind in path.gates]
            seed = oracles.clamped_effort_seed(
                templates, path.input_cap, path.terminal_load,
                path.input_edge, ref_params)
            start = bounds_module.effort_seed(
                PathModel(path, ref_params, library))
            assert start == pytest.approx(seed, rel=1e-13, abs=0.0), path
            clamped += ref_params.cref in start[1:]
            sizing, _, steps = min_delay_sizing(path, ref_params, library)
            assert steps == 1, path
            assert sizing == pytest.approx(seed, rel=1e-13, abs=0.0), path
        assert clamped > 5

    def test_long_clamped_cold_starts_are_the_oracle_seed(self, ref_params,
                                                          ref_library):
        # Paths of 2 to 200 gates whose closed-form taper dips below cref:
        # the hull's fill equals the oracle's Gauss-Seidel optimum, and
        # the solve certifies it in one step.
        library = self.uncoupled(ref_library)
        cref = ref_params.cref
        rng = random.Random(31)
        lengths = []
        while len(lengths) < 20:
            path = dataclasses.replace(
                random_path(rng, n_max=rng.choice((20, 200))),
                terminal_load=10 ** rng.uniform(0, 4))
            templates = [library[kind] for kind in path.gates]
            weights = oracles.effort_weights(templates, path.input_edge,
                                             ref_params)
            if min(oracles.effort_taper(weights, path.input_cap,
                                        path.terminal_load)) >= cref:
                continue
            lengths.append(path.n)
            seed = oracles.clamped_effort_seed(
                templates, path.input_cap, path.terminal_load,
                path.input_edge, ref_params)
            start = bounds_module.effort_seed(
                PathModel(path, ref_params, library))
            assert start == pytest.approx(seed, rel=1e-12, abs=0.0), path
            assert min(start[1:]) == cref
            sizing, _, steps = min_delay_sizing(path, ref_params, library)
            assert steps == 1, path
            assert sizing == pytest.approx(seed, rel=1e-12, abs=0.0), path
        assert min(lengths) < 10 and max(lengths) > 150

    @staticmethod
    def closed_form(path, weights):
        """The closed-form logical-effort taper from input_cap to the
        terminal load, unclamped, operation for operation as effort_seed
        fills a path that clamps no gate."""
        n = path.n
        logs = [math.log(w) for w in weights]
        ratio = path.terminal_load / path.input_cap
        effort = sum(logs)
        out, drop = [path.input_cap], 0.0
        for i in range(1, n):
            drop += logs[i - 1]
            share = i / n
            out.append(path.input_cap * ratio ** share * math.exp(
                share * effort - drop))
        return out

    def test_runs_that_clamp_no_gate_keep_the_closed_form(
            self, ref_params, ref_library):
        # A cold start whose closed-form taper stays at cref or above is
        # that taper bit for bit, and one that dips is at cref or above
        # everywhere.
        cref = ref_params.cref
        rng = random.Random(28)
        kept = dipped = 0
        for _ in range(300):
            path = random_path(rng, n_max=60)
            model = PathModel(path, ref_params, ref_library)
            want = self.closed_form(path, model.effort_weights())
            out = bounds_module.effort_seed(model)
            assert out[0] == path.input_cap
            if min(want[1:]) >= cref:
                kept += 1
                assert out == want, path
            else:
                dipped += 1
                assert min(out[1:]) >= cref, path
        assert kept > 100 and dipped > 20

    def test_unit_weights_fill_the_geometric_taper(self):
        # Fixed coupling weighs every gate 1, which gives the geometric
        # taper bit for bit.
        path, params, lib = ideal_chain(6, 3.0, 700.0)
        lib = {"inv": dataclasses.replace(lib["inv"], cm_override=5.0)}
        out = bounds_module.effort_seed(PathModel(path, params, lib))
        assert out == [3.0 * (700.0 / 3.0) ** (k / 6) for k in range(6)]

    def test_a_load_below_cref_holds_the_last_gate_at_cref(self):
        # A terminal load below cref would pull the taper under it.  The
        # clamped optimum holds the last gate at cref and tapers the one
        # before it from input_cap to there, sqrt(3.0 * 2.0); no size
        # goes below cref.
        path, params, lib = ideal_chain(3, 3.0, 0.5, {"cref": 2.0})
        lib = {"inv": dataclasses.replace(lib["inv"], cm_override=5.0)}
        out = bounds_module.effort_seed(PathModel(path, params, lib))
        assert out == [3.0, pytest.approx(math.sqrt(6.0), rel=1e-15), 2.0]

    def test_weighted_fill_equalizes_stage_effort(self, ref_params,
                                                  ref_library):
        # A cold start that clamps no gate: each stage's weight times its
        # gain is the same over the whole run, the last stage driving the
        # load included, and the gains span input_cap to the load.
        path = LogicPath(gates=("inv", "nand2", "nor3", "inv", "nand3",
                                "inv"), input_cap=3.0, terminal_load=700.0)
        model = PathModel(path, ref_params, ref_library)
        weights = model.effort_weights()
        out = bounds_module.effort_seed(model)
        assert out[0] == 3.0 and min(out[1:]) > ref_params.cref
        assert out[1:] == pytest.approx(
            oracles.effort_taper(weights, 3.0, 700.0), rel=1e-14)
        nodes = [*out, path.terminal_load]
        efforts = [weights[k] * nodes[k + 1] / nodes[k] for k in range(6)]
        assert efforts == pytest.approx([efforts[0]] * 6, rel=1e-14)

    def test_fixed_coupling_weighs_every_gate_one(self, ref_params,
                                                  ref_library):
        path = LogicPath(gates=("inv", "nand2", "nor3"), input_cap=3.0,
                         terminal_load=300.0)
        one = dict(ref_library, nand2=dataclasses.replace(
            ref_library["nand2"], cm_override=40.0))
        assert PathModel(path, ref_params, one).effort_weights() == [1.0] * 3
        weights = PathModel(path, ref_params, ref_library).effort_weights()
        assert weights == pytest.approx(oracles.effort_weights(
            [ref_library[kind] for kind in path.gates], path.input_edge,
            ref_params), rel=1e-15)


class TestMinDelaySolver:
    def test_matches_grid_oracle(self, ref_params, ref_library):
        path = LogicPath(gates=("inv", "nand2", "nor2", "inv"),
                         input_cap=4.0, terminal_load=120.0,
                         input_edge="rising", driver_slope_rise=40.0,
                         driver_slope_fall=40.0)
        _, t_min, _ = min_delay_sizing(path, ref_params, ref_library)
        tpls = [ref_library[k] for k in path.gates]
        t_grid, _ = oracles.grid_min_delay(
            tpls, path.input_cap, path.terminal_load, path.input_edge,
            40.0, 40.0, ref_params, lo=ref_params.cref, hi=360.0)
        assert abs(t_min - t_grid) / t_grid <= 5e-3
        # the solver should never sit above a finite grid sample
        assert t_min <= t_grid * (1.0 + 1e-9)

    def test_initialization_independence(self, ref_params, ref_library,
                                         chain13):
        results = []
        for factor in (1.0, 4.0, 10.0, 100.0):
            warm = (chain13.input_cap,) + (factor * ref_params.cref,) * (
                chain13.n - 1)
            _, t_min, iters = warm_min_delay(
                chain13, ref_params, ref_library, warm)
            assert iters < 500
            results.append(t_min)
        spread = (max(results) - min(results)) / min(results)
        assert spread <= 1e-3

    def test_stationarity_certificate(self, ref_params, ref_library,
                                      chain11, chain13, heavy_path):
        # Every solve, at a = 0 and below, ends inside the one stopping
        # bound |g - a| <= 5e-5 * |a| + 1e-6 * delay / cref, which at
        # a = 0 is the scaled residual test and for a < 0 bounds the
        # spread of the unclamped sensitivities by twice that.
        def check(path, a, sizing, delay):
            model = PathModel(path, ref_params, ref_library)
            grad = model.derivatives(sizing).grad
            clamped = model.clamped(sizing)
            free = [g for g, c in zip(grad, clamped[1:]) if not c]
            bound = 5e-5 * abs(a) + 1e-6 * delay / ref_params.cref
            worst = max((abs(g - a) for g in free), default=0.0)
            assert worst <= bound
            if len(free) >= 2:
                assert max(free) - min(free) <= 2.0 * bound
            return worst

        for path in (chain11, chain13, heavy_path):
            sizing, t_min, _ = min_delay_sizing(path, ref_params,
                                                ref_library)
            residual = check(path, 0.0, sizing, t_min)
            assert residual * ref_params.cref / t_min < 1e-6
            scale = t_min / ref_params.cref
            for a in (-1e-3 * scale, -0.1 * scale, -10.0 * scale):
                sol = solve_at_sensitivity(path, a, ref_params, ref_library)
                check(path, a, sol.sizing, sol.delay)
            rows, failures = sweep(path, [-x * scale for x in
                                          (3.0, 0.3, 0.03, 0.003)],
                                   ref_params, ref_library)
            assert not failures and len(rows) == 4
            for row in rows:
                check(path, row.a_value, row.sizing, row.delay)

    def test_never_beaten_by_random_sizings(self, ref_params, ref_library,
                                            chain11):
        _, t_min, _ = min_delay_sizing(chain11, ref_params, ref_library)
        rng = random.Random(5)
        for _ in range(100):
            sizing = [chain11.input_cap]
            for _ in range(chain11.n - 1):
                sizing.append(math.exp(rng.uniform(math.log(2.0),
                                                   math.log(300.0))))
            timing = evaluate_path(chain11, sizing, ref_params, ref_library)
            assert t_min <= timing.total * (1.0 + 1e-9)

    def test_warm_start_reaches_same_answer(self, ref_params, ref_library,
                                            chain11):
        sizing, t_min, _ = min_delay_sizing(chain11, ref_params, ref_library)
        bumped = [c * 1.3 for c in sizing]
        bumped[0] = chain11.input_cap
        warm_sizing, warm_t, warm_iters = warm_min_delay(
            chain11, ref_params, ref_library, bumped)
        assert warm_t == pytest.approx(t_min, rel=1e-9)
        assert warm_iters <= 10

    @pytest.mark.parametrize("scale", [-1e6, -1e-3, 0.0])
    def test_every_step_lifts_warm_sizes_below_cref(self, ref_params,
                                                    ref_library, scale,
                                                    monkeypatch):
        # check_sizing accepts sizes down to cref * (1 - 1e-9).  A warm
        # start there opens at cref, so the first sizing the solve visits
        # has each of them at cref, and every later one, the result
        # included, has them at cref or above, pinned or free.  At scale
        # -1e6 the kernel pins every row at cref, so the solve returns
        # its start.  Only passes that compute gates visit a sizing: the
        # closing evaluation, the last pass as evaluate returns it,
        # computes none.  Every pass, the solve's and evaluate's, goes
        # through PathModel._pass.
        cref = ref_params.cref
        path = LogicPath(gates=("inv", "nand2", "nor2", "inv", "nand3",
                                "inv") * 2, input_cap=4.0,
                         terminal_load=60.0)
        model = PathModel(path, ref_params, ref_library)
        a = scale * max_delay_sizing(path, ref_params, ref_library)[1] / cref
        passes = []
        real_pass = PathModel._pass

        def recording(model, sizing, base, lo):
            out = real_pass(model, sizing, base, lo)
            passes.append((tuple(sizing), out.gates))
            return out

        monkeypatch.setattr(PathModel, "_pass", recording)
        low = cref * (1.0 - 5e-10)
        fixed = link_fixed_point(model, a, [path.input_cap] + [low] * 11)
        assert passes[-1] == (fixed.sizing, 0)
        visited = [sizes for sizes, gates in passes if gates]
        assert visited[0][1:] == (cref,) * 11
        assert all(min(sizes[1:]) >= cref for sizes in visited)
        assert min(fixed.sizing[1:]) >= cref
        if scale == -1e6:
            assert fixed.sizing[1:] == (cref,) * 11

    def test_clamp_bent_dampings_move_the_held_gate_to_cref(
            self, ref_params, ref_library):
        # A warm start with a free gate 5.75e-9 relative above cref that
        # the Newton step shrinks: the clamp holds it at cref in every
        # damping while the other gates barely move, and each damping
        # ascends.  Moving only that gate to cref descends, so the solve
        # certifies the cold solve's minimum instead of standing still
        # for MAX_ITERATIONS steps.
        case = json.loads((pathlib.Path(__file__).parent / "data"
                           / "stand_still.json").read_text())
        path = LogicPath(
            gates=tuple(case["gates"]), input_cap=case["input_cap"],
            terminal_load=case["terminal_load"],
            input_edge=case["input_edge"],
            driver_slope_rise=case["driver_slope_rise"],
            driver_slope_fall=case["driver_slope_fall"])
        _, t_cold, _ = min_delay_sizing(path, ref_params, ref_library)
        _, t_warm, _ = warm_min_delay(path, ref_params, ref_library,
                                      case["warm"])
        assert t_warm == pytest.approx(t_cold, rel=1e-12)

    def test_appending_a_stage_to_a_staged_path_slows_it(self, ref_params,
                                                         ref_library,
                                                         chain11):
        # holds when the stage count is already at or past the optimum;
        # heavily loaded short paths instead gain, which is the entire
        # premise of buffer insertion
        _, t_base, _ = min_delay_sizing(chain11, ref_params, ref_library)
        longer = LogicPath(
            gates=chain11.gates + ("inv",), input_cap=chain11.input_cap,
            terminal_load=chain11.terminal_load,
            input_edge=chain11.input_edge,
            driver_slope_rise=chain11.driver_slope_rise,
            driver_slope_fall=chain11.driver_slope_fall)
        _, t_longer, _ = min_delay_sizing(longer, ref_params, ref_library)
        assert t_longer > t_base

    def test_appending_a_stage_to_a_short_staged_chain(self):
        path2, params, lib = ideal_chain(2, 1.0, 4.0)
        path3, _, _ = ideal_chain(3, 1.0, 4.0)
        _, t2, _ = min_delay_sizing(path2, params, lib)
        _, t3, _ = min_delay_sizing(path3, params, lib)
        assert t3 > t2

    def test_clamping_reports_floor_sizes(self, ref_params, ref_library):
        # a large fixed input driving a tiny load wants sub-minimum gates
        path = LogicPath(gates=("inv", "inv", "inv"), input_cap=50.0,
                         terminal_load=0.5)
        sizing, _, _ = min_delay_sizing(path, ref_params, ref_library)
        assert all(c >= ref_params.cref * (1.0 - 1e-12) for c in sizing[1:])
        assert any(c == pytest.approx(ref_params.cref, rel=1e-9)
                   for c in sizing[1:])

    def test_largest_accepted_load_solves(self, ref_params, ref_library):
        # far beyond any real net the stage count is fixed, so t_min grows
        # as load^(1/3); at MAX_CAP_FF every node and its cube stay finite
        t = {}
        for load in (MAX_CAP_FF / 10.0, MAX_CAP_FF):
            path = LogicPath(gates=("inv", "nand2", "inv"), input_cap=4.0,
                             terminal_load=load)
            _, t[load], _ = min_delay_sizing(path, ref_params, ref_library)
        assert t[MAX_CAP_FF] == pytest.approx(322708.19, rel=1e-6)
        assert t[MAX_CAP_FF] / t[MAX_CAP_FF / 10.0] == pytest.approx(
            10.0 ** (1.0 / 3.0), rel=1e-2)

    def test_cold_start_is_scale_free(self, ref_params, ref_library):
        # The taper seed never touches cref on this path, so the solve
        # is the same at any cref, down to 1e-300 where a seed anchored
        # at cref underflows den^2 in the derivative pass.
        path = LogicPath(gates=("inv", "nand2", "nor3", "inv"),
                         input_cap=1e6, terminal_load=1e9)
        results = [min_delay_sizing(
            path, dataclasses.replace(ref_params, cref=cref), ref_library)
            for cref in (ref_params.cref, 1e-3, 1e-300)]
        assert results[0][1] == pytest.approx(509.911026092058, rel=1e-12)
        assert results[1] == results[0]
        assert results[2] == results[0]

    def test_underflowing_derivative_pass_is_a_typed_error(self, ref_params,
                                                           ref_library):
        # At cref = 1e-300 a node near cref squares to 0 in the derivative
        # pass: warm at the all-minimum corner, or cold with a load of
        # 1e-200 fF and neither parasitics nor fixed coupling to hold the
        # last node up.
        gates = ("inv", "nand2", "nor3", "inv")
        params = dataclasses.replace(ref_params, cref=1e-300)
        path = LogicPath(gates=gates, input_cap=1e6, terminal_load=1e9)
        with pytest.raises(ConvergenceError, match="underflowed"):
            warm_min_delay(path, params, ref_library,
                           (1e6, 1e-300, 1e-300, 1e-300))
        bare = {kind: dataclasses.replace(t, par_coeff=0.0, cm_override=0.0)
                for kind, t in ref_library.items()}
        path = LogicPath(gates=gates, input_cap=4.0, terminal_load=1e-200)
        with pytest.raises(ConvergenceError, match="underflowed"):
            min_delay_sizing(path, params, bare)

    def test_start_that_overflows_fails_at_once(self, ref_params,
                                                ref_library, monkeypatch):
        # tau = 1e300 makes the opening delay infinite; the solve stops on
        # that first pass instead of stepping to MAX_ITERATIONS.
        path = LogicPath(gates=("inv", "nand2", "nor3", "inv"),
                         input_cap=1e6, terminal_load=1e9)
        params = dataclasses.replace(ref_params, tau=1e300)
        passes = []
        real_pass = PathModel._pass

        def counting(model, sizing, base, lo):
            passes.append(base)
            return real_pass(model, sizing, base, lo)

        monkeypatch.setattr(PathModel, "_pass", counting)
        with pytest.raises(ConvergenceError, match="not finite") as err:
            min_delay_sizing(path, params, ref_library)
        assert err.value.iterations == 0
        assert passes == [None]

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_cold_and_warm_solves_agree(self, ref_params, ref_library, data):
        n = data.draw(st.integers(2, 40))
        path = LogicPath(
            gates=tuple(data.draw(st.lists(st.sampled_from(KINDS),
                                           min_size=n, max_size=n))),
            input_cap=data.draw(st.floats(2.0, 10.0)),
            terminal_load=data.draw(st.floats(30.0, 5000.0)),
            input_edge=data.draw(st.sampled_from(("rising", "falling"))),
            driver_slope_rise=data.draw(st.floats(0.0, 60.0)),
            driver_slope_fall=data.draw(st.floats(0.0, 60.0)))
        cref = ref_params.cref
        warm = (path.input_cap,) + tuple(data.draw(st.lists(
            st.floats(cref, 1000.0 * cref), min_size=n - 1, max_size=n - 1)))
        cold = min_delay_sizing(path, ref_params, ref_library)
        hot = warm_min_delay(path, ref_params, ref_library, warm)
        # Both ends meet the stopping bound |g| <= 1e-6 * delay / cref on
        # every unclamped gate, so on the convex delay their delays differ
        # by at most that bound times the distance between the sizings.
        model = PathModel(path, ref_params, ref_library)
        bound = 0.0
        for sizing, delay, _ in (cold, hot):
            bound = max(bound, 1e-6 * delay / cref)
            grad = model.derivatives(sizing)[0]
            clamped = model.clamped(sizing)[1:]
            assert all(abs(g) <= 1e-6 * delay / cref
                       for g, c in zip(grad, clamped) if not c)
        moved = sum(abs(x - y) for x, y in zip(cold[0], hot[0]))
        assert abs(cold[1] - hot[1]) <= bound * moved + 1e-12 * cold[1]

    def test_one_pass_per_visited_sizing(self, ref_params, ref_library,
                                         monkeypatch):
        # The returned sizing is evaluated once, on the pass there: that
        # evaluation computes no gate.  Every
        # sizing a solve visits gets one derivative pass that computes
        # gates: the start, one Newton proposal per iteration, and each
        # damping trial.  A trial is a pass that follows one whose delay
        # (the a = 0 merit) rose above the last accepted, up to 20 in a
        # row.  Each solve starts on the geometric taper: from the cold
        # logical-effort seed none of these paths damps.
        passes, evaluated = [], []
        real_pass, evaluate = PathModel._pass, PathModel.evaluate

        def counting_passes(model, sizing, base, lo):
            out = real_pass(model, sizing, base, lo)
            passes.append((out.total, out.gates))
            return out

        def counting_evaluate(model, sizing, base=None):
            evaluated.append(tuple(sizing))
            return evaluate(model, sizing, base)

        monkeypatch.setattr(PathModel, "_pass", counting_passes)
        monkeypatch.setattr(PathModel, "evaluate", counting_evaluate)
        all_trials = 0
        for seed in range(40):
            path = random_path(random.Random(seed))
            passes.clear()
            evaluated.clear()
            taper = [path.input_cap, *oracles.effort_taper(
                [1.0] * path.n, path.input_cap, path.terminal_load)]
            sizing, _, iters = warm_min_delay(path, ref_params, ref_library,
                                              taper)
            assert evaluated == [sizing]
            assert passes[-1][1] == 0
            totals = [total for total, gates in passes if gates]
            accepted, left, trials = totals[0], 0, 0
            for total in totals[1:]:
                is_trial = left > 0
                trials += is_trial
                if total <= accepted + abs(accepted) * 1e-12:
                    accepted, left = total, 0
                else:
                    left = left - 1 if is_trial else 20
            assert len(totals) == iters + 1 + trials
            all_trials += trials
        assert all_trials > 0

    # At 1.5 most returned sizings warn; at 3 none do, but iterates would.
    @pytest.mark.parametrize("ratio", [1.5, 3.0])
    def test_warns_only_about_the_returned_sizing(self, ref_params,
                                                  ref_library, ratio):
        params = dataclasses.replace(ref_params, slope_warn_ratio=ratio)
        rng = random.Random(3)
        for _ in range(30):
            path = random_path(rng)
            with warnings.catch_warnings(record=True) as solve_warnings:
                warnings.simplefilter("always")
                sizing, _, _ = min_delay_sizing(path, params, ref_library)
            with warnings.catch_warnings(record=True) as result_warnings:
                warnings.simplefilter("always")
                PathModel(path, params, ref_library).evaluate(sizing)
            assert ([str(w.message) for w in solve_warnings]
                    == [str(w.message) for w in result_warnings])

    def test_runs_out_of_iterations(self, ref_params, ref_library, chain11,
                                    monkeypatch):
        monkeypatch.setattr(bounds_module, "MAX_ITERATIONS", 1)
        with pytest.raises(ConvergenceError) as err:
            min_delay_sizing(chain11, ref_params, ref_library)
        assert err.value.iterations == 1
        assert err.value.residual is not None

    def test_convergence_error_formats_a_residual_only_when_given(self):
        assert str(ConvergenceError("x", iterations=3)) == \
            "x (iterations=3)"
        assert str(ConvergenceError("x", iterations=3, residual=-0.5)) == \
            "x (iterations=3, residual=-5.000e-01)"
        assert str(ConvergenceError("x")) == "x"

    def test_logs_one_line_per_solve(self, ref_params, ref_library,
                                     chain13, caplog):
        # steps and passes as the FixedPoint counts them, and the gates
        # those passes computed: all n on a cold start's first pass, at
        # most n per pass
        model = PathModel(chain13, ref_params, ref_library)
        caplog.set_level(logging.DEBUG, logger="cmospath.bounds")
        cold = link_fixed_point(model, a=-1e-2)
        warm = link_fixed_point(model, a=-2e-2, warm=cold)
        lines = [re.fullmatch(
            r"fixed point at a=(\S+): (\d+) steps, (\d+) derivative passes, "
            r"(\d+) of (\d+) gates computed, (\d+) of (\d+) rows swept",
            r.getMessage())
            for r in caplog.records if r.name == "cmospath.bounds"]
        lines = [m.groups() for m in lines if m]
        assert [(float(a), int(steps), int(passes)) for a, steps, passes, *_
                in lines] == [(-1e-2, cold.steps, cold.passes),
                              (-2e-2, warm.steps, warm.passes)]
        n = chain13.n
        for fixed, (_, _, _, gates, full, swept, rows) in zip((cold, warm),
                                                              lines):
            assert int(full) == n * fixed.passes
            assert int(gates) <= int(full)
            assert int(rows) == (n - 1) * fixed.steps
            assert int(swept) <= int(rows)
        assert int(lines[0][3]) >= n

    def test_logs_the_same_line_when_out_of_steps(self, ref_params,
                                                  ref_library, chain13,
                                                  caplog, monkeypatch):
        # A solve that runs out of steps logs the one line of a converged
        # solve, its steps at MAX_ITERATIONS, before it raises.
        monkeypatch.setattr(bounds_module, "MAX_ITERATIONS", 2)
        caplog.set_level(logging.DEBUG, logger="cmospath.bounds")
        with pytest.raises(ConvergenceError, match=r"iterations=2\b"):
            link_fixed_point(PathModel(chain13, ref_params, ref_library),
                             a=-1e-2)
        n = chain13.n
        lines = [r.getMessage() for r in caplog.records
                 if r.name == "cmospath.bounds"]
        assert len(lines) == 1
        assert re.fullmatch(
            rf"fixed point at a=-0\.01: 2 steps, \d+ derivative passes, "
            rf"\d+ of \d+ gates computed, \d+ of {2 * (n - 1)} rows swept",
            lines[0]), lines

    @pytest.mark.parametrize("gates", [
        ("inv", "nand2", "nor2", "inv", "inv", "nand3"), ("inv", "nand2")])
    def test_rejects_a_warm_fixed_point_of_another_path(
            self, ref_params, ref_library, gates):
        # A longer or shorter path cannot open on the pass of another.
        path = LogicPath(gates=("inv", "nand2", "nor2", "inv"),
                         input_cap=4.0, terminal_load=500.0)
        fixed = link_fixed_point(PathModel(path, ref_params, ref_library),
                                 a=-0.5)
        other = PathModel(dataclasses.replace(path, gates=gates), ref_params,
                          ref_library)
        with pytest.raises(ValueError, match="mismatched sizing length"):
            link_fixed_point(other, a=-0.5, warm=fixed)
        # Sizes of the right length, a pass of the wrong one.
        sizing = (path.input_cap,) + (ref_params.cref,) * (len(gates) - 1)
        with pytest.raises(ValueError, match="does not match"):
            link_fixed_point(other, a=-0.5, warm=fixed._replace(
                pass_=fixed.pass_._replace(sizing=sizing)))

    def test_rejects_a_bare_warm_pass(self, ref_params, ref_library,
                                      chain11):
        # A warm start is a FixedPoint, sizes or None; the pass alone
        # does not say which model it came from.
        model = PathModel(chain11, ref_params, ref_library)
        fixed = link_fixed_point(model, a=-0.5)
        with pytest.raises(TypeError, match="bare Pass"):
            link_fixed_point(model, a=-0.5, warm=fixed.pass_)
        again = link_fixed_point(model, a=-0.5, warm=fixed)
        assert again.pass_.total == pytest.approx(
            fixed.pass_.total, rel=1e-9)

    def test_degenerate_newton_system_raises_convergence_error(
            self, ref_params, ref_library, chain11, monkeypatch):
        # Both sweeps failing (the exact one and the dominance-fixed one)
        # is a typed failure of the solve, not a step.
        monkeypatch.setattr(bounds_module, "_newton_solve",
                            lambda *args, **kwargs: None)
        with pytest.raises(ConvergenceError, match="degenerated"):
            link_fixed_point(PathModel(chain11, ref_params, ref_library))

    def test_rejects_nonpositive_init(self, ref_params, ref_library,
                                      chain11):
        warm = [chain11.input_cap] + [8.0] * (chain11.n - 1)
        warm[5] = 0.0
        with pytest.raises(ValueError):
            warm_min_delay(chain11, ref_params, ref_library, tuple(warm))

    @pytest.mark.parametrize("warm, gate", [
        ([None, 0.0, None, 20.0], 0), ([None, -1.0, None, 20.0], 0),
        ([4.0, None, 9.0, 20.0], 1), ([4.0, 0.0, 10.0, 20.0], 1)])
    def test_rejects_a_bad_warm_list_naming_the_gate(
            self, ref_params, ref_library, warm, gate):
        # A warm list is a full sizing: a size that is None or below cref
        # is the same ValueError, naming the first gate at fault.
        path = LogicPath(gates=("inv",) * 4, input_cap=4.0,
                         terminal_load=60.0)
        model = PathModel(path, ref_params, ref_library)
        with pytest.raises(ValueError, match=rf"^cin\[{gate}\] "):
            model.check_sizing(warm)
        with pytest.raises(ValueError, match=rf"^cin\[{gate}\] "):
            link_fixed_point(model, warm=warm)

    def test_one_gate_path_runs_the_general_loop(self, ref_params,
                                                 ref_library):
        # A one-gate path has no free gate: its opening pass leaves an
        # empty window, so the solve returns its start with no step.  A
        # bad warm start is check_sizing's ValueError, as on any path; a
        # FixedPoint start takes no pass, a cold or a list start one.
        path = LogicPath(gates=("inv",), input_cap=4.0, terminal_load=50.0)
        model = PathModel(path, ref_params, ref_library)
        for warm in ([999.0], [4.0, 5.0], [math.nan]):
            with pytest.raises(ValueError) as want:
                model.check_sizing(warm)
            with pytest.raises(ValueError) as got:
                link_fixed_point(model, warm=warm)
            assert str(got.value) == str(want.value)
        with pytest.raises(ValueError, match="mismatched sizing length"):
            solve_at_sensitivity(path, -1.0, ref_params, ref_library,
                                 warm=[999.0, 1.0])
        cold = link_fixed_point(model)
        assert (cold.sizing, cold.steps, cold.passes) == ((4.0,), 0, 1)
        assert repr(link_fixed_point(model, warm=[4.0])) == repr(cold)
        hot = link_fixed_point(model, -1.0, warm=cold)
        assert (hot.steps, hot.passes) == (0, 0)
        assert repr(hot.pass_) == repr(cold.pass_)


def fd_gradient(model, sizing):
    """Central differences of the exact delay over the free gates."""
    out = []
    for j in range(1, model.n):
        h = 1e-5 * sizing[j]
        up = list(sizing)
        down = list(sizing)
        up[j] += h
        down[j] -= h
        out.append((model.evaluate(up).total
                    - model.evaluate(down).total) / (2.0 * h))
    return out


class TestDominantHessianStep:
    """Strong fixed coupling makes the exact log-space Hessian indefinite
    on the way to the fixed point.  There the solver makes each row of
    that Hessian that is not diagonally dominant so and steps on the
    result; no solve reads the frozen surrogate."""

    GATES = ("inv", "nand2", "nor2", "inv", "nand3", "inv", "nor3",
             "nand2", "inv", "inv", "nand2", "inv")

    @pytest.fixture
    def coupled(self, tmp_path):
        lines = []
        ref_text = pathlib.Path(REF_PROC).read_text(encoding="utf-8")
        for line in ref_text.splitlines():
            lines.append(line)
            if line.startswith("inputs ="):
                lines.append("cm_override_ff = 500")
        proc = tmp_path / "coupled.proc"
        proc.write_text("\n".join(lines) + "\n", encoding="utf-8")
        params, library = load_process_file(str(proc))
        assert all(t.cm_override == 500.0 for t in library.values())
        path = LogicPath(gates=self.GATES, input_cap=4.0, terminal_load=200.0)
        return path, params, library

    @pytest.fixture
    def failed_sweeps(self, monkeypatch):
        # the exact Thomas sweep fails only where the Hessian is not
        # positive definite; the oracle, which builds the system and then
        # sweeps it, tells each Newton solve whose exact sweep failed and
        # gives the solution the kernel must match
        failures = []
        original = bounds_module._newton_solve

        def recording(cin, grad, hd, ho, a, clamped, lo, border=False):
            # Every gate before lo is pinned, so the oracle, which tests
            # every row, pins it too.
            solved = original(cin, grad, hd, ho, a, clamped, lo, border)
            want, fixed = oracles.newton_solve(cin, grad, hd, ho, a, clamped,
                                               border)
            assert repr(full(solved, lo)) == repr(want)
            if fixed:
                failures.append(len(cin) - 1)
            return solved

        monkeypatch.setattr(bounds_module, "_newton_solve", recording)
        return failures

    @pytest.fixture
    def frozen_calls(self, monkeypatch):
        calls = []
        original = PathModel.coefficients

        def counting(model, sizing):
            calls.append(tuple(sizing))
            return original(model, sizing)

        monkeypatch.setattr(PathModel, "coefficients", counting)
        return calls

    @pytest.mark.parametrize("a", [0.0, -1e-3])
    def test_converges_to_a_certified_point(self, coupled, failed_sweeps,
                                            frozen_calls, a):
        path, params, library = coupled
        model = PathModel(path, params, library)
        if a == 0.0:
            sizing, delay, _ = min_delay_sizing(path, params, library)
        else:
            sol = solve_at_sensitivity(path, a, params, library)
            sizing, delay = sol.sizing, sol.delay
        assert len(failed_sweeps) >= 1
        assert frozen_calls == []
        assert delay == pytest.approx(model.evaluate(sizing).total,
                                      rel=1e-12)
        clamped = model.clamped(sizing)
        grad = fd_gradient(model, sizing)
        free = [g for g, c in zip(grad, clamped[1:]) if not c]
        assert len(free) >= 8
        assert max(abs(g - a) for g in free) * params.cref / delay < 1e-5

    def test_strongly_coupled_path_converges_quickly(self, ref_params,
                                                      ref_library):
        # 38 iterations here; a step that crawls through the region where
        # the exact Hessian is indefinite takes hundreds.
        values = {"inv": (2.14, 1.0), "nand2": (0.57, 2.0),
                  "nand3": (1.49, None), "nor2": (0.94, 443.0),
                  "nor3": (1.75, 742.0)}
        library = {kind: dataclasses.replace(t, par_coeff=values[kind][0],
                                             cm_override=values[kind][1])
                   for kind, t in ref_library.items()}
        path = LogicPath(gates=("nor3", "nand2", "nand2", "nor2", "nand2",
                                "nor2", "nor2", "nand3", "inv", "nand2",
                                "nand3", "nand3", "nand2", "nor2", "nor3"),
                         input_cap=4.0, terminal_load=6.3)
        _, t_min, iters = min_delay_sizing(path, ref_params, library)
        assert iters <= 60
        assert t_min == pytest.approx(1408.4861374985073, rel=1e-12)

    def test_random_coupled_paths_converge_quickly(self, ref_params,
                                                   ref_library):
        rng = random.Random(1)
        for _ in range(200):
            # every kind gets a random parasitic coefficient and a fixed
            # coupling of 1-1000 fF or none
            library = {kind: dataclasses.replace(
                t, par_coeff=rng.uniform(0.0, 2.5),
                cm_override=rng.choice((None, rng.uniform(1.0, 1000.0))))
                for kind, t in ref_library.items()}
            n = rng.randint(2, 24)
            path = LogicPath(gates=tuple(rng.choice(KINDS) for _ in range(n)),
                             input_cap=rng.uniform(2.0, 10.0),
                             terminal_load=rng.uniform(2.0, 500.0))
            model = PathModel(path, ref_params, library)
            for a in (0.0, -1e-2, -1.0):
                assert link_fixed_point(model, a)[2] <= 60, (path, a)

    @pytest.mark.parametrize("ratio", [1.01, 1.1, 1.5, 2.0, 3.0])
    def test_distribution_lands_in_the_band(self, coupled, ratio):
        path, params, library = coupled
        bounds = compute_bounds(path, params, library)
        tc = ratio * bounds.t_min
        sol = distribute_constraint(path, tc, params, library, bounds=bounds)
        assert tc * (1.0 - 1e-3) <= sol.delay <= tc
        assert sol.a_value < 0.0


def full(solved, lo):
    """The kernel's solutions over rows lo..n-1, spread over every row
    with 0.0 on the rows before lo."""
    if solved is None:
        return solved
    return [[0.0] * (lo - 1) + values for values in solved]


class TestNewtonKernel:
    """The kernel builds and eliminates each row of the log-space Newton
    system in one sweep, pinned rows as unit rows; the oracle builds the
    whole system, then sweeps it once per right-hand side."""

    @staticmethod
    def _system(rng, m, kind):
        """(cin, grad, hd, ho, a, clamped) of m free gates: positive
        definite, indefinite (the dominance fix runs) or degenerate (the
        solve gives up)."""
        cin = [rng.uniform(1.0, 10.0)] + [
            rng.choice((2.0, rng.uniform(2.0, 300.0))) for _ in range(m)]
        clamped = [False] + [rng.random() < 0.4 for _ in range(m)]
        a = rng.choice((0.0, -rng.uniform(1e-3, 1.0)))
        scale = rng.choice((1e-4, 1e-2, 1.0))
        grad = [a if rng.random() < 0.1 else a + rng.uniform(-1.0, 1.0)
                * scale * 1e-4 for _ in range(m)]
        ho = [rng.uniform(-1.0, 1.0) * scale * 1e-5 for _ in range(m - 1)]
        ho.append(0.0)
        low = -3e-3 if kind == "indefinite" else 3e-3
        hd = [rng.uniform(low, 4e-3) * scale for _ in range(m)]
        if kind == "degenerate":
            spoil = rng.randrange(m)
            values = rng.choice((grad, hd, ho, cin))
            values[spoil] = 1e200 if values is cin else math.nan
        return cin, grad, hd, ho, a, clamped

    @pytest.mark.parametrize("border", [False, True])
    def test_matches_the_oracle(self, border):
        rng = random.Random(17)
        outcomes = {"exact": 0, "dominant": 0, "none": 0}
        pinned_rows = 0
        for k in range(1500):
            kind = ("definite", "indefinite", "degenerate")[k % 3]
            m = rng.randint(1, 30)
            cin, grad, hd, ho, a, clamped = self._system(rng, m, kind)
            got = bounds_module._newton_solve(cin, grad, hd, ho, a, clamped,
                                              1, border)
            want, fixed = oracles.newton_solve(cin, grad, hd, ho, a, clamped,
                                               border)
            assert repr(got) == repr(want), (k, kind)
            outcomes["none" if want is None
                     else "dominant" if fixed else "exact"] += 1
            if want is not None:
                assert len(want) == (2 if border else 1)
                pinned_rows += sum(x == 0.0 and c for x, c in
                                   zip(want[0], clamped[1:]))
        assert min(outcomes.values()) >= 200, outcomes
        assert pinned_rows >= 1000

    PATTERNS = ("first", "last", "adjacent", "alternating", "all", "none")

    @pytest.mark.parametrize("border", [False, True])
    @pytest.mark.parametrize("pattern", PATTERNS)
    def test_pinned_blocks_match_the_oracle(self, ref_params, ref_library,
                                            pattern, border):
        # Passes of random coupled libraries at random sizes, which are
        # mostly indefinite in log space, with the gates of pattern
        # pinned: at cref, their residual pushing down.  Another fifth of
        # the gates sit at cref with a residual that does not push down,
        # so they stay free.  The kernel sweeps the free rows block by
        # block and equals the oracle, which sweeps every row, pinned
        # ones as unit rows, whether it visits every row or the window
        # that _unpinned trims the leading pinned rows off.  A pinned last
        # row stays in that window and solves to exactly 0.  Some free
        # rows are diagonally dominant without, but not with, the
        # coupling to a pinned neighbour.
        rng = random.Random(31 + self.PATTERNS.index(pattern))
        cref = ref_params.cref
        outcomes = {"exact": 0, "dominant": 0, "none": 0}
        pinned_coupling = tails = 0
        for _ in range(150):
            library = {kind: dataclasses.replace(
                t, par_coeff=rng.uniform(0.0, 2.5),
                cm_override=rng.choice((None, rng.uniform(1.0, 1000.0))))
                for kind, t in ref_library.items()}
            m = rng.randint(2 if pattern == "adjacent" else 1, 24)
            start = rng.randint(1, m - 1) if pattern == "adjacent" else 1
            pinned = {"first": {1}, "last": {m}, "adjacent": {start,
                                                              start + 1},
                      "alternating": set(range(rng.randint(1, 2), m + 1, 2)),
                      "all": set(range(1, m + 1)), "none": set()}[pattern]
            path = LogicPath(
                gates=tuple(rng.choice(KINDS) for _ in range(m + 1)),
                input_cap=rng.uniform(2.0, 10.0),
                terminal_load=rng.uniform(2.0, 500.0))
            cin = [path.input_cap] + [
                cref if j in pinned or rng.random() < 0.2
                else cref * rng.uniform(1.0, 300.0) for j in range(1, m + 1)]
            model = PathModel(path, ref_params, library)
            held = model.derivatives(cin)
            a = rng.choice((0.0, -rng.uniform(0.0, 1.0)
                            * 10.0 ** rng.uniform(-4.0, 0.0)))
            grad = [a + 1.0 if j in pinned
                    else a - abs(g - a) * rng.uniform(0.0, 4.0)
                    if cin[j] == cref else g
                    for j, g in enumerate(held.grad, 1)]
            clamped = model.clamped(cin)
            want, fixed = oracles.newton_solve(cin, grad, held.diag,
                                               held.off, a, clamped, border)
            outcomes["none" if want is None
                     else "dominant" if fixed else "exact"] += 1
            # Every row visited, then, as link_fixed_point sweeps, the
            # window lo..m that _unpinned trims from a row at or before
            # the first free one.
            got = bounds_module._newton_solve(cin, grad, held.diag, held.off,
                                              a, clamped, 1, border)
            assert repr(got) == repr(want)
            free = [j for j in range(1, m + 1) if j not in pinned]
            lo = rng.randint(1, free[0]) if free else 1
            lo = bounds_module._unpinned(held._replace(grad=grad), a,
                                         clamped, lo)
            got = full(bounds_module._newton_solve(
                cin, grad, held.diag, held.off, a, clamped, lo, border), lo)
            assert repr(got) == repr(want)
            if pattern == "last" and free:
                # The window holds the pinned last row, which solves to 0.
                assert lo <= m
                tails += got is not None and all(x[-1] == 0.0 for x in got)
            if fixed:
                diag, off, _ = oracles.newton_system(cin, grad, held.diag,
                                                     held.off, a)
                for j in set(range(1, m + 1)) - pinned:
                    below = abs(off[j - 2]) if j > 1 else 0.0
                    above = abs(off[j - 1])
                    free_coupling = ((below if j - 1 not in pinned else 0.0)
                                     + (above if j + 1 not in pinned
                                        else 0.0))
                    pinned_coupling += (free_coupling < diag[j - 1]
                                        <= below + above)
        if pattern == "all":
            assert outcomes == {"exact": 150, "dominant": 0, "none": 0}
            assert repr(got) == repr([[0.0] * m] * (2 if border else 1))
        else:
            assert outcomes["dominant"] >= 20, outcomes
            assert outcomes["exact"] >= 10, outcomes
        if pattern not in ("all", "none"):
            assert pinned_coupling >= 10
        if pattern == "last":
            assert tails >= 100


class TestOneRowSet:
    """Every solve sweeps one window of rows, the chain less the pinned
    rows at its front; trimming them changes the work, never the solve."""

    CLAMPS = ("none", "few", "most", "all")

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), clamp=st.sampled_from(CLAMPS),
           scale=st.sampled_from((0.0, -1e-3, -1e-1, -10.0)))
    def test_end_trim_leaves_the_fixed_point_unchanged(
            self, ref_params, ref_library, seed, clamp, scale):
        # With _unpinned returning row 1, every step sweeps every row.
        # That gives the trimmed solve's FixedPoint by repr, steps and
        # passes included, and so does a failure.  A trimmed solve whose
        # every row is pinned at its start returns the start with no
        # step; the untrimmed one takes one step that moves nothing, and
        # one pass more, to the same FixedPoint.
        rng = random.Random(seed)
        path = random_path(rng, n_max=130)
        n = path.n
        cref = ref_params.cref
        model = PathModel(path, ref_params, ref_library)
        half = max(1, (n - 1) // 2)
        k = {"none": 0, "few": rng.randint(1, half),
             "most": rng.randint(half, n - 1), "all": n - 1}[clamp]
        pinned = set(rng.sample(range(1, n), k))
        warm = [path.input_cap] + [
            cref if j in pinned else cref * math.exp(rng.uniform(0.0, 6.0))
            for j in range(1, n)]
        assert sum(model.clamped(warm)[1:]) == k
        t_max = model.evaluate(bounds_module.all_minimum(model)).total
        a = scale * t_max / cref

        def solved():
            try:
                return link_fixed_point(model, a, warm)
            except ConvergenceError as exc:
                return exc

        trimmed = solved()
        if isinstance(trimmed, FixedPoint) and trimmed.steps == 0:
            trimmed = trimmed._replace(steps=1, passes=trimmed.passes + 1)
        trimmed = repr(trimmed)
        with mock.patch.object(bounds_module, "_unpinned",
                               lambda held, a, clamped, lo: 1):
            assert repr(solved()) == trimmed


    @staticmethod
    def _row_loop(held, a, clamped, lo):
        """The window of _unpinned found row by row from its front."""
        sizes, grad, n = held.sizing, held.grad, len(clamped)
        while lo < n and clamped[lo] and sizes[lo] * (grad[lo - 1] - a) > 0.0:
            lo += 1
        return lo if lo == n else max(1, lo - 1)

    @pytest.mark.parametrize("cref", [2.0, 1e-300])
    def test_run_skip_matches_the_row_loop(self, cref):
        # _unpinned tests the clamped run at the front of its window
        # whole.  Held passes with long clamped runs, some of their rows
        # not pinned (g_j below a), a NaN g_j, and at cref = 1e-300
        # products sizes[j] * (g_j - a) that underflow to 0 or stay
        # subnormal: the window is the row loop's every time, and the
        # whole-run test both pins runs and declines them.
        rng = random.Random(7)
        real_pins = bounds_module._pins
        verdicts = []

        def pins(*args):
            verdicts.append(real_pins(*args))
            return verdicts[-1]

        tiny = cref < 1e-200
        half = 5e-324 / cref / 2.0
        with mock.patch.object(bounds_module, "_pins", pins):
            for _ in range(3000):
                n = rng.randint(2, 60)
                clamped = [False] + [rng.random() < 0.85
                                     for _ in range(n - 1)]
                sizes = [rng.uniform(1.0, 10.0)] + [
                    cref * (1.0 + rng.uniform(-1e-9, 1e-9)) if c
                    else cref * rng.uniform(1.0, 50.0) for c in clamped[1:]]
                a = rng.choice((0.0, -rng.uniform(1e-3, 1.0)))
                # Mostly above a, so that runs pin; at cref = 1e-300 by
                # 1e-24 to 1e-22, or by as much as puts the product within
                # 3e-9 of half the least subnormal, where it rounds to 0
                # or not by the size's own last bits.
                grad = [a + (rng.choice((rng.uniform(1e-24, 1e-22),
                                         half * (1.0 + rng.uniform(
                                             -2e-9, 2e-9))))
                             if tiny else rng.uniform(1e-6, 1.0))
                        if rng.random() < 0.9 else a - rng.uniform(0.0, 1.0)
                        for _ in range(n - 1)]
                if rng.random() < 0.2:
                    grad[rng.randrange(n - 1)] = math.nan
                held = Pass(tuple(grad), [1.0] * (n - 1), [0.0] * (n - 1),
                            1.0, tuple(sizes), [], [], 0)
                lo = rng.randint(1, n - 1)
                want = self._row_loop(held, a, clamped, lo)
                assert bounds_module._unpinned(held, a, clamped, lo) == want
        assert verdicts.count(True) > 100
        assert verdicts.count(False) > 100

    def test_all_pinned_warm_solve_returns_its_start(self, ref_params,
                                                     ref_library):
        # Far below every sensitivity the kernel pins every row at cref.
        # A solve warm from a FixedPoint there returns it: no step and no
        # pass, the same sizing and the same pass.  A solve that sweeps
        # every row instead takes one step that moves nothing, and one
        # pass, to the same sizing and pass.
        path = LogicPath(gates=("inv", "nand2", "nor2", "inv", "nand3",
                                "inv") * 2, input_cap=4.0,
                         terminal_load=60.0)
        model = PathModel(path, ref_params, ref_library)
        cref = ref_params.cref
        deep = -1e6 * max_delay_sizing(path, ref_params, ref_library)[1] / cref
        start = link_fixed_point(model, deep,
                                 bounds_module.all_minimum(model))
        assert (start.steps, start.passes) == (0, 1)
        assert start.sizing == bounds_module.all_minimum(model)
        real_pass = PathModel._pass
        passes = []

        def recording(model, sizing, base, lo):
            passes.append(real_pass(model, sizing, base, lo))
            return passes[-1]

        with mock.patch.object(PathModel, "_pass", recording):
            got = link_fixed_point(model, 2.0 * deep, start)
        assert (got.steps, got.passes) == (0, 0)
        assert got.sizing is start.sizing
        assert repr(got.pass_) == repr(start.pass_)
        assert [p.gates for p in passes] == [0]  # the closing evaluation
        with mock.patch.object(bounds_module, "_unpinned",
                               lambda held, a, clamped, lo: 1):
            swept = link_fixed_point(model, 2.0 * deep, start)
        assert repr(swept) == repr(got._replace(steps=1, passes=1))

    def test_each_solve_checks_its_sizing_once(self, ref_params,
                                               ref_library):
        # A solve checks its start, and no pass after it: the cold, warm
        # and FixedPoint starts of link_fixed_point, every row of a
        # sweep, the bordered Newton of distribute_constraint (at its
        # opening pass, given the bounds) and a one-gate path.
        rng = random.Random(11)
        path = LogicPath(gates=tuple(rng.choice(KINDS) for _ in range(120)),
                         input_cap=4.0, terminal_load=900.0)
        model = PathModel(path, ref_params, ref_library)
        bounds = compute_bounds(path, ref_params, ref_library)
        cref = ref_params.cref
        ladder = [-100.0 * bounds.t_min / cref * 1e-5 ** (k / 22)
                  for k in range(23)] + [0.0]
        real_check = PathModel.check_sizing
        checks = []

        def counting(model, sizing):
            checks.append(len(sizing))
            return real_check(model, sizing)

        with mock.patch.object(PathModel, "check_sizing", counting):
            cold = link_fixed_point(model)
            assert len(checks) == 1 and cold.steps > 1
            warm = link_fixed_point(model, ladder[12],
                                    bounds_module.all_minimum(model))
            assert len(checks) == 2 and warm.steps > 1
            hot = link_fixed_point(model, ladder[14], warm)
            assert len(checks) == 3 and hot.steps > 1
            del checks[:]
            rows, failures = sweep(path, ladder, ref_params, ref_library)
            assert len(rows) == 24 and not failures
            assert len(checks) == 24
            del checks[:]
            sol = distribute_constraint(path, 1.5 * bounds.t_min,
                                        ref_params, ref_library,
                                        bounds=bounds)
            assert sol.a_value < 0.0
            assert len(checks) == 1
            del checks[:]
            one = PathModel(LogicPath(gates=("inv",), input_cap=4.0,
                                      terminal_load=30.0),
                            ref_params, ref_library)
            link_fixed_point(one)
            assert checks == [1]


class TestCertified:
    """The one stopping rule: every unclamped g_j within tol = 5e-5 * |a|
    + 1e-6 * T / cref of a, and no clamped g_j more than tol below a."""

    A, TOTAL = -0.25, 800.0

    @pytest.fixture
    def model(self, ref_params, ref_library):
        path = LogicPath(gates=("inv", "nand2", "nor2", "inv"),
                         input_cap=4.0, terminal_load=120.0)
        return PathModel(path, ref_params, ref_library)

    def held(self, model, grad):
        """A pass with gate 1 at cref (clamped) and gates 2-3 free."""
        cref = model.params.cref
        sizing = (4.0, cref, 3.0 * cref, 9.0 * cref)
        return Pass(tuple(grad), [1.0] * 3, [0.0] * 3, self.TOTAL, sizing,
                    [], [], 0)

    def certified(self, model, grad, a, lo=1):
        """The rule on held(model, grad), read over gates lo to 3 (every
        gate by default) with the flags of its sizes."""
        held = self.held(model, grad)
        return certified(model, held, a, lo, model.clamped(held.sizing))

    def edges(self, model):
        """The farthest g above and below a within tol, as the rule
        computes g - a."""
        a = self.A
        tol = 5e-5 * -a + 1e-6 * self.TOTAL / model.params.cref
        out = []
        for sign in (1.0, -1.0):
            g = a + sign * tol
            while abs(g - a) > tol:
                g = math.nextafter(g, a)
            while abs(math.nextafter(g, sign * math.inf) - a) <= tol:
                g = math.nextafter(g, sign * math.inf)
            out.append(g)
        return out

    def test_free_gates_at_and_past_the_tolerance(self, model):
        a = self.A
        for edge in self.edges(model):
            for j in (1, 2):
                grad = [a + 1.0, a, a]  # gate 1 clamped, wanting to shrink
                grad[j] = edge
                assert self.certified(model, grad, a)
                grad[j] = math.nextafter(edge, math.copysign(math.inf,
                                                             edge - a))
                assert not self.certified(model, grad, a)

    def test_clamped_gate_above_a_passes(self, model):
        a = self.A
        for g in (a, a + 1e-3, a + 1e3):
            assert self.certified(model, [g, a, a], a)

    def test_clamped_gate_below_a_fails_past_the_tolerance(self, model):
        a = self.A
        _, low = self.edges(model)
        assert self.certified(model, [low, a, a], a)
        for g in (math.nextafter(low, -math.inf), a - 1.0):
            assert not self.certified(model, [g, a, a], a)

    def test_an_empty_window_reads_no_gate(self, model):
        # An empty window (lo = n) means every gate is pinned, so no row
        # is read and the rule holds for any gradient, even one that
        # fails on every gate over the whole chain.  A window from gate
        # 2 reads gates 2 and 3 alone.
        a = self.A
        for grad in ([a - 1.0, a + 1.0, a - 1e3], [math.nan] * 3,
                     [math.inf, -math.inf, a]):
            assert not self.certified(model, grad, a)
            assert self.certified(model, grad, a, lo=4)
        assert not self.certified(model, [a - 1.0, a, a], a)
        assert self.certified(model, [a - 1.0, a, a], a, lo=2)


class TestFeasibility:
    def test_boundary_and_window(self, ref_params, ref_library, chain13):
        bounds = compute_bounds(chain13, ref_params, ref_library)
        assert bounds.t_min <= bounds.t_max
        assert feasibility(chain13, bounds.t_min, bounds)
        assert not feasibility(chain13, 0.9 * bounds.t_min, bounds)
        assert feasibility(chain13, 2.0 * bounds.t_max, bounds)

    def test_bounds_reject_t_min_above_t_max(self, ref_params, ref_library,
                                             chain13):
        bounds = compute_bounds(chain13, ref_params, ref_library)
        with pytest.raises(ValueError, match="must not exceed"):
            DelayBounds(t_min=bounds.t_max * 1.01, t_max=bounds.t_max,
                        sizing_min=bounds.sizing_min,
                        sizing_max=bounds.sizing_max)

    def test_rejects_nonpositive_tc(self, ref_params, ref_library, chain13):
        bounds = compute_bounds(chain13, ref_params, ref_library)
        with pytest.raises(ValueError):
            feasibility(chain13, 0.0, bounds)
