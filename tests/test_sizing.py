"""Constant-sensitivity sizing, constraint distribution, and the baseline."""

import dataclasses
import itertools
import logging
import math
import random
import re

import pytest

import oracles
from cmospath import sizing
from cmospath import (
    ConvergenceError,
    GateTemplate,
    InfeasibleError,
    LogicPath,
    PathModel,
    ProcessParams,
    SensitivitySolution,
    compute_bounds,
    distribute_constraint,
    equal_delay_distribution,
    evaluate_path,
    min_delay_sizing,
    path_area,
    solve_at_sensitivity,
    sweep,
)
from cmospath.bounds import certified, link_fixed_point
from cmospath.path import MAX_CAP_FF, Pass

KINDS = ("inv", "nand2", "nand3", "nor2", "nor3")

FOUR_GATE = LogicPath(gates=("inv", "nand2", "nor2", "inv"), input_cap=4.0,
                      terminal_load=120.0, input_edge="rising",
                      driver_slope_rise=40.0, driver_slope_fall=40.0)


class TestSolveAtSensitivity:
    def test_zero_sensitivity_is_minimum_delay(self, ref_params,
                                               ref_library, chain11):
        sol = solve_at_sensitivity(chain11, 0.0, ref_params, ref_library)
        sizing, t_min, _ = min_delay_sizing(chain11, ref_params, ref_library)
        assert sol.delay == pytest.approx(t_min, rel=1e-6)
        for got, want in zip(sol.sizing, sizing):
            assert got == pytest.approx(want, rel=1e-6)

    def test_rejects_positive_sensitivity(self, ref_params, ref_library,
                                          chain11):
        # link_fixed_point's own check; sweep reports the same error.
        with pytest.raises(ValueError, match="must be <= 0"):
            solve_at_sensitivity(chain11, 0.5, ref_params, ref_library)

    def test_rejects_nan_sensitivity(self, ref_params, ref_library,
                                     chain11):
        # A NaN target is no a <= 0: it is refused before any Newton step
        # instead of degenerating the system, and sweep files that error.
        with pytest.raises(ValueError, match="must be <= 0"):
            solve_at_sensitivity(chain11, math.nan, ref_params, ref_library)
        rows, failures = sweep(chain11, [math.nan, 0.0], ref_params,
                               ref_library)
        assert [row.a_value for row in rows] == [0.0]
        assert [type(exc) for _, exc in failures] == [ValueError]

    def test_solution_rejects_positive_sensitivity(self):
        with pytest.raises(ValueError, match="a_value must be <= 0"):
            SensitivitySolution(a_value=0.1, sizing=(4.0, 2.0), delay=10.0,
                                area=1.0)

    def test_deep_sensitivity_clamps_everything(self, ref_params,
                                                ref_library, chain11):
        bounds = compute_bounds(chain11, ref_params, ref_library)
        a = -1e6 * bounds.t_min / ref_params.cref
        sol = solve_at_sensitivity(chain11, a, ref_params, ref_library)
        assert all(c == pytest.approx(ref_params.cref, rel=1e-9)
                   for c in sol.sizing[1:])
        assert sol.delay == pytest.approx(bounds.t_max, rel=1e-9)

    def test_gradient_components_equalize(self, ref_params, ref_library,
                                          chain11):
        _, t_min, _ = min_delay_sizing(chain11, ref_params, ref_library)
        for a in (-0.05, -0.5, -2.0):
            sol = solve_at_sensitivity(chain11, a, ref_params, ref_library)
            model = PathModel(chain11, ref_params, ref_library)
            grad = model.derivatives(sol.sizing).grad
            clamped = model.clamped(sol.sizing)
            free = [g for g, c in zip(grad, clamped[1:]) if not c]
            assert free, "every gate clamped at this sensitivity"
            spread = max(free) - min(free)
            assert spread <= 1e-4 * abs(a) + 2e-6 * sol.delay / ref_params.cref
            mid = 0.5 * (max(free) + min(free))
            assert mid == pytest.approx(a, rel=1e-3, abs=1e-9)

    def test_area_optimal_against_grid_oracle(self, ref_params, ref_library):
        bounds = compute_bounds(FOUR_GATE, ref_params, ref_library)
        sol = distribute_constraint(FOUR_GATE, 1.15 * bounds.t_min,
                                    ref_params, ref_library)
        tpls = [ref_library[k] for k in FOUR_GATE.gates]
        hit = oracles.grid_min_area(
            tpls, FOUR_GATE.input_cap, FOUR_GATE.terminal_load,
            FOUR_GATE.input_edge, 40.0, 40.0, ref_params,
            tc=sol.delay * (1.0 + 1e-12), lo=ref_params.cref, hi=360.0)
        assert hit is not None
        grid_caps, _, _ = hit
        mine = sum(sol.sizing[1:])
        assert abs(mine - grid_caps) <= 0.01 * grid_caps


class TestDistributeConstraint:
    def test_boundary_at_minimum_delay(self, ref_params, ref_library,
                                       chain13):
        bounds = compute_bounds(chain13, ref_params, ref_library)
        sol = distribute_constraint(chain13, bounds.t_min, ref_params,
                                    ref_library)
        assert sol.a_value <= 0.0
        assert abs(sol.delay - bounds.t_min) / bounds.t_min <= 1e-3

    def test_below_minimum_is_infeasible(self, ref_params, ref_library,
                                         chain13):
        bounds = compute_bounds(chain13, ref_params, ref_library)
        with pytest.raises(InfeasibleError) as err:
            distribute_constraint(chain13, 0.9 * bounds.t_min, ref_params,
                                  ref_library)
        assert err.value.t_min == pytest.approx(bounds.t_min, rel=1e-9)

    def test_slack_buys_area(self, ref_params, ref_library, chain11):
        bounds = compute_bounds(chain11, ref_params, ref_library)
        tight = distribute_constraint(chain11, bounds.t_min, ref_params,
                                      ref_library)
        relaxed = distribute_constraint(chain11, 1.5 * bounds.t_min,
                                        ref_params, ref_library)
        assert relaxed.a_value < 0.0
        assert relaxed.area < tight.area
        tc = 1.5 * bounds.t_min
        assert tc * (1.0 - 1e-3) <= relaxed.delay <= tc

    FIXTURE_RATIOS = (1.05, 1.1, 1.2, 1.5, 2.0, 2.5, 3.0, 4.0)

    @staticmethod
    def _logged_steps(caplog):
        """(bordered iterations, corrector steps, derivative passes) of each
        distribute call logged so far, in call order."""
        logged = [re.fullmatch(r"distribute: (\d+) bordered iterations, "
                               r"(\d+) corrector steps, (\d+) derivative "
                               r"passes", r.getMessage())
                  for r in caplog.records if r.name == "cmospath.sizing"]
        return [tuple(map(int, m.groups())) for m in logged if m]

    @pytest.fixture
    def fixture_calls(self, ref_params, ref_library, chain11, chain13,
                      heavy_path, monkeypatch, caplog):
        """Run the 24 fixture calls; each call's derivative passes, the
        sizings they were taken at, its corrector steps and its floor
        passes.  The result is evaluated on the last pass, and the pass
        that evaluation takes computes no gate; it is not listed."""
        real_derivatives = PathModel.derivatives
        real_floor = sizing._floor_sensitivity
        calls = []

        def derivatives(model, at, base=None):
            held = real_derivatives(model, at, base)
            calls[-1]["passes"].append((tuple(at), held.gates))
            return held

        def floor(*args):
            calls[-1]["floor"] += 1
            return real_floor(*args)

        paths = [(path, compute_bounds(path, ref_params, ref_library))
                 for path in (chain11, chain13, heavy_path)]
        monkeypatch.setattr(PathModel, "derivatives", derivatives)
        monkeypatch.setattr(sizing, "_floor_sensitivity", floor)
        caplog.set_level(logging.DEBUG, logger="cmospath.sizing")
        for path, bounds in paths:
            for ratio in self.FIXTURE_RATIOS:
                tc = ratio * bounds.t_min
                calls.append({"bounds": bounds, "passes": [], "floor": 0})
                caplog.clear()
                sol = distribute_constraint(path, tc, ref_params, ref_library,
                                            bounds=bounds)
                assert tc * (1.0 - 1e-3) <= sol.delay <= tc
                assert calls[-1]["passes"].pop() == (sol.sizing, 0)
                calls[-1]["passes"] = [at for at, _ in calls[-1]["passes"]]
                (iterations, corrections, passes), = \
                    self._logged_steps(caplog)
                assert passes == len(calls[-1]["passes"]) == 1 + iterations
                calls[-1]["corrections"] = corrections
        return calls

    def test_few_passes_per_call(self, fixture_calls):
        # One Newton iteration on the sizes and a together: one pass at
        # the fastest sizing, then one per iteration.  The nested search
        # it replaced took 26.8 passes a call here (36 at most).
        passes = [len(call["passes"]) for call in fixture_calls]
        assert len(passes) == 24
        assert sum(passes) / len(passes) <= 12.0
        assert max(passes) <= 16

    def test_fixture_calls_take_the_bordered_route(self, fixture_calls):
        # On ref.proc the delay always falls along the step in a: no call
        # needs a corrector step at fixed a.
        assert [call["corrections"] for call in fixture_calls] == [0] * 24

    def test_no_corner_pass_below_the_ceiling(self, fixture_calls):
        # The first pass is at the fastest sizing, which the bounds hold.
        # The floor sensitivity, and its pass at the all-minimum corner,
        # is only needed at or above t_max.
        for call in fixture_calls:
            assert call["passes"][0] == call["bounds"].sizing_min
            assert call["floor"] == 0

    @staticmethod
    def _seeded_chain(seed):
        """A chain of 100-130 random ref.proc gates, drawn as
        scripts/diff_optimize.py draws its cases."""
        rng = random.Random(seed)
        n = rng.randint(100, 130)
        return LogicPath(
            gates=tuple(rng.choice(KINDS) for _ in range(n)),
            input_cap=rng.uniform(2.0, 8.0),
            terminal_load=math.exp(rng.uniform(math.log(100.0),
                                               math.log(2000.0))))

    def test_bordered_passes_open_on_the_pass_held(
            self, ref_params, ref_library, chain11, chain13, heavy_path,
            monkeypatch):
        # Each pass of the bordered Newton is windowed on the pass it
        # holds: `first` on its first step, then the pass before.
        real_newton = sizing._bordered_newton
        real_derivatives = PathModel.derivatives
        calls, inside = [], []

        def bordered(model, bounds, tc, first):
            calls.append([first])
            inside.append(True)
            try:
                return real_newton(model, bounds, tc, first)
            finally:
                inside.pop()

        def derivatives(model, at, base=None):
            held = real_derivatives(model, at, base)
            if inside:
                assert base is calls[-1][-1]
                calls[-1].append(held)
            return held

        paths = [(path, compute_bounds(path, ref_params, ref_library))
                 for path in (chain11, chain13, heavy_path,
                              self._seeded_chain(2))]
        monkeypatch.setattr(sizing, "_bordered_newton", bordered)
        monkeypatch.setattr(PathModel, "derivatives", derivatives)
        for path, bounds in paths:
            for ratio in (1.05, 1.5, 3.0):
                distribute_constraint(path, ratio * bounds.t_min, ref_params,
                                      ref_library, bounds=bounds)
        assert calls
        assert all(len(passes) > 1 for passes in calls)

    def test_bordered_passes_compute_fewer_gates_than_the_chain(
            self, ref_params, ref_library, monkeypatch):
        # On a long chain a step moves only part of the sizes, so the
        # windowed passes of a distribute call compute fewer than n gates
        # each on average; full passes would compute n each.
        path = self._seeded_chain(2)
        bounds = compute_bounds(path, ref_params, ref_library)
        real_derivatives = PathModel.derivatives
        computed = []

        def derivatives(model, at, base=None):
            held = real_derivatives(model, at, base)
            computed.append(held.gates)
            return held

        monkeypatch.setattr(PathModel, "derivatives", derivatives)
        tc = 1.5 * bounds.t_min
        sol = distribute_constraint(path, tc, ref_params, ref_library,
                                    bounds=bounds)
        assert tc * (1.0 - 1e-3) <= sol.delay <= tc
        assert len(computed) > 2
        assert sum(computed) < path.n * len(computed)

    @staticmethod
    def _coupled_draws(ref_library, seed):
        """Random coupled libraries and paths, as in the fixed-point
        engine's test: an endless stream of (library, path) draws."""
        rng = random.Random(seed)
        while True:
            library = {kind: dataclasses.replace(
                t, par_coeff=rng.uniform(0.0, 2.5),
                cm_override=rng.choice((None, rng.uniform(1.0, 1000.0))))
                for kind, t in ref_library.items()}
            n = rng.randint(2, 24)
            yield library, LogicPath(
                gates=tuple(rng.choice(KINDS) for _ in range(n)),
                input_cap=rng.uniform(2.0, 10.0),
                terminal_load=rng.uniform(2.0, 500.0))

    @staticmethod
    def _assert_certified(sol, tc, model, label):
        """sol lands in the band and carries the fixed point's certificate
        at its own sizing and a, unless it is the all-minimum corner."""
        assert sol.delay <= tc, label
        if sol.note is not None:
            return  # the all-minimum corner, tc >= t_max
        assert tc * (1.0 - 1e-3) <= sol.delay, label
        grad, _, _, delay = model.derivatives(sol.sizing)[:4]
        a = sol.a_value
        tol = 5e-5 * -a + 1e-6 * delay / model.params.cref
        clamped = model.clamped(sol.sizing)
        assert all(abs(grad[j - 1] - a) <= tol for j in range(1, model.n)
                   if not clamped[j]), label

    def test_random_coupled_results_are_certified(self, ref_params,
                                                  ref_library):
        # Every result lands in the band and carries the certificate.
        draws = self._coupled_draws(ref_library, 2)
        for library, path in itertools.islice(draws, 200):
            model = PathModel(path, ref_params, library)
            bounds = compute_bounds(path, ref_params, library)
            for ratio in (1.01, 1.5, 3.0):
                tc = ratio * bounds.t_min
                sol = distribute_constraint(path, tc, ref_params, library,
                                            bounds=bounds)
                self._assert_certified(sol, tc, model, (path, ratio))

    # (rng seed, draw index) of the coupled draws of rng seeds 0-15 (300
    # each) where the logical-effort seed, applied in spite of the fixed
    # coupling, starts the min-delay solve in a slower minimum's basin:
    # slower by 0.75-8.1%.  On no draw did it find a faster one.
    SLOWER_FROM_THE_SEED = ((2, 85), (2, 215), (4, 7), (5, 156), (6, 201),
                            (7, 94))

    @pytest.mark.parametrize("seed, index", SLOWER_FROM_THE_SEED)
    def test_fixed_coupling_starts_on_the_geometric_taper(
            self, ref_params, ref_library, seed, index):
        library, path = next(itertools.islice(
            self._coupled_draws(ref_library, seed), index, None))
        model = PathModel(path, ref_params, library)
        t_min = min_delay_sizing(path, ref_params, library)[1]
        geometric = [path.input_cap, *(max(ref_params.cref, c) for c in
                                       oracles.effort_taper(
                                           [1.0] * path.n, path.input_cap,
                                           path.terminal_load))]
        assert t_min == pytest.approx(link_fixed_point(
            model, warm=geometric).pass_.total, rel=1e-12)
        seeded = oracles.logical_effort_seed(
            [library[kind] for kind in path.gates], path.input_cap,
            path.terminal_load, path.input_edge, ref_params)
        assert link_fixed_point(
            model, warm=seeded).pass_.total > 1.007 * t_min

    # (rng seed, draw index, t_min ratio) of the coupled draws whose
    # iterate leaves the solution branch: (c*g).v turns positive, so the
    # delay would rise along the step in a, while it still sits at 1.05
    # to 1.18 t_min.  Each needs a corrector step at fixed a.
    FOLDS = ((0, 0, 1.5), (0, 0, 3.0), (0, 209, 1.5), (2, 79, 3.0),
             (2, 85, 1.5), (2, 85, 3.0), (2, 215, 1.5))

    @pytest.mark.parametrize("seed, index, ratio", FOLDS)
    def test_folds_take_a_corrector_step_and_are_certified(
            self, ref_params, ref_library, seed, index, ratio, caplog):
        library, path = next(itertools.islice(
            self._coupled_draws(ref_library, seed), index, None))
        bounds = compute_bounds(path, ref_params, library)
        tc = ratio * bounds.t_min
        caplog.set_level(logging.DEBUG, logger="cmospath.sizing")
        sol = distribute_constraint(path, tc, ref_params, library,
                                    bounds=bounds)
        self._assert_certified(sol, tc, PathModel(path, ref_params, library),
                               path)
        (_, corrections, _), = self._logged_steps(caplog)
        assert corrections >= 1

    def test_a_stops_halfway_to_zero(self, ref_params, ref_library,
                                     monkeypatch):
        # On this path at 1.01 t_min two steps in a would reach 0, so
        # each is scaled to stop halfway there: the next a is half the
        # one before.  Every iterate stays negative, and the result lands
        # in the band with the engine's certificate.
        path = LogicPath(
            gates=("nor2", "inv", "inv", "nand3", "inv", "nand3", "inv",
                   "nor2", "nor2", "nor3", "nand2", "nor2", "nor2",
                   "nand2", "inv", "nand3", "nand2"),
            input_cap=4.708900248109605, terminal_load=4.877384519425554,
            input_edge="rising", driver_slope_rise=5.438749905901529,
            driver_slope_fall=2.6365366280418137)
        seen = []
        real_solve = sizing._newton_solve

        def spy(cin, grad, hd, ho, a, *args, **kwargs):
            seen.append(a)
            return real_solve(cin, grad, hd, ho, a, *args, **kwargs)

        bounds = compute_bounds(path, ref_params, ref_library)
        tc = 1.01 * bounds.t_min
        monkeypatch.setattr(sizing, "_newton_solve", spy)
        sol = distribute_constraint(path, tc, ref_params, ref_library,
                                    bounds=bounds)
        # The first sweep is the predictor's H^-1 1, at a = 0.
        assert seen[0] == 0.0
        iterates = seen[1:]
        assert all(a < 0.0 for a in iterates)
        halved = [k for k in range(1, len(iterates))
                  if abs(iterates[k] - iterates[k - 1] / 2.0)
                  <= 1e-12 * abs(iterates[k - 1])]
        assert len(halved) == 2
        model = PathModel(path, ref_params, ref_library)
        assert tc * (1.0 - 1e-3) <= sol.delay <= tc
        assert certified(model, model.derivatives(sol.sizing), sol.a_value,
                         1, path.n - 1, model.clamped(sol.sizing))

    def test_gives_up_with_a_typed_error(self, ref_params, ref_library,
                                         chain11, monkeypatch):
        # A sweep of the bordered system that fails even on the
        # dominance-fixed M leaves no step to take: the call raises
        # ConvergenceError with the iterations taken and the relative miss
        # (delay - tc) / tc of the pass it holds.  The predictor's sweep,
        # at a = 0, still runs.
        real_solve = sizing._newton_solve
        monkeypatch.setattr(
            sizing, "_newton_solve",
            lambda cin, grad, hd, ho, a, clamped, lo, hi, border=False:
            None if a < 0.0 else real_solve(cin, grad, hd, ho, a, clamped,
                                            lo, hi, border))
        bounds = compute_bounds(chain11, ref_params, ref_library)
        tc = 1.5 * bounds.t_min
        with pytest.raises(ConvergenceError, match=r"\(iterations=1, "
                           r"residual=-?\d\.\d{3}e[+-]\d\d\)") as err:
            distribute_constraint(chain11, tc, ref_params, ref_library,
                                  bounds=bounds)
        assert err.value.iterations == 1
        assert -1.0 < err.value.residual < 1.0

    def test_floor_sits_below_the_corner_sensitivities(self, ref_params,
                                                       ref_library):
        # Under a huge load the corner's steepest sensitivity lies far
        # below -1e6 * t_min / cref, so the floor sensitivity reported at
        # the corner is twice that steepest one, where the corner holds.
        path = LogicPath(gates=("inv",) * 3, input_cap=4.0,
                         terminal_load=1e12)
        bounds = compute_bounds(path, ref_params, ref_library)
        steepest = min(PathModel(path, ref_params, ref_library).derivatives(
            bounds.sizing_max)[0])
        assert steepest < -1e6 * bounds.t_min / ref_params.cref
        for tc in (3e12, 0.5 * (bounds.t_min + bounds.t_max)):
            sol = distribute_constraint(path, tc, ref_params, ref_library,
                                        bounds=bounds)
            assert tc * (1.0 - 1e-3) <= sol.delay <= tc
        corner = distribute_constraint(path, bounds.t_max, ref_params,
                                       ref_library, bounds=bounds)
        assert corner.a_value == 2.0 * steepest

    def test_constraint_above_ceiling_returns_floor_sizing(
            self, ref_params, ref_library, chain11, chain13, heavy_path,
            monkeypatch):
        # tc >= t_max is answered from the bounds corner alone: the
        # all-minimum sizing, its delay and the floor sensitivity, with
        # no fixed-point solve.
        calls = []
        monkeypatch.setattr(sizing, "link_fixed_point",
                            lambda *args, **kwargs: calls.append(args))
        for path in (chain11, chain13, heavy_path):
            bounds = compute_bounds(path, ref_params, ref_library)
            for tc in (bounds.t_max, 2.0 * bounds.t_max):
                sol = distribute_constraint(path, tc, ref_params,
                                            ref_library)
                assert all(c == pytest.approx(ref_params.cref, rel=1e-9)
                           for c in sol.sizing[1:])
                assert sol.sizing == bounds.sizing_max
                assert sol.delay == bounds.t_max <= tc
                assert sol.a_value == -1e6 * bounds.t_min / ref_params.cref
                assert sol.area == path_area(path, sol.sizing, ref_params,
                                             ref_library)
                assert sol.note is not None
        assert calls == []

    def test_builds_one_model_without_bounds(self, ref_params, ref_library,
                                             chain11, monkeypatch):
        # Without bounds the call computes them on the model it holds, so
        # it builds one PathModel, and gives the result it gives with
        # compute_bounds' bounds, bit for bit.
        bounds = compute_bounds(chain11, ref_params, ref_library)
        tc = 1.5 * bounds.t_min
        want = distribute_constraint(chain11, tc, ref_params, ref_library,
                                     bounds=bounds)
        built = []
        init = PathModel.__init__

        def counting(model, *args, **kwargs):
            built.append(model)
            init(model, *args, **kwargs)

        monkeypatch.setattr(PathModel, "__init__", counting)
        got = distribute_constraint(chain11, tc, ref_params, ref_library)
        assert len(built) == 1
        assert repr(got) == repr(want)

    def test_no_delay_curvature_is_a_typed_error(self, ref_params,
                                                 ref_library):
        # At tau = 1e-300 the Hessian at the fastest sizing is subnormal,
        # so its unit response is not finite and the predictor finds no
        # delay curvature: ConvergenceError at iteration 0 with the miss
        # (t_min - tc) / tc = -1/3.  Delay is linear in tau, so this path
        # should solve; a scale-free model (ROADMAP item 6) is the open
        # fix.
        params = dataclasses.replace(ref_params, tau=1e-300)
        path = LogicPath(gates=("inv", "nand2", "nor3", "inv"),
                         input_cap=1e6, terminal_load=1e9)
        bounds = compute_bounds(path, params, ref_library)
        with pytest.raises(ConvergenceError,
                           match="no delay curvature") as err:
            distribute_constraint(path, 1.5 * bounds.t_min, params,
                                  ref_library, bounds=bounds)
        assert err.value.iterations == 0
        assert err.value.residual == pytest.approx(-1.0 / 3.0, rel=1e-9)


class TestUnitResponse:
    """_unit_response takes H_ff^-1 1 from the fixed-point engine's solve
    at unit sizes and a = 0; on a positive-definite H_ff that is the
    oracle's Thomas sweep, bit for bit."""

    @staticmethod
    def _held(params, library, sizes, diag, off):
        """A model with len(diag) free gates and a pass at sizes carrying
        the Hessian (diag, off); _unit_response reads nothing else."""
        path = LogicPath(gates=("inv",) * len(sizes), input_cap=sizes[0],
                         terminal_load=100.0)
        return (PathModel(path, params, library),
                Pass((), diag, off, 0.0, sizes, [], [], 0))

    def test_matches_the_oracle_sweep(self, ref_params, ref_library):
        # Random systems, a third of their rows pinned (clamped at cref),
        # every third one with its first and last row pinned.  Pinned
        # rows get a random diagonal, which the pinning must ignore.
        rng = random.Random(23)
        cref = ref_params.cref
        compared = ends = 0
        for k in range(600):
            m = rng.randint(1, 30)
            pinned = {j for j in range(m) if rng.random() < 0.3}
            if k % 3 == 0:
                pinned |= {0, m - 1}
            scale = 10.0 ** rng.uniform(-4.0, 1.0)
            off = [rng.uniform(-1.0, 1.0) * scale for _ in range(m - 1)]
            off.append(0.0)
            diag = [rng.uniform(-1.0, 1.0) * scale if j in pinned else
                    (abs(off[j]) + (abs(off[j - 1]) if j else 0.0))
                    * rng.uniform(0.6, 2.0) + rng.uniform(0.0, 0.1) * scale
                    for j in range(m)]
            sizes = [4.0] + [cref if j in pinned
                             else cref * rng.uniform(1.5, 100.0)
                             for j in range(m)]
            want = oracles.solve_tridiagonal(list(diag), list(off),
                                             [1.0] * m, sorted(pinned))
            if want is None:
                continue  # not positive definite
            model, held = self._held(ref_params, ref_library, sizes, diag,
                                     off)
            assert repr(sizing._unit_response(model, held)) == repr(want), k
            compared += 1
            ends += {0, m - 1} <= pinned
        assert compared >= 500
        assert ends >= 150

    def test_indefinite_hessian_gets_the_dominance_fixed_response(
            self, ref_params, ref_library):
        # The middle row's diagonal is negative: the exact sweep fails
        # (the response used to be None), and the response is that of the
        # engine's dominance fix, which raises that diagonal to the sum of
        # its absolute couplings times 1 + 1e-9.
        cref = ref_params.cref
        diag, off = [1.0, -0.5, 2.0], [0.3, 0.2, 0.0]
        assert oracles.solve_tridiagonal(list(diag), list(off), [1.0] * 3,
                                         []) is None
        fixed = [1.0, (0.3 + 0.2) * (1.0 + 1e-9), 2.0]
        want = oracles.solve_tridiagonal(fixed, list(off), [1.0] * 3, [])
        model, held = self._held(ref_params, ref_library,
                                 [4.0, 3.0 * cref, 5.0 * cref, 7.0 * cref],
                                 diag, off)
        got = sizing._unit_response(model, held)
        assert repr(got) == repr(want)

    def test_coupled_passes_match_the_oracle(self, ref_params, ref_library):
        # Passes of random coupled libraries at random sizes, a fifth of
        # the gates at cref: most of their H_ff are not positive
        # definite, and the response is then the dominance-fixed one.
        # It equals the oracle's solve at unit sizes and a = 0, clamped
        # gates pinned by a positive residual, bit for bit.
        rng = random.Random(37)
        cref = ref_params.cref
        fixed_count = 0
        for _ in range(300):
            library = {kind: dataclasses.replace(
                t, par_coeff=rng.uniform(0.0, 2.5),
                cm_override=rng.choice((None, rng.uniform(1.0, 1000.0))))
                for kind, t in ref_library.items()}
            n = rng.randint(2, 25)
            path = LogicPath(gates=tuple(rng.choice(KINDS) for _ in range(n)),
                             input_cap=rng.uniform(2.0, 10.0),
                             terminal_load=rng.uniform(2.0, 500.0))
            model = PathModel(path, ref_params, library)
            held = model.derivatives([path.input_cap] + [
                cref if rng.random() < 0.2 else cref * rng.uniform(1.0, 300.0)
                for _ in range(n - 1)])
            clamped = model.clamped(held.sizing)
            want, fixed = oracles.newton_solve(
                [1.0] * n, [float(c) for c in clamped[1:]], held.diag,
                held.off, 0.0, clamped, border=True)
            got = sizing._unit_response(model, held)
            assert repr(got) == repr(None if want is None else want[1])
            fixed_count += fixed and want is not None
        assert fixed_count >= 200


class TestSweep:
    def test_single_zero_row(self, ref_params, ref_library, chain13):
        rows, failures = sweep(chain13, [0.0], ref_params, ref_library)
        _, t_min, _ = min_delay_sizing(chain13, ref_params, ref_library)
        assert not failures
        assert len(rows) == 1
        assert rows[0].a_value == 0.0
        assert rows[0].delay == pytest.approx(t_min, rel=1e-9)

    def test_frontier_monotone(self, ref_params, ref_library, chain11):
        a_values = [-(8.0 * (0.5 ** i)) for i in range(19)] + [0.0]
        rows, failures = sweep(chain11, a_values, ref_params, ref_library)
        assert not failures
        assert len(rows) == 20
        assert [r.a_value for r in rows] == sorted(r.a_value for r in rows)
        for prev, nxt in zip(rows, rows[1:]):
            assert nxt.delay <= prev.delay * (1.0 + 1e-9)
            assert nxt.area >= prev.area * (1.0 - 1e-9)

    def test_positive_rows_reported_not_raised(self, ref_params,
                                               ref_library, chain13):
        rows, failures = sweep(chain13, [0.0, 1.5], ref_params, ref_library)
        assert len(rows) == 1
        assert len(failures) == 1
        assert failures[0][0] == 1.5

    @staticmethod
    def _sweep_cases(ref_params, ref_library):
        """(path, library, ladder, forced failure a) cases: seeded ref.proc
        paths on the 9-point ladder of the solver goldens, one of them
        with a > 0 and a forced failure in the middle, and the coupled
        golden path on the cm_override_ff = 500 library."""
        coupled = {kind: dataclasses.replace(t, cm_override=500.0)
                   for kind, t in ref_library.items()}
        rng = random.Random(29)
        cases = []
        for k in range(6):
            n = rng.randint(2, 40)
            path = LogicPath(
                gates=tuple(rng.choice(KINDS) for _ in range(n)),
                input_cap=rng.uniform(2.0, 10.0),
                terminal_load=rng.uniform(30.0, 2000.0),
                input_edge=rng.choice(("rising", "falling")),
                driver_slope_rise=rng.uniform(0.0, 60.0),
                driver_slope_fall=rng.uniform(0.0, 60.0))
            cases.append((path, ref_library))
        cases.append((LogicPath(
            gates=("inv", "nand2", "nor2", "inv", "nand3", "inv", "nor3",
                   "nand2", "inv", "inv", "nand2", "inv"),
            input_cap=4.0, terminal_load=200.0), coupled))
        out = []
        for k, (path, library) in enumerate(cases):
            t_min = min_delay_sizing(path, ref_params, library)[1]
            a_deep = -100.0 * t_min / ref_params.cref
            step = 1e-5 ** (1.0 / 7)
            ladder = [a_deep * step ** i for i in range(8)] + [0.0]
            fail = None
            if k == 0:
                ladder.insert(4, 0.5)
                fail = ladder[5]
            out.append((path, library, ladder, fail))
        return out

    def test_rows_equal_their_solves_one_by_one(self, ref_params,
                                                ref_library, monkeypatch):
        # sweep against a loop of solve_at_sensitivity, each warm from the
        # row before but the a = 0 row, which starts cold: the same rows
        # and failures, bit for bit.  Each row after the first solved but
        # the a = 0 row opens on the pass its predecessor ended on, so it
        # takes exactly one derivative pass fewer.
        cases = self._sweep_cases(ref_params, ref_library)
        real_solve = sizing.link_fixed_point
        real_derivatives = PathModel.derivatives
        solves = []  # (a, derivative passes) per fixed-point solve

        def derivatives(model, at, base=None):
            a, passes = solves[-1]
            solves[-1] = a, passes + 1
            return real_derivatives(model, at, base)

        def solve(model, a=0.0, warm=None):
            solves.append((a, 0))
            if a == fail:
                raise ConvergenceError("forced failure")
            return real_solve(model, a=a, warm=warm)

        monkeypatch.setattr(PathModel, "derivatives", derivatives)
        monkeypatch.setattr(sizing, "link_fixed_point", solve)
        for path, library, ladder, fail in cases:
            del solves[:]
            rows, failures = sweep(path, ladder, ref_params, library)
            swept = list(solves)

            del solves[:]
            want_rows, want_failures = [], []
            warm = (path.input_cap,) + (ref_params.cref,) * (path.n - 1)
            for a in sorted(ladder):
                try:
                    row = solve_at_sensitivity(path, a, ref_params, library,
                                               warm=warm if a else None)
                except (ConvergenceError, ValueError) as exc:
                    want_failures.append((a, exc))
                    continue
                want_rows.append(row)
                warm = row.sizing
            assert repr(rows) == repr(want_rows)
            assert [(a, repr(e)) for a, e in failures] == \
                [(a, repr(e)) for a, e in want_failures]
            assert len(rows) >= 8
            if fail is not None:
                assert [a for a, _ in failures] == [fail, 0.5]

            assert [a for a, _ in swept] == [a for a, _ in solves]
            solved = {row.a_value for row in rows}
            first = min(solved)
            for (a, got), (_, want) in zip(swept, solves):
                if a in solved and a not in (first, 0.0):
                    assert got == want - 1, (path, a)
                else:
                    assert got == want, (path, a)

    @staticmethod
    def _long_chain(ref_params, ref_library):
        """A 400-gate seeded path and the CLI's 24-point ladder on it."""
        rng = random.Random(400)
        n = 400
        path = LogicPath(gates=tuple(rng.choice(KINDS) for _ in range(n)),
                         input_cap=rng.uniform(2.0, 8.0),
                         terminal_load=rng.uniform(100.0, 2000.0),
                         input_edge=rng.choice(("rising", "falling")),
                         driver_slope_rise=rng.uniform(0.0, 50.0),
                         driver_slope_fall=rng.uniform(0.0, 50.0))
        t_min = min_delay_sizing(path, ref_params, ref_library)[1]
        a_deep = -100.0 * t_min / ref_params.cref
        ratio = 1e-5 ** (1.0 / 22)
        return path, [a_deep * ratio ** k for k in range(23)] + [0.0]

    def test_long_chain_rows_equal_their_solves_one_by_one(
            self, ref_params, ref_library, monkeypatch):
        # A 400-gate seeded path on the CLI's 24-point ladder.  Most rows
        # hold at least 90% of the gates at cref, so most of their passes
        # are windowed on a few moved gates; the rows still equal, by
        # repr, a loop of solve_at_sensitivity, each warm from the row
        # before but the a = 0 row, which starts cold on the clamped
        # optimum of the logical-effort delay.  That row is
        # min_delay_sizing's result.
        path, ladder = self._long_chain(ref_params, ref_library)
        n = path.n
        cref = ref_params.cref
        rows, failures = sweep(path, ladder, ref_params, ref_library)
        assert not failures

        real_derivatives = PathModel.derivatives
        monkeypatch.setattr(
            PathModel, "derivatives",
            lambda model, at, base=None: real_derivatives(model, at))
        want = []
        warm = (path.input_cap,) + (cref,) * (n - 1)
        for a in sorted(ladder):
            want.append(solve_at_sensitivity(path, a, ref_params,
                                             ref_library,
                                             warm=warm if a else None))
            warm = want[-1].sizing
        monkeypatch.undo()
        assert repr(rows) == repr(want)
        fastest = min_delay_sizing(path, ref_params, ref_library)
        assert (rows[-1].sizing, rows[-1].delay) == fastest[:2]
        assert len(rows) == 24
        model = PathModel(path, ref_params, ref_library)
        held = [sum(model.clamped(row.sizing)[1:]) for row in rows]
        assert sum(h >= 0.9 * (n - 1) for h in held) > len(rows) / 2

    def test_long_chain_rows_sweep_only_their_free_rows(
            self, ref_params, ref_library, caplog):
        # Each solve logs its steps, its passes and the Newton rows its
        # steps swept against n - 1 per step.  A row that ends with at
        # least 90% of its gates at cref sweeps fewer than 10% of them.
        # The cold a = 0 row starts on the clamped optimum of the
        # logical-effort delay: 3 steps and 4 passes (7 and 8 from the
        # taper clamped afterwards).
        path, ladder = self._long_chain(ref_params, ref_library)
        n = path.n
        caplog.set_level(logging.DEBUG, logger="cmospath.bounds")
        rows, failures = sweep(path, ladder, ref_params, ref_library)
        assert not failures
        swept = [re.search(r"(\d+) steps, (\d+) derivative passes, .* "
                           r"(\d+) of (\d+) rows swept$", r.getMessage())
                 for r in caplog.records if r.name == "cmospath.bounds"]
        swept = [tuple(map(int, m.groups())) for m in swept if m]
        assert len(swept) == len(rows) == 24
        assert rows[-1].a_value == 0.0
        assert swept[-1][0] <= 3 and swept[-1][1] <= 4
        model = PathModel(path, ref_params, ref_library)
        pinned = 0
        for row, (steps, _, done, total) in zip(rows, swept):
            assert total == (n - 1) * steps
            if sum(model.clamped(row.sizing)[1:]) >= 0.9 * (n - 1):
                pinned += 1
                assert done < 0.1 * total, (row.a_value, done, total)
        assert pinned > len(rows) / 2

    def test_saturated_rows_identical(self, ref_params, ref_library,
                                      chain13):
        bounds = compute_bounds(chain13, ref_params, ref_library)
        deep = -1e6 * bounds.t_min / ref_params.cref
        rows, failures = sweep(chain13, [2.0 * deep, deep], ref_params,
                               ref_library)
        assert not failures
        assert rows[0].area == pytest.approx(rows[1].area, rel=1e-12)
        assert rows[0].delay == pytest.approx(rows[1].delay, rel=1e-12)


class TestEqualDelay:
    @pytest.mark.parametrize("tc", [0.0, -1.0])
    def test_rejects_nonpositive_tc(self, ref_params, ref_library, chain11,
                                    tc):
        for method in (distribute_constraint, equal_delay_distribution):
            with pytest.raises(ValueError, match="tc must be positive"):
                method(chain11, tc, ref_params, ref_library)

    def test_uniform_chain_gets_uniform_taper(self):
        params = ProcessParams(tau=10.0, vtn=1e-9, vtp=1e-9, r_ratio=2.0,
                               k_ratio=2.0, cref=1.0, cap_per_width=2.0)
        inv = GateTemplate(name="inv", n_inputs=1, dw_hl=1.0, dw_lh=1.0,
                           par_coeff=0.0, cm_override=0.0)
        lib = {"inv": inv}
        path = LogicPath(gates=("inv",) * 3, input_cap=1.0,
                         terminal_load=64.0)
        _, t_min, _ = min_delay_sizing(path, params, lib)
        sizing = equal_delay_distribution(path, 1.3 * t_min, params, lib)
        timing = evaluate_path(path, sizing, params, lib)
        budget = 1.3 * t_min / 3.0
        # backward split: the solved stages sit on the budget, the input
        # stage absorbs whatever its pinned cap leaves over
        for d in timing.terms[1:]:
            assert d == pytest.approx(budget, rel=1e-3)
        assert timing.terms[0] < budget
        assert timing.total <= 1.3 * t_min * 1.01
        solved_tapers = [sizing[2] / sizing[1], 64.0 / sizing[2]]
        assert max(solved_tapers) / min(solved_tapers) == pytest.approx(
            1.0, rel=1e-2)

    def test_weak_gate_gets_oversized(self, ref_params, ref_library,
                                      chain11):
        # the equal split hands the heavy logical weights big drives; the
        # sensitivity method spends strictly less total width
        bounds = compute_bounds(chain11, ref_params, ref_library)
        tc = 1.2 * bounds.t_min
        baseline = equal_delay_distribution(chain11, tc, ref_params,
                                            ref_library)
        sol = distribute_constraint(chain11, tc, ref_params, ref_library)
        nand3_at = chain11.gates.index("nand3")
        assert baseline[nand3_at] > sol.sizing[nand3_at]
        area_eq = path_area(chain11, baseline, ref_params, ref_library)
        assert sol.area <= area_eq + 1e-9

    def test_meets_the_constraint(self, ref_params, ref_library, chain13):
        bounds = compute_bounds(chain13, ref_params, ref_library)
        tc = 1.25 * bounds.t_min
        sizing = equal_delay_distribution(chain13, tc, ref_params,
                                          ref_library)
        timing = evaluate_path(chain13, sizing, ref_params, ref_library)
        assert timing.total <= tc * 1.01

    def test_unreachable_budget_raises(self, ref_params, ref_library,
                                       chain13):
        bounds = compute_bounds(chain13, ref_params, ref_library)
        with pytest.raises(InfeasibleError):
            equal_delay_distribution(chain13, 0.5 * bounds.t_min,
                                     ref_params, ref_library)

    def test_unbounded_tc_takes_the_all_minimum_corner(
            self, ref_params, ref_library, chain11):
        # as distribute_constraint does: no stage needs more than cref
        sizing = equal_delay_distribution(chain11, math.inf, ref_params,
                                          ref_library)
        assert sizing == distribute_constraint(
            chain11, math.inf, ref_params, ref_library).sizing
        assert sizing == (chain11.input_cap,) + (ref_params.cref,) * 10

    def test_landing_above_the_constraint_raises(self, ref_params,
                                                 ref_library):
        # On this path the split fits every stage's share of 1.05 t_min,
        # each sized on the slopes of the pass before, yet the exact total
        # lands at about 1.33 tc: InfeasibleError, with no t_min, since
        # tc is above t_min.
        path = LogicPath(
            gates=("inv", "nor2", "nand2", "nor3", "nor3", "nor3"),
            input_cap=5.993337375064094, terminal_load=93.9230326604454,
            input_edge="falling", driver_slope_rise=36.020723728841844,
            driver_slope_fall=1.3811007870729475)
        t_min = compute_bounds(path, ref_params, ref_library).t_min
        assert t_min == pytest.approx(390.7305, rel=1e-6)
        with pytest.raises(InfeasibleError,
                           match=r"lands at 546\.847 ps, above the "
                                 r"constraint 410\.267 ps") as err:
            equal_delay_distribution(path, 1.05 * t_min, ref_params,
                                     ref_library)
        assert err.value.t_min is None

    def test_largest_load_has_no_size_cap(self, ref_params, ref_library):
        # At the largest accepted load the last stage's share calls for
        # about 2e9 fF; no stage is capped short of the size it needs.
        path = dataclasses.replace(FOUR_GATE, terminal_load=MAX_CAP_FF,
                                   driver_slope_rise=0.0,
                                   driver_slope_fall=0.0)
        tc = 1.05 * compute_bounds(path, ref_params, ref_library).t_min
        sizing = equal_delay_distribution(path, tc, ref_params, ref_library)
        timing = evaluate_path(path, sizing, ref_params, ref_library)
        assert timing.total < 0.96 * tc
        assert sizing[-1] > 2e9


class TestPathArea:
    def test_offpath_inverters_are_charged(self, ref_params, ref_library):
        base = LogicPath(gates=("inv", "nand2"), input_cap=4.0,
                         terminal_load=30.0)
        with_side = LogicPath(gates=("inv", "nand2"), input_cap=4.0,
                              terminal_load=30.0, offpath_inverters=2)
        sizing = (4.0, 6.0)
        plain = path_area(base, sizing, ref_params, ref_library)
        charged = path_area(with_side, sizing, ref_params, ref_library)
        extra = 2.0 * ref_params.cref / ref_params.cap_per_width
        assert charged == pytest.approx(plain + extra, rel=1e-12)

    @pytest.mark.parametrize("sizing, message", [
        ([4.0, -1.0, 5.0], r"^cin\[1\] below the minimum"),
        ([4.0, 5.0], "^mismatched sizing length")])
    def test_sizing_is_checked(self, ref_params, ref_library, sizing,
                               message):
        path = LogicPath(gates=("inv", "nand2", "inv"), input_cap=4.0,
                         terminal_load=30.0)
        with pytest.raises(ValueError, match=message):
            path_area(path, sizing, ref_params, ref_library)


class TestNonFiniteSizes:
    PATH = LogicPath(gates=("inv", "nand2", "inv", "nor2"), input_cap=4.0,
                     terminal_load=100.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("gate", [1, 3], ids=["interior", "last"])
    def test_rejected_naming_the_gate(self, ref_params, ref_library, value,
                                      gate):
        # A NaN size is no size: it must not be lifted to cref (nan > cref
        # is false) or solved around, nor an inf one end in a
        # ConvergenceError; each entry point names the gate.
        sizing = [4.0, 6.0, 9.0, 20.0]
        sizing[gate] = value
        message = rf"^cin\[{gate}\] must be finite"
        model = PathModel(self.PATH, ref_params, ref_library)
        with pytest.raises(ValueError, match=message):
            evaluate_path(self.PATH, sizing, ref_params, ref_library)
        with pytest.raises(ValueError, match=message):
            link_fixed_point(model, warm=sizing)
        with pytest.raises(ValueError, match=message):
            solve_at_sensitivity(self.PATH, -0.01, ref_params, ref_library,
                                 warm=sizing)
        with pytest.raises(ValueError, match=message):
            path_area(self.PATH, sizing, ref_params, ref_library)
