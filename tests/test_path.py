"""Path evaluation, frozen coefficients, and the exact gradient."""

import dataclasses
import math
import random
import warnings

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from cmospath import (
    ConfigError,
    GateInstance,
    GateTemplate,
    LogicPath,
    PathModel,
    ProcessParams,
    evaluate_path,
    exact_path_gradient,
    gate_delay,
    parse_path_file,
    path_coefficients,
)
from cmospath.bounds import min_delay_sizing
from cmospath.buffering import insert_buffers
from cmospath.path import MAX_CAP_FF
from cmospath.restructure import cancel_inverter_pairs, demorgan_rewrite

KINDS = ("inv", "nand2", "nand3", "nor2", "nor3")


def templates_for(path, library):
    return [library[name] for name in path.gates]


def random_case(rng, library, n_gates=None):
    """A random path plus an in-range sizing, for cross-checks."""
    n = n_gates or rng.randint(3, 6)
    gates = tuple(rng.choice(KINDS) for _ in range(n))
    path = LogicPath(
        gates=gates,
        input_cap=rng.uniform(2.0, 10.0),
        terminal_load=rng.uniform(30.0, 400.0),
        input_edge=rng.choice(("rising", "falling")),
        driver_slope_rise=rng.uniform(0.0, 60.0),
        driver_slope_fall=rng.uniform(0.0, 60.0),
    )
    sizing = [path.input_cap]
    for _ in range(n - 1):
        sizing.append(math.exp(rng.uniform(math.log(2.0), math.log(150.0))))
    return path, sizing


class TestParsing:
    def test_chain11_round_trip(self, chain11):
        assert chain11.gates == ("inv", "nand2", "inv", "nor2", "inv",
                                 "nand3", "inv", "nor2", "inv", "nand2",
                                 "inv")
        assert chain11.input_cap == 4.0
        assert chain11.terminal_load == 400.0
        assert chain11.input_edge == "rising"
        assert chain11.driver_slope_rise == 40.0

    def test_inline_seed_sizes(self):
        text = ("input_cap_ff = 3\nload_ff = 50\n"
                "inv\nnand2 cin=7.5\ninv\n")
        path = parse_path_file(text)
        assert path.seed_cin == (None, 7.5, None)

    def test_missing_load_rejected(self):
        with pytest.raises(ConfigError, match="load_ff"):
            parse_path_file("input_cap_ff = 3\ninv\n")

    def test_bad_edge_rejected(self):
        text = "input_cap_ff = 3\nload_ff = 50\ninput_edge = up\ninv\n"
        with pytest.raises(ConfigError, match="input_edge"):
            parse_path_file(text)

    def test_no_gates_rejected(self):
        with pytest.raises(ConfigError, match="no gates"):
            parse_path_file("input_cap_ff = 3\nload_ff = 50\n")

    @pytest.mark.parametrize("text,line,key", [
        ("input_cap_ff = 3\nload_ff = 50\nfoo = 3\ninv\n", 3, "foo"),
        ("input_cap_ff = 3\nload_ff = 50\ninv\ncin=3\ninv\n", 4, "cin"),
        ("input_cap_ff = 3\ncin = 3\nload_ff = 50\ninv\n", 2, "cin"),
    ], ids=["unknown-header-key", "bare-cin-line", "cin-as-header-key"])
    def test_unknown_key_rejected_at_its_line(self, text, line, key):
        # One rule for both input files: a one-word key before `=` makes a
        # key line, never a gate kind or a gate line with a stray token.
        with pytest.raises(ConfigError) as err:
            parse_path_file(text)
        assert str(err.value) == f"line {line}: unknown key {key}"
        assert err.value.line == line

    def test_header_after_gates_rejected(self):
        text = "input_cap_ff = 3\nload_ff = 50\ninv\ninput_edge = rising\n"
        with pytest.raises(ConfigError):
            parse_path_file(text)

    @pytest.mark.parametrize("field", ["input_cap", "terminal_load",
                                       "driver_slope_rise",
                                       "driver_slope_fall"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_values_rejected(self, field, value):
        fields = dict(gates=("inv", "inv"), input_cap=3.0, terminal_load=50.0)
        fields[field] = value
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            LogicPath(**fields)
        with pytest.raises(ValueError, match="seed_cin"):
            LogicPath(gates=("inv", "inv"), input_cap=3.0, terminal_load=50.0,
                      seed_cin=(None, value))

    @pytest.mark.parametrize("field", ["input_cap", "terminal_load"])
    def test_huge_capacitance_rejected(self, field):
        fields = dict(gates=("inv", "nand2", "inv"), input_cap=4.0,
                      terminal_load=50.0)
        fields[field] = 1e300
        with pytest.raises(ValueError, match=f"{field} must be at most"):
            LogicPath(**fields)
        fields[field] = MAX_CAP_FF
        assert getattr(LogicPath(**fields), field) == MAX_CAP_FF
        with pytest.raises(ValueError, match="seed_cin"):
            LogicPath(gates=("inv", "inv"), input_cap=3.0, terminal_load=50.0,
                      seed_cin=(None, 1e300))

    def test_loader_reports_huge_capacitance_with_its_line(self):
        with pytest.raises(ConfigError, match="load_ff") as err:
            parse_path_file("input_cap_ff = 3\nload_ff = 1e300\ninv\n")
        assert err.value.line == 2
        with pytest.raises(ConfigError, match="cin") as err:
            parse_path_file("input_cap_ff = 3\nload_ff = 50\ninv cin=1e300\n")
        assert err.value.line == 3

    def test_loader_reports_non_finite_with_its_line(self):
        text = "input_cap_ff = 3\nload_ff = inf\ninv\n"
        with pytest.raises(ConfigError, match="load_ff") as err:
            parse_path_file(text)
        assert err.value.line == 2
        with pytest.raises(ConfigError, match="finite") as err:
            parse_path_file("input_cap_ff = 3\nload_ff = 50\ninv cin=inf\n")
        assert err.value.line == 3


class TestPathEdits:
    # Falling input, distinct non-zero driver slopes, seeds and flags set,
    # so an edit that rebuilt a field from a default would show.
    PATH = LogicPath(gates=("inv", "inv", "nor2", "inv"), input_cap=5.0,
                     terminal_load=120.0, input_edge="falling",
                     driver_slope_rise=12.0, driver_slope_fall=31.0,
                     seed_cin=(5.0, None, 9.0, None),
                     side_inverted=(False, False, True, False),
                     offpath_inverters=1, polarity_flips=1)

    def test_records_round_trip(self):
        plain = LogicPath(gates=("inv", "nand2"), input_cap=4.0,
                          terminal_load=60.0)
        for path in (self.PATH, plain):
            assert path.with_records(path.records()) == path
        assert self.PATH.records()[2] == ("nor2", 9.0, True)
        assert plain.records() == [("inv", None, False),
                                   ("nand2", None, False)]

    def test_all_none_seeds_and_all_false_flags_store_none(self):
        out = self.PATH.with_records([("inv", None, False),
                                      ("nand2", None, False)],
                                     offpath_inverters=0)
        assert out.gates == ("inv", "nand2")
        assert out.seed_cin is None
        assert out.side_inverted is None
        assert out.offpath_inverters == 0
        assert out.polarity_flips == 1

    @pytest.mark.parametrize("edit, gates", [
        (lambda path, lib: insert_buffers(path, [2], "inv", "single"),
         ("inv", "inv", "nor2", "inv", "inv")),
        (lambda path, lib: demorgan_rewrite(path, 2, lib),
         ("inv", "inv", "inv", "nand2", "inv", "inv")),
        (lambda path, lib: cancel_inverter_pairs(path), ("nor2", "inv")),
    ], ids=("insert_buffers", "demorgan_rewrite", "cancel_inverter_pairs"))
    def test_edits_keep_endpoints_edge_and_slopes(self, ref_library, edit,
                                                  gates):
        out = edit(self.PATH, ref_library)
        assert out.gates == gates
        for name in ("input_cap", "terminal_load", "input_edge",
                     "driver_slope_rise", "driver_slope_fall"):
            assert getattr(out, name) == getattr(self.PATH, name), name


class TestInputChecks:
    @pytest.mark.parametrize("fields, message", [
        (dict(gates=()), "at least one gate"),
        (dict(seed_cin=(4.0, None)), "seed_cin length"),
        (dict(side_inverted=(False, True, False, True)),
         "side_inverted length"),
        (dict(offpath_inverters=-1), "offpath_inverters must be"),
    ], ids=("no gates", "seed_cin length", "side_inverted length",
            "negative offpath_inverters"))
    def test_logic_path_rejects(self, fields, message):
        kwargs = dict(gates=("inv", "nand2", "inv"), input_cap=4.0,
                      terminal_load=60.0)
        with pytest.raises(ValueError, match=message):
            LogicPath(**{**kwargs, **fields})

    def test_model_rejects_input_cap_below_cref(self, ref_params,
                                                ref_library):
        path = LogicPath(gates=("inv", "inv"), input_cap=0.5 * ref_params.cref,
                         terminal_load=60.0)
        with pytest.raises(ValueError, match="below the minimum"):
            PathModel(path, ref_params, ref_library)

    def test_model_rejects_a_kind_missing_from_the_library(
            self, ref_params, ref_library):
        path = LogicPath(gates=("inv", "xor2", "inv"), input_cap=4.0,
                         terminal_load=60.0)
        with pytest.raises(ConfigError, match="unknown gate kind: xor2"):
            PathModel(path, ref_params, ref_library)


class TestEvaluate:
    def test_single_inverter_collapse(self):
        # bare model, unit fanout: the stage delay is exactly tau
        params = ProcessParams(tau=12.0, vtn=0.2, vtp=0.2, r_ratio=2.0,
                               k_ratio=1.0, cref=1.0, cap_per_width=2.0)
        inv = GateTemplate(name="inv", n_inputs=1, dw_hl=1.0, dw_lh=1.0,
                           par_coeff=0.0, cm_override=0.0)
        path = LogicPath(gates=("inv",), input_cap=5.0, terminal_load=5.0)
        timing = evaluate_path(path, [5.0], params, {"inv": inv})
        assert timing.total_delay == pytest.approx(12.0, rel=1e-15)

    def test_taper_four_golden(self, ref_params, ref_library):
        # hand-derived stage values for the reference config, frozen here
        path = LogicPath(gates=("inv", "inv", "inv"), input_cap=4.0,
                         terminal_load=256.0, input_edge="rising",
                         driver_slope_rise=40.0, driver_slope_fall=40.0)
        timing = evaluate_path(path, [4.0, 16.0, 64.0], ref_params,
                               ref_library)
        expected_delays = (60.945569038933485, 124.14657807786698,
                           77.45644903893348)
        expected_slopes = (102.5544, 205.1088, 102.5544)
        for got, want in zip(timing.per_gate_delay, expected_delays):
            assert got == pytest.approx(want, rel=1e-12)
        for got, want in zip(timing.per_gate_slope, expected_slopes):
            assert got == pytest.approx(want, rel=1e-12)
        assert timing.total_delay == pytest.approx(262.54859615573395,
                                                   rel=1e-12)

    def test_totals_are_sums(self, ref_params, ref_library, chain11):
        sizing = [chain11.input_cap] + [12.0] * (chain11.n - 1)
        timing = evaluate_path(chain11, sizing, ref_params, ref_library)
        assert timing.total_delay == pytest.approx(
            sum(timing.per_gate_delay), rel=1e-12)
        per_width = sum(c / ref_params.cap_per_width for c in sizing)
        assert timing.total_width == pytest.approx(per_width, rel=1e-12)

    def test_stage_matches_gate_delay(self, ref_params, ref_library):
        # PathModel.stage and process.gate_delay share one stage
        # expression: gate by gate they agree exactly.
        rng = random.Random(31)
        for _ in range(25):
            path, sizing = random_case(rng, ref_library)
            model = PathModel(path, ref_params, ref_library)
            timing = model.evaluate(sizing)
            slope = path.driver_slope()
            for i, kind in enumerate(path.gates):
                x = sizing[i + 1] if i < path.n - 1 else path.terminal_load
                gate = GateInstance(ref_library[kind], sizing[i])
                want = gate_delay(gate, slope, model.out_edges[i],
                                  x + gate.c_par, ref_params)
                assert model.stage(i, sizing[i], x, slope) == want
                assert want == (timing.per_gate_delay[i],
                                timing.per_gate_slope[i])
                slope = want[1]

    def test_matches_direct_recurrence(self, ref_params, ref_library):
        rng = random.Random(7)
        for _ in range(25):
            path, sizing = random_case(rng, ref_library)
            timing = evaluate_path(path, sizing, ref_params, ref_library)
            want, _, _ = oracles.chain_delay(
                templates_for(path, ref_library), sizing,
                path.terminal_load, path.input_edge,
                path.driver_slope_rise, path.driver_slope_fall, ref_params)
            assert timing.total_delay == pytest.approx(want, rel=1e-12)

    def test_scale_invariance_of_ratios(self, ref_params, ref_library):
        # scaling every cap, endpoints included, must not move the delay
        rng = random.Random(3)
        path, sizing = random_case(rng, ref_library, n_gates=5)
        base = evaluate_path(path, sizing, ref_params, ref_library)
        lam = 3.7
        scaled_path = LogicPath(
            gates=path.gates, input_cap=path.input_cap * lam,
            terminal_load=path.terminal_load * lam,
            input_edge=path.input_edge,
            driver_slope_rise=path.driver_slope_rise,
            driver_slope_fall=path.driver_slope_fall)
        scaled = evaluate_path(scaled_path, [c * lam for c in sizing],
                               ref_params, ref_library)
        assert scaled.total_delay == pytest.approx(base.total_delay,
                                                   rel=1e-12)

    def test_mismatched_sizing_length(self, ref_params, ref_library, chain11):
        with pytest.raises(ValueError):
            evaluate_path(chain11, [4.0, 8.0], ref_params, ref_library)

    def test_first_cap_pinned(self, ref_params, ref_library, chain11):
        sizing = [99.0] + [12.0] * (chain11.n - 1)
        with pytest.raises(ValueError):
            evaluate_path(chain11, sizing, ref_params, ref_library)

    def test_edges_alternate(self, ref_params, ref_library, chain13):
        model = PathModel(chain13, ref_params, ref_library)
        edge = chain13.input_edge
        for out in model.out_edges:
            expected = "falling" if edge == "rising" else "rising"
            assert out == expected
            edge = out


def stage_draw(rng, params, library):
    """A one-gate model on a random edge, over a ref.proc kind or a
    generated template (par_coeff 0-2.5, cm_override None, 0 or 1-1000
    fF), with a load x of 1-1e12 fF and an input slope of 0 or 0-200
    ps."""
    if rng.random() < 0.5:
        template = library[rng.choice(KINDS)]
    else:
        template = GateTemplate(
            name="g", n_inputs=rng.randint(1, 3), dw_hl=1.0, dw_lh=1.0,
            par_coeff=rng.choice((0.0, rng.uniform(0.0, 2.5))),
            cm_override=rng.choice((None, 0.0, rng.uniform(1.0, 1000.0))))
    path = LogicPath(gates=(template.name,), input_cap=params.cref,
                     terminal_load=1.0,
                     input_edge=rng.choice(("rising", "falling")))
    model = PathModel(path, params, {template.name: template})
    return (model, 10.0 ** rng.uniform(0.0, 12.0),
            rng.choice((0.0, rng.uniform(0.0, 200.0))))


class TestStageInverse:
    """PathModel.stage_size inverts stage above stage_floor."""

    def test_size_meets_the_delay(self, ref_params, ref_library):
        rng = random.Random(59)
        zero_floors = 0
        for _ in range(4000):
            model, x, slope = stage_draw(rng, ref_params, ref_library)
            floor = model.stage_floor(0, slope)
            scale = floor if floor > 0 else model.stage(0, x, x, slope)[0]
            zero_floors += floor == 0
            # from 1e-9 above the floor to 100 times it
            target = floor + scale * 10.0 ** rng.uniform(-9.0, 2.0)
            size = model.stage_size(0, target, x, slope)
            assert 0 < size < math.inf
            assert model.stage(0, size, x, slope)[0] == pytest.approx(
                target, rel=1e-11, abs=0)
        # zero floors (no parasitic, a still input) are drawn too
        assert zero_floors

    def test_floor_is_approached_from_above(self, ref_params, ref_library):
        rng = random.Random(61)
        for _ in range(300):
            model, x, slope = stage_draw(rng, ref_params, ref_library)
            floor = model.stage_floor(0, slope)
            gaps = [model.stage(0, x * 10.0 ** k, x, slope)[0] - floor
                    for k in range(9)]
            assert all(g > 0 for g in gaps)
            assert gaps == sorted(gaps, reverse=True)
            assert gaps[-1] < 1e-6 * gaps[0]


class TestCoefficients:
    def test_frozen_matches_exact_at_snapshot(self, ref_params, ref_library):
        rng = random.Random(11)
        for _ in range(25):
            path, sizing = random_case(rng, ref_library)
            coeffs = path_coefficients(path, sizing, ref_params, ref_library)
            exact = evaluate_path(path, sizing, ref_params,
                                  ref_library).total_delay
            frozen = coeffs.frozen_delay(sizing)
            assert abs(frozen - exact) / exact <= 1e-9
            fused = PathModel(path, ref_params, ref_library).derivatives(
                sizing)[3]
            assert abs(fused - exact) / exact <= 1e-14

    def test_matches_independent_regrouping(self, ref_params, ref_library,
                                            chain11):
        sizing = [chain11.input_cap] + [15.0] * (chain11.n - 1)
        coeffs = path_coefficients(chain11, sizing, ref_params, ref_library)
        const, a, c_par = oracles.frozen_coefficients(
            templates_for(chain11, ref_library), sizing,
            chain11.terminal_load, chain11.input_edge,
            chain11.driver_slope_rise, chain11.driver_slope_fall, ref_params)
        assert coeffs.constant_term == pytest.approx(const, rel=1e-12)
        for got, want in zip(coeffs.a, a):
            assert got == pytest.approx(want, rel=1e-12)
        for got, want in zip(coeffs.c_par, c_par):
            assert got == pytest.approx(want, rel=1e-12)

    def test_taper_four_coefficients_golden(self, ref_params, ref_library):
        path = LogicPath(gates=("inv", "inv", "inv"), input_cap=4.0,
                         terminal_load=256.0, input_edge="rising",
                         driver_slope_rise=40.0, driver_slope_fall=40.0)
        coeffs = path_coefficients(path, [4.0, 16.0, 64.0], ref_params,
                                   ref_library)
        assert coeffs.constant_term == pytest.approx(4.0, rel=1e-12)
        golden = (15.7265238442661, 31.4530476885322, 13.326523844266102)
        for got, want in zip(coeffs.a, golden):
            assert got == pytest.approx(want, rel=1e-12)

    def test_last_gate_drops_successor_threshold(self, ref_params,
                                                 ref_library):
        # A_n has no next-stage slope term: tau * S * M / 2 only
        path = LogicPath(gates=("inv", "nor2"), input_cap=4.0,
                         terminal_load=40.0, input_edge="rising")
        sizing = [4.0, 12.0]
        coeffs = path_coefficients(path, sizing, ref_params, ref_library)
        model = PathModel(path, ref_params, ref_library)
        nor2 = ref_library["nor2"]
        s_lh = (ref_params.r_ratio * (1.0 + ref_params.k_ratio)
                / ref_params.k_ratio * nor2.dw_lh)
        # gate 1's input edge is gate 0's output edge
        c_m = GateInstance(nor2, 12.0).coupling_cap(model.out_edges[0],
                                                    ref_params)
        load = 40.0 + nor2.par_coeff * 12.0
        miller = 1.0 + 2.0 * c_m / (c_m + load)
        assert coeffs.a[1] == pytest.approx(
            ref_params.tau * s_lh * miller / 2.0, rel=1e-12)

    def test_same_parity_interior_coefficients_match(self):
        # without coupling, interior stages of one polarity share one A
        params = ProcessParams(tau=10.0, vtn=0.2, vtp=0.3, r_ratio=2.0,
                               k_ratio=1.0, cref=1.0, cap_per_width=2.0)
        inv = GateTemplate(name="inv", n_inputs=1, dw_hl=1.0, dw_lh=1.0,
                           par_coeff=0.0, cm_override=0.0)
        path = LogicPath(gates=("inv",) * 6, input_cap=2.0,
                         terminal_load=128.0)
        sizing = [2.0, 3.0, 5.0, 9.0, 17.0, 33.0]
        coeffs = path_coefficients(path, sizing, params, {"inv": inv})
        assert coeffs.a[0] == pytest.approx(coeffs.a[2], rel=1e-12)
        assert coeffs.a[2] == pytest.approx(coeffs.a[4], rel=1e-12)
        assert coeffs.a[1] == pytest.approx(coeffs.a[3], rel=1e-12)


class TestFrozenGradient:
    """Gradient checks against independent oracles; the package's one
    gradient is the exact one."""

    def test_matches_finite_difference_of_frozen_model(self, ref_params,
                                                       ref_library):
        rng = random.Random(23)
        for _ in range(20):
            path, sizing = random_case(rng, ref_library, n_gates=5)
            grad = exact_path_gradient(path, sizing, ref_params, ref_library)
            tpls = templates_for(path, ref_library)

            def full(c):
                return oracles.chain_delay(
                    tpls, c, path.terminal_load, path.input_edge,
                    path.driver_slope_rise, path.driver_slope_fall,
                    ref_params)[0]

            scale = max(abs(g) for g in grad)
            for j in range(1, path.n):
                fd = oracles.central_diff(full, sizing, j, sizing[j] * 1e-6)
                assert abs(grad[j - 1] - fd) <= 1e-6 * max(abs(fd), scale)

    def test_sign_flip_across_single_variable_optimum(self, ref_params,
                                                      ref_library):
        path = LogicPath(gates=("inv", "inv"), input_cap=4.0,
                         terminal_load=64.0, input_edge="rising")

        def component(c):
            return exact_path_gradient(path, [4.0, c], ref_params,
                                       ref_library)[0]

        assert component(6.0) < 0.0
        assert component(40.0) > 0.0
        # and it crosses at the size the min-delay solver settles on
        lo, hi = 6.0, 40.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if component(mid) < 0.0:
                lo = mid
            else:
                hi = mid
        sizing, _, _ = min_delay_sizing(path, ref_params, ref_library)
        assert lo == pytest.approx(sizing[1], rel=1e-9)


class TestExactGradient:
    def test_matches_finite_difference_of_full_model(self, ref_params,
                                                     ref_library):
        rng = random.Random(31)
        for _ in range(20):
            path, sizing = random_case(rng, ref_library)
            grad = exact_path_gradient(path, sizing, ref_params, ref_library)
            tpls = templates_for(path, ref_library)

            def full(c):
                t, _, _ = oracles.chain_delay(
                    tpls, c, path.terminal_load, path.input_edge,
                    path.driver_slope_rise, path.driver_slope_fall,
                    ref_params)
                return t

            scale = max(abs(g) for g in grad)
            for j in range(1, path.n):
                fd = oracles.central_diff(full, sizing, j, sizing[j] * 1e-6)
                assert abs(grad[j - 1] - fd) <= 2e-6 * max(abs(fd), scale)

    def test_curvature_matches_gradient_differences(self, ref_params,
                                                    ref_library, chain11):
        model = PathModel(chain11, ref_params, ref_library)
        sizing = [chain11.input_cap, 7.0, 11.0, 18.0, 16.0, 30.0, 35.0,
                  80.0, 45.0, 90.0, 110.0]
        diag, off = model.model_curvature(sizing)
        free = chain11.n - 1

        def grad_at(c):
            return model.model_gradient(c)

        for j in range(1, chain11.n):
            h = sizing[j] * 1e-5
            up = list(sizing)
            dn = list(sizing)
            up[j] += h
            dn[j] -= h
            gu = grad_at(up)
            gd = grad_at(dn)
            col = [(a - b) / (2.0 * h) for a, b in zip(gu, gd)]
            assert col[j - 1] == pytest.approx(diag[j - 1], rel=5e-5,
                                               abs=1e-12)
            if j - 1 + 1 < free:
                assert col[j] == pytest.approx(off[j - 1], rel=5e-5,
                                               abs=1e-12)

    def test_reduces_to_frozen_gradient_without_feedback(self):
        # zero parasitics and coupling leave nothing to freeze, so the
        # two gradients must agree exactly
        params = ProcessParams(tau=10.0, vtn=0.2, vtp=0.3, r_ratio=2.0,
                               k_ratio=1.0, cref=1.0, cap_per_width=2.0)
        inv = GateTemplate(name="inv", n_inputs=1, dw_hl=1.0, dw_lh=1.0,
                           par_coeff=0.0, cm_override=0.0)
        lib = {"inv": inv}
        path = LogicPath(gates=("inv",) * 5, input_cap=2.0,
                         terminal_load=100.0, driver_slope_rise=20.0,
                         driver_slope_fall=20.0)
        sizing = [2.0, 4.5, 11.0, 26.0, 60.0]
        coeffs = PathModel(path, params, lib).coefficients(sizing)
        a, cp = coeffs.a, coeffs.c_par
        frozen = [a[j - 1] / sizing[j - 1] - a[j] * (
            (sizing[j + 1] if j < path.n - 1 else path.terminal_load)
            + cp[j]) / sizing[j] ** 2 for j in range(1, path.n)]
        exact = exact_path_gradient(path, sizing, params, lib)
        for f, e in zip(frozen, exact):
            assert f == pytest.approx(e, rel=1e-12)


WINDOWS = ("gate 0", "last gate", "interior gate", "empty", "whole",
           "at cref")


def windowed_case(rng, n):
    """A seeded path of n library gate kinds."""
    return LogicPath(gates=tuple(rng.choice(KINDS) for _ in range(n)),
                     input_cap=rng.uniform(2.0, 10.0),
                     terminal_load=rng.uniform(30.0, 5000.0),
                     input_edge=rng.choice(("rising", "falling")),
                     driver_slope_rise=rng.uniform(0.0, 60.0),
                     driver_slope_fall=rng.uniform(0.0, 60.0))


def window_edit(rng, path, sizing, window, cref):
    """(sizes, lo, hi): sizing with sizes lo..hi moved in one window of
    WINDOWS, lo > hi when none moved."""
    n = path.n
    moved = list(sizing)
    # cin[0] may sit within 1e-9 of input_cap
    nudged = path.input_cap * (1.0 + rng.uniform(1e-12, 5e-10))
    if window == "gate 0":
        moved[0] = nudged if sizing[0] == path.input_cap \
            else path.input_cap
        return moved, 0, 0
    if window == "empty" or (n == 1 and window != "whole"):
        return moved, 1, 0
    if window == "whole":
        return [nudged] + [s * rng.uniform(1.01, 2.0)
                           for s in sizing[1:]], 0, n - 1
    lo = {"last gate": n - 1}.get(window, rng.randint(1, n - 1))
    hi = lo if window != "at cref" else rng.randint(lo, n - 1)
    for j in range(lo, hi + 1):
        moved[j] = (sizing[j] * rng.uniform(1.01, 3.0)
                    if window != "at cref" or sizing[j] > cref
                    else rng.uniform(cref, 2.0 * cref))
        if window == "at cref" and sizing[j] > cref \
                and rng.random() < 0.7:
            moved[j] = cref
    if window == "at cref":
        changed = [j for j in range(n) if moved[j] != sizing[j]]
        lo, hi = (changed[0], changed[-1]) if changed else (1, 0)
    return moved, lo, hi


class TestDerivativePass:
    """The pass takes gate 0 as a stand-in row and zeroes the last off
    entry; a pass on a base recomputes only the gates its moved sizes
    touch."""

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 40),
           window=st.sampled_from(WINDOWS), coupled=st.booleans())
    def test_windowed_pass_equals_the_full_pass(self, ref_params,
                                                ref_library, seed, n,
                                                window, coupled):
        # A seeded ref.proc path, or the same gates on the cm_override_ff
        # = 500 library; a base pass at one sizing, then passes at sizes
        # moved in one window, each on the pass before, equal the full
        # pass at the same sizes by repr, terms and slopes included.
        rng = random.Random(seed)
        cref = ref_params.cref
        library = ref_library
        if coupled:
            library = {kind: dataclasses.replace(t, cm_override=500.0)
                       for kind, t in ref_library.items()}
        path = windowed_case(rng, n)
        model = PathModel(path, ref_params, library)

        def size():
            return cref if rng.random() < 0.3 else rng.uniform(cref, 400.0)

        sizing = [path.input_cap] + [size() for _ in range(n - 1)]
        held = model.derivatives(sizing)
        assert held.sizing is sizing
        assert held.gates == n
        for _ in range(3):
            moved, lo, hi = window_edit(rng, path, sizing, window, cref)
            got = model.derivatives(moved, held)
            # grad, diag, off, total, sizing, terms and slopes; not the
            # gate count
            assert repr(got[:7]) == repr(model.derivatives(moved)[:7])
            assert got.sizing is moved
            if lo > hi:
                assert got.gates == 0
            else:
                assert got.gates == min(n - 1, hi + 1) - max(0, lo - 2) + 1
            sizing, held = moved, got

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("clamp", [False, True])
    def test_short_paths_match_the_full_model(self, ref_params, ref_library,
                                              n, clamp):
        rng = random.Random(70 + n)
        cref = ref_params.cref
        for _ in range(12):
            path, sizing = random_case(rng, ref_library, n_gates=n)
            if clamp:
                # every other free gate at minimum drive, the last included
                for j in range(n - 1, 0, -2):
                    sizing[j] = cref
            model = PathModel(path, ref_params, ref_library)
            grad, diag, off, total = model.derivatives(sizing)[:4]
            tpls = templates_for(path, ref_library)

            def full(c):
                t, _, _ = oracles.chain_delay(
                    tpls, c, path.terminal_load, path.input_edge,
                    path.driver_slope_rise, path.driver_slope_fall,
                    ref_params)
                return t

            assert total == pytest.approx(full(sizing), rel=1e-12)
            assert total == pytest.approx(model.evaluate(sizing).total_delay,
                                          rel=1e-12)
            assert len(grad) == len(diag) == len(off) == n - 1
            if n == 1:
                assert (grad, diag, off) == ((), [], [])
                continue
            assert off[-1] == 0.0 and math.copysign(1.0, off[-1]) == 1.0
            scale = max(abs(g) for g in grad)
            for j in range(1, n):
                fd = oracles.central_diff(full, sizing, j, sizing[j] * 1e-6)
                assert abs(grad[j - 1] - fd) <= 2e-6 * max(abs(fd), scale)
                if sizing[j] == cref:
                    continue  # the model refuses sizes below cref
                h = sizing[j] * 1e-5
                up = list(sizing)
                dn = list(sizing)
                up[j] += h
                dn[j] -= h
                col = [(a - b) / (2.0 * h) for a, b in
                       zip(model.model_gradient(up), model.model_gradient(dn))]
                assert col[j - 1] == pytest.approx(diag[j - 1], rel=5e-5,
                                                   abs=1e-12)
                if j < n - 1:
                    assert col[j] == pytest.approx(off[j - 1], rel=5e-5,
                                                   abs=1e-12)


class TestWindowedEvaluate:
    """An evaluation on a base pass recomputes only the gates next to the
    sizes that moved, and warns as the full one does; it is a view of the
    derivative pass, whose stage delays are PathModel.stage's."""

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 40),
           window=st.sampled_from(WINDOWS), warn=st.booleans())
    def test_windowed_evaluation_equals_the_full_one(self, ref_params,
                                                     ref_library, seed, n,
                                                     window, warn):
        # A seeded ref.proc path; a base pass at one sizing, then
        # timings at sizes moved in one window, each on the pass before,
        # equal the full evaluation at the same sizes by repr, slopes
        # included.  With warn, slope_warn_ratio is the median
        # input-to-output transition ratio of the first sizing, so about
        # half its gates warn, and both evaluations warn about the same
        # gates in the same order.
        rng = random.Random(seed)
        cref = ref_params.cref
        path = windowed_case(rng, n)
        sizing = [path.input_cap] + [
            cref if rng.random() < 0.3 else rng.uniform(cref, 400.0)
            for _ in range(n - 1)]
        params = ref_params
        if warn:
            slopes = PathModel(path, params, ref_library).evaluate(
                sizing).per_gate_slope
            ratios = sorted(s_in / s_out for s_in, s_out in zip(
                (path.driver_slope(), *slopes), slopes))
            params = dataclasses.replace(
                params, slope_warn_ratio=max(ratios[n // 2], 1e-3))
        model = PathModel(path, params, ref_library)

        def evaluated(*args):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                timing = model.evaluate(*args)
            return timing, [str(w.message) for w in caught]

        held = model.derivatives(sizing)
        for _ in range(3):
            moved, _, _ = window_edit(rng, path, sizing, window, cref)
            got, got_warnings = evaluated(moved, held)
            want, want_warnings = evaluated(moved)
            assert repr(got) == repr(want)
            assert got.per_gate_slope == want.per_gate_slope
            assert got_warnings == want_warnings
            sizing, held = moved, model.derivatives(moved, held)

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 40),
           coupled=st.booleans())
    def test_stage_delays_are_the_stage_kernel(self, ref_params, ref_library,
                                               seed, n, coupled):
        # On a seeded path, each gate's delay and transition time in the
        # evaluation are PathModel.stage's bit for bit, driven by the
        # transition time before it, and the pass's total is the
        # evaluation's.
        rng = random.Random(seed)
        cref = ref_params.cref
        library = ref_library
        if coupled:
            library = {kind: dataclasses.replace(t, cm_override=500.0)
                       for kind, t in ref_library.items()}
        path = windowed_case(rng, n)
        model = PathModel(path, ref_params, library)
        sizing = [path.input_cap] + [
            cref if rng.random() < 0.3 else rng.uniform(cref, 400.0)
            for _ in range(n - 1)]
        timing = model.evaluate(sizing)
        slope = path.driver_slope()
        for i, (d, t_out) in enumerate(zip(timing.per_gate_delay,
                                           timing.per_gate_slope)):
            x = sizing[i + 1] if i < n - 1 else path.terminal_load
            assert (d, t_out) == model.stage(i, sizing[i], x, slope)
            slope = t_out
        assert model.derivatives(sizing).total == timing.total_delay


class TestConvexity:
    def test_midpoint_convexity_in_log_sizes(self, ref_params, ref_library):
        # the chained delay is convex over log-capacitance, which is the
        # coordinate system the solvers step in
        rng = random.Random(47)
        path, _ = random_case(rng, ref_library, n_gates=6)
        tpls = templates_for(path, ref_library)

        def delay_at(logc):
            c = [path.input_cap] + [math.exp(y) for y in logc]
            t, _, _ = oracles.chain_delay(
                tpls, c, path.terminal_load, path.input_edge,
                path.driver_slope_rise, path.driver_slope_fall, ref_params)
            return t

        for _ in range(40):
            y1 = [rng.uniform(math.log(2.0), math.log(300.0))
                  for _ in range(path.n - 1)]
            y2 = [rng.uniform(math.log(2.0), math.log(300.0))
                  for _ in range(path.n - 1)]
            mid = [(u + v) / 2.0 for u, v in zip(y1, y2)]
            lhs = delay_at(mid)
            rhs = 0.5 * (delay_at(y1) + delay_at(y2))
            assert lhs <= rhs * (1.0 + 1e-9)
