"""Constraint classification and the route-selection optimizer.

The final sizing of every optimize() call is re-evaluated through the
independent delay oracle, so a solution that only looks feasible to the
package's own model cannot slip through.
"""

import dataclasses
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from cmospath import protocol, restructure
from cmospath.bounds import min_delay_sizing
from cmospath.errors import (CmosPathError, ConfigError, InfeasibleError,
                             InvariantError)
from cmospath.path import LogicPath
from cmospath.protocol import (Domain, TraceStep, classify_constraint,
                               optimize, replay_trace)
from cmospath.sizing import distribute_constraint


def oracle_delay(path, sizing, params, library):
    templates = [library[k] for k in path.gates]
    total, _, _ = oracles.chain_delay(
        templates, list(sizing), path.terminal_load, path.input_edge,
        path.driver_slope_rise, path.driver_slope_fall, params)
    return total


def check_result(res, path, tc, params, library):
    """Invariants every successful optimization must satisfy."""
    got = oracle_delay(res.final_path, res.sizing, params, library)
    assert got == pytest.approx(res.achieved_delay, rel=1e-9)
    assert got <= tc
    assert res.a_value <= 0.0
    assert replay_trace(path, res.trace, library) == res.final_path


class TestClassify:
    def test_the_four_domains(self, ref_params):
        cases = ((0.9, Domain.INFEASIBLE), (1.1, Domain.HARD),
                 (2.0, Domain.MEDIUM), (3.0, Domain.WEAK))
        for ratio, expected in cases:
            dom = classify_constraint(ratio * 100.0, 100.0, ref_params)
            assert dom.kind is expected
            assert dom.ratio == pytest.approx(ratio)

    def test_boundaries_fall_toward_the_harder_domain(self, ref_params):
        assert classify_constraint(100.0, 100.0,
                                   ref_params).kind is Domain.HARD
        assert classify_constraint(120.0, 100.0,
                                   ref_params).kind is Domain.HARD
        assert classify_constraint(250.0, 100.0,
                                   ref_params).kind is Domain.MEDIUM

    def test_rejects_nonpositive(self, ref_params):
        with pytest.raises(ValueError):
            classify_constraint(0.0, 100.0, ref_params)
        with pytest.raises(ValueError):
            classify_constraint(100.0, 0.0, ref_params)


class TestTraceStep:
    def test_line_format(self):
        step = TraceStep("classify", {"domain": "hard", "ratio": 1.25})
        assert step.line() == "step=classify detail=<domain=hard ratio=1.25>"

    def test_floats_are_compact(self):
        step = TraceStep("bounds", {"t_min": 586.747656})
        assert step.line() == "step=bounds detail=<t_min=586.748>"


class TestWeakDomain:
    def test_pure_sizing_no_structure_change(self, ref_params, ref_library,
                                             chain11):
        _, t_min, _ = min_delay_sizing(chain11, ref_params, ref_library)
        tc = 3.0 * t_min
        res = optimize(chain11, tc, ref_params, ref_library)
        assert res.domain.kind is Domain.WEAK
        assert res.final_path.gates == chain11.gates
        assert [s.kind for s in res.trace] == ["bounds", "classify",
                                               "distribute"]
        check_result(res, chain11, tc, ref_params, ref_library)

    def test_saturated_constraint_notes_it(self, ref_params, ref_library,
                                           chain11):
        # past t_max every gate is already minimum size
        _, t_min, _ = min_delay_sizing(chain11, ref_params, ref_library)
        res = optimize(chain11, 6.0 * t_min, ref_params, ref_library)
        assert res.notes
        assert all(c == pytest.approx(ref_params.cref)
                   for c in res.sizing[1:])


class TestMediumDomain:
    def test_buffering_rejected_on_measured_area(self, ref_params,
                                                 ref_library, heavy_path):
        _, t_min, _ = min_delay_sizing(heavy_path, ref_params, ref_library)
        tc = 2.0 * t_min
        res = optimize(heavy_path, tc, ref_params, ref_library)
        assert res.domain.kind is Domain.MEDIUM
        kinds = [s.kind for s in res.trace]
        assert "buffering_rejected" in kinds or "buffering_kept" in kinds
        check_result(res, heavy_path, tc, ref_params, ref_library)

    def test_rejection_keeps_the_original_structure(self, ref_params,
                                                    ref_library, heavy_path):
        _, t_min, _ = min_delay_sizing(heavy_path, ref_params, ref_library)
        res = optimize(heavy_path, 2.0 * t_min, ref_params, ref_library)
        rejected = [s for s in res.trace if s.kind == "buffering_rejected"]
        if rejected:
            assert res.final_path.gates == heavy_path.gates
            assert rejected[0].data["area_with"] > \
                rejected[0].data["area_without"]


class TestHardDomain:
    def test_buffers_then_beats_sizing_only(self, ref_params, ref_library,
                                            heavy_path):
        _, t_min, _ = min_delay_sizing(heavy_path, ref_params, ref_library)
        tc = 1.1 * t_min
        res = optimize(heavy_path, tc, ref_params, ref_library)
        assert res.domain.kind is Domain.HARD
        assert any(s.kind == "insert_buffer" for s in res.trace)
        assert len(res.final_path.gates) > len(heavy_path.gates)
        only = distribute_constraint(heavy_path, tc, ref_params, ref_library)
        assert res.area < only.area
        check_result(res, heavy_path, tc, ref_params, ref_library)

    def test_buffering_can_be_disabled(self, ref_params, ref_library,
                                       heavy_path):
        _, t_min, _ = min_delay_sizing(heavy_path, ref_params, ref_library)
        tc = 1.1 * t_min
        res = optimize(heavy_path, tc, ref_params, ref_library,
                       allow_buffer=False)
        assert res.final_path.gates == heavy_path.gates
        assert not any(s.kind == "insert_buffer" for s in res.trace)
        only = distribute_constraint(heavy_path, tc, ref_params, ref_library)
        assert res.area == pytest.approx(only.area, rel=1e-9)

    def test_single_mode_buffers_record_flips(self, ref_params, ref_library,
                                              heavy_path):
        _, t_min, _ = min_delay_sizing(heavy_path, ref_params, ref_library)
        tc = 1.1 * t_min
        res = optimize(heavy_path, tc, ref_params, ref_library,
                       buffer_mode="single")
        inserted = [s for s in res.trace if s.kind == "insert_buffer"]
        assert res.final_path.polarity_flips == len(inserted)
        check_result(res, heavy_path, tc, ref_params, ref_library)


class TestInfeasibleDomain:
    def test_restructures_the_weak_gate_and_succeeds(self, ref_params,
                                                     ref_library, chain11):
        _, t_min, _ = min_delay_sizing(chain11, ref_params, ref_library)
        tc = 0.95 * t_min
        res = optimize(chain11, tc, ref_params, ref_library)
        assert res.domain.kind is Domain.INFEASIBLE
        restructs = [s for s in res.trace if s.kind == "restruct"]
        assert restructs
        assert restructs[0].data["from"] == "nor2"
        assert restructs[0].data["equivalent"] is True
        assert any(s.kind == "route" for s in res.trace)
        check_result(res, chain11, tc, ref_params, ref_library)

    def test_rewritten_path_is_logically_identical(self, ref_params,
                                                   ref_library, chain11):
        _, t_min, _ = min_delay_sizing(chain11, ref_params, ref_library)
        res = optimize(chain11, 0.95 * t_min, ref_params, ref_library)
        before = oracles.path_truth_table(chain11, ref_library)
        after = oracles.path_truth_table(res.final_path, ref_library)
        assert before == after

    def test_unreachable_constraint_raises_with_context(self, ref_params,
                                                        ref_library):
        path = LogicPath(gates=("inv",) * 4, input_cap=4.0,
                         terminal_load=80.0, driver_slope_rise=20.0,
                         driver_slope_fall=20.0)
        _, t_min, _ = min_delay_sizing(path, ref_params, ref_library)
        with pytest.raises(InfeasibleError) as excinfo:
            optimize(path, 0.9 * t_min, ref_params, ref_library)
        err = excinfo.value
        assert err.t_min == pytest.approx(t_min, rel=1e-9)
        assert err.best_path is not None
        assert err.trace

    def test_restruct_only_route(self, ref_params, ref_library, chain11):
        _, t_min, _ = min_delay_sizing(chain11, ref_params, ref_library)
        tc = 0.95 * t_min
        res = optimize(chain11, tc, ref_params, ref_library,
                       allow_buffer=False)
        assert any(s.kind == "restruct" for s in res.trace)
        assert not any(s.kind == "insert_buffer" for s in res.trace)
        check_result(res, chain11, tc, ref_params, ref_library)

    def test_everything_disabled_raises(self, ref_params, ref_library,
                                        chain11):
        _, t_min, _ = min_delay_sizing(chain11, ref_params, ref_library)
        with pytest.raises(InfeasibleError):
            optimize(chain11, 0.95 * t_min, ref_params, ref_library,
                     allow_buffer=False, allow_restruct=False)

    def test_library_without_inv_probes_under_the_buffer_kind(
            self, ref_params, ref_library):
        # The inverter filed as "buf": ranking must probe under the buffer
        # kind, find no rewrite (it needs "inv") and fall through to the
        # buffer route, exactly as with restructuring switched off.
        library = {("buf" if kind == "inv" else kind):
                   (dataclasses.replace(t, name="buf") if kind == "inv" else t)
                   for kind, t in ref_library.items()}
        path = LogicPath(gates=("buf", "nor2", "nor3", "buf"), input_cap=4.0,
                         terminal_load=60.0)
        _, t_min, _ = min_delay_sizing(path, ref_params, library)
        errors = []
        for allow_restruct in (True, False):
            with pytest.raises(InfeasibleError) as excinfo:
                optimize(path, 0.9 * t_min, ref_params, library,
                         allow_restruct=allow_restruct, buffer_kind="buf")
            errors.append(excinfo.value)
        assert str(errors[0]) == str(errors[1])
        assert errors[0].best_path == errors[1].best_path
        assert errors[0].trace == errors[1].trace

    @staticmethod
    def _outcomes(ref_params, ref_library, seed, count):
        """(path, InfeasibleError or None if it solved) for seeded random
        paths at 0.8-0.97 of their t_min, each under both buffer modes and
        with buffering, restructuring or both allowed."""
        rng = random.Random(seed)
        for _ in range(count):
            path = LogicPath(
                gates=tuple(rng.choice(KINDS)
                            for _ in range(rng.randint(2, 12))),
                input_cap=rng.uniform(2.0, 8.0),
                terminal_load=rng.uniform(100.0, 2000.0),
                input_edge=rng.choice(("rising", "falling")),
                driver_slope_rise=rng.uniform(0.0, 50.0),
                driver_slope_fall=rng.uniform(0.0, 50.0))
            _, t_min, _ = min_delay_sizing(path, ref_params, ref_library)
            tc = rng.choice((0.8, 0.9, 0.97)) * t_min
            for mode, buffer, restruct in itertools.product(
                    ("pair", "single"), (True, False), (True, False)):
                if not (buffer or restruct):
                    continue
                try:
                    optimize(path, tc, ref_params, ref_library,
                             allow_buffer=buffer, allow_restruct=restruct,
                             buffer_mode=mode)
                except InfeasibleError as err:
                    yield path, err
                else:
                    yield path, None

    def test_every_raise_replays_to_its_best_path(self, ref_params,
                                                   ref_library):
        # The error trace holds the steps that built the fastest route,
        # so it replays to best_path.
        raises = 0
        for path, err in self._outcomes(ref_params, ref_library, 1, 12):
            if err is None:
                continue
            raises += 1
            assert [s.kind for s in err.trace[:2]] == ["bounds", "classify"]
            assert replay_trace(path, err.trace, ref_library) \
                == err.best_path
        assert raises > 20

    def test_error_reports_the_fastest_route_built(self, ref_params,
                                                    ref_library,
                                                    monkeypatch):
        # Every route optimize builds comes from one of these three: the
        # input path's bounds, a restructure step's min-delay solve and a
        # greedy buffering run.  The error carries the least of them.
        seen = []

        def recording(function, t_min_of):
            def wrapper(*args, **kwargs):
                result = function(*args, **kwargs)
                seen.append(t_min_of(result))
                return result
            return wrapper

        for name, t_min_of in (("compute_bounds", lambda r: r.t_min),
                               ("min_delay_sizing", lambda r: r[1]),
                               ("min_delay_with_buffers",
                                lambda r: r.t_min)):
            monkeypatch.setattr(protocol, name, recording(
                getattr(protocol, name), t_min_of))
        lower = 0
        for _, err in self._outcomes(ref_params, ref_library, 2, 12):
            if err is not None:
                assert err.t_min == min(seen)
                assert err.t_min > err.trace[1].data["tc"]
                lower += err.t_min < seen[0]
            seen.clear()
        assert lower


class TestInternalChecks:
    def test_inequivalent_rewrite_raises_typed_error(self, ref_params,
                                                     ref_library, chain11,
                                                     monkeypatch):
        monkeypatch.setattr(protocol, "local_equivalence_check",
                            lambda before, after: False)
        _, t_min, _ = min_delay_sizing(chain11, ref_params, ref_library)
        with pytest.raises(InvariantError, match="changed the segment") as err:
            optimize(chain11, 0.95 * t_min, ref_params, ref_library)
        assert isinstance(err.value, CmosPathError)

    def test_memoized_window_check_still_catches_a_wrong_rewrite(
            self, ref_params, ref_library, chain11, monkeypatch):
        _, t_min, _ = min_delay_sizing(chain11, ref_params, ref_library)
        tc = 0.95 * t_min
        restructure.local_equivalence_check.cache_clear()
        try:
            optimize(chain11, tc, ref_params, ref_library)
        except InfeasibleError:
            pass
        # Valid rewrites filled the cache, the same windows included.
        assert restructure.local_equivalence_check.cache_info().currsize
        real = restructure.demorgan_rewrite

        def same_kind_back(path, index, library):
            # The inverters and flipped side inputs of a De Morgan rewrite,
            # but around the original kind instead of its dual.
            out = real(path, index, library)
            gates = list(out.gates)
            gates[index + 1] = path.gates[index]
            return dataclasses.replace(out, gates=tuple(gates))

        monkeypatch.setattr(protocol, "demorgan_rewrite", same_kind_back)
        with pytest.raises(InvariantError, match="changed the segment"):
            optimize(chain11, tc, ref_params, ref_library)

    def test_missing_offpath_inverters_raise_config_error(self, ref_params,
                                                          ref_library):
        # The inverted nor3 side inputs need two off-path inverters; undoing
        # them in a De Morgan rewrite must not drive the count negative.
        path = LogicPath(gates=("inv", "nor3", "inv"), input_cap=4.0,
                         terminal_load=2000.0,
                         side_inverted=(False, True, False),
                         offpath_inverters=1)
        _, t_min, _ = min_delay_sizing(path, ref_params, ref_library)
        with pytest.raises(ConfigError, match=r"gate 1 \(nor3\).* 2 .* 1$"):
            optimize(path, 0.9 * t_min, ref_params, ref_library)

    def test_delay_above_constraint_raises_typed_error(self, ref_params,
                                                       ref_library, chain11,
                                                       monkeypatch):
        real = protocol.distribute_constraint

        def overshooting(*args, **kwargs):
            sol = real(*args, **kwargs)
            return dataclasses.replace(sol, delay=sol.delay * 1.01)

        monkeypatch.setattr(protocol, "distribute_constraint", overshooting)
        _, t_min, _ = min_delay_sizing(chain11, ref_params, ref_library)
        with pytest.raises(InvariantError, match="above constraint"):
            optimize(chain11, 2.0 * t_min, ref_params, ref_library)


KINDS = ("inv", "nand2", "nand3", "nor2", "nor3")


class TestRewriteSplice:
    def test_rewrite_at_zero_cancels_a_pair_with_its_size(
            self, ref_params, ref_library, monkeypatch):
        path = LogicPath(gates=("nor2", "inv", "nand2", "inv"),
                         input_cap=4.0, terminal_load=400.0)
        _, t_min, _ = min_delay_sizing(path, ref_params, ref_library)
        solves = []

        def recording(path, params, library):
            solves.append(path)
            return min_delay_sizing(path, params, library)

        monkeypatch.setattr(protocol, "min_delay_sizing", recording)
        try:
            optimize(path, 0.9 * t_min, ref_params, ref_library,
                     allow_buffer=False)
        except InfeasibleError:
            pass
        # The base route comes from compute_bounds, so the first solve
        # recorded is the rewrite's.  nor2 -> inv + nand2 + inv; the
        # trailing inv cancels the parent's gate 1, one pair.
        assert solves[0].gates == ("inv", "nand2", "nand2", "inv")
        assert protocol._checked_rewrite(path, 0, ref_library) == (
            solves[0], 1)

    def test_wide_window_is_checked_on_the_rewritten_gate_alone(
            self, ref_library):
        # Gates 0-2 of nor3 nor3 nor3 have 7 inputs (the path input and
        # two side inputs each), past what the exhaustive check takes, so
        # the window narrows to the middle gate.
        path = LogicPath(gates=("nor3",) * 3, input_cap=4.0,
                         terminal_load=400.0)
        assert restructure.segment_of(path, ref_library, 0, 3).n_inputs \
            == 7 > restructure.MAX_EQUIV_INPUTS
        edited, pairs = protocol._checked_rewrite(path, 1, ref_library)
        assert edited.gates == ("nor3", "inv", "nand3", "inv", "nor3")
        assert pairs == 0


class TestRouteMinimumDelay:
    @pytest.mark.parametrize("mode", ["pair", "single"])
    def test_route_t_min_is_its_paths_cold_minimum(self, ref_params,
                                                   ref_library, mode):
        # Every min-delay solve of an edited path starts cold, so the
        # t_min a route reports is min_delay_sizing's on its path, bit
        # for bit, however the walk reached it: the rebound step's of a
        # buffered hard route, and InfeasibleError's of the fastest route
        # built.
        rng = random.Random(32)
        kinds = sorted(ref_library)
        rebounds = raises = 0
        for _ in range(30):
            path = LogicPath(
                gates=tuple(rng.choice(kinds)
                            for _ in range(rng.randint(2, 20))),
                input_cap=rng.uniform(2.0, 8.0),
                terminal_load=rng.uniform(100.0, 2000.0),
                input_edge=rng.choice(("rising", "falling")),
                driver_slope_rise=rng.uniform(0.0, 50.0),
                driver_slope_fall=rng.uniform(0.0, 50.0))
            _, t_min, _ = min_delay_sizing(path, ref_params, ref_library)
            for ratio in (0.8, 1.02, 1.1):
                try:
                    result = optimize(path, ratio * t_min, ref_params,
                                      ref_library, buffer_mode=mode)
                except InfeasibleError as exc:
                    raises += 1
                    assert exc.t_min == min_delay_sizing(
                        exc.best_path, ref_params, ref_library)[1]
                    continue
                for step in result.trace:
                    if step.kind == "rebound":
                        rebounds += 1
                        assert step.data["t_min"] == min_delay_sizing(
                            result.final_path, ref_params, ref_library)[1]
        assert rebounds >= 5 and raises >= 5


@st.composite
def random_paths(draw):
    gates = tuple(draw(st.lists(st.sampled_from(KINDS), min_size=1,
                                max_size=10)))
    flags = tuple(draw(st.lists(st.booleans(), min_size=len(gates),
                                max_size=len(gates))))
    return LogicPath(
        gates=gates, input_cap=draw(st.floats(2.0, 8.0)),
        terminal_load=draw(st.floats(10.0, 2000.0)),
        input_edge=draw(st.sampled_from(("rising", "falling"))),
        driver_slope_rise=draw(st.floats(0.0, 50.0)),
        driver_slope_fall=draw(st.floats(0.0, 50.0)),
        side_inverted=flags, offpath_inverters=draw(st.integers(0, 6)))


class TestGlobalProperties:
    @settings(max_examples=60, deadline=None)
    @given(path=random_paths(), ratio=st.floats(0.8, 4.0))
    def test_meets_the_constraint_or_raises_typed(self, ref_params,
                                                  ref_library, path, ratio):
        _, t_min, _ = min_delay_sizing(path, ref_params, ref_library)
        tc = ratio * t_min
        try:
            res = optimize(path, tc, ref_params, ref_library)
        except CmosPathError:
            return
        # The exact bound holds on the package's own delay; the oracle
        # may round the same sizing one ulp differently, which matters
        # when tc lands exactly on t_min.
        assert res.achieved_delay <= tc
        got = oracle_delay(res.final_path, res.sizing, ref_params,
                           ref_library)
        assert got == pytest.approx(res.achieved_delay, rel=1e-9)
        assert replay_trace(path, res.trace, ref_library) == res.final_path

    def test_idempotent_on_its_own_output(self, ref_params, ref_library,
                                          heavy_path):
        _, t_min, _ = min_delay_sizing(heavy_path, ref_params, ref_library)
        tc = 1.1 * t_min
        first = optimize(heavy_path, tc, ref_params, ref_library)
        second = optimize(first.final_path, tc, ref_params, ref_library)
        assert second.area <= first.area * (1.0 + 1e-3)

    def test_tighter_constraints_cost_area(self, ref_params, ref_library,
                                           chain11):
        _, t_min, _ = min_delay_sizing(chain11, ref_params, ref_library)
        areas = [optimize(chain11, r * t_min, ref_params, ref_library).area
                 for r in (1.1, 1.5, 2.0, 3.0)]
        assert areas == sorted(areas, reverse=True)
