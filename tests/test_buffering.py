"""Fanout limits and greedy buffer insertion.

The break-even fanouts are checked against independently golden-sized
buffered structures, and the greedy pass is replayed insertion by
insertion to confirm each accepted step actually paid.
"""

import dataclasses
import math
import random
import time

import pytest

import oracles
from conftest import REF_PROC
from cmospath import bounds, buffering, path as path_module
from cmospath.bounds import min_delay_sizing
from cmospath.buffering import (_chain_stage_delay, _crossing, _sites,
                                _wants_more_stages, fanout_limits, flimit,
                                insert_buffers, load_ratios,
                                min_delay_with_buffers)
from cmospath.errors import ConfigError
from cmospath.path import LogicPath, PathModel
from cmospath.process import EDGES, GateTemplate, load_process_file
from cmospath.protocol import optimize


def golden_gap(gates, fanout, params, library):
    """Buffered minus plain delay of `gates` into fanout * cin, averaged
    over both input edges, from the independent stage recurrence.

    Every gate sits at the probe's cin; the buffered structure appends an
    inverter whose size golden-section search picks.
    """
    cin = 64.0 * params.cref
    load = fanout * cin
    plain = [library[k] for k in gates]
    buffered = plain + [library["inv"]]
    sizes = [cin] * len(gates)

    def delay(templates, cins, edge):
        return oracles.chain_delay(templates, cins, load, edge, 0.0, 0.0,
                                   params)[0]

    total = 0.0
    for edge in EDGES:
        _, d_buf = oracles.golden_min(
            lambda c: delay(buffered, sizes + [c], edge), params.cref,
            40.0 * load, tol=1e-9)
        total += d_buf - delay(plain, sizes, edge)
    return total / len(EDGES)


class TestFanoutLimit:
    def test_value_guard(self, ref_params, ref_library):
        # a limit is a plain float above unit fanout
        for limit in fanout_limits(ref_params, ref_library).values():
            assert type(limit) is float and limit > 1.0

    def test_inverter_on_inverter_range(self, ref_params, ref_library):
        limit = flimit("inv", ref_params, ref_library)
        assert 4.0 <= limit <= 8.0
        assert limit == pytest.approx(5.7, rel=0.25)

    def test_strictly_ordered_by_gate_weight(self, ref_params, ref_library):
        kinds = ("inv", "nand2", "nand3", "nor2", "nor3")
        vals = [flimit(k, ref_params, ref_library) for k in kinds]
        for a, b in zip(vals, vals[1:]):
            assert a > b

    def test_crossing_brackets_the_limit(self, ref_params, ref_library):
        # independent check: golden-size the buffer on the stage recurrence
        # and confirm the buffered structure loses just below each limit
        # and wins just above it, within the bisection's 1e-3
        for gate, limit in fanout_limits(ref_params, ref_library).items():
            assert golden_gap((gate,), limit - 2e-3, ref_params,
                              ref_library) > 0.0, gate
            assert golden_gap((gate,), limit + 2e-3, ref_params,
                              ref_library) < 0.0, gate

    def test_unknown_kind_raises(self, ref_params, ref_library):
        with pytest.raises(ConfigError):
            flimit("xor9", ref_params, ref_library)

    def test_hopeless_gate_degenerates_to_unit_fanout(self, ref_params,
                                                      ref_library):
        weak = GateTemplate(name="weakgate", n_inputs=2, dw_hl=40.0,
                            dw_lh=40.0, par_coeff=0.2, inverting=True)
        lib = dict(ref_library)
        lib["weakgate"] = weak
        limit = flimit("weakgate", ref_params, lib)
        assert 1.0 < limit <= 1.01

    def test_hopeless_buffer_has_no_finite_limit(self, ref_params,
                                                 ref_library):
        # self-loading so heavy the buffered structure never wins in range
        slug = GateTemplate(name="slug", n_inputs=1, dw_hl=1.0, dw_lh=1.0,
                            par_coeff=120.0, inverting=True)
        lib = dict(ref_library)
        lib["slug"] = slug
        assert flimit("inv", ref_params, lib, buffer_kind="slug") == math.inf

    def test_buffer_kind_moves_the_crossing(self, ref_params, ref_library):
        via_inv = flimit("nor3", ref_params, ref_library)
        via_nand = flimit("nor3", ref_params, ref_library,
                          buffer_kind="nand2")
        assert via_nand > via_inv


class TestFlimitTable:
    def test_table_fast_and_complete(self, ref_params, ref_library):
        _crossing.cache_clear()
        start = time.perf_counter()
        table = fanout_limits(ref_params, ref_library)
        assert time.perf_counter() - start < 1.0
        assert list(table) == list(ref_library)

    def test_limit_does_not_depend_on_the_driver(self, ref_params,
                                                 ref_library):
        # The driving stage adds the same delay with and without the
        # buffer, so whichever kind drives the probe, the buffered
        # structure loses just below the limit and wins just above it.
        for gate, limit in fanout_limits(ref_params, ref_library).items():
            for driver in ref_library:
                for fanout, loses in ((limit - 1e-3, True),
                                      (limit + 1e-3, False)):
                    gap = golden_gap((driver, gate), fanout, ref_params,
                                     ref_library)
                    assert (gap > 0.0) == loses, (driver, gate, fanout)

    def test_reference_table_values(self, ref_params, ref_library):
        # bisection midpoints are dyadic, so the values pin exactly
        expected = {"inv": 5.668193817138672, "nand2": 4.885692596435547,
                    "nand3": 4.489910125732422, "nor2": 3.773876190185547,
                    "nor3": 2.6786766052246094}
        table = fanout_limits(ref_params, ref_library)
        assert list(table.items()) == list(expected.items())

    def test_cache_matches_and_memoizes(self, ref_params, ref_library):
        table = fanout_limits(ref_params, ref_library)
        assert table == {kind: flimit(kind, ref_params, ref_library)
                         for kind in ref_library}
        before = _crossing.cache_info()
        assert fanout_limits(ref_params, ref_library) == table
        after = _crossing.cache_info()
        assert after.misses == before.misses
        assert after.hits == before.hits + len(ref_library)


class TestFlimitMemo:
    def test_changed_template_gets_its_own_limit(self, ref_params,
                                                 ref_library):
        ref = flimit("nand2", ref_params, ref_library)
        lib = dict(ref_library)
        lib["nand2"] = dataclasses.replace(lib["nand2"], par_coeff=1.5)
        other = flimit("nand2", ref_params, lib)
        assert other != ref
        _crossing.cache_clear()
        assert flimit("nand2", ref_params, lib) == other
        assert flimit("nand2", ref_params, ref_library) == ref

    def test_unknown_kinds_raise_when_warm(self, ref_params, ref_library):
        flimit("nand2", ref_params, ref_library)
        for gate, buffer_kind in (("xor9", "inv"), ("nand2", "xor9")):
            with pytest.raises(ConfigError, match="xor9"):
                flimit(gate, ref_params, ref_library, buffer_kind)

    def test_equal_config_computes_no_new_crossing(self, heavy_path):
        # hard (buffering) and infeasible (restructuring ranks the library)
        params, library = load_process_file(REF_PROC)
        _, t_min, _ = min_delay_sizing(heavy_path, params, library)
        for ratio in (1.1, 0.85):
            optimize(heavy_path, ratio * t_min, params, library)
        before = _crossing.cache_info()
        params2, library2 = load_process_file(REF_PROC)
        assert params2 is not params and library2 is not library
        for ratio in (1.1, 0.85):
            optimize(heavy_path, ratio * t_min, params2, library2)
        after = _crossing.cache_info()
        assert after.misses == before.misses
        assert after.hits > before.hits

    def test_probing_mutates_nothing(self, ref_params, ref_library,
                                     monkeypatch):
        class FixedLoadModel(PathModel):
            def __setattr__(self, name, value):
                assert not hasattr(self, name), f"{name} reassigned"
                super().__setattr__(name, value)

        for module in (buffering, bounds, path_module):
            monkeypatch.setattr(module, "PathModel", FixedLoadModel)
        _crossing.cache_clear()
        snapshot = dict(ref_library)
        copies = {k: dataclasses.replace(t) for k, t in ref_library.items()}
        fanout_limits(ref_params, ref_library)
        assert ref_library == copies
        assert all(ref_library[k] is t for k, t in snapshot.items())
        assert set(ref_library) == set(snapshot)


def chain_templates(library):
    """Every library kind, then each with a fixed coupling of 0, 3 and
    586 fF."""
    return [*library.values(), *(
        dataclasses.replace(t, cm_override=cm) for t in library.values()
        for cm in (0.0, 3.0, 586.0))]


class TestChainStageDelay:
    EFFORTS = [0.5 * 400.0 ** (k / 12) for k in range(13)]

    @pytest.mark.parametrize("thresholds", [{}, {"vtn": 0.3, "vtp": 0.15}],
                             ids=["ref", "split-thresholds"])
    def test_matches_steady_state_chain(self, ref_params, ref_library,
                                        thresholds):
        # the logical-effort screen times a stage of a long uniform chain
        # at the probe's cin, both output edges averaged; unequal
        # thresholds tell which edge drives which stage
        params = dataclasses.replace(ref_params, **thresholds)
        cin = 64.0 * params.cref
        for template in chain_templates(ref_library):
            for effort in self.EFFORTS:
                want = oracles.uniform_chain_stage_delay(template, cin,
                                                         effort, params)
                assert _chain_stage_delay(template, params, effort) \
                    == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("gates, load, wanted", [
        (("inv",), 2000.0, True),
        (("inv",) * 8, 8.0, False)])
    def test_wants_more_stages_by_chain_delay(self, ref_params, ref_library,
                                              gates, load, wanted):
        # N + 1 stages of the buffer kind beat N at the path's effort
        path = LogicPath(gates=gates, input_cap=4.0, terminal_load=load)
        model = PathModel(path, ref_params, ref_library)
        assert _wants_more_stages(model, ref_library["inv"]) is wanted


def sites(path, sizing, limits, params, library, mode):
    """The site rule's trial order on a path at a sizing."""
    return _sites(PathModel(path, params, library), sizing, limits,
                  library["inv"], mode)


class TestCriticalNodes:
    def test_well_staged_path_has_none(self, ref_params, ref_library,
                                       chain11):
        sizing, _, _ = min_delay_sizing(chain11, ref_params, ref_library)
        limits = fanout_limits(ref_params, ref_library)
        ratios = load_ratios(chain11, sizing, limits)
        assert all(r is not None and r <= 1.0 for r in ratios)
        assert sites(chain11, sizing, limits, ref_params, ref_library,
                     "pair") == []

    def test_overloaded_path_flagged_worst_first(self, ref_params,
                                                 ref_library, heavy_path):
        sizing, _, _ = min_delay_sizing(heavy_path, ref_params, ref_library)
        limits = fanout_limits(ref_params, ref_library)
        # recompute the overshoot ratios independently: fanout is the
        # downstream node over the gate's own cin
        ratios = {}
        for i, kind in enumerate(heavy_path.gates):
            nxt = sizing[i + 1] if i < heavy_path.n - 1 \
                else heavy_path.terminal_load
            ratios[i] = nxt / sizing[i] / limits[kind]
        assert load_ratios(heavy_path, sizing, limits) == list(
            ratios.values())
        over = [i for i, r in ratios.items() if r > 1.0]
        assert over
        # single mode tries every over-limit gate, worst first; pair mode
        # only the worst
        single = sites(heavy_path, sizing, limits, ref_params, ref_library,
                       "single")
        ordered = [i for i in single if i in over]
        assert sorted(ordered) == over
        assert [ratios[i] for i in ordered] == sorted(
            (ratios[i] for i in ordered), reverse=True)
        assert sites(heavy_path, sizing, limits, ref_params, ref_library,
                     "pair") == ordered[:1]

    @staticmethod
    def _two_flagged(ref_library, gap):
        """Limits flagging only nodes 0 and 2, node 2's ratio set by gap.

        gap None puts node 2's overshoot ratio one ulp above node 0's;
        otherwise node 2's ratio is node 0's times (1 + gap).
        """
        path = LogicPath(gates=("inv", "nand2", "nor2", "nand3"),
                         input_cap=4.0, terminal_load=300.0)
        sizing = (4.0, 12.0, 10.0, 60.0)
        fanout = [(sizing[i + 1] if i < 3 else path.terminal_load) / sizing[i]
                  for i in range(path.n)]
        ratio0 = fanout[0] / (fanout[0] / 2.0)
        if gap is None:
            limit2 = fanout[2] / math.nextafter(ratio0, math.inf)
            while fanout[2] / limit2 <= ratio0:
                limit2 = math.nextafter(limit2, 0.0)
            assert fanout[2] / limit2 <= ratio0 * (1.0 + 1e-15)
        else:
            limit2 = fanout[2] / (ratio0 * (1.0 + gap))
        limits = {"inv": fanout[0] / 2.0, "nand2": math.inf,
                  "nor2": limit2, "nand3": math.inf}
        return path, sizing, limits

    @pytest.mark.parametrize("gap, order", [(None, [0, 2]), (1e-6, [2, 0])])
    def test_near_tie_goes_to_the_lower_index(self, ref_params, ref_library,
                                              gap, order):
        # a one-ulp lead is rounding noise: which of two exactly tied
        # nodes is the worst must not hang on the last bit of the sizing,
        # while a real lead still is the worst
        path, sizing, limits = self._two_flagged(ref_library, gap)
        assert sites(path, sizing, limits, ref_params, ref_library,
                     "pair") == order[:1]
        single = sites(path, sizing, limits, ref_params, ref_library,
                       "single")
        assert [i for i in single if i in order] == order

    @pytest.mark.parametrize("gate", ["inv", "nand2", "nand3", "nor2",
                                      "nor3"])
    def test_flagged_exactly_past_the_probed_limit(self, ref_params,
                                                   ref_library, gate):
        # On the probe's own structure (the buffer kind driving the gate,
        # both at the probe's cin) the gate is flagged just above its
        # limit and not just below it: the test and the probe measure
        # fanout the same way.
        limits = fanout_limits(ref_params, ref_library)
        limit = limits[gate]
        assert math.isfinite(limit)
        cin = 64.0 * ref_params.cref
        for f, expected in ((limit * (1 + 1e-3), [1]),
                            (limit * (1 - 1e-3), [])):
            path = LogicPath(gates=("inv", gate), input_cap=cin,
                             terminal_load=f * cin, driver_slope_rise=0.0,
                             driver_slope_fall=0.0)
            ratio = load_ratios(path, (cin, cin), limits)[1]
            assert (ratio > 1.0) == bool(expected)
            assert sites(path, (cin, cin), limits, ref_params, ref_library,
                         "pair") == expected

    def test_sizing_is_validated(self, ref_params, ref_library, heavy_path):
        limits = fanout_limits(ref_params, ref_library)
        with pytest.raises(ValueError):
            sites(heavy_path, (4.0, 10.0), limits, ref_params, ref_library,
                  "pair")


class TestInsertBuffers:
    BASE = LogicPath(gates=("inv", "nand2", "inv"), input_cap=4.0,
                     terminal_load=100.0)

    def test_pair_mode_preserves_polarity(self):
        out = insert_buffers(self.BASE, [1], polarity_mode="pair")
        assert out.gates == ("inv", "nand2", "inv", "inv", "inv")
        assert out.polarity_flips == 0
        assert out.terminal_load == self.BASE.terminal_load

    def test_single_mode_records_the_flip(self):
        out = insert_buffers(self.BASE, [0, 2], polarity_mode="single")
        assert out.gates == ("inv", "inv", "nand2", "inv", "inv")
        assert out.polarity_flips == 2

    def test_duplicate_indices_collapse(self):
        once = insert_buffers(self.BASE, [1])
        twice = insert_buffers(self.BASE, [1, 1])
        assert once.gates == twice.gates

    def test_empty_request_is_identity(self):
        assert insert_buffers(self.BASE, []) is self.BASE

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            insert_buffers(self.BASE, [3])
        with pytest.raises(ValueError):
            insert_buffers(self.BASE, [-1])

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            insert_buffers(self.BASE, [1], polarity_mode="triple")

    def test_seeds_and_side_flags_kept_in_place(self):
        path = LogicPath(gates=("inv", "nand2", "inv"), input_cap=4.0,
                         terminal_load=100.0,
                         side_inverted=(False, True, False))
        out = insert_buffers(path, [1], polarity_mode="pair")
        assert out.side_inverted == (False, True, False, False, False)


class TestMinDelayWithBuffers:
    def test_heavy_load_improves(self, ref_params, ref_library, heavy_path):
        _, t_unbuf, _ = min_delay_sizing(heavy_path, ref_params, ref_library)
        out = min_delay_with_buffers(heavy_path, ref_params, ref_library)
        assert out.insertions
        assert out.t_min < t_unbuf * 0.999
        assert len(out.path.gates) == \
            len(heavy_path.gates) + 2 * len(out.insertions)
        timing = PathModel(out.path, ref_params,
                           ref_library).evaluate(out.sizing)
        assert timing.total == pytest.approx(out.t_min, rel=1e-9)

    def test_replay_matches_and_every_step_pays(self, ref_params,
                                                ref_library, heavy_path):
        out = min_delay_with_buffers(heavy_path, ref_params, ref_library)
        path = heavy_path
        _, t, _ = min_delay_sizing(path, ref_params, ref_library)
        for index, mode in out.insertions:
            path = insert_buffers(path, [index], polarity_mode=mode)
            _, t_new, _ = min_delay_sizing(path, ref_params, ref_library)
            assert t_new < t * 0.999
            t = t_new
        assert path.gates == out.path.gates
        assert t == pytest.approx(out.t_min, rel=1e-9)

    def test_well_staged_path_left_alone(self, ref_params, ref_library,
                                         chain11):
        _, t_unbuf, _ = min_delay_sizing(chain11, ref_params, ref_library)
        out = min_delay_with_buffers(chain11, ref_params, ref_library)
        assert out.insertions == ()
        assert out.path.gates == chain11.gates
        assert out.t_min == pytest.approx(t_unbuf, rel=1e-12)

    def test_single_mode_counts_flips(self, ref_params, ref_library,
                                      heavy_path):
        out = min_delay_with_buffers(heavy_path, ref_params, ref_library,
                                     polarity_mode="single")
        assert out.path.polarity_flips == len(out.insertions)
        assert len(out.path.gates) == \
            len(heavy_path.gates) + len(out.insertions)

    def test_never_slower_than_the_input(self, ref_params, ref_library,
                                         chain13):
        _, t_unbuf, _ = min_delay_sizing(chain13, ref_params, ref_library)
        out = min_delay_with_buffers(chain13, ref_params, ref_library)
        assert out.t_min <= t_unbuf * (1.0 + 1e-12)

    def test_start_is_the_cold_solve(self, ref_params, ref_library,
                                     heavy_path):
        sizing, t_min, _ = min_delay_sizing(heavy_path, ref_params,
                                            ref_library)
        cold = min_delay_with_buffers(heavy_path, ref_params, ref_library)
        assert min_delay_with_buffers(heavy_path, ref_params, ref_library,
                                      start=(sizing, t_min)) == cold

    @pytest.mark.parametrize("seed", range(5))
    def test_no_futile_trials_on_long_chains(self, ref_params, ref_library,
                                             monkeypatch, seed):
        # A min-delay sizing of a long random chain keeps every gate's
        # fanout under its limit, and the chain has more stages than its
        # effort wants, so greedy buffering in pair mode solves no trial
        # and hands the input path back.
        rng = random.Random(seed)
        path = LogicPath(
            gates=tuple(rng.choice(sorted(ref_library))
                        for _ in range(rng.randint(100, 130))),
            input_cap=rng.uniform(2.0, 8.0),
            terminal_load=math.exp(rng.uniform(math.log(100.0),
                                               math.log(2000.0))))
        sizing, t_min, _ = min_delay_sizing(path, ref_params, ref_library)
        fanout_limits(ref_params, ref_library)  # probe solves are no trials
        solved = []

        def recording(path, *args, **kwargs):
            solved.append(path)
            return min_delay_sizing(path, *args, **kwargs)

        monkeypatch.setattr(buffering, "min_delay_sizing", recording)
        out = min_delay_with_buffers(path, ref_params, ref_library,
                                     start=(sizing, t_min))
        assert solved == []
        assert out.path is path
        assert out.insertions == ()
        assert (out.sizing, out.t_min) == (sizing, t_min)

    # Short heavily loaded paths with no gate over its limit, as drawn by
    # scripts/diff_optimize.py (seed 11, cases 652 and 972).
    UNDER_LIMIT_PAIR = LogicPath(
        gates=("nand3", "nand2", "nand3", "nand2"),
        input_cap=4.7637999517739615, terminal_load=959.7961557063912,
        input_edge="rising", driver_slope_rise=33.46034449268341,
        driver_slope_fall=13.78550112075465)
    UNDER_LIMIT_FLIP = LogicPath(
        gates=("nor2", "nand3", "nand2", "nor3", "nor2", "nand2"),
        input_cap=7.554167186563367, terminal_load=410.56883074329204,
        input_edge="rising", driver_slope_rise=0.6688751798241965,
        driver_slope_fall=6.811707665983002)

    @pytest.mark.parametrize("path, mode", [
        (UNDER_LIMIT_PAIR, "pair"), (UNDER_LIMIT_FLIP, "single")],
        ids=["pair", "single"])
    def test_pays_below_the_fanout_limit(self, ref_params, ref_library,
                                         path, mode):
        # The pair: the whole short path resizes around it, so it pays
        # below the probe's limit, which holds the gate's size fixed.  The
        # single inverter: it pays by flipping the later gates' edges.
        # Either way a route at 0.97 t_min becomes feasible.
        sizing, t_min, _ = min_delay_sizing(path, ref_params, ref_library)
        limits = fanout_limits(ref_params, ref_library)
        assert all(r <= 1.0 for r in load_ratios(path, sizing, limits))
        out = min_delay_with_buffers(path, ref_params, ref_library,
                                     polarity_mode=mode)
        assert out.insertions and all(m == mode for _, m in out.insertions)
        assert out.t_min < t_min * (1.0 - buffering.IMPROVE_TOL)
        result = optimize(path, 0.97 * t_min, ref_params, ref_library,
                          buffer_mode=mode)
        assert result.achieved_delay <= 0.97 * t_min

    # Drawn by scripts/diff_optimize.py, seed 11: gates 6 and 10 of case
    # 414 sit 0.65% over their limits, and gates 0 and 2 of case 128 at
    # 1.97 and 1.40 times theirs.
    OVER_LIMIT_FLIP = LogicPath(
        gates=("nand2", "nor3", "inv", "nand3", "nand2", "nor2", "nor3",
               "nand2", "nor2", "nand3", "nor3", "nand3", "inv", "nor3",
               "nand2", "inv"),
        input_cap=2.285634657175529, terminal_load=1293.9935408761833,
        input_edge="rising", driver_slope_rise=25.354296440835718,
        driver_slope_fall=3.8587659250725492)
    OVER_LIMIT_FAILING = LogicPath(
        gates=("nor3", "nand2", "nor2", "nor3"),
        input_cap=4.734697135689483, terminal_load=429.8758917808865,
        input_edge="rising", driver_slope_rise=9.311188292922656,
        driver_slope_fall=30.99709678527099)

    def test_single_mode_keeps_the_fastest_site(self, ref_params,
                                                ref_library):
        # A single inverter after an over-limit gate pays, but the flip
        # site pays more: the round tries both and keeps the faster.
        out = min_delay_with_buffers(self.OVER_LIMIT_FLIP, ref_params,
                                     ref_library, polarity_mode="single")
        assert out.insertions == ((12, "single"),)
        assert out.t_min <= 1007.1

    def test_pair_mode_tries_only_the_worst_gate(self, ref_params,
                                                 ref_library, monkeypatch):
        # Both gates over their limits, neither pair pays: the round
        # solves the worst gate's trial alone and stops.
        path = self.OVER_LIMIT_FAILING
        sizing, t_min, _ = min_delay_sizing(path, ref_params, ref_library)
        limits = fanout_limits(ref_params, ref_library)
        assert [r > 1.0 for r in load_ratios(path, sizing, limits)] == [
            True, False, True, False]
        solved = []

        def recording(path, *args, **kwargs):
            solved.append(path)
            return min_delay_sizing(path, *args, **kwargs)

        monkeypatch.setattr(buffering, "min_delay_sizing", recording)
        out = min_delay_with_buffers(path, ref_params, ref_library,
                                     start=(sizing, t_min))
        assert [trial.gates for trial in solved] == [
            ("nor3", "inv", "inv", "nand2", "nor2", "nor3")]
        assert out.path is path and out.insertions == ()

    @pytest.mark.parametrize("option, error", [
        ({"buffer_kind": "xor9"}, ConfigError),
        ({"polarity_mode": "sngle"}, ValueError)],
        ids=["buffer_kind", "polarity_mode"])
    def test_unknown_option_raises_up_front(self, ref_params, ref_library,
                                            chain11, option, error):
        # No gate of chain11 is over its limit and pair mode tries no
        # extra site, so no trial would ever name the option.
        value, = option.values()
        with pytest.raises(error, match=value):
            min_delay_with_buffers(chain11, ref_params, ref_library,
                                   **option)

    @pytest.mark.parametrize("ratio", [1.1, 1.5, 3.0])
    def test_optimize_rejects_an_unknown_buffer_mode(
            self, ref_params, ref_library, chain11, ratio):
        # hard, medium and weak: the weak domain runs no buffering at all
        _, t_min, _ = min_delay_sizing(chain11, ref_params, ref_library)
        with pytest.raises(ValueError, match="bogus"):
            optimize(chain11, ratio * t_min, ref_params, ref_library,
                     buffer_mode="bogus")

    @pytest.mark.parametrize("ratio", [0.9, 1.1, 2.0, 3.0])
    def test_optimize_rejects_an_unknown_buffer_kind(
            self, ref_params, ref_library, chain11, monkeypatch, ratio):
        # infeasible, hard, medium and weak, before any solve: the weak
        # domain would otherwise read no buffer kind at all
        _, t_min, _ = min_delay_sizing(chain11, ref_params, ref_library)
        solves = []
        real = bounds.link_fixed_point

        def counting(*args, **kwargs):
            solves.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(bounds, "link_fixed_point", counting)
        with pytest.raises(ConfigError, match="unknown gate kind: nope"):
            optimize(chain11, ratio * t_min, ref_params, ref_library,
                     buffer_kind="nope")
        assert solves == []

    def test_no_extra_trial_on_a_lightly_loaded_short_path(
            self, ref_params, ref_library, monkeypatch):
        # Three stages already exceed what a light load wants, and no gate
        # is over its limit: pair mode solves nothing.
        path = LogicPath(gates=("nand2", "nor2", "inv"), input_cap=4.0,
                         terminal_load=20.0)
        sizing, t_min, _ = min_delay_sizing(path, ref_params, ref_library)
        fanout_limits(ref_params, ref_library)  # probe solves are no trials
        solved = []

        def recording(path, *args, **kwargs):
            solved.append(path)
            return min_delay_sizing(path, *args, **kwargs)

        monkeypatch.setattr(buffering, "min_delay_sizing", recording)
        out = min_delay_with_buffers(path, ref_params, ref_library,
                                     start=(sizing, t_min))
        assert solved == [] and out.path is path

    def test_optimize_extends_the_known_route(self, ref_params, ref_library,
                                              heavy_path, monkeypatch):
        # The route's min-delay sizing is known before greedy buffering
        # starts, so the loop only solves the buffered candidates.
        solved = []

        def recording(path, params, library, *args, **kwargs):
            solved.append(path)
            return min_delay_sizing(path, params, library, *args, **kwargs)

        monkeypatch.setattr(buffering, "min_delay_sizing", recording)
        _, t_min, _ = min_delay_sizing(heavy_path, ref_params, ref_library)
        result = optimize(heavy_path, 1.1 * t_min, ref_params, ref_library)
        assert result.domain.kind.value == "hard"
        assert result.final_path.gates != heavy_path.gates
        assert solved and heavy_path not in solved

