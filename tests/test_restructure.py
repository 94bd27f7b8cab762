"""De Morgan rewrites, inverter cancellation, and gate ranking.

Every rewrite is checked for functional equivalence through the
independent truth-table oracle, and the off-path inverter bookkeeping is
verified in both directions (charged when sides gain inverters, credited
when existing ones become redundant).
"""

import pytest

import oracles
from cmospath.buffering import fanout_limits
from cmospath.errors import ConfigError
from cmospath.path import LogicPath
from cmospath.process import GateTemplate
from cmospath.restructure import (PathSegment, SegmentGate,
                                  cancel_inverter_pairs, demorgan_rewrite,
                                  gate_function, local_equivalence_check,
                                  rank_gate_efficiency, segment_of)


class TestGateFunction:
    def test_naming_convention(self):
        assert gate_function("inv", (False,)) is True
        assert gate_function("nand2", (True, True)) is False
        assert gate_function("nand3", (True, False, True)) is True
        assert gate_function("nor2", (False, False)) is True
        assert gate_function("nor3", (False, True, False)) is False

    def test_arity_enforced(self):
        with pytest.raises(ValueError):
            gate_function("inv", (True, False))
        with pytest.raises(ValueError):
            gate_function("nand2", (True,))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="xor2"):
            gate_function("xor2", (True, False))


class TestPathSegment:
    def test_single_inverter_table(self):
        seg = PathSegment((SegmentGate("inv", 0),))
        assert seg.truth_table() == (True, False)

    def test_single_nand2_table(self):
        # product order: critical input is the slowest-moving bit
        seg = PathSegment((SegmentGate("nand2", 1),))
        assert seg.truth_table() == (True, True, True, False)

    def test_side_inversion_complements_side_bits(self):
        plain = PathSegment((SegmentGate("nand2", 1),))
        flipped = PathSegment((SegmentGate("nand2", 1, side_inverted=True),))
        assert flipped.truth_table() == tuple(
            plain.evaluate((x, not s))
            for x, s in ((False, False), (False, True),
                         (True, False), (True, True)))

    def test_input_count_guard(self):
        seg = PathSegment((SegmentGate("nand3", 2),))
        with pytest.raises(ValueError):
            seg.evaluate((True, False))

    def test_negative_side_count_rejected(self):
        with pytest.raises(ValueError, match="n_side"):
            SegmentGate("nand2", -1)

    def test_empty_segment_rejected(self):
        with pytest.raises(ValueError):
            PathSegment(())

    def test_exhaustive_check_is_capped(self):
        seg = PathSegment((SegmentGate("nand3", 2),) * 3)
        assert seg.n_inputs == 7
        with pytest.raises(ValueError, match="capped"):
            seg.truth_table()


class TestSegmentOf:
    def test_slices_with_side_counts(self, ref_library):
        path = LogicPath(gates=("inv", "nand3", "nor2"), input_cap=4.0,
                         terminal_load=50.0)
        seg = segment_of(path, ref_library, 0, 3)
        assert [g.kind for g in seg.gates] == ["inv", "nand3", "nor2"]
        assert [g.n_side for g in seg.gates] == [0, 2, 1]

    def test_carries_side_flags(self, ref_library):
        path = LogicPath(gates=("nand2", "nor2"), input_cap=4.0,
                         terminal_load=50.0, side_inverted=(True, False))
        seg = segment_of(path, ref_library, 0, 2)
        assert seg.gates[0].side_inverted is True
        assert seg.gates[1].side_inverted is False

    def test_bad_ranges_rejected(self, ref_library):
        path = LogicPath(gates=("inv", "inv"), input_cap=4.0,
                         terminal_load=50.0)
        for start, stop in ((-1, 2), (0, 3), (1, 1), (2, 1)):
            with pytest.raises(ValueError):
                segment_of(path, ref_library, start, stop)

    def test_unknown_kind_is_config_error(self, ref_library):
        path = LogicPath(gates=("inv", "mux2"), input_cap=4.0,
                         terminal_load=50.0)
        with pytest.raises(ConfigError):
            segment_of(path, ref_library, 0, 2)


class TestEquivalenceCheck:
    def test_arity_mismatch_is_an_error_not_false(self):
        one = PathSegment((SegmentGate("inv", 0),))
        two = PathSegment((SegmentGate("nand2", 1),))
        with pytest.raises(ValueError, match="mismatch"):
            local_equivalence_check(one, two)

    def test_detects_inequivalence(self):
        nand = PathSegment((SegmentGate("nand2", 1),))
        nor = PathSegment((SegmentGate("nor2", 1),))
        assert local_equivalence_check(nand, nor) is False

    def test_double_inversion_is_equivalent(self):
        plain = PathSegment((SegmentGate("nand2", 1),))
        wrapped = PathSegment((SegmentGate("inv", 0), SegmentGate("inv", 0),
                               SegmentGate("nand2", 1)))
        assert local_equivalence_check(plain, wrapped) is True


class TestDeMorganRewrite:
    def rewrite_preserves_function(self, path, index, library):
        before = oracles.path_truth_table(path, library)
        after_path = demorgan_rewrite(path, index, library)
        after = oracles.path_truth_table(after_path, library)
        assert before == after
        return after_path

    def test_nor2_becomes_nand2(self, ref_library):
        path = LogicPath(gates=("inv", "nor2", "inv"), input_cap=4.0,
                         terminal_load=60.0)
        out = self.rewrite_preserves_function(path, 1, ref_library)
        assert out.gates == ("inv", "inv", "nand2", "inv", "inv")
        assert out.side_inverted[2] is True
        assert out.offpath_inverters == 1

    def test_nor3_becomes_nand3(self, ref_library):
        path = LogicPath(gates=("inv", "nor3", "inv"), input_cap=4.0,
                         terminal_load=60.0)
        out = self.rewrite_preserves_function(path, 1, ref_library)
        assert out.gates == ("inv", "inv", "nand3", "inv", "inv")
        assert out.offpath_inverters == 2

    def test_nand2_reverse_direction(self, ref_library):
        path = LogicPath(gates=("nand2", "nor2"), input_cap=4.0,
                         terminal_load=60.0)
        out = self.rewrite_preserves_function(path, 0, ref_library)
        assert out.gates == ("inv", "nor2", "inv", "nor2")

    def test_inverted_sides_are_credited(self, ref_library):
        # the original gate already paid for side inverters; the rewrite
        # absorbs them, so the off-path count drops
        path = LogicPath(gates=("inv", "nor2", "inv"), input_cap=4.0,
                         terminal_load=60.0,
                         side_inverted=(False, True, False),
                         offpath_inverters=1)
        out = self.rewrite_preserves_function(path, 1, ref_library)
        assert out.side_inverted is None or out.side_inverted[2] is False
        assert out.offpath_inverters == 0

    def test_inverter_has_no_rewrite(self, ref_library):
        path = LogicPath(gates=("inv", "nor2"), input_cap=4.0,
                         terminal_load=60.0)
        with pytest.raises(ValueError, match="inv"):
            demorgan_rewrite(path, 0, ref_library)

    def test_index_range_checked(self, ref_library):
        path = LogicPath(gates=("inv", "nor2"), input_cap=4.0,
                         terminal_load=60.0)
        with pytest.raises(ValueError):
            demorgan_rewrite(path, 2, ref_library)

    def test_wide_gates_unsupported(self, ref_library):
        lib = dict(ref_library)
        lib["nand4"] = GateTemplate(name="nand4", n_inputs=4, dw_hl=2.9,
                                    dw_lh=1.0, par_coeff=1.0, inverting=True)
        path = LogicPath(gates=("nand4",), input_cap=4.0, terminal_load=60.0)
        with pytest.raises(ValueError, match="arity"):
            demorgan_rewrite(path, 0, lib)

    def test_missing_partner_is_config_error(self, ref_library):
        lib = {k: v for k, v in ref_library.items() if k != "nand3"}
        path = LogicPath(gates=("nor3",), input_cap=4.0, terminal_load=60.0)
        with pytest.raises(ConfigError, match="nand3"):
            demorgan_rewrite(path, 0, lib)

    def test_kind_missing_from_library_is_config_error(self, ref_library):
        lib = {k: v for k, v in ref_library.items() if k != "nor2"}
        path = LogicPath(gates=("inv", "nor2"), input_cap=4.0,
                         terminal_load=60.0)
        with pytest.raises(ConfigError, match="unknown gate kind: nor2"):
            demorgan_rewrite(path, 1, lib)

    def test_arity_mismatch_is_config_error(self, ref_library):
        lib = dict(ref_library)
        lib["nand2"] = GateTemplate(name="nand2", n_inputs=3, dw_hl=2.0,
                                    dw_lh=1.0, par_coeff=1.0)
        path = LogicPath(gates=("nand2",), input_cap=4.0, terminal_load=60.0)
        with pytest.raises(ConfigError, match="declares 3 inputs"):
            demorgan_rewrite(path, 0, lib)

    def test_module_equivalence_check_agrees(self, ref_library):
        path = LogicPath(gates=("inv", "nor3", "inv"), input_cap=4.0,
                         terminal_load=60.0)
        out = demorgan_rewrite(path, 1, ref_library)
        before = segment_of(path, ref_library, 0, path.n)
        after = segment_of(out, ref_library, 0, out.n)
        assert local_equivalence_check(before, after) is True


class TestCancelInverterPairs:
    def test_adjacent_pair_drops(self, ref_library):
        path = LogicPath(gates=("inv", "inv", "nand2"), input_cap=4.0,
                         terminal_load=60.0)
        out = cancel_inverter_pairs(path)
        assert out.gates == ("nand2",)
        before = oracles.path_truth_table(path, ref_library)
        assert before == oracles.path_truth_table(out, ref_library)

    def test_cascading_cancellation(self):
        path = LogicPath(gates=("inv", "inv", "inv", "inv", "nor2"),
                         input_cap=4.0, terminal_load=60.0)
        assert cancel_inverter_pairs(path).gates == ("nor2",)

    def test_separated_inverters_stay(self):
        path = LogicPath(gates=("inv", "nand2", "inv"), input_cap=4.0,
                         terminal_load=60.0)
        assert cancel_inverter_pairs(path) is path

    def test_pure_even_chain_keeps_one_pair(self):
        path = LogicPath(gates=("inv", "inv"), input_cap=4.0,
                         terminal_load=60.0)
        assert cancel_inverter_pairs(path).gates == ("inv", "inv")

    def test_seeds_follow_surviving_gates(self):
        path = LogicPath(gates=("inv", "inv", "nand2"), input_cap=4.0,
                         terminal_load=60.0, seed_cin=(4.0, 9.0, 17.0))
        out = cancel_inverter_pairs(path)
        assert out.seed_cin == (17.0,)

    def test_rewrite_then_cancel_keeps_function(self, ref_params,
                                                ref_library, heavy_path):
        rewritten = demorgan_rewrite(heavy_path, 1, ref_library)
        compact = cancel_inverter_pairs(rewritten)
        assert compact.n < rewritten.n
        before = oracles.path_truth_table(heavy_path, ref_library)
        assert before == oracles.path_truth_table(compact, ref_library)


class TestRankGateEfficiency:
    def test_weakest_first_strongest_last(self, ref_params, ref_library):
        ranked = rank_gate_efficiency(ref_library, ref_params)
        kinds = [k for k, _ in ranked]
        assert kinds[0] == "nor3"
        assert kinds[-1] == "inv"
        assert set(kinds) == set(ref_library)

    def test_limits_ascend(self, ref_params, ref_library):
        ranked = rank_gate_efficiency(ref_library, ref_params)
        limits = [v for _, v in ranked]
        assert limits == sorted(limits)

    @pytest.mark.parametrize("buffer_kind", ["inv", "nand2"])
    def test_ranks_exactly_the_fanout_limits(self, ref_params, ref_library,
                                             buffer_kind):
        limits = fanout_limits(ref_params, ref_library, buffer_kind)
        assert len(set(limits.values())) == len(limits)
        assert rank_gate_efficiency(ref_library, ref_params, buffer_kind) \
            == sorted(limits.items(), key=lambda row: row[1])
