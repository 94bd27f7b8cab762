"""Gate-level model: config parsing, symmetry factors, the stage delay."""

import math

import pytest
from hypothesis import given, strategies as st

from cmospath import (
    FALLING,
    RISING,
    ConfigError,
    GateTemplate,
    ProcessParams,
    load_process_config,
    symmetry_factors,
    width_of,
)
from cmospath import path as path_module
from cmospath import process
from cmospath.path import parse_path_file
from cmospath.process import (coupling_split, other_edge, output_scale,
                              stage_delay)

caps = st.floats(min_value=0.1, max_value=1e4, allow_nan=False,
                 allow_infinity=False)


PROC = """\
tau_ps = 10
vtn = 0.2
vtp = 0.2
r_ratio = 2
k_ratio = 1
cref_ff = 1
cap_per_width_ff_um = 2
weak_threshold = 2.5
hard_threshold = 1.2
slope_warn_ratio = 3
[gate inv]
inputs = 1
dw_hl = 1
dw_lh = 1
par_coeff = 0.2
"""

PATH = """\
input_cap_ff = 3
load_ff = 50
driver_slope_rise_ps = 0
driver_slope_fall_ps = 0
inv
inv
"""

# A value outside each numeric key's range, every other key valid.
PROC_OUT_OF_RANGE = {
    "tau_ps": "0", "vtn": "0.5", "vtp": "-0.1", "r_ratio": "0",
    "k_ratio": "-1", "cref_ff": "0", "cap_per_width_ff_um": "-2",
    "weak_threshold": "1.1", "hard_threshold": "0.9",
    "slope_warn_ratio": "0",
}
PATH_OUT_OF_RANGE = {
    "input_cap_ff": "0", "load_ff": "1e300", "driver_slope_rise_ps": "-1",
    "driver_slope_fall_ps": "-0.5",
}


def make_params(**overrides):
    base = dict(tau=12.0, vtn=0.2, vtp=0.2, r_ratio=2.0, k_ratio=1.0,
                cref=2.0, cap_per_width=1.8)
    base.update(overrides)
    return ProcessParams(**base)


# no parasitic, no coupling: the bare fanout model
IDEAL_INV = GateTemplate(name="inv", n_inputs=1, dw_hl=1.0, dw_lh=1.0,
                         par_coeff=0.0, cm_override=0.0)


def stage(tpl, cin, input_slope, edge, load, p):
    """(delay, output transition time) of a gate of kind tpl at size cin
    for output edge `edge`: process.stage_delay on its constants."""
    input_edge = other_edge(edge)
    gamma, fixed = coupling_split(tpl, input_edge, p)
    return stage_delay(output_scale(tpl, edge, p),
                       p.threshold(input_edge) / 2.0, gamma * cin + fixed,
                       cin, load, input_slope)


def transition(cin, edge, load, p):
    """The ideal inverter's output transition time."""
    return stage(IDEAL_INV, cin, 0.0, edge, load, p)[1]


class TestConfigParsing:
    def test_reference_config_round_trip(self, ref_params, ref_library):
        assert ref_params.tau == 12.0
        assert ref_params.vtn == 0.2 and ref_params.vtp == 0.2
        assert ref_params.r_ratio == 2.0 and ref_params.k_ratio == 1.0
        assert ref_params.cref == 2.0
        assert ref_params.cap_per_width == 1.8
        assert set(ref_library) == {"inv", "nand2", "nand3", "nor2", "nor3"}
        assert ref_library["inv"].dw_hl == 1.0
        assert ref_library["nand3"].n_inputs == 3

    def test_rejects_vtn_out_of_range(self):
        text = ("tau_ps = 10\nvtn = 0.7\nvtp = 0.2\nr_ratio = 2\n"
                "k_ratio = 1\ncref_ff = 1\ncap_per_width_ff_um = 2\n")
        with pytest.raises(ConfigError, match="vtn"):
            load_process_config(text)

    def test_rejects_missing_required_key(self):
        text = ("vtn = 0.2\nvtp = 0.2\nr_ratio = 2\nk_ratio = 1\n"
                "cref_ff = 1\ncap_per_width_ff_um = 2\n")
        with pytest.raises(ConfigError, match="tau_ps"):
            load_process_config(text)

    def test_reports_offending_line(self):
        text = ("tau_ps = 10\nvtn = abc\nvtp = 0.2\nr_ratio = 2\n"
                "k_ratio = 1\ncref_ff = 1\ncap_per_width_ff_um = 2\n")
        with pytest.raises(ConfigError) as err:
            load_process_config(text)
        assert err.value.line == 2

    @pytest.mark.parametrize("value", ["1.5", "0", "inf", "nan"])
    def test_gate_inputs_must_be_a_positive_integer(self, value):
        text = PROC.replace("inputs = 1", f"inputs = {value}")
        with pytest.raises(ConfigError, match="inputs must be a positive "
                                              "integer") as err:
            load_process_config(text)
        assert err.value.line == 12

    @pytest.mark.parametrize("reader,key,value", [
        *(("process", key, value) for key, value in PROC_OUT_OF_RANGE.items()),
        *(("path", key, value) for key, value in PATH_OUT_OF_RANGE.items()),
    ])
    def test_every_numeric_key_reports_its_key_and_line(self, reader, key,
                                                         value):
        base, read = (PROC, load_process_config) if reader == "process" \
            else (PATH, parse_path_file)
        lines = base.splitlines()
        line = next(i for i, text in enumerate(lines, start=1)
                    if text.startswith(f"{key} ="))
        lines[line - 1] = f"{key} = {value}"
        with pytest.raises(ConfigError) as err:
            read("\n".join(lines) + "\n")
        assert str(err.value).startswith(f"line {line}: {key}")
        assert err.value.line == line

    @pytest.mark.parametrize("reader,read", [
        ("process config", process.load_process_file),
        ("path file", path_module.parse_path_text_file)],
        ids=["process", "path"])
    def test_file_that_is_not_utf8_names_the_file(self, reader, read,
                                                  tmp_path):
        bad = tmp_path / "bad.input"
        bad.write_bytes(bytes.fromhex("fffe00626164"))
        with pytest.raises(ConfigError) as err:
            read(str(bad))
        assert str(err.value) == (f"cannot read {reader} {bad}: not UTF-8 "
                                  "(invalid start byte at offset 0)")

    @pytest.mark.parametrize("reader,read,base", [
        ("process", process.load_process_file, PROC),
        ("path", path_module.parse_path_text_file, PATH)],
        ids=["process", "path"])
    def test_file_errors_keep_their_line(self, reader, read, base,
                                         tmp_path):
        lines = base.splitlines()
        lines.insert(1, "bogus_key = 1")
        bad = tmp_path / f"bad.{reader}"
        bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ConfigError) as err:
            read(str(bad))
        assert str(err.value).startswith(f"{bad}: line 2: ")
        assert err.value.line == 2

    def test_numeric_key_cases_cover_every_key(self):
        assert set(PROC_OUT_OF_RANGE) == set(process._PARAM_KEYS)
        assert set(PATH_OUT_OF_RANGE) == \
            set(path_module._PATH_HEADER_KEYS) - {"input_edge"}

    def test_gate_block_fields(self, ref_library):
        nor3 = ref_library["nor3"]
        assert nor3.dw_lh == 2.4792
        assert nor3.par_coeff == 0.8
        assert nor3.cm_override is None


class TestTemplateValidation:
    def test_inverter_must_have_unit_weights(self):
        with pytest.raises(ValueError):
            GateTemplate(name="inv", n_inputs=1, dw_hl=2.0, dw_lh=1.0,
                         par_coeff=0.0)

    def test_weights_at_least_one(self):
        with pytest.raises(ValueError):
            GateTemplate(name="nand2", n_inputs=2, dw_hl=0.5, dw_lh=1.0,
                         par_coeff=0.0)

    def test_needs_an_input(self):
        with pytest.raises(ValueError, match="n_inputs"):
            GateTemplate(name="inv", n_inputs=0, dw_hl=1.0, dw_lh=1.0,
                         par_coeff=0.0)

    def test_only_inverting_gates(self):
        with pytest.raises(ValueError, match="inverting"):
            GateTemplate(name="buf", n_inputs=1, dw_hl=1.0, dw_lh=1.0,
                         par_coeff=0.0, inverting=False)

    def test_params_threshold_window(self):
        with pytest.raises(ValueError, match="vtp"):
            make_params(vtp=0.5)

    def test_params_domain_thresholds_ordered(self):
        with pytest.raises(ValueError):
            make_params(weak_threshold=1.1, hard_threshold=1.2)

    @pytest.mark.parametrize("field", ["tau", "r_ratio", "k_ratio", "cref",
                                       "cap_per_width", "weak_threshold",
                                       "slope_warn_ratio"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_params_reject_non_finite(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            make_params(**{field: value})

    @pytest.mark.parametrize("field", ["dw_hl", "dw_lh", "par_coeff",
                                       "cm_override"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_template_rejects_non_finite(self, field, value):
        fields = dict(name="nand2", n_inputs=2, dw_hl=1.5, dw_lh=1.2,
                      par_coeff=0.5)
        fields[field] = value
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            GateTemplate(**fields)

    def test_loader_reports_non_finite_with_its_line(self):
        text = ("tau_ps = 10\nvtn = 0.2\nvtp = 0.2\nr_ratio = inf\n"
                "k_ratio = 1\ncref_ff = 1\ncap_per_width_ff_um = 2\n"
                "[gate inv]\ninputs = 1\ndw_hl = 1\ndw_lh = 1\n"
                "par_coeff = 0.2\n")
        with pytest.raises(ConfigError, match="r_ratio") as err:
            load_process_config(text)
        assert err.value.line == 4
        text = text.replace("r_ratio = inf", "r_ratio = 2").replace(
            "par_coeff = 0.2", "par_coeff = nan")
        with pytest.raises(ConfigError, match="par_coeff") as err:
            load_process_config(text)
        assert err.value.line == 8


class TestSymmetryFactors:
    def test_inverter_reference_split(self):
        p = make_params()
        tpl = GateTemplate(name="inv", n_inputs=1, dw_hl=1.0, dw_lh=1.0,
                           par_coeff=0.0)
        assert symmetry_factors(tpl, p) == (2.0, 4.0)

    def test_balanced_edges_at_k_equal_r(self):
        p = make_params(k_ratio=2.0)
        tpl = GateTemplate(name="inv", n_inputs=1, dw_hl=1.0, dw_lh=1.0,
                           par_coeff=0.0)
        assert symmetry_factors(tpl, p) == (3.0, 3.0)

    def test_linear_in_logical_weight(self):
        p = make_params()
        d = 1.75
        tpl = GateTemplate(name="nand2", n_inputs=2, dw_hl=d, dw_lh=d,
                           par_coeff=0.0)
        s_hl, s_lh = symmetry_factors(tpl, p)
        assert s_hl == pytest.approx(2.0 * d, rel=1e-15)
        assert s_lh == pytest.approx(4.0 * d, rel=1e-15)


class TestTransitionTime:
    def test_unit_fanout_falling(self):
        p = make_params()
        assert transition(5.0, FALLING, 5.0, p) == pytest.approx(
            2.0 * p.tau, rel=1e-15)

    def test_linear_in_load(self):
        p = make_params()
        assert transition(5.0, FALLING, 20.0, p) == pytest.approx(
            8.0 * p.tau, rel=1e-15)

    def test_unit_fanout_rising(self):
        p = make_params()
        assert transition(5.0, RISING, 5.0, p) == pytest.approx(
            4.0 * p.tau, rel=1e-15)

    @given(cin=caps, load=caps, scale=st.floats(min_value=0.01,
                                                max_value=100.0))
    def test_ratio_scaling(self, cin, load, scale):
        p = make_params()
        base = transition(cin, FALLING, load, p)
        by_load = transition(cin, FALLING, load * scale, p)
        by_cin = transition(cin * scale, FALLING, load, p)
        assert by_load == pytest.approx(base * scale, rel=1e-12)
        assert by_cin == pytest.approx(base / scale, rel=1e-12)


class TestGateDelay:
    def test_no_coupling_no_slope_is_half_transition(self):
        p = make_params()
        delay, slope = stage(IDEAL_INV, 4.0, 0.0, FALLING, 16.0, p)
        assert delay == pytest.approx(
            transition(4.0, FALLING, 16.0, p) / 2.0, rel=1e-15)
        assert slope == transition(4.0, FALLING, 16.0, p)

    def test_coupling_equal_to_load_doubles_the_half(self):
        p = make_params()
        tpl = GateTemplate(name="inv", n_inputs=1, dw_hl=1.0, dw_lh=1.0,
                           par_coeff=0.0, cm_override=16.0)
        delay, _ = stage(tpl, 4.0, 0.0, FALLING, 16.0, p)
        assert delay == pytest.approx(
            transition(4.0, FALLING, 16.0, p), rel=1e-15)

    def test_slope_term_weighting(self):
        # rising input drives a falling output through vtn
        p = make_params(vtn=0.25)
        with_slope, _ = stage(IDEAL_INV, 4.0, 100.0, FALLING, 16.0, p)
        without, _ = stage(IDEAL_INV, 4.0, 0.0, FALLING, 16.0, p)
        assert with_slope - without == pytest.approx(12.5, rel=1e-12)

    @given(load=caps, bump=st.floats(min_value=0.01, max_value=100.0))
    def test_strictly_increasing_in_load(self, load, bump):
        p = make_params()
        tpl = GateTemplate(name="inv", n_inputs=1, dw_hl=1.0, dw_lh=1.0,
                           par_coeff=0.0)
        lo, _ = stage(tpl, 4.0, 10.0, FALLING, load, p)
        hi, _ = stage(tpl, 4.0, 10.0, FALLING, load + bump, p)
        assert hi > lo

    @given(slope=st.floats(min_value=0.0, max_value=1e3),
           bump=st.floats(min_value=0.1, max_value=1e3))
    def test_strictly_increasing_in_slope(self, slope, bump):
        p = make_params()
        lo, _ = stage(IDEAL_INV, 4.0, slope, FALLING, 16.0, p)
        hi, _ = stage(IDEAL_INV, 4.0, slope + bump, FALLING, 16.0, p)
        assert hi > lo

    @given(c_m=caps, load=caps)
    def test_miller_factor_window(self, c_m, load):
        # at zero input slope the delay is the Miller factor times half
        # the output transition time
        delay, t_out = stage_delay(12.0, 0.1, c_m, 4.0, load, 0.0)
        assert 1.0 < 2.0 * delay / t_out < 3.0

    def test_coupling_split_by_edge(self):
        p = make_params(k_ratio=3.0)
        tpl = GateTemplate(name="inv", n_inputs=1, dw_hl=1.0, dw_lh=1.0,
                           par_coeff=0.0)
        # rising input sees the P share k/(2(1+k)), falling the N share
        for edge, want in ((RISING, 3.0), (FALLING, 1.0)):
            gamma, fixed = coupling_split(tpl, edge, p)
            assert gamma * 8.0 + fixed == pytest.approx(want, rel=1e-15)


class TestWidthOf:
    def test_even_split(self):
        p = make_params(cap_per_width=2.0)
        assert width_of(2.0, p) == (0.5, 0.5)

    def test_k_split(self):
        p = make_params(k_ratio=2.0, cap_per_width=1.0)
        w_n, w_p = width_of(3.0, p)
        assert w_n == pytest.approx(1.0, rel=1e-15)
        assert w_p == pytest.approx(2.0, rel=1e-15)

    def test_rejects_nonpositive_cin(self):
        with pytest.raises(ValueError, match="cin"):
            width_of(0.0, make_params())

    @pytest.mark.parametrize("cin", [math.inf, -math.inf, math.nan])
    def test_rejects_nonfinite_cin(self, cin):
        with pytest.raises(ValueError, match="cin must be positive and "
                                             "finite"):
            width_of(cin, make_params())

    @given(cin=caps)
    def test_round_trip(self, cin):
        p = make_params(k_ratio=1.7)
        w_n, w_p = width_of(cin, p)
        assert (w_n + w_p) * p.cap_per_width == pytest.approx(cin, rel=1e-12)
        assert w_p == pytest.approx(p.k_ratio * w_n, rel=1e-12)
