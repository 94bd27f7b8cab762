"""Command line interface: arguments, outputs, exit codes.

Runs the entry point in-process and checks the text contracts other
tools would scrape: deterministic output, CSV headers, error channel
separation, and the documented exit codes.
"""

import json
import pathlib
import re
import subprocess
import sys

import pytest

from conftest import CHAIN11, CHAIN13, HEAVY, PACKAGE_ENV, REF_PROC
from cmospath import bounds, cli, protocol
from cmospath.bounds import max_delay_sizing, min_delay_sizing
from cmospath.cli import EXIT_USAGE, main
from cmospath.path import parse_path_text_file
from cmospath.process import load_process_file


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def grab(pattern, text):
    m = re.search(pattern, text)
    assert m is not None, f"{pattern!r} not found in output"
    return float(m.group(1))


@pytest.fixture(scope="module")
def ref_tmin():
    params, library = load_process_file(REF_PROC)
    path = parse_path_text_file(CHAIN11)
    _, t_min, _ = min_delay_sizing(path, params, library)
    return t_min


@pytest.fixture(scope="module")
def heavy_tmin():
    params, library = load_process_file(REF_PROC)
    path = parse_path_text_file(HEAVY)
    _, t_min, _ = min_delay_sizing(path, params, library)
    return t_min


class TestBounds:
    def test_reports_the_window(self, capsys, ref_tmin):
        code, out, err = run_cli(["bounds", REF_PROC, CHAIN11], capsys)
        assert code == 0
        assert err == ""
        assert grab(r"t_min_ps = ([0-9.]+)", out) == pytest.approx(
            ref_tmin, rel=1e-5)
        assert grab(r"t_max_ps = ([0-9.]+)", out) > ref_tmin
        assert "sizing_min_ff = " in out
        assert "sizing_max_ff = " in out

    def test_missing_file_is_a_usage_error(self, capsys):
        code, out, err = run_cli(["bounds", REF_PROC, "nope.path"], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error:")

    def test_unknown_gate_kind_is_a_usage_error(self, capsys, tmp_path):
        path_file = tmp_path / "xor.path"
        path_file.write_text("input_cap_ff = 4\nload_ff = 80\ninv\nxor2\n")
        code, out, err = run_cli(["bounds", REF_PROC, str(path_file)],
                                 capsys)
        assert code == EXIT_USAGE == 1
        assert out == ""
        assert err.startswith("error:")
        assert "unknown gate kind: xor2" in err

    def test_process_error_wins_over_the_path_error(self, capsys):
        code, out, err = run_cli(["bounds", "nope.proc", "nope.path"],
                                 capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error: cannot read process config nope.proc")

    def test_no_subcommand_is_a_usage_error(self, capsys):
        code, out, err = run_cli([], capsys)
        assert code == 1

    def test_one_parser_serves_every_call(self, capsys, monkeypatch):
        # The parser is built once per process; a usage error still goes
        # to the stderr of the call, and parsing leaves no state behind.
        parser = cli.build_parser()
        assert cli.build_parser() is parser
        first = run_cli(["size", REF_PROC, CHAIN11], capsys)
        assert first[0] == EXIT_USAGE and "--tc" in first[2]
        assert run_cli(["bounds", REF_PROC, CHAIN11], capsys)[0] == 0
        monkeypatch.setattr(sys, "stderr", sys.stdout)
        code, out, err = run_cli(["size", REF_PROC, CHAIN11], capsys)
        assert code == EXIT_USAGE and out == first[2] and not err
        assert cli.build_parser() is parser


class TestSize:
    def test_feasible_constraint(self, capsys, ref_tmin):
        tc = 1.3 * ref_tmin
        code, out, err = run_cli(
            ["size", "--tc", str(tc), REF_PROC, CHAIN11], capsys)
        assert code == 0
        assert "index kind cin_ff w_n_um w_p_um delay_ps slope_ps" in out
        assert len([l for l in out.splitlines()
                    if re.match(r"^\d+ ", l)]) == 11
        assert grab(r"total_delay_ps = ([0-9.]+)", out) <= tc * 1.001
        assert grab(r"a_value = (-[0-9.e]+)", out) < 0

    def test_infeasible_exits_2_with_tmin_on_stderr(self, capsys, ref_tmin):
        tc = 0.5 * ref_tmin
        code, out, err = run_cli(
            ["size", "--tc", str(tc), REF_PROC, CHAIN11], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("infeasible:")
        assert f"{ref_tmin:.6g}" in err

    def test_constraint_above_t_max_prints_a_note(self, capsys):
        params, library = load_process_file(REF_PROC)
        _, t_max = max_delay_sizing(parse_path_text_file(CHAIN11), params,
                                    library)
        code, out, err = run_cli(
            ["size", "--tc", str(t_max), REF_PROC, CHAIN11], capsys)
        assert code == 0
        assert err == ""
        lines = out.splitlines()
        assert lines[1] == ("note: constraint at or above the "
                            "all-minimum-drive delay; every free gate held "
                            "at cref")
        assert grab(r"total_delay_ps = ([0-9.]+)", out) <= t_max

    def test_missing_tc_is_a_usage_error(self, capsys):
        code, out, err = run_cli(["size", REF_PROC, CHAIN11], capsys)
        assert code == 1
        assert "usage" in err


class TestEqualDelay:
    def test_prints_budget_and_table(self, capsys):
        params, library = load_process_file(REF_PROC)
        path = parse_path_text_file(CHAIN13)
        _, t_min, _ = min_delay_sizing(path, params, library)
        tc = 1.25 * t_min
        code, out, err = run_cli(
            ["equal-delay", "--tc", str(tc), REF_PROC, CHAIN13], capsys)
        assert code == 0
        assert grab(r"stage_budget_ps = ([0-9.]+)", out) == pytest.approx(
            tc / 13.0, rel=1e-5)
        assert grab(r"total_delay_ps = ([0-9.]+)", out) <= tc * 1.01

    def test_unbounded_tc_takes_the_all_minimum_corner(self, capsys):
        # as size and optimize do: every free gate at cref
        code, out, err = run_cli(
            ["equal-delay", "--tc", "inf", REF_PROC, CHAIN11], capsys)
        assert (code, err) == (0, "")
        assert "stage_budget_ps = inf\n" in out
        sizes = [line.split()[2] for line in out.splitlines()
                 if re.match(r"^\d+ ", line)]
        assert sizes == ["4"] + ["2"] * 10


    def test_underflow_at_tiny_scale_exits_3(self, capsys, tmp_path):
        # At cref = 1e-300 fF node capacitances square to 0: the first
        # evaluation raises the derivative pass's typed error, not a bare
        # ZeroDivisionError from the stage kernel.
        proc = tmp_path / "tiny.proc"
        proc.write_text(re.sub(r"(?m)^cref_ff = .*$", "cref_ff = 1e-300",
                               pathlib.Path(REF_PROC).read_text()))
        path = tmp_path / "tiny.path"
        path.write_text("input_cap_ff = 1e-299\nload_ff = 1e-297\ninv\n"
                        "inv\ninv\n")
        code, out, err = run_cli(
            ["equal-delay", "--tc", "500", str(proc), str(path)], capsys)
        assert (code, out) == (3, "")
        assert err == ("no convergence: derivative pass underflowed: a "
                       "node capacitance squares to 0\n")

class TestFlimit:
    def test_single_pair(self, capsys):
        code, out, err = run_cli(["flimit", "--gate", "nor3", REF_PROC],
                                 capsys)
        assert code == 0
        assert 2.0 < grab(r"f_limit = ([0-9.]+)", out) < 3.5

    def test_table_is_ordered_csv(self, capsys):
        code, out, err = run_cli(["flimit", "--table", REF_PROC], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "gate,f_limit"
        rows = [line.split(",") for line in lines[1:]]
        assert [r[0] for r in rows] == ["inv", "nand2", "nand3", "nor2",
                                        "nor3"]
        limits = [float(r[1]) for r in rows]
        assert limits == sorted(limits, reverse=True)
        assert limits == sorted(set(limits), reverse=True)

    def test_needs_a_target(self, capsys):
        code, out, err = run_cli(["flimit", REF_PROC], capsys)
        assert code == 1
        assert err.startswith("error:")


class TestSweep:
    def test_csv_frontier(self, capsys):
        code, out, err = run_cli(
            ["sweep", "--points", "8", REF_PROC, CHAIN11], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "a,delay_ps,area_um"
        rows = [tuple(float(v) for v in l.split(",")) for l in lines[1:]]
        assert len(rows) == 8
        assert rows[-1][0] == 0.0
        a_vals = [r[0] for r in rows]
        delays = [r[1] for r in rows]
        areas = [r[2] for r in rows]
        assert a_vals == sorted(a_vals)
        assert delays == sorted(delays, reverse=True)
        assert areas == sorted(areas)

    def test_rejects_a_single_point(self, capsys):
        code, out, err = run_cli(
            ["sweep", "--points", "1", REF_PROC, CHAIN11], capsys)
        assert code == 1

    def test_point_count_is_checked_after_both_files(self, capsys):
        code, out, err = run_cli(
            ["sweep", "--points", "1", REF_PROC, "nope.path"], capsys)
        assert code == 1
        assert err.startswith("error:")
        assert "nope.path" in err

    def test_two_points_end_at_zero(self, capsys):
        code, out, err = run_cli(
            ["sweep", "--points", "2", REF_PROC, CHAIN11], capsys)
        assert code == 0
        assert err == ""
        lines = out.splitlines()
        assert lines[0] == "a,delay_ps,area_um"
        rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
        assert len(rows) == 2
        assert rows[0][0] < 0.0 == rows[1][0]

    def test_rejects_a_positive_a_min(self, capsys):
        code, out, err = run_cli(
            ["sweep", "--points", "3", "--a-min", "1", REF_PROC, CHAIN11],
            capsys)
        assert code == 1
        assert out == ""
        assert err == "error: --a-min must be negative\n"

    def test_rejects_an_infinite_a_min(self, capsys):
        # -inf would make the first two ladder rows both -inf, so the rows
        # would not be ascending in a.
        for value in ("-inf", "inf"):
            code, out, err = run_cli(
                ["sweep", "--points", "3", f"--a-min={value}", REF_PROC,
                 CHAIN11], capsys)
            assert (code, out) == (1, "")
            assert err == "error: --a-min must be finite\n"

    def test_a_min_is_checked_before_any_solve(self, capsys, tmp_path):
        # At tau = 1e300 this path's bounds solve starts at an infinite
        # delay and fails; a given --a-min needs no bounds, so its check
        # speaks first.
        proc = tmp_path / "slow.proc"
        proc.write_text(re.sub(r"(?m)^tau_ps = .*$", "tau_ps = 1e300",
                               pathlib.Path(REF_PROC).read_text()))
        path = tmp_path / "big.path"
        path.write_text("input_cap_ff = 1e6\nload_ff = 1e9\ninv\nnand2\n"
                        "inv\n")
        code, out, err = run_cli(
            ["sweep", "--points", "3", "--a-min", "1", str(proc), str(path)],
            capsys)
        assert (code, out) == (1, "")
        assert err == "error: --a-min must be negative\n"
        code, out, err = run_cli(
            ["sweep", "--points", "3", str(proc), str(path)], capsys)
        assert code == 3
        assert err.startswith("no convergence:")

    def test_failed_rows_go_to_stderr(self, capsys, monkeypatch):
        # The bounds solve runs in full; the sweep's own solves get one
        # step each.  The deep rows, every gate at cref, settle in it;
        # the rest fail, each reported on its own stderr line.
        real_sweep = cli.sweep

        def starved(*args):
            monkeypatch.setattr(bounds, "MAX_ITERATIONS", 1)
            return real_sweep(*args)

        monkeypatch.setattr(cli, "sweep", starved)
        code, out, err = run_cli(
            ["sweep", "--points", "6", REF_PROC, CHAIN11], capsys)
        assert code == 0
        rows = out.splitlines()[1:]
        failed = err.splitlines()
        assert failed and rows
        assert len(rows) + len(failed) == 6
        for line in failed:
            assert re.match(r"^sweep: a=\S+ failed: sizing fixed point did "
                            r"not converge \(iterations=1, ", line), line
        assert float(failed[-1].split()[1][2:]) == 0.0

    def test_deterministic_output(self, capsys):
        _, first, _ = run_cli(["sweep", "--points", "5", REF_PROC, CHAIN11],
                              capsys)
        _, second, _ = run_cli(["sweep", "--points", "5", REF_PROC, CHAIN11],
                               capsys)
        assert first == second


class TestOptimize:
    def test_hard_constraint_report(self, capsys, heavy_tmin):
        tc = 1.1 * heavy_tmin
        code, out, err = run_cli(
            ["optimize", "--tc", str(tc), REF_PROC, HEAVY], capsys)
        assert code == 0
        assert "domain = hard" in out
        assert grab(r"achieved_delay_ps = ([0-9.]+)", out) <= tc * 1.001
        assert "final_gates = inv nor3 inv inv inv" in out
        assert "step=insert_buffer" in out
        assert "step=distribute" in out

    def test_json_trace_round_trips(self, capsys, tmp_path, heavy_tmin):
        tc = 1.1 * heavy_tmin
        trace_file = tmp_path / "trace.json"
        code, out, err = run_cli(
            ["optimize", "--tc", str(tc), "--json-trace", str(trace_file),
             REF_PROC, HEAVY], capsys)
        assert code == 0
        payload = json.loads(trace_file.read_text())
        assert [s["kind"] for s in payload] == \
            re.findall(r"^step=(\S+)", out, flags=re.M)
        assert payload[0]["kind"] == "bounds"

    def test_unreachable_constraint_exits_2(self, capsys, tmp_path):
        path_file = tmp_path / "invchain.path"
        path_file.write_text(
            "input_cap_ff = 4\nload_ff = 80\ninv\ninv\ninv\ninv\n")
        code, out, err = run_cli(
            ["optimize", "--tc", "100", REF_PROC, str(path_file)], capsys)
        assert code == 2
        assert err.startswith("infeasible:")
        assert re.search(r"[0-9.]+ ps", err)

    def test_huge_load_is_a_usage_error(self, capsys, tmp_path):
        path_file = tmp_path / "huge.path"
        path_file.write_text(
            "input_cap_ff = 4\nload_ff = 1e300\ninv\nnand2\ninv\n")
        code, out, err = run_cli(
            ["optimize", "--tc", "1000", REF_PROC, str(path_file)], capsys)
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error:")
        assert "line 2: load_ff" in err

    def test_restruct_can_be_disabled(self, capsys, ref_tmin):
        tc = 0.95 * ref_tmin
        code, out, err = run_cli(
            ["optimize", "--tc", str(tc), "--no-restruct", "--no-buffer",
             REF_PROC, CHAIN11], capsys)
        assert code == 2

    def test_failed_internal_check_exits_3(self, capsys, monkeypatch,
                                           heavy_tmin):
        monkeypatch.setattr(protocol, "local_equivalence_check",
                            lambda before, after: False)
        code, out, err = run_cli(
            ["optimize", "--tc", str(0.85 * heavy_tmin), REF_PROC, HEAVY],
            capsys)
        assert code == 3
        assert out == ""
        assert err.startswith("internal check failed:")

    def test_no_convergence_exits_3(self, capsys, monkeypatch, heavy_tmin):
        monkeypatch.setattr(bounds, "MAX_ITERATIONS", 1)
        code, out, err = run_cli(
            ["optimize", "--tc", str(1.5 * heavy_tmin), REF_PROC, HEAVY],
            capsys)
        assert code == 3
        assert out == ""
        assert err.startswith("no convergence: sizing fixed point did not "
                              "converge")

    def test_deterministic_output(self, capsys, heavy_tmin):
        argv = ["optimize", "--tc", str(1.5 * heavy_tmin), REF_PROC, HEAVY]
        _, first, _ = run_cli(argv, capsys)
        _, second, _ = run_cli(argv, capsys)
        assert first == second


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "cmospath", "bounds", REF_PROC, CHAIN11],
            env=PACKAGE_ENV, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0
        assert "t_min_ps = " in proc.stdout

    @pytest.mark.parametrize("argv", [
        ["sweep", "--points", "400", REF_PROC, HEAVY],
        ["bounds", REF_PROC, CHAIN11],
    ], ids=["long-output", "short-output"])
    def test_closed_stdout_exits_quietly(self, argv):
        # `cmospath ... | head -1`: the reader is gone before the child
        # writes, whether the output overflows the pipe buffer or not.
        proc = subprocess.Popen([sys.executable, "-m", "cmospath", *argv],
                                env=PACKAGE_ENV, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE)
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 0
        assert err == b""
