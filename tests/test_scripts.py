"""The scripts under scripts/, each run as a user would: a fresh
interpreter with the package on PYTHONPATH, small arguments."""

import re
import subprocess
import sys

from conftest import CHAIN11, PACKAGE_ENV, REF_PROC, ROOT

SCRIPTS = ROOT / "scripts"


def run_script(name, *args):
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args], cwd=ROOT,
        env=PACKAGE_ENV,
        capture_output=True, text=True, timeout=120)


def test_grid_oracle_agrees_with_the_solver():
    proc = run_script("grid_oracle.py", REF_PROC, "--cases", "5",
                      "--gates", "4")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    m = re.search(r"^# worst gap (\S+) over 5 cases \(limit (\S+)\)$",
                  proc.stdout, flags=re.M)
    assert m is not None, proc.stdout
    assert float(m.group(1)) < float(m.group(2))
    assert "DISAGREES" not in proc.stdout


# ref.proc was calibrated by an earlier probe and is held fixed; under the
# probe that sizes its buffer with min_delay_sizing the same targets call
# for these knobs (the script's docstring says why they differ).
CALIBRATION_OUTPUT = """\
# calibrated fanout-limit column (inverter buffer)
#   inv    f= 5.7007 target=5.7 err=+0.01%
#   nand2  f= 4.9000 target=4.9 err=+0.00%
#   nand3  f= 4.5005 target=4.5 err=+0.01%
#   nor2   f= 3.7996 target=3.8 err=-0.01%
#   nor3   f= 2.6998 target=2.7 err=-0.01%

# reference process, 0.25 um class; times ps, caps fF, widths um
tau_ps = 12
vtn = 0.2
vtp = 0.2
r_ratio = 2
k_ratio = 1
cref_ff = 2
cap_per_width_ff_um = 1.8
weak_threshold = 2.5
hard_threshold = 1.2

[gate inv]
inputs = 1
dw_hl = 1
dw_lh = 1
par_coeff = 0.2876

[gate nand2]
inputs = 2
dw_hl = 1.7984
dw_lh = 1
par_coeff = 0.55

[gate nand3]
inputs = 3
dw_hl = 2.3085
dw_lh = 1
par_coeff = 0.8

[gate nor2]
inputs = 2
dw_hl = 1
dw_lh = 1.6481
par_coeff = 0.55

[gate nor3]
inputs = 3
dw_hl = 1
dw_lh = 2.4702
par_coeff = 0.8
"""


def test_calibration_reproduces_the_reference_process():
    proc = run_script("calibrate_ref.py")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout == CALIBRATION_OUTPUT


def test_frontier_sweep_runs_from_floor_to_minimum(tmp_path):
    csv = tmp_path / "frontier.csv"
    proc = run_script("sweep_frontier.py", REF_PROC, CHAIN11, "--points",
                      "6", "--equal-delay-at", "1.5", "--csv", str(csv))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = csv.read_text().splitlines()
    assert lines[0] == "a,delay_ps,area_um,area_per_ps"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 6
    delays = [float(r[1]) for r in rows]
    areas = [float(r[2]) for r in rows]
    assert delays == sorted(delays, reverse=True)
    assert areas == sorted(areas)
    assert float(rows[-1][0]) == 0.0
    t_min = float(re.search(r"t_min=([0-9.]+) ps", proc.stdout).group(1))
    assert delays[-1] == t_min
    assert "# equal-delay baseline at tc=" in proc.stdout


def test_diff_optimize_finds_no_difference_against_its_own_tree():
    proc = run_script("diff_optimize.py", str(ROOT / "src"), "--seed", "3",
                      "--count", "12")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert re.search(r"^# 12 cases: 0 structural differences, 0 infeasible "
                     r"flips, 0 area changes$", proc.stdout, flags=re.M), \
        proc.stdout
    assert "largest relative drift 0.000e+00" in proc.stdout
    # ... takes the same min-delay Newton steps and derivative passes on
    # each case's path ...
    for what in ("steps", "derivative passes"):
        totals = re.search(rf"^# min-delay {what}: 12 cases, 0 differ; "
                           r"total (\d+) -> (\d+)$", proc.stdout, flags=re.M)
        assert totals and totals[1] == totals[2] != "0", proc.stdout
    for mode in ("pair", "single"):
        assert re.search(rf"^# greedy t_min, {mode} mode: 0 lower, 0 higher, "
                         r"\d+ equal$", proc.stdout, flags=re.M), proc.stdout
    # ... and the InfeasibleError raises report the same t_min.
    assert re.search(r"^# infeasible t_min: 0 lower, 0 higher, \d+ equal$",
                     proc.stdout, flags=re.M), proc.stdout
    # Each of the 12 cases sweeps the 24 points of the CLI's ladder, with
    # the same steps and passes in both trees.
    assert re.search(r"^# sweep on the 24-point ladder: 288 rows, 0 differ$",
                     proc.stdout, flags=re.M), proc.stdout
    work = re.search(r"^# sweep work: steps (\d+) -> (\d+), derivative "
                     r"passes (\d+) -> (\d+)$", proc.stdout, flags=re.M)
    assert work and work[1] == work[2] != "0", proc.stdout
    assert work[3] == work[4] != "0", proc.stdout
    # ... and runs distribute_constraint at three ratios under a random
    # coupled library of its own.
    assert re.search(r"^# coupled distribute: 36 calls, 0 differ, 0 beyond "
                     r"drift; largest drift 0\.000e\+00 ", proc.stdout,
                     flags=re.M), proc.stdout
    # ... and optimize at its own ratio under that library.
    assert re.search(r"^# coupled optimize: 12 calls, 0 lower, 0 higher, "
                     r"\d+ equal area; 0 infeasible flips$", proc.stdout,
                     flags=re.M), proc.stdout
    # ... and equal_delay_distribution at three ratios of its t_min.
    assert re.search(r"^# equal-delay: 36 calls, 0 raise/solve flips; "
                     r"largest size drift 0\.000e\+00 ", proc.stdout,
                     flags=re.M), proc.stdout
    # ... and the fanout limits of every ref.proc kind, buffered by inv
    # and by nand2, agree by repr.
    assert re.search(r"^# fanout limits: 10 limits, 0 differ$", proc.stdout,
                     flags=re.M), proc.stdout
    assert not re.search(r"^case ", proc.stdout, flags=re.M)
