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


def test_calibration_reproduces_the_reference_process():
    proc = run_script("calibrate_ref.py")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    config = proc.stdout[proc.stdout.index("# reference process"):]
    with open(REF_PROC, encoding="utf-8") as fh:
        assert config.strip() == fh.read().strip()


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
    assert not re.search(r"^case ", proc.stdout, flags=re.M)
