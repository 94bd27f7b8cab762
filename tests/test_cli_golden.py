"""Byte-for-byte CLI output on the fixtures.

`optimize` runs over a constraint ladder that reaches all four domains on
each fixture (infeasible ones that exit 2 included), plus the route
switches; `flimit --table` prints every library kind's limit and
`flimit --gate` one kind's under a non-default buffer kind.
Exit code, stdout and stderr must match the recorded run exactly.

Regenerate the recording only when an output change is intended:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
import pathlib

import pytest

from cmospath.cli import main

ROOT = pathlib.Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden" / "cli.json"

PROC = "fixtures/ref.proc"

# tc ladders in ps: t_min is ~587 (chain11), ~758 (chain13) and ~657
# (heavy); the domain boundaries sit at tc/t_min = 1, 1.2 and 2.5.
LADDERS = {
    "chain11": (176, 352, 499, 558, 616, 675, 939, 1291, 1761),
    "chain13": (227, 455, 644, 720, 796, 872, 1213, 1668, 2274),
    "heavy": (197, 394, 558, 624, 690, 756, 1051, 1445, 1971),
}

# (fixture, tc, extra flags): each route switch on the infeasible and the
# buffering domains.
VARIANTS = (
    ("chain11", 499, ("--no-restruct",)),
    ("chain11", 558, ("--no-buffer",)),
    ("chain11", 558, ("--no-restruct", "--no-buffer")),
    ("chain11", 675, ("--buffer-mode", "single")),
    ("chain13", 720, ("--no-restruct",)),
    ("chain13", 796, ("--no-buffer",)),
    ("heavy", 558, ("--no-restruct",)),
    ("heavy", 624, ("--buffer-mode", "single")),
    ("heavy", 624, ("--no-buffer",)),
    ("heavy", 1051, ("--no-buffer",)),
    ("heavy", 1051, ("--buffer-mode", "single")),
)


def cases() -> list[list[str]]:
    out = [["flimit", "--table", PROC],
           ["flimit", "--gate", "nor3", "--buffer-kind", "nand2", PROC]]
    for name, ladder in LADDERS.items():
        for tc in ladder:
            out.append(["optimize", "--tc", str(tc), PROC,
                        f"fixtures/{name}.path"])
    for name, tc, flags in VARIANTS:
        out.append(["optimize", "--tc", str(tc), *flags, PROC,
                    f"fixtures/{name}.path"])
    return out


def run(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"argv": argv, "code": code, "stdout": out.getvalue(),
            "stderr": err.getvalue()}


def _recorded() -> list[dict]:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_recording_covers_every_case():
    assert [r["argv"] for r in _recorded()] == cases()


def test_recording_reaches_every_domain_and_exit_code():
    recorded = _recorded()
    domains = {line.split()[2] for r in recorded
               for line in r["stdout"].splitlines()
               if line.startswith("domain = ")}
    assert domains == {"infeasible", "hard", "medium", "weak"}
    assert {r["code"] for r in recorded} == {0, 2}


def test_recorded_delays_meet_the_constraint():
    checked = 0
    for r in _recorded():
        if r["argv"][0] != "optimize" or r["code"] != 0:
            continue
        tc = float(r["argv"][r["argv"].index("--tc") + 1])
        fields = dict(line.split(" = ", 1) for line in r["stdout"].splitlines()
                      if " = " in line)
        assert float(fields["achieved_delay_ps"]) <= tc, r["argv"]
        checked += 1
    assert checked > 0


@pytest.mark.parametrize("index", range(len(cases())),
                         ids=[" ".join(a for a in argv if a != PROC)
                              for argv in cases()])
def test_output_is_byte_identical(index, monkeypatch):
    expected = _recorded()[index]
    monkeypatch.chdir(ROOT)
    assert run(expected["argv"]) == expected


if __name__ == "__main__":
    import os

    os.chdir(ROOT)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps([run(argv) for argv in cases()], indent=1)
                      + "\n", encoding="utf-8")
