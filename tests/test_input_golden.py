"""Exact reader output on malformed and valid input files.

Pins what `load_process_config` and `parse_path_file` hand back for each
recorded text: the exception type, its message and its `.line` for a
rejected text, or the `repr` of the parsed objects for an accepted one.
The cases cover every `ConfigError` branch of both readers, a few
accepted texts, and the two file wrappers (`load_process_file`,
`parse_path_text_file`), whose messages carry the file name; that name
is recorded as `<file>`.

Regenerate the recording only when an output change is intended:

    PYTHONPATH=src python tests/test_input_golden.py
"""

import json
import pathlib

import pytest

from cmospath import (
    load_process_config,
    load_process_file,
    parse_path_file,
    parse_path_text_file,
)

ROOT = pathlib.Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden" / "inputs.json"

PROC = """\
# small library
tau_ps = 12
vtn = 0.2
vtp = 0.2
r_ratio = 2
k_ratio = 1
cref_ff = 2
cap_per_width_ff_um = 1.8

[gate inv]
inputs = 1
dw_hl = 1
dw_lh = 1
par_coeff = 0.25

[gate nand2]
inputs = 2
dw_hl = 1.8
dw_lh = 1
par_coeff = 0.5
"""

PATH = """\
# three gates
input_cap_ff = 4
load_ff = 200
input_edge = rising
driver_slope_rise_ps = 10
driver_slope_fall_ps = 12

inv
nand2
inv
"""


def _edit(text: str, old: str, new: str) -> str:
    assert old in text, old
    return text.replace(old, new, 1)


def _proc(old: str, new: str) -> str:
    return _edit(PROC, old, new)


def _path(old: str, new: str) -> str:
    return _edit(PATH, old, new)


# (case id, reader, text); reader is "process" or "path"
CASES = [
    # process config: accepted texts
    ("proc-valid", "process", PROC),
    ("proc-comments-and-options", "process",
     _proc("vtn = 0.2", "vtn=0.2   # N threshold\nweak_threshold = 3\n"
           "hard_threshold = 1.5\nslope_warn_ratio = 4")
     .replace("par_coeff = 0.5", "par_coeff = 0.5\ncm_override_ff = 1.5")),
    # process config: line syntax
    ("proc-empty", "process", ""),
    ("proc-no-equals", "process", _proc("tau_ps = 12", "tau_ps 12")),
    ("proc-empty-value", "process", _proc("tau_ps = 12", "tau_ps =")),
    ("proc-empty-key", "process", _proc("tau_ps = 12", "tau_ps = 12\n= 3")),
    ("proc-non-numeric", "process", _proc("vtn = 0.2", "vtn = abc")),
    ("proc-non-numeric-commented", "process",
     _proc("vtn = 0.2", "vtn = 0.2 0.3  # two values")),
    ("proc-duplicate-key", "process", _proc("vtp = 0.2", "vtp = 0.2\nvtn = 0.3")),
    ("proc-section-not-gate", "process", _proc("[gate inv]", "[cell inv]")),
    ("proc-section-unclosed", "process", _proc("[gate inv]", "[gate inv")),
    ("proc-gate-header-no-name", "process", _proc("[gate inv]", "[gate]")),
    ("proc-gate-header-two-names", "process", _proc("[gate inv]", "[gate inv x]")),
    ("proc-duplicate-gate", "process", _proc("[gate nand2]", "[gate inv]")),
    # process config: top-level keys
    ("proc-missing-key", "process", _proc("vtp = 0.2\n", "")),
    ("proc-misspelt-key", "process", _proc("tau_ps = 12", "tau = 12")),
    ("proc-unknown-key", "process", _proc("k_ratio = 1", "k_ratio = 1\nfoo = 1")),
    ("proc-tau-zero", "process", _proc("tau_ps = 12", "tau_ps = 0")),
    ("proc-vtn-range", "process", _proc("vtn = 0.2", "vtn = 0.7")),
    ("proc-vtp-zero", "process", _proc("vtp = 0.2", "vtp = 0")),
    ("proc-r-ratio-negative", "process", _proc("r_ratio = 2", "r_ratio = -2")),
    ("proc-r-ratio-inf", "process", _proc("r_ratio = 2", "r_ratio = inf")),
    ("proc-k-ratio-zero", "process", _proc("k_ratio = 1", "k_ratio = 0")),
    ("proc-cref-zero", "process", _proc("cref_ff = 2", "cref_ff = 0")),
    ("proc-cap-per-width-nan", "process",
     _proc("cap_per_width_ff_um = 1.8", "cap_per_width_ff_um = nan")),
    ("proc-cap-per-width-negative", "process",
     _proc("cap_per_width_ff_um = 1.8", "cap_per_width_ff_um = -1")),
    ("proc-weak-below-hard", "process",
     _proc("k_ratio = 1", "k_ratio = 1\nweak_threshold = 1.1")),
    ("proc-hard-above-default-weak", "process",
     _proc("k_ratio = 1", "k_ratio = 1\nhard_threshold = 3")),
    ("proc-hard-below-one", "process",
     _proc("k_ratio = 1", "k_ratio = 1\nhard_threshold = 0.9")),
    ("proc-slope-warn-zero", "process",
     _proc("k_ratio = 1", "k_ratio = 1\nslope_warn_ratio = 0")),
    ("proc-no-gates", "process", PROC.split("[gate")[0]),
    # process config: gate blocks
    ("gate-duplicate-key", "process", _proc("dw_lh = 1\npar_coeff = 0.25",
                                            "dw_lh = 1\ndw_lh = 1")),
    ("gate-missing-key", "process", _proc("par_coeff = 0.5\n", "")),
    ("gate-unknown-key", "process", _proc("par_coeff = 0.5", "par_coeff = 0.5\nfoo = 1")),
    ("gate-top-key-in-block", "process", PROC + "tau_ps = 12\n"),
    ("gate-inputs-fraction", "process", _proc("inputs = 2", "inputs = 1.5")),
    ("gate-inputs-zero", "process", _proc("inputs = 2", "inputs = 0")),
    ("gate-weight-below-one", "process", _proc("dw_hl = 1.8", "dw_hl = 0.5")),
    ("gate-inverter-weights", "process",
     _proc("dw_hl = 1\ndw_lh = 1\npar_coeff = 0.25",
           "dw_hl = 2\ndw_lh = 1\npar_coeff = 0.25")),
    ("gate-par-negative", "process", _proc("par_coeff = 0.5", "par_coeff = -1")),
    ("gate-par-nan", "process", _proc("par_coeff = 0.5", "par_coeff = nan")),
    ("gate-cm-negative", "process",
     _proc("par_coeff = 0.5", "par_coeff = 0.5\ncm_override_ff = -1")),
    # path file: accepted texts
    ("path-valid", "path", PATH),
    ("path-defaults-and-seeds", "path",
     "input_cap_ff=3\nload_ff = 50  # out\ninv\n  nand2  # two inputs\ninv\n"),
    # path file: header lines
    ("path-empty", "path", ""),
    ("path-missing-load", "path", _path("load_ff = 200\n", "")),
    ("path-no-gates", "path", PATH.split("\ninv")[0]),
    ("path-header-after-gates", "path", PATH + "load_ff = 300\n"),
    ("path-duplicate-key", "path", _path("load_ff = 200", "load_ff = 200\nload_ff = 300")),
    ("path-bad-edge", "path", _path("input_edge = rising", "input_edge = up")),
    ("path-non-numeric", "path", _path("load_ff = 200", "load_ff = abc")),
    ("path-empty-value", "path", _path("load_ff = 200", "load_ff =")),
    ("path-input-cap-zero", "path", _path("input_cap_ff = 4", "input_cap_ff = 0")),
    ("path-input-cap-inf", "path", _path("input_cap_ff = 4", "input_cap_ff = inf")),
    ("path-load-negative", "path", _path("load_ff = 200", "load_ff = -5")),
    ("path-load-huge", "path", _path("load_ff = 200", "load_ff = 1e300")),
    ("path-slope-fall-nan", "path",
     _path("driver_slope_fall_ps = 12", "driver_slope_fall_ps = nan")),
    ("path-slope-rise-negative", "path",
     _path("driver_slope_rise_ps = 10", "driver_slope_rise_ps = -1")),
    ("path-unknown-key", "path", _path("load_ff = 200", "load_ff = 200\nfoo = 3")),
    # path file: gate lines
    ("path-bare-cin-line", "path", _path("nand2\n", "nand2\ncin=3\n")),
    ("path-empty-key-line", "path", _path("nand2\n", "nand2\n= 3\n")),
    ("path-unexpected-token", "path", _path("nand2\n", "nand2 big\n")),
    ("path-cin-token", "path", _path("nand2\n", "nand2 cin=8\n")),
]

# (case id, reader, file contents or None for a missing file)
FILE_CASES = [
    ("file-proc-fixture", "process", (ROOT / "fixtures" / "ref.proc").read_text()),
    ("file-proc-missing", "process", None),
    ("file-proc-error", "process", _proc("vtn = 0.2", "vtn = 0.7")),
    ("file-path-fixture", "path", (ROOT / "fixtures" / "heavy.path").read_text()),
    ("file-path-missing", "path", None),
    ("file-path-error", "path", _path("load_ff = 200", "load_ff = abc")),
]

READERS = {"process": load_process_config, "path": parse_path_file}
FILE_READERS = {"process": load_process_file, "path": parse_path_text_file}


def _outcome(read, arg, shown=None) -> dict:
    try:
        parsed = read(arg)
    except Exception as exc:
        message = str(exc)
        if shown is not None:
            message = message.replace(shown, "<file>")
        return {"error": type(exc).__name__, "message": message,
                "line": getattr(exc, "line", None)}
    return {"parsed": repr(parsed)}


def read_case(reader: str, text: str) -> dict:
    return _outcome(READERS[reader], text)


def read_file_case(reader: str, text: str | None, directory) -> dict:
    path = pathlib.Path(directory) / f"input.{reader}"
    if text is not None:
        path.write_text(text, encoding="utf-8")
    return _outcome(FILE_READERS[reader], str(path), str(path))


def record(directory) -> list[dict]:
    out = [{"case": case, "reader": reader, **read_case(reader, text)}
           for case, reader, text in CASES]
    for case, reader, text in FILE_CASES:
        sub = pathlib.Path(directory) / case
        sub.mkdir()
        out.append({"case": case, "reader": reader,
                    **read_file_case(reader, text, sub)})
    return out


def _recorded() -> dict[str, dict]:
    return {r["case"]: r for r in json.loads(GOLDEN.read_text(encoding="utf-8"))}


def test_recording_covers_every_case():
    ids = [c[0] for c in CASES + FILE_CASES]
    assert len(set(ids)) == len(ids)
    assert list(_recorded()) == ids


@pytest.mark.parametrize("case,reader,text", CASES, ids=[c[0] for c in CASES])
def test_reader_output_is_exact(case, reader, text):
    expected = dict(_recorded()[case])
    assert expected.pop("case") == case and expected.pop("reader") == reader
    assert read_case(reader, text) == expected


@pytest.mark.parametrize("case,reader,text", FILE_CASES,
                         ids=[c[0] for c in FILE_CASES])
def test_file_reader_output_is_exact(case, reader, text, tmp_path):
    expected = dict(_recorded()[case])
    assert expected.pop("case") == case and expected.pop("reader") == reader
    assert read_file_case(reader, text, tmp_path) == expected


if __name__ == "__main__":
    import tempfile

    GOLDEN.parent.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as scratch:
        recording = record(scratch)
    GOLDEN.write_text(json.dumps(recording, indent=1) + "\n", encoding="utf-8")
