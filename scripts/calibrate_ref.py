"""Tune the reference process so the fanout-limit column lands on target.

The delay-weight and parasitic values in fixtures/ref.proc are calibration
artifacts: this script searches one knob per gate kind (dw_hl for nand,
dw_lh for nor, par_coeff for the inverter) until the fanout limits, with
an inverter as the buffer, match the target column, then prints the
resulting config.

fixtures/ref.proc was calibrated by an earlier probe that sized its
buffer on the frozen delay view, and it has been held fixed since: every
golden recording and the benchmark read it.  The probe now sizes the
buffer with min_delay_sizing.  Under it the fixture's limit column lies
within 0.8% of the targets, and this script prints slightly different
knobs from the fixture's.

Run from the repository root:  python3 scripts/calibrate_ref.py
"""

from __future__ import annotations

import sys

from cmospath import GateTemplate, ProcessParams, flimit

TARGETS = {"inv": 5.7, "nand2": 4.9, "nand3": 4.5, "nor2": 3.8, "nor3": 2.7}

PARAMS = ProcessParams(tau=12.0, vtn=0.2, vtp=0.2, r_ratio=2.0, k_ratio=1.0,
                       cref=2.0, cap_per_width=1.8)

BASE = {
    "inv": dict(n_inputs=1, dw_hl=1.0, dw_lh=1.0, par_coeff=0.35),
    "nand2": dict(n_inputs=2, dw_hl=1.7, dw_lh=1.0, par_coeff=0.55),
    "nand3": dict(n_inputs=3, dw_hl=2.3, dw_lh=1.0, par_coeff=0.8),
    "nor2": dict(n_inputs=2, dw_hl=1.0, dw_lh=1.8, par_coeff=0.55),
    "nor3": dict(n_inputs=3, dw_hl=1.0, dw_lh=2.6, par_coeff=0.8),
}

KNOB = {"inv": "par_coeff", "nand2": "dw_hl", "nand3": "dw_hl",
        "nor2": "dw_lh", "nor3": "dw_lh"}


def build_library(values):
    lib = {}
    for kind, fields in values.items():
        lib[kind] = GateTemplate(name=kind, **fields)
    return lib


def column(values):
    lib = build_library(values)
    return {kind: flimit(kind, PARAMS, lib) for kind in values}


def tune(values, kind, lo, hi, steps=28):
    """Bisect one knob so the kind's limit hits its target.

    The limit decreases as the gate weakens (larger dw) and increases with
    the buffer's usefulness, so each knob is monotone over the searched
    range.
    """
    knob = KNOB[kind]
    target = TARGETS[kind]

    def measure(x):
        trial = {k: dict(v) for k, v in values.items()}
        trial[kind][knob] = x
        return column(trial)[kind]

    f_lo, f_hi = measure(lo), measure(hi)
    increasing = f_hi > f_lo
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        f_mid = measure(mid)
        if (f_mid < target) == increasing:
            lo = mid
        else:
            hi = mid
    values[kind][knob] = round(0.5 * (lo + hi), 4)


def main() -> int:
    values = {k: dict(v) for k, v in BASE.items()}
    # The inverter knob moves every row (it is also the buffer), so tune
    # it first, then each gate against the frozen inverter.
    tune(values, "inv", 0.05, 1.2)
    for kind in ("nand2", "nand3"):
        tune(values, kind, 1.05, 4.0)
    for kind in ("nor2", "nor3"):
        tune(values, kind, 1.05, 4.0)

    col = column(values)
    print("# calibrated fanout-limit column (inverter buffer)")
    worst = 0.0
    for kind, tgt in TARGETS.items():
        err = col[kind] / tgt - 1.0
        worst = max(worst, abs(err))
        print(f"#   {kind:6s} f={col[kind]:7.4f} target={tgt} err={err:+.2%}")
    ordered = [col[k] for k in ("inv", "nand2", "nand3", "nor2", "nor3")]
    if ordered != sorted(ordered, reverse=True):
        print("ORDERING VIOLATION", file=sys.stderr)
        return 1
    if worst > 0.25:
        print("TARGET BAND VIOLATION", file=sys.stderr)
        return 1

    print()
    print("# reference process, 0.25 um class; times ps, caps fF, widths um")
    print(f"tau_ps = {PARAMS.tau:g}")
    print(f"vtn = {PARAMS.vtn:g}")
    print(f"vtp = {PARAMS.vtp:g}")
    print(f"r_ratio = {PARAMS.r_ratio:g}")
    print(f"k_ratio = {PARAMS.k_ratio:g}")
    print(f"cref_ff = {PARAMS.cref:g}")
    print(f"cap_per_width_ff_um = {PARAMS.cap_per_width:g}")
    print(f"weak_threshold = {PARAMS.weak_threshold:g}")
    print(f"hard_threshold = {PARAMS.hard_threshold:g}")
    for kind, fields in values.items():
        print()
        print(f"[gate {kind}]")
        print(f"inputs = {fields['n_inputs']}")
        print(f"dw_hl = {fields['dw_hl']:g}")
        print(f"dw_lh = {fields['dw_lh']:g}")
        print(f"par_coeff = {fields['par_coeff']:g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
