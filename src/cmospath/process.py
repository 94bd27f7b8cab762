"""Process constants, gate library, and the one stage-delay expression.

Units are fixed package-wide: times in ps, capacitances in fF, transistor
widths in um.  A gate's electrical state is its input capacitance ``cin``;
everything else (transistor widths, coupling and parasitic capacitances,
transition times) derives from ``cin`` and the process constants.

The delay model is a two-term expression per gate: a contribution of the
input transition time weighted by half the switching transistor's threshold
fraction, plus half the output transition time amplified by a Miller factor
built from the input-to-output coupling capacitance.  Output transition
times follow a symmetry-factor form: ``tau * S * C_L / C_IN``, where S
captures the gate's pull-up/pull-down strength relative to the reference
inverter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError

RISING = "rising"
FALLING = "falling"

EDGES = (RISING, FALLING)


def other_edge(edge: str) -> str:
    """The opposite transition polarity."""
    return FALLING if edge == RISING else RISING


def require_finite(obj, names) -> None:
    """ValueError naming the first field holding inf or NaN (None passes)."""
    for name in names:
        value = getattr(obj, name)
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class ProcessParams:
    """Process constants shared by every delay expression.

    tau            base time constant of the reference inverter (ps)
    vtn, vtp       threshold voltages as fractions of the supply, each in
                   (0, 0.5)
    r_ratio        electron/hole mobility ratio R (> 0)
    k_ratio        P/N width ratio k of the reference inverter (> 0)
    cref           minimum realizable gate input capacitance (fF)
    cap_per_width  gate capacitance per unit transistor width (fF/um)
    weak_threshold, hard_threshold
                   constraint-domain boundaries on tc/t_min used by the
                   selection protocol
    slope_warn_ratio
                   optional validity hook: when set, path evaluation warns
                   if an input transition exceeds this ratio times the
                   gate's output transition time
    """

    tau: float
    vtn: float
    vtp: float
    r_ratio: float
    k_ratio: float
    cref: float
    cap_per_width: float
    weak_threshold: float = 2.5
    hard_threshold: float = 1.2
    slope_warn_ratio: float | None = None

    def __post_init__(self):
        require_finite(self, ("tau", "vtn", "vtp", "r_ratio", "k_ratio",
                               "cref", "cap_per_width", "weak_threshold",
                               "hard_threshold", "slope_warn_ratio"))
        for name in ("tau", "r_ratio", "k_ratio", "cref", "cap_per_width",
                     "slope_warn_ratio"):
            value = getattr(self, name)
            if value is not None and not value > 0:
                raise ValueError(f"{name} must be positive")
        for name in ("vtn", "vtp"):
            v = getattr(self, name)
            if not 0.0 < v < 0.5:
                raise ValueError(f"{name} out of (0,0.5)")
        if not self.weak_threshold > self.hard_threshold:
            raise ValueError("weak_threshold must exceed hard_threshold")
        if not self.hard_threshold >= 1.0:
            raise ValueError("hard_threshold must be at least 1")

    def threshold(self, input_edge: str) -> float:
        """Threshold fraction of the transistor switched by an input edge.

        A rising input switches the N device (vtn); a falling input
        switches the P device (vtp).
        """
        return self.vtn if input_edge == RISING else self.vtp


@dataclass(frozen=True)
class GateTemplate:
    """A gate kind from the library: topology constants, no size.

    dw_hl / dw_lh are delay-weight factors >= 1 expressing how much weaker
    the gate's pull-down / pull-up is than the reference inverter's at
    equal input capacitance.  par_coeff scales the self-loading parasitic:
    c_par = par_coeff * cin.  cm_override, when set, fixes the
    input-to-output coupling capacitance in fF instead of deriving it from
    the input-cap split.
    """

    name: str
    n_inputs: int
    dw_hl: float
    dw_lh: float
    par_coeff: float
    inverting: bool = True
    cm_override: float | None = None

    def __post_init__(self):
        if self.n_inputs < 1:
            raise ValueError("n_inputs must be at least 1")
        require_finite(self, ("dw_hl", "dw_lh", "par_coeff", "cm_override"))
        if self.dw_hl < 1.0 or self.dw_lh < 1.0:
            raise ValueError("delay weights must be at least 1")
        if self.n_inputs == 1 and (self.dw_hl != 1.0 or self.dw_lh != 1.0):
            raise ValueError("an inverter must have dw_hl = dw_lh = 1")
        if self.par_coeff < 0.0:
            raise ValueError("par_coeff must be non-negative")
        if self.cm_override is not None and self.cm_override < 0.0:
            raise ValueError("cm_override_ff must be non-negative")
        if not self.inverting:
            raise ValueError("only inverting gates are supported")


GateLibrary = dict[str, GateTemplate]


def symmetry_factors(template: GateTemplate, params: ProcessParams) -> tuple[float, float]:
    """(S_HL, S_LH) for a gate kind under the given process.

    S_HL = (1 + k) * dw_hl and S_LH = R * (1 + k) / k * dw_lh.  For the
    reference inverter with k = 1, R = 2 this gives (2, 4); with k = 2,
    R = 2 both edges balance at (3, 3).
    """
    k = params.k_ratio
    s_hl = (1.0 + k) * template.dw_hl
    s_lh = params.r_ratio * (1.0 + k) / k * template.dw_lh
    return s_hl, s_lh


def output_scale(template: GateTemplate, out_edge: str,
                 params: ProcessParams) -> float:
    """tau * S for the output edge: transition time per unit fanout."""
    s_hl, s_lh = symmetry_factors(template, params)
    return params.tau * (s_hl if out_edge == FALLING else s_lh)


def coupling_split(template: GateTemplate, input_edge: str,
                   params: ProcessParams) -> tuple[float, float]:
    """(gamma, fixed) with coupling capacitance c_m = gamma * cin + fixed.

    Half the input capacitance of the transistor still conducting at the
    start of the output transition: the P share for a rising input, the
    N share for a falling one.  A template override fixes c_m instead.
    """
    if template.cm_override is not None:
        return 0.0, template.cm_override
    k = params.k_ratio
    share = k if input_edge == RISING else 1.0
    return share / (2.0 * (1.0 + k)), 0.0


def stage_delay(tau_s: float, v_half: float, c_m: float, cin: float,
                load: float, input_slope: float) -> tuple[float, float]:
    """(delay, output transition time) of one gate from its constants.

    Half the input threshold times the input slope, plus half the output
    transition time tau * S * load / cin amplified by the Miller factor
    1 + 2 c_m / (c_m + load), in (1, 3).  A path's derivative pass
    (path.PathModel._window) writes the same expression in the same order
    of operations, so the two agree bit for bit.
    """
    t_out = tau_s * load / cin
    miller = 1.0 + 2.0 * c_m / (c_m + load)
    return v_half * input_slope + miller * t_out / 2.0, t_out


def width_of(cin: float, params: ProcessParams) -> tuple[float, float]:
    """(w_n, w_p) transistor widths in um realizing an input cap of cin fF.

    The total width is cin / cap_per_width, split so that w_p = k * w_n.
    A cin that is not positive and finite raises ValueError.
    """
    if not 0 < cin < math.inf:
        raise ValueError(f"cin must be positive and finite, got {cin!r}")
    total = cin / params.cap_per_width
    w_n = total / (1.0 + params.k_ratio)
    return w_n, params.k_ratio * w_n


_PARAM_KEYS = {
    "tau_ps": "tau",
    "vtn": "vtn",
    "vtp": "vtp",
    "r_ratio": "r_ratio",
    "k_ratio": "k_ratio",
    "cref_ff": "cref",
    "cap_per_width_ff_um": "cap_per_width",
    "weak_threshold": "weak_threshold",
    "hard_threshold": "hard_threshold",
    "slope_warn_ratio": "slope_warn_ratio",
}

_PARAM_REQUIRED = ("tau_ps", "vtn", "vtp", "r_ratio", "k_ratio", "cref_ff",
                   "cap_per_width_ff_um")

_GATE_KEYS = {
    "inputs": "n_inputs",
    "dw_hl": "dw_hl",
    "dw_lh": "dw_lh",
    "par_coeff": "par_coeff",
    "cm_override_ff": "cm_override",
}

_GATE_REQUIRED = ("inputs", "dw_hl", "dw_lh", "par_coeff")


def config_lines(text: str):
    """(line number, text, key, raw value) of each non-blank line, with
    ``#`` comments cut.

    A line is ``key = value`` exactly when the text before its first
    ``=`` is one word; on any other line the key is None.
    """
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.partition("#")[0].strip()
        if line:
            head, eq, raw_value = line.partition("=")
            words = head.split()
            key = words[0] if eq and len(words) == 1 else None
            yield line_no, line, key, raw_value.strip()


def add_entry(entries: dict, key: str, value: str, line_no: int,
              number: bool = True) -> None:
    """Record entries[key] = (value, line_no), the value parsed as a
    number unless `number` is false; a key set twice is an error."""
    if key in entries:
        raise ConfigError(f"duplicate key {key}", line_no)
    if number:
        try:
            value = float(value)
        except ValueError:
            raise ConfigError(f"non-numeric value for {key}: {value!r}",
                              line_no) from None
    entries[key] = (value, line_no)


def check_keys(entries: dict, keys, required, at=None) -> None:
    """A missing required key is an error at `at`, a (message prefix,
    line) pair; a key outside `keys` is an error at its own line."""
    prefix, line = at or ("", None)
    for key in required:
        if key not in entries:
            raise ConfigError(f"{prefix}missing required key: {key}", line)
    for key, (_, key_line) in entries.items():
        if key not in keys:
            raise ConfigError(f"{prefix}unknown key {key}", key_line)


def build_from_file(cls, entries: dict, keys: dict[str, str], at=None,
                    **fixed):
    """cls(**fixed) plus each entry's value passed as the field `keys` names.

    A ValueError from cls's checks becomes a ConfigError.  With `at` =
    (message prefix, line) it is reported there.  Otherwise it goes to
    the line of the file key whose field starts the message (every check
    names its field first), the key prepended when the two names differ.
    """
    try:
        return cls(**{keys[key]: value for key, (value, _) in entries.items()},
                   **fixed)
    except ValueError as exc:
        msg = str(exc)
        if at is not None:
            raise ConfigError(at[0] + msg, at[1]) from None
        field = msg.split()[0]
        for key, (_, line) in entries.items():
            if keys[key] == field:
                raise ConfigError(msg if key == field else f"{key}: {msg}",
                                  line) from None
        raise ConfigError(msg) from None


def read_config_file(path: str, what: str, parse):
    """parse(text of the file at path); errors name the file, keep .line."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"cannot read {what} {path}: not UTF-8 "
                          f"({exc.reason} at offset {exc.start})") from None
    try:
        return parse(text)
    except ConfigError as exc:
        err = ConfigError(f"{path}: {exc}")
        err.line = exc.line
        raise err from None


def load_process_config(text: str) -> tuple[ProcessParams, GateLibrary]:
    """Parse a line-oriented process config into params and a gate library.

    Format: ``key = value`` pairs, ``#`` comments, and ``[gate <name>]``
    blocks carrying the per-kind keys (inputs, dw_hl, dw_lh, par_coeff,
    optional cm_override_ff).  Every violation is reported with the key
    name and the line number it came from; a gate kind's own checks are
    reported at its ``[gate]`` line.
    """
    top: dict = {}
    gates: list[tuple[str, int, dict]] = []
    entries = top

    for line_no, line, key, raw_value in config_lines(text):
        if line.startswith("["):
            parts = line[1:-1].split()
            if not (line.endswith("]") and parts[:1] == ["gate"]):
                raise ConfigError(f"malformed section header: {line!r}", line_no)
            if len(parts) != 2:
                raise ConfigError(f"malformed gate header: {line!r}", line_no)
            name = parts[1]
            if any(name == g[0] for g in gates):
                raise ConfigError(f"duplicate gate block: {name}", line_no)
            entries = {}
            gates.append((name, line_no, entries))
            continue
        if key is None or not raw_value:
            raise ConfigError(f"expected 'key = value', got {line!r}", line_no)
        add_entry(entries, key, raw_value, line_no)

    check_keys(top, _PARAM_KEYS, _PARAM_REQUIRED)
    params = build_from_file(ProcessParams, top, _PARAM_KEYS)

    library: GateLibrary = {}
    for name, header_line, block in gates:
        at = (f"gate {name}: ", header_line)
        check_keys(block, _GATE_KEYS, _GATE_REQUIRED, at)
        n_inputs, inputs_line = block["inputs"]
        if not (n_inputs >= 1 and n_inputs.is_integer()):
            raise ConfigError(f"gate {name}: inputs must be a positive integer",
                              inputs_line)
        block["inputs"] = (int(n_inputs), inputs_line)
        library[name] = build_from_file(GateTemplate, block, _GATE_KEYS, at,
                                        name=name)

    if not library:
        raise ConfigError("config defines no gates")
    return params, library


def load_process_file(path: str) -> tuple[ProcessParams, GateLibrary]:
    """load_process_config on a file, prefixing errors with the file name."""
    return read_config_file(path, "process config", load_process_config)
