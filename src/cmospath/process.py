"""Process constants, gate library, and single-gate delay equations.

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
        if not self.tau > 0:
            raise ValueError("tau must be positive")
        for name in ("vtn", "vtp"):
            v = getattr(self, name)
            if not 0.0 < v < 0.5:
                raise ValueError(f"{name} out of (0,0.5)")
        if not self.r_ratio > 0:
            raise ValueError("r_ratio must be positive")
        if not self.k_ratio > 0:
            raise ValueError("k_ratio must be positive")
        if not self.cref > 0:
            raise ValueError("cref must be positive")
        if not self.cap_per_width > 0:
            raise ValueError("cap_per_width must be positive")
        if not self.weak_threshold > self.hard_threshold:
            raise ValueError("weak_threshold must exceed hard_threshold")
        if not self.hard_threshold >= 1.0:
            raise ValueError("hard_threshold must be at least 1")
        if self.slope_warn_ratio is not None and not self.slope_warn_ratio > 0:
            raise ValueError("slope_warn_ratio must be positive")

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


@dataclass(frozen=True)
class GateInstance:
    """A sized gate: a template plus an input capacitance in fF."""

    template: GateTemplate
    cin: float

    def __post_init__(self):
        if not self.cin > 0:
            raise ValueError("cin must be positive")

    @property
    def c_par(self) -> float:
        """Output parasitic capacitance, proportional to the input cap."""
        return self.template.par_coeff * self.cin

    def coupling_cap(self, input_edge: str, params: ProcessParams) -> float:
        """Input-to-output coupling capacitance seen during a transition."""
        gamma, fixed = coupling_split(self.template, input_edge, params)
        return gamma * self.cin + fixed


def transition_time(gate: GateInstance, edge: str, load: float,
                    params: ProcessParams) -> float:
    """Output transition time for the given output edge, in ps.

    Linear in the load and inversely proportional to the gate's own input
    capacitance.
    """
    if not load > 0:
        raise ValueError("load must be positive")
    return output_scale(gate.template, edge, params) * load / gate.cin


def miller_factor(c_m: float, load: float) -> float:
    """Amplification of the output transition by input-output coupling.

    Always in (1, 3); equals 1 when the coupling capacitance is zero.
    """
    return 1.0 + 2.0 * c_m / (c_m + load)


def stage_delay(tau_s: float, v_half: float, c_m: float, cin: float,
                load: float, input_slope: float) -> tuple[float, float]:
    """(delay, output transition time) of one gate from its constants.

    The one place the stage delay is written: half the input threshold
    times the input slope, plus half the output transition time tau * S *
    load / cin amplified by the Miller factor (inlined here, so a path
    evaluation costs one call per gate below the model).
    """
    t_out = tau_s * load / cin
    miller = 1.0 + 2.0 * c_m / (c_m + load)
    return v_half * input_slope + miller * t_out / 2.0, t_out


def gate_delay(gate: GateInstance, input_slope: float, edge: str, load: float,
               params: ProcessParams) -> tuple[float, float]:
    """(propagation delay, output transition time) for one switching event.

    ``edge`` is the OUTPUT transition polarity; the input edge is its
    opposite.  ``input_slope`` is the transition time of the driving
    signal and ``load`` the total capacitance at the output node, both of
    which must be in the gate's own units (ps, fF).
    """
    if input_slope < 0:
        raise ValueError("input_slope must be non-negative")
    if not load > 0:
        raise ValueError("load must be positive")
    input_edge = other_edge(edge)
    return stage_delay(output_scale(gate.template, edge, params),
                       params.threshold(input_edge) / 2.0,
                       gate.coupling_cap(input_edge, params), gate.cin, load,
                       input_slope)


def width_of(cin: float, params: ProcessParams) -> tuple[float, float]:
    """(w_n, w_p) transistor widths in um realizing an input cap of cin fF.

    The total width is cin / cap_per_width, split so that w_p = k * w_n.
    """
    if not cin > 0:
        raise ValueError("cin must be positive")
    total = cin / params.cap_per_width
    w_n = total / (1.0 + params.k_ratio)
    return w_n, params.k_ratio * w_n


_REQUIRED_KEYS = {
    "tau_ps": "tau",
    "vtn": "vtn",
    "vtp": "vtp",
    "r_ratio": "r_ratio",
    "k_ratio": "k_ratio",
    "cref_ff": "cref",
    "cap_per_width_ff_um": "cap_per_width",
}

_OPTIONAL_KEYS = {
    "weak_threshold": "weak_threshold",
    "hard_threshold": "hard_threshold",
    "slope_warn_ratio": "slope_warn_ratio",
}

_GATE_REQUIRED = ("inputs", "dw_hl", "dw_lh", "par_coeff")
_GATE_OPTIONAL = ("cm_override_ff",)


def _strip(line: str) -> str:
    hash_pos = line.find("#")
    if hash_pos >= 0:
        line = line[:hash_pos]
    return line.strip()


def _parse_float(key: str, raw: str, line_no: int) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"non-numeric value for {key}: {raw!r}", line_no) from None


def load_process_config(text: str) -> tuple[ProcessParams, GateLibrary]:
    """Parse a line-oriented process config into params and a gate library.

    Format: ``key = value`` pairs, ``#`` comments, and ``[gate <name>]``
    blocks carrying the per-kind keys (inputs, dw_hl, dw_lh, par_coeff,
    optional cm_override_ff).  Every violation is reported with the key
    name and the line number it came from.
    """
    top: dict[str, tuple[float, int]] = {}
    gates: list[tuple[str, int, dict[str, tuple[float, int]]]] = []
    current: dict[str, tuple[float, int]] | None = None

    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = _strip(raw_line)
        if not line:
            continue
        if line.startswith("["):
            if not (line.endswith("]") and line[1:-1].split()[:1] == ["gate"]):
                raise ConfigError(f"malformed section header: {line!r}", line_no)
            parts = line[1:-1].split()
            if len(parts) != 2:
                raise ConfigError(f"malformed gate header: {line!r}", line_no)
            name = parts[1]
            if any(name == g[0] for g in gates):
                raise ConfigError(f"duplicate gate block: {name}", line_no)
            current = {}
            gates.append((name, line_no, current))
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {line!r}", line_no)
        key, _, raw_value = line.partition("=")
        key = key.strip()
        raw_value = raw_value.strip()
        if not key or not raw_value:
            raise ConfigError(f"expected 'key = value', got {line!r}", line_no)
        value = _parse_float(key, raw_value, line_no)
        target = current if current is not None else top
        if key in target:
            raise ConfigError(f"duplicate key {key}", line_no)
        target[key] = (value, line_no)

    for key in _REQUIRED_KEYS:
        if key not in top:
            raise ConfigError(f"missing required key: {key}")
    for key in top:
        if key not in _REQUIRED_KEYS and key not in _OPTIONAL_KEYS:
            raise ConfigError(f"unknown key {key}", top[key][1])

    kwargs = {field: top[key][0] for key, field in _REQUIRED_KEYS.items()}
    for key, field in _OPTIONAL_KEYS.items():
        if key in top:
            kwargs[field] = top[key][0]
    try:
        params = ProcessParams(**kwargs)
    except ValueError as exc:
        # Re-attach the line number of the key the check names.
        msg = str(exc)
        culprit = msg.split()[0]
        reverse = {field: key for key, field in
                   list(_REQUIRED_KEYS.items()) + list(_OPTIONAL_KEYS.items())}
        key = reverse.get(culprit, culprit)
        line = top[key][1] if key in top else None
        raise ConfigError(msg if key == culprit else f"{key}: {msg}", line) from None

    library: GateLibrary = {}
    for name, header_line, block in gates:
        for key in _GATE_REQUIRED:
            if key not in block:
                raise ConfigError(f"gate {name}: missing required key: {key}",
                                  header_line)
        for key in block:
            if key not in _GATE_REQUIRED and key not in _GATE_OPTIONAL:
                raise ConfigError(f"gate {name}: unknown key {key}", block[key][1])
        n_inputs = block["inputs"][0]
        if n_inputs != int(n_inputs) or n_inputs < 1:
            raise ConfigError(f"gate {name}: inputs must be a positive integer",
                              block["inputs"][1])
        try:
            template = GateTemplate(
                name=name,
                n_inputs=int(n_inputs),
                dw_hl=block["dw_hl"][0],
                dw_lh=block["dw_lh"][0],
                par_coeff=block["par_coeff"][0],
                cm_override=block["cm_override_ff"][0] if "cm_override_ff" in block else None,
            )
        except ValueError as exc:
            raise ConfigError(f"gate {name}: {exc}", header_line) from None
        library[name] = template

    if not library:
        raise ConfigError("config defines no gates")
    return params, library


def load_process_file(path: str) -> tuple[ProcessParams, GateLibrary]:
    """load_process_config on a file, prefixing errors with the file name."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read process config {path}: {exc.strerror}") from None
    try:
        return load_process_config(text)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None
