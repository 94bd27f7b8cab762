"""Delay-constrained area optimization of bounded CMOS logic paths."""

from .bounds import (
    DelayBounds,
    compute_bounds,
    feasibility,
    max_delay_sizing,
    min_delay_sizing,
)
from .buffering import (
    BufferingOutcome,
    fanout_limits,
    flimit,
    insert_buffers,
    min_delay_with_buffers,
)
from .errors import (
    CmosPathError,
    ConfigError,
    ConvergenceError,
    InfeasibleError,
    InvariantError,
)
from .path import (
    CoefficientSet,
    LogicPath,
    PathModel,
    PathTiming,
    evaluate_path,
    exact_path_gradient,
    parse_path_file,
    parse_path_text_file,
    path_coefficients,
)
from .process import (
    FALLING,
    RISING,
    GateInstance,
    GateTemplate,
    ProcessParams,
    gate_delay,
    load_process_config,
    load_process_file,
    symmetry_factors,
    transition_time,
    width_of,
)
from .protocol import (
    ConstraintDomain,
    Domain,
    OptimizationResult,
    TraceStep,
    classify_constraint,
    optimize,
    replay_trace,
)
from .restructure import (
    PathSegment,
    SegmentGate,
    cancel_inverter_pairs,
    demorgan_rewrite,
    gate_function,
    local_equivalence_check,
    rank_gate_efficiency,
    segment_of,
)
from .sizing import (
    SensitivitySolution,
    distribute_constraint,
    equal_delay_distribution,
    path_area,
    solve_at_sensitivity,
    sweep,
)

__version__ = "0.1.0"
