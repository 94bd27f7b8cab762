"""Exception types shared across the package."""

from __future__ import annotations


class CmosPathError(Exception):
    """Base class for all package-specific failures."""


class ConfigError(CmosPathError):
    """Malformed process config or path file.

    Messages carry the offending key name and, when available, the
    1-based line number of the input text.
    """

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class InfeasibleError(CmosPathError):
    """A delay constraint below what the structure can achieve.

    Carries the best achievable minimum delay.  optimize reports the
    fastest route it built: its t_min, its path as best_path, and a trace
    (bounds, classify, its steps) that replay_trace turns into best_path.
    """

    def __init__(self, message: str, t_min: float | None = None,
                 best_path=None, trace=None):
        super().__init__(message)
        self.t_min = t_min
        self.best_path = best_path
        self.trace = trace if trace is not None else []


class ConvergenceError(CmosPathError):
    """An iterative solver gave up or ran out of iterations.

    Carries the iteration count and the last residual, when the solver
    has one, so the failure is diagnosable from the message alone.
    """

    def __init__(self, message: str, iterations: int | None = None,
                 residual: float | None = None):
        if iterations is not None:
            tail = "" if residual is None else f", residual={residual:.3e}"
            message = f"{message} (iterations={iterations}{tail})"
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual


class InvariantError(CmosPathError):
    """A result broke a guarantee the package checks before returning it.

    Raised when a logic rewrite changes the function of the segment it
    replaces, or when the optimizer's final sizing misses its constraint.
    Either one is a defect in the package, not in the input.
    """
