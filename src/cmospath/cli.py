"""Command line front end.

Subcommands mirror the library surface: bounds, size, equal-delay,
flimit, sweep, optimize.  Outputs are plain text or CSV with six
significant digits, deterministic for fixed inputs.  Exit codes: 0
success, 1 usage or input parse failure, 2 infeasible constraint (the
message carries the achievable t_min), 3 solver non-convergence or a
failed internal check.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .bounds import compute_bounds
from .buffering import fanout_limits, flimit
from .errors import (ConfigError, ConvergenceError, InfeasibleError,
                     InvariantError)
from .path import LogicPath, PathModel, parse_path_text_file
from .process import load_process_file, width_of
from .protocol import optimize
from .sizing import (
    distribute_constraint,
    equal_delay_distribution,
    sweep,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_NO_CONVERGENCE = 3


def _fmt(x: float) -> str:
    return f"{x:.6g}"


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _gate_table(path: LogicPath, sizing, params, library, out) -> None:
    model = PathModel(path, params, library)
    timing = model.evaluate(sizing)
    print("index kind cin_ff w_n_um w_p_um delay_ps slope_ps", file=out)
    for i, kind in enumerate(path.gates):
        w_n, w_p = width_of(sizing[i], params)
        print(" ".join([str(i), kind, _fmt(sizing[i]), _fmt(w_n), _fmt(w_p),
                        _fmt(timing.terms[i]), _fmt(timing.slopes[i])]),
              file=out)
    print(f"total_delay_ps = {_fmt(timing.total)}", file=out)
    print(f"total_width_um = {_fmt(model.total_width(sizing))}", file=out)


def _cmd_bounds(args, params, library, path, out) -> int:
    bounds = compute_bounds(path, params, library)
    print(f"t_min_ps = {_fmt(bounds.t_min)}", file=out)
    print(f"t_max_ps = {_fmt(bounds.t_max)}", file=out)
    print("sizing_min_ff = " + " ".join(_fmt(c) for c in bounds.sizing_min),
          file=out)
    print("sizing_max_ff = " + " ".join(_fmt(c) for c in bounds.sizing_max),
          file=out)
    return EXIT_OK


def _cmd_size(args, params, library, path, out) -> int:
    solution = distribute_constraint(path, args.tc, params, library)
    print(f"a_value = {_fmt(solution.a_value)}", file=out)
    if solution.note:
        print(f"note: {solution.note}", file=out)
    _gate_table(path, solution.sizing, params, library, out)
    return EXIT_OK


def _cmd_equal_delay(args, params, library, path, out) -> int:
    sizing = equal_delay_distribution(path, args.tc, params, library)
    print(f"stage_budget_ps = {_fmt(args.tc / path.n)}", file=out)
    _gate_table(path, sizing, params, library, out)
    return EXIT_OK


def _cmd_flimit(args, params, library, path, out) -> int:
    if args.table:
        table = fanout_limits(params, library, args.buffer_kind)
        print("gate,f_limit", file=out)
        for gate, limit in table.items():
            print(f"{gate},{_fmt(limit)}", file=out)
        return EXIT_OK
    if not args.gate:
        raise ConfigError("flimit needs --gate or --table")
    limit = flimit(args.gate, params, library, args.buffer_kind)
    print(f"f_limit = {_fmt(limit)}", file=out)
    return EXIT_OK


def _cmd_sweep(args, params, library, path, out) -> int:
    if args.points < 2:
        raise ConfigError("sweep needs at least 2 points")
    if args.a_min in (-math.inf, math.inf):
        raise ConfigError("--a-min must be finite")
    a_deep = args.a_min if args.a_min is not None else -100.0 * \
        compute_bounds(path, params, library).t_min / params.cref
    if not a_deep < 0:
        raise ConfigError("--a-min must be negative")
    # Geometric ladder of magnitudes down to 1e-5 of the deepest value,
    # then the exact minimum-delay endpoint a = 0.
    n_neg = args.points - 1
    ratio = 1e-5 ** (1.0 / max(1, n_neg - 1))
    values = [a_deep * ratio ** k for k in range(n_neg)] + [0.0]
    solutions, failures = sweep(path, values, params, library)
    for a, exc in failures:
        print(f"sweep: a={_fmt(a)} failed: {exc}", file=sys.stderr)
    print("a,delay_ps,area_um", file=out)
    for sol in solutions:
        print(f"{_fmt(sol.a_value)},{_fmt(sol.delay)},{_fmt(sol.area)}",
              file=out)
    return EXIT_OK


def _cmd_optimize(args, params, library, path, out) -> int:
    result = optimize(path, args.tc, params, library,
                      allow_buffer=not args.no_buffer,
                      allow_restruct=not args.no_restruct,
                      buffer_mode=args.buffer_mode)
    print(f"domain = {result.domain.kind.value} "
          f"(ratio = {_fmt(result.domain.ratio)})", file=out)
    print(f"constraint_ps = {_fmt(args.tc)}", file=out)
    print(f"achieved_delay_ps = {_fmt(result.achieved_delay)}", file=out)
    print(f"area_um = {_fmt(result.area)}", file=out)
    print(f"a_value = {_fmt(result.a_value)}", file=out)
    print("final_gates = " + " ".join(result.final_path.gates), file=out)
    print(f"offpath_inverters = {result.final_path.offpath_inverters}",
          file=out)
    print(f"polarity_flips = {result.final_path.polarity_flips}", file=out)
    for note in result.notes:
        print(f"note: {note}", file=out)
    print("trace:", file=out)
    for step in result.trace:
        print(step.line(), file=out)
    _gate_table(result.final_path, result.sizing, params, library, out)
    if args.json_trace:
        payload = [{"kind": step.kind, "data": step.data}
                   for step in result.trace]
        with open(args.json_trace, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=False)
            fh.write("\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cmospath",
                     description="Delay-constrained area optimization of "
                                 "bounded CMOS logic paths")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bounds", parents=[], help="delay window of a path")
    p.add_argument("proc", help="process config file")
    p.add_argument("path", help="path description file")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("size", help="minimum-area sizing meeting a constraint")
    p.add_argument("--tc", type=float, required=True,
                   help="delay constraint in ps")
    p.add_argument("proc")
    p.add_argument("path")
    p.set_defaults(func=_cmd_size)

    p = sub.add_parser("equal-delay",
                       help="equal delay-per-stage reference sizing")
    p.add_argument("--tc", type=float, required=True)
    p.add_argument("proc")
    p.add_argument("path")
    p.set_defaults(func=_cmd_equal_delay)

    p = sub.add_parser("flimit", help="break-even fanout of a gate kind")
    p.add_argument("--gate", help="loaded gate kind")
    p.add_argument("--table", action="store_true",
                   help="emit every library kind's limit as CSV")
    p.add_argument("--buffer-kind", default="inv")
    p.add_argument("proc")
    p.set_defaults(func=_cmd_flimit)

    p = sub.add_parser("sweep", help="delay/area frontier over sensitivities")
    p.add_argument("--points", type=int, required=True)
    p.add_argument("--a-min", type=float, default=None,
                   help="most negative sensitivity (default: deep clamp)")
    p.add_argument("proc")
    p.add_argument("path")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("optimize", help="full constraint-driven optimization")
    p.add_argument("--tc", type=float, required=True)
    p.add_argument("--no-restruct", action="store_true")
    p.add_argument("--no-buffer", action="store_true")
    p.add_argument("--buffer-mode", choices=("single", "pair"),
                   default="pair")
    p.add_argument("--json-trace", metavar="FILE",
                   help="write the machine trace as JSON")
    p.add_argument("proc")
    p.add_argument("path")
    p.set_defaults(func=_cmd_optimize)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        # The process file first, so its error wins; flimit has no path.
        params, library = load_process_file(args.proc)
        path = parse_path_text_file(args.path) if "path" in args else None
        code = args.func(args, params, library, path, sys.stdout)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader left (`| head`): send the rest, and the flush at
        # interpreter shutdown, to devnull and exit quietly.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except ConvergenceError as exc:
        print(f"no convergence: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except InvariantError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
