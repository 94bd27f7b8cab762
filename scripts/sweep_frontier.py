"""Trace the delay/area frontier of a path by sweeping the sensitivity knob.

Each row solves the constant-sensitivity sizing problem at one a <= 0 and
reports the resulting total delay and area. The a = 0 endpoint is the
minimum-delay sizing; deeply negative a approaches the all-minimum sizing.
The marginal column is the chord slope between neighboring rows, i.e. the
area you pay per picosecond of delay bought back, which is the number a
designer actually reads off this curve.

Run from the repository root, e.g.

    python3 scripts/sweep_frontier.py fixtures/ref.proc fixtures/chain11.path
    python3 scripts/sweep_frontier.py fixtures/ref.proc fixtures/chain13.path \
        --points 40 --csv frontier.csv
"""

from __future__ import annotations

import argparse
import sys

from cmospath import (
    compute_bounds,
    equal_delay_distribution,
    evaluate_path,
    load_process_file,
    parse_path_text_file,
    path_area,
    sweep,
)


def ladder(n_points: int, deepest: float) -> list[float]:
    # geometric in |a| so the dense end sits near a = 0, where the
    # frontier bends hardest; the exact 0 endpoint is appended last
    ratio = (1e-5) ** (1.0 / (n_points - 2))
    values = [deepest * ratio**i for i in range(n_points - 1)]
    values.append(0.0)
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="sweep the delay/area frontier of one path")
    parser.add_argument("proc", help="process config file")
    parser.add_argument("path", help="path description file")
    parser.add_argument("--points", type=int, default=24,
                        help="number of sweep points (default 24)")
    parser.add_argument("--a-min", type=float, default=None,
                        help="deepest sensitivity (default -100*t_min/cref)")
    parser.add_argument("--csv", default=None,
                        help="also write the rows to this file")
    parser.add_argument("--equal-delay-at", type=float, default=None,
                        metavar="RATIO",
                        help="mark the equal-delay baseline at tc=RATIO*t_min")
    args = parser.parse_args(argv)

    if args.points < 3:
        parser.error("--points must be at least 3")

    params, library = load_process_file(args.proc)
    path = parse_path_text_file(args.path)
    bounds = compute_bounds(path, params, library)
    deepest = args.a_min
    if deepest is None:
        deepest = -100.0 * bounds.t_min / params.cref
    if deepest >= 0:
        parser.error("--a-min must be negative")

    solutions, failures = sweep(path, ladder(args.points, deepest),
                                params, library)
    for a, exc in failures:
        print(f"# failed at a={a:.6g}: {exc}", file=sys.stderr)
    if not solutions:
        print("no sweep point solved", file=sys.stderr)
        return 2

    rows = []
    prev = None
    for sol in solutions:
        marginal = ""
        if prev is not None and prev.delay > sol.delay:
            marginal = f"{(sol.area - prev.area) / (prev.delay - sol.delay):.4f}"
        rows.append((f"{sol.a_value:.6g}", f"{sol.delay:.4f}",
                     f"{sol.area:.4f}", marginal))
        prev = sol

    header = ("a", "delay_ps", "area_um", "area_per_ps")
    widths = [max(len(h), *(len(r[i]) for r in rows))
              for i, h in enumerate(header)]
    print("  ".join(h.rjust(w) for h, w in zip(header, widths)))
    for row in rows:
        print("  ".join(v.rjust(w) for v, w in zip(row, widths)))

    print(f"# window: t_min={bounds.t_min:.4f} ps  t_max={bounds.t_max:.4f} ps")
    span = solutions[-1].area - solutions[0].area
    print(f"# area span over the sweep: {span:.4f} um "
          f"({solutions[0].area:.4f} at the deep end)")

    if args.equal_delay_at is not None:
        tc = args.equal_delay_at * bounds.t_min
        sizing = equal_delay_distribution(path, tc, params, library)
        timing = evaluate_path(path, sizing, params, library)
        print(f"# equal-delay baseline at tc={tc:.4f}: "
              f"delay={timing.total:.4f} ps "
              f"area={path_area(path, sizing, params, library):.4f} um")

    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(row) + "\n")
        print(f"# wrote {args.csv}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
