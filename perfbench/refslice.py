"""A fixed slice of pure-Python work used as the machine-speed yardstick.

It contains no cmospath code but does the same kinds of work: float
arithmetic in index loops, attribute and list access, small tuples and
method calls, a tridiagonal solve and math-module calls.  Op latencies
divided by the duration of nearby slices are dimensionless and do not
move when the whole VM runs faster or slower.
"""

from __future__ import annotations

import math

N = 160
REPEATS = 8

# Median slice duration on the 2-core VM where the baseline was recorded.
# setup_s is reported as (set-up time / slice time) * NOMINAL_S: seconds
# at that machine's speed, so that the VM's speed drift cancels out.
NOMINAL_S = 1.25e-3


class _Stage:
    __slots__ = ("par", "weight")

    def __init__(self, par: float, weight: float):
        self.par = par
        self.weight = weight

    def delay(self, cin: float, load: float) -> float:
        full = load + self.par * cin
        return self.weight * full / cin * (1.0 + 2.0 * cin / (cin + full))


_STAGES = tuple(_Stage(0.2 + 0.05 * (i % 5), 1.0 + 0.3 * (i % 3))
                for i in range(N))


def reference_slice() -> float:
    """Run the fixed work once; returns a checksum that never varies."""
    sizes = [2.0 + 0.5 * (i % 9) for i in range(N)]
    total = 0.0
    for _ in range(REPEATS):
        delays = []
        for i, stage in enumerate(_STAGES):
            load = sizes[i + 1] if i < N - 1 else 400.0
            delays.append((i, stage.delay(sizes[i], load)))
        diag = [2.0 + d * 1e-3 for _, d in delays]
        off = [-0.5 + 1e-4 * i for i in range(N - 1)]
        rhs = [math.sin(d) for _, d in delays]
        for i in range(1, N):
            w = off[i - 1] / diag[i - 1]
            diag[i] -= w * off[i - 1]
            rhs[i] -= w * rhs[i - 1]
        step = [0.0] * N
        step[N - 1] = rhs[N - 1] / diag[N - 1]
        for i in range(N - 2, -1, -1):
            step[i] = (rhs[i] - off[i] * step[i + 1]) / diag[i]
        sizes = [max(2.0, c * math.exp(0.01 * s)) for c, s in zip(sizes, step)]
        total += sum(d for _, d in delays)
    return total
