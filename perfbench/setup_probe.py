"""Set-up cost in a fresh interpreter: import, load ref.proc, parse fixtures.

Usage: python3 -I perfbench/setup_probe.py <checkout root>

Prints two numbers: the elapsed set-up seconds (interpreter start-up
excluded), then the median duration of the reference slice run right
after it in the same process, the machine-speed yardstick.
"""

import os
import sys
import time

start = time.perf_counter()
root = sys.argv[1]
sys.path.insert(0, root + "/src")

import cmospath  # noqa: E402

cmospath.load_process_file(root + "/fixtures/ref.proc")
for name in ("chain11.path", "chain13.path", "heavy.path"):
    cmospath.parse_path_text_file(f"{root}/fixtures/{name}")
elapsed = time.perf_counter() - start

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import refslice  # noqa: E402

refslice.reference_slice()
slices = []
for _ in range(3):
    t0 = time.perf_counter()
    refslice.reference_slice()
    slices.append(time.perf_counter() - t0)
print(repr(elapsed), repr(sorted(slices)[1]))
