"""Acceptance suite: the ten headline behaviors, one test each.

Every test finishes by printing a single PASS line with the measured
numbers, so `pytest -v -s tests/test_acceptance.py` reads as a checklist.
Tolerances are stated inline; none of them are loosened from the
package's documented contracts.
"""

import math
import random
import time

import pytest

import oracles
from cmospath.bounds import (compute_bounds, link_fixed_point,
                             min_delay_sizing)
from cmospath.buffering import fanout_limits, min_delay_with_buffers
from cmospath.path import LogicPath, PathModel, exact_path_gradient
from cmospath.protocol import Domain, classify_constraint, optimize
from cmospath.restructure import cancel_inverter_pairs, demorgan_rewrite
from cmospath.sizing import (distribute_constraint, equal_delay_distribution,
                             path_area, sweep)

KINDS = ("inv", "nand2", "nand3", "nor2", "nor3")


def report(number, text):
    print(f"\ncriterion {number:02d}: PASS - {text}")


def test_criterion_01_initialization_independence(ref_params, ref_library,
                                                  chain11):
    results = []
    for factor in (1.0, 4.0, 10.0, 100.0):
        warm = (chain11.input_cap,) + (factor * ref_params.cref,) * (
            chain11.n - 1)
        start = time.perf_counter()
        fixed = link_fixed_point(PathModel(chain11, ref_params, ref_library),
                                 warm=warm)
        t_min, iters = fixed.pass_.total, fixed.steps
        wall = time.perf_counter() - start
        assert iters < 500
        assert wall < 0.1
        results.append(t_min)
    spread = (max(results) - min(results)) / min(results)
    assert spread <= 1e-3
    report(1, f"t_min spread {spread:.2e} over uniform warm starts "
              f"1/4/10/100x cref, all < 500 iterations and < 100 ms")


def test_criterion_02_grid_oracle_equivalence(ref_params, ref_library):
    rng = random.Random(20260816)
    worst = 0.0
    oracle_time = 0.0
    for case in range(5):
        gates = tuple(rng.choice(KINDS) for _ in range(4))
        path = LogicPath(
            gates=gates,
            input_cap=rng.uniform(2.0, 8.0),
            terminal_load=rng.uniform(30.0, 200.0),
            input_edge=rng.choice(("rising", "falling")),
            driver_slope_rise=rng.uniform(0.0, 50.0),
            driver_slope_fall=rng.uniform(0.0, 50.0),
        )
        _, t_solver, _ = min_delay_sizing(path, ref_params, ref_library)
        templates = [ref_library[k] for k in gates]
        start = time.perf_counter()
        t_grid, _ = oracles.grid_min_delay(
            templates, path.input_cap, path.terminal_load, path.input_edge,
            path.driver_slope_rise, path.driver_slope_fall, ref_params,
            lo=ref_params.cref, hi=3.0 * path.terminal_load)
        oracle_time += time.perf_counter() - start
        gap = abs(t_solver - t_grid) / t_grid
        worst = max(worst, gap)
        assert gap <= 5e-3, f"case {case}: solver {t_solver} vs grid {t_grid}"
    assert oracle_time < 10.0
    report(2, f"worst delay gap {worst:.2e} vs 400/decade grid on 5 random "
              f"3-free-variable paths, oracle total {oracle_time:.2f} s")


def test_criterion_03_gradient_matches_finite_differences(ref_params,
                                                          ref_library):
    rng = random.Random(7117)
    worst = 0.0
    for _ in range(20):
        n = rng.randint(3, 6)
        gates = tuple(rng.choice(KINDS) for _ in range(n))
        path = LogicPath(
            gates=gates,
            input_cap=rng.uniform(2.0, 10.0),
            terminal_load=rng.uniform(30.0, 400.0),
            input_edge=rng.choice(("rising", "falling")),
            driver_slope_rise=rng.uniform(0.0, 60.0),
            driver_slope_fall=rng.uniform(0.0, 60.0),
        )
        sizing = [path.input_cap] + [
            math.exp(rng.uniform(math.log(2.0), math.log(150.0)))
            for _ in range(n - 1)]
        analytic = exact_path_gradient(path, sizing, ref_params,
                                       ref_library)
        templates = [ref_library[k] for k in gates]

        def exact(x):
            return oracles.chain_delay(
                templates, x, path.terminal_load, path.input_edge,
                path.driver_slope_rise, path.driver_slope_fall,
                ref_params)[0]

        scale = max(abs(g) for g in analytic)
        for j in range(1, n):
            fd = oracles.central_diff(exact, sizing, j, sizing[j] * 1e-6)
            err = abs(analytic[j - 1] - fd) / scale
            worst = max(worst, err)
            assert err <= 1e-6
    report(3, f"20 random paths, worst relative gradient error {worst:.2e} "
              f"(tolerance 1e-6)")


def test_criterion_04_frontier_shape(ref_params, ref_library, chain11):
    bounds = compute_bounds(chain11, ref_params, ref_library)
    a_values = [-8.0 * 0.5 ** i for i in range(19)] + [0.0]
    rows, failures = sweep(chain11, a_values, ref_params, ref_library)
    assert not failures
    assert len(rows) == 20
    delays = [r.delay for r in rows]
    areas = [r.area for r in rows]
    for d1, d2 in zip(delays, delays[1:]):
        assert d2 <= d1 * (1.0 + 1e-12)
    for w1, w2 in zip(areas, areas[1:]):
        assert w2 >= w1 * (1.0 - 1e-12)
    # convexity of the delay-area frontier: chord slopes non-decreasing
    points = []
    for w, d in zip(areas, delays):
        if not points or w > points[-1][0] * (1.0 + 1e-12):
            points.append((w, d))
    slopes = [(d2 - d1) / (w2 - w1)
              for (w1, d1), (w2, d2) in zip(points, points[1:])]
    scale = (max(delays) - min(delays)) / (max(areas) - min(areas))
    for s1, s2 in zip(slopes, slopes[1:]):
        assert s2 >= s1 - 1e-6 * scale
    assert rows[-1].a_value == 0.0
    endpoint_gap = abs(rows[-1].delay - bounds.t_min) / bounds.t_min
    assert endpoint_gap <= 1e-6
    report(4, f"20-point sweep monotone, {len(slopes)} chord slopes "
              f"non-decreasing, a=0 endpoint within {endpoint_gap:.1e} "
              f"of t_min")


def test_criterion_05_beats_equal_delay_baseline(ref_params, ref_library,
                                                 chain11, chain13,
                                                 heavy_path):
    summaries = []
    for path in (chain11, chain13, heavy_path):
        assert any(max(ref_library[k].dw_hl, ref_library[k].dw_lh) > 1.0
                   for k in path.gates)
        _, t_min, _ = min_delay_sizing(path, ref_params, ref_library)
        tc = 1.2 * t_min
        baseline = equal_delay_distribution(path, tc, ref_params,
                                            ref_library)
        base_area = path_area(path, baseline, ref_params, ref_library)
        sol = distribute_constraint(path, tc, ref_params, ref_library)
        assert sol.area <= base_area
        assert abs(sol.delay - tc) <= 1e-3 * tc
        summaries.append(f"{len(path.gates)}g {sol.area:.1f}<={base_area:.1f}um")
    report(5, "constant-sensitivity area <= equal-delay area at "
              "tc=1.2*t_min, delay within 0.1%: " + ", ".join(summaries))


def test_criterion_06_fanout_limit_table(ref_params, ref_library):
    start = time.perf_counter()
    limits = fanout_limits(ref_params, ref_library)
    wall = time.perf_counter() - start
    assert wall < 1.0
    targets = {"inv": 5.7, "nand2": 4.9, "nand3": 4.5,
               "nor2": 3.8, "nor3": 2.7}
    ordered = [limits[k] for k in ("inv", "nand2", "nand3", "nor2", "nor3")]
    for hi, lo in zip(ordered, ordered[1:]):
        assert hi > lo
    assert 4.0 <= limits["inv"] <= 8.0
    for kind, target in targets.items():
        assert limits[kind] == pytest.approx(target, rel=0.25)
    report(6, "limits " + " > ".join(f"{v:.2f}" for v in ordered) +
              f", all within 25% of published, table in {wall*1000:.0f} ms")


def test_criterion_07_buffering_gain(ref_params, ref_library, heavy_path):
    _, t_unbuf, _ = min_delay_sizing(heavy_path, ref_params, ref_library)
    outcome = min_delay_with_buffers(heavy_path, ref_params, ref_library)
    assert outcome.t_min < t_unbuf
    gain = (t_unbuf - outcome.t_min) / t_unbuf
    tc = 1.1 * t_unbuf
    protocol = optimize(heavy_path, tc, ref_params, ref_library)
    sizing_only = distribute_constraint(heavy_path, tc, ref_params,
                                        ref_library)
    assert protocol.area < sizing_only.area
    report(7, f"buffering cuts t_min by {gain*100:.1f}%, protocol area "
              f"{protocol.area:.2f} < sizing-only {sizing_only.area:.2f} um "
              f"at tc=1.1*t_min")


def test_criterion_08_restructuring(ref_params, ref_library, heavy_path):
    rewritten = cancel_inverter_pairs(
        demorgan_rewrite(heavy_path, 1, ref_library))
    before = oracles.path_truth_table(heavy_path, ref_library)
    after = oracles.path_truth_table(rewritten, ref_library)
    assert before == after

    _, t_unbuf, _ = min_delay_sizing(heavy_path, ref_params, ref_library)
    tc = 1.1 * t_unbuf
    buffered = min_delay_with_buffers(heavy_path, ref_params, ref_library)
    buffered_sol = distribute_constraint(buffered.path, tc, ref_params,
                                         ref_library)
    restructured = min_delay_with_buffers(rewritten, ref_params, ref_library)
    restructured_sol = distribute_constraint(restructured.path, tc,
                                             ref_params, ref_library)
    assert restructured_sol.area <= buffered_sol.area
    report(8, f"truth table preserved over {len(before)} rows; "
              f"restructured {restructured_sol.area:.2f} <= buffered "
              f"{buffered_sol.area:.2f} um under the hard constraint")


def test_criterion_09_domain_classification(ref_params, ref_library,
                                            chain11):
    _, t_min, _ = min_delay_sizing(chain11, ref_params, ref_library)
    expected = {0.9: Domain.INFEASIBLE, 1.1: Domain.HARD,
                2.0: Domain.MEDIUM, 3.0: Domain.WEAK}
    for ratio, kind in expected.items():
        domain = classify_constraint(ratio * t_min, t_min, ref_params)
        assert domain.kind is kind, f"ratio {ratio}"
    report(9, "ratios 0.9/1.1/2.0/3.0 classify as "
              "infeasible/hard/medium/weak")


def test_criterion_10_throughput(ref_params, ref_library):
    pattern = ("inv", "nand2", "inv", "nor2")
    path = LogicPath(gates=pattern * 29, input_cap=4.0, terminal_load=500.0,
                     driver_slope_rise=30.0, driver_slope_fall=30.0)
    assert len(path.gates) == 116
    _, t_min, _ = min_delay_sizing(path, ref_params, ref_library)
    start = time.perf_counter()
    result = optimize(path, 1.5 * t_min, ref_params, ref_library)
    wall = time.perf_counter() - start
    assert wall < 1.0
    assert result.achieved_delay <= 1.5 * t_min * 1.001
    report(10, f"116-gate optimize in {wall*1000:.0f} ms "
               f"(domain {result.domain.kind.value})")
