"""Reference computations the tests trust instead of the package.

Everything here re-derives its answer from the model definition using
plain loops and numpy, reading only data fields (template constants,
process constants, path structure).  None of it calls the package's
evaluation or solver code, so a bug there cannot hide behind an oracle
that shares it.
"""

import math

import numpy as np

RISING = "rising"
FALLING = "falling"


def pull_strength(template, out_edge, params):
    """Transition-time slowdown versus the reference inverter.

    Falling outputs ride the pull-down network, rising ones the pull-up;
    the pull-up additionally pays the mobility ratio spread over the
    width split.
    """
    if out_edge == FALLING:
        return (1.0 + params.k_ratio) * template.dw_hl
    return params.r_ratio * (1.0 + params.k_ratio) / params.k_ratio * template.dw_lh


def coupling_cap(template, in_edge, cin, params):
    """Input-output coupling: half the still-conducting transistor's cap."""
    if template.cm_override is not None:
        return template.cm_override
    share = params.k_ratio if in_edge == RISING else 1.0
    return share * cin / (2.0 * (1.0 + params.k_ratio))


def chain_delay(templates, cins, load, input_edge, slope_rise, slope_fall,
                params):
    """Total delay of a sized chain, directly from the stage recurrence.

    cins[0] is the (fixed) input cap of gate 0.  Entries of cins may be
    numpy arrays; the result broadcasts, which is what makes the grid
    searches below affordable.  Returns (total, output_edge, output_slope).
    """
    n = len(templates)
    edge = input_edge
    slope = slope_rise if input_edge == RISING else slope_fall
    total = 0.0
    for i, tpl in enumerate(templates):
        cin = cins[i]
        nxt = cins[i + 1] if i + 1 < n else load
        c_load = nxt + tpl.par_coeff * cin
        out = FALLING if edge == RISING else RISING
        t_out = params.tau * pull_strength(tpl, out, params) * c_load / cin
        c_m = coupling_cap(tpl, edge, cin, params)
        miller = 1.0 + 2.0 * c_m / (c_m + c_load)
        v = params.vtn if edge == RISING else params.vtp
        total = total + v / 2.0 * slope + miller * t_out / 2.0
        slope = t_out
        edge = out
    return total, edge, slope


def frozen_coefficients(templates, cins, load, input_edge, slope_rise,
                        slope_fall, params):
    """(constant, a, c_par) of the affine regrouping at one snapshot.

    The regrouped delay is  constant + sum a[i] * (c[i+1] + c_par[i]) / c[i]
    with the Miller factors, next-stage thresholds, and parasitics all
    held at the snapshot sizing.
    """
    n = len(templates)
    edge = input_edge
    slope0 = slope_rise if input_edge == RISING else slope_fall
    v0 = params.vtn if input_edge == RISING else params.vtp
    constant = v0 / 2.0 * slope0
    a = []
    c_par = []
    for i, tpl in enumerate(templates):
        cin = cins[i]
        nxt = cins[i + 1] if i + 1 < n else load
        cp = tpl.par_coeff * cin
        out = FALLING if edge == RISING else RISING
        c_m = coupling_cap(tpl, edge, cin, params)
        miller = 1.0 + 2.0 * c_m / (c_m + nxt + cp)
        if i + 1 < n:
            v_next = params.vtn if out == RISING else params.vtp
        else:
            v_next = 0.0
        s = pull_strength(tpl, out, params)
        a.append(params.tau * s * (miller + v_next) / 2.0)
        c_par.append(cp)
        edge = out
    return constant, a, c_par


def effort_weights(templates, input_edge, params):
    """Each gate's weight w_i = tau * S_i * (1 + v_next) / 2 in the delay
    with the Miller factor dropped: constant + sum w_i * (c[i+1] /
    c[i] + par_i), with v_next the threshold of the next gate's input
    edge and 0 past the last gate."""
    n = len(templates)
    edge = input_edge
    weights = []
    for i, tpl in enumerate(templates):
        out = FALLING if edge == RISING else RISING
        v_next = 0.0
        if i + 1 < n:
            v_next = params.vtn if out == RISING else params.vtp
        weights.append(params.tau * pull_strength(tpl, out, params)
                       * (1.0 + v_next) / 2.0)
        edge = out
    return weights


def effort_taper(weights, left, right):
    """The sizes strictly between left and right that minimize sum_k
    weights[k] * c[k+1] / c[k] over len(weights) stages from c[0] = left
    to c[-1] = right: every stage bears the same weighted effort f =
    weights[k] * c[k+1] / c[k], and the gains multiply to right / left,
    so f is the geometric mean of weights[k] * (right / left)^(1/m)."""
    m = len(weights)
    f = (right / left) ** (1.0 / m) * math.prod(weights) ** (1.0 / m)
    sizes = [left]
    for w in weights[:-1]:
        sizes.append(sizes[-1] * f / w)
    return sizes[1:]


def logical_effort_seed(templates, input_cap, load, input_edge, params):
    """The cold logical-effort start of a chain: input_cap, then the
    effort taper to the load, each size held at cref or above."""
    weights = effort_weights(templates, input_edge, params)
    return [input_cap] + [max(params.cref, c) for c in
                          effort_taper(weights, input_cap, load)]


def central_diff(f, x, index, h):
    """Central finite difference of f along one coordinate of x."""
    up = list(x)
    dn = list(x)
    up[index] += h
    dn[index] -= h
    return (f(up) - f(dn)) / (2.0 * h)


def _grid_argmin(values, axes_grids):
    idx = np.unravel_index(np.argmin(values), values.shape)
    return float(values[idx]), [float(g[idx]) for g in axes_grids], idx


def grid_min_delay(templates, input_cap, load, input_edge, slope_rise,
                   slope_fall, params, lo, hi, coarse_per_decade=40,
                   fine_per_decade=400):
    """Two-stage exhaustive log-grid minimum of the chain delay.

    Gate 0's cap is fixed at input_cap; every later gate sweeps a log
    grid on [lo, hi].  The coarse stage is exhaustive; the fine stage
    re-grids one coarse cell either side of the coarse winner.  Returns
    (delay, free_caps).
    """
    free = len(templates) - 1
    if free == 0:
        t, _, _ = chain_delay(templates, [input_cap], load, input_edge,
                              slope_rise, slope_fall, params)
        return float(t), []

    def search(axes):
        grids = np.meshgrid(*axes, indexing="ij")
        cins = [input_cap] + list(grids)
        total, _, _ = chain_delay(templates, cins, load, input_edge,
                                  slope_rise, slope_fall, params)
        return _grid_argmin(total, grids)

    decades = math.log10(hi / lo)
    m = max(2, int(round(decades * coarse_per_decade)) + 1)
    coarse = np.logspace(math.log10(lo), math.log10(hi), m)
    t0, caps0, idx0 = search([coarse] * free)

    fine_axes = []
    for j in idx0:
        a = coarse[max(j - 1, 0)]
        b = coarse[min(j + 1, m - 1)]
        steps = max(2, int(round(math.log10(b / a) * fine_per_decade)) + 1)
        fine_axes.append(np.logspace(math.log10(a), math.log10(b), steps))
    t1, caps1, _ = search(fine_axes)
    if t1 < t0:
        return t1, caps1
    return t0, caps0


def grid_min_area(templates, input_cap, load, input_edge, slope_rise,
                  slope_fall, params, tc, lo, hi, coarse_per_decade=40,
                  fine_per_decade=400):
    """Exhaustive log-grid minimum of sum(free caps) subject to delay <= tc.

    Same two-stage scheme as grid_min_delay but ranked by cap total over
    the feasible set.  Returns (cap_total, free_caps, delay) or None when
    no grid point meets the constraint.
    """
    free = len(templates) - 1
    if free == 0:
        t, _, _ = chain_delay(templates, [input_cap], load, input_edge,
                              slope_rise, slope_fall, params)
        return (0.0, [], float(t)) if t <= tc else None

    def search(axes):
        grids = np.meshgrid(*axes, indexing="ij")
        cins = [input_cap] + list(grids)
        total, _, _ = chain_delay(templates, cins, load, input_edge,
                                  slope_rise, slope_fall, params)
        area = sum(grids)
        bad = total > tc
        if bool(np.all(bad)):
            return None
        area = np.where(bad, np.inf, area)
        idx = np.unravel_index(np.argmin(area), area.shape)
        return (float(area[idx]), [float(g[idx]) for g in grids],
                float(total[idx]), idx)

    decades = math.log10(hi / lo)
    m = max(2, int(round(decades * coarse_per_decade)) + 1)
    coarse = np.logspace(math.log10(lo), math.log10(hi), m)
    hit = search([coarse] * free)
    if hit is None:
        return None
    best_area, best_caps, best_t, idx0 = hit

    fine_axes = []
    for j in idx0:
        a = coarse[max(j - 1, 0)]
        b = coarse[min(j + 1, m - 1)]
        steps = max(2, int(round(math.log10(b / a) * fine_per_decade)) + 1)
        fine_axes.append(np.logspace(math.log10(a), math.log10(b), steps))
    refined = search(fine_axes)
    if refined is not None and refined[0] < best_area:
        best_area, best_caps, best_t, _ = refined
    return best_area, best_caps, best_t


def golden_min(f, lo, hi, tol=1e-12):
    """Golden-section minimum of a unimodal f on [lo, hi] -> (x, f(x))."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol * max(1.0, abs(a) + abs(b)):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
    x = (a + b) / 2.0
    return x, f(x)


def gate_bool(name, inputs):
    """Logic function of a library gate kind, by naming convention."""
    if len(inputs) == 1:
        return not inputs[0]
    if name.startswith("nand"):
        return not all(inputs)
    if name.startswith("nor"):
        return not any(inputs)
    raise ValueError(f"no boolean model for gate kind {name!r}")


def path_truth_table(path, library):
    """Exhaustive boolean function of a chain as a tuple of output bits.

    Input bit 0 is the path input; bits 1.. are each gate's side inputs
    in gate order.  A gate flagged side_inverted sees its side bits
    complemented, which is how rewrites account for off-path inverters.
    """
    side_counts = [library[name].n_inputs - 1 for name in path.gates]
    flags = path.side_inverted or (False,) * len(path.gates)
    nbits = 1 + sum(side_counts)
    rows = []
    for word in range(2 ** nbits):
        x = bool(word & 1)
        pos = 1
        for name, count, inverted in zip(path.gates, side_counts, flags):
            sides = []
            for _ in range(count):
                bit = bool((word >> pos) & 1)
                sides.append(not bit if inverted else bit)
                pos += 1
            x = gate_bool(name, [x] + sides)
        rows.append(x)
    return tuple(rows)


def newton_system(cin, grad, hd, ho, a):
    """(diag, off, rhs) of the log-space Newton system, built row by row.

    Row j-1 is gate j: diag = c_j^2 T''_jj + r_j, off = c_j c_{j+1} T''_j,j+1
    (0 past the last gate) and rhs = -r_j, with r_j = c_j (g_j - a).
    """
    diag = []
    off = []
    rhs = []
    for cj, cn, g, d, o in zip(cin[1:], (*cin[2:], 0.0), grad, hd, ho):
        r = cj * (g - a)
        diag.append(cj * cj * d + r)
        off.append(cj * cn * o)
        rhs.append(-r)
    return diag, off, rhs


def solve_tridiagonal(diag, off, rhs, pinned):
    """Thomas sweep of a symmetric tridiagonal system, or None.

    off[i] couples rows i and i+1.  Each row in pinned becomes a unit row
    with a zero right-hand side and no coupling, written into diag, off
    and rhs.  None when a pivot is not positive or the solution is not
    finite.
    """
    for idx in pinned:
        diag[idx] = 1.0
        rhs[idx] = 0.0
        off[idx] = 0.0
        if idx > 0:
            off[idx - 1] = 0.0
    rows = zip(diag, off, rhs)
    piv, o, r = next(rows)
    eliminated = []
    for d, o_next, b in rows:
        if not piv > 0.0:
            return None
        w = o / piv
        eliminated.append((o, piv, r))
        piv = d - w * o
        r = b - w * r
        o = o_next
    if not piv > 0.0:
        return None
    x = r / piv
    out = [x]
    for o, piv, r in reversed(eliminated):
        x = (r - o * x) / piv
        out.append(x)
    out.reverse()
    if not all(map(math.isfinite, out)):
        return None
    return out


def newton_solve(cin, grad, hd, ho, a, clamped, border=False):
    """The log-space Newton solve as separate build and sweep steps.

    Rows of clamped gates whose residual pushes them down are pinned.
    First the exact system; if a sweep fails, the system is built again
    and every row whose diagonal does not exceed the sum of its absolute
    couplings gets that sum times 1 + 1e-9 (its |diagonal| with no
    coupling).  Returns [M^-1 (-r)], with border also [.., M^-1 c], or
    None.  Also returns whether the exact sweep failed.
    """
    m = len(cin) - 1
    diag, off, rhs = newton_system(cin, grad, hd, ho, a)
    pinned = [idx for idx in range(m) if clamped[idx + 1] and rhs[idx] < 0.0]
    for dominant in (False, True):
        if dominant:
            diag, off, rhs = newton_system(cin, grad, hd, ho, a)
            for idx in range(m):
                coupling = abs(off[idx]) + (abs(off[idx - 1]) if idx else 0.0)
                if not diag[idx] > coupling:
                    diag[idx] = (coupling * (1.0 + 1e-9) if coupling
                                 else abs(diag[idx]))
        if border:
            v = solve_tridiagonal(diag, off, list(cin[1:]), pinned)
            if v is None:
                continue
        step = solve_tridiagonal(diag, off, rhs, pinned)
        if step is not None:
            return ([step, v] if border else [step]), dominant
    return None, True
