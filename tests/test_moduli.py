import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kantorov import moduli
from kantorov.errors import ConfigError
from kantorov.analysis import _MODES, convexity_report
from kantorov.geometry import Domain, uniform_grid, uniform_product_grid
from kantorov.moduli import (
    _extrema,
    _half_offsets,
    _scan_grid,
    lipschitz_estimate,
    omega1,
    omega2,
    omega_kp,
    tau_p,
)

I = Domain.interval()
Q2 = Domain.hypercube(2)
Q3 = Domain.hypercube(3)
K2 = Domain.simplex(2)
K3 = Domain.simplex(3)

SQ = lambda p: p[:, 0] ** 2
ID = lambda p: p[:, 0]


def test_omega1_square_oracle():
    # omega(t^2, delta) = 1 - (1-delta)^2 = 0.19 at delta = 0.1
    assert omega1(SQ, I, 0.1, 1000) == pytest.approx(0.19, abs=1e-3)
    assert omega1(SQ, I, 0.25, 1000) == pytest.approx(7.0 / 16.0, abs=1e-3)


def test_omega1_abs_oracle():
    f = lambda p: np.abs(p[:, 0] - 0.5)
    for delta in (0.1, 0.3, 0.6):
        assert omega1(f, I, delta, 800) == pytest.approx(min(delta, 0.5), abs=2e-3)


def test_omega1_keeps_pairs_at_exactly_delta():
    # 0.8 - 0.7 is 0.10000000000000009 in floats, but the pair lies one
    # grid step apart, which is delta
    step = lambda p: (p[:, 0] >= 0.75).astype(float)
    assert omega1(step, I, 0.1, 10) == 1.0
    # 0.29 * 100 rounds to 28.999999999999996
    assert omega1(ID, I, 0.29, 100) == pytest.approx(0.29, abs=1e-15)


def test_omega1_monotone_in_delta():
    f = lambda p: np.sin(4.0 * p[:, 0])
    vals = [omega1(f, I, d, 400) for d in (0.05, 0.1, 0.2, 0.4, 0.8)]
    assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))


def test_omega1_never_exceeds_range():
    rng = np.random.default_rng(42)
    for dom in (I, Q2, K2):
        f = lambda p: np.cos(p @ rng.uniform(1.0, 3.0, dom.dim))
        w = omega1(f, dom, dom.diameter, 40)
        assert w <= 2.0 + 1e-12


def test_omega1_constant_and_affine_zero():
    c = lambda p: np.full(p.shape[0], 0.7)
    assert omega1(c, I, 0.5, 200) <= 1e-12
    # affine: omega(delta) = |g| delta exactly along the axis
    f = lambda p: 2.0 * p[:, 0]
    assert omega1(f, I, 0.25, 400) == pytest.approx(0.5, abs=1e-12)


def test_omega2_square_oracle():
    # second differences of t^2 are exactly 2 h^2 -> 2 (delta/2)^2
    assert omega2(SQ, I, 0.25, 1000) == pytest.approx(0.125, abs=1e-3)
    assert omega2(SQ, I, 0.5, 1000) == pytest.approx(0.5, abs=1e-3)


def test_omega2_affine_zero():
    f = lambda p: 1.0 - 3.0 * p[:, 0]
    assert omega2(f, I, 0.5, 500) <= 1e-12
    g = lambda p: p[:, 0] + 2.0 * p[:, 1]
    assert omega2(g, Q2, 0.5, 60) <= 1e-12


def test_tau_p_identity_oracle():
    # local oscillation of id over [x-0.1, x+0.1] is 0.2 inside, less at
    # the ends: integral = 0.2*0.8 + 2*(0.15 average over 0.1) = 0.19
    assert tau_p(ID, I, 0.2, 1.0, 2000) == pytest.approx(0.19, abs=2e-3)


def test_tau_p_counts_pairs_on_the_ball_boundary():
    # x^2 + y^2 on Q2, m = 40: the ball of radius delta/2 = 5 grid steps,
    # decided on integer index offsets
    m, f = 40, lambda p: (p**2).sum(axis=1)
    idx = np.indices((m + 1, m + 1)).reshape(2, -1).T
    near = ((idx[:, None, :] - idx[None, :, :]) ** 2).sum(axis=-1) <= 25
    fv = f(idx / m)
    osc = np.where(near, fv, -np.inf).max(axis=1) - np.where(near, fv, np.inf).min(axis=1)
    w1 = np.full(m + 1, 1.0 / m)
    w1[[0, -1]] = 0.5 / m
    got = tau_p(f, Q2, 0.25, 1.0, m)
    assert got == pytest.approx(float(np.outer(w1, w1).reshape(-1) @ osc), abs=1e-15)
    assert got == pytest.approx(0.3608, abs=1e-4)


def test_tau_p_monotone_in_p():
    f = lambda p: np.abs(p[:, 0] - 0.3)
    t1 = tau_p(f, I, 0.2, 1.0, 500)
    t2 = tau_p(f, I, 0.2, 2.0, 500)
    sup = omega1(f, I, 0.2, 500)
    assert t1 <= t2 + 1e-12 <= sup + 2e-3


def test_omega_kp_identity_oracle():
    # first difference of id at step h is h; L^1 over the surviving
    # window [0, 1-h] gives h(1-h) -> max at h = 1/2
    assert omega_kp(ID, I, 1, 0.5, 1.0, 2000) == pytest.approx(0.25, abs=1e-12)


@pytest.mark.parametrize("dom,m", [(I, 1024), (Q2, 32), (Q3, 16)])
def test_omega_kp_square_oracle(dom, m):
    # omega_{1,1}(t^2, delta) = delta (1 - delta) for delta <= 1/2, at the
    # axis step of length delta; Delta_h t^2 = 2 t h + h^2 is affine, so
    # the box's trapezoid rule is exact
    deltas = np.array([0.0625, 0.125, 0.25, 0.5])
    got = omega_kp(SQ, dom, 1, deltas, 1.0, m)
    np.testing.assert_allclose(got, deltas * (1.0 - deltas), rtol=0.0, atol=1e-12)


def test_omega_kp_second_order_kills_affine():
    f = lambda p: 0.2 + 3.0 * p[:, 0]
    assert omega_kp(f, I, 2, 0.4, 2.0, 400) <= 1e-12


@pytest.mark.parametrize("dom", [I, Q2, K2, K3])
def test_omega_kp_evaluates_f_once_on_the_grid(dom):
    seen = []

    def f(p):
        seen.append(p.copy())
        return np.sin(p.sum(axis=1) + p[:, 0] ** 2)

    m = 6
    got = omega_kp(f, dom, 2, np.array([0.2, 0.5]), 1.5, m)
    assert len(seen) == 1
    np.testing.assert_array_equal(seen[0], uniform_grid(dom, m))
    assert got.tolist() == omega_kp(f, dom, 2, np.array([0.2, 0.5]), 1.5, m).tolist()


def _omega_kp_reference(f, dom, k, delta, p, m):
    """Every offset j with |j| <= delta m, both signs; each valid row
    i (i + k j on the grid) weighed by the product trapezoid rule of the
    valid box on I and Q_d, and by the simplex grid's equal weights."""
    idx = np.rint(uniform_grid(dom, m) * m).astype(int)
    row = {tuple(i): r for r, i in enumerate(idx.tolist())}
    fv = f(uniform_grid(dom, m))
    coeffs = moduli.difference_coeffs(k)
    best = 0.0
    for j in np.indices((2 * m + 1,) * dom.dim).reshape(dom.dim, -1).T - m:
        if not 0 < (j**2).sum() <= (delta * m) ** 2 * (1 + 1e-12):
            continue
        total = 0.0
        for i in idx:
            if tuple(i + k * j) not in row:
                continue
            diff = sum(c * fv[row[tuple(i + l * j)]] for l, c in enumerate(coeffs))
            if dom.kind == "simplex":
                weight = dom.volume / len(idx)
            else:
                lo, hi = np.maximum(0, -k * j), m - np.maximum(0, k * j)
                weight = np.prod([(hi[a] > lo[a]) * (0.5 if i[a] in (lo[a], hi[a]) else 1.0) / m
                                  for a in range(dom.dim)])
            total += weight * abs(diff) ** p
        best = max(best, total ** (1.0 / p))
    return best


@pytest.mark.parametrize("dom", [I, Q2, Q3, K2, K3])
def test_omega_kp_walks_half_the_lattice_steps(dom):
    # a step and its negative give the same norm, so the half offsets
    # reach the maximum over every lattice step
    f = lambda p: np.exp(p[:, 0] - 2.0 * p.sum(axis=1) ** 2)
    m = {1: 12, 2: 6, 3: 4}[dom.dim]
    for k, delta in ((1, 0.4), (2, 0.6), (3, 1.0)):
        expect = _omega_kp_reference(f, dom, k, delta, 1.5, m)
        assert omega_kp(f, dom, k, delta, 1.5, m) == pytest.approx(expect, rel=1e-12)


def test_moduli_argument_validation():
    with pytest.raises(ConfigError):
        omega_kp(ID, I, 0, 0.1, 1.0, 100)
    with pytest.raises(ConfigError):
        omega_kp(ID, I, 1, -0.1, 1.0, 100)
    with pytest.raises(ConfigError):
        omega_kp(ID, I, 1, 0.1, 0.5, 100)
    with pytest.raises(ConfigError, match="m must be >= 2"):
        omega1(ID, I, 0.1, 1)


def test_omega_kp_rejects_orders_whose_coefficients_overflow():
    # C(k, l) used to overflow as a float from k = 1030 with a bare
    # OverflowError; C(1029, 514) is the last central coefficient that fits
    top = moduli.difference_coeffs(1029)
    assert np.all(np.isfinite(top)) and np.abs(top).max() == float(math.comb(1029, 514))
    for k in (1030, 2000):
        with pytest.raises(ConfigError, match=f"k = {k} is too large"):
            omega_kp(ID, I, k, 0.1, 1.0, 20)


_MODULI = {
    "omega1": lambda delta, p: omega1(SQ, I, delta, 20),
    "omega2": lambda delta, p: omega2(SQ, I, delta, 20),
    "tau_p": lambda delta, p: tau_p(SQ, I, delta, p, 20),
    "omega_kp": lambda delta, p: omega_kp(SQ, I, 1, delta, p, 20),
}


@pytest.mark.parametrize("name", sorted(_MODULI))
def test_moduli_reject_nan_arguments(name):
    # tau_p used to return nan and omega_kp 0.0 at p = nan
    call = _MODULI[name]
    bad = [(math.nan, 1.0), (np.array([0.25, math.nan]), 1.0), (np.array([0.25, 0.0]), 1.0)]
    if name in ("tau_p", "omega_kp"):
        bad.append((0.25, math.nan))
    for delta, p in bad:
        with pytest.raises(ConfigError, match="delta must be positive|p must be >= 1"):
            call(delta, p)
    assert call(np.array([0.25]), 1.0).tolist() == [call(0.25, 1.0)]


def test_lipschitz_estimate():
    f = lambda p: np.abs(p[:, 0] - 0.5)
    assert lipschitz_estimate(f, I, 500) == pytest.approx(1.0, abs=1e-12)
    g = lambda p: p[:, 0] + p[:, 1]
    # |g(x)-g(y)| <= |x1-y1| + |x2-y2|, with equality along the axes
    assert lipschitz_estimate(g, Q2, 30) == pytest.approx(1.0, abs=1e-12)


def _all_pairs_l1_max(fv, pts):
    """Reference: the largest |f(x)-f(y)| / |x-y|_1 over every pair of
    grid rows, the distance summed over the axes in axis order."""
    a, b = np.triu_indices(len(pts), k=1)
    dist = sum(np.abs(x[a] - x[b]) for x in pts.T)
    return float(np.max(np.abs(fv[a] - fv[b]) / dist))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_lipschitz_estimate_is_the_all_pairs_maximum(data):
    dom = data.draw(st.sampled_from([I, Q2, Q3, K2, K3]))
    m = data.draw(st.integers(2, {1: 12, 2: 6, 3: 4}[dom.dim]))
    pts = uniform_grid(dom, m)
    coords = st.floats(-5.0, 5.0)
    kind = data.draw(st.sampled_from(["grid values", "affine", "abs_dist"]))
    if kind == "grid values":
        fv = np.array(data.draw(st.lists(coords, min_size=len(pts), max_size=len(pts))))
    elif kind == "affine":
        g = np.array(data.draw(st.lists(coords, min_size=dom.dim, max_size=dom.dim)))
        fv = data.draw(coords) + pts @ g
    else:
        c = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=dom.dim, max_size=dom.dim)))
        fv = np.abs(pts - c).sum(axis=1)
    est = lipschitz_estimate(lambda p: fv, dom, m)
    ref = _all_pairs_l1_max(fv, pts)
    # the axis pairs' quotients are among the reference's, bit for bit; a
    # longer pair's quotient is their weighted mean, up to its rounding
    assert est <= ref <= est * (1.0 + 4.0 * np.finfo(float).eps)


def test_lipschitz_estimate_walks_the_pair_kernel_on_unit_offsets(monkeypatch):
    walked = []

    def record(k, m):
        walked.append(list(k))
        return boxes(k, m)

    boxes = moduli._boxes
    monkeypatch.setattr(moduli, "_boxes", record)
    for dom in (I, Q2, Q3, K2, K3):
        walked.clear()
        assert lipschitz_estimate(lambda p: p.sum(axis=1), dom, 5) == pytest.approx(1.0)
        # one box pair for each of the d unit offsets, in lexicographic order
        assert walked == np.eye(dom.dim, dtype=int)[::-1].tolist()


def test_scaled_metric_on_hypercube():
    # the hypercube modulus scale is sqrt(d): radial distance reaches
    # delta * sqrt(2) between opposite corners
    f = lambda p: p.sum(axis=1)
    w = omega1(f, Q2, math.sqrt(2.0), 40)
    assert w == pytest.approx(2.0, abs=1e-12)


# ---------------------------------------------------------------------------
# the pair kernel and its consumers against loops over every pair


def _index_rows(dom, n):
    """The index tuple of each row of ``uniform_grid(dom, n)``, and the
    row of each index tuple."""
    idx = [tuple(t) for t in np.rint(uniform_grid(dom, n) * n).astype(int).tolist()]
    return idx, {t: r for r, t in enumerate(idx)}


def _pairs(dom, m):
    """Every pair of rows ``p < q`` of ``uniform_grid(dom, m)``, as
    ``(p, q, k, i, rows2)``: ``k`` is the index offset ``i_q - i_p`` (its
    first non-zero entry is positive), ``i`` is ``i_p``, and ``rows2`` are
    the rows of ``2 i_p``, ``2 i_q`` and ``2 i_p + k`` in
    ``uniform_grid(dom, 2m)``."""
    idx, _ = _index_rows(dom, m)
    _, row2 = _index_rows(dom, 2 * m)
    for p in range(len(idx)):
        for q in range(p + 1, len(idx)):
            k = tuple(b - a for a, b in zip(idx[p], idx[q]))
            mids = tuple(2 * a + c for a, c in zip(idx[p], k))
            rows2 = (row2[tuple(2 * a for a in idx[p])], row2[tuple(2 * b for b in idx[q])],
                     row2[mids])
            yield p, q, k, idx[p], rows2


def _within(k, radius):
    return sum(c * c for c in k) <= radius * radius * moduli._RADIUS_SLACK


_FILTERS = {
    "all": _MODES["convex"],
    "ball": lambda ks: (ks**2).sum(axis=1) <= 4,
    "coordinate": _MODES["coordinate_convex"],
    "axial": _MODES["axially_convex"],
}
# asymmetric ops, so that a swapped operand shows
_PLAIN_OPS = (lambda a, b: np.abs(a - b), lambda a, b: a - 2.0 * b)
_MID_OPS = (lambda a, b, mid: mid - 0.5 * (a + b), lambda a, b, mid: a - 3.0 * b + 0.5 * mid)


def _loop_extrema(dom, m, ks, op, v, midpoints):
    """The largest ``op`` over each offset's pairs, NaN for none, by a
    loop over every pair; ``v`` holds the values on the scanned grid."""
    best = {tuple(k): math.nan for k in ks.tolist()}
    for p, q, k, _, rows2 in _pairs(dom, m):
        if k in best:
            val = float(op(*(v[r] for r in rows2)) if midpoints else op(v[p], v[q]))
            best[k] = val if math.isnan(best[k]) else max(best[k], val)
    return np.array(list(best.values()))


def _visits(dom, m, ks, midpoints):
    """The rows ``(a, b)``, or ``(a, b, mid)``, of every pair whose values
    the kernel hands its op, one entry per visit."""
    n = 2 * m if midpoints else m
    codes = np.arange(len(uniform_grid(dom, n)), dtype=float)
    seen = []

    def op(*views):
        views = np.broadcast_arrays(*views)
        keep = ~(np.isnan(views[0]) | np.isnan(views[1]))
        seen.extend(zip(*(v[keep].astype(int).tolist() for v in views)))
        return views[0] - views[1]

    _extrema(op, _scan_grid(codes, dom, m, n // m)[0], ks, midpoints)
    return seen


# one piece at these grid sizes, and pieces of 7 elements
@pytest.mark.parametrize("block", [1 << 16, 7])
@pytest.mark.parametrize("name", sorted(_FILTERS))
@pytest.mark.parametrize("dom,m", [(I, 6), (Q2, 4), (Q3, 3), (K2, 5), (K3, 3)])
def test_pair_blocks_yield_each_admitted_pair_once(dom, m, name, block, monkeypatch):
    # the kernel's per-offset extrema, plain and with midpoints, are those
    # of a loop over all pairs, bit for bit, and it visits each admitted
    # pair once; at the default element budget and at `block`
    ks = _half_offsets(dom.dim, m)
    ks = ks[_FILTERS[name](ks)]
    rng = np.random.default_rng(m + 10 * dom.dim)
    v = rng.normal(size=len(uniform_grid(dom, m)))
    v2 = rng.normal(size=len(uniform_grid(dom, 2 * m)))
    expect = [_loop_extrema(dom, m, ks, op, v, False) for op in _PLAIN_OPS]
    expect2 = [_loop_extrema(dom, m, ks, op, v2, True) for op in _MID_OPS]
    admitted = {tuple(k) for k in ks.tolist()}
    pairs = sorted((p, q) for p, q, k, _, _ in _pairs(dom, m) if k in admitted)
    triples = sorted(rows2 for _, _, k, _, rows2 in _pairs(dom, m) if k in admitted)
    for budget in (moduli._BUDGET, block):
        monkeypatch.setattr(moduli, "_BUDGET", budget)
        t, t2 = _scan_grid(v, dom, m)[0], _scan_grid(v2, dom, m, 2)[0]
        for op, ext in zip(_PLAIN_OPS, expect):
            np.testing.assert_array_equal(_extrema(op, t, ks), ext)
        for op, ext in zip(_MID_OPS, expect2):
            np.testing.assert_array_equal(_extrema(op, t2, ks, midpoints=True), ext)
        assert sorted(_visits(dom, m, ks, False)) == pairs
        assert sorted(_visits(dom, m, ks, True)) == triples


def test_the_kernel_keeps_its_temporaries_within_the_budget(monkeypatch):
    # I's run of 40 offsets one offset at a time, and Q3's runs and single
    # offsets in slices of the first axis, none above 64 elements
    monkeypatch.setattr(moduli, "_BUDGET", 64)
    rng = np.random.default_rng(7)
    for dom, m in ((I, 40), (Q3, 5)):
        sizes = []

        def op(a, b):
            sizes.append(np.broadcast(a, b).size)
            return a - 2.0 * b

        v = rng.normal(size=len(uniform_grid(dom, m)))
        ks = _half_offsets(dom.dim, m)
        ks = ks[_FILTERS["coordinate"](ks)]
        got = _extrema(op, _scan_grid(v, dom, m)[0], ks)
        np.testing.assert_array_equal(got, _loop_extrema(dom, m, ks, _PLAIN_OPS[1], v, False))
        assert len(sizes) >= len(ks) and max(sizes) <= 64


# small grids, rich in rounding and in ties
_F = {
    "wave": lambda p: np.sin(7.0 * p[:, 0] + 3.0 * p.sum(axis=1) ** 2),
    "steps": lambda p: np.floor(3.0 * p.sum(axis=1)) - p[:, 0],
}
_SMALL = [(I, 9), (Q2, 5), (K2, 6)]
_DELTAS = np.array([0.2, 0.35, 0.5, 1.0, 1.5])


def _omega_refs(f, dom, m):
    """omega1 and omega2 at _DELTAS by loops over all pairs."""
    fv, fv2 = f(uniform_grid(dom, m)), f(uniform_grid(dom, 2 * m))
    w1, w2 = np.zeros(len(_DELTAS)), np.zeros(len(_DELTAS))
    for p, q, k, _, (a, b, mid) in _pairs(dom, m):
        for r, delta in enumerate(_DELTAS.tolist()):
            if _within(k, delta * m):
                w1[r] = max(w1[r], abs(fv[p] - fv[q]))
            if _within(k, 2.0 * delta * m):
                w2[r] = max(w2[r], abs(fv2[a] + fv2[b] - 2.0 * fv2[mid]))
    return w1, w2


@pytest.mark.parametrize("fname", sorted(_F))
@pytest.mark.parametrize("dom,m", _SMALL)
def test_omega1_and_omega2_are_the_all_pairs_maxima_bit_for_bit(dom, m, fname):
    w1, w2 = _omega_refs(_F[fname], dom, m)
    assert omega1(_F[fname], dom, _DELTAS, m).tolist() == w1.tolist()
    assert omega2(_F[fname], dom, _DELTAS, m).tolist() == w2.tolist()


@pytest.mark.parametrize("p", [1.0, 2.5])
@pytest.mark.parametrize("fname", sorted(_F))
@pytest.mark.parametrize("dom,m", _SMALL)
def test_tau_p_is_the_ball_oscillation_norm_bit_for_bit(dom, m, fname, p):
    pts = uniform_grid(dom, m)
    fv = _F[fname](pts)
    idx, _ = _index_rows(dom, m)
    w = (np.full(len(pts), dom.volume / len(pts)) if dom.kind == "simplex"
         else uniform_product_grid(dom, m).weights)
    deltas = _DELTAS[_DELTAS * m >= 2.0]
    expect = []
    for delta in deltas.tolist():
        near = [[s for s in range(len(idx))
                 if _within([b - a for a, b in zip(idx[r], idx[s])], delta * m / 2.0)]
                for r in range(len(idx))]
        hi = np.array([max(fv[s] for s in ball) for ball in near])
        lo = np.array([min(fv[s] for s in ball) for ball in near])
        expect.append(float(((hi - lo) ** p * w).sum() ** (1.0 / p)))
    assert tau_p(_F[fname], dom, deltas, p, m).tolist() == expect


def _omega_kp_exact_reference(f, dom, k, deltas, p, m):
    """omega_kp by a loop over the half offsets and the rows ``i`` with
    ``i + k j`` on the grid, in C order: each term summed left to right
    over l, each weight the product of the axes' trapezoid weights in
    axis order (the simplex grid's equal weight on K_d), and the weighted
    terms of one offset summed as one array."""
    idx, row = _index_rows(dom, m)
    fv = f(uniform_grid(dom, m))
    coeffs = moduli.difference_coeffs(k)
    norms = {}
    for j in _half_offsets(dom.dim, m).tolist():
        accs, weights = [], []
        for i in idx:
            if tuple(a + k * c for a, c in zip(i, j)) not in row:
                continue
            acc = coeffs[0] * fv[row[i]]
            for l, c in enumerate(coeffs[1:], 1):
                acc = acc + c * fv[row[tuple(a + l * b for a, b in zip(i, j))]]
            if dom.kind == "simplex":
                weight = dom.volume / len(idx)
            else:
                weight = 1.0
                for a, c in zip(i, j):
                    lo, steps = max(-k * c, 0), m - k * abs(c)
                    weight = weight * (0.0 if steps == 0 else
                                       0.5 / m if a in (lo, lo + steps) else 1.0 / m)
            accs.append(acc)
            weights.append(weight)
        norms[tuple(j)] = float((np.abs(np.array(accs)) ** p * np.array(weights)).sum()
                                ** (1.0 / p))
    return [max([0.0] + [v for j, v in norms.items() if _within(j, delta * m)])
            for delta in deltas.tolist()]


@pytest.mark.parametrize("k,p", [(1, 1.0), (2, 1.5), (3, 2.0)])
@pytest.mark.parametrize("fname", sorted(_F))
@pytest.mark.parametrize("dom,m", _SMALL + [(Q3, 3), (K3, 4)])
def test_omega_kp_is_the_lattice_step_maximum_bit_for_bit(dom, m, fname, k, p, monkeypatch):
    # at the default element budget, and at budgets that split each run
    # into groups of one offset (7) or a few (64)
    expect = _omega_kp_exact_reference(_F[fname], dom, k, _DELTAS, p, m)
    got = omega_kp(_F[fname], dom, k, _DELTAS, p, m).tolist()
    assert got == expect
    for budget in (7, 64):
        monkeypatch.setattr(moduli, "_BUDGET", budget)
        assert omega_kp(_F[fname], dom, k, _DELTAS, p, m).tolist() == got == expect


@pytest.mark.parametrize("dom,m", [(I, 1024), (Q2, 32), (K2, 32)])
def test_omega_kp_temporaries_stay_small(dom, m):
    # the benchmark's moduli of t^2: omega_kp's peak (about 0.25-0.3 MiB)
    # stays below omega2's on the same grid (0.6-0.7 MiB), so it does not
    # set the moduli's high-water mark
    tracemalloc.start()
    try:
        omega_kp(SQ, dom, 1, np.array([0.0625, 0.125, 0.25, 0.5]), 1.0, m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


_NO_NUMPY_MA_SCRIPT = """
import sys
import numpy as np
from kantorov.geometry import Domain
from kantorov.moduli import lipschitz_estimate, omega1, omega2, omega_kp, tau_p

f = lambda p: np.sin(3.0 * p.sum(axis=1))
for dom in (Domain.interval(), Domain.hypercube(2), Domain.simplex(2)):
    deltas = np.array([0.25, 0.5])
    omega1(f, dom, deltas, 8), omega2(f, dom, deltas, 8), lipschitz_estimate(f, dom, 8)
    tau_p(f, dom, deltas, 2.0, 8), omega_kp(f, dom, 2, deltas, 1.5, 8)
print("numpy.ma" in sys.modules)
"""


def test_the_moduli_import_no_numpy_ma():
    # numpy's plain np.unique calls np.ma.is_masked, whose first import
    # cost tau_p about 13 ms and 1.3 MB
    src = os.path.dirname(os.path.dirname(moduli.__file__))
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _NO_NUMPY_MA_SCRIPT],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


@pytest.mark.parametrize("fname", sorted(_F))
@pytest.mark.parametrize("dom,m", _SMALL + [(Q3, 3), (K3, 4)])
def test_lipschitz_estimate_is_the_axis_step_maximum_bit_for_bit(dom, m, fname):
    pts = uniform_grid(dom, m)
    fv = _F[fname](pts)
    best = 0.0
    for p, q, k, _, _ in _pairs(dom, m):
        if sorted(k) == [0] * (dom.dim - 1) + [1]:
            dist = sum(abs(x - y) for x, y in zip(pts[p].tolist(), pts[q].tolist()))
            best = max(best, abs(fv[p] - fv[q]) / dist)
    assert lipschitz_estimate(_F[fname], dom, m) == best


def _convexity_reference(g, dom, mode, m):
    """The worst midpoint violation over the mode's pairs, and the first
    pair attaining it: first offset in lexicographic order, then first
    row in C order."""
    pts2 = uniform_grid(dom, 2 * m)
    g2 = g(pts2)
    keep = _MODES[mode]
    scan = sorted((k, i, g2[mid] - 0.5 * (g2[a] + g2[b]), a, b)
                  for _, _, k, i, (a, b, mid) in _pairs(dom, m) if keep(np.array([k]))[0])
    worst = max(s[2] for s in scan)
    _, _, _, a, b = next(s for s in scan if s[2] == worst)
    return worst, (pts2[a], pts2[b])


_CONVEXITY = {
    "wave": _F["wave"],
    "steps": _F["steps"],
    "constant": lambda p: np.full(len(p), 0.25),
    # violations depend on the first coordinate's step alone: many ties
    "first axis": lambda p: -((p[:, 0] - 0.5) ** 2),
}


@pytest.mark.parametrize("gname", sorted(_CONVEXITY))
@pytest.mark.parametrize("dom,m,mode", [(I, 9, "convex"), (Q2, 5, "convex"),
                                        (Q2, 5, "coordinate_convex"), (K2, 6, "convex"),
                                        (K2, 6, "axially_convex")])
def test_convexity_report_is_the_all_pairs_scan_bit_for_bit(dom, m, mode, gname):
    g = _CONVEXITY[gname]
    worst, (x, y) = _convexity_reference(g, dom, mode, m)
    rep = convexity_report(g, dom, mode, m)
    assert rep.worst_violation == worst
    # the witness is the reference's first pair, and it attains the worst violation
    assert rep.witness[0].tolist() == x.tolist() and rep.witness[1].tolist() == y.tolist()
    idx, row2 = _index_rows(dom, 2 * m)
    g2 = g(uniform_grid(dom, 2 * m))
    a, b = (row2[tuple(np.rint(z * 2 * m).astype(int).tolist())] for z in rep.witness)
    mid = row2[tuple((np.array(idx[a]) + np.array(idx[b])) // 2)]
    assert g2[mid] - 0.5 * (g2[a] + g2[b]) == rep.worst_violation
