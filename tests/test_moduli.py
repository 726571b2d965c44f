import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kantorov import moduli
from kantorov.errors import ConfigError
from kantorov.analysis import _MODES
from kantorov.geometry import Domain, uniform_grid
from kantorov.moduli import (
    _half_offsets,
    _pair_blocks,
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
    m = data.draw(st.integers(1, {1: 12, 2: 6, 3: 4}[dom.dim]))
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

    def record(domain, m, ks, midpoints=False):
        walked.append(ks.tolist())
        return _pair_blocks(domain, m, ks, midpoints)

    monkeypatch.setattr(moduli, "_pair_blocks", record)
    for dom in (I, Q2, Q3, K2, K3):
        walked.clear()
        assert lipschitz_estimate(lambda p: p.sum(axis=1), dom, 5) == pytest.approx(1.0)
        # one walk, of the d unit offsets in lexicographic order
        assert walked == [np.eye(dom.dim, dtype=int)[::-1].tolist()]


def test_scaled_metric_on_hypercube():
    # the hypercube modulus scale is sqrt(d): radial distance reaches
    # delta * sqrt(2) between opposite corners
    f = lambda p: p.sum(axis=1)
    w = omega1(f, Q2, math.sqrt(2.0), 40)
    assert w == pytest.approx(2.0, abs=1e-12)


_FILTERS = {
    "all": _MODES["convex"],
    "ball": lambda ks: (ks**2).sum(axis=1) <= 4,
    "coordinate": _MODES["coordinate_convex"],
    "axial": _MODES["axially_convex"],
}


# one block at these grid sizes, and blocks of 7 pairs
@pytest.mark.parametrize("block", [1 << 16, 7])
@pytest.mark.parametrize("name", sorted(_FILTERS))
@pytest.mark.parametrize("dom,m", [(I, 6), (Q2, 4), (Q3, 3), (K2, 5), (K3, 3)])
def test_pair_blocks_yield_each_admitted_pair_once(dom, m, name, block, monkeypatch):
    monkeypatch.setattr(moduli, "_PAIRS_PER_BLOCK", block)
    keep = _FILTERS[name]
    idx = np.rint(uniform_grid(dom, m) * m).astype(int)
    idx2 = np.rint(uniform_grid(dom, 2 * m) * 2 * m).astype(int)
    # the m grid's index tuples, as rows of the 2m grid (index 2i)
    row2 = {tuple(t): r for r, t in enumerate(idx2.tolist())}
    even = [row2[tuple(2 * c for c in t)] for t in idx.tolist()]
    expect = set()
    for p in range(len(idx)):
        for q in range(p + 1, len(idx)):
            if keep((idx[q] - idx[p])[None, :])[0]:
                expect.add((p, q))
    ks = _half_offsets(dom.dim, m)
    pairs, pairs2 = [], []
    for a, b in _pair_blocks(dom, m, ks[keep(ks)]):
        pairs += zip(a.tolist(), b.tolist())
    for a, b, mid in _pair_blocks(dom, m, ks[keep(ks)], midpoints=True):
        assert a.shape == b.shape == mid.shape
        # a, b and mid are 2m rows: 2i, 2i + 2k and their midpoint 2i + k
        np.testing.assert_array_equal(2 * idx2[mid], idx2[a] + idx2[b])
        pairs2 += zip(a.tolist(), b.tolist())
    got = [(min(p, q), max(p, q)) for p, q in pairs]
    assert len(got) == len(set(got))
    assert set(got) == expect
    # the same pairs in the same order, each row as its 2m row
    assert pairs2 == [(even[p], even[q]) for p, q in pairs]
