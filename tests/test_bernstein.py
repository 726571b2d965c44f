import decimal
import itertools
import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kantorov import bernstein
from kantorov.analysis import lp_grid
from kantorov.bernstein import (
    apply_lattice_values,
    basis,
    basis_weights,
    eval_Bn,
    lattice_points,
)
from kantorov.errors import ConfigError, NumericError
from kantorov.geometry import Domain, ProductGrid, uniform_grid
from kantorov.kantorovich import OperatorConfig, eval_Cn
from kantorov.measures import constant_lebesgue

I = Domain.interval()
Q2 = Domain.hypercube(2)
Q3 = Domain.hypercube(3)
K2 = Domain.simplex(2)
K3 = Domain.simplex(3)


def _case_id(dom: Domain) -> str:
    """Test id of a domain case: ``interval1`` for I, which is the 1-cube,
    else its kind and dimension."""
    return "interval1" if dom == I else f"{dom.kind}{dom.dim}"

ALL = (I, Q2, Q3, K2, K3)


def test_basis_hand_values():
    assert basis(I, 2, [1], [0.5]) == pytest.approx(0.5, abs=1e-15)
    # product of two 1d factors
    assert basis(Q2, 2, [1, 2], [0.5, 0.5]) == pytest.approx(0.5 * 0.25, abs=1e-15)
    # trinomial: 2!/(1!1!0!) x y (1-x-y)^0 at (1/2,1/4) -> hand value
    assert basis(K2, 2, [1, 1], [0.5, 0.25]) == pytest.approx(0.25, abs=1e-15)
    assert basis(K2, 2, [2, 0], [0.75, 0.25]) == pytest.approx(0.5625, abs=1e-15)


def test_basis_index_validation():
    with pytest.raises(ConfigError):
        basis(I, 2, [3], [0.5])
    with pytest.raises(ConfigError):
        basis(K2, 2, [2, 1], [0.25, 0.25])  # index sum exceeds n


def test_lattice_points():
    np.testing.assert_allclose(lattice_points(I, 4)[:, 0], [0, 0.25, 0.5, 0.75, 1.0])
    assert lattice_points(Q2, 3).shape == (16, 2)
    assert lattice_points(K2, 3).shape == (10, 2)
    assert lattice_points(K3, 2).shape == (10, 3)


def test_simplex_lattice_is_colexicographic():
    for d in (1, 2, 3):
        for n in range(21):
            expect = [list(rev[::-1]) for rev in itertools.product(range(n + 1), repeat=d)
                      if sum(rev) <= n]
            got = bernstein.lattice(Domain.simplex(d), n)
            assert got.dtype == int and got.tolist() == expect, (d, n)


def test_cached_lattice_is_read_only():
    # a write into the cached array would move every later C_n on I
    for dom in ALL:
        assert not bernstein.lattice(dom, 3).flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        bernstein.lattice(I, 8)[:] = 0
    cfg = OperatorConfig(I, 1.0, constant_lebesgue())
    assert eval_Cn(cfg, 8, lambda p: p[:, 0], 0.5) == pytest.approx(0.5, abs=1e-15)


@pytest.mark.parametrize("dom", ALL, ids=_case_id)
@pytest.mark.parametrize("n", [1, 3, 9])
def test_partition_of_unity(dom, n):
    xs = uniform_grid(dom, 5)
    w = basis_weights(dom, n, xs)
    assert w.shape == (xs.shape[0], lattice_points(dom, n).shape[0])
    assert np.all(w >= 0.0)
    np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-12)


def test_partition_of_unity_log_path():
    # n above the direct cutoff exercises the log branch: interior, face
    # and vertex points (on I the faces are the vertices)
    t = np.array([[0.0], [1e-9], [0.1], [1 / 3], [0.5], [0.7], [1 - 1e-6], [1.0]])
    tri = np.array([[0.2, 0.3], [1 / 3, 1 / 3], [0.01, 0.98],  # interior
                    [0.0, 0.4], [0.3, 0.0], [0.5, 0.5],  # faces
                    [0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])  # vertices
    for dom, n, xs in ((I, 61, t), (I, 128, t), (I, 150, t), (I, 1500, t),
                       (I, 150, uniform_grid(I, 4)), (K2, 64, tri), (K2, 150, tri),
                       (K2, 150, uniform_grid(K2, 4))):
        w = basis_weights(dom, n, xs)
        assert np.all(w >= 0.0)
        np.testing.assert_allclose(w.sum(axis=1), 1.0, rtol=0, atol=1e-13)


def _unity_points(dom):
    """Points of ``dom``, with coordinates on the faces; on the simplex
    also on the face |x| = 1 and up to ``BOUNDARY_TOL`` beyond it."""
    d = dom.dim
    coord = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 1.0]))
    cube = st.lists(coord, min_size=d, max_size=d).map(np.array)
    if dom.kind != "simplex":
        return cube
    positive = st.lists(st.floats(0.01, 1.0), min_size=d, max_size=d).map(np.array)

    def beyond(u, i, excess):
        x = u / u.sum()
        x[i] += excess
        return x

    return st.one_of(cube.map(lambda u: u / max(1.0, u.sum())),
                     st.builds(beyond, positive, st.integers(0, d - 1), st.floats(0.0, 0.9e-12)))


@pytest.mark.parametrize("dom", ALL, ids=_case_id)
@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_basis_is_a_partition_of_unity(dom, data):
    n = data.draw(st.integers(1, 128), label="n")
    xs = np.array(data.draw(st.lists(_unity_points(dom), min_size=1, max_size=4), label="xs"))
    nodes = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3), label="nodes"))
    ones = np.ones(lattice_points(dom, n).shape[0])
    w = basis_weights(dom, n, xs)
    assert np.all(w >= 0.0)
    np.testing.assert_allclose(w.sum(axis=1), 1.0, rtol=0, atol=1e-13)
    np.testing.assert_allclose(apply_lattice_values(dom, n, ones, xs), 1.0, rtol=0, atol=1e-13)
    grid = ProductGrid(dom, nodes, np.ones(nodes.size))
    np.testing.assert_allclose(apply_lattice_values(dom, n, ones, grid), 1.0, rtol=0, atol=1e-13)


def _assert_within_one_ulp(logs, ints):
    ctx = decimal.Context(prec=50)
    for got, c in zip(logs, ints):
        exact = ctx.ln(decimal.Decimal(c))
        assert abs(decimal.Decimal(got) - exact) <= decimal.Decimal(math.ulp(float(exact))), c


@pytest.mark.parametrize("n", [61, 64, 128, 1000, 2000])
def test_log_binomial_row_is_within_one_ulp(n):
    # from n = 1030 on C(n, n/2) no longer fits a float; math.log of such
    # an integer alone lands up to 1.2 ulp off
    _assert_within_one_ulp(bernstein._log_binom_row(n), [math.comb(n, k) for k in range(n + 1)])


def _exact_simplex_basis(n, pts):
    """``n!/(h! (n-|h|)!) x^h (1-|x|)^(n-|h|)`` at each point, over the
    multi-indices ``|h| <= n`` in colexicographic order, from exact
    integers, each rounded once to a float."""
    d = len(pts[0])
    idx = [h[::-1] for h in itertools.product(range(n + 1), repeat=d) if sum(h) <= n]
    idx = [(*h, n - sum(h)) for h in idx]
    fact = [math.factorial(i) for i in range(n + 1)]
    coeffs = [fact[n] // math.prod(fact[i] for i in h) for h in idx]
    out = []
    for x in pts:
        xf = [Fraction(float(v)) for v in x]
        den = math.lcm(*(v.denominator for v in xf))
        num = [int(v * den) for v in xf]
        powers = [[p**k for k in range(n + 1)] for p in (*num, den - sum(num))]
        scale = den**n
        out.append([c * math.prod(pw[k] for pw, k in zip(powers, h)) / scale
                    for c, h in zip(coeffs, idx)])
    return np.array(out)


SIMPLEX_POINTS = {
    2: [[0.2, 0.3], [1 / 3, 1 / 3], [0.125, 0.375],  # interior
        [0.0, 0.4], [0.3, 0.0], [0.25, 0.75],  # faces
        [0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],  # vertices
    3: [[0.1, 0.2, 0.3], [0.25, 0.25, 0.25], [0.125, 0.375, 0.25],
        [0.0, 0.5, 0.25], [0.3, 0.0, 0.4], [0.25, 0.5, 0.25],
        [0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
}


@pytest.mark.parametrize("dom,n", [(K2, 16), (K2, 64), (K2, 128), (K3, 16), (K3, 64)],
                         ids=["K2-16", "K2-64", "K2-128", "K3-16", "K3-64"])
def test_simplex_basis_matches_exact_multinomials(dom, n):
    # the multinomial form, independent of the collapsed product the
    # package evaluates (n = 64, 128 pass _DIRECT_N)
    pts = SIMPLEX_POINTS[dom.dim]
    ref = _exact_simplex_basis(n, pts)
    tol = 1e-15 + np.where(ref > 1e-12, 1e-13 * ref, 0.0)
    assert np.all(np.abs(basis_weights(dom, n, pts) - ref) <= tol)


_NO_SCIPY_SCRIPT = """
import sys
import numpy as np
import kantorov.cli
from kantorov.catalog import lookup
from kantorov.geometry import Domain
from kantorov.kantorovich import OperatorConfig, eval_Cn
from kantorov.measures import constant_lebesgue

K2 = Domain.simplex(2)
cfg = OperatorConfig(K2, 1.0, constant_lebesgue())
value = eval_Cn(cfg, 64, lookup("exp_sum", (), K2), np.array([0.2, 0.3]))
assert np.isfinite(value), value
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_cli_and_the_log_path_import_no_scipy():
    # the log branch (n = 64 > _DIRECT_N) took its coefficients from
    # scipy.special.gammaln, whose import was most of the CLI's start-up
    src = os.path.dirname(os.path.dirname(bernstein.__file__))
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _NO_SCIPY_SCRIPT],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[]"]


def test_face_points_large_n():
    # boundary points keep exact 0/1 weights in the log branch
    w = basis_weights(I, 200, np.array([[0.0], [1.0]]))
    assert w[0, 0] == 1.0 and w[0, 1:].max() == 0.0
    assert w[1, -1] == 1.0 and w[1, :-1].max() == 0.0


def test_bn_reproduces_affine():
    for dom in ALL:
        xs = uniform_grid(dom, 4)
        g = np.arange(1, dom.dim + 1, dtype=float)
        f = lambda p: 0.3 + p @ g
        for n in (1, 2, 7):
            np.testing.assert_allclose(eval_Bn(dom, n, f, xs), f(xs), atol=1e-13)


def test_bn_interval_square():
    # B_n(t^2)(x) = x^2 + x(1-x)/n
    xs = uniform_grid(I, 10)
    for n in (1, 2, 5, 40):
        expect = xs[:, 0] ** 2 + xs[:, 0] * (1.0 - xs[:, 0]) / n
        np.testing.assert_allclose(eval_Bn(I, n, lambda p: p[:, 0] ** 2, xs), expect, atol=1e-13)
    assert eval_Bn(I, 2, lambda p: p[:, 0] ** 2, [0.5]) == pytest.approx(0.375, abs=1e-15)


def test_bn_hypercube_product():
    # S_d factorizes, so B_n(xy) = B_n(x) B_n(y) = xy exactly
    xs = uniform_grid(Q2, 6)
    got = eval_Bn(Q2, 3, lambda p: p[:, 0] * p[:, 1], xs)
    np.testing.assert_allclose(got, xs[:, 0] * xs[:, 1], atol=1e-13)


def test_bn_simplex_product_correction():
    # on the simplex B_n(xy) = (1 - 1/n) xy
    xs = uniform_grid(K2, 6)
    for n in (1, 2, 5):
        got = eval_Bn(K2, n, lambda p: p[:, 0] * p[:, 1], xs)
        np.testing.assert_allclose(got, (1.0 - 1.0 / n) * xs[:, 0] * xs[:, 1], atol=1e-13)


def test_bn_square_moment_all_domains():
    # B_n(pr_i^2) = pr_i^2 + pr_i(1 - pr_i)/n whenever T(pr_i^2) = pr_i
    for dom in (I, Q2, K2, K3):
        xs = uniform_grid(dom, 4)
        for i in range(dom.dim):
            got = eval_Bn(dom, 6, lambda p, i=i: p[:, i] ** 2, xs)
            expect = xs[:, i] ** 2 + xs[:, i] * (1.0 - xs[:, i]) / 6.0
            np.testing.assert_allclose(got, expect, atol=1e-13)


def test_scalar_and_batch_agree():
    f = lambda p: np.exp(p.sum(axis=1))
    for dom in (I, Q2, K2):
        xs = uniform_grid(dom, 3)
        batch = eval_Bn(dom, 4, f, xs)
        single = [eval_Bn(dom, 4, f, x) for x in xs]
        np.testing.assert_allclose(batch, single, atol=1e-13)


def test_apply_lattice_values_matches_weights():
    rng = np.random.default_rng(7)
    for dom in (I, Q2, Q3, K2):
        n = 5
        xs = uniform_grid(dom, 4)
        vals = rng.normal(size=lattice_points(dom, n).shape[0])
        direct = basis_weights(dom, n, xs) @ vals
        np.testing.assert_allclose(apply_lattice_values(dom, n, vals, xs), direct, atol=1e-12)


@pytest.mark.parametrize("dom", (K2, K3), ids=_case_id)
def test_simplex_contraction_builds_no_basis(dom, monkeypatch):
    rng = np.random.default_rng(5)
    xs = rng.dirichlet(np.ones(dom.dim + 1), 50)[:, : dom.dim]
    grid = lp_grid(dom, 2)
    cases = []
    for n in (3, 16, 64 if dom.dim == 2 else 20):
        vals = rng.uniform(-1.0, 1.0, lattice_points(dom, n).shape[0])
        cases.append((n, vals, basis_weights(dom, n, xs) @ vals,
                      basis_weights(dom, n, grid.points) @ vals))

    def refuse(*args):
        raise AssertionError("basis values built for a contraction")

    monkeypatch.setattr(bernstein, "basis_weights", refuse)
    monkeypatch.setattr(bernstein, "_basis_columns", refuse)
    for n, vals, at_points, on_grid in cases:
        np.testing.assert_allclose(apply_lattice_values(dom, n, vals, xs), at_points, atol=1e-13)
        np.testing.assert_allclose(apply_lattice_values(dom, n, vals, grid), on_grid, atol=1e-13)


def test_bn_rejects_nonfinite_values():
    bad = lambda p: np.where(p[:, 0] > 0.9, np.nan, p[:, 0])
    with pytest.raises(NumericError, match="lattice"):
        eval_Bn(I, 10, bad, [0.5])


def test_bn_monotone_in_x_for_monotone_f():
    xs = np.linspace(0.0, 1.0, 21)[:, None]
    vals = eval_Bn(I, 8, lambda p: np.abs(p[:, 0] - 0.5), xs)
    # symmetric convex data: operator output symmetric and dips at 1/2
    np.testing.assert_allclose(vals, vals[::-1], atol=1e-13)
    assert vals.min() == pytest.approx(vals[10], abs=1e-13)


GRID_CASES = [(I, 1), (I, 9), (I, 150), (Q2, 1), (Q2, 7), (Q2, 40), (Q3, 1), (Q3, 5),
              (Q3, 16), (K2, 1), (K2, 7), (K2, 33), (K2, 64), (K2, 80), (K3, 1),
              (K3, 6), (K3, 12)]


@pytest.mark.parametrize("dom,n", GRID_CASES, ids=lambda c: str(c) if isinstance(c, int)
                         else _case_id(c))
def test_grid_contraction_matches_scattered_points(dom, n):
    # the contraction on lp_norm's grid, on shared nodes, equals the
    # per-point one at the grid's points (n = 64, 80 pass _DIRECT_N)
    grid = lp_grid(dom, 4 if dom.dim == 3 else 8)
    vals = np.random.default_rng(n).uniform(-1.0, 1.0, lattice_points(dom, n).shape[0])
    got = apply_lattice_values(dom, n, vals, grid)
    scattered = apply_lattice_values(dom, n, vals, grid.points)
    assert got.shape == (len(grid),)
    np.testing.assert_allclose(got, scattered, rtol=0.0, atol=1e-13)


def test_grid_contraction_partition_of_unity():
    for dom in ALL:
        grid = ProductGrid(dom, np.array([0.0, 0.3, 1.0]), np.full(3, 1.0 / 3.0))
        ones = np.ones(lattice_points(dom, 5).shape[0])
        np.testing.assert_allclose(apply_lattice_values(dom, 5, ones, grid), 1.0, atol=1e-14)


def test_grid_contraction_checks_domain():
    with pytest.raises(ConfigError, match="grid domain"):
        apply_lattice_values(Q2, 2, np.ones(9), lp_grid(K2, 2))


@pytest.mark.parametrize("dom", ALL, ids=_case_id)
def test_contraction_checks_lattice_size(dom):
    size = lattice_points(dom, 3).shape[0]
    for x in (np.full(dom.dim, 0.25), np.full((2, dom.dim), 0.25), lp_grid(dom, 2)):
        for bad in (np.ones(size - 1), np.ones(size + 1), np.ones((size, 1))):
            with pytest.raises(ConfigError, match=f"the {size} multi-indices"):
                apply_lattice_values(dom, 3, bad, x)


def test_scattered_cube_contraction_is_chunked(monkeypatch):
    # on three axes, Q3 and K3, blocks of _CHUNK rows give the same
    # values as one block
    xs = np.random.default_rng(3).uniform(0.0, 1.0, size=(203, 3))
    for dom, pts in ((Q3, xs), (K3, xs / np.maximum(1.0, xs.sum(axis=1, keepdims=True)))):
        vals = np.random.default_rng(4).normal(size=lattice_points(dom, 6).shape[0])
        monkeypatch.setattr(bernstein, "_CHUNK", 2048)
        whole = apply_lattice_values(dom, 6, vals, pts)
        monkeypatch.setattr(bernstein, "_CHUNK", 16)
        chunked = apply_lattice_values(dom, 6, vals, pts)
        np.testing.assert_allclose(chunked, whole, rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(chunked, basis_weights(dom, 6, pts) @ vals, atol=1e-13)


@pytest.mark.parametrize("dom", (I, Q2, K2), ids=_case_id)
@pytest.mark.parametrize("bad", (np.nan, np.inf, -np.inf))
def test_nonfinite_coordinates_rejected(dom, bad):
    xs = np.full((2, dom.dim), 0.25)
    xs[1, -1] = bad
    vals = np.ones(lattice_points(dom, 3).shape[0])
    with pytest.raises(ConfigError, match="non-finite"):
        apply_lattice_values(dom, 3, vals, xs)
    with pytest.raises(ConfigError, match="non-finite"):
        basis_weights(dom, 3, xs)
