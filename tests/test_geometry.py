import math

import numpy as np
import pytest

from kantorov.errors import ConfigError, NumericError
from kantorov.measures import apply_rule
from kantorov.geometry import (
    Domain,
    ProductGrid,
    contains,
    gauss01,
    quadrature_rule,
    simplex_from_cube,
    trapezoid_weights,
    uniform_grid,
    uniform_product_grid,
)

I = Domain.interval()
Q2 = Domain.hypercube(2)
Q3 = Domain.hypercube(3)
K2 = Domain.simplex(2)
K3 = Domain.simplex(3)


def test_domain_constructors():
    assert I.dim == 1 and I.kind == "interval"
    assert Q2.dim == 2 and K3.dim == 3
    with pytest.raises(ConfigError):
        Domain.hypercube(0)
    with pytest.raises(ConfigError):
        Domain.simplex(4)  # capped at dim 3


def test_volume_and_diameter():
    assert I.volume == 1.0
    assert Q3.volume == 1.0
    assert K2.volume == 0.5
    assert K3.volume == pytest.approx(1.0 / 6.0)
    assert I.diameter == 1.0
    assert Q2.diameter == pytest.approx(math.sqrt(2.0))
    assert K2.diameter == pytest.approx(math.sqrt(2.0))
    assert Domain.simplex(1).diameter == 1.0


def test_vertices():
    np.testing.assert_array_equal(I.vertices(), [[0.0], [1.0]])
    v = Q2.vertices()
    np.testing.assert_array_equal(v, [[0, 0], [0, 1], [1, 0], [1, 1]])
    v = K2.vertices()
    np.testing.assert_array_equal(v, [[0, 0], [1, 0], [0, 1]])


def test_contains():
    assert contains(I, [0.5]) and contains(I, [0.0]) and contains(I, [1.0])
    assert not contains(I, [1.0 + 1e-9])
    assert contains(K2, [0.5, 0.5])
    assert not contains(K2, [0.6, 0.5])
    # fsum keeps near-boundary barycentric points exact
    assert contains(K3, [1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0])


def test_uniform_grid_interval():
    g = uniform_grid(I, 4)
    np.testing.assert_allclose(g[:, 0], [0.0, 0.25, 0.5, 0.75, 1.0])


def test_uniform_grid_counts():
    assert uniform_grid(Q2, 5).shape == (36, 2)
    # simplex keeps the points with coordinate sum <= 1
    assert uniform_grid(K2, 5).shape == (21, 2)
    assert uniform_grid(K3, 4).shape == (35, 3)


def _trapezoid_weights(d, m):
    """The tensor trapezoid weights on the ``(m+1)^d`` grid, one axis at a time."""
    w1 = np.full(m + 1, 1.0 / m)
    w1[0] = w1[-1] = 0.5 / m
    w = w1
    for _ in range(d - 1):
        w = (w[:, None] * w1[None, :]).reshape(-1)
    return w


@pytest.mark.parametrize("dom", (I, Q2, Q3), ids=lambda d: f"{d.kind}{d.dim}")
@pytest.mark.parametrize("m", [1, 4, 7, 40])
def test_uniform_product_grid_is_the_uniform_grid(dom, m):
    grid = uniform_product_grid(dom, m)
    assert np.array_equal(grid.points, uniform_grid(dom, m))
    assert np.array_equal(grid.weights, _trapezoid_weights(dom.dim, m))


def test_uniform_product_grid_refuses_the_simplex_and_m_0():
    with pytest.raises(ConfigError, match="simplex"):
        uniform_product_grid(K2, 4)
    with pytest.raises(ConfigError, match="m must be"):
        uniform_product_grid(Q2, 0)


@pytest.mark.parametrize("m", [3, 7, 13])
def test_uniform_grid_simplex_stays_inside(m):
    for dom in (K2, K3):
        pts = uniform_grid(dom, m)
        assert all(contains(dom, p) for p in pts)


def test_quadrature_positive_weights():
    for dom in (I, Q2, K2, K3):
        rule = quadrature_rule(dom, 6)
        assert np.all(rule.weights > 0.0)
        assert all(contains(dom, p) for p in rule.points)


def test_trapezoid_weights():
    np.testing.assert_array_equal(trapezoid_weights(4, 8), [1 / 16, 1 / 8, 1 / 8, 1 / 8, 1 / 16])
    assert trapezoid_weights(0, 8).tolist() == [0.0]  # a lone node spans no length
    assert isinstance(quadrature_rule(K2, 3), ProductGrid)


def test_quadrature_normalization():
    # weights integrate the constant 1 to the domain volume
    for dom in (I, Q2, Q3, K2, K3):
        rule = quadrature_rule(dom, 5)
        assert math.fsum(rule.weights) == pytest.approx(dom.volume, abs=1e-14)


@pytest.mark.parametrize(
    "dom,expo,value",
    [
        (I, (3,), 0.25),                 # int t^3 = 1/4
        (Q2, (2, 4), (1 / 3) * (1 / 5)),
        (K2, (1, 1), 1.0 / 24.0),        # int_{K2} x y = 1/24
        (K2, (2, 0), 1.0 / 12.0),
        (K3, (1, 1, 1), 1.0 / 720.0),
    ],
)
def test_quadrature_monomials(dom, expo, value):
    rule = quadrature_rule(dom, 8)
    f = lambda p: np.prod(p ** np.asarray(expo), axis=1)
    assert math.fsum((rule.weights * f(rule.points)).tolist()) == pytest.approx(value, abs=1e-14)


def test_simplex_quadrature_degree():
    # level L integrates total degree 2L-1 exactly through the cube map
    for level in (2, 4):
        rule = quadrature_rule(K2, level)
        deg = 2 * level - 1
        exact = (
            math.factorial(deg) * math.factorial(0)
            / math.factorial(deg + 0 + 2)
        )  # int x^deg over K2 = deg! / (deg+2)!
        got = math.fsum((rule.weights * rule.points[:, 0] ** deg).tolist())
        assert got == pytest.approx(exact, rel=1e-13)


def test_simplex_from_cube_jacobian():
    # pushing the cube rule through the map reproduces simplex volume
    u = uniform_grid(Q2, 50) * 0.999 + 0.0005
    x, jac = simplex_from_cube(u)
    assert x.shape == u.shape and jac.shape == (u.shape[0],)
    assert np.all(jac >= 0.0)
    assert all(contains(K2, p) for p in x)


def test_integrate_rejects_nonfinite():
    rule = quadrature_rule(I, 4)
    with np.errstate(divide="ignore"):
        with pytest.raises(NumericError) as err:
            apply_rule(rule.points, rule.weights, lambda p: 1.0 / (p[:, 0] - rule.points[0, 0]))
    assert err.value.point is not None


def test_gauss01_is_cached_and_read_only():
    x, w = gauss01(5)
    assert gauss01(5)[0] is x and gauss01(5)[1] is w
    assert not x.flags.writeable and not w.flags.writeable
    assert math.fsum(w) == pytest.approx(1.0, abs=1e-15)
    assert float(w @ x**9) == pytest.approx(0.1, abs=1e-15)  # exact to degree 9
    with pytest.raises(ValueError):
        x[0] = 0.0


def test_product_grid_points_and_weights():
    nodes, weights = np.array([0.25, 0.75]), np.array([0.5, 0.5])
    cube = ProductGrid(Q2, nodes, weights)
    np.testing.assert_array_equal(cube.points, [[0.25, 0.25], [0.25, 0.75],
                                                [0.75, 0.25], [0.75, 0.75]])
    np.testing.assert_allclose(cube.weights, 0.25)
    tri = ProductGrid(K2, nodes, weights)
    mapped, jac = simplex_from_cube(cube.points)
    np.testing.assert_array_equal(tri.points, mapped)
    np.testing.assert_allclose(tri.weights, 0.25 * jac)
    assert len(tri) == 4 and tri.shape == (4, 2)
    with pytest.raises(ConfigError):
        ProductGrid(I, np.array([0.5, 1.5]), weights)
    with pytest.raises(ConfigError):
        ProductGrid(I, nodes, np.ones(3))


def _meshgrid_tensor(nodes_1d, weights_1d, d):
    """The product rule built with meshgrid and stack, axis by axis."""
    grids = np.meshgrid(*([nodes_1d] * d), indexing="ij")
    nodes = np.stack([g.reshape(-1) for g in grids], axis=1)
    weights = np.ones(nodes.shape[0])
    for wg in np.meshgrid(*([weights_1d] * d), indexing="ij"):
        weights = weights * wg.reshape(-1)
    return nodes, weights


@pytest.mark.parametrize("dom", (I, Q2, Q3, Domain.simplex(1), K2, K3),
                         ids=lambda d: f"{d.kind}{d.dim}")
def test_product_grid_bytes_equal_the_meshgrid_construction(dom):
    rng = np.random.default_rng(dom.dim)
    nodes, weights = np.sort(rng.uniform(0.0, 1.0, 9)), rng.uniform(0.1, 1.0, 9)
    grid = ProductGrid(dom, nodes, weights)
    ref_nodes, ref_weights = _meshgrid_tensor(nodes, weights, dom.dim)
    if dom.kind == "simplex":
        ref_nodes, jac = simplex_from_cube(ref_nodes)
        ref_weights = ref_weights * jac
    assert grid.points.flags.c_contiguous and grid.points.shape == ref_nodes.shape
    assert grid.points.tobytes() == ref_nodes.tobytes()
    assert grid.weights.tobytes() == ref_weights.tobytes()
