import math

import numpy as np
import pytest

from kantorov.catalog import catalog_names, lookup
from kantorov.errors import ConfigError
from kantorov.geometry import Domain, uniform_grid
from kantorov.moduli import lipschitz_estimate, omega1

I = Domain.interval()
Q2 = Domain.hypercube(2)
K2 = Domain.simplex(2)


def test_names_are_stable():
    names = catalog_names()
    assert "abs_dist" in names and "monomial" in names and "runge" in names
    assert names == sorted(names)


def test_unknown_name():
    with pytest.raises(ConfigError, match="unknown catalog function"):
        lookup("wiggle", [], I)


def test_constant_and_affine_values():
    c = lookup("constant", [0.7], Q2)
    np.testing.assert_allclose(c(uniform_grid(Q2, 3)), 0.7)
    f = lookup("affine", [0.25, 1.0, -0.5], Q2)
    np.testing.assert_allclose(f(np.array([[0.5, 0.5]])), [0.5])
    with pytest.raises(ConfigError, match="takes 3 parameter"):
        lookup("affine", [0.25, 1.0], Q2)  # needs d+1 parameters


def test_monomial():
    f = lookup("monomial", [1, 3], I)
    np.testing.assert_allclose(f(np.array([[0.5]])), [0.125])
    with pytest.raises(ConfigError, match="coordinate index"):
        lookup("monomial", [2, 2], I)  # axis out of range
    with pytest.raises(ConfigError, match="exponent"):
        lookup("monomial", [1, 0], I)


def test_abs_dist_center_checked():
    f = lookup("abs_dist", [0.5], I)
    np.testing.assert_allclose(f(np.array([[0.1]])), [0.4])
    with pytest.raises(ConfigError, match="outside the domain"):
        lookup("abs_dist", [0.7, 0.7], K2)  # outside the simplex
    g = lookup("abs_dist", [0.25, 0.25], K2)
    np.testing.assert_allclose(g(np.array([[0.5, 0.5]])), [0.5])


@pytest.mark.parametrize("name, params, domain, match", [
    ("wiggle", [], I, "unknown catalog function"),
    ("constant", [], I, "takes 1 parameter"),
    ("constant", [0.5, 0.5], I, "takes 1 parameter"),
    ("monomial", [1], Q2, "takes 2 parameter"),
    ("monomial", [1, 2.5], Q2, "exponent"),
    ("monomial", [1.5, 2], Q2, "coordinate index"),
    ("abs_dist", [0.5], Q2, "takes 2 parameter"),
    ("abs_dist", [0.5, 1.5], Q2, "outside the domain"),
    ("abs_dist_coord", [1, 1.5], Q2, r"\[0, 1\]"),
    ("abs_dist_coord", [3, 0.5], Q2, "coordinate index"),
    ("exp_sum", [1.0], Q2, "takes 0 parameter"),
    ("product12", [], I, "dim >= 2"),
    ("abs_diff12", [], I, "dim >= 2"),
    ("constant", ["x"], I, "must be numbers"),
    ("constant", [None], I, "must be numbers"),
    ("constant", [10**400], I, "must be numbers"),
    ("constant", [math.nan], I, "must be finite"),
    ("affine", [0.0, math.inf], I, "must be finite"),
])
def test_parameter_errors_are_config_errors(name, params, domain, match):
    with pytest.raises(ConfigError, match=match):
        lookup(name, params, domain)


def test_eval_accepts_single_point():
    f = lookup("exp_sum", [], Q2)
    assert f(np.array([0.5, 0.5])) == pytest.approx(math.e)


def test_meta_flags():
    assert lookup("abs_diff12", [], K2).meta.axially_convex
    assert not lookup("product12", [], Q2).meta.convex
    assert lookup("product12", [], Q2).meta.coordinate_convex
    assert not lookup("runge", [], I).meta.convex
    assert lookup("exp_sum", [], K2).meta.convex


def test_axis_kinks_are_declared_on_the_interval_and_cube():
    Q3 = Domain.hypercube(3)
    assert lookup("abs_dist", [0.3], I).meta.breakpoints == (0.3,)
    assert lookup("abs_dist", [0.5, 0.25, 1.0], Q3).meta.breakpoints == (0.5, 0.25, 1.0)
    assert lookup("abs_dist_coord", [2, 0.75], Q2).meta.breakpoints == (None, 0.75)
    # the simplex, a diagonal kink and smooth functions declare none
    assert lookup("abs_dist", [0.3, 0.3], K2).meta.breakpoints is None
    assert lookup("abs_dist_coord", [1, 0.5], K2).meta.breakpoints is None
    for name, params in (("abs_diff12", []), ("exp_sum", []), ("product12", [])):
        assert lookup(name, params, Q2).meta.breakpoints is None


def test_exact_omega_matches_grid_estimate():
    # sampled modulus approaches the closed form from below
    cases = [
        ("abs_dist", [0.5], I),
        ("abs_dist_coord", [1, 0.25], Q2),
        ("monomial", [1, 2], I),
        ("exp_sum", [], I),
        ("affine", [0.0, -2.0], I),
    ]
    for name, params, dom in cases:
        f = lookup(name, params, dom)
        assert f.meta.exact_omega is not None
        m = 200 if dom.dim == 1 else 40
        for delta in (0.1, 0.35, 0.8):
            exact = f.meta.exact_omega(delta)
            grid = omega1(f, dom, delta, m)
            assert grid <= exact + 1e-12
            assert grid >= exact - 0.03 * max(exact, 1.0)


def test_lipschitz_meta_is_an_upper_bound():
    for name, params, dom in [
        ("abs_dist", [0.5], I),
        ("product12", [], Q2),
        ("abs_diff12", [], K2),
        ("runge", [], I),
        ("exp_sum", [], Q2),
    ]:
        f = lookup(name, params, dom)
        est = lipschitz_estimate(f, dom, 120 if dom.dim == 1 else 24)
        assert est <= f.meta.lipschitz_l1 + 1e-9


def test_runge_lipschitz_constant():
    # max |d/dt 1/(1+25 t^2)| = 50 t/(1+25 t^2)^2 at t = 1/(5 sqrt 3)
    f = lookup("runge", [], I)
    est = lipschitz_estimate(f, I, 4000)
    assert est == pytest.approx(f.meta.lipschitz_l1, abs=5e-4)
    assert f.meta.lipschitz_l1 == pytest.approx(15.0 * math.sqrt(3.0) / 8.0)


def test_catalog_function_is_hashable():
    f = lookup("abs_dist", [0.5], I)
    g = lookup("abs_dist", [0.5], I)
    assert hash(f) != hash(g) or f is not g  # identity hashing, no value eq
    d = {f: 1, g: 2}
    assert len(d) == 2
