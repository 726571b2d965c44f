import math

import numpy as np
import pytest

from kantorov.geometry import Domain, uniform_grid
from kantorov.markov import markov_values, selection, selection_weights

I = Domain.interval()
Q2 = Domain.hypercube(2)
Q3 = Domain.hypercube(3)
K2 = Domain.simplex(2)


def test_canonical_kinds():
    # each domain's T is supported on its vertices (2 on I, 2^d on Q_d,
    # d + 1 on K_d) and puts all mass on a vertex it is evaluated at
    for dom, count in ((I, 2), (Q2, 4), (Q3, 8), (K2, 3)):
        verts = dom.vertices()
        assert verts.shape == (count, dom.dim)
        np.testing.assert_array_equal(selection_weights(dom, verts), np.eye(count))


def test_interval_values():
    # (1-x) f(0) + x f(1) for f = t^2 is just x
    xs = np.linspace(0.0, 1.0, 11)[:, None]
    np.testing.assert_allclose(markov_values(I, lambda p: p[:, 0] ** 2, xs), xs[:, 0])


def test_hypercube_weights_match_products():
    w = selection_weights(Q2, np.array([[0.3, 0.8]]))
    # vertex order (0,0), (0,1), (1,0), (1,1)
    expect = [0.7 * 0.2, 0.7 * 0.8, 0.3 * 0.2, 0.3 * 0.8]
    np.testing.assert_allclose(w[0], expect)


def test_simplex_weights():
    w = selection_weights(K2, np.array([[0.2, 0.5]]))
    np.testing.assert_allclose(w[0], [0.3, 0.2, 0.5])


def test_weights_are_probabilities():
    for dom in (I, Q2, Q3, K2):
        w = selection_weights(dom, uniform_grid(dom, 7))
        assert np.all(w >= 0.0)
        np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-14)


def test_selection_measure():
    mu = selection(I, [0.25])
    np.testing.assert_allclose(mu.weights, [0.75, 0.25])
    np.testing.assert_array_equal(mu.atoms, I.vertices())


def test_apply_markov_scalar():
    # S2(xy) at x: product of coordinates again (vertex values 0,0,0,1)
    f = lambda p: p[:, 0] * p[:, 1]
    mu = selection(Q2, [0.3, 0.8])
    assert math.fsum(mu.weights * f(mu.atoms)) == pytest.approx(0.24, abs=1e-15)
    assert markov_values(Q2, f, [0.3, 0.8]) == pytest.approx(0.24, abs=1e-15)


def test_markov_squares_give_coordinates():
    # T(pr_i^2) = pr_i for all three canonical families
    for dom in (I, Q2, K2):
        xs = uniform_grid(dom, 9)
        for i in range(dom.dim):
            got = markov_values(dom, lambda p, i=i: p[:, i] ** 2, xs)
            np.testing.assert_allclose(got, xs[:, i], atol=1e-14)


def test_affine_functions_are_fixed():
    # T(h) = h for h in {1, pr_1, ..., pr_d}
    for dom in (I, Q2, Q3, K2):
        xs = uniform_grid(dom, 6)
        one = markov_values(dom, lambda p: np.ones(p.shape[0]), xs)
        np.testing.assert_allclose(one, 1.0, rtol=0.0, atol=1e-12)
        for i in range(dom.dim):
            got = markov_values(dom, lambda p, i=i: p[:, i], xs)
            np.testing.assert_allclose(got, xs[:, i], rtol=0.0, atol=1e-12)
