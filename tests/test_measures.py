import math

import numpy as np
import pytest

from kantorov.errors import ConfigError
from kantorov.geometry import Domain
from kantorov.measures import (
    constant_lebesgue,
    dirac,
    dirac_shift,
    discrete_measure,
    discrete_spec,
    explicit_list,
    integrate_measure,
    lebesgue_measure,
    measure_nodes,
    power_measure,
    power_of_base,
    resolve,
    rule_node_count,
)

I = Domain.interval()
Q2 = Domain.hypercube(2)
K2 = Domain.simplex(2)

COIN = discrete_measure([[0.0], [1.0]], [0.5, 0.5], I)


def test_discrete_measure_validation():
    with pytest.raises(ValueError):
        discrete_measure([[0.0], [1.0]], [0.6, 0.6], I)  # weights must sum to 1
    with pytest.raises(ValueError):
        discrete_measure([[0.5], [2.0]], [0.5, 0.5], I)  # atom outside domain
    with pytest.raises(ValueError):
        discrete_measure([[0.25], [0.75]], [1.25, -0.25], I)


def test_dirac():
    mu = dirac([0.25, 0.5], Q2)
    np.testing.assert_array_equal(mu.atoms, [[0.25, 0.5]])
    assert mu.weights[0] == 1.0


def test_power_measure_validation():
    with pytest.raises(ValueError):
        power_measure(lebesgue_measure(), 0)
    with pytest.raises(ValueError):
        power_measure(power_measure(lebesgue_measure(), 2), 2)  # no nesting


def test_sequence_resolution():
    assert resolve(constant_lebesgue(), 7).kind == "lebesgue"
    seq = dirac_shift([0.25])
    mu = resolve(seq, 3, I)
    np.testing.assert_array_equal(mu.discrete.atoms, [[0.25]])
    seq = dirac_shift(lambda n: np.array([1.0 / (n + 1.0)]))
    np.testing.assert_allclose(resolve(seq, 3, I).discrete.atoms, [[0.25]])
    seq = explicit_list([lebesgue_measure(), discrete_spec(COIN)])
    assert resolve(seq, 2).kind == "discrete"
    with pytest.raises(ConfigError, match="explicit measure list"):
        resolve(seq, 3)


def test_dirac_shift_point_must_stay_inside():
    seq = dirac_shift(lambda n: np.array([2.0 / n]))
    resolve(seq, 2, I)
    with pytest.raises(ValueError):
        resolve(seq, 1, I)


@pytest.mark.parametrize(
    "dom,f,value",
    [
        (I, lambda p: p[:, 0] ** 2, 1.0 / 3.0),
        (Q2, lambda p: p[:, 0] * p[:, 1], 0.25),
        # normalized (probability) measure on the simplex: 2 * 1/24
        (K2, lambda p: p[:, 0] * p[:, 1], 1.0 / 12.0),
    ],
)
def test_lebesgue_integration_is_normalized(dom, f, value):
    assert integrate_measure(lebesgue_measure(), dom, f) == pytest.approx(value, abs=1e-13)


def test_discrete_integration():
    got = integrate_measure(discrete_spec(COIN), I, lambda p: 3.0 * p[:, 0] + 1.0)
    assert got == pytest.approx(2.5, abs=1e-15)


def test_power_of_discrete_matches_enumeration():
    # average of two fair coin flips: P(0)=1/4, P(1/2)=1/2, P(1)=1/4
    mu = power_measure(discrete_spec(COIN), 2)
    nodes, weights, exact = measure_nodes(mu, I, level=4)
    assert exact
    order = np.argsort(nodes[:, 0])
    np.testing.assert_allclose(nodes[order, 0], [0.0, 0.5, 1.0])
    np.testing.assert_allclose(weights[order], [0.25, 0.5, 0.25])


def test_power_of_discrete_third_moment():
    # E[((X1+X2)/2)^2] for fair coins = 0 * 1/4 + 1/4 * 1/2 + 1 * 1/4
    mu = power_measure(discrete_spec(COIN), 2)
    got = integrate_measure(mu, I, lambda p: p[:, 0] ** 2)
    assert got == pytest.approx(3.0 / 8.0, abs=1e-15)


def test_power_of_lebesgue_variance():
    # mean of a uniform average stays 1/2; variance contracts by 1/a
    for a in (2, 3):
        mu = power_measure(lebesgue_measure(), a)
        m1 = integrate_measure(mu, I, lambda p: p[:, 0])
        m2 = integrate_measure(mu, I, lambda p: p[:, 0] ** 2)
        assert m1 == pytest.approx(0.5, abs=1e-13)
        assert m2 - m1**2 == pytest.approx(1.0 / (12.0 * a), abs=1e-13)


def test_power_average_integral_agrees():
    # E exp((U_1 + U_2 + U_3)/3) = (E exp(U/3))^3 = (3 (e^(1/3) - 1))^3
    got = integrate_measure(power_measure(lebesgue_measure(), 3), I, lambda p: np.exp(p[:, 0]))
    assert got == pytest.approx((3.0 * math.expm1(1.0 / 3.0)) ** 3, rel=1e-12)


def test_rule_node_count_matches():
    for mu in (
        lebesgue_measure(),
        discrete_spec(COIN),
        power_measure(discrete_spec(COIN), 3),
        power_measure(lebesgue_measure(), 2),
    ):
        nodes, _, _ = measure_nodes(mu, I, level=5)
        assert rule_node_count(mu, I, 5) == nodes.shape[0]


def test_measure_weights_sum_to_one():
    rng = np.random.default_rng(42)
    atoms = rng.uniform(0.0, 0.5, size=(3, 2))
    w = rng.uniform(0.2, 1.0, size=3)
    w /= w.sum()
    w[-1] = 1.0 - w[:-1].sum()
    disc = discrete_measure(atoms, w, K2)
    for mu in (lebesgue_measure(), discrete_spec(disc), power_measure(discrete_spec(disc), 2)):
        _, weights, _ = measure_nodes(mu, K2, level=6)
        assert math.fsum(weights) == pytest.approx(1.0, abs=1e-12)
