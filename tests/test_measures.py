import math
from fractions import Fraction

import numpy as np
import pytest

from kantorov.errors import ConfigError
from kantorov.geometry import Domain, quadrature_rule
from kantorov.measures import (
    BASE_LEVEL,
    MAX_RULE_NODES,
    MeasureSeqSpec,
    MeasureSpec,
    check_rule_budget,
    constant_lebesgue,
    dirac,
    dirac_shift,
    discrete_measure,
    discrete_spec,
    exact_degree,
    explicit_list,
    integrate_measure,
    is_discrete,
    lebesgue_measure,
    measure_nodes,
    power_measure,
    power_of_base,
    resolve,
    rule_node_count,
    splits,
)

I = Domain.interval()
Q2 = Domain.hypercube(2)
Q3 = Domain.hypercube(3)
K2 = Domain.simplex(2)
K3 = Domain.simplex(3)

COIN = discrete_measure([[0.0], [1.0]], [0.5, 0.5], I)


def test_discrete_measure_validation():
    with pytest.raises(ConfigError, match="not 1"):
        discrete_measure([[0.0], [1.0]], [0.6, 0.6], I)  # weights must sum to 1
    with pytest.raises(ConfigError, match="outside"):
        discrete_measure([[0.5], [2.0]], [0.5, 0.5], I)
    with pytest.raises(ConfigError, match=">= 0"):
        discrete_measure([[0.25], [0.75]], [1.25, -0.25], I)
    with pytest.raises(ConfigError, match="length mismatch"):
        discrete_measure([[0.25], [0.75]], [1.0], I)


@pytest.mark.parametrize("atoms,weights", [
    ([[0.2], [0.8]], [math.nan, 0.5]),
    ([[0.2], [0.8]], [math.inf, 0.5]),
    ([[math.nan], [0.8]], [0.5, 0.5]),
    ([[math.inf], [0.8]], [0.5, 0.5]),
])
def test_discrete_measure_rejects_non_finite_atoms_and_weights(atoms, weights):
    # abs(nan - 1) > tol is False, so a NaN weight used to pass the sum test
    with pytest.raises(ConfigError, match="finite"):
        discrete_measure(atoms, weights)


def test_dirac():
    mu = dirac([0.25, 0.5], Q2)
    np.testing.assert_array_equal(mu.atoms, [[0.25, 0.5]])
    assert mu.weights[0] == 1.0


def test_power_measure_validation():
    with pytest.raises(ConfigError, match="integer >= 1"):
        power_measure(lebesgue_measure(), 0)
    with pytest.raises(ConfigError, match="nested"):
        power_measure(power_measure(lebesgue_measure(), 2), 2)  # no nesting
    with pytest.raises(ConfigError, match="unknown measure kind"):
        MeasureSpec("power")
    with pytest.raises(ConfigError, match="needs a DiscreteMeasure"):
        MeasureSpec("discrete")
    with pytest.raises(ConfigError, match="unknown measure sequence kind"):
        MeasureSeqSpec("constant_lebesgue")
    with pytest.raises(ConfigError, match="needs its measure"):
        MeasureSeqSpec("constant")
    with pytest.raises(ConfigError, match="point rule"):
        MeasureSeqSpec("dirac_shift")
    with pytest.raises(ConfigError, match="at least one measure"):
        explicit_list([])


def test_power_one_is_the_base():
    coin = discrete_spec(COIN)
    for mu in (lebesgue_measure(), coin):
        assert power_measure(mu, 1) == mu and power_measure(mu, 1).exponent == 1
    assert power_measure(coin, 1).discrete is COIN
    assert power_measure(coin, 3) != coin and power_measure(coin, 3).discrete is COIN
    # a constant sequence resolves to its one measure at every n
    seq = power_of_base(coin, 2)
    assert resolve(seq, 1) is resolve(seq, 9) and resolve(seq, 9) == power_measure(coin, 2)


def _same_bits(got, want):
    return got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("dom", [I, Q2, Q3, K2, K3], ids=lambda d: f"{d.kind}{d.dim}")
def test_lebesgue_rule_is_the_quadrature_rule_bitwise(dom):
    # exponent 1 of the B-spline product rule is Gauss-Legendre on I and
    # Q_d; on K_d the 1-fold tensor is the collapsed rule, of mass 1
    mass = math.factorial(dom.dim) if dom.kind == "simplex" else 1
    for level in (1, 2, 5, 8, 16):
        nodes, weights = measure_nodes(lebesgue_measure(), dom, level)
        rule = quadrature_rule(dom, level)
        assert _same_bits(nodes, rule.points)
        assert _same_bits(weights, rule.weights * mass)


def test_discrete_rule_is_its_atoms_bitwise():
    rng = np.random.default_rng(7)
    atoms = rng.uniform(0.0, 0.5, size=(3, 2))
    w = rng.uniform(0.2, 1.0, size=3)
    for mu, dom in ((COIN, I), (discrete_measure(atoms, w / w.sum(), K2), K2)):
        nodes, weights = measure_nodes(discrete_spec(mu), dom, 5)
        assert _same_bits(nodes, mu.atoms) and _same_bits(weights, mu.weights)


_LEB2 = power_measure(lebesgue_measure(), 2)


@pytest.mark.parametrize("dom,mu,cut,degree", [
    # Gauss with 8 nodes per axis: 2L - 1
    (I, lebesgue_measure(), False, 15),
    (Q3, lebesgue_measure(), False, 15),
    # B-spline power rule: 2L - k
    (I, _LEB2, False, 14),
    (Q2, power_measure(lebesgue_measure(), 3), False, 13),
    # a cut rule: its floor(L/2) half
    (I, lebesgue_measure(), True, 7),
    (Q2, _LEB2, True, 6),
    # collapsed simplex rule and its tensor powers: 2L - 1 for every k
    (K2, lebesgue_measure(), False, 15),
    (K3, lebesgue_measure(), False, 15),
    (K2, _LEB2, False, 15),
    # a discrete rule is exact at every degree
    (I, discrete_spec(COIN), False, math.inf),
    (I, power_measure(discrete_spec(COIN), 3), False, math.inf),
])
def test_exact_degree_of_each_rule_at_the_base_level(dom, mu, cut, degree):
    assert BASE_LEVEL == 8
    assert exact_degree(mu, dom, BASE_LEVEL, cut) == degree


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
    with pytest.raises(ConfigError, match="outside"):
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
    nodes, weights = measure_nodes(mu, I, level=4)
    assert is_discrete(mu)
    order = np.argsort(nodes[:, 0])
    np.testing.assert_allclose(nodes[order, 0], [0.0, 0.5, 1.0])
    np.testing.assert_allclose(weights[order], [0.25, 0.5, 0.25])


def test_rule_node_count_matches_the_rule():
    # is_discrete decides the rule's kind for both measure_nodes and
    # rule_node_count, which must agree on its size
    tri = discrete_spec(discrete_measure([[0.0], [0.5], [1.0]], [0.25, 0.5, 0.25], I))
    for mu, discrete in ((discrete_spec(COIN), True), (tri, True),
                         (power_measure(tri, 3), True),
                         (lebesgue_measure(), False),
                         (power_measure(lebesgue_measure(), 2), False)):
        assert is_discrete(mu) is discrete
        for dom in ((I,) if discrete else (I, Q2, K2)):
            nodes, weights = measure_nodes(mu, dom, 3)
            assert len(nodes) == weights.size == rule_node_count(mu, dom, 3)


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
    for dom in (I, Q2, Q3, K2):
        measures = [lebesgue_measure(), power_measure(lebesgue_measure(), 2)]
        if dom.kind != "simplex":
            measures.append(power_measure(lebesgue_measure(), 3))
        if dom == I:
            measures += [discrete_spec(COIN), power_measure(discrete_spec(COIN), 3)]
        for mu in measures:
            nodes, _ = measure_nodes(mu, dom, level=5)
            assert rule_node_count(mu, dom, 5) == nodes.shape[0]


def mean_of_uniforms_density(k):
    """Density of the mean of k uniforms on [0, 1] in exact rationals, as
    ``(lo, hi, coeffs)`` per knot interval, ``coeffs[m]`` the coefficient
    of t^m (the Irwin-Hall truncated-power sum, rescaled to [0, 1])."""
    pieces = []
    for j in range(k):
        coeffs = [Fraction(0)] * k
        for i in range(j + 1):
            # k/(k-1)! (-1)^i C(k, i) (k t - i)^(k-1)
            scale = Fraction(k * (-1) ** i * math.comb(k, i), math.factorial(k - 1))
            for m in range(k):
                coeffs[m] += scale * math.comb(k - 1, m) * k**m * (-i) ** (k - 1 - m)
        pieces.append((Fraction(j, k), Fraction(j + 1, k), coeffs))
    return pieces


def exact_moment(k, j):
    """E T^j for T the mean of k uniforms on [0, 1]."""
    return sum(
        c * (hi ** (m + j + 1) - lo ** (m + j + 1)) / (m + j + 1)
        for lo, hi, coeffs in mean_of_uniforms_density(k)
        for m, c in enumerate(coeffs)
    )


def test_exact_density_oracle():
    # the triangle density 4t, 4(1 - t) of the mean of two uniforms
    assert mean_of_uniforms_density(2) == [
        (Fraction(0), Fraction(1, 2), [0, 4]),
        (Fraction(1, 2), Fraction(1), [4, -4]),
    ]
    assert exact_moment(3, 0) == 1 and exact_moment(3, 1) == Fraction(1, 2)
    assert exact_moment(4, 2) == Fraction(1, 4) + Fraction(1, 48)


@pytest.mark.parametrize("k", range(1, 13))
def test_power_of_lebesgue_rule_is_positive_with_exact_moments(k):
    # the alternating truncated-power sum, evaluated in floats, gives
    # negative weights at k = 8 on levels 16 and 32
    moments = [float(exact_moment(k, j)) for j in range(5)]
    for level in (8, 16, 32):
        mu = power_measure(lebesgue_measure(), k)
        nodes, weights = measure_nodes(mu, I, level)
        assert not is_discrete(mu) and nodes.shape == (level * k, 1)
        assert np.all(weights > 0.0)
        assert math.fsum(weights) == pytest.approx(1.0, abs=1e-14)
        t = nodes[:, 0]
        for j in range(5):
            got = math.fsum((weights * t**j).tolist())
            assert got == pytest.approx(moments[j], abs=1e-14)


def exact_mean_abs(k, t):
    """E|T - t| for T the mean of k uniforms on [0, 1], exact."""
    total = Fraction(0)
    for lo, hi, coeffs in mean_of_uniforms_density(k):
        mid = max(lo, min(hi, t))
        for u, v, sign in ((lo, mid, -1), (mid, hi, 1)):
            total += sign * sum(
                c * ((v ** (m + 2) - u ** (m + 2)) / (m + 2) - t * (v ** (m + 1) - u ** (m + 1)) / (m + 1))
                for m, c in enumerate(coeffs))
    return total


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_cut_rule_keeps_its_size_and_is_exact_on_each_side(k):
    # cuts inside a knot interval, on a knot, on an end and outside [0, 1];
    # each side of a cut has at least level // 2 nodes, which integrate the
    # degree k - 1 density, and |s - t| times it, exactly once 2 (level // 2) > k
    mu = lebesgue_measure() if k == 1 else power_measure(lebesgue_measure(), k)
    cuts = np.array([-0.25, 0.0, 0.1, 0.3, 0.5, 2 / 3, 0.77, 1.0, 1.5])
    for level in (1, 2, 5, 8, 16):
        (x,), (w,) = measure_nodes(mu, I, level, cuts=[cuts])
        assert x.shape == w.shape == (cuts.size, rule_node_count(mu, I, level))
        assert np.all(w > 0.0) and np.all((x >= 0.0) & (x <= 1.0))
        if 2 * (level // 2) > k:
            np.testing.assert_allclose(w.sum(axis=1), 1.0, rtol=0.0, atol=1e-14)
            want = [float(exact_mean_abs(k, Fraction(t))) for t in cuts]
            got = (w * np.abs(x - cuts[:, None])).sum(axis=1)
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-15)
    # an uncut axis keeps the shared rule
    (x, y), (wx, wy) = measure_nodes(mu, Q2, 4, cuts=[None, cuts])
    shared, sw = measure_nodes(mu, I, 4)
    np.testing.assert_array_equal(x, shared[:, 0])
    np.testing.assert_array_equal(wx, sw)
    assert y.shape == (cuts.size, 4 * k)


def test_cuts_split_only_inside_knot_intervals():
    # a cut within 1e-12 (in units of 1/k) of a knot counts as on it
    cuts = [0.25, 0.5 + 1e-9, 0.5 + 1e-14, 0.5 - 1e-14, 0.0, 1.0, -0.1, 1.2]
    assert splits(2, cuts).tolist() == [True, True, False, False, False, False, False, False]
    assert splits(1, cuts).tolist() == [True, True, True, True, False, False, False, False]


def test_cut_rules_need_lebesgue_on_the_interval_or_cube():
    for mu, dom in ((lebesgue_measure(), K2), (discrete_spec(COIN), I),
                    (power_measure(discrete_spec(COIN), 2), I)):
        with pytest.raises(ConfigError, match="cut rules"):
            measure_nodes(mu, dom, 4, cuts=[np.array([0.5])] * dom.dim)


def test_power_of_lebesgue_rule_is_a_product_over_axes():
    mu = power_measure(lebesgue_measure(), 3)
    n1, w1 = measure_nodes(mu, I, level=4)
    nodes, weights = measure_nodes(mu, Q2, level=4)
    np.testing.assert_array_equal(nodes[:, 0], np.repeat(n1[:, 0], 12))
    np.testing.assert_array_equal(nodes[:, 1], np.tile(n1[:, 0], 12))
    np.testing.assert_array_equal(weights, np.outer(w1, w1).reshape(-1))


def test_power_rule_node_budget_is_refused_before_any_work():
    # (8 * 20)^3 = 4,096,000 nodes on Q3 and (9^3)^3 on K3 at level 8
    for dom, k in ((Q3, 20), (K3, 3)):
        mu = power_measure(lebesgue_measure(), k)
        assert rule_node_count(mu, dom, 8) > MAX_RULE_NODES
        with pytest.raises(ConfigError, match="rule nodes"):
            check_rule_budget(mu, dom, 8)
        with pytest.raises(ConfigError, match="rule nodes"):
            measure_nodes(mu, dom, 8)
    # exponent 19 fits on Q3: (8 * 19)^3 = 3,511,808 nodes
    check_rule_budget(power_measure(lebesgue_measure(), 19), Q3, 8)


def test_measure_weights_sum_to_one():
    rng = np.random.default_rng(42)
    atoms = rng.uniform(0.0, 0.5, size=(3, 2))
    w = rng.uniform(0.2, 1.0, size=3)
    w /= w.sum()
    w[-1] = 1.0 - w[:-1].sum()
    disc = discrete_measure(atoms, w, K2)
    for mu in (lebesgue_measure(), discrete_spec(disc), power_measure(discrete_spec(disc), 2)):
        _, weights = measure_nodes(mu, K2, level=6)
        assert math.fsum(weights) == pytest.approx(1.0, abs=1e-12)
