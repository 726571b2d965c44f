import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kantorov.bernstein import eval_Bn, lattice
from kantorov.catalog import CatalogFunction, FunctionMeta, lookup
from kantorov.cli import _AFFINE_TOL, _QUADRATIC_TOL
from kantorov.errors import ConfigError
from kantorov.geometry import Domain, uniform_grid, values
from kantorov import kantorovich
from kantorov.kantorovich import (
    AffineForm,
    OperatorConfig,
    cn_affine_moment,
    cn_bilinear_moment,
    cn_quadratic_moment,
    coordinate_form,
    eval_Cn,
    eval_Cn_cells,
    eval_In,
    ladder_record,
    measure_moments,
)
from kantorov.measures import (
    BASE_LEVEL,
    constant_lebesgue,
    dirac_shift,
    discrete_measure,
    discrete_spec,
    exact_degree,
    explicit_list,
    integrate_measure,
    lebesgue_measure,
    measure_nodes,
    power_measure,
    power_of_base,
    resolve,
)

I = Domain.interval()
Q2 = Domain.hypercube(2)
Q3 = Domain.hypercube(3)
K2 = Domain.simplex(2)
K3 = Domain.simplex(3)

ID = lambda p: p[:, 0]
SQ = lambda p: p[:, 0] ** 2


def cfg_for(domain, a, measures=None):
    return OperatorConfig(domain, a, measures or constant_lebesgue())


KANT1 = cfg_for(I, 1.0)  # classical Kantorovich operators


def test_config_validation():
    with pytest.raises(ConfigError):
        cfg_for(I, -0.5)
    with pytest.raises(ConfigError):
        cfg_for(I, math.inf)
    with pytest.raises(ConfigError):
        cfg_for(I, 0.0, dirac_shift([0.5]))  # blend point needs a > 0


def test_affine_form():
    h = AffineForm(0.5, (2.0, -1.0))
    np.testing.assert_allclose(h(np.array([[0.25, 0.5]])), [0.5])
    assert float(h(np.array([0.25, 0.5]))[0]) == pytest.approx(0.5)
    assert coordinate_form(Q2, 1).gradient == (0.0, 1.0)


def test_blend_hand_values():
    # I_1(id)(1) = 1/2 + integral of t/2 dt = 3/4
    assert eval_In(KANT1, 1, ID, [1.0]) == pytest.approx(0.75, abs=1e-13)
    # n=3, Dirac at 1/4 blended with weight a/(n+a) = 1/4 at x = 0
    cfg = cfg_for(I, 1.0, dirac_shift([0.25]))
    assert eval_In(cfg, 3, ID, [0.0]) == pytest.approx(0.0625, abs=1e-15)


def test_spec_hand_values_interval():
    assert eval_Cn(KANT1, 1, ID, [0.0]) == pytest.approx(0.25, abs=1e-13)
    assert eval_Cn(KANT1, 1, SQ, [1.0]) == pytest.approx(7.0 / 12.0, abs=1e-13)
    assert eval_Cn_cells(KANT1, 1, ID, [0.0]) == pytest.approx(0.25, abs=1e-13)
    # a = 2: C_2(id)(1/2) = x n/(n+a) + a/(2(n+a)) = 1/2 stays fixed,
    # so pick x = 1: 2/4 + 2/8 = 3/4... use the closed affine form instead
    got = eval_Cn(cfg_for(I, 2.0), 2, ID, [1.0])
    assert got == pytest.approx(0.75, abs=1e-13)


def test_cells_match_direct_on_grid():
    xs = uniform_grid(I, 21)
    for n in (1, 4, 17):
        np.testing.assert_allclose(
            eval_Cn_cells(KANT1, n, SQ, xs), eval_Cn(KANT1, n, SQ, xs), atol=1e-11
        )
    cfg = cfg_for(K2, 0.5)
    xs = uniform_grid(K2, 6)
    f = lambda p: np.exp(p[:, 0] - p[:, 1])
    np.testing.assert_allclose(
        eval_Cn_cells(cfg, 3, f, xs), eval_Cn(cfg, 3, f, xs), atol=1e-10
    )


def test_cells_need_lebesgue_and_positive_a():
    with pytest.raises(ConfigError):
        eval_Cn_cells(cfg_for(I, 0.0), 2, ID, [0.5])
    with pytest.raises(ConfigError):
        eval_Cn_cells(cfg_for(I, 1.0, dirac_shift([0.5])), 2, ID, [0.5])


def test_composition_identity():
    # C_n = B_n applied to the blended function
    for dom, a in ((I, 1.0), (Q2, 0.5), (K2, 2.0)):
        cfg = cfg_for(dom, a)
        xs = uniform_grid(dom, 5)
        f = lambda p: np.exp(p.sum(axis=1))
        for n in (1, 3):
            inner = lambda p: eval_In(cfg, n, f, p)
            np.testing.assert_allclose(
                eval_Cn(cfg, n, f, xs), eval_Bn(dom, n, inner, xs), atol=1e-12
            )


def test_a_zero_reduces_to_bernstein():
    for dom in (I, Q2, K2):
        cfg = cfg_for(dom, 0.0)
        xs = uniform_grid(dom, 5)
        f = lambda p: np.cos(p.sum(axis=1))
        for n in (1, 4):
            np.testing.assert_allclose(
                eval_Cn(cfg, n, f, xs), eval_Bn(dom, n, f, xs), atol=1e-14
            )


def test_dirac_blend_spec_value():
    # atoms at b_n/a with b_n = 1/(n+1): I_3(id)(0) = (1/4) * 1/4 ... times a
    cfg = cfg_for(I, 1.0, dirac_shift(lambda n: np.array([1.0 / (n + 1.0)])))
    got = eval_In(cfg, 3, ID, [0.0])
    assert got == pytest.approx(1.0 / 16.0, abs=1e-15)


def test_explicit_list_sequences():
    coin = discrete_measure([[0.0], [1.0]], [0.5, 0.5], I)
    seq = explicit_list([lebesgue_measure(), discrete_spec(coin)])
    cfg = cfg_for(I, 1.0, seq)
    # n = 2 uses the coin: mean 1/2, so C_2(id)(1/2) = 1/2
    assert eval_Cn(cfg, 2, ID, [0.5]) == pytest.approx(0.5, abs=1e-14)
    with pytest.raises(ConfigError, match="explicit measure list"):
        eval_Cn(cfg, 3, ID, [0.5])


@pytest.mark.parametrize("n", [2, 4])
def test_power_three_on_q3_matches_the_closed_form(n):
    # C_n(e^(x_1+x_2+x_3)) = prod_i M (1 - x_i + x_i e^(1/(n+a)))^n with
    # M = E e^(cT) = ((e^(c/k) - 1)/(c/k))^k, c = a/(n+a), T the mean of k
    # uniforms
    a, k = 1.0, 3
    cfg = cfg_for(Q3, a, power_of_base(lebesgue_measure(), k))
    x = np.array([0.2, 0.5, 0.9])
    c = a / (n + a)
    m = (math.expm1(c / k) / (c / k)) ** k
    exact = math.prod(m * (1 - xi + xi * math.exp(1 / (n + a))) ** n for xi in x)
    got = eval_Cn(cfg, n, lookup("exp_sum", (), Q3), x)
    assert got == pytest.approx(exact, rel=1e-12, abs=0.0)


def _ladder_outcome_of(run):
    """run()'s result and the outcome counts of the ladders it ran."""
    with ladder_record() as record:
        result = run()
    return result, {k: record[k] for k in ("ladders", "unconverged_at_cap",
                                           "stopped_by_node_budget")}


def test_power_kink_on_a_knot_converges_on_q3():
    # (h + 2T)/6 = 1/2 puts the kink of |x - 1/2| at T = 1/2, a knot of the
    # density of T; C_4 at the centre is exactly 7/16
    cfg = cfg_for(Q3, 2.0, power_of_base(lebesgue_measure(), 2))
    f = lookup("abs_dist", (0.5, 0.5, 0.5), Q3)
    got, outcome = _ladder_outcome_of(lambda: eval_Cn(cfg, 4, f, [0.5, 0.5, 0.5]))
    assert got == pytest.approx(7 / 16, abs=1e-12)
    assert outcome == {"ladders": 1, "unconverged_at_cap": 0, "stopped_by_node_budget": 0}


def _mean_abs_affine(c0, c1, pieces):
    """E|c0 + c1 T| in exact rationals, for T with the piecewise polynomial
    density ``pieces`` = [(lo, hi, coeffs of t^0, t^1, ...)]."""
    total = Fraction(0)
    for lo, hi, coeffs in pieces:
        cuts = [lo, hi]
        if lo < -c0 / c1 < hi:
            cuts.insert(1, -c0 / c1)
        for u, v in zip(cuts, cuts[1:]):
            sign = 1 if c0 + c1 * (u + v) / 2 >= 0 else -1
            for m, c in enumerate(coeffs):
                total += sign * c * (c0 * (v ** (m + 1) - u ** (m + 1)) / (m + 1)
                                     + c1 * (v ** (m + 2) - u ** (m + 2)) / (m + 2))
    return total


def test_power_inner_values_match_exact_rationals_at_a_knot():
    # J_h = E|(h + 2T)/10 - 1/2| with T the mean of two uniforms (density
    # 4t, then 4(1 - t)); at h = 4 the kink falls on the knot T = 1/2
    n, a = 8, 2
    cfg = cfg_for(I, float(a), power_of_base(lebesgue_measure(), 2))
    triangle = [(Fraction(0), Fraction(1, 2), [0, 4]), (Fraction(1, 2), Fraction(1), [4, -4])]
    exact = [float(_mean_abs_affine(Fraction(h, n + a) - Fraction(1, 2), Fraction(a, n + a),
                                    triangle)) for h in range(n + 1)]
    got, outcome = _ladder_outcome_of(
        lambda: kantorovich._inner_values(cfg, n, lookup("abs_dist", (0.5,), I)))
    np.testing.assert_allclose(got, exact, rtol=0.0, atol=1e-14)
    assert outcome["unconverged_at_cap"] == 0


_UNIFORM = [(Fraction(0), Fraction(1), [1])]
_TRIANGLE = [(Fraction(0), Fraction(1, 2), [0, 4]), (Fraction(1, 2), Fraction(1), [4, -4])]


def _exact_kink_inner(domain, n, a, centres, density):
    """J_h for f(x) = sum_i |x_i - c_i| over the axes whose centre is not
    None, exact: per axis E|(h_i + a T)/(n + a) - c_i|, T uniform or the
    mean of two uniforms (``density``), in rationals of the float inputs."""
    a = Fraction(a)
    tables = [None if c is None else
              [_mean_abs_affine(k / (n + a) - Fraction(c), a / (n + a), density)
               for k in range(n + 1)]
              for c in centres]
    return [float(sum(t[k] for t, k in zip(tables, row) if t is not None))
            for row in lattice(domain, n).astype(int).tolist()]


_POWER2 = power_of_base(lebesgue_measure(), 2)


@pytest.mark.parametrize("domain, name, params, a, measures, n", [
    (I, "abs_dist", (0.5,), 1.0, None, 7),
    (I, "abs_dist", (0.3,), 2.0, None, 9),
    (Q2, "abs_dist", (0.3, 0.7), 1.0, None, 6),
    (Q2, "abs_dist", (0.5, 0.45), 2.0, None, 5),
    (Q3, "abs_dist", (0.5, 0.25, 0.6), 1.0, None, 4),
    (Q3, "abs_dist", (0.3, 0.5, 0.9), 2.0, None, 3),
    (I, "abs_dist", (0.3,), 1.0, _POWER2, 8),
    (I, "abs_dist", (0.45,), 2.0, _POWER2, 8),
    (Q2, "abs_dist", (0.3, 0.45), 1.0, _POWER2, 5),
    (Q2, "abs_dist_coord", (2, 0.3), 1.0, None, 6),
    (Q2, "abs_dist_coord", (1, 0.45), 2.0, _POWER2, 5),
])
def test_declared_kinks_give_exact_inner_values(domain, name, params, a, measures, n):
    # the rule is cut at the kink of every row, so levels 8 and 16 are both
    # exact and the ladder stops at 16
    f = lookup(name, params, domain)
    centres = params if name == "abs_dist" else [
        params[1] if i == params[0] - 1 else None for i in range(domain.dim)]
    exact = _exact_kink_inner(domain, n, a, centres,
                              _UNIFORM if measures is None else _TRIANGLE)
    got, outcome = _ladder_outcome_of(
        lambda: kantorovich._inner_values.__wrapped__(cfg_for(domain, a, measures), n, f))
    np.testing.assert_allclose(got, exact, rtol=0.0, atol=1e-14)
    assert outcome == {"ladders": 1, "unconverged_at_cap": 0, "stopped_by_node_budget": 0}


def test_eval_in_cuts_at_the_declared_kink():
    # I_n f(x) = E|(n x + a T)/(n + a) - c|, with T the mean of two uniforms
    n, a, c = 5, 1.5, 0.4
    cfg = cfg_for(I, a, _POWER2)
    xs = np.array([[0.0], [0.3], [0.42], [0.5], [0.9], [1.0]])
    got, outcome = _ladder_outcome_of(lambda: eval_In(cfg, n, lookup("abs_dist", (c,), I), xs))
    exact = [float(_mean_abs_affine(Fraction(n) * Fraction(x[0]) / (n + Fraction(a)) - Fraction(c),
                                    Fraction(a) / (n + Fraction(a)), _TRIANGLE)) for x in xs]
    np.testing.assert_allclose(got, exact, rtol=0.0, atol=1e-14)
    assert outcome == {"ladders": 1, "unconverged_at_cap": 0, "stopped_by_node_budget": 0}


@settings(max_examples=60, deadline=None)
@given(centre=st.floats(0.0, 1.0), n=st.integers(1, 24), a=st.floats(0.05, 8.0),
       power=st.booleans())
def test_cut_inner_values_are_exact_for_any_centre(centre, n, a, power):
    f = lookup("abs_dist", (centre,), I)
    cfg = cfg_for(I, a, _POWER2 if power else None)
    got, outcome = _ladder_outcome_of(lambda: kantorovich._inner_values.__wrapped__(cfg, n, f))
    exact = _exact_kink_inner(I, n, a, (centre,), _TRIANGLE if power else _UNIFORM)
    np.testing.assert_allclose(got, exact, rtol=0.0, atol=1e-14)
    assert outcome["unconverged_at_cap"] == 0


def test_single_points_and_batches_are_admitted_alike():
    # a simplex point over the boundary by rounding noise passes both ways;
    # a larger excess and a NaN fail both ways, and so do a point outside
    # the interval and a NaN there
    for dom, inside, outside in ((K2, [0.5, 0.5 + 1e-13], ([0.5, 0.5 + 1e-11], [0.5, np.nan])),
                                 (I, [1.0], ([2.0], [np.nan]))):
        cfg = cfg_for(dom, 1.0)
        f = lookup("exp_sum", (), dom)
        h = coordinate_form(dom, 0)
        evaluators = (
            lambda y: eval_Cn(cfg, 4, f, y),
            lambda y: eval_Cn_cells(cfg, 4, f, y),
            lambda y: eval_In(cfg, 4, f, y),
            lambda y: eval_Bn(dom, 4, f, y),
            lambda y: cn_affine_moment(cfg, 4, h, y),
            lambda y: cn_quadratic_moment(cfg, 4, 0, y),
            lambda y: cn_bilinear_moment(cfg, 4, h, h, y),
        )
        x = np.array(inside)
        for evaluate in evaluators:
            assert evaluate(x) == pytest.approx(evaluate(x[None])[0], rel=1e-15)
        for bad in outside:
            x = np.array(bad)
            for evaluate in evaluators:
                with pytest.raises(ConfigError):
                    evaluate(x)
                with pytest.raises(ConfigError):
                    evaluate(x[None])


def test_measure_moments():
    m1, m2 = measure_moments(KANT1, 5)
    np.testing.assert_allclose(m1, [0.5])
    np.testing.assert_allclose(m2, [1.0 / 3.0])
    cfg = cfg_for(I, 2.0, power_of_base(lebesgue_measure(), 2))
    m1, m2 = measure_moments(cfg, 5)
    np.testing.assert_allclose(m1, [0.5], atol=1e-14)
    np.testing.assert_allclose(m2, [0.25 + 1.0 / 24.0], atol=1e-14)


def test_affine_moment_spec_value():
    # n = 4, a = 1, Lebesgue: C_4(id)(0) = (1/5) (1/2) = 0.1
    h = coordinate_form(I, 0)
    assert cn_affine_moment(KANT1, 4, h, [0.0]) == pytest.approx(0.1, abs=1e-16)
    assert eval_Cn(KANT1, 4, h, [0.0]) == pytest.approx(0.1, abs=1e-12)


@pytest.mark.parametrize("dom", (I, Q2, K2), ids=lambda d: f"{d.kind}{d.dim}")
@pytest.mark.parametrize("a", (0.0, 0.7, 2.0))
def test_affine_moments_match_operator(dom, a):
    rng = np.random.default_rng(42)
    cfg = cfg_for(dom, a)
    xs = uniform_grid(dom, 3)
    for _ in range(3):
        h = AffineForm(rng.uniform(-1, 1), tuple(rng.uniform(-1, 1, dom.dim)))
        for n in (1, 4):
            np.testing.assert_allclose(
                eval_Cn(cfg, n, h, xs), cn_affine_moment(cfg, n, h, xs), atol=1e-12
            )


@pytest.mark.parametrize("dom", (I, Q2, K2), ids=lambda d: f"{d.kind}{d.dim}")
def test_quadratic_moments_match_operator(dom):
    for a, measures in (
        (1.0, constant_lebesgue()),
        (0.0, constant_lebesgue()),
        (2.0, power_of_base(lebesgue_measure(), 2)),
        (0.5, dirac_shift(np.full(dom.dim, 0.125))),
    ):
        cfg = cfg_for(dom, a, measures)
        xs = uniform_grid(dom, 3)
        for i in range(dom.dim):
            f = lambda p, i=i: p[:, i] ** 2
            for n in (1, 5):
                np.testing.assert_allclose(
                    eval_Cn(cfg, n, f, xs), cn_quadratic_moment(cfg, n, i, xs), atol=1e-12
                )


def test_quadratic_moment_spec_value():
    # interval, a=1: C_1(t^2)(1) = 1/12 + 2/4 ... = 7/12
    assert cn_quadratic_moment(KANT1, 1, 0, [1.0]) == pytest.approx(7.0 / 12.0, abs=1e-15)


def test_bilinear_moment_matches_operator():
    rng = np.random.default_rng(3)
    for dom in (Q2, K2):
        cfg = cfg_for(dom, 1.5)
        xs = uniform_grid(dom, 3)
        h = AffineForm(rng.uniform(-1, 1), tuple(rng.uniform(-1, 1, dom.dim)))
        k = AffineForm(rng.uniform(-1, 1), tuple(rng.uniform(-1, 1, dom.dim)))
        f = lambda p: h(p) * k(p)
        for n in (1, 3, 8):
            np.testing.assert_allclose(
                eval_Cn(cfg, n, f, xs), cn_bilinear_moment(cfg, n, h, k, xs), atol=1e-11
            )


def test_simplex_spec_values():
    cfg = cfg_for(K2, 1.0)
    # normalized Lebesgue on K2: first moments 1/3 each
    mu = resolve(cfg.measures, 1, K2)
    assert integrate_measure(mu, K2, lambda p: p[:, 0]) == pytest.approx(1.0 / 9.0 * 3, abs=1e-13)
    # C_1(pr_1)(e_1) = (1/2)(1/3) + (1/2)(1) ... evaluate both moment forms
    h = coordinate_form(K2, 0)
    got = cn_affine_moment(cfg, 1, h, [1.0, 0.0])
    assert got == pytest.approx(1.0 / 6.0 + 0.5, abs=1e-14)
    np.testing.assert_allclose(eval_Cn(cfg, 1, h, [1.0, 0.0]), got, atol=1e-12)


def test_operator_is_positive_and_normalized():
    rng = np.random.default_rng(11)
    for dom in (I, K2):
        cfg = cfg_for(dom, 1.0)
        xs = uniform_grid(dom, 4)
        ones = eval_Cn(cfg, 4, lambda p: np.ones(p.shape[0]), xs)
        np.testing.assert_allclose(ones, 1.0, atol=1e-13)
        f = lambda p: 0.2 + np.abs(np.sin(3.0 * p.sum(axis=1)))
        assert np.all(eval_Cn(cfg, 4, f, xs) > 0.0)


def test_monotone_in_f():
    cfg = KANT1
    xs = uniform_grid(I, 9)
    f = lambda p: p[:, 0] ** 2
    g = lambda p: p[:, 0] ** 2 + 0.1
    np.testing.assert_array_less(eval_Cn(cfg, 3, f, xs), eval_Cn(cfg, 3, g, xs))


def _operator_cases():
    """(config, n, points): I, Q2 or K2, n <= 16, a <= 3, Lebesgue or a
    Dirac shift, and one to four random points of the domain."""

    @st.composite
    def case(draw):
        dom = draw(st.sampled_from([I, Q2, K2]))
        # a Dirac shift needs a > 0
        measures, a_min = draw(st.sampled_from(
            [(constant_lebesgue(), 0.0), (dirac_shift(lambda n: np.full(dom.dim, 0.3)), 0.05)]))
        cfg = cfg_for(dom, draw(st.floats(a_min, 3.0)), measures)
        cube = st.lists(st.floats(0.0, 1.0), min_size=dom.dim, max_size=dom.dim).map(np.array)
        if dom.kind == "simplex":
            cube = cube.map(lambda u: u / max(1.0, u.sum()))
        xs = np.array(draw(st.lists(cube, min_size=1, max_size=4)))
        return cfg, draw(st.integers(1, 16)), xs

    return case()


def _square(draw, dim):
    """A random (g.x - t)^2: smooth, >= 0, and zero on a hyperplane that
    may cut the domain."""
    g = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=dim, max_size=dim)))
    t = draw(st.floats(-1.0, 2.0))
    return lambda p: (p @ g - t) ** 2


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(case=_operator_cases())
def test_cn_reproduces_constants(case):
    cfg, n, xs = case
    ones = eval_Cn(cfg, n, lambda p: np.ones(p.shape[0]), xs)
    np.testing.assert_allclose(ones, 1.0, rtol=0.0, atol=1e-14)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(case=_operator_cases(), data=st.data())
def test_cn_is_positive(case, data):
    cfg, n, xs = case
    f = _square(data.draw, cfg.domain.dim)
    assert np.all(eval_Cn(cfg, n, f, xs) >= 0.0)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(case=_operator_cases(), data=st.data())
def test_cn_is_monotone(case, data):
    # f <= g on the domain; C_n f and C_n g are computed apart, so they
    # may cross by a few roundings of their size
    cfg, n, xs = case
    f = lambda p: np.exp(p.sum(axis=1))
    h = _square(data.draw, cfg.domain.dim)
    g = lambda p: f(p) + h(p)
    cf, cg = eval_Cn(cfg, n, f, xs), eval_Cn(cfg, n, g, xs)
    assert np.all(cf <= cg + 1e-14 * np.abs(cg))


def _inside(draw, dom):
    """A random point of ``dom``."""
    u = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=dom.dim, max_size=dom.dim)))
    return u / max(1.0, u.sum()) if dom.kind == "simplex" else u


@st.composite
def _moment_cases(draw):
    """(config, n, exact m1, exact m2, points): a domain, a in (0, 3], a
    small n and a measure sequence whose first and second coordinate
    moments have closed forms: Lebesgue or a 2-3 atom discrete base to a
    power k in {1, 2, 3}, or a Dirac shift."""
    dom = draw(st.sampled_from([I, Q2, Q3, K2, K3]))
    a = draw(st.floats(0.0, 3.0, exclude_min=True))
    kind = draw(st.sampled_from(["lebesgue", "discrete", "dirac"]))
    # Lebesgue to the third power on K3 takes (L+1)^9 rule nodes: over
    # the node budget at the ladder's first level
    k = draw(st.integers(1, 2 if (kind, dom) == ("lebesgue", K3) else 3))
    d = dom.dim
    if kind == "lebesgue":
        seq = power_of_base(lebesgue_measure(), k)
        if dom.kind == "simplex":
            mean, square = 1.0 / (d + 1), 2.0 / ((d + 1) * (d + 2))
        else:
            mean, square = 0.5, 1.0 / 3.0
        m1, m2 = np.full(d, mean), np.full(d, mean**2 + (square - mean**2) / k)
    elif kind == "discrete":
        atoms = np.array([_inside(draw, dom) for _ in range(draw(st.integers(2, 3)))])
        w = np.array(draw(st.lists(st.floats(0.1, 1.0), min_size=len(atoms),
                                   max_size=len(atoms))))
        w /= w.sum()
        seq = power_of_base(discrete_spec(discrete_measure(atoms, w, dom)), k)
        m1 = w @ atoms
        m2 = m1**2 + (w @ atoms**2 - m1**2) / k
    else:
        point = _inside(draw, dom)
        seq = dirac_shift(point)
        m1, m2 = point, point**2
    cfg = cfg_for(dom, a, seq)
    xs = np.array([_inside(draw, dom) for _ in range(draw(st.integers(1, 3)))])
    return cfg, draw(st.integers(1, 4)), m1, m2, xs


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(case=_moment_cases(), data=st.data())
def test_moments_match_their_closed_forms(case, data):
    # the measure moments against forms derived without any rule, and C_n
    # of an affine form and of pr_i^2 against the moment identities, to
    # the tolerances the verify subcommand uses
    cfg, n, m1, m2, xs = case
    got1, got2 = measure_moments(cfg, n)
    np.testing.assert_allclose(got1, m1, rtol=0.0, atol=1e-14)
    np.testing.assert_allclose(got2, m2, rtol=0.0, atol=1e-14)
    d = cfg.domain.dim
    coef = data.draw(st.lists(st.floats(-2.0, 2.0), min_size=d + 1, max_size=d + 1))
    h = AffineForm(coef[0], tuple(coef[1:]))
    gap = np.abs(eval_Cn(cfg, n, h, xs) - cn_affine_moment(cfg, n, h, xs))
    assert gap.max() <= _AFFINE_TOL
    for i in range(d):
        square = lambda p, i=i: p[:, i] ** 2
        gap = np.abs(eval_Cn(cfg, n, square, xs) - cn_quadratic_moment(cfg, n, i, xs))
        assert gap.max() <= _QUADRATIC_TOL


def test_invalid_n():
    # one check, at every entry point that takes n
    for n in (0, -1, 2.5, True, "3"):
        with pytest.raises(ConfigError, match="operator index"):
            eval_Cn(KANT1, n, ID, [0.5])
        with pytest.raises(ConfigError, match="operator index"):
            eval_Bn(I, n, ID, [0.5])
        with pytest.raises(ConfigError, match="operator index"):
            resolve(constant_lebesgue(), n)
    assert eval_Cn(KANT1, np.int64(3), ID, 0.5) == pytest.approx(eval_Cn(KANT1, 3, ID, 0.5))


def _ladder_outcome(at_level, fits=lambda level: True):
    return _ladder_outcome_of(lambda: kantorovich._ladder(at_level, fits))


def test_ladder_outcomes_are_counted():
    levels = []

    def stalls(level):
        levels.append(level)
        return np.array([1.0 / level])

    vals, outcome = _ladder_outcome(stalls)
    assert levels == [8, 16, 32] and vals[0] == 1.0 / 32
    assert outcome == {"ladders": 1, "unconverged_at_cap": 1, "stopped_by_node_budget": 0}

    levels.clear()
    vals, outcome = _ladder_outcome(stalls, fits=lambda level: level <= 8)
    assert levels == [8] and vals[0] == 1.0 / 8
    assert outcome == {"ladders": 1, "unconverged_at_cap": 0, "stopped_by_node_budget": 1}

    vals, outcome = _ladder_outcome(lambda level: np.array([2.0]))
    assert vals[0] == 2.0
    assert outcome == {"ladders": 1, "unconverged_at_cap": 0, "stopped_by_node_budget": 0}


def test_ladder_record_keeps_the_final_level_and_largest_residual():
    with ladder_record() as outer:
        with ladder_record() as inner:
            # stops at 8 by the budget before comparing two levels
            kantorovich._ladder(lambda level: np.array([1.0 / level]), fits=lambda level: False)
        assert inner["max_level"] == 8 and inner["max_residual"] is None
        # 1/8 -> 1/16 -> 1/32: stalls at the cap, last step 1/32
        kantorovich._ladder(lambda level: np.array([1.0 / level]))
        # agrees at 16: last step 1e-12
        kantorovich._ladder(lambda level: np.array([1.0 + 1e-12 * (level == 8)]))
    assert inner == {"ladders": 1, "exact": 0, "unconverged_at_cap": 0,
                     "stopped_by_node_budget": 1, "max_level": 8, "max_residual": None}
    assert outer == {"ladders": 3, "exact": 0, "unconverged_at_cap": 1,
                     "stopped_by_node_budget": 1, "max_level": 32, "max_residual": 1.0 / 32}


def _ladders_of(cfg, n, f):
    """The inner integrals of C_n f, computed afresh, and the record of
    their ladders."""
    base = lattice(cfg.domain, n) / (n + cfg.a)
    with ladder_record() as record:
        vals = kantorovich._blend_integrals(cfg, n, f, base)
    return vals, base, dict(record)


def _polynomial(domain, degree, breakpoints=None):
    """A catalog-style polynomial of total degree ``degree`` with values
    in [0, 1] that declares that degree (and ``breakpoints``)."""
    scale = 1.0 if domain.kind == "simplex" else 1.0 / domain.dim
    meta = FunctionMeta(degree=degree, breakpoints=breakpoints)
    return CatalogFunction("polynomial", (degree,), domain,
                           lambda p: (scale * p.sum(axis=1)) ** degree, meta)


# one rule family each: (domain, measure sequence, n, declared breakpoints)
_RULE_FAMILIES = {
    "I": (I, constant_lebesgue(), 4, None),
    "Q2": (Q2, constant_lebesgue(), 4, None),
    "K2": (K2, constant_lebesgue(), 4, None),
    "I-power2": (I, power_of_base(lebesgue_measure(), 2), 4, None),
    "K2-power2": (K2, power_of_base(lebesgue_measure(), 2), 2, None),
    # n = 4, a = 1 puts the kink of row h at s = 1.5 - h: row 1 is cut
    "I-cut": (I, constant_lebesgue(), 4, (0.3,)),
}


@pytest.mark.parametrize("family", _RULE_FAMILIES)
def test_a_polynomial_of_the_exact_degree_takes_one_level(family):
    dom, measures, n, breakpoints = _RULE_FAMILIES[family]
    cfg = cfg_for(dom, 1.0, measures)
    mu = kantorovich._resolved(cfg, n)
    degree = exact_degree(mu, dom, BASE_LEVEL, breakpoints is not None)
    f = _polynomial(dom, degree, breakpoints)
    vals, base, record = _ladders_of(cfg, n, f)
    assert record["ladders"] == 1 and record["exact"] == 1
    assert record["max_level"] == BASE_LEVEL and record["max_residual"] is None
    cuts = kantorovich._row_cuts(cfg, mu, n, f, base)
    assert (cuts is None) == (breakpoints is None)
    top = kantorovich._blend_at_level(cfg, mu, n, f, base, kantorovich._MAX_LEVEL, cuts)
    np.testing.assert_allclose(vals, top, rtol=0.0, atol=1e-14)
    # one degree more than the first rule is exact for climbs the ladder
    _, _, record = _ladders_of(cfg, n, _polynomial(dom, degree + 1, breakpoints))
    assert record["ladders"] == 1 and record["exact"] == 0
    assert record["max_level"] > BASE_LEVEL


@pytest.mark.parametrize("family", [k for k, v in _RULE_FAMILIES.items() if v[3] is None])
def test_undeclared_integrands_climb_as_before(family):
    # a bare callable and exp_sum declare no degree: their values are the
    # level-16 rule's, where the ladder converges, to the bit
    dom, measures, n, _ = _RULE_FAMILIES[family]
    cfg = cfg_for(dom, 1.0, measures)
    mu = kantorovich._resolved(cfg, n)
    for f in (lambda p: np.exp(p.sum(axis=1)), lookup("exp_sum", (), dom)):
        vals, base, record = _ladders_of(cfg, n, f)
        assert record["ladders"] == 1 and record["exact"] == 0
        assert record["unconverged_at_cap"] == 0 and record["max_level"] == 16
        assert vals.tobytes() == kantorovich._blend_at_level(cfg, mu, n, f, base, 16).tobytes()


@pytest.mark.parametrize("dom", [I, Q2, K2, K3], ids=lambda d: f"{d.kind}{d.dim}")
def test_moment_integrands_take_one_level(dom):
    # verify's affine forms and coordinate squares: level 8 is exact
    cfg = cfg_for(dom, 1.0)
    xs = uniform_grid(dom, 4)
    h = AffineForm(0.3, tuple(np.linspace(-1.0, 1.0, dom.dim)))
    with ladder_record() as record:
        for n in (4, 16):
            gap = eval_Cn(cfg, n, h, xs) - cn_affine_moment(cfg, n, h, xs)
            assert np.abs(gap).max() <= 1e-14
            for i in range(dom.dim):
                square = lookup("monomial", (i + 1, 2), dom)
                gap = eval_Cn(cfg, n, square, xs) - cn_quadratic_moment(cfg, n, i, xs)
                assert np.abs(gap).max() <= 1e-14
    assert record["ladders"] == record["exact"] == 2 * (1 + dom.dim)
    assert record["max_level"] == BASE_LEVEL


_COIN2 = discrete_spec(discrete_measure([[0.1, 0.2], [0.6, 0.3]], [0.25, 0.75], Q2))


@pytest.mark.parametrize("dom,measures,n", [
    (I, dirac_shift([0.25]), 5),
    (Q2, explicit_list([_COIN2, power_measure(_COIN2, 2), power_measure(_COIN2, 3)]), 3),
], ids=["dirac_shift", "explicit_list"])
def test_discrete_measures_take_the_one_level_path(dom, measures, n):
    # exact at every degree: one level, the same bits as the rule at
    # BASE_LEVEL, and a declared kink leaves the rule uncut
    cfg = cfg_for(dom, 1.0, measures)
    mu = kantorovich._resolved(cfg, n)
    base = lattice(dom, n) / (n + cfg.a)
    for f in (lambda p: np.exp(p.sum(axis=1)), lookup("abs_dist", (0.45,) * dom.dim, dom)):
        with ladder_record() as record:
            got = kantorovich._inner_values(cfg, n, f)
        want = kantorovich._blend_at_level(cfg, mu, n, f, base, BASE_LEVEL)
        assert got.tobytes() == want.tobytes()
        assert record == {"ladders": 1, "exact": 1, "unconverged_at_cap": 0,
                          "stopped_by_node_budget": 0, "max_level": BASE_LEVEL,
                          "max_residual": None}


# Prints, per block budget, the bytes of the inner values of one case at
# each of its ladder levels.  Every row reduces its own values in a fixed
# order, so neither the block split nor the BLAS threads can move a bit.
_BLOCK_SCRIPT = """
import json, sys
from kantorov import kantorovich
from kantorov.bernstein import lattice
from kantorov.catalog import lookup
from kantorov.geometry import Domain
from kantorov.measures import constant_lebesgue, lebesgue_measure, power_of_base

I, Q3 = Domain.interval(), Domain.hypercube(3)
cases = [
    # the rule cut at the kink of |x - c| on Q3, at level 32: 125 lattice rows
    (Q3, constant_lebesgue(), (32,), 4, lookup("abs_dist", (0.5, 0.5, 0.5), Q3)),
    # Lebesgue squared on I cut at 0.45, 16 -> 32 nodes: 4097 rows, one
    # more than the 4096- and 2048-row blocks of the 2^16 budget
    (I, power_of_base(lebesgue_measure(), 2), (8, 16), 4096, lookup("abs_dist", (0.45,), I)),
    # the diagonal kink of |x_1 - x_2| declares no breakpoints, so the rule
    # is the shared one at level 32: 125 rows again
    (Q3, constant_lebesgue(), (32,), 4, lookup("abs_diff12", (), Q3)),
]
dom, measures, levels, n, f = cases[int(sys.argv[1])]
cfg = kantorovich.OperatorConfig(dom, 1.0, measures)
mu = kantorovich._resolved(cfg, n)
base = lattice(dom, n) / (n + cfg.a)
cuts = kantorovich._row_cuts(cfg, mu, n, f, base)
values = []
for budget in (1 << 21, 1 << 16, 1):
    kantorovich._BLOCK_POINTS = budget
    values.append("".join(kantorovich._blend_at_level(cfg, mu, n, f, base, level, cuts)
                          .tobytes().hex() for level in levels))
print(json.dumps(values))
"""


def _run_script(script, arg, threads):
    """stdout of ``script`` run with ``arg`` in a fresh interpreter that
    has ``threads`` BLAS threads."""
    src = os.path.dirname(os.path.dirname(kantorovich.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
               MKL_NUM_THREADS=threads,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script, arg],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("case", [0, 1, 2])
def test_inner_values_do_not_depend_on_the_block_size(case):
    # nor on the BLAS thread count: every budget at 1 and 2 threads gives the same bytes
    runs = [json.loads(_run_script(_BLOCK_SCRIPT, str(case), threads)) for threads in ("1", "2")]
    assert len({v for values in runs for v in values}) == 1


def test_cut_inner_values_do_not_depend_on_the_blas_threads():
    # case 0 of the block script, the rule cut at the kink on Q3: 125 rows of 8 bytes
    one, two = (json.loads(_run_script(_BLOCK_SCRIPT, "0", threads))[0] for threads in ("1", "2"))
    assert one == two and len(one) == 125 * 16


def _row_major_blend(cfg, mu, n, f, base, level, cuts=None):
    """The row-major construction the engine used before its blocks went
    axis-major: the same block split and reductions, with each block's
    points broadcast into a (G, d) C-ordered batch."""
    c = cfg.a / (n + cfg.a)
    m, d = base.shape
    if cuts is None:
        nodes, weights = measure_nodes(mu, cfg.domain, level)
        q = weights.size
    else:
        nodes, weights = measure_nodes(mu, cfg.domain, level,
                                       cuts=[None if cut is None else cut[0] for cut in cuts])
        q = math.prod(w.shape[-1] for w in weights)
    out = np.empty(m)
    block = max(1, kantorovich._BLOCK_POINTS // q)
    for i in range(0, m, block):
        pb = base[i:i + block]
        if cuts is None:
            pts = (pb[:, None, :] + c * nodes[None, :, :]).reshape(-1, d)
            out[i:i + block] = (values(f, pts).reshape(pb.shape[0], q) * weights).sum(axis=1)
        else:
            rows = [None if cut is None else cut[1][i:i + block] for cut in cuts]
            out[i:i + block] = _row_major_cut(f, pb, c, nodes, weights, rows)
    return out


def _row_major_cut(f, pb, c, nodes, weights, rows):
    b, d = pb.shape
    qs = tuple(w.shape[-1] for w in weights)
    pts = np.empty((b,) + qs + (d,))
    row_weights = []
    for i in range(d):
        x, w = nodes[i], weights[i]
        if rows[i] is not None:
            x, w = x[rows[i]], w[rows[i]]
        shape = [b if x.ndim == 2 else 1] + [1] * d
        shape[1 + i] = qs[i]
        pts[..., i] = pb[:, i].reshape((b,) + (1,) * d) + c * x.reshape(shape)
        row_weights.append(w)
    vals = values(f, pts.reshape(-1, d)).reshape((b,) + qs)
    for i in reversed(range(d)):
        w = row_weights[i]
        if w.ndim == 2:
            w = w.reshape((b,) + (1,) * i + (qs[i],))
        vals = (vals * w).sum(axis=-1)
    return vals


def test_axis_major_blocks_keep_the_row_major_bits(monkeypatch):
    cases = {}
    for name, dom, n in (("I", I, 33), ("Q2", Q2, 12), ("Q3", Q3, 4), ("K2", K2, 24),
                         ("K3", K3, 6)):
        grad = tuple(0.37 * (-1.5) ** j for j in range(dom.dim))
        cases[f"affine-{name}"] = (dom, n, AffineForm(-0.2, grad))
        cases[f"exp_sum-{name}"] = (dom, n, lookup("exp_sum", (), dom))
    for name, dom, n in (("Q2", Q2, 12), ("Q3", Q3, 4)):
        cases[f"abs_dist-{name}"] = (dom, n, lookup("abs_dist", (0.3,) * dom.dim, dom))
    engine = kantorovich._blend_at_level
    differ = []
    for key, (dom, n, f) in cases.items():
        for a in (1.0, 2.0):
            cfg = kantorovich.OperatorConfig(dom, a, constant_lebesgue())
            for budget in (1 << 16, 1):
                monkeypatch.setattr(kantorovich, "_BLOCK_POINTS", budget)
                monkeypatch.setattr(kantorovich, "_blend_at_level", engine)
                got = kantorovich._inner_values.__wrapped__(cfg, n, f)
                monkeypatch.setattr(kantorovich, "_blend_at_level", _row_major_blend)
                ref = kantorovich._inner_values.__wrapped__(cfg, n, f)
                if not np.array_equal(got, ref):
                    differ.append(f"{key} a={a} budget={budget}")
    assert differ == []


class _LayoutRecorder:
    """An integrand that records the layout of every block it is handed;
    it carries ``meta`` so that declared kinks take the cut path."""

    def __init__(self, f):
        self.f, self.meta, self.blocks = f, f.meta, []

    def __call__(self, p):
        self.blocks.append((p.shape, p.dtype, p.strides))
        return self.f(p)


@pytest.mark.parametrize("dom", [Q2, Q3, K2, Domain.simplex(3)], ids=["Q2", "Q3", "K2", "K3"])
@pytest.mark.parametrize("name", ["exp_sum", "abs_dist"])
def test_integrand_blocks_are_axis_major(dom, name):
    d = dom.dim
    params = (0.3,) * d if name == "abs_dist" else ()
    base = lookup(name, params, dom)
    cut = base.meta.breakpoints is not None
    assert cut == (name == "abs_dist" and dom.kind != "simplex")
    cfg, rec, x = cfg_for(dom, 1.0), _LayoutRecorder(base), np.full((5, d), 0.2)
    mu = resolve(cfg.measures, 5, dom)
    for pts in (lattice(dom, 5) / 6, x * 5 / 6):  # the rows of eval_Cn and eval_In
        assert (kantorovich._row_cuts(cfg, mu, 5, rec, pts) is not None) == cut
    eval_Cn(cfg, 5, rec, x)
    eval_In(cfg, 5, rec, x)
    assert len(rec.blocks) >= 4  # two ladder levels each
    for shape, dtype, strides in rec.blocks:
        assert len(shape) == 2 and shape[1] == d and dtype == np.float64
        # contiguous columns: one row step is one float
        assert strides[0] == 8 and strides[1] == 8 * shape[0]
