import dataclasses
import math

import numpy as np
import pytest

from kantorov.analysis import (
    check_bound,
    convergence_table,
    convexity_preservation,
    convexity_report,
    equibounded_constant,
    lambda_n,
    lambda_p_bound_value,
    lipschitz_preservation,
    loglog_slope,
    lp_error,
    lp_grid,
    lp_norm,
    random_points,
    sandwich_check,
    sup_error,
)
from kantorov import analysis, bernstein, kantorovich
from kantorov.bernstein import basis_weights, eval_Bn
from kantorov.catalog import lookup
from kantorov.errors import ConfigError
from kantorov.geometry import Domain, ProductGrid, contains, uniform_grid
from kantorov.kantorovich import OperatorConfig, eval_Cn, eval_Cn_cells
from kantorov.measures import (all_lebesgue, constant_lebesgue, dirac_shift, lebesgue_measure,
                               power_of_base)
from kantorov.moduli import omega1, omega2, omega_kp, tau_p

I = Domain.interval()
Q2 = Domain.hypercube(2)
Q3 = Domain.hypercube(3)
K2 = Domain.simplex(2)
K3 = Domain.simplex(3)


def _case_id(dom: Domain) -> str:
    """Test id of a domain case: ``interval1`` for I, which is the 1-cube,
    else its kind and dimension."""
    return "interval1" if dom == I else f"{dom.kind}{dom.dim}"


def cfg_for(domain, a, measures=None):
    return OperatorConfig(domain, a, measures or constant_lebesgue())


KANT1 = cfg_for(I, 1.0)


def test_lp_norm_oracles():
    assert lp_norm(I, lambda p: p[:, 0], 2.0) == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-13)
    assert lp_norm(I, lambda p: p[:, 0] - 0.5, 1.0) == pytest.approx(0.25, abs=1e-13)
    # raw (unnormalized) Lebesgue on the simplex: ||1||_1 = 1/2
    assert lp_norm(K2, lambda p: np.ones(p.shape[0]), 1.0) == pytest.approx(0.5, abs=1e-13)
    assert lp_norm(Q2, lambda p: p[:, 0] * p[:, 1], 2.0) == pytest.approx(1.0 / 3.0, abs=1e-13)


def test_random_points_stay_inside():
    rng = np.random.default_rng(42)
    for dom in (I, Q2, K2):
        pts = random_points(dom, 200, rng)
        assert pts.shape == (200, dom.dim)
        assert all(contains(dom, p) for p in pts)


def test_sup_error_hand_value():
    # ||C_4(id) - id||_inf = max |x/5 + 1/10 - x| peaks at x = 1
    f = lookup("affine", [0.0, 1.0], I)
    assert sup_error(KANT1, 4, f, 200) == pytest.approx(0.1, abs=1e-12)


def test_lp_error_hand_value():
    # ||C_1(id) - id||_1 = int |1/4 - x/2| dx = 1/8
    f = lookup("affine", [0.0, 1.0], I)
    assert lp_error(KANT1, 1, f, 1.0) == pytest.approx(0.125, abs=1e-6)


def test_lambda_inf_hand_value():
    # interval, a = 1, n = 1: the squares term dominates at 5/12
    assert lambda_n(KANT1, 1, math.inf, 800) == pytest.approx(5.0 / 12.0, abs=1e-9)


def test_lambda_bound_holds_for_small_n():
    for dom in (I, Q2, K2):
        cfg = cfg_for(dom, 1.0)
        for n in (1, 3, 10):
            for p in (1.0, 2.0):
                measured = lambda_n(cfg, n, p)
                assert measured <= lambda_p_bound_value(dom, 1.0, n, p) * (1.0 + 1e-12)


def test_lambda_decays_like_1_over_n():
    vals = [lambda_n(KANT1, n, 2.0) for n in (4, 16, 64)]
    slope = loglog_slope([4, 16, 64], vals)
    assert slope == pytest.approx(-1.0, abs=0.12)


def test_equibounded_constant_values():
    assert equibounded_constant(Q2, 1.0) == 1.0  # exactly
    assert equibounded_constant(I, 0.5) == pytest.approx(2.0)
    assert equibounded_constant(I, 2.0) == pytest.approx(0.75)
    assert equibounded_constant(K2, 1.0) == pytest.approx(2.0)
    with pytest.raises(ConfigError):
        equibounded_constant(I, 0.0)


def test_check_bound_rejects_bad_ids_and_measures():
    f = lookup("abs_dist", [0.5], I)
    with pytest.raises(ConfigError):
        check_bound(KANT1, f, [1, 2], "no_such_bound")
    cfg = cfg_for(I, 1.0, dirac_shift([0.25]))
    with pytest.raises(ConfigError):
        check_bound(cfg, f, [1, 2], "lambda_p_bound")


def test_omega_total_bound_with_exact_modulus():
    f = lookup("abs_dist", [0.5], I)
    rep = check_bound(KANT1, f, [4, 16, 64], "omega_total", 400)
    assert rep.passed and rep.bound_id == "omega_total"
    assert rep.max_ratio < 0.5  # comfortable margin in practice
    assert [r.n for r in rep.rows] == [4, 16, 64]


def test_omega_total_bound_grid_modulus():
    f = lookup("runge", [], I)  # no closed-form modulus
    rep = check_bound(KANT1, f, [8, 32], "omega_total", 400)
    assert rep.passed


@pytest.mark.parametrize("dom,name", [(Q2, "product12"), (Q2, "runge"), (I, "runge"),
                                      (K2, "runge"), (Q3, "runge"), (K3, "runge")],
                         ids=lambda c: c if isinstance(c, str) else _case_id(c))
def test_grid_modulus_of_the_bound_checks_is_omega1(dom, name):
    # every modulus of an unsorted delta array, with a duplicate, a delta
    # below one grid step and 0.29 (0.29 * 100 is 28.999999999999996),
    # is bitwise the scalar call; tau_p takes deltas of two grid steps or
    # more, and refuses the others; the bound checks inflate omega1
    f = lookup(name, [], dom)
    m = {1: 100, 2: 12, 3: 5}[dom.dim]
    deltas = np.array([0.29, 0.05, 0.4 / m, 1.0 / 6.0, 0.29, 0.125, 1.0])
    moduli = {
        "omega1": (lambda d: omega1(f, dom, d, m), deltas),
        "omega2": (lambda d: omega2(f, dom, d, m), deltas),
        "tau_p": (lambda d: tau_p(f, dom, d, 2.0, m), np.maximum(deltas, 2.0 / m)),
        "omega_kp": (lambda d: omega_kp(f, dom, 2, d, 1.5, m), deltas),
    }
    for modulus, (call, ds) in moduli.items():
        got = call(ds)
        assert isinstance(got, np.ndarray), modulus
        assert got.tolist() == [call(float(d)) for d in ds], modulus
    for bad in (deltas, 0.4 / m):
        with pytest.raises(ConfigError, match=r"2/m = "):
            tau_p(f, dom, bad, 2.0, m)
    with_zero = np.concatenate([[0.0], deltas])
    bound_omega, exact = analysis._omegas(f, dom, m, with_zero)
    assert not exact
    assert bound_omega.tolist() == [0.0] + [
        analysis._OMEGA_INFLATE * omega1(f, dom, float(d), m) for d in deltas
    ]


def test_omega_pointwise_and_uniform_bounds():
    f = lookup("abs_dist", [0.5], I)
    for bound_id in ("omega_pointwise", "omega_uniform"):
        for a in (0.0, 1.0):
            rep = check_bound(cfg_for(I, a), f, [4, 32], bound_id, 300)
            assert rep.passed, (bound_id, a, rep.max_ratio)
    f2 = lookup("abs_dist_coord", [1, 0.5], K2)
    rep = check_bound(cfg_for(K2, 0.5), f2, [3, 9], "omega_pointwise", 30)
    assert rep.passed


def test_lambda_p_bound_report():
    rep = check_bound(cfg_for(Q2, 2.0), None, [1, 5, 25], "lambda_p_bound", 8, p=2.0)
    assert rep.passed
    assert [r.n for r in rep.rows] == [1, 5, 25]
    assert all(r.bound == lambda_p_bound_value(Q2, 2.0, r.n, 2.0) for r in rep.rows)


def test_power_one_of_lebesgue_is_constant_lebesgue():
    # the first power of Lebesgue is Lebesgue itself: the cell form and
    # the constant-Lebesgue bounds take it, with the same numbers
    leb, pow1 = constant_lebesgue(), power_of_base(lebesgue_measure(), 1)
    assert all_lebesgue(leb) and all_lebesgue(pow1)
    assert not all_lebesgue(power_of_base(lebesgue_measure(), 2))
    assert not all_lebesgue(dirac_shift([0.25]))
    for dom in (I, K2):
        f = lookup("exp_sum", [], dom)
        xs = uniform_grid(dom, 5)
        want = eval_Cn_cells(cfg_for(dom, 1.0, leb), 6, f, xs)
        assert eval_Cn_cells(cfg_for(dom, 1.0, pow1), 6, f, xs).tobytes() == want.tobytes()
        reports = [check_bound(cfg_for(dom, 2.0, seq), None, [1, 5], "lambda_p_bound", 6, p=2.0)
                   for seq in (leb, pow1)]
        assert reports[0].passed and reports[1] == reports[0]


def test_lp_equibounded_report():
    f = lookup("exp_sum", [], I)
    rep = check_bound(cfg_for(I, 1.0), f, [1, 4, 16], "lp_equibounded", 8, p=2.0)
    assert rep.passed
    with pytest.raises(ConfigError):
        check_bound(cfg_for(I, 0.0), f, [1], "lp_equibounded")
    with pytest.raises(ConfigError):
        check_bound(cfg_for(I, 1.0), f, [1], "lp_equibounded", p=math.inf)


def test_convexity_preserved_on_interval():
    f = lookup("abs_dist", [0.5], I)
    for n in (1, 2, 7):
        rep = convexity_report(lambda p: eval_Cn(KANT1, n, f, p), I, "convex", 80)
        assert rep.passed, rep.worst_violation


def _witness_violation(g, rep):
    """g at the witness pair's midpoint above the chord."""
    x, y = rep.witness
    return float(g(((x + y) / 2.0)[None, :])[0] - 0.5 * (g(x[None, :])[0] + g(y[None, :])[0]))


def test_convexity_scan_flags_violations():
    # a genuinely non-convex function is caught with a witness
    g = lambda p: -((p[:, 0] - 0.5) ** 2)
    rep = convexity_report(g, I, "convex", 40)
    assert not rep.passed
    assert rep.worst_violation > 1e-3
    assert _witness_violation(g, rep) == pytest.approx(rep.worst_violation, abs=1e-15)


def test_product12_counterexample_on_square():
    # B_2 of x*y equals x*y itself: coordinate-convex but not convex
    f = lookup("product12", [], Q2)
    vals = lambda p: eval_Bn(Q2, 2, f, p)
    assert convexity_report(vals, Q2, "coordinate_convex", 16).passed
    # worst pair is (0,1) vs (1,0): midpoint value 1/4 above the chord
    rep = convexity_report(vals, Q2, "convex", 16)
    assert not rep.passed
    assert rep.worst_violation == pytest.approx(0.25, abs=1e-12)
    assert _witness_violation(vals, rep) == pytest.approx(rep.worst_violation, abs=1e-15)


def test_axially_convex_on_simplex():
    f = lookup("abs_diff12", [], K2)
    vals = lambda p: eval_Bn(K2, 2, f, p)
    assert convexity_report(vals, K2, "axially_convex", 16).passed
    # the same surface fails the full convexity scan
    rep = convexity_report(vals, K2, "convex", 16)
    assert not rep.passed
    assert _witness_violation(vals, rep) == pytest.approx(rep.worst_violation, abs=1e-15)
    with pytest.raises(ConfigError):
        convexity_report(vals, Q2, "axially_convex", 8)


def test_sandwich_between_f_and_markov():
    for dom in (I, Q2, K2):
        cfg = cfg_for(dom, 1.0)
        f = lookup("exp_sum", [], dom)
        for n in (1, 3):
            rep = sandwich_check(cfg, n, f, 20)
            assert rep, (dom.kind, n, rep)


def test_sandwich_detects_violation():
    # concave function flips the lower inequality
    cfg = KANT1
    g = lookup("constant", [0.0], I)

    def concave(p):
        return p[:, 0] * (1.0 - p[:, 0])

    concave.meta = g.meta
    rep = sandwich_check(cfg, 2, concave, 40)
    assert not rep.passed
    assert rep.below_violation > 0.01


def test_lipschitz_preservation_reports():
    f = lookup("abs_dist", [0.5], I)
    rep = lipschitz_preservation(KANT1, 5, f, 200)
    assert rep.passed
    assert rep.estimate <= rep.constant + rep.tol
    plain = lookup("runge", [], I)
    rep = lipschitz_preservation(cfg_for(I, 2.0, power_of_base(lebesgue_measure(), 2)), 4, plain, 200)
    assert rep.passed


def test_convergence_table_rows():
    f = lookup("abs_dist", [0.5], I)
    rows = convergence_table(KANT1, f, [16, 4, 64], 200, p=2.0)
    assert [r.n for r in rows] == [4, 16, 64]
    sups = [r.sup_error for r in rows]
    assert sups[0] > sups[1] > sups[2] > 0.0
    assert all(r.lp_error is not None and r.lp_error <= r.sup_error + 1e-12 for r in rows)


def test_loglog_slope_recovers_exponent():
    ns = [4, 8, 16, 32]
    errs = [3.0 * n ** -0.5 for n in ns]
    assert loglog_slope(ns, errs) == pytest.approx(-0.5, abs=1e-12)


def _dense_lp_error(cfg, n, f, p, level):
    """lp_error with C_n evaluated at the grid's points one by one (the
    dense per-point contraction)."""
    cn = eval_Cn_cells if cfg.a > 0.0 and all_lebesgue(cfg.measures) else eval_Cn
    return lp_norm(cfg.domain, lambda pts: cn(cfg, n, f, pts) - f(pts), p, level)


@pytest.mark.parametrize("dom,a,measures,n,level", [
    (I, 1.0, None, 40, 8),
    (I, 0.0, None, 7, 8),
    (Q2, 1.0, None, 16, 8),
    (Q2, 2.0, dirac_shift([0.25, 0.75]), 9, 8),
    (Q3, 1.0, None, 6, 4),
    (K2, 1.0, None, 64, 8),
    (K2, 2.0, power_of_base(lebesgue_measure(), 2), 5, 6),
    (K3, 1.0, None, 6, 4),
], ids=lambda c: _case_id(c) if isinstance(c, Domain) else None)
def test_lp_error_matches_dense_path(dom, a, measures, n, level):
    cfg = cfg_for(dom, a, measures)
    f = lookup("exp_sum", (), dom)
    for p in (1.0, 2.0):
        got = lp_error(cfg, n, f, p, level)
        assert got == pytest.approx(_dense_lp_error(cfg, n, f, p, level), rel=1e-12, abs=0.0)


def test_lp_grid_is_a_product_grid():
    grid = lp_grid(K2, 3)  # rounded up to 4 panels of 7 nodes
    assert grid.nodes_1d.shape == (28,) and len(grid) == 28**2
    assert grid.points.shape == grid.shape == (784, 2)
    assert math.fsum(grid.weights) == pytest.approx(0.5, abs=1e-14)
    assert lp_grid(Q3, 2).shape == (12**3, 3)


def test_lp_norms_of_cn_skip_the_dense_simplex_basis(monkeypatch):
    # the collapsed coordinates of scattered points feed the per-point
    # contraction and the basis values; a product grid needs neither
    def refuse(*args):
        raise AssertionError("simplex grid points evaluated one by one")

    monkeypatch.setattr(bernstein, "_collapsed", refuse)
    for dom, n, level in ((K2, 32, 8), (K3, 6, 4)):
        f = lookup("exp_sum", (), dom)
        for cfg in (cfg_for(dom, 1.0), cfg_for(dom, 2.0, dirac_shift([0.25] * dom.dim))):
            assert 0.0 < lp_error(cfg, n, f, 2.0, level) < 0.1
        assert check_bound(cfg_for(dom, 1.0), f, [n], "lp_equibounded", level).passed


def _uniform_grid_checks(cfg, n, f, m):
    """The checks that evaluate C_n or B_n on ``uniform_grid(m)``, each as
    a thunk returning its numbers."""
    def convexity():
        rep = convexity_preservation(cfg, n, f, "coordinate_convex", m)
        return rep.passed, rep.worst_violation, tuple(map(tuple, rep.witness))

    return {
        "sup_error": lambda: sup_error(cfg, n, f, m),
        "sandwich_check": lambda: sandwich_check(cfg, n, f, m),
        "lipschitz_preservation": lambda: lipschitz_preservation(cfg, n, f, m),
        "omega_pointwise": lambda: check_bound(cfg, f, [n], "omega_pointwise", m),
        "convexity_preservation": convexity,
    }


def _record_contractions(monkeypatch):
    """Every lattice contraction behind eval_Cn and eval_Bn, as
    ``(domain, n, values, points, result)``."""
    calls = []
    contract = bernstein.apply_lattice_values

    def recording(domain, n, values, x):
        out = contract(domain, n, values, x)
        calls.append((domain, n, np.asarray(values), x, out))
        return out

    monkeypatch.setattr(bernstein, "apply_lattice_values", recording)
    monkeypatch.setattr(kantorovich, "apply_lattice_values", recording)
    return calls


@pytest.mark.parametrize("dom", (I, Q2, Q3, K2), ids=_case_id)
def test_uniform_grid_checks_contract_on_a_product_grid_off_the_simplex(dom, monkeypatch):
    # on the interval and cube the grid's rows contract axis by axis, to
    # within a few ulp of the basis values times the lattice values; the
    # simplex keeps the point batch
    calls = _record_contractions(monkeypatch)
    cfg, f = cfg_for(dom, 1.0), lookup("exp_sum", (), dom)
    n, m = {1: (16, 40), 2: (8, 10), 3: (4, 6)}[dom.dim]
    for name, check in _uniform_grid_checks(cfg, n, f, m).items():
        calls.clear()
        check()
        assert calls, name
        for domain, order, vals, x, out in calls:
            if dom.kind == "simplex":
                assert isinstance(x, np.ndarray), name
                continue
            assert isinstance(x, ProductGrid), name
            ref = basis_weights(domain, order, x.points) @ vals
            tol = 4.0 * np.finfo(float).eps * np.max(np.abs(vals))
            np.testing.assert_allclose(out, ref, rtol=0.0, atol=tol, err_msg=name)


def test_uniform_grid_checks_on_the_interval_equal_the_scattered_path(monkeypatch):
    cfg, f = KANT1, lookup("abs_dist", [0.3], I)
    on_grid = {name: check() for name, check in _uniform_grid_checks(cfg, 12, f, 50).items()}
    monkeypatch.setattr(analysis, "_grid", uniform_grid)
    for name, check in _uniform_grid_checks(cfg, 12, f, 50).items():
        assert check() == on_grid[name], name


_TABLE_CONFIGS = {
    "lebesgue": lambda dom: cfg_for(dom, 1.0),
    "dirac": lambda dom: cfg_for(dom, 2.0, dirac_shift([0.25] * dom.dim)),
    "a=0": lambda dom: cfg_for(dom, 0.0),
}


@pytest.mark.parametrize("kind", _TABLE_CONFIGS)
@pytest.mark.parametrize("dom", (I, Q2, K2), ids=_case_id)
def test_tables_equal_the_per_n_calls_bit_for_bit(dom, kind):
    cfg, m = _TABLE_CONFIGS[kind](dom), 12
    for f in (lookup("exp_sum", (), dom), lookup("abs_dist", [0.5] * dom.dim, dom)):
        rows = convergence_table(cfg, f, [7, 2, 4], m, p=2.0)
        assert rows == [analysis.ErrorRow(n, sup_error(cfg, n, f, m), lp_error(cfg, n, f, 2.0))
                        for n in (2, 4, 7)]
        report = check_bound(cfg, f, [7, 2, 4], "omega_total", m)
        assert [(r.n, r.measured) for r in report.rows] == [(r.n, r.sup_error) for r in rows]


def _counting(f, calls):
    """``f`` with the same meta, recording the points of each call."""
    def counted(pts):
        calls.append(np.array(pts))
        return f.eval(pts)

    return dataclasses.replace(f, eval=counted)


def _calls_on(calls, pts):
    return sum(1 for c in calls if c.shape == pts.shape and np.array_equal(c, pts))


@pytest.mark.parametrize("dom", (I, Q2, K2), ids=_case_id)
def test_tables_evaluate_f_once_per_grid(dom):
    # whatever the number of n: once on the uniform grid and once on the
    # lp_grid per table; the omega_total check adds omega1's own pass over
    # the uniform grid
    cfg, m = cfg_for(dom, 1.0), 10
    xs, lgrid = uniform_grid(dom, m), lp_grid(dom)
    for n_list in ([4], [2, 4, 8, 16]):
        calls = []
        f = _counting(lookup("runge", (), dom), calls)
        convergence_table(cfg, f, n_list, m, p=2.0)
        assert (_calls_on(calls, xs), _calls_on(calls, lgrid.points)) == (1, 1), n_list
        calls.clear()
        check_bound(cfg, f, n_list, "omega_total", m)
        assert _calls_on(calls, xs) == 2, n_list


def test_lambda_checks_build_one_grid(monkeypatch):
    built = []

    def counting(build):
        def wrapper(*args):
            built.append(build.__name__)
            return build(*args)
        return wrapper

    monkeypatch.setattr(analysis, "lp_grid", counting(lp_grid))
    monkeypatch.setattr(analysis, "uniform_grid", counting(uniform_grid))
    cfg = cfg_for(Q2, 1.0)
    assert check_bound(cfg, lookup("exp_sum", (), Q2), [2, 4, 8], "lambda_p_bound", 4).passed
    assert built == ["lp_grid"]
    built.clear()
    lambda_n(cfg, 4, 2.0, 4)
    lambda_n(cfg, 4, math.inf, 10)
    assert built == ["lp_grid", "uniform_grid"]
