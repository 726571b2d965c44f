"""One admission rule for points and one finite-value guard.

Every public entry point that takes caller points accepts a point
exactly when ``geometry.contains`` does, and every function value the
package reads passes ``geometry.values``, so a NaN raises
``NumericError`` wherever it appears.
"""

import json
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kantorov import geometry, kantorovich
from kantorov.analysis import (check_bound, convergence_table, convexity_report, lambda_n,
                               lipschitz_preservation, lp_error, lp_grid, lp_norm, sandwich_check)
from kantorov.bernstein import apply_lattice_values, basis, basis_weights, eval_Bn, lattice_points
from kantorov.catalog import lookup
from kantorov.cli import main, parse_config
from kantorov.errors import ConfigError, NumericError
from kantorov.geometry import (Domain, ProductGrid, admit, contains, quadrature_rule,
                               uniform_grid, uniform_product_grid, values)
from kantorov.kantorovich import (
    AffineForm,
    OperatorConfig,
    cn_product,
    coordinate_form,
    eval_Cn,
    eval_Cn_cells,
    eval_In,
)
from kantorov.markov import selection
from kantorov.measures import constant_lebesgue, discrete_measure, lebesgue_measure, measure_nodes
from kantorov.moduli import lipschitz_estimate, omega1, omega2, omega_kp, tau_p

I = Domain.interval()
Q2 = Domain.hypercube(2)
Q3 = Domain.hypercube(3)
K2 = Domain.simplex(2)
K3 = Domain.simplex(3)


def _case_id(dom: Domain) -> str:
    """Test id of a domain case: ``interval1`` for I, which is the 1-cube,
    else its kind and dimension."""
    return "interval1" if dom == I else f"{dom.kind}{dom.dim}"

N = 3


def cfg_for(domain, a=1.0):
    return OperatorConfig(domain, a, constant_lebesgue())


def eval_config(domain, x):
    return {
        "domain": {"kind": domain.kind, "dim": domain.dim},
        "operator": {"a": 1.0},
        "function": {"name": "exp_sum"},
        "experiment": {"n_list": [N], "points": [list(map(float, x))]},
    }


def entry_points(domain):
    """Name -> callable of one point, for every public evaluator that
    takes caller points, ``selection`` and the CLI's config parser."""
    cfg = cfg_for(domain)
    f = lookup("exp_sum", (), domain)
    h = coordinate_form(domain, 0)
    k = AffineForm(0.5, (1.0,) * domain.dim)
    ones = np.ones(lattice_points(domain, N).shape[0])
    return {
        "eval_Cn": lambda x: eval_Cn(cfg, N, f, x),
        "eval_Cn batch": lambda x: eval_Cn(cfg, N, f, [x]),
        "eval_Cn_cells": lambda x: eval_Cn_cells(cfg, N, f, x),
        "eval_In": lambda x: eval_In(cfg, N, f, x),
        "eval_Bn": lambda x: eval_Bn(domain, N, f, x),
        "eval_Bn batch": lambda x: eval_Bn(domain, N, f, [x]),
        "basis": lambda x: basis(domain, N, (0,) * domain.dim, x),
        "basis_weights": lambda x: basis_weights(domain, N, [x]),
        "apply_lattice_values": lambda x: apply_lattice_values(domain, N, ones, [x]),
        "cn_product affine": lambda x: cn_product(cfg, N, h, x),
        "cn_product square": lambda x: cn_product(cfg, N, h, x, h),
        "cn_product bilinear": lambda x: cn_product(cfg, N, h, x, k),
        "selection": lambda x: selection(cfg.domain, x),
        "parse_config": lambda x: parse_config(eval_config(domain, x), "eval"),
    }


ENTRY_POINTS = {dom: entry_points(dom) for dom in (I, Q2, K2, K3)}


def verdicts(domain, x):
    """Name -> whether the entry point (or ``contains``) accepted ``x``."""
    out = {"contains": contains(domain, np.array(x))}
    for name, call in ENTRY_POINTS[domain].items():
        try:
            call(np.array(x))
            out[name] = True
        except ConfigError:
            out[name] = False
    return out


# ---------------------------------------------------------------------------
# points


def _with(x, i, value):
    x = np.array(x)
    x[i] = value
    return x


def _on_face(u, excess, i):
    x = u / u.sum()
    x[i] += excess
    return x


def points(domain):
    """(point, expected verdict): inside, on or within 1e-12 of the
    boundary, just beyond it, or with a NaN or infinite coordinate."""
    d = domain.dim
    cube = st.lists(st.floats(0.0, 1.0), min_size=d, max_size=d).map(np.array)
    axis = st.integers(0, d - 1)
    nonfinite = st.builds(_with, cube, axis, st.sampled_from([np.nan, np.inf, -np.inf]))
    if domain.kind == "simplex":
        inside = cube.map(lambda u: u / max(1.0, u.sum()))
        positive = st.lists(st.floats(0.01, 1.0), min_size=d, max_size=d).map(np.array)
        near = st.builds(_on_face, positive, st.floats(0.0, 0.9e-12), axis)
        beyond = st.builds(_on_face, positive, st.floats(1.1e-12, 1e-9), axis)
    else:
        inside = cube
        near = st.builds(_with, cube, axis, st.sampled_from([0.0, 1.0]))
        excess = st.floats(1e-15, 1e-9)
        beyond = st.one_of(st.builds(_with, cube, axis, excess.map(lambda e: 1.0 + e)),
                           st.builds(_with, cube, axis, excess.map(lambda e: -e)))
    return st.one_of(
        st.tuples(inside, st.just(True)),
        st.tuples(near, st.just(True)),
        st.tuples(beyond, st.just(False)),
        st.tuples(nonfinite, st.just(False)),
    )


@pytest.mark.parametrize("domain", (I, Q2, K2, K3), ids=_case_id)
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_every_entry_point_admits_a_point_as_contains_does(domain, data):
    x, expected = data.draw(points(domain))
    got = verdicts(domain, x)
    assert got == dict.fromkeys(got, expected), x


def test_simplex_point_within_the_tolerance_is_accepted_everywhere(tmp_path):
    x = np.array([0.5, 0.5 + 1e-13])
    assert all(verdicts(K2, x).values())
    value = eval_Cn(cfg_for(K2), N, lookup("exp_sum", (), K2), x)
    assert eval_Cn(cfg_for(K2), N, lookup("exp_sum", (), K2), x[None])[0] == value
    csv = tmp_path / "ev.csv"
    doc = dict(eval_config(K2, x), output={"csv_path": str(csv)})
    path = tmp_path / "ev.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["eval", "--config", str(path)]) == 0
    row = csv.read_text().splitlines()[1].split(",")
    assert float(row[2]) == value


@pytest.mark.parametrize("x", ([0.5, 0.5 + 1e-11], [0.5, np.nan]), ids=("beyond", "nan"))
def test_simplex_point_beyond_the_tolerance_is_rejected_everywhere(x):
    assert not any(verdicts(K2, x).values())


@pytest.mark.parametrize("x", ([1.0 + 1e-11], [np.nan], [-np.inf]), ids=("beyond", "nan", "inf"))
def test_interval_point_outside_is_rejected_everywhere(x):
    assert not any(verdicts(I, x).values())


def test_admit_checks_shape_emptiness_finiteness_and_membership():
    pts, single = admit(K2, [0.25, 0.5])
    assert single and pts.shape == (1, 2)
    pts, single = admit(K2, [[0.25, 0.5], [0.0, 1.0]])
    assert not single and pts.shape == (2, 2)
    assert admit(I, 0.5)[0].shape == (1, 1)
    for bad, match in (([0.1, 0.2, 0.3], "shape"), (np.empty((0, 2)), "empty"),
                       ([0.1, np.inf], "non-finite"), ([0.7, 0.7], "outside")):
        with pytest.raises(ConfigError, match=match):
            admit(K2, bad)


# ---------------------------------------------------------------------------
# function values


def nan_above(t):
    return lambda p: np.where(p[:, 0] > t, np.nan, p[:, 0])


def test_values_names_the_first_non_finite_point():
    pts = uniform_grid(I, 4)
    with pytest.raises(NumericError, match="non-finite") as err:
        values(nan_above(0.6), pts)
    assert err.value.point.tolist() == [0.75]
    with pytest.raises(ConfigError, match=r"\(G,\)"):
        values(lambda p: p, pts)


def test_values_names_the_first_non_finite_row_of_an_axis_major_batch():
    # the inner-integral engine hands f the transpose of a (d, G) array
    cols = np.arange(3 * 10, dtype=float).reshape(3, 10) / 30
    pts = cols.T
    assert not pts.flags.c_contiguous
    bad = np.zeros(10)
    bad[[7, 4, 9]] = [np.nan, np.inf, -np.inf]
    with pytest.raises(NumericError, match="non-finite") as err:
        values(lambda p: p[:, 0] + bad, pts)
    assert err.value.point.tolist() == cols[:, 4].tolist()
    assert err.value.point.base is None  # a copy: it does not pin the batch


@pytest.mark.parametrize("domain", [Q2, K2, K3], ids=["Q2", "K2", "K3"])
def test_inner_integrals_report_the_first_non_finite_point(domain):
    # f marks its own first non-finite row; the error must name that point
    seen = []

    def f(p):
        out = np.where(p[:, -1] > 0.3, np.inf, p[:, 0])
        if not seen and np.isinf(out).any():
            seen.append(p[np.argmax(np.isinf(out))].copy())
        return out

    with pytest.raises(NumericError) as err:
        eval_Cn(cfg_for(domain), 4, f, [0.1] * domain.dim)
    assert err.value.point.tolist() == seen[0].tolist()


def test_eval_Cn_admits_points_before_the_inner_integrals():
    calls = []

    def f(p):
        calls.append(len(p))
        return p[:, 0]

    before = kantorovich._inner_values.cache_info()
    for bad in ([1.5], [[0.5], [np.nan]], lp_grid(K2, 2)):
        with pytest.raises(ConfigError):
            eval_Cn(cfg_for(I), 64, f, bad)
    assert calls == []
    assert kantorovich._inner_values.cache_info() == before


NAN_CALLS = {
    "omega1": lambda f: omega1(f, Q2, 0.2, 8),
    "omega2": lambda f: omega2(f, Q2, 0.2, 8),
    "tau_p": lambda f: tau_p(f, Q2, 0.25, 1.0, 8),  # delta >= 2/m
    "omega_kp": lambda f: omega_kp(f, Q2, 1, 0.2, 1.0, 8),
    "lipschitz_estimate": lambda f: lipschitz_estimate(f, Q2, 8),
    "lipschitz_estimate array": lambda f: lipschitz_estimate(f(uniform_grid(Q2, 8)), Q2, 8),
    "convexity_report": lambda f: convexity_report(f, I, "convex", 8),
    "convexity_report array": lambda f: convexity_report(f(uniform_grid(I, 16)), I, "convex", 8),
    "lp_norm": lambda f: lp_norm(I, f, 2.0),
    "sandwich_check": lambda f: sandwich_check(cfg_for(I), 4, f, 16),
    "eval_In a=0": lambda f: eval_In(cfg_for(I, 0.0), 4, f, [0.9]),
    "eval_Bn": lambda f: eval_Bn(I, 4, f, [0.5]),
}


@pytest.mark.parametrize("name", NAN_CALLS)
def test_nan_function_values_raise_numeric_error(name):
    with pytest.raises(NumericError):
        NAN_CALLS[name](nan_above(0.7))


# Every argument check of the library, called through a public function.
_FIRST = lambda p: p[:, 0]
# points of each call of _COUNTED; the table cases raise before calling it
_COUNTED_CALLS = []


def _COUNTED(pts):
    _COUNTED_CALLS.append(pts)
    return pts[:, 0]


BAD_ARGUMENTS = {
    "Domain kind": lambda: Domain("cube", 1),
    "Domain interval dim": lambda: Domain("interval", 2),
    "Domain dim": lambda: Domain.hypercube(4),
    "values shape": lambda: values(lambda p: p, uniform_grid(Q2, 2)),
    "uniform_grid m": lambda: uniform_grid(I, 0),
    "uniform_product_grid simplex": lambda: uniform_product_grid(K2, 4),
    "uniform_product_grid m": lambda: uniform_product_grid(Q2, 0),
    "ProductGrid shapes": lambda: ProductGrid(I, np.array([0.5]), np.ones(2)),
    "ProductGrid nodes": lambda: ProductGrid(I, np.array([1.5]), np.ones(1)),
    "quadrature_rule level": lambda: quadrature_rule(I, 0),
    "lp_norm p": lambda: lp_norm(I, _FIRST, 0.5),
    "lp_error p": lambda: lp_error(cfg_for(I), 2, _FIRST, 0.5),
    # p = inf is no L^p exponent; lambda_n alone takes math.inf, as the sup norm
    "lp_norm p inf": lambda: lp_norm(I, _FIRST, math.inf),
    "lp_error p inf": lambda: lp_error(cfg_for(I), 2, _FIRST, math.inf),
    "tau_p p inf": lambda: tau_p(_FIRST, Q2, 0.25, math.inf, 8),
    "omega_kp p inf": lambda: omega_kp(_FIRST, Q2, 1, 0.2, math.inf, 8),
    "lp_norm p nan": lambda: lp_norm(I, _FIRST, math.nan),
    "lambda_n p nan": lambda: lambda_n(cfg_for(I), 2, math.nan),
    "lambda_n p string": lambda: lambda_n(cfg_for(I), 2, "inf"),
    # lp_grid's panel level: an integer >= 1, not a bool, through every caller
    "lp_grid level 0": lambda: lp_grid(I, 0),
    "lp_grid level -3": lambda: lp_grid(Q2, -3),
    "lp_grid level True": lambda: lp_grid(I, True),
    "lp_grid level 2.5": lambda: lp_grid(I, 2.5),
    "lp_norm level nan": lambda: lp_norm(I, _FIRST, 2.0, math.nan),
    "lp_error level inf": lambda: lp_error(cfg_for(I), 2, _FIRST, 2.0, math.inf),
    "lambda_n level 0": lambda: lambda_n(cfg_for(I), 2, 2.0, 0),
    "check_bound level nan": lambda: check_bound(cfg_for(I), _FIRST, [2], "lp_equibounded",
                                                 math.nan),
    # every n of a table is an operator index, and p a norm exponent, before any work
    "convergence_table n 2.7": lambda: convergence_table(cfg_for(I), _COUNTED, [4, 2.7], 8),
    "convergence_table n True": lambda: convergence_table(cfg_for(I), _COUNTED, [True], 8),
    "convergence_table n string": lambda: convergence_table(cfg_for(I), _COUNTED, ["3"], 8),
    "convergence_table n nan": lambda: convergence_table(cfg_for(I), _COUNTED, [math.nan], 8),
    "convergence_table p 0.5": lambda: convergence_table(cfg_for(I), _COUNTED, [2], 8, 0.5),
    "check_bound n 2.7": lambda: check_bound(cfg_for(I), _COUNTED, [2.7], "omega_total", 8),
    "check_bound n True": lambda: check_bound(cfg_for(I), _COUNTED, [True], "omega_total", 8),
    "check_bound n string": lambda: check_bound(cfg_for(I), _COUNTED, ["3"], "omega_total", 8),
    "check_bound n nan": lambda: check_bound(cfg_for(I), _COUNTED, [math.nan], "omega_total", 8),
    "check_bound p True": lambda: check_bound(cfg_for(I), _COUNTED, [2], "lp_equibounded",
                                              p=True),
    # every grid scan needs m >= 2, checked before f is evaluated
    "omega1 m 1": lambda: omega1(_COUNTED, I, 0.5, 1),
    "omega2 m 1": lambda: omega2(_COUNTED, I, 0.5, 1),
    "tau_p m 1": lambda: tau_p(_COUNTED, I, 2.0, 2.0, 1),
    "omega_kp m 1": lambda: omega_kp(_COUNTED, I, 1, 0.5, 1.0, 1),
    "lipschitz_estimate m 1": lambda: lipschitz_estimate(_COUNTED, I, 1),
    "lipschitz_estimate array m 1": lambda: lipschitz_estimate(np.zeros(2), I, 1),
    "convexity_report m 1": lambda: convexity_report(_COUNTED, I, "convex", 1),
    "convexity_report mode": lambda: convexity_report(_FIRST, I, "concave", 4),
    "convexity_report axially_convex": lambda: convexity_report(_FIRST, Q2, "axially_convex", 4),
    "lipschitz_preservation constant": lambda: lipschitz_preservation(cfg_for(I), 2, _FIRST, 4),
    "basis index dim": lambda: basis(Q2, 2, [1], [0.5, 0.5]),
    "basis index range": lambda: basis(I, 2, [3], [0.5]),
    "basis simplex order": lambda: basis(K2, 2, [2, 1], [0.25, 0.25]),
    "basis one point": lambda: basis(I, 2, [1], [[0.2], [0.3]]),
    "AffineForm finite": lambda: AffineForm(math.inf, (1.0,)),
    "coordinate_form index": lambda: coordinate_form(Q2, 2),
    # cn_product refuses a form of the wrong dimension: the square of
    # Q3's third coordinate on Q2, a 3-d form as h, a 1-d form as k
    "cn_product pr_3": lambda: cn_product(cfg_for(Q2), 2, coordinate_form(Q3, 2), [0.5, 0.5],
                                          coordinate_form(Q3, 2)),
    "cn_product h": lambda: cn_product(cfg_for(Q2), 2, AffineForm(0.1, (1.0, 2.0, 3.0)),
                                       [0.5, 0.5]),
    "cn_product k": lambda: cn_product(cfg_for(Q2), 2, coordinate_form(Q2, 0), [0.5, 0.5],
                                       AffineForm(0.1, (1.0,))),
    "measure_nodes cut": lambda: measure_nodes(lebesgue_measure(), K2, 4,
                                               cuts=[np.array([0.5])] * 2),
    "discrete_measure numbers": lambda: discrete_measure([[0.1], "x"], [0.5, 0.5]),
    "discrete_measure shapes": lambda: discrete_measure([[0.1]], [[1.0]]),
}


@pytest.mark.parametrize("name", BAD_ARGUMENTS)
def test_bad_arguments_raise_config_error_which_is_a_value_error(name):
    _COUNTED_CALLS.clear()
    with pytest.raises(ConfigError) as err:
        BAD_ARGUMENTS[name]()
    assert isinstance(err.value, ValueError)
    assert _COUNTED_CALLS == []


def test_the_package_raises_no_bare_value_error():
    src = pathlib.Path(geometry.__file__).parent
    offenders = [f"{path.name}:{i}" for path in sorted(src.glob("*.py"))
                 for i, line in enumerate(path.read_text().splitlines(), 1)
                 if "raise ValueError" in line]
    assert offenders == []
