"""Tests of the benchmark's own code: oracles, checks and the tracer.

    python3 -m pytest perfbench -q

No timing is asserted.  The oracles are checked against values worked by
hand and against brute-force sums over the lattice built from the
operator's definition; each workload's checks must reject a wrong
operator's outputs.
"""

from __future__ import annotations

import itertools
import json
import math
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# ---------------------------------------------------------------------------
# brute force from the definition C_n(f)(x) = sum_h P_{n,h}(x) E f((h + aS)/(n+a))


def _gauss(count, lo=0.0, hi=1.0):
    x, w = np.polynomial.legendre.leggauss(count)
    return lo + (hi - lo) * (x + 1) / 2, w * (hi - lo) / 2


def _composite(panels=64, order=4):
    x, w = _gauss(order, 0.0, 1.0 / panels)
    return ((np.arange(panels)[:, None] / panels + x).ravel(), np.tile(w, panels))


def _measure_rule(measure, dim, point=None, panels=1, order=12):
    """Nodes and weights of mu_n on the cube: composite Gauss, or the atom."""
    if measure == "dirac":
        return np.asarray([point], dtype=float), np.ones(1)
    x, w = _composite(panels, order)
    if measure == "power2":  # mean of two uniform draws per axis
        x = ((x[:, None] + x[None, :]) / 2).ravel()
        w = (w[:, None] * w[None, :]).ravel()
    nodes = np.array(list(itertools.product(x, repeat=dim)))
    weights = np.array([math.prod(c) for c in itertools.product(w, repeat=dim)])
    return nodes, weights


def _brute_cube(f, n, a, measure, x, point=None, panels=1):
    dim = x.shape[1]
    nodes, weights = _measure_rule(measure, dim, point, panels, 12 if panels == 1 else 4)
    total = np.zeros(x.shape[0])
    for h in itertools.product(range(n + 1), repeat=dim):
        inner = weights @ f((np.asarray(h) + a * nodes) / (n + a))
        basis = np.prod([math.comb(n, k) * x[:, i] ** k * (1 - x[:, i]) ** (n - k)
                         for i, k in enumerate(h)], axis=0)
        total += basis * inner
    return total


def _simplex_rule(dim, count=16):
    """Collapsed Gauss rule for the uniform probability measure on K_dim."""
    u, w = _gauss(count)
    nodes, weights = [], []
    for idx in itertools.product(range(count), repeat=dim):
        shrink, jac, p = 1.0, 1.0, []
        for j, i in enumerate(idx):
            p.append(u[i] * shrink)
            if j < dim - 1:
                jac *= (1 - u[i]) ** (dim - 1 - j)
                shrink *= 1 - u[i]
        nodes.append(p)
        weights.append(math.factorial(dim) * jac * math.prod(w[i] for i in idx))
    return np.array(nodes), np.array(weights)


def _brute_simplex(f, n, a, x):
    dim = x.shape[1]
    nodes, weights = _simplex_rule(dim)
    total = np.zeros(x.shape[0])
    rest = 1 - x.sum(axis=1)
    for h in itertools.product(range(n + 1), repeat=dim):
        if sum(h) > n:
            continue
        coef = math.factorial(n) // (math.prod(math.factorial(k) for k in h)
                                     * math.factorial(n - sum(h)))
        basis = coef * rest ** (n - sum(h)) * np.prod(
            [x[:, i] ** k for i, k in enumerate(h)], axis=0)
        total += basis * (weights @ f((np.asarray(h) + a * nodes) / (n + a)))
    return total


def exp_sum(p):
    return np.exp(p.sum(axis=1))


# ---------------------------------------------------------------------------
# oracles


def test_kink_values_worked_by_hand():
    # n = 1: E|(K+U)/2 - 1/2| = E|U - 1 + K|/2 = 1/4 for either K.
    assert oracles.kink_centre_error(1, Fraction(1), "lebesgue") == Fraction(1, 4)
    assert oracles.kink_centre_error(3, Fraction(1), "lebesgue") == Fraction(3, 16)
    # a = 0 is the Bernstein operator: sum_k C(n,k)/2^n |k/n - 1/2|.
    assert oracles.kink_centre_error(2, Fraction(0), "lebesgue") == Fraction(1, 4)


@pytest.mark.parametrize("measure,a", [("lebesgue", 1.0), ("power2", 2.0), ("lebesgue", 2.0)])
def test_kink_oracle_matches_brute_force(measure, a):
    for n in (1, 2, 5):
        f = lambda p: np.abs(p - 0.5).sum(axis=1)
        brute = _brute_cube(f, n, a, measure, np.array([[0.5]]), panels=64)[0]
        exact = oracles.kink_centre_error(n, Fraction(a), measure)
        # the brute-force rule is not kink-aware: agree to its accuracy
        assert brute == pytest.approx(float(exact), rel=1e-5)
        # the centre is a grid point; for the classical operator the sup sits there
        sup, _ = oracles.kink_errors(n, a, measure, 2, 8)
        assert sup >= 2 * float(exact) * (1 - 1e-15)
        if (measure, a) == ("lebesgue", 1.0):
            assert sup == pytest.approx(2 * float(exact), rel=1e-14)


def test_kink_l2_matches_fine_quadrature():
    n, a = 4, 1.0
    values = [float(v) for v in oracles.kink_inner_values(n, Fraction(a), "lebesgue")]
    x, w = _composite(16, 8)  # the kink x = 1/2 is a panel boundary
    e = oracles.bernstein_sum(values, x) - np.abs(x - 0.5)
    _, l2_1d = oracles.kink_errors(n, a, "lebesgue", 1, 8)
    assert l2_1d == pytest.approx(math.sqrt(w @ e**2), rel=1e-12)
    # Q2: the error is e(x) + e(y); integrate it on the product rule
    _, l2_2d = oracles.kink_errors(n, a, "lebesgue", 2, 8)
    brute = math.sqrt(w @ ((e[:, None] + e[None, :]) ** 2) @ w)
    assert l2_2d == pytest.approx(brute, rel=1e-12)


@pytest.mark.parametrize("measure,dim,point", [
    ("lebesgue", 1, None), ("power2", 1, None), ("dirac", 1, [0.25]),
    ("lebesgue", 2, None), ("power2", 2, None), ("dirac", 2, [0.25, 0.75]),
])
def test_exp_cube_closed_form_matches_brute_force(measure, dim, point):
    x = np.random.default_rng(0).uniform(size=(6, dim))
    for n, a in ((1, 1.0), (3, 2.0), (5, 0.5)):
        brute = _brute_cube(exp_sum, n, a, measure, x, point)
        closed = oracles.exp_cube(n, a, measure, x, point)
        np.testing.assert_allclose(closed, brute, rtol=1e-13)


@pytest.mark.parametrize("dim", [2, 3])
def test_exp_simplex_closed_form_matches_brute_force(dim):
    rng = np.random.default_rng(1)
    x = rng.dirichlet(np.ones(dim + 1), size=5)[:, :dim]
    for n, a in ((1, 1.0), (3, 2.0), (4, 1.0)):
        brute = _brute_simplex(exp_sum, n, a, x)
        closed = oracles.exp_simplex(n, a, dim, x.sum(axis=1))
        np.testing.assert_allclose(closed, brute, rtol=1e-13)


def test_simplex_l2_quantities_match_brute_force():
    n, a, dim = 3, 1.0, 2
    nodes, weights = _simplex_rule(dim, 24)
    weights = weights / math.factorial(dim)  # plain Lebesgue measure
    closed = oracles.exp_simplex(n, a, dim, nodes.sum(axis=1))
    assert oracles.exp_norm_simplex(n, a, dim) == pytest.approx(
        math.sqrt(weights @ closed**2), rel=1e-12)
    gap = closed - np.exp(nodes.sum(axis=1))
    assert oracles.exp_errors_simplex(n, a, dim, 8)[1] == pytest.approx(
        math.sqrt(weights @ gap**2), rel=1e-12)
    # Korovkin family 1, x_1, x_2, x_1^2 + x_2^2 from the lattice definition
    diffs = [
        _brute_simplex(lambda p: p[:, 0], n, a, nodes) - nodes[:, 0],
        _brute_simplex(lambda p: (p**2).sum(axis=1), n, a, nodes) - (nodes**2).sum(axis=1),
    ]
    brute = max(math.sqrt(weights @ d**2) for d in diffs)
    assert oracles.korovkin_lambda_simplex(n, Fraction(1), dim) == pytest.approx(brute, rel=1e-12)


# ---------------------------------------------------------------------------
# checks reject a wrong operator


def _fmt(v):
    return "" if v is None else repr(float(v))


def _exact_converge_rows(op, a=None, scale=1.0):
    """The CSV rows a program with blend ``a`` would write, from the oracles."""
    domain, a0, measures, exp = workloads._params(op)
    a = a0 if a is None else a
    dim, m = domain.get("dim", 1), exp["grid_resolution"]
    key = oracles.measure_key(measures)
    rows = []
    for n in exp["n_list"]:
        if op.config["function"]["name"] == "abs_dist":
            sup, l2 = oracles.kink_errors(n, a, key, dim, m)
        elif domain["kind"] == "simplex":
            sup, l2 = oracles.exp_errors_simplex(n, a, dim, m)
        else:
            sup, l2 = oracles.exp_errors_cube(n, a, key, dim, m, measures.get("point"))
        rows.append({"n": str(n), "sup_error": _fmt(scale * sup), "lp_error": _fmt(scale * l2),
                     "bound_id": "", "pass": ""})
        for bound in exp.get("bounds", []):
            rows.append({"n": str(n), "sup_error": _fmt(scale * sup), "lp_error": "",
                         "bound_id": bound, "pass": "true"})
    return rows


CONVERGE_OPS = [op for w in ("cube-sweep", "simplex-lp")
                for op in workloads.WORKLOADS[w] if op.command == "converge"]


@pytest.mark.parametrize("op", CONVERGE_OPS, ids=lambda op: op.name)
def test_converge_check_accepts_exact_and_rejects_wrong_operator(op):
    assert op.check(op, _exact_converge_rows(op)).ok
    smooth = op.config["function"]["name"] == "exp_sum"
    # a wrong blend weight (smooth closed forms need c > 0, so halve a there)
    wrong_a = op.config["operator"]["a"] / 2 if smooth else 0.0
    assert not op.check(op, _exact_converge_rows(op, a=wrong_a)).ok
    rtol = workloads.SMOOTH_RTOL if smooth else workloads.KINK_RTOL
    assert not op.check(op, _exact_converge_rows(op, scale=1 + 3 * rtol)).ok
    rows = _exact_converge_rows(op)
    assert not op.check(op, rows[1:]).ok  # a missing row


def test_report_counts_digits_and_rejects_nan():
    report = workloads.Report()
    report.close("exact", 0.25, 0.25, 1e-9)
    report.close("close", 1.0 + 1e-6, 1.0, 1e-3)
    assert report.ok and report.digits[0] == workloads.DIGITS_CAP
    assert report.digits[1] == pytest.approx(6.0, abs=1e-6)
    report.close("nan", float("nan"), 1.0, 1e-3)
    assert not report.ok and report.digits[-1] == 0.0


def test_kink_check_rejects_a_zero_at_the_workloads_sizes():
    op = workloads.WORKLOADS["cube-sweep"][0]
    wrong = op.check(op, _exact_converge_rows(op, a=0.0))
    assert len(wrong.failures) >= len(op.config["experiment"]["n_list"])


def _verify_op():
    return next(op for op in workloads.WORKLOADS["simplex-lp"] if op.command == "verify")


def _exact_verify_rows(op, scale=1.0, passed="true"):
    _, a, _, exp = workloads._params(op)
    rows = []
    for n in exp["n_list"]:
        rows.append({"n": str(n), "bound_id": "moment_affine", "lp_error": "", "pass": passed})
        rows.append({"n": str(n), "bound_id": "moment_quadratic", "lp_error": "", "pass": "true"})
        lam = oracles.korovkin_lambda_simplex(n, Fraction(a), 2)
        rows.append({"n": str(n), "bound_id": "lambda_p_bound", "lp_error": _fmt(scale * lam),
                     "pass": "true"})
        norm = oracles.exp_norm_simplex(n, a, 2)
        rows.append({"n": str(n), "bound_id": "lp_equibounded", "lp_error": _fmt(norm),
                     "pass": "true"})
    return rows


def test_verify_check():
    op = _verify_op()
    assert op.check(op, _exact_verify_rows(op)).ok
    assert not op.check(op, _exact_verify_rows(op, scale=1 + 1e-6)).ok
    assert not op.check(op, _exact_verify_rows(op, passed="false")).ok


def _preserve_rows(op, a):
    rows = []
    for n in op.config["experiment"]["n_list"]:
        for mode in op.expect["modes"]:
            measured = n / (n + a) * op.expect["lipschitz_l1"] if mode == "lipschitz_l1" else 0.0
            rows.append({"n": str(n), "bound_id": mode, "sup_error": _fmt(measured),
                         "pass": "true"})
    return rows


@pytest.mark.parametrize("op", [op for op in workloads.WORKLOADS["shape-scan"]
                                if op.command == "preserve"], ids=lambda op: op.name)
def test_preserve_check(op):
    a = op.config["operator"]["a"]
    assert op.check(op, _preserve_rows(op, a)).ok
    # the Bernstein operator (a = 0) keeps the Lipschitz constant: too large here
    assert not op.check(op, _preserve_rows(op, 0.0)).ok
    rows = _preserve_rows(op, a)
    rows[0]["pass"] = "false"
    assert not op.check(op, rows).ok
    assert not op.check(op, _preserve_rows(op, a)[1:]).ok


@pytest.mark.parametrize("op", [op for op in workloads.WORKLOADS["shape-scan"]
                                if op.command == "moduli"], ids=lambda op: op.name)
def test_moduli_check(op):
    def rows(perturb=0.0, tau=None):
        out = []
        for d in op.config["experiment"]["delta_list"]:
            w1 = 2 * d - d * d
            out.append({"delta": repr(d), "omega1": _fmt(w1 * (1 + perturb)),
                        "omega2": _fmt(2 * d * d), "tau_p": _fmt(w1 / 2 if tau is None else tau),
                        "omega_kp": _fmt(w1 / 3)})
        return out

    assert op.check(op, rows()).ok
    assert not op.check(op, rows(perturb=1e-9)).ok
    assert not op.check(op, rows(tau=0.9)).ok  # above omega1 at small delta


# ---------------------------------------------------------------------------
# tracer, benchmark definition and the runner's refusal without sources


def _converge_config(tmp_path):
    op = workloads.converge("t", workloads.I, workloads.LEBESGUE, "abs_dist", (2, 4), 20)
    path = tmp_path / "c.json"
    path.write_text(json.dumps(workloads.cli_config(op, str(tmp_path / "c.csv"),
                                                    str(tmp_path / "c.out.json"))))
    return ["converge", "--config", str(path)]


def test_tracer_attributes_layers_and_restores(tmp_path, capsys):
    from kantorov import analysis, cli, kantorovich

    original = analysis.eval_Cn
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.wrap("cli", "main", cli.main)(_converge_config(tmp_path)) == 0
    finally:
        tracer.restore()
    assert analysis.eval_Cn is original and analysis.eval_Cn is kantorovich.eval_Cn
    values, absent = tracer.metrics(1e9)
    assert absent == []
    assert values["catalog.points"] > 0 and values["kantorovich.inner_misses"] == 2
    assert values["kantorovich.ladder_at_cap"] >= 2  # the kink climbs to level 32
    assert values["kantorovich.cells_self_s"] > 0 and values["geometry.rules"] > 0
    assert 0 < values["trace.coverage"] < 1e-3


def test_tracer_reports_missing_sources_as_absent(monkeypatch):
    from kantorov import analysis, kantorovich

    monkeypatch.delattr(analysis, "eval_Cn_cells")
    monkeypatch.delattr(kantorovich, "eval_Cn_cells")
    monkeypatch.delattr(kantorovich, "_inner_values")
    monkeypatch.delattr(analysis, "lp_norm")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        values, absent = tracer.metrics(1.0)
    finally:
        tracer.restore()
    assert {"kantorovich.cells_self_s", "kantorovich.inner_hits",
            "kantorovich.inner_misses", "analysis.lp_norm_self_s"} <= set(absent)
    assert "kantorovich.self_s" in values and not set(absent) & set(values)


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)


def test_runner_refuses_without_package_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cube-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
