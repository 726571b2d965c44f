"""Acceptance suite: one test per numbered release criterion.

Each test prints a single ``[PASS]``/``[FAIL]`` line with the measured
numbers before asserting, so the evidence is part of the report even
when a clause fails.  Run ``pytest tests/test_acceptance.py -v -s`` to
see every line; under default capture the lines still appear in the
output of any failing test.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np

from kantorov.analysis import (
    TOL_CLOSED,
    check_bound,
    convexity_report,
    equibounded_constant,
    lambda_n,
    lipschitz_preservation,
    loglog_slope,
    random_affine_forms,
    random_points,
    sandwich_check,
    sup_error,
)
from kantorov.bernstein import eval_Bn
from kantorov.catalog import lookup
from kantorov.cli import main
from kantorov.geometry import Domain, uniform_grid
from kantorov.kantorovich import (
    OperatorConfig,
    cn_affine_moment,
    cn_quadratic_moment,
    eval_Cn,
    eval_Cn_cells,
    eval_In,
)
from kantorov.measures import (
    constant_lebesgue,
    dirac_shift,
    lebesgue_measure,
    power_of_base,
)
from kantorov.moduli import omega1, omega2, omega_kp, tau_p

I = Domain.interval()
Q2 = Domain.hypercube(2)
K1 = Domain.simplex(1)
K2 = Domain.simplex(2)


def operator(domain, a, measures=None, level=8):
    return OperatorConfig(
        domain, a, measures or constant_lebesgue(), level
    )


def _line(num, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {detail}")
    return ok


def test_criterion_01_moment_oracles():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    worst_affine = worst_quadratic = 0.0
    for domain in (I, Q2, K2):
        forms = random_affine_forms(domain, 50, rng)
        points = random_points(domain, 20, rng)
        for a in (0.0, 0.5, 1.0, 2.0):
            cfg = operator(domain, a)
            for n in (1, 5, 25):
                for h in forms:
                    gap = np.abs(
                        eval_Cn(cfg, n, h, points) - cn_affine_moment(cfg, n, h, points)
                    )
                    worst_affine = max(worst_affine, float(gap.max()))
                for i in range(domain.dim):
                    sq = lambda pts, i=i: pts[:, i] ** 2
                    gap = np.abs(
                        eval_Cn(cfg, n, sq, points) - cn_quadratic_moment(cfg, n, i, points)
                    )
                    worst_quadratic = max(worst_quadratic, float(gap.max()))
    elapsed = time.perf_counter() - t0
    ok = worst_affine <= 1e-10 and worst_quadratic <= 1e-9 and elapsed < 60.0
    assert _line(
        1,
        ok,
        f"moment oracles on interval/square/simplex: affine gap {worst_affine:.2e} "
        f"(tol 1e-10), quadratic gap {worst_quadratic:.2e} (tol 1e-9), "
        f"{elapsed:.1f}s (budget 60s)",
    )


def test_criterion_02_classical_paths_agree():
    cfg = operator(I, 1.0)
    xs = uniform_grid(I, 100)
    assert xs.shape[0] == 101
    worst = 0.0
    worst_exact = 0.0
    for name, params in (("abs_dist", (0.5,)), ("monomial", (1, 3)), ("exp_sum", ())):
        f = lookup(name, params, I)
        for n in (1, 10, 100):
            direct = eval_Cn(cfg, n, f, xs)
            cells = eval_Cn_cells(cfg, n, f, xs)
            composed = eval_Bn(I, n, lambda pts: eval_In(cfg, n, f, pts), xs)
            worst = max(
                worst,
                float(np.max(np.abs(direct - cells))),
                float(np.max(np.abs(direct - composed))),
                float(np.max(np.abs(cells - composed))),
            )
            if name == "exp_sum":
                # C_n(e^x)(x) = M (1 - x + x e^{1/(n+a)})^n, M = (e^c - 1)/c,
                # c = a/(n+a): the cell averages of e^t times the Bernstein
                # generating function
                c = cfg.a / (n + cfg.a)
                t = xs[:, 0]
                exact = math.expm1(c) / c * (1.0 - t + t * math.exp(1.0 / (n + cfg.a))) ** n
                worst_exact = max(worst_exact, *(float(np.max(np.abs(path - exact)))
                                                 for path in (direct, cells, composed)))
    assert _line(
        2,
        worst <= 1e-9 and worst_exact <= 1e-12,
        f"eval_Cn / eval_Cn_cells / Bn(In) pairwise gap {worst:.2e} on 101 points, "
        f"n in {{1, 10, 100}} (tol 1e-9); exp_sum against its closed form "
        f"{worst_exact:.2e} (tol 1e-12)",
    )


def test_criterion_03_handworked_values():
    cfg = operator(I, 1.0)
    ident = lookup("monomial", (1, 1), I)
    square = lookup("monomial", (1, 2), I)
    v0 = float(eval_Cn(cfg, 1, ident, np.array([[0.0]]))[0])
    v1 = float(eval_Cn(cfg, 1, square, np.array([[1.0]]))[0])
    gap = max(abs(v0 - 0.25), abs(v1 - 7.0 / 12.0))
    assert _line(
        3,
        gap <= 1e-12,
        f"C_1(id)(0)={v0:.15f} vs 1/4, C_1(t^2)(1)={v1:.15f} vs 7/12, "
        f"worst gap {gap:.2e} (tol 1e-12)",
    )


def test_criterion_04_lambda_bounds():
    worst_ratio = 0.0
    all_pass = True
    for domain in (I, Q2, K1, K2):
        for a in (0.5, 1.0, 2.0):
            cfg = operator(domain, a)
            for p in (1.0, 2.0):
                report = check_bound(cfg, None, range(1, 101), "lambda_p_bound", 8, p)
                all_pass &= report.passed
                worst_ratio = max(worst_ratio, report.max_ratio)
    sup_lambda = lambda_n(operator(I, 1.0), 1, math.inf, 2000)
    gap = abs(sup_lambda - 5.0 / 12.0)
    ok = all_pass and gap <= 1e-9
    assert _line(
        4,
        ok,
        f"lambda_(n,p) closed bounds, 4 domains x a in {{0.5,1,2}} x p in {{1,2}}, "
        f"n<=100: max measured/bound {worst_ratio:.4f}; "
        f"lambda_(1,sup)={sup_lambda:.12f} vs 5/12 (gap {gap:.1e}, tol 1e-9)",
    )


def test_criterion_05_lp_equiboundedness():
    smooth = [
        ("constant", (0.7,)),
        ("affine", (0.1, 0.8)),
        ("monomial", (1, 2)),
        ("exp_sum", ()),
        ("runge", ()),
    ]
    worst_ratio = 0.0
    all_pass = True
    for name, params in smooth:
        f = lookup(name, params, I)
        for a in (0.5, 1.0):
            cfg = operator(I, a)
            for p in (1.0, 2.0):
                report = check_bound(cfg, f, range(1, 65), "lp_equibounded", 24, p)
                all_pass &= report.passed
                worst_ratio = max(worst_ratio, report.max_ratio)
    for domain, name in ((Q2, "exp_sum"), (K2, "abs_diff12")):
        f = lookup(name, (), domain)
        for a in (0.5, 1.0):
            cfg = operator(domain, a)
            for p in (1.0, 2.0):
                report = check_bound(
                    cfg, f, (1, 2, 4, 8, 16, 32, 64), "lp_equibounded", 24, p
                )
                all_pass &= report.passed
                worst_ratio = max(worst_ratio, report.max_ratio)
    exact_one = (
        equibounded_constant(I, 1.0) == 1.0 and equibounded_constant(Q2, 1.0) == 1.0
    )
    ok = all_pass and exact_one
    assert _line(
        5,
        ok,
        f"||C_n f||_p <= M^(1/p) ||f||_p, 5 interval functions + 2 in 2d, "
        f"p in {{1,2}}, a in {{0.5,1}}, n<=64: max ratio {worst_ratio:.15f}; "
        f"M(a=1, cube) exactly 1: {exact_one}",
    )


def test_criterion_06_omega_sup_bound():
    f = lookup("abs_dist", (0.5,), I)
    details = []
    ok = True
    for a in (0.0, 1.0):
        report = check_bound(operator(I, a), f, range(4, 257), "omega_total", 400)
        ok &= report.passed and report.tol == TOL_CLOSED
        details.append(f"a={a:g} max ratio {report.max_ratio:.4f}")
    assert _line(
        6,
        ok,
        "sup error vs 2*omega(f, sqrt((4a^2+1)/(n+a))) for f=|t-1/2| (exact omega), "
        "n=4..256: " + "; ".join(details),
    )


def _exact_kink_error(n):
    """E|xi_n - 1/2| as an exact fraction, xi_n = (K + U)/(n + 1) with
    K ~ Bin(n, 1/2) and U ~ U(0, 1): the error of the classical Kantorovich
    operator on |t - 1/2| at x = 1/2.  For an integer k and d = k - (n+1)/2,
    E|d + U| is d + 1/2 (d >= 0), -d - 1/2 (d <= -1), else (d^2 + (1+d)^2)/2."""
    c = Fraction(n + 1, 2)
    total = Fraction(0)
    for k in range(n + 1):
        d = k - c
        if d >= 0:
            mean_abs = d + Fraction(1, 2)
        elif d <= -1:
            mean_abs = -d - Fraction(1, 2)
        else:
            mean_abs = (d * d + (1 + d) ** 2) / 2
        total += math.comb(n, k) * mean_abs
    return total / (2**n * (n + 1))


def test_criterion_07_convergence_trend():
    # The rate is the sharp n^(-1/2) of the omega bound, so the error falls
    # by a factor a little under 4 from n=16 to n=256; each error and their
    # ratio are pinned to the exact value at the kink x = 1/2.  The inner
    # integrals are cut at the declared kink and exact, so the errors must
    # match to rounding.
    cfg = operator(I, 1.0)
    f = lookup("abs_dist", (0.5,), I)
    ns = (16, 32, 64, 128, 256)
    errs = [sup_error(cfg, n, f, 400) for n in ns]
    exact = [_exact_kink_error(n) for n in ns]
    worst_gap = max(abs(e - float(x)) for e, x in zip(errs, exact))
    ratio = errs[-1] / errs[0]
    exact_ratio = float(exact[-1] / exact[0])
    slope = loglog_slope(ns, errs)
    errs_ok = worst_gap <= 1e-12
    ratio_ok = abs(ratio - exact_ratio) <= 1e-3
    slope_ok = -1.1 <= slope <= -0.45
    assert _line(
        7,
        errs_ok and ratio_ok and slope_ok,
        f"f=|t-1/2|, a=1, n in {ns}: sup_error vs exact E|xi_n - 1/2| "
        f"({', '.join(f'{float(x):.10f}' for x in exact)}) worst gap "
        f"{worst_gap:.1e} (tol 1e-12); sup_error(256)/sup_error(16)={ratio:.6f} "
        f"vs exact {exact_ratio:.6f} (tol 1e-3); log-log slope {slope:.4f} "
        f"(need within [-1.1, -0.45])",
    )


def test_criterion_08_shape_preservation():
    convex_fs = [
        lookup("abs_dist", (0.5,), I),
        lookup("monomial", (1, 2), I),
        lookup("exp_sum", (), I),
        lookup("abs_dist_coord", (1, 0.25), I),
    ]
    families = [
        ("lebesgue", 1.0, constant_lebesgue()),
        ("dirac", 1.0, dirac_shift([0.25])),
        ("power", 2.0, power_of_base(lebesgue_measure(), 2)),
    ]
    worst = -math.inf
    convex_ok = True
    for _, a, measures in families:
        cfg = operator(I, a, measures)
        for f in convex_fs:
            for n in range(1, 51):
                rep = convexity_report(
                    lambda pts: eval_Cn(cfg, n, f, pts), I, "convex", 64
                )
                convex_ok &= rep.passed
                worst = max(worst, rep.worst_violation)
    sandwich_ok = True
    for domain, m in ((I, 51), (Q2, 24), (K2, 24)):
        f = lookup("exp_sum", (), domain)
        for n in (1, 3, 6):
            sandwich_ok &= sandwich_check(operator(domain, 1.0), n, f, m).passed
    lipschitz_ok = True
    for domain, f, m in (
        (I, lookup("abs_dist_coord", (1, 0.5), I), 200),
        (Q2, lookup("product12", (), Q2), 48),
        (K2, lookup("abs_diff12", (), K2), 48),
    ):
        for n in (2, 8, 32):
            lipschitz_ok &= lipschitz_preservation(operator(domain, 1.0), n, f, m).passed
    axial_ok = True
    fd = lookup("abs_diff12", (), K2)
    for n in (1, 2, 5, 25, 50):
        axial_ok &= convexity_report(
            lambda pts: eval_Cn(operator(K2, 1.0), n, fd, pts),
            K2,
            "axially_convex",
            32,
        ).passed
    ok = convex_ok and sandwich_ok and lipschitz_ok and axial_ok
    assert _line(
        8,
        ok,
        f"preservation: convexity over 3 measure families, 4 functions, n<=50 "
        f"(worst violation {worst:.1e}, tol 1e-10) {convex_ok}; sandwich "
        f"f<=B_n(f)<=T(f) {sandwich_ok}; l1-Lipschitz {lipschitz_ok}; "
        f"axial convexity on the simplex {axial_ok}",
    )


def test_criterion_09_moduli_oracles():
    square = lookup("monomial", (1, 2), I)
    ident = lookup("monomial", (1, 1), I)
    oracles = [
        ("omega1(t^2, 0.1)", omega1(square, I, 0.1, 1000), 0.19, 1e-3),
        ("omega2(t^2, 0.25)", omega2(square, I, 0.25, 1000), 0.125, 1e-3),
        ("tau_1(id, 0.2)", tau_p(ident, I, 0.2, 1.0, 2000), 0.19, 2e-3),
        ("omega_(1,1)(id, 0.5)", omega_kp(ident, I, 1, 0.5, 1.0, 2000), 0.25, 2e-3),
    ]
    const = lookup("constant", (0.3,), I)
    affine = lookup("affine", (0.2, -0.7), I)
    zeros = [
        omega1(const, I, 0.5, 200),
        omega2(affine, I, 0.5, 500),
        tau_p(const, I, 0.2, 1.0, 500),
        omega_kp(affine, I, 2, 0.4, 2.0, 400),
    ]
    worst_gap = max(abs(v - target) for _, v, target, _ in oracles)
    ok = all(abs(v - target) <= tol for _, v, target, tol in oracles) and all(
        z <= 1e-12 for z in zeros
    )
    assert _line(
        9,
        ok,
        f"moduli oracles worst gap {worst_gap:.1e} "
        f"({'; '.join(f'{name}={v:.5f}' for name, v, _, _ in oracles)}); "
        f"constant/affine cases max {max(zeros):.1e} (tol 1e-12)",
    )


def test_criterion_10_cli_contract(tmp_path):
    base = {
        "domain": {"kind": "interval"},
        "operator": {"a": 1.0, "measures": {"kind": "constant_lebesgue"}},
        "function": {"name": "abs_dist", "params": [0.5]},
        "experiment": {"n_list": [4, 16, 64], "p": 2, "grid_resolution": 100},
    }

    def write(name, doc):
        path = tmp_path / name
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)

    csv = tmp_path / "out.csv"
    valid = dict(base, output={"csv_path": str(csv)})
    cfg_valid = write("valid.json", valid)
    code_first = main(["converge", "--config", cfg_valid])
    first = csv.read_bytes()
    code_second = main(["converge", "--config", cfg_valid])
    identical = csv.read_bytes() == first

    failing = {
        "domain": {"kind": "hypercube", "dim": 2},
        "operator": {"a": 1.0, "measures": {"kind": "constant_lebesgue"}},
        "function": {"name": "product12", "params": []},
        "experiment": {
            "command": "preserve",
            "n_list": [2, 4],
            "modes": ["convex"],
            "grid_resolution": 24,
        },
        "output": {"csv_path": str(tmp_path / "fail.csv")},
    }
    code_failing = main(["preserve", "--config", write("failing.json", failing)])

    malformed = json.loads(json.dumps(base))
    malformed["operator"]["a"] = -1.0
    code_malformed = main(["converge", "--config", write("malformed.json", malformed)])

    ok = (
        code_first == 0
        and code_second == 0
        and identical
        and code_failing == 1
        and code_malformed == 2
    )
    assert _line(
        10,
        ok,
        f"CLI: valid converge exits {code_first}/{code_second} with "
        f"byte-identical CSV ({identical}); failing convexity check exits "
        f"{code_failing}; malformed config exits {code_malformed}",
    )
