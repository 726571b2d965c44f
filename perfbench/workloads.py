"""The benchmark's three workloads and the checks on their outputs.

Each operation is one CLI subcommand with a JSON config; the config is
the single source of the parameters its check uses.  Checks compare the
CSV the CLI writes with the values in ``oracles`` (independent of the
package) or with properties the paper proves.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import oracles

# Relative tolerance for outputs of kinked integrands (abs_dist).  The
# Gauss ladder stalls at its cap there: the worst relative error over the
# workload's n is 1.6e-4 (I, n = 2), while a wrong operator (a = 0
# substituted, n = 16) is 3% off.  1e-3 sits between the two.
KINK_RTOL = 1e-3
# Smooth integrands (exp_sum) agree with the closed forms to 1e-12 or better.
SMOOTH_RTOL = 1e-9
# Moduli of t^2 on grid-aligned deltas are exact up to rounding.
EXACT_RTOL = 1e-12
DIGITS_CAP = 15.0

I = {"kind": "interval"}
Q2 = {"kind": "hypercube", "dim": 2}
Q3 = {"kind": "hypercube", "dim": 3}
K2 = {"kind": "simplex", "dim": 2}
K3 = {"kind": "simplex", "dim": 3}
LEBESGUE = {"kind": "constant_lebesgue"}
POWER2 = {"kind": "power_of_base", "base": {"kind": "lebesgue"}, "exponent": 2}


def dirac(*point: float) -> dict:
    return {"kind": "dirac_shift", "point": list(point)}


@dataclass
class Report:
    """Outcome of the checks on one operation's outputs."""

    failures: list = field(default_factory=list)
    digits: list = field(default_factory=list)

    def close(self, label: str, got, exact: float, rtol: float) -> None:
        """``got`` must match the exact value to ``rtol`` (relative)."""
        if got is None:
            self.failures.append(f"{label}: missing")
            return
        err = abs(got - exact) / abs(exact)
        if err == 0:
            self.digits.append(DIGITS_CAP)
        else:  # a NaN or infinite error counts as no correct digit
            self.digits.append(min(DIGITS_CAP, -math.log10(err)) if math.isfinite(err) else 0.0)
        if not err <= rtol:
            self.failures.append(f"{label}: {got!r} vs exact {exact!r} (rel {err:.2e} > {rtol:g})")

    def holds(self, label: str, ok: bool) -> None:
        if not ok:
            self.failures.append(label)

    @property
    def ok(self) -> bool:
        return not self.failures


@dataclass(frozen=True)
class Op:
    name: str
    command: str
    config: dict
    check: Callable[["Op", list], Report]
    expect: dict = field(default_factory=dict)


def read_rows(path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _num(text: str):
    return float(text) if text not in ("", None) else None


def _error_rows(rows: list) -> dict:
    return {int(r["n"]): r for r in rows if not r["bound_id"]}


def _params(op: Op):
    cfg = op.config
    exp = cfg["experiment"]
    return cfg["domain"], float(cfg["operator"]["a"]), cfg["operator"]["measures"], exp


def _check_bound_rows(op: Op, rows: list, report: Report) -> None:
    """Every requested bound has one passing row per n."""
    exp = op.config["experiment"]
    for bound in exp.get("bounds", []):
        got = {int(r["n"]): r for r in rows if r["bound_id"] == bound}
        for n in exp["n_list"]:
            row = got.get(n)
            report.holds(f"{op.name} {bound} n={n}: row passes",
                         row is not None and row["pass"] == "true")


def check_converge(op: Op, rows: list) -> Report:
    """sup and L^2 errors against the exact kink values or the closed forms."""
    domain, a, measures, exp = _params(op)
    dim, m = domain.get("dim", 1), exp["grid_resolution"]
    fname = op.config["function"]["name"]
    key = oracles.measure_key(measures)
    report = Report()
    errors = _error_rows(rows)
    for n in exp["n_list"]:
        if fname == "abs_dist":
            sup, l2 = oracles.kink_errors(n, a, key, dim, m)
            rtol = KINK_RTOL
        elif domain["kind"] == "simplex":
            sup, l2 = oracles.exp_errors_simplex(n, a, dim, m)
            rtol = SMOOTH_RTOL
        else:
            sup, l2 = oracles.exp_errors_cube(n, a, key, dim, m, measures.get("point"))
            rtol = SMOOTH_RTOL
        row = errors.get(n, {})
        report.close(f"{op.name} n={n} sup_error", _num(row.get("sup_error")), sup, rtol)
        report.close(f"{op.name} n={n} lp_error", _num(row.get("lp_error")), l2, rtol)
        for r in rows:
            if r["bound_id"] == "omega_total" and int(r["n"]) == n:
                report.close(f"{op.name} n={n} omega_total measured",
                             _num(r["sup_error"]), sup, rtol)
    _check_bound_rows(op, rows, report)
    return report


def check_verify(op: Op, rows: list) -> Report:
    """Every group passes; the L^2 quantities of the bound rows are exact."""
    domain, a, _, exp = _params(op)
    dim = domain["dim"]
    report = Report()
    for group in ("moment_affine", "moment_quadratic", *exp["bounds"]):
        got = {int(r["n"]): r for r in rows if r["bound_id"] == group}
        for n in exp["n_list"]:
            row = got.get(n)
            report.holds(f"{op.name} {group} n={n}: row passes",
                         row is not None and row["pass"] == "true")
            if row is None:
                continue
            if group == "lambda_p_bound":
                exact = oracles.korovkin_lambda_simplex(n, Fraction(a), dim)
                report.close(f"{op.name} lambda n={n}", _num(row["lp_error"]), exact, SMOOTH_RTOL)
            elif group == "lp_equibounded":
                exact = oracles.exp_norm_simplex(n, a, dim)
                report.close(f"{op.name} ||C_n f||_2 n={n}", _num(row["lp_error"]), exact,
                             SMOOTH_RTOL)
    return report


def check_preserve(op: Op, rows: list) -> Report:
    """Each default mode passes, and the Lipschitz estimate obeys the
    paper's contraction ``Lip_1(C_n f) <= n/(n+a) Lip_1(f)``."""
    _, a, _, exp = _params(op)
    report = Report()
    report.holds(f"{op.name}: every row passes", all(r["pass"] == "true" for r in rows))
    for n in exp["n_list"]:
        got = {r["bound_id"]: r for r in rows if int(r["n"]) == n}
        for mode in op.expect["modes"]:
            row = got.get(mode)
            report.holds(f"{op.name} {mode} n={n}: row passes",
                         row is not None and row["pass"] == "true")
            if mode == "lipschitz_l1" and row is not None:
                limit = n / (n + a) * op.expect["lipschitz_l1"]
                report.holds(f"{op.name} lipschitz n={n}: {row['sup_error']} > {limit!r}",
                             float(row["sup_error"]) <= limit * (1 + EXACT_RTOL))
    return report


def check_moduli_square(op: Op, rows: list) -> Report:
    """Moduli of ``t^2``: ``omega1 = 2d - d^2`` and ``omega2 = 2 d^2`` on
    grid-aligned ``d`` with ``2d <= 1``; ``tau_p`` and the sampled
    ``omega_kp`` (k = 1) lie between 0 and ``omega1`` and grow with d."""
    report = Report()
    got = {float(r["delta"]): r for r in rows}
    previous = {"tau_p": 0.0, "omega_kp": 0.0}
    for delta in sorted(op.config["experiment"]["delta_list"]):
        row = got.get(delta)
        if row is None:
            report.holds(f"{op.name} delta={delta}: missing", False)
            continue
        w1 = 2 * delta - delta**2
        report.close(f"{op.name} omega1 delta={delta}", _num(row["omega1"]), w1, EXACT_RTOL)
        report.close(f"{op.name} omega2 delta={delta}", _num(row["omega2"]), 2 * delta**2,
                     EXACT_RTOL)
        for col in ("tau_p", "omega_kp"):
            value = float(row[col])
            report.holds(f"{op.name} {col} delta={delta}: {value!r} outside "
                         f"[{previous[col]!r}, {w1!r}]",
                         previous[col] <= value <= w1 * (1 + EXACT_RTOL))
            previous[col] = value
    return report


def converge(name, domain, measures, function, n_list, m, a=1.0, bounds=()) -> Op:
    params = [0.5] * domain.get("dim", 1) if function == "abs_dist" else []
    experiment = {"n_list": list(n_list), "grid_resolution": m, "p": 2}
    if bounds:
        experiment["bounds"] = list(bounds)
    config = {
        "domain": domain,
        "operator": {"a": a, "measures": measures},
        "function": {"name": function, "params": params},
        "experiment": experiment,
    }
    return Op(name, "converge", config, check_converge)


def preserve(name, domain, measures, function, params, n_list, m, modes, lipschitz_l1) -> Op:
    config = {
        "domain": domain,
        "operator": {"a": 1.0, "measures": measures},
        "function": {"name": function, "params": list(params)},
        "experiment": {"n_list": list(n_list), "grid_resolution": m},
    }
    expect = {"modes": tuple(modes), "lipschitz_l1": lipschitz_l1}
    return Op(name, "preserve", config, check_preserve, expect)


def moduli_square(name, domain, m) -> Op:
    config = {
        "domain": domain,
        "operator": {"a": 1.0},
        "function": {"name": "monomial", "params": [1, 2]},
        "experiment": {"delta_list": [0.0625, 0.125, 0.25, 0.5], "grid_resolution": m},
    }
    return Op(name, "moduli", config, check_moduli_square)


_NS_I = (2, 4, 8, 16, 32, 64, 128)
_CONVEX_1D = ("convex", "sandwich", "lipschitz_l1")
_CONVEX_Q2 = ("coordinate_convex", "sandwich", "lipschitz_l1")

WORKLOADS = {
    # Inner integrals and integrand evaluation dominate.  Kinked integrands
    # climb the Gauss ladder to its cap, smooth ones stop a level earlier,
    # Dirac shifts skip it; every Lebesgue lp_error also runs the cell path.
    "cube-sweep": [
        converge("I-abs-leb", I, LEBESGUE, "abs_dist", _NS_I, 200, bounds=["omega_total"]),
        converge("I-abs-pow", I, POWER2, "abs_dist", _NS_I[:-1], 200, a=2.0),
        converge("I-exp-leb", I, LEBESGUE, "exp_sum", _NS_I[:-1], 200),
        converge("I-exp-pow", I, POWER2, "exp_sum", _NS_I[:-1], 200),
        converge("I-exp-dirac", I, dirac(0.25), "exp_sum", _NS_I[:-1], 200),
        converge("Q2-abs-leb", Q2, LEBESGUE, "abs_dist", (2, 4, 8, 16, 32), 40),
        converge("Q2-exp-leb", Q2, LEBESGUE, "exp_sum", (2, 4, 8, 16, 32), 40),
        converge("Q2-exp-pow", Q2, POWER2, "exp_sum", (2, 4, 8), 40),
        converge("Q2-exp-dirac", Q2, dirac(0.25, 0.75), "exp_sum", (2, 4, 8, 16, 32), 40),
        converge("Q3-abs-leb", Q3, LEBESGUE, "abs_dist", (2, 4), 12),
        converge("Q3-exp-leb", Q3, LEBESGUE, "exp_sum", (2, 4, 8), 12),
        converge("Q3-exp-dirac", Q3, dirac(0.25, 0.5, 0.75), "exp_sum", (2, 4, 8, 16), 12),
    ],
    # The dense simplex Bernstein basis dominates (lp_error on K2 and K3).
    # K3 stops at n = 6: at n = 8 a basis chunk no longer fits in L2, and that
    # operation's time swung 2.5x from pass to pass (see README.md).
    "simplex-lp": [
        converge("K2-exp-leb", K2, LEBESGUE, "exp_sum", (4, 8, 16, 32, 64), 40),
        converge("K2-exp-leb-a2", K2, LEBESGUE, "exp_sum", (4, 8, 16, 32, 64), 40, a=2.0),
        converge("K3-exp-leb", K3, LEBESGUE, "exp_sum", (4, 6), 12),
        converge("K3-exp-leb-a2", K3, LEBESGUE, "exp_sum", (4, 6), 12, a=2.0),
        Op("K2-verify", "verify", {
            "domain": K2,
            "operator": {"a": 1.0, "measures": LEBESGUE},
            "function": {"name": "exp_sum", "params": []},
            "experiment": {"n_list": [4, 8, 16, 32, 64], "p": 2,
                           "bounds": ["lambda_p_bound", "lp_equibounded"]},
        }, check_verify),
    ],
    # O(G^2) pair scans dominate, and eval_Cn is called again and again for
    # the same (n, f), so about half of its calls hit the inner-integral
    # cache.  Moduli grids are dyadic so that every delta lies on the grid.
    "shape-scan": [
        preserve("I-abs-leb", I, LEBESGUE, "abs_dist", [0.5], (4, 8, 16, 32, 64), 400,
                 _CONVEX_1D, 1.0),
        preserve("I-exp-dirac", I, dirac(0.25), "exp_sum", [], (4, 8, 16, 32, 64), 400,
                 _CONVEX_1D, math.e),
        preserve("I-abs-pow", I, POWER2, "abs_dist", [0.3], (4, 8, 16, 32), 400,
                 _CONVEX_1D, 1.0),
        preserve("Q2-abs-leb", Q2, LEBESGUE, "abs_dist", [0.5, 0.5], (4, 8, 16), 32,
                 _CONVEX_Q2, 1.0),
        preserve("Q2-product-leb", Q2, LEBESGUE, "product12", [], (4, 8, 16), 32,
                 ("coordinate_convex", "lipschitz_l1"), 1.0),
        preserve("K2-exp-leb", K2, LEBESGUE, "exp_sum", [], (4, 8, 16), 36,
                 ("axially_convex", "sandwich", "lipschitz_l1"), math.e),
        moduli_square("I-square", I, 1024),
        moduli_square("Q2-square", Q2, 32),
        moduli_square("K2-square", K2, 32),
    ],
}


def cli_config(op: Op, csv_path: str, json_path: str) -> dict:
    """The config file the CLI reads for ``op``."""
    config = dict(op.config)
    config["output"] = {"csv_path": csv_path, "json_path": json_path}
    return config
