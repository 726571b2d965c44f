"""Batch experiment driver.

Reads a JSON config describing a domain, an operator family and a
catalog function, runs one of the subcommands

    eval      values C_n(f)(x) at requested (n, x)
    converge  sup / L^p error table over a list of n
    verify    bound checks plus a closed-form moment oracle suite
    preserve  convexity / sandwich / Lipschitz preservation reports
    moduli    table of smoothness moduli over a list of deltas

and writes a CSV table, an optional JSON mirror with run metadata, and
a human summary on stdout.  Float fields use 17 significant digits so
identical configs reproduce byte-identical CSV files.

Exit status: 0 all checks passed, 1 failed check or numeric error,
2 malformed config.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import __version__
from .analysis import (
    BOUND_IDS,
    SUP_BOUNDS,
    check_bound,
    convergence_table,
    convexity_preservation,
    lipschitz_preservation,
    loglog_slope,
    random_affine_forms,
    random_points,
    sandwich_check,
)
from .catalog import catalog_names, lookup
from .errors import ConfigError, KantorovError, NumericError, check_p
from .geometry import SIMPLEX, Domain, contains
from .kantorovich import (
    OperatorConfig,
    cn_product,
    coordinate_form,
    eval_Cn,
    ladder_record,
)
from .measures import (
    BASE_LEVEL,
    EXPLICIT_LIST,
    MeasureSeqSpec,
    check_rule_budget,
    constant_lebesgue,
    dirac_shift,
    discrete_measure,
    discrete_spec,
    explicit_list,
    lebesgue_measure,
    power_measure,
    power_of_base,
    resolve,
)
from .moduli import check_tau_deltas, difference_coeffs, omega1, omega2, omega_kp, tau_p

COMMANDS = ("eval", "converge", "verify", "preserve", "moduli")

CSV_HEADER = "n,sup_error,lp_error,bound_id,bound_value,ratio,pass"
EVAL_HEADER = "n,x,value"
MODULI_HEADER = "delta,omega1,omega2,tau_p,omega_kp"

_PRESERVE_MODES = (
    "convex",
    "coordinate_convex",
    "axially_convex",
    "sandwich",
    "lipschitz_l1",
)

# tolerances for the seeded moment oracle suite run by `verify`
_AFFINE_TOL = 1e-10
_QUADRATIC_TOL = 1e-9

# the name of the Markov operator T of each domain.kind a config may
# spell, which is the only value operator.markov admits; "interval" spells
# the 1-cube, whose S_1 is named T1 there
_MARKOV_NAMES = {"interval": "T1", "hypercube": "Sd", "simplex": "Td"}

_MISSING = object()


# ---------------------------------------------------------------------------
# config parsing (every malformed field should name its JSON path)


def _require_object(raw, path: str) -> dict:
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: expected a JSON object")
    return raw


def _reject_unknown(raw: dict, known, path: str) -> None:
    extra = sorted(set(raw) - set(known))
    if extra:
        raise ConfigError(f"{path}: unknown field(s) {', '.join(extra)}")


def _get(raw: dict, key: str, path: str, default=_MISSING):
    if key in raw:
        return raw[key]
    if default is _MISSING:
        raise ConfigError(f"{path}.{key}: required field missing")
    return default


def _num(value, path: str, minimum: Optional[float] = None) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    if not abs(value) <= sys.float_info.max:  # NaN, an infinity or an integer beyond floats
        raise ConfigError(f"{path}: expected a finite number, got {value!r}")
    v = float(value)
    if minimum is not None and v < minimum:
        raise ConfigError(f"{path}: must be >= {minimum}")
    return v


def _int(value, path: str, minimum: Optional[int] = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{path}: must be >= {minimum}")
    if value > np.iinfo(np.int64).max:
        raise ConfigError(f"{path}: {value} does not fit a 64-bit integer")
    return value


def _str(value, path: str, choices=None) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{path}: expected a string, got {value!r}")
    if choices is not None and value not in choices:
        raise ConfigError(f"{path}: expected one of {', '.join(choices)}; got {value!r}")
    return value


def _float_list(value, path: str) -> list[float]:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{path}: expected a non-empty list of numbers")
    return [_num(v, f"{path}[{i}]") for i, v in enumerate(value)]


def _num_leaves(value, path: str):
    """``value``, once :func:`_num` has accepted every leaf of its nested
    lists (walked without recursion: JSON nests deeper than Python's stack)."""
    stack = [(value, path)]
    while stack:
        node, at = stack.pop()
        if isinstance(node, list):
            stack.extend((node[i], f"{at}[{i}]") for i in reversed(range(len(node))))
        else:
            _num(node, at)
    return value


def _int_list(value, path: str, minimum: int = 1) -> list[int]:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{path}: expected a non-empty list of integers")
    return [_int(v, f"{path}[{i}]", minimum) for i, v in enumerate(value)]


def _point(value, path: str, domain: Domain) -> np.ndarray:
    """A list of coordinates admitted by ``geometry.contains``."""
    x = np.asarray(_float_list(value, path))
    if x.size != domain.dim:
        raise ConfigError(f"{path}: needs {domain.dim} coordinate(s)")
    if not contains(domain, x):
        raise ConfigError(f"{path}: {x.tolist()} lies outside the domain")
    return x


def _parse_domain(raw) -> tuple[str, Domain]:
    """The config's ``domain.kind`` and the domain it spells."""
    raw = _require_object(raw, "domain")
    _reject_unknown(raw, ("kind", "dim"), "domain")
    kind = _str(_get(raw, "kind", "domain"), "domain.kind", choices=tuple(_MARKOV_NAMES))
    dim = _int(_get(raw, "dim", "domain", 1), "domain.dim", 1)
    if kind == "interval" and dim != 1:
        raise ConfigError("domain: interval domain must have dim=1")
    if kind == "interval":
        return kind, Domain.interval()
    return kind, _at("domain", Domain, kind, dim)


def _parse_measure(raw, domain: Domain, path: str):
    raw = _require_object(raw, path)
    kind = _str(_get(raw, "kind", path), f"{path}.kind",
                choices=("lebesgue", "discrete", "power"))
    if kind == "lebesgue":
        _reject_unknown(raw, ("kind",), path)
        return lebesgue_measure()
    if kind == "power":
        return _at(path, power_measure, *_parse_power(raw, domain, path))
    _reject_unknown(raw, ("kind", "atoms", "weights"), path)
    atoms = _num_leaves(_get(raw, "atoms", path), f"{path}.atoms")
    weights = _num_leaves(_get(raw, "weights", path), f"{path}.weights")
    return _at(path, lambda: discrete_spec(discrete_measure(atoms, weights, domain)))


def _at(path: str, build, *args):
    """``build(*args)``, with its ``ConfigError`` prefixed by ``path``."""
    try:
        return build(*args)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _parse_power(raw: dict, domain: Domain, path: str):
    """(base measure, exponent) of a power measure entry."""
    _reject_unknown(raw, ("kind", "base", "exponent"), path)
    base = _parse_measure(_get(raw, "base", path, {"kind": "lebesgue"}), domain, f"{path}.base")
    return base, _int(_get(raw, "exponent", path), f"{path}.exponent", 1)


def _parse_measures(raw, domain: Domain) -> MeasureSeqSpec:
    path = "operator.measures"
    if raw is None:
        return constant_lebesgue()
    raw = _require_object(raw, path)
    kind = _str(
        _get(raw, "kind", path), f"{path}.kind",
        choices=("constant_lebesgue", "dirac_shift", "power_of_base", "explicit_list"),
    )
    if kind == "constant_lebesgue":
        _reject_unknown(raw, ("kind",), path)
        return constant_lebesgue()
    if kind == "dirac_shift":
        _reject_unknown(raw, ("kind", "point"), path)
        return dirac_shift(_point(_get(raw, "point", path), f"{path}.point", domain))
    if kind == "power_of_base":
        return _at(path, power_of_base, *_parse_power(raw, domain, path))
    _reject_unknown(raw, ("kind", "measures"), path)
    entries = _get(raw, "measures", path)
    if not isinstance(entries, list) or not entries:
        raise ConfigError(f"{path}.measures: expected a non-empty list")
    return explicit_list(
        [_parse_measure(e, domain, f"{path}.measures[{i}]") for i, e in enumerate(entries)]
    )


def _parse_function(raw, domain: Domain, required: bool):
    if raw is None:
        if required:
            raise ConfigError("function: required for this command "
                              f"(available: {', '.join(catalog_names())})")
        return None
    raw = _require_object(raw, "function")
    _reject_unknown(raw, ("name", "params"), "function")
    name = _str(_get(raw, "name", "function"), "function.name")
    params = _get(raw, "params", "function", [])
    if not isinstance(params, list):
        raise ConfigError("function.params: expected a list of numbers")
    params = [_num(v, f"function.params[{i}]") for i, v in enumerate(params)]
    return _at("function", lookup, name, params, domain)


def _parse_p(value, path: str):
    if value is None:
        return None
    if value == "inf":
        raise ConfigError(f"{path}: use the sup_error column instead of p = inf")
    p = _num(value, path)
    _at(path, check_p, p)
    return p


def _default_grid(domain: Domain) -> int:
    return {1: 200, 2: 40, 3: 12}[domain.dim]


def _default_modes(f, domain: Domain) -> list[str]:
    """Shape checks the operators are guaranteed to pass for this f.

    Joint convexity is only preserved in one variable; in several the
    family preserves convexity along axis directions (hypercube) or
    axis/edge directions (simplex), so those are the defaults there and
    the "convex" mode stays opt-in.
    """
    meta = f.meta
    modes = []
    if domain.kind == SIMPLEX:
        if meta.convex or meta.axially_convex:
            modes.append("axially_convex")
    elif domain.dim == 1:
        if meta.convex:
            modes.append("convex")
    elif meta.convex or meta.coordinate_convex:
        modes.append("coordinate_convex")
    if meta.convex:
        modes.append("sandwich")
    if meta.lipschitz_l1 is not None:
        modes.append("lipschitz_l1")
    return modes


@dataclass
class RunPlan:
    command: str
    cfg: OperatorConfig
    f: object
    n_list: list[int] = field(default_factory=list)
    grid_resolution: int = 0
    p: Optional[float] = None
    bounds: list[str] = field(default_factory=list)
    points: list[np.ndarray] = field(default_factory=list)
    delta_list: list[float] = field(default_factory=list)
    modes: list[str] = field(default_factory=list)
    k: int = 1
    seed: int = 42
    csv_path: Optional[str] = None
    json_path: Optional[str] = None
    raw: dict = field(default_factory=dict)


_EXPERIMENT_FIELDS = (
    "command", "n_list", "grid_resolution", "p",
    "bounds", "points", "delta_list", "modes", "k",
)


def parse_config(raw, command: str, seed_override: Optional[int] = None) -> RunPlan:
    raw = _require_object(raw, "config")
    _reject_unknown(
        raw, ("domain", "operator", "function", "experiment", "output", "seed"), "config"
    )
    kind, domain = _parse_domain(_get(raw, "domain", "config"))

    op_raw = _require_object(_get(raw, "operator", "config"), "operator")
    _reject_unknown(op_raw, ("markov", "a", "measures"), "operator")
    markov, own = op_raw.get("markov"), _MARKOV_NAMES[kind]
    if markov is not None and markov != own:
        raise ConfigError(f"operator.markov: the {kind}'s Markov operator is "
                          f"{own!r}, got {markov!r}")
    a = _num(_get(op_raw, "a", "operator"), "operator.a", 0.0)
    measures = _parse_measures(op_raw.get("measures"), domain)

    exp_raw = _require_object(_get(raw, "experiment", "config", {}), "experiment")
    _reject_unknown(exp_raw, _EXPERIMENT_FIELDS, "experiment")
    declared = exp_raw.get("command")
    if declared is not None and declared != command:
        raise ConfigError(
            f"experiment.command: config says {declared!r} but the "
            f"{command!r} subcommand was invoked"
        )
    cfg = _at("operator", OperatorConfig, domain, a, measures)

    bounds = exp_raw.get("bounds", [])
    if not isinstance(bounds, list):
        raise ConfigError("experiment.bounds: expected a list of bound ids")
    for i, b in enumerate(bounds):
        _str(b, f"experiment.bounds[{i}]", choices=BOUND_IDS)

    needs_f = command != "verify" or any(b != "lambda_p_bound" for b in bounds)
    f = _parse_function(raw.get("function"), domain, required=needs_f)

    plan = RunPlan(command=command, cfg=cfg, f=f, raw=raw)
    plan.bounds = list(bounds)
    plan.grid_resolution = _int(
        _get(exp_raw, "grid_resolution", "experiment", _default_grid(domain)),
        "experiment.grid_resolution", 2,
    )
    plan.p = _parse_p(exp_raw.get("p"), "experiment.p")
    plan.k = _int(_get(exp_raw, "k", "experiment", 1), "experiment.k", 1)
    _at("experiment.k", difference_coeffs, plan.k)
    plan.seed = _int(_get(raw, "seed", "config", 42), "seed", 0)
    if seed_override is not None:
        plan.seed = seed_override

    if command == "moduli":
        plan.delta_list = sorted(
            _float_list(
                _get(exp_raw, "delta_list", "experiment", [0.0625, 0.125, 0.25, 0.5]),
                "experiment.delta_list",
            )
        )
        if any(d <= 0.0 for d in plan.delta_list):
            raise ConfigError("experiment.delta_list: deltas must be positive")
        _at("experiment.delta_list", check_tau_deltas, plan.delta_list, plan.grid_resolution)
    else:
        plan.n_list = sorted(_int_list(_get(exp_raw, "n_list", "experiment"),
                                       "experiment.n_list"))
        if measures.kind == EXPLICIT_LIST and plan.n_list[-1] > len(measures.measures):
            raise ConfigError(
                f"operator.measures.measures: {len(measures.measures)} measure(s) listed, "
                f"one per n, but experiment.n_list reaches n = {plan.n_list[-1]}")
        for n in plan.n_list:
            _at(f"operator.measures: n = {n}",
                lambda: check_rule_budget(resolve(measures, n, domain), domain, BASE_LEVEL))

    if command == "eval":
        pts_raw = _get(exp_raw, "points", "experiment")
        if not isinstance(pts_raw, list) or not pts_raw:
            raise ConfigError("experiment.points: expected a non-empty list of points")
        plan.points = [
            _point(entry if isinstance(entry, list) else [entry],
                   f"experiment.points[{i}]", domain)
            for i, entry in enumerate(pts_raw)
        ]

    if command == "preserve":
        modes = exp_raw.get("modes")
        if modes is None:
            plan.modes = _default_modes(f, domain)
        else:
            if not isinstance(modes, list) or not modes:
                raise ConfigError("experiment.modes: expected a non-empty list")
            plan.modes = [
                _str(mval, f"experiment.modes[{i}]", choices=_PRESERVE_MODES)
                for i, mval in enumerate(modes)
            ]
        if "axially_convex" in plan.modes and domain.kind != SIMPLEX:
            raise ConfigError("experiment.modes: axially_convex applies to the simplex")
        if "lipschitz_l1" in plan.modes and f.meta.lipschitz_l1 is None:
            raise ConfigError(
                "experiment.modes: lipschitz_l1 needs a function with a known constant")

    out_raw = _require_object(_get(raw, "output", "config", {}), "output")
    _reject_unknown(out_raw, ("csv_path", "json_path"), "output")
    if "csv_path" in out_raw:
        plan.csv_path = _str(out_raw["csv_path"], "output.csv_path")
    if "json_path" in out_raw:
        plan.json_path = _str(out_raw["json_path"], "output.json_path")
    return plan


def load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config {path!r} is not valid JSON: line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from None
    except RecursionError:
        raise ConfigError(f"config {path!r} nests too deeply to read") from None


# ---------------------------------------------------------------------------
# report rows and serialization


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def _row_line(values) -> str:
    return ",".join(_fmt(v) for v in values)


def _write_text(path: str, text: str) -> None:
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _warn_unconverged(quadrature: dict) -> None:
    """Warns on stderr when a ladder of the run ended without two levels
    agreeing."""
    unconverged = quadrature["unconverged_at_cap"] + quadrature["stopped_by_node_budget"]
    if unconverged:
        print(f"warning: {unconverged} of {quadrature['ladders']} quadrature ladder(s) did not "
              f"converge ({quadrature['unconverged_at_cap']} at the level cap, "
              f"{quadrature['stopped_by_node_budget']} stopped by the node budget)",
              file=sys.stderr)


def _write_outputs(plan: RunPlan, header: str, rows: list[dict], summary: dict,
                   started: float, quadrature: dict) -> None:
    columns = header.split(",")
    if plan.csv_path:
        lines = [header]
        lines += [_row_line([row.get(c) for c in columns]) for row in rows]
        _write_text(plan.csv_path, "\n".join(lines) + "\n")
    if plan.json_path:
        doc = {
            "meta": {
                "command": plan.command,
                "seed": plan.seed,
                "config": plan.raw,
                "versions": {
                    "kantorov": __version__,
                    "numpy": np.__version__,
                    "python": platform.python_version(),
                },
                "wall_time_s": time.perf_counter() - started,
                "quadrature": quadrature,
            },
            "summary": summary,
            "rows": rows,
        }
        _write_text(plan.json_path, json.dumps(doc, indent=2, default=_fmt) + "\n")


# ---------------------------------------------------------------------------
# subcommand bodies; each returns (header, rows, summary, ok)


def _run_eval(plan: RunPlan):
    rows = []
    for n in plan.n_list:
        for x in plan.points:
            value = float(eval_Cn(plan.cfg, n, plan.f, x))
            label = ";".join(_fmt(c) for c in x)
            rows.append({"n": n, "x": label, "value": value})
            print(f"n={n} x=({', '.join(_fmt(c) for c in x)}) C_n(f)(x) = {value!r}")
    return EVAL_HEADER, rows, {"evaluations": len(rows)}, True


def _run_converge(plan: RunPlan):
    table = convergence_table(plan.cfg, plan.f, plan.n_list, plan.grid_resolution, plan.p)
    rows = [
        {"n": r.n, "sup_error": r.sup_error, "lp_error": r.lp_error}
        for r in table
    ]
    for r in rows:
        lp = "" if r["lp_error"] is None else f"  lp_error={_fmt(r['lp_error'])}"
        print(f"n={r['n']:>5}  sup_error={_fmt(r['sup_error'])}{lp}")
    slope = loglog_slope([r.n for r in table], [r.sup_error for r in table])
    summary = {"loglog_slope": slope}
    if len(table) >= 2:
        print(f"log-log slope of sup_error over n: {slope:.3f}")
    bound_rows, groups = _bound_rows(plan)
    rows.extend(bound_rows)
    ok = True
    for name, passed, detail in groups:
        ok &= passed
        summary[name] = passed
        print(f"[{'PASS' if passed else 'FAIL'}] bound {name:<15} {detail}")
    return CSV_HEADER, rows, summary, ok


def _moment_rows(plan: RunPlan):
    """Moment oracle: ``eval_Cn`` of random affine forms and of the
    coordinate squares against the exact closed form ``cn_product``."""
    cfg = plan.cfg
    rng = np.random.default_rng(plan.seed)
    forms = random_affine_forms(cfg.domain, 10, rng)
    squares = [lookup("monomial", (i + 1, 2), cfg.domain) for i in range(cfg.domain.dim)]
    coordinates = [coordinate_form(cfg.domain, i) for i in range(cfg.domain.dim)]
    rows = []
    worst = {"moment_affine": 0.0, "moment_quadratic": 0.0}
    for n in plan.n_list:
        xs = random_points(cfg.domain, 10, rng)
        aff = 0.0
        for h in forms:
            gap = np.abs(eval_Cn(cfg, n, h, xs) - cn_product(cfg, n, h, xs))
            aff = max(aff, float(np.max(gap)))
        quad = 0.0
        for square, pr in zip(squares, coordinates):
            gap = np.abs(eval_Cn(cfg, n, square, xs) - cn_product(cfg, n, pr, xs, pr))
            quad = max(quad, float(np.max(gap)))
        for bound_id, err, tol in (
            ("moment_affine", aff, _AFFINE_TOL),
            ("moment_quadratic", quad, _QUADRATIC_TOL),
        ):
            rows.append({
                "n": n,
                "sup_error": err,
                "bound_id": bound_id,
                "bound_value": tol,
                "ratio": err / tol,
                "pass": err <= tol,
            })
            worst[bound_id] = max(worst[bound_id], err)
    return rows, worst


def _bound_rows(plan: RunPlan):
    """Rows and one summary group per requested bound id.  The sup-norm
    bounds scan the run's grid; the L^p ones keep ``check_bound``'s
    default ``lp_grid``."""
    rows, groups = [], []
    for bound_id in plan.bounds:
        sup = bound_id in SUP_BOUNDS
        grid = (plan.grid_resolution,) if sup else ()
        report = check_bound(plan.cfg, plan.f, plan.n_list, bound_id, *grid,
                             p=plan.p if plan.p is not None else 2.0)
        error_key = "sup_error" if sup else "lp_error"
        for r in report.rows:
            rows.append({
                "n": r.n,
                error_key: r.measured,
                "bound_id": bound_id,
                "bound_value": r.bound,
                "ratio": r.ratio,
                "pass": r.ratio <= 1.0 + report.tol,
            })
        groups.append((bound_id, report.passed, f"max ratio {report.max_ratio:.3g}"))
    return rows, groups


def _run_verify(plan: RunPlan):
    rows, worst = _moment_rows(plan)
    groups = [
        (name, all(r["pass"] for r in rows if r["bound_id"] == name),
         f"worst {worst[name]:.3g} tol {tol:g}")
        for name, tol in (("moment_affine", _AFFINE_TOL), ("moment_quadratic", _QUADRATIC_TOL))
    ]
    bound_rows, bound_groups = _bound_rows(plan)
    rows.extend(bound_rows)
    groups.extend(bound_groups)
    ok = True
    for name, passed, detail in groups:
        ok &= passed
        lo, hi = plan.n_list[0], plan.n_list[-1]
        print(f"[{'PASS' if passed else 'FAIL'}] {name:<18} n={lo}..{hi}  {detail}")
    checks = len(groups)
    print(f"{checks} check group(s), {sum(1 for g in groups if g[1])} passed")
    return CSV_HEADER, rows, {g[0]: g[1] for g in groups}, ok


def _run_preserve(plan: RunPlan):
    cfg, f, m = plan.cfg, plan.f, plan.grid_resolution
    rows = []
    ok = True
    for n in plan.n_list:
        for mode in plan.modes:
            if mode == "sandwich":
                rep = sandwich_check(cfg, n, f, m)
                measured = max(rep.below_violation, rep.above_violation, rep.blend_violation)
                row = {"n": n, "sup_error": measured, "bound_id": "sandwich",
                       "bound_value": rep.tol, "pass": rep.passed}
            elif mode == "lipschitz_l1":
                rep = lipschitz_preservation(cfg, n, f, m)
                limit = rep.constant + rep.tol
                row = {"n": n, "sup_error": rep.estimate, "bound_id": "lipschitz_l1",
                       "bound_value": limit,
                       "ratio": rep.estimate / limit if limit > 0 else 0.0,
                       "pass": rep.passed}
            else:
                rep = convexity_preservation(cfg, n, f, mode, m)
                row = {"n": n, "sup_error": rep.worst_violation, "bound_id": mode,
                       "bound_value": rep.tol, "pass": rep.passed}
            rows.append(row)
            ok &= row["pass"]
            print(f"[{'PASS' if row['pass'] else 'FAIL'}] n={n:>4} {mode:<18} "
                  f"measured {_fmt(row['sup_error'])}")
    print(f"{len(rows)} check(s), {sum(1 for r in rows if r['pass'])} passed")
    return CSV_HEADER, rows, {"checks": len(rows), "all_passed": ok}, ok


def _run_moduli(plan: RunPlan):
    dom, f, m, deltas = plan.cfg.domain, plan.f, plan.grid_resolution, plan.delta_list
    p = plan.p if plan.p is not None else 1.0
    columns = {
        "omega1": omega1(f, dom, deltas, m),
        "omega2": omega2(f, dom, deltas, m),
        "tau_p": tau_p(f, dom, deltas, p, m),
        "omega_kp": omega_kp(f, dom, plan.k, deltas, p, m),
    }
    rows = [{"delta": delta, **{name: float(col[i]) for name, col in columns.items()}}
            for i, delta in enumerate(deltas)]
    for row in rows:
        print("  ".join(f"{name}={_fmt(row[name])}" for name in MODULI_HEADER.split(",")))
    return MODULI_HEADER, rows, {"p": p, "k": plan.k, "deltas": len(rows)}, True


_RUNNERS = {
    "eval": _run_eval,
    "converge": _run_converge,
    "verify": _run_verify,
    "preserve": _run_preserve,
    "moduli": _run_moduli,
}


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="kantorov",
        description="Evaluate and empirically validate blended Bernstein-type "
                    "operator families from a JSON experiment config.",
    )
    sub = ap.add_subparsers(dest="command", required=True, metavar="command")
    helps = {
        "eval": "print C_n(f)(x) for requested n and points",
        "converge": "sup / L^p error table over a list of n",
        "verify": "check closed-form moment oracles and error bounds",
        "preserve": "convexity, sandwich and Lipschitz preservation checks",
        "moduli": "table of smoothness moduli over a list of deltas",
    }
    for name in COMMANDS:
        p = sub.add_parser(name, help=helps[name])
        p.add_argument("--config", required=True, help="path to a UTF-8 JSON config")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config RNG seed (default 42)")
    return ap


# built by the first main() call, then reused: argparse keeps no state between parses
_PARSER: Optional[argparse.ArgumentParser] = None


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    args = _PARSER.parse_args(argv)
    started = time.perf_counter()
    try:
        raw = load_config(args.config)
        plan = parse_config(raw, args.command, args.seed)
        with ladder_record() as quadrature:
            header, rows, summary, ok = _RUNNERS[plan.command](plan)
        _warn_unconverged(quadrature)
        _write_outputs(plan, header, rows, summary, started, quadrature)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        where = f" at {exc.point}" if exc.point is not None else ""
        print(f"numeric failure{where}: {exc}", file=sys.stderr)
        return 1
    except (KantorovError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for path in (plan.csv_path, plan.json_path):
        if path:
            print(f"wrote {path}")
    if not ok:
        sys.stdout.flush()
        print("FAILED: at least one check did not hold", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
