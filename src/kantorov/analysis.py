"""Convergence experiments, bound verification and shape-preservation
checks: the layer that turns operator evaluations into pass/fail
reports and rate tables.

Grid moduli are lower estimates; wherever one feeds the large side of
an inequality it is either replaced by the catalog's exact modulus or
inflated by a 2% safety factor (and the pass tolerance widened to
match).  Closed-form sides use a 1e-6 tolerance.

Every value of a caller's function is taken through
:func:`~kantorov.geometry.values`, so a NaN or an infinity raises
:class:`~kantorov.errors.NumericError` instead of passing into a report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .bernstein import eval_Bn
from .errors import ConfigError, check_count, check_n, check_p
from .geometry import (SIMPLEX, Domain, ProductGrid, gauss01, uniform_grid,
                       uniform_product_grid, values)
from .kantorovich import (
    AffineForm,
    OperatorConfig,
    cn_product,
    coordinate_form,
    eval_Cn,
    eval_Cn_cells,
)
from .markov import markov_values
from .measures import all_lebesgue, mean_and_covariance, resolve
from .moduli import (_extrema, _half_offsets, _pair_views, _scan_grid, _tensor,
                     lipschitz_estimate, omega1)

TOL_CLOSED = 1e-6
TOL_GRID = 0.02
# pass tolerances of the shape-preservation reports
TOL_CONVEX = 1e-10
TOL_SANDWICH = 1e-11
TOL_LIPSCHITZ = 1e-6
_OMEGA_INFLATE = 1.02

# the bounds on the sup norm, checked on a grid of resolution m; the
# others bound an L^p norm and integrate on lp_grid
SUP_BOUNDS = ("omega_total", "omega_pointwise", "omega_uniform")
BOUND_IDS = SUP_BOUNDS + ("lambda_p_bound", "lp_equibounded")


# ---------------------------------------------------------------------------
# report rows


class _Verdict:
    """A report that is true when its check passed."""

    def __bool__(self) -> bool:
        return self.passed


@dataclass(frozen=True)
class ErrorRow:
    n: int
    sup_error: float
    lp_error: Optional[float] = None


@dataclass(frozen=True)
class BoundRow:
    n: int
    measured: float
    bound: float
    ratio: float


@dataclass(frozen=True)
class BoundReport(_Verdict):
    bound_id: str
    rows: tuple
    tol: float

    @property
    def max_ratio(self) -> float:
        return max((r.ratio for r in self.rows), default=0.0)

    @property
    def passed(self) -> bool:
        return self.max_ratio <= 1.0 + self.tol


# ---------------------------------------------------------------------------
# norms and random inputs


def lp_grid(domain: Domain, level: int = 8) -> ProductGrid:
    """The composite Gauss grid of :func:`lp_norm`: ``level`` panels per
    axis (rounded up to even so that midpoint kinks sit on panel
    boundaries), 6 nodes per panel (7 on the simplex, collapsed).
    :class:`ConfigError` unless ``level`` is an integer >= 1."""
    check_count(level, "lp_grid level")
    panels = level + level % 2
    gx, gw = gauss01(7 if domain.kind == SIMPLEX else 6)
    nodes1 = ((np.arange(panels)[:, None] + gx[None, :]) / panels).reshape(-1)
    return ProductGrid(domain, nodes1, np.tile(gw / panels, panels))


def _grid_norm(grid: ProductGrid, values, p: float) -> float:
    t = np.abs(np.asarray(values, dtype=float))
    t **= p
    t *= grid.weights
    return float(t.sum() ** (1.0 / p))


def lp_norm(domain: Domain, g, p: float, level: int = 8) -> float:
    """(integral of |g|^p over the domain, plain Lebesgue)^(1/p) on
    the grid :func:`lp_grid`."""
    check_p(p)
    grid = lp_grid(domain, level)
    return _grid_norm(grid, values(g, grid.points), p)


def random_points(domain: Domain, count: int, rng: np.random.Generator) -> np.ndarray:
    """Uniformly distributed points of the domain, shape ``(count, d)``."""
    if domain.kind == SIMPLEX:
        bary = rng.dirichlet(np.ones(domain.dim + 1), size=count)
        return bary[:, : domain.dim]
    return rng.uniform(0.0, 1.0, size=(count, domain.dim))


def random_affine_forms(domain: Domain, count: int, rng: np.random.Generator) -> list[AffineForm]:
    """Affine forms with coefficients uniform on [-1, 1]."""
    return [
        AffineForm(rng.uniform(-1.0, 1.0), tuple(rng.uniform(-1.0, 1.0, domain.dim)))
        for _ in range(count)
    ]


# ---------------------------------------------------------------------------
# error measurements


def _grid(domain: Domain, m: int):
    """``uniform_grid(domain, m)`` as C_n and B_n take it: the same rows as
    a :class:`ProductGrid` on the interval and cube, the batch on the simplex."""
    return uniform_grid(domain, m) if domain.kind == SIMPLEX else uniform_product_grid(domain, m)


def _sup_gap(cfg: OperatorConfig, n: int, f, grid, fv: np.ndarray) -> float:
    """max over ``grid`` (:func:`_grid`) of |C_n(f) - f|, given f's values there."""
    return float(np.max(np.abs(eval_Cn(cfg, n, f, grid) - fv)))


def _cn_evaluator(cfg: OperatorConfig, n: int, f) -> Callable[[np.ndarray], np.ndarray]:
    if cfg.a > 0.0 and all_lebesgue(cfg.measures):
        return lambda pts: eval_Cn_cells(cfg, n, f, pts)
    return lambda pts: eval_Cn(cfg, n, f, pts)


def _lp_gap(cfg: OperatorConfig, n: int, f, grid: ProductGrid, fv: np.ndarray,
            p: float) -> float:
    """L^p distance between C_n(f) and f on ``grid`` (:func:`lp_grid`),
    given f's values there."""
    return _grid_norm(grid, _cn_evaluator(cfg, n, f)(grid) - fv, p)


def sup_error(cfg: OperatorConfig, n: int, f, m: int) -> float:
    """max over the uniform grid of |C_n(f) - f|."""
    check_n(n)
    fv = values(f, uniform_grid(cfg.domain, m))
    return _sup_gap(cfg, n, f, _grid(cfg.domain, m), fv)


def lp_error(cfg: OperatorConfig, n: int, f, p: float, level: int = 8) -> float:
    """L^p distance between C_n(f) and f (cell form where available)."""
    check_n(n)
    check_p(p)
    grid = lp_grid(cfg.domain, level)
    return _lp_gap(cfg, n, f, grid, values(f, grid.points), p)


def _phi_diffs(cfg: OperatorConfig, n: int) -> list:
    """Callables x -> (C_n(phi_i) - phi_i)(x) for the Korovkin family
    pr_1..pr_d, sum pr_i^2, via the closed form :func:`cn_product`.
    The family's constant 1 is skipped: C_n(1) - 1 is 0, which never
    raises :func:`lambda_n`'s maximum."""
    forms = [coordinate_form(cfg.domain, i) for i in range(cfg.domain.dim)]
    diffs = [
        lambda pts, form=form: cn_product(cfg, n, form, np.atleast_2d(pts)) - form(pts)
        for form in forms
    ]

    def quad_diff(pts):
        pts = np.atleast_2d(pts)
        total = np.zeros(pts.shape[0])
        for i, form in enumerate(forms):
            total += cn_product(cfg, n, form, pts, form) - pts[:, i] ** 2
        return total

    diffs.append(quad_diff)
    return diffs


def lambda_n(cfg: OperatorConfig, n: int, p, m_or_level: int = 8) -> float:
    """max_i ||C_n(phi_i) - phi_i|| over the Korovkin test family.

    ``p`` is a real >= 1 or ``math.inf`` for the sup norm; the last
    argument is the grid resolution (sup norm) or the :func:`lp_grid`
    level (L^p norm).
    """
    return _lambda_gap(cfg, n, p, _lambda_grid(cfg.domain, p, m_or_level))


def _lambda_grid(domain: Domain, p, m_or_level: int):
    """The grid :func:`lambda_n` measures on: ``uniform_grid`` for the sup
    norm, :func:`lp_grid` for an L^p norm."""
    if p == math.inf:
        return uniform_grid(domain, m_or_level)
    check_p(p)
    return lp_grid(domain, m_or_level)


def _lambda_gap(cfg: OperatorConfig, n: int, p, grid) -> float:
    """:func:`lambda_n` on ``grid``, a :func:`_lambda_grid`."""
    best = 0.0
    for diff in _phi_diffs(cfg, n):
        if p == math.inf:
            val = float(np.max(np.abs(diff(grid))))
        else:
            val = _grid_norm(grid, values(diff, grid.points), p)
        best = max(best, val)
    return best


# ---------------------------------------------------------------------------
# grid modulus with conservative inflation


def _omegas(f, domain: Domain, m: int, deltas):
    """(omega(delta) at each of ``deltas``, exact flag) for the bound
    checks: the catalog's exact modulus, or else ``omega1`` on the grid
    inflated by ``_OMEGA_INFLATE`` (0 at delta = 0)."""
    deltas = np.asarray(deltas, dtype=float)
    meta = getattr(f, "meta", None)
    if meta is not None and meta.exact_omega is not None:
        return np.vectorize(meta.exact_omega, otypes=[float])(deltas), True
    out = np.zeros(deltas.shape)
    positive = deltas > 0.0
    out[positive] = _OMEGA_INFLATE * omega1(f, domain, deltas[positive], m)
    return out, False


def _te2_gap_sup(domain: Domain) -> float:
    """sup over the domain of T(e_2) - e_2 = sum x_i (1 - x_i)."""
    d = domain.dim
    if domain.kind == SIMPLEX:
        return 0.25 if d == 1 else 1.0 - 1.0 / d
    return d / 4.0


def _ratio(measured: float, bound: float) -> float:
    if bound > 1e-14:
        return measured / bound
    return 0.0 if measured <= 1e-12 else math.inf


# ---------------------------------------------------------------------------
# bound verification


def _omega_total_delta(cfg, n):
    return math.sqrt((4.0 * cfg.a**2 + 1.0) / (n + cfg.a)) * cfg.domain.modulus_scale


def _omega_uniform_delta(cfg, n):
    spread = max(cfg.a * cfg.domain.diameter**2, _te2_gap_sup(cfg.domain))
    return spread / math.sqrt(n + cfg.a)


# delta(cfg, n) of each bound ||C_n f - f|| <= 2 omega(delta) in the sup norm
_SUP_DELTAS = {"omega_total": _omega_total_delta, "omega_uniform": _omega_uniform_delta}


def _sorted_n(n_list) -> list[int]:
    """``n_list`` sorted, each entry checked by :func:`~kantorov.errors.check_n`."""
    n_list = list(n_list)
    for n in n_list:
        check_n(n)
    return sorted(int(n) for n in n_list)


def _check_omega_sup(cfg, f, n_list, m, delta):
    omegas, exact = _omegas(f, cfg.domain, m, [delta(cfg, n) for n in n_list])
    grid, fv = _grid(cfg.domain, m), values(f, uniform_grid(cfg.domain, m))
    rows = []
    for n, omega in zip(n_list, omegas):
        bound = 2.0 * float(omega)
        measured = _sup_gap(cfg, n, f, grid, fv)
        rows.append(BoundRow(n, measured, bound, _ratio(measured, bound)))
    return rows, exact


def _check_omega_pointwise(cfg, f, n_list, m):
    xs, grid = uniform_grid(cfg.domain, m), _grid(cfg.domain, m)
    fv = values(f, xs)
    gap_x = markov_values(cfg.domain, lambda v: (v**2).sum(axis=1), xs) - (xs**2).sum(axis=1)
    deltas = []
    for n in n_list:
        if cfg.a > 0.0:
            m1, cov = mean_and_covariance(resolve(cfg.measures, n, cfg.domain), cfg.domain)
            i2 = np.trace(cov) + ((m1 - xs) ** 2).sum(axis=1)
        else:
            i2 = np.zeros(xs.shape[0])
        cn_dx2 = (cfg.a**2 * i2 + n * gap_x) / (n + cfg.a) ** 2
        deltas.append(np.sqrt(np.maximum(cn_dx2, 0.0)))
    omegas, exact = _omegas(f, cfg.domain, m, np.concatenate(deltas))
    rows = []
    for n, omega in zip(n_list, np.split(omegas, len(n_list))):
        bounds = 2.0 * omega
        errs = np.abs(eval_Cn(cfg, n, f, grid) - fv)
        ratios = np.array([_ratio(e, b) for e, b in zip(errs, bounds)])
        worst = int(np.argmax(ratios))
        rows.append(BoundRow(n, float(errs[worst]), float(bounds[worst]), float(ratios[worst])))
    return rows, exact


def lambda_p_bound_value(domain: Domain, a: float, n: int, p: float) -> float:
    """Closed-form decay bound for lambda_{n,p}."""
    if domain.kind == SIMPLEX:
        return 3.0 * (a + 1.0) ** 2 / (math.factorial(domain.dim) ** (1.0 / p) * (n + a))
    return 3.0 * domain.dim * (a + 1.0) ** 2 / (n + a)


def equibounded_constant(domain: Domain, a: float) -> float:
    """sup_n of the cell-overcount factor in the L^p contraction bound."""
    if a <= 0.0:
        raise ConfigError("equiboundedness constant needs a > 0")
    scalar = 1.0 / a if a <= 1.0 else (1.0 + a) / (2.0 * a)
    m = scalar**domain.dim
    if domain.kind == SIMPLEX:
        m *= math.factorial(domain.dim)
    return m


def _require_lebesgue(cfg: OperatorConfig, bound_id: str) -> None:
    if not all_lebesgue(cfg.measures):
        raise ConfigError(f"{bound_id} is stated for constant Lebesgue measures")


def _check_lambda_p(cfg, n_list, level, p):
    _require_lebesgue(cfg, "lambda_p_bound")
    grid = lp_grid(cfg.domain, level)
    rows = []
    for n in n_list:
        measured = _lambda_gap(cfg, n, p, grid)
        bound = lambda_p_bound_value(cfg.domain, cfg.a, n, float(p))
        rows.append(BoundRow(n, measured, bound, _ratio(measured, bound)))
    return rows


def _check_lp_equibounded(cfg, f, n_list, level, p):
    _require_lebesgue(cfg, "lp_equibounded")
    if cfg.a <= 0.0:
        raise ConfigError("lp_equibounded needs a > 0")
    grid = lp_grid(cfg.domain, level)
    fnorm = _grid_norm(grid, values(f, grid.points), float(p))
    bound = equibounded_constant(cfg.domain, cfg.a) ** (1.0 / float(p)) * fnorm
    rows = []
    for n in n_list:
        measured = _grid_norm(grid, _cn_evaluator(cfg, n, f)(grid), float(p))
        rows.append(BoundRow(n, measured, bound, _ratio(measured, bound)))
    return rows


def check_bound(
    cfg: OperatorConfig,
    f,
    n_list: Sequence[int],
    bound_id: str,
    m_or_level: int = 8,
    p: float = 2.0,
) -> BoundReport:
    """Measure an error quantity against one of the named closed-form bounds.

    ``m_or_level`` is a grid resolution for the :data:`SUP_BOUNDS` and
    an :func:`lp_grid` level for the L^p ones.
    """
    if bound_id not in BOUND_IDS:
        raise ConfigError(f"unknown bound_id {bound_id!r}; know {BOUND_IDS}")
    if bound_id not in SUP_BOUNDS:
        check_p(p)
    n_list = _sorted_n(n_list)
    if bound_id in SUP_BOUNDS:
        if bound_id == "omega_pointwise":
            rows, exact = _check_omega_pointwise(cfg, f, n_list, m_or_level)
        else:
            rows, exact = _check_omega_sup(cfg, f, n_list, m_or_level, _SUP_DELTAS[bound_id])
        tol = TOL_CLOSED if exact else TOL_GRID
    elif bound_id == "lambda_p_bound":
        rows, tol = _check_lambda_p(cfg, n_list, m_or_level, p), TOL_CLOSED
    else:
        rows, tol = _check_lp_equibounded(cfg, f, n_list, m_or_level, p), TOL_CLOSED
    return BoundReport(bound_id, tuple(rows), tol)


# ---------------------------------------------------------------------------
# shape preservation


@dataclass(frozen=True)
class ConvexityReport(_Verdict):
    mode: str
    passed: bool
    worst_violation: float
    witness: Optional[tuple]
    tol: float


def _on_axis(ks: np.ndarray) -> np.ndarray:
    return np.count_nonzero(ks, axis=1) == 1


def _on_axis_or_edge(ks: np.ndarray) -> np.ndarray:
    # along e_i, or along e_i - e_j (two opposite equal steps)
    edge = (np.count_nonzero(ks, axis=1) == 2) & (ks.sum(axis=1) == 0)
    return _on_axis(ks) | edge


# offset filter of each mode
_MODES = {
    "convex": lambda ks: np.ones(len(ks), dtype=bool),
    "coordinate_convex": _on_axis,
    "axially_convex": _on_axis_or_edge,
}


def convexity_report(g, domain: Domain, mode: str, m: int) -> ConvexityReport:
    """Midpoint convexity scan over grid pairs.

    ``convex`` checks all pairs; ``coordinate_convex`` only pairs along
    one axis; ``axially_convex`` (simplex) pairs along axes or vertex
    differences e_i - e_j.  ``g`` is a callable (evaluated on the
    doubled grid) or a precomputed value array on ``uniform_grid(2m)``.
    The witness is a pair of the 2m grid whose midpoint violation is
    ``worst_violation``: of the pairs that attain it, the first offset
    ``k`` in lexicographic order, then the first row ``i`` in C order.
    """
    if mode not in _MODES:
        raise ConfigError(f"unknown convexity mode {mode!r}")
    if mode == "axially_convex" and domain.kind != SIMPLEX:
        raise ConfigError("axially_convex applies to the simplex")
    g2, pts2 = _scan_grid(g, domain, m, 2)
    ks = _half_offsets(domain.dim, m)
    ks = ks[_MODES[mode](ks)]
    violation = lambda a, b, mid: mid - 0.5 * (a + b)
    ext = _extrema(violation, g2, ks, midpoints=True)
    # the witness: the first offset k attaining the worst, then its first row i
    worst = float(np.fmax.reduce(ext))
    k = ks[np.flatnonzero(ext == worst)[0]]
    vals = violation(*_pair_views(g2, k.tolist(), True))
    i = np.maximum(-k, 0) + np.unravel_index(np.flatnonzero(vals == worst)[0], vals.shape)
    x2 = _tensor(pts2, domain, 2 * m)
    witness = (x2[tuple(2 * i)].copy(), x2[tuple(2 * i + 2 * k)].copy())
    return ConvexityReport(mode, worst <= TOL_CONVEX, worst, witness, TOL_CONVEX)


def convexity_preservation(cfg: OperatorConfig, n: int, f, mode: str, m: int) -> ConvexityReport:
    """:func:`convexity_report` of C_n(f), evaluated on ``uniform_grid(2m)``."""
    grid = _grid(cfg.domain, 2 * m)
    return convexity_report(eval_Cn(cfg, n, f, grid), cfg.domain, mode, m)


@dataclass(frozen=True)
class SandwichReport(_Verdict):
    passed: bool
    below_violation: float  # max of f - B_n(f)
    above_violation: float  # max of B_n(f) - T(f)
    blend_violation: float  # max of C_n(f) - C_n(T(f))
    tol: float


def sandwich_check(cfg: OperatorConfig, n: int, f, m: int) -> SandwichReport:
    """Grid check of f <= B_n(f) <= T(f) and C_n(f) <= C_n(T f)."""
    xs, grid = uniform_grid(cfg.domain, m), _grid(cfg.domain, m)
    fv = values(f, xs)
    bn = eval_Bn(cfg.domain, n, f, grid)
    tf = markov_values(cfg.domain, f, xs)
    below = float(np.max(fv - bn))
    above = float(np.max(bn - tf))
    cnf = eval_Cn(cfg, n, f, grid)
    cntf = eval_Cn(cfg, n, lambda pts: markov_values(cfg.domain, f, pts), grid)
    blend = float(np.max(cnf - cntf))
    passed = max(below, above, blend) <= TOL_SANDWICH
    return SandwichReport(passed, below, above, blend, TOL_SANDWICH)


@dataclass(frozen=True)
class LipschitzReport(_Verdict):
    passed: bool
    constant: float
    estimate: float
    tol: float


def lipschitz_preservation(cfg: OperatorConfig, n: int, f, m: int) -> LipschitzReport:
    """C_n should not enlarge the l1-Lipschitz constant of f."""
    meta = getattr(f, "meta", None)
    if meta is None or meta.lipschitz_l1 is None:
        raise ConfigError("function needs a known l1-Lipschitz constant")
    est = lipschitz_estimate(eval_Cn(cfg, n, f, _grid(cfg.domain, m)), cfg.domain, m)
    return LipschitzReport(est <= meta.lipschitz_l1 + TOL_LIPSCHITZ, meta.lipschitz_l1, est,
                           TOL_LIPSCHITZ)


# ---------------------------------------------------------------------------
# rate diagnostics


def loglog_slope(ns: Sequence[int], errors: Sequence[float]) -> float:
    """Least-squares slope of log(error) against log(n)."""
    ns = np.asarray(ns, dtype=float)
    errors = np.asarray(errors, dtype=float)
    keep = errors > 0.0
    if keep.sum() < 2:
        return 0.0
    return float(np.polyfit(np.log(ns[keep]), np.log(errors[keep]), 1)[0])


def convergence_table(
    cfg: OperatorConfig,
    f,
    n_list: Sequence[int],
    m: int,
    p: Optional[float] = None,
) -> list[ErrorRow]:
    """sup / L^p error rows for a list of n (sorted), as :func:`sup_error`
    and :func:`lp_error` give them.  The grids and f's values on them are
    built once; the L^p error reuses the inner integrals that the sup
    error computed."""
    if p is not None:
        check_p(p)
    n_list = _sorted_n(n_list)
    grid, fv = _grid(cfg.domain, m), values(f, uniform_grid(cfg.domain, m))
    if p is not None:
        lgrid = lp_grid(cfg.domain)
        lfv = values(f, lgrid.points)
    rows = []
    for n in n_list:
        sup = _sup_gap(cfg, n, f, grid, fv)
        lp = _lp_gap(cfg, n, f, lgrid, lfv, p) if p is not None else None
        rows.append(ErrorRow(n, sup, lp))
    return rows
