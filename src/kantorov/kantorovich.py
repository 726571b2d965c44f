"""The blended positive operators C_n and their auxiliary I_n.

C_n(f)(x) = sum_h basis(n, h, x) * J_{n,h} with inner integrals
J_{n,h} = integral of f((h + a*s)/(n+a)) against mu_n(s).  Equivalently
C_n = B_n composed with I_n(f)(x) = integral of f(nx/(n+a) + at/(n+a)).
The parameter a >= 0 and the measure sequence (mu_n) select the family:
a = 0 gives back B_n, a = 1 with Lebesgue measures gives the classical
cell-averaging operators.

Closed-form first and second moments (affine, bilinear, quadratic) are
provided as analytic oracles for the quadrature paths.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bernstein import admit_points, apply_lattice_values, lattice
from .errors import ConfigError, check_n
from .geometry import SIMPLEX, Domain, admit, values
from .markov import markov_values
from .measures import (
    BASE_LEVEL,
    DIRAC_SHIFT,
    MAX_RULE_NODES,
    MeasureSeqSpec,
    MeasureSpec,
    all_lebesgue,
    integrate_measure,
    is_discrete,
    measure_nodes,
    resolve,
    rule_node_count,
    splits,
)

_MAX_LEVEL = 32
_LADDER_TOL = 1e-11
# Integrand points per block of _blend_at_level (1.5 MB of coordinates on
# Q3).
_BLOCK_POINTS = 1 << 16

# The ladder_record() blocks open in this process, innermost last.
_RECORDS = []


@contextmanager
def ladder_record():
    """Outcomes of the Gauss ladders run inside the ``with`` block.

    The dict counts "ladders"; "unconverged_at_cap", those that reached
    _MAX_LEVEL without two successive levels agreeing to _LADDER_TOL; and
    "stopped_by_node_budget", those that MAX_RULE_NODES stopped before two
    levels agreed.  "max_level" is the highest level a ladder ended at,
    and "max_residual" the largest difference between the last two levels
    a ladder compared (None while no ladder has compared two).
    """
    record = {"ladders": 0, "unconverged_at_cap": 0, "stopped_by_node_budget": 0,
              "max_level": 0, "max_residual": None}
    _RECORDS.append(record)
    try:
        yield record
    finally:
        _RECORDS.pop()


@dataclass(frozen=True)
class AffineForm:
    """h(x) = constant + gradient . x; callable on ``(G, d)`` batches."""

    constant: float
    gradient: tuple

    def __post_init__(self):
        grad = tuple(float(g) for g in self.gradient)
        object.__setattr__(self, "gradient", grad)
        object.__setattr__(self, "constant", float(self.constant))
        if not math.isfinite(self.constant) or not all(math.isfinite(g) for g in grad):
            raise ConfigError("affine form coefficients must be finite")

    @property
    def dim(self) -> int:
        return len(self.gradient)

    def __call__(self, pts) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        out = np.full(pts.shape[0], self.constant)
        for g, col in zip(self.gradient, pts.T, strict=True):
            out += g * col
        return out


def coordinate_form(domain: Domain, i: int) -> AffineForm:
    """The i-th coordinate projection (0-based) as an affine form."""
    if not 0 <= i < domain.dim:
        raise ConfigError(f"coordinate index {i} out of range for dim {domain.dim}")
    grad = [0.0] * domain.dim
    grad[i] = 1.0
    return AffineForm(0.0, tuple(grad))


@dataclass(frozen=True)
class OperatorConfig:
    """C_n on ``domain``, whose canonical vertex operator is the Markov
    operator T, with blend parameter ``a`` and measure sequence (mu_n)."""

    domain: Domain
    a: float
    measures: MeasureSeqSpec

    def __post_init__(self):
        object.__setattr__(self, "a", float(self.a))
        if not math.isfinite(self.a) or self.a < 0.0:
            raise ConfigError("blend parameter a must be finite and >= 0")
        if self.measures.kind == DIRAC_SHIFT and self.a == 0.0:
            raise ConfigError("dirac_shift measure sequences require a > 0")


def _resolved(cfg: OperatorConfig, n: int) -> MeasureSpec:
    return resolve(cfg.measures, n, cfg.domain)


def _blend_at_level(
    cfg: OperatorConfig, mu: MeasureSpec, n: int, f, base: np.ndarray, level: int, cuts=None
) -> np.ndarray:
    """integral of f(p + (a/(n+a)) s) dmu(s) for each row p of ``base``.

    ``cuts`` (see :func:`_row_cuts`) switches to the product rule cut at
    each row's kinks, applied axis by axis and reduced row by row.
    """
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
    block = max(1, _BLOCK_POINTS // q)
    bounds = [(i, min(i + block, m)) for i in range(0, m, block)]
    if cuts is None:
        # axis-major points: f gets a (G, d) batch with contiguous columns
        cn = (c * nodes).T
        buf = np.empty(d * q * min(block, m))
    for i, stop in bounds:
        pb = base[i:stop]
        if cuts is None:
            pts = buf[: d * q * (stop - i)].reshape(d, stop - i, q)
            for j in range(d):
                np.add(pb[:, j, None], cn[j], out=pts[j])
            vals = values(f, pts.reshape(d, -1).T).reshape(stop - i, q)
            out[i:stop] = (vals * weights).sum(axis=1)
        else:
            rows = [None if cut is None else cut[1][i:stop] for cut in cuts]
            out[i:stop] = _cut_block(f, pb, c, nodes, weights, rows)
    return out


def _cut_block(f, pb: np.ndarray, c: float, nodes, weights, rows) -> np.ndarray:
    """The block ``pb``'s integrals under per-axis rules ``nodes[i]``,
    ``weights[i]``: shared ``(q,)``, or ``(cuts, q)`` with ``rows[i]``
    picking each block row's cut.  The points are broadcast from the axis
    rules into axis-major storage, and each row reduces its own values
    axis by axis."""
    b, d = pb.shape
    qs = tuple(w.shape[-1] for w in weights)
    pts = np.empty((d, b) + qs)
    row_weights = []
    for i in range(d):
        x, w = nodes[i], weights[i]
        if rows[i] is not None:
            x, w = x[rows[i]], w[rows[i]]
        shape = [b if x.ndim == 2 else 1] + [1] * d
        shape[1 + i] = qs[i]
        pts[i] = pb[:, i].reshape((b,) + (1,) * d) + c * x.reshape(shape)
        row_weights.append(w)
    vals = values(f, pts.reshape(d, -1).T).reshape((b,) + qs)
    for i in reversed(range(d)):
        w = row_weights[i]
        if w.ndim == 2:
            w = w.reshape((b,) + (1,) * i + (qs[i],))
        vals = (vals * w).sum(axis=-1)
    return vals


def _ladder(at_level, fits=lambda level: True) -> np.ndarray:
    """Values of ``at_level`` from ``BASE_LEVEL`` on, doubling the level
    until two successive values agree within ``_LADDER_TOL`` (capped at
    ``_MAX_LEVEL``, and only to levels for which ``fits`` holds); the
    outcome goes to every open :func:`ladder_record`."""
    level = BASE_LEVEL
    vals = at_level(level)
    residual, outcome = None, "unconverged_at_cap"
    while level < _MAX_LEVEL:
        nxt = min(2 * level, _MAX_LEVEL)
        if not fits(nxt):
            outcome = "stopped_by_node_budget"
            break
        nxt_vals = at_level(nxt)
        residual = float(np.max(np.abs(nxt_vals - vals)))
        vals, level = nxt_vals, nxt
        if residual <= _LADDER_TOL:
            outcome = None
            break
    for record in _RECORDS:
        record["ladders"] += 1
        if outcome:
            record[outcome] += 1
        record["max_level"] = max(record["max_level"], level)
        if residual is not None:
            record["max_residual"] = max(record["max_residual"] or 0.0, residual)
    return vals


def _row_cuts(cfg: OperatorConfig, mu: MeasureSpec, n: int, f, base: np.ndarray):
    """Where the inner integrals of the rows ``p`` of ``base`` are cut.

    For an f whose ``meta.breakpoints`` declares a kink at ``b_i`` across
    axis i, the integrand f(p + c s) has it at ``s_i = (b_i - p_i)/c``,
    c = a/(n+a).  Per axis: None, or the distinct cut coordinates and
    each row's index into them (a lattice has at most n+1 per axis).  An
    axis is not cut when f declares no kink across it, or when no row's
    kink falls inside a knot interval of mu's rule.  None when no axis is
    cut, and on the simplex.
    """
    marks = getattr(getattr(f, "meta", None), "breakpoints", None)
    if marks is None or len(marks) != cfg.domain.dim or cfg.domain.kind == SIMPLEX:
        return None
    c = cfg.a / (n + cfg.a)
    cuts = []
    for i, b in enumerate(marks):
        if b is not None:
            with np.errstate(divide="ignore", invalid="ignore"):
                # every cut outside [0, 1] leaves a rule uncut alike
                t = np.clip((b - base[:, i]) / c, -1.0, 2.0)
            t, rows = np.unique(t, return_inverse=True)
            if splits(mu.exponent, t).any():
                cuts.append((t, rows))
                continue
        cuts.append(None)
    return None if all(cut is None for cut in cuts) else cuts


def _blend_integrals(cfg: OperatorConfig, n: int, f, base: np.ndarray) -> np.ndarray:
    """Adaptive version of :func:`_blend_at_level`.

    Exact measures (:func:`is_discrete`) are applied once; the
    quadrature-backed ones climb the :func:`_ladder`, bounded by the rule
    node budget, with their rules cut at the kinks f declares.
    """
    if cfg.a == 0.0:
        return values(f, base)
    mu = _resolved(cfg, n)
    if is_discrete(mu):
        return _blend_at_level(cfg, mu, n, f, base, BASE_LEVEL)
    cuts = _row_cuts(cfg, mu, n, f, base)
    return _ladder(
        lambda level: _blend_at_level(cfg, mu, n, f, base, level, cuts),
        lambda level: rule_node_count(mu, cfg.domain, level) <= MAX_RULE_NODES,
    )


@lru_cache(maxsize=512)
def _inner_values(cfg: OperatorConfig, n: int, f) -> np.ndarray:
    """J_{n,h} for all lattice h (x-independent, cached per (cfg, n, f))."""
    base = lattice(cfg.domain, n) / (n + cfg.a)
    return _blend_integrals(cfg, n, f, base)


def eval_In(cfg: OperatorConfig, n: int, f, x):
    """I_n(f) at a point or batch: the measure-blended pullback of f."""
    check_n(n)
    xs, single = admit(cfg.domain, x)
    out = _blend_integrals(cfg, n, f, xs * (n / (n + cfg.a)))
    return float(out[0]) if single else out


def eval_Cn(cfg: OperatorConfig, n: int, f, x):
    """C_n(f) at a point, a batch or a :class:`ProductGrid`, via cached
    inner integrals, which are computed once ``x`` is admitted."""
    check_n(n)
    admit_points(cfg.domain, x)
    return apply_lattice_values(cfg.domain, n, _inner_values(cfg, n, f), x)


def eval_Cn_cells(cfg: OperatorConfig, n: int, f, x):
    """C_n(f) via basis-weighted cell averages.

    Each lattice index h owns the cell with corner h/(n+a) and edge
    scale a/(n+a) (an axis box on the hypercube, a shrunken copy of the
    reference simplex on the simplex); requires a > 0 and Lebesgue
    measures, where C_n(f) = sum_h basis(h, x) * avg_{cell(h)} f.  The
    cell averages are the inner integrals J_{n,h} of :func:`eval_Cn`, so
    this validates the configuration and shares its cache.
    """
    check_n(n)
    if cfg.a <= 0.0 or not all_lebesgue(cfg.measures):
        raise ConfigError("cell form needs a > 0 and constant Lebesgue measures")
    return eval_Cn(cfg, n, f, x)


def measure_moments(cfg: OperatorConfig, n: int) -> tuple[np.ndarray, np.ndarray]:
    """First and second coordinate moments of mu_n, shape ``(d,)`` each."""
    mu = _resolved(cfg, n)
    d = cfg.domain.dim
    m1 = np.array([integrate_measure(mu, cfg.domain, lambda p, i=i: p[:, i]) for i in range(d)])
    m2 = np.array(
        [integrate_measure(mu, cfg.domain, lambda p, i=i: p[:, i] ** 2) for i in range(d)]
    )
    return m1, m2


def _check_forms(domain: Domain, *forms: AffineForm) -> None:
    for h in forms:
        if h.dim != domain.dim:
            raise ConfigError(f"affine form of dimension {h.dim} on the "
                              f"{domain.dim}-d {domain.kind}")


def cn_affine_moment(cfg: OperatorConfig, n: int, h: AffineForm, x):
    """Closed form C_n(h) = (a/(n+a)) mean_mu(h) + (n/(n+a)) h."""
    check_n(n)
    _check_forms(cfg.domain, h)
    xs, single = admit(cfg.domain, x)
    if cfg.a == 0.0:
        mean = 0.0
    else:
        mean = integrate_measure(_resolved(cfg, n), cfg.domain, h)
    out = (cfg.a / (n + cfg.a)) * mean + (n / (n + cfg.a)) * h(xs)
    return float(out[0]) if single else out


def cn_quadratic_moment(cfg: OperatorConfig, n: int, i: int, x):
    """Closed form C_n(pr_i^2) (0-based coordinate i).

    Combines the second-moment identity with B_n(pr_i^2) =
    (1/n) pr_i + ((n-1)/n) pr_i^2, which holds for all three canonical
    vertex selections.
    """
    check_n(n)
    if not 0 <= i < cfg.domain.dim:
        raise ConfigError(f"coordinate index {i} out of range")
    xs, single = admit(cfg.domain, x)
    xi = xs[:, i]
    a = cfg.a
    denom = (n + a) ** 2
    if a == 0.0:
        out = xi / n + (n - 1) / n * xi**2
    else:
        m1, m2 = measure_moments(cfg, n)
        out = (
            a**2 * m2[i] / denom
            + 2 * n * a * m1[i] / denom * xi
            + n / denom * xi
            + n * (n - 1) / denom * xi**2
        )
    return float(out[0]) if single else out


def cn_bilinear_moment(cfg: OperatorConfig, n: int, h: AffineForm, k: AffineForm, x):
    """Closed form for C_n(h k) with affine h, k."""
    check_n(n)
    _check_forms(cfg.domain, h, k)
    xs, single = admit(cfg.domain, x)
    a = cfg.a
    denom = (n + a) ** 2

    def hk(pts):
        return h(pts) * k(pts)

    bn_hk = markov_values(cfg.domain, hk, xs) / n + (n - 1) / n * h(xs) * k(xs)
    if a == 0.0:
        out = n**2 / denom * bn_hk
    else:
        mu = _resolved(cfg, n)
        mean_hk = integrate_measure(mu, cfg.domain, hk)
        mean_h = integrate_measure(mu, cfg.domain, h)
        mean_k = integrate_measure(mu, cfg.domain, k)
        out = (
            a**2 / denom * mean_hk
            + n * a / denom * (mean_h * k(xs) + mean_k * h(xs))
            + n**2 / denom * bn_hk
        )
    return float(out[0]) if single else out
