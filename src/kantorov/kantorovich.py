"""The blended positive operators C_n and their auxiliary I_n.

C_n(f)(x) = sum_h basis(n, h, x) * J_{n,h} with inner integrals
J_{n,h} = integral of f((h + a*s)/(n+a)) against mu_n(s).  Equivalently
C_n = B_n composed with I_n(f)(x) = integral of f(nx/(n+a) + at/(n+a)).
The parameter a >= 0 and the measure sequence (mu_n) select the family:
a = 0 gives back B_n, a = 1 with Lebesgue measures gives the classical
cell-averaging operators.

:func:`cn_product` gives C_n of a product of two affine forms (one
form, or a coordinate square) in closed form from the first two moments
of mu_n, which :func:`~kantorov.measures.mean_and_covariance` gives
without a rule: an oracle independent of the inner-integral quadrature.
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
    exact_degree,
    is_discrete,
    mean_and_covariance,
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

    The dict counts "ladders"; "exact", those that stopped at their first
    level because its rule is exact for the integrand (every discrete
    measure's is); "certified", those that stopped at their first level
    because :func:`_gauss_bound` bounds its error by _LADDER_TOL;
    "unconverged_at_cap", those that reached _MAX_LEVEL without two
    successive levels agreeing to _LADDER_TOL; and
    "stopped_by_node_budget", those that MAX_RULE_NODES stopped before two
    levels agreed.  "max_level" is the highest level a ladder ended at,
    "max_residual" the largest difference between the last two levels a
    ladder compared (None while no ladder has compared two), and
    "max_certified_bound" the largest error bound of a certified ladder
    (None while none is).
    """
    record = {"ladders": 0, "exact": 0, "certified": 0, "unconverged_at_cap": 0,
              "stopped_by_node_budget": 0, "max_level": 0, "max_residual": None,
              "max_certified_bound": None}
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


def _ladder(at_level, fits=lambda level: True, exact=False, bound=None,
            first=BASE_LEVEL) -> np.ndarray:
    """Values of ``at_level`` from level ``first`` on: that level alone when
    its rule is ``exact`` for the integrand or ``bound`` (an upper bound
    on that level's error, or None) is at most ``_LADDER_TOL``, else
    doubling the level until two successive values agree within
    ``_LADDER_TOL`` (capped at ``_MAX_LEVEL``, and only to levels for
    which ``fits`` holds); the outcome goes to every open
    :func:`ladder_record`."""
    level = first
    vals = at_level(level)
    certified = bound is not None and bound <= _LADDER_TOL
    stop = "exact" if exact else "certified" if certified else None
    residual, outcome = None, stop or "unconverged_at_cap"
    while stop is None and level < _MAX_LEVEL:
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
        if stop == "certified":
            record["max_certified_bound"] = max(record["max_certified_bound"] or 0.0, bound)
    return vals


def _resolves_kinks(cfg: OperatorConfig, mu: MeasureSpec, f) -> bool:
    """Whether :func:`_row_cuts` resolves every kink f declares: f
    declares them per axis (``meta.breakpoints``), the domain is I or
    Q_d and mu is Lebesgue or a power of it.  Each row's kink on each
    axis then lies at a cut of its rule, on a knot of it or outside its
    cell.  Not on the simplex, whose rules are not products of axis
    rules, nor for a discrete mu, whose rule has no knots.
    """
    marks = getattr(getattr(f, "meta", None), "breakpoints", None)
    return (marks is not None and len(marks) == cfg.domain.dim
            and cfg.domain.kind != SIMPLEX and not is_discrete(mu))


def _row_cuts(cfg: OperatorConfig, mu: MeasureSpec, n: int, f, base: np.ndarray):
    """Where the inner integrals of the rows ``p`` of ``base`` are cut.

    For an f whose ``meta.breakpoints`` declares a kink at ``b_i`` across
    axis i, the integrand f(p + c s) has it at ``s_i = (b_i - p_i)/c``,
    c = a/(n+a).  Per axis: None, or the distinct cut coordinates and
    each row's index into them (a lattice has at most n+1 per axis).  An
    axis is not cut when f declares no kink across it, or when no row's
    kink falls inside a knot interval of mu's rule.  None when no axis is
    cut, or when not :func:`_resolves_kinks`.
    """
    if not _resolves_kinks(cfg, mu, f):
        return None
    marks = f.meta.breakpoints
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


def _gauss_error(nodes: int) -> float:
    """The constant of Gauss-Legendre with ``nodes`` nodes on [0, 1]: its
    error is this times ``|phi^(2 nodes)(xi)|`` (Davis & Rabinowitz,
    *Methods of Numerical Integration*, 2nd ed., 1984)."""
    return math.factorial(nodes) ** 4 / ((2 * nodes + 1) * math.factorial(2 * nodes) ** 3)


def _gauss_bound(cfg: OperatorConfig, mu: MeasureSpec, n: int, f, base: np.ndarray):
    """An upper bound on the error of the uncut ``BASE_LEVEL`` values of
    :func:`_blend_at_level` on the rows ``p`` of ``base``, from the
    ``meta.derivative_bound`` f declares; None when f declares none, for a
    discrete mu and for a power k > 1 of Lebesgue on K_d.

    Row p integrates s -> f(p + c s), c = a/(n+a), over the cell p + c K,
    K the unit cube or simplex, so f is seen on the box ``[min p, max p +
    c]``; let D_r bound the r-th derivative of f along every unit-l1
    direction there, and L = ``BASE_LEVEL``.  Gauss with N nodes on an
    interval of length h errs by ``h^(2N+1) (N!)^4 / ((2N+1) ((2N)!)^3)
    |phi^(2N)(xi)|`` (:func:`_gauss_error`).

    - Both rules are tensor rules in some coordinates u of the unit cube,
      and telescope axis by axis:
      ``Q_1...Q_d - I_1...I_d = sum_i Q_1...Q_{i-1} (Q_i - I_i) I_{i+1}...I_d``.
      The other axes' weights are positive and sum to 1, so the error is
      at most the sum of the d per-axis errors, each with the other
      coordinates fixed.
    - On I and Q_d, per axis, mu = Lebesgue^k has the density ``k M_k(k
      t)``, M_k the cardinal B-spline, and its rule
      (``measures._bspline_rule``) takes Gauss with L nodes on each of the
      k knot intervals of width 1/k.  In the local coordinate u in [0, 1]
      of interval j that integrates ``phi(u) = g((j + u)/k) M_k(j + u)``,
      where ``g(t) = f(.. + c t e_i)`` has ``|g^(r)| <= c^r D_r``.  M_k is
      a polynomial of degree k - 1 on each knot interval, so Leibniz gives
      ``|phi^(2L)| <= sum_{j<k} C(2L, j) (c/k)^(2L-j) D_{2L-j}
      |M_k^(j)|``, and ``M_k^(j) = sum_i (-1)^i C(j, i) M_{k-j}(. - i)``
      with ``0 <= M_{k-j} <= 1`` gives ``|M_k^(j)| <= 2^j``.  The k knot
      intervals add up.
    - On K_d, mu = d! lambda and the collapsed rule
      (``geometry.quadrature_rule``) takes N = L + 1 Gauss nodes per axis
      for ``phi(u) = f(p + c x(u)) J(u)``, ``x_j = u_j prod_{l<j} (1 -
      u_l)``, ``J = prod_{j<d} (1 - u_j)^(d-j)``, weighted by the mass d!.
      Along u_i, x(u) is affine: ``dx/du_i`` is ``prod_{l<i} (1 - u_l)``
      in place i, ``-x_j/(1 - u_i)`` for j > i and 0 before.  Since ``1 -
      x_1 - ... - x_i = prod_{l<=i} (1 - u_l)``, the entries after i sum
      to at least ``-prod_{l<i} (1 - u_l)``, so ``||dx/du_i||_1 <= 2`` and
      ``|d^r f(p + c x(u))/du_i^r| <= (2c)^r D_r``.  J has degree m = d -
      i in u_i, with ``|d^j J/du_i^j| <= m!/(m-j)!`` (its other factors
      are at most 1), so Leibniz gives ``|phi^(2N)| <= sum_{j<=m} C(2N, j)
      (2c)^(2N-j) D_{2N-j} m!/(m-j)!``; the axes, m = 0..d-1, add up.
    """
    derivative = getattr(getattr(f, "meta", None), "derivative_bound", None)
    simplex = cfg.domain.kind == SIMPLEX
    if derivative is None or is_discrete(mu) or (simplex and mu.exponent > 1):
        return None
    c, d = cfg.a / (n + cfg.a), cfg.domain.dim
    lo, hi = base.min(axis=0), base.max(axis=0) + c
    if simplex:
        r = 2 * (BASE_LEVEL + 1)
        leibniz = sum(math.comb(r, j) * (2 * c) ** (r - j) * derivative(lo, hi, r - j)
                      * math.perm(m, j) for m in range(d) for j in range(m + 1))
        return math.factorial(d) * _gauss_error(BASE_LEVEL + 1) * leibniz
    k, r = mu.exponent, 2 * BASE_LEVEL
    leibniz = sum(math.comb(r, j) * (c / k) ** (r - j) * derivative(lo, hi, r - j) * 2.0**j
                  for j in range(k))
    return d * k * _gauss_error(BASE_LEVEL) * leibniz


def _degree(f, resolved: bool) -> float:
    """The total degree of the polynomial f declares itself to be: 1 for
    an :class:`AffineForm`, else its ``meta.degree``; with ``resolved``
    kinks (:func:`_resolves_kinks`), its ``meta.piece_degree`` on the
    boxes between them when it declares one; ``math.inf`` when f declares
    none."""
    if isinstance(f, AffineForm):
        return 1
    meta = getattr(f, "meta", None)
    degree = getattr(meta, "degree", None)
    if resolved and getattr(meta, "piece_degree", None) is not None:
        degree = meta.piece_degree
    return math.inf if degree is None else degree


def _exact_level(f, mu: MeasureSpec, domain: Domain, cut: bool, resolved: bool):
    """The lowest level up to ``BASE_LEVEL`` whose rule
    :func:`~kantorov.measures.exact_degree` proves exact for the degree
    f declares (:func:`_degree`); ``BASE_LEVEL`` for an f that declares
    none against a discrete mu (its rule is the same at every level); None
    when no level is exact.

    With ``resolved`` kinks, f's piece degree p stands for its degree.
    Per axis, the rule is Gauss (weighted by mu's density) on each knot
    interval, and on each side of a cut.  Every kink of a row lies at a
    cut, on a knot or outside the cell, so each of these sub-rules sees
    one polynomial piece of f, and the product of the sub-rules over a
    box between kinks integrates its piece exactly when ``p <=
    exact_degree``.  A kink that :func:`~kantorov.measures.splits` leaves
    uncut lies within ``delta = _KNOT_TOL/k`` of a knot (k = mu's
    exponent).  The sub-rule there is exact for the piece P that covers
    most of its interval, and no node lies in the sliver between the
    kink and the knot (the nearest of ``BASE_LEVEL`` or fewer Gauss nodes
    on an interval of width 1/k is 0.0198/k from its end), so the rule
    misses only the integral of f - P over the sliver.  For a continuous,
    piecewise affine f with axis Lipschitz constant Lambda, ``|f(p + c
    s) - P| <= 2 Lambda c delta`` there and the density is at most k, so
    the miss is at most ``2 Lambda c k delta^2 <= 2e-24 Lambda/k``.  The
    other axes' weights are positive and sum to 1, so the misses of the
    d axes add up: for ``abs_dist`` (Lambda = 1, d <= 3) at most 6e-24,
    far below ``_LADDER_TOL``.
    """
    degree = _degree(f, resolved)
    levels = range(1, BASE_LEVEL + 1) if degree < math.inf else (BASE_LEVEL,)
    return next((level for level in levels if degree <= exact_degree(mu, domain, level, cut)),
                None)


def _blend_integrals(cfg: OperatorConfig, n: int, f, base: np.ndarray) -> np.ndarray:
    """Adaptive version of :func:`_blend_at_level`: the :func:`_ladder`,
    bounded by the rule node budget, with mu's rules cut at the kinks f
    declares.  It runs one level alone when that rule is exact for f (the
    lowest such level, :func:`_exact_level`; for a piecewise polynomial
    once its kinks are resolved), or when :func:`_gauss_bound` bounds the
    uncut ``BASE_LEVEL`` rule's error by ``_LADDER_TOL``.
    """
    if cfg.a == 0.0:
        return values(f, base)
    mu = _resolved(cfg, n)
    cuts = _row_cuts(cfg, mu, n, f, base)
    exact = _exact_level(f, mu, cfg.domain, cuts is not None, _resolves_kinks(cfg, mu, f))
    return _ladder(
        lambda level: _blend_at_level(cfg, mu, n, f, base, level, cuts),
        lambda level: rule_node_count(mu, cfg.domain, level) <= MAX_RULE_NODES,
        exact is not None,
        None if cuts is not None else _gauss_bound(cfg, mu, n, f, base),
        exact or BASE_LEVEL,
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


def cn_product(cfg: OperatorConfig, n: int, h: AffineForm, x, k: AffineForm | None = None):
    """C_n(h k) in closed form, for affine h and k (k = 1 when omitted),
    at a point or a batch.

    C_n(f)(x) is the mean of f(y), y = (H + a S)/(n+a), with H the sum of
    n independent draws from T's vertex measure at x (mean n x,
    covariance n sigma(x)) and S ~ mu_n independent of H (mean m_1,
    covariance Sigma_mu, :func:`~kantorov.measures.mean_and_covariance`).
    So y has mean ybar = (n x + a m_1)/(n+a) and covariance
    (n sigma(x) + a^2 Sigma_mu)/(n+a)^2, and since grad h . sigma(x)
    grad k = (T(hk) - hk)(x),

        C_n(hk)(x) = h(ybar) k(ybar)
                     + [n (T(hk) - hk)(x) + a^2 grad h . Sigma_mu grad k] / (n+a)^2.

    h(ybar) k(ybar) is expanded about x, so that the O(1/n) change from
    hk(x) is computed without cancellation.  At a = 0, mu_n is not
    resolved.
    """
    check_n(n)
    # T fixes affine functions: with k = 1 the gap T(hk) - hk is 0
    affine = k is None
    if affine:
        k = AffineForm(1.0, (0.0,) * cfg.domain.dim)
    for form in (h, k):
        if form.dim != cfg.domain.dim:
            raise ConfigError(f"affine form of dimension {form.dim} on the "
                              f"{cfg.domain.dim}-d {cfg.domain.kind}")
    xs, single = admit(cfg.domain, x)
    a = cfg.a
    hx, kx = h(xs), k(xs)
    gap = 0.0 if affine else markov_values(cfg.domain, lambda pts: h(pts) * k(pts), xs) - hx * kx
    dh = dk = spread = 0.0
    if a > 0.0:
        m1, cov = mean_and_covariance(_resolved(cfg, n), cfg.domain)
        shift = a * (m1 - xs) / (n + a)  # ybar - x
        dh, dk = (shift * h.gradient).sum(axis=1), (shift * k.gradient).sum(axis=1)
        spread = a**2 * float((np.multiply.outer(h.gradient, k.gradient) * cov).sum())
    out = hx * kx + (hx * dk + kx * dh + dh * dk + (n * gap + spread) / (n + a) ** 2)
    return float(out[0]) if single else out
