"""Probability measures on a domain and per-n measure sequences.

A measure is a base, normalized Lebesgue (mass 1, i.e. ``d! * lambda_d``
on the simplex) or discrete, to an "averaging power" ``exponent``: the
law of the mean of ``exponent`` i.i.d. draws from the base, so exponent
1 is the base itself.  Powers are kept lazy (base + exponent) and only
turned into finite node/weight rules inside integrals.  On the interval
and the hypercube each coordinate of the mean of ``k`` uniform draws has
the cardinal B-spline density of order ``k`` on the knots ``j/k`` (Curry
& Schoenberg 1966), so that power of Lebesgue is a product of 1-D rules.
Those 1-D rules can be cut at a given coordinate, so that an integrand
with a kink there is integrated exactly by Gauss on each side.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConfigError, check_n
from .geometry import (BOUNDARY_TOL, SIMPLEX, Domain, ProductGrid, contains, gauss01,
                       quadrature_rule)

LEBESGUE = "lebesgue"
DISCRETE = "discrete"

# Node budget for a single materialized measure rule.
MAX_RULE_NODES = 4_000_000
# The Gauss level every quadrature ladder starts at.
BASE_LEVEL = 8


@dataclass(frozen=True, eq=False)
class DiscreteMeasure:
    """Finitely supported probability measure; :class:`ConfigError`
    unless the atoms are a ``(k, d)`` and the weights a ``(k,)`` array of
    finite numbers and the weights are non-negative and sum to 1."""

    atoms: np.ndarray  # (k, d)
    weights: np.ndarray  # (k,)

    def __post_init__(self):
        try:
            atoms = np.atleast_2d(np.asarray(self.atoms, dtype=float))
            weights = np.atleast_1d(np.asarray(self.weights, dtype=float))
        except (TypeError, ValueError, OverflowError):
            raise ConfigError("discrete measure atoms and weights must be numbers") from None
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", weights)
        if atoms.ndim != 2 or weights.ndim != 1:
            raise ConfigError("discrete measure atoms must be a list of points and weights "
                              f"a list of numbers, got shapes {atoms.shape} and {weights.shape}")
        if atoms.shape[0] != weights.shape[0]:
            raise ConfigError("atoms/weights length mismatch")
        if not (np.all(np.isfinite(atoms)) and np.all(np.isfinite(weights))):
            raise ConfigError("discrete measure atoms and weights must be finite")
        if np.any(weights < 0.0):
            raise ConfigError("discrete measure weights must be >= 0")
        total = math.fsum(weights.tolist())
        # twice the boundary tolerance: the vertex weights of a simplex
        # point admitted just beyond the face sum to 1 + BOUNDARY_TOL
        if not abs(total - 1.0) <= 2 * BOUNDARY_TOL:
            raise ConfigError(
                f"discrete measure weights sum to {total!r}, not 1 (not renormalizing)"
            )


def discrete_measure(atoms, weights, domain: Optional[Domain] = None) -> DiscreteMeasure:
    mu = DiscreteMeasure(atoms, weights)
    if domain is not None:
        for atom in mu.atoms:
            if not contains(domain, atom):
                raise ConfigError(f"atom {atom} lies outside the domain")
    return mu


def dirac(point, domain: Optional[Domain] = None) -> DiscreteMeasure:
    point = np.atleast_1d(np.asarray(point, dtype=float))
    return discrete_measure(point[None, :], [1.0], domain)


@dataclass(frozen=True)
class MeasureSpec:
    """A single measure: a ``lebesgue`` or ``discrete`` base to the
    averaging power ``exponent`` (1: the base itself)."""

    kind: str
    discrete: Optional[DiscreteMeasure] = None
    exponent: int = 1

    def __post_init__(self):
        if self.kind not in (LEBESGUE, DISCRETE):
            raise ConfigError(f"unknown measure kind {self.kind!r}")
        if self.kind == DISCRETE and self.discrete is None:
            raise ConfigError("discrete measure spec needs a DiscreteMeasure")
        if not isinstance(self.exponent, int) or self.exponent < 1:
            raise ConfigError("power measure exponent must be an integer >= 1")


def lebesgue_measure() -> MeasureSpec:
    return MeasureSpec(LEBESGUE)


def discrete_spec(mu: DiscreteMeasure) -> MeasureSpec:
    return MeasureSpec(DISCRETE, discrete=mu)


def power_measure(base: MeasureSpec, exponent: int) -> MeasureSpec:
    """``base`` to the averaging power ``exponent``; ``base`` must be
    a plain (exponent 1) measure."""
    if base.exponent != 1:
        raise ConfigError("nested power measures are not supported")
    return replace(base, exponent=exponent)


CONSTANT = "constant"
DIRAC_SHIFT = "dirac_shift"
EXPLICIT_LIST = "explicit_list"


@dataclass(frozen=True, eq=False)
class MeasureSeqSpec:
    """The sequence (mu_n) feeding the operator family: one ``measure``
    for every n, a ``dirac_shift`` or an ``explicit_list``.

    ``dirac_shift`` carries a rule ``n -> point`` giving the atom of
    mu_n (for a shift sequence (b_n) and parameter a, the atom is
    b_n / a).
    """

    kind: str
    point_rule: Optional[Callable[[int], np.ndarray]] = None
    measure: Optional[MeasureSpec] = None
    measures: tuple = field(default_factory=tuple)

    def __post_init__(self):
        if self.kind not in (CONSTANT, DIRAC_SHIFT, EXPLICIT_LIST):
            raise ConfigError(f"unknown measure sequence kind {self.kind!r}")
        if self.kind == CONSTANT and self.measure is None:
            raise ConfigError("a constant sequence needs its measure")
        if self.kind == DIRAC_SHIFT and self.point_rule is None:
            raise ConfigError("dirac_shift needs a point rule n -> point")
        if self.kind == EXPLICIT_LIST and not self.measures:
            raise ConfigError("explicit_list needs at least one measure")


def constant_lebesgue() -> MeasureSeqSpec:
    return MeasureSeqSpec(CONSTANT, measure=lebesgue_measure())


def dirac_shift(rule) -> MeasureSeqSpec:
    """``rule`` is either a fixed point or a callable ``n -> point``."""
    if callable(rule):
        return MeasureSeqSpec(DIRAC_SHIFT, point_rule=rule)
    point = np.atleast_1d(np.asarray(rule, dtype=float))
    return MeasureSeqSpec(DIRAC_SHIFT, point_rule=lambda n: point)


def power_of_base(base: MeasureSpec, exponent: int) -> MeasureSeqSpec:
    return MeasureSeqSpec(CONSTANT, measure=power_measure(base, exponent))


def explicit_list(measures: Sequence[MeasureSpec]) -> MeasureSeqSpec:
    return MeasureSeqSpec(EXPLICIT_LIST, measures=tuple(measures))


def all_lebesgue(seq: MeasureSeqSpec) -> bool:
    """True when every mu_n is the Lebesgue measure (exponent 1)."""
    return seq.kind == CONSTANT and seq.measure == lebesgue_measure()


def resolve(seq: MeasureSeqSpec, n: int, domain: Optional[Domain] = None) -> MeasureSpec:
    """Measure mu_n of the sequence (list indexing starts at n = 1)."""
    check_n(n)
    if seq.kind == CONSTANT:
        return seq.measure
    if seq.kind == DIRAC_SHIFT:
        point = np.atleast_1d(np.asarray(seq.point_rule(n), dtype=float))
        if domain is not None and not contains(domain, point):
            raise ConfigError(f"dirac_shift point {point} outside the domain at n={n}")
        return discrete_spec(DiscreteMeasure(point[None, :], np.array([1.0])))
    if n > len(seq.measures):
        raise ConfigError(
            f"explicit measure list has {len(seq.measures)} entries; n={n} out of range"
        )
    return seq.measures[n - 1]


def _cardinal(k: int, u: np.ndarray) -> np.ndarray:
    """``M_k(u + j)`` for j = 0..k-1, shape ``(k,) + u.shape``: the order-k
    cardinal B-spline on [0, k] at local coordinates ``u`` in [0, 1] of
    its knot intervals.  Cox-de Boor: a sum of non-negative terms at
    every order."""
    vals = np.ones((1,) + u.shape)
    for r in range(2, k + 1):
        s = u + np.arange(r).reshape((r,) + (1,) * u.ndim)
        nxt = np.zeros((r,) + u.shape)
        nxt[:-1] += s[:-1] * vals
        nxt[1:] += (r - s[1:]) * vals
        vals = nxt / (r - 1)
    return vals


# A cut this close to a knot of the order-k rule (in units of 1/k) is
# taken to be on it: the uncut rule's error is then of the order of the
# distance squared, and a split would only leave a sliver of rounding.
_KNOT_TOL = 1e-12


def splits(k: int, cut) -> np.ndarray:
    """Mask of the cut coordinates that fall inside a knot interval
    ``(j/k, (j+1)/k)`` of the order-k rule, so that a cut rule splits it."""
    s = np.asarray(cut, dtype=float) * k
    frac = s - np.floor(s)
    return (s > 0.0) & (s < k) & (frac > _KNOT_TOL) & (frac < 1.0 - _KNOT_TOL)


def _bspline_rule(k: int, level: int, cut=None) -> tuple[np.ndarray, np.ndarray]:
    """1-D rule for the mean of ``k`` uniform draws on [0, 1].

    Gauss-Legendre with ``level`` nodes on each knot interval
    ``[j/k, (j+1)/k]``, weighted by the cardinal B-spline density there,
    so every weight is positive.  Returns nodes and weights of shape
    ``(k * level,)``.

    With ``cut``, a 1-D array of cut coordinates, there is one rule per
    cut, shape ``(len(cut), k * level)``: the knot interval that holds the
    cut is split there, with ``ceil(level/2)`` nodes left of it and
    ``floor(level/2)`` right of it, so that Gauss is exact on each side.
    A cut outside (0, 1) or on a knot, and any cut of a rule with one
    node per interval, leaves the rule uncut.
    """
    x, w = gauss01(level)
    nodes = (np.arange(k)[:, None] + x) / k
    weights = w * _cardinal(k, x)
    if cut is None:
        return nodes.reshape(-1), weights.reshape(-1)
    cut = np.asarray(cut, dtype=float)
    nodes = np.broadcast_to(nodes, (cut.size, k, level)).copy()
    weights = np.broadcast_to(weights, (cut.size, k, level)).copy()
    rows = np.nonzero(splits(k, cut))[0]
    if level > 1 and rows.size:
        s = cut[rows] * k
        j = np.floor(s).astype(int)
        tau = (s - j)[:, None]
        xl, wl = gauss01(level - level // 2)
        xr, wr = gauss01(level // 2)
        u = np.concatenate([tau * xl, tau + (1.0 - tau) * xr], axis=1)
        uw = np.concatenate([tau * wl, (1.0 - tau) * wr], axis=1)
        nodes[rows, j] = (j[:, None] + u) / k
        weights[rows, j] = uw * _cardinal(k, u)[j, np.arange(rows.size)]
    return nodes.reshape(cut.size, -1), weights.reshape(cut.size, -1)


def is_discrete(mu: MeasureSpec) -> bool:
    """True for a discrete measure or a power of one: its rule is its own
    finite support, with no quadrature error at any level."""
    return mu.kind == DISCRETE


def exact_degree(mu: MeasureSpec, domain: Domain, level: int, cut: bool) -> float:
    """A total degree up to which the rule ``measure_nodes(mu, domain,
    level)`` integrates every polynomial exactly (``cut``: the rule cut at
    a kink on some axis); ``math.inf`` when it integrates everything.

    - A discrete base to the power ``k``: the rule is the law itself (the
      means of the k-fold combinations of the atoms, with multinomial
      weights), exact at every degree.
    - Lebesgue to the power ``k`` on the interval and the hypercube, per
      axis Gauss with L nodes on each knot interval ``[j/k, (j+1)/k]``,
      weighted by the density M_k, a polynomial of degree ``k - 1`` there.
      Gauss with L nodes is exact to degree ``2L - 1``, so a coordinate
      power of degree p is exact when ``p + k - 1 <= 2L - 1``.  The
      product rule takes each monomial axis by axis, and its total degree
      bounds every per-axis degree: ``2L - k`` (Gauss, ``2L - 1``, at
      ``k = 1``).
    - Cut: the knot interval that holds the cut is split, with
      ``ceil(L/2)`` Gauss nodes on one side and ``floor(L/2)`` on the
      other, each weighted by the same density, so the smaller half
      gives ``2 floor(L/2) - k``.
    - Piecewise: each Gauss sub-rule above (one per knot interval, two
      on a cut one) is exact to that degree on its own interval.  So a
      product rule whose every kink of the integrand lies at a cut, on a
      knot or outside [0, 1] per axis integrates a polynomial of total
      degree p on each box between the kinks exactly when p is at most
      the degree above (cut when some axis is cut).  A kink within
      ``_KNOT_TOL/k`` of a knot counts as on it: the sliver between
      them holds no node, and the integral over it is below 1e-23 for
      ``abs_dist`` (``kantorovich._exact_level`` bounds it).
    - Lebesgue on K_d: L + 1 Gauss nodes per axis of the cube, mapped by
      ``x_1 = u_1``, ``x_j = u_j prod_{i<j} (1 - u_i)`` with Jacobian
      ``prod_{j<d} (1 - u_j)^(d-j)``.  A monomial of total degree p
      becomes a polynomial of degree at most ``p + d - 1`` in ``u_1`` and
      less in the others, exact when ``p + d - 1 <= 2L + 1``: ``p <= 2L +
      2 - d``, at least ``2L - 1`` for every ``d <= 3`` (Stroud,
      *Approximate Calculation of Multiple Integrals*, 1971).
    - Its power ``k``: ``f`` at the mean of k draws has degree at most p
      in each draw, and the k-fold tensor integrates draw by draw, each
      exactly: ``2L - 1`` for every k.
    """
    if is_discrete(mu):
        return math.inf
    if domain.kind == SIMPLEX:
        return 2 * level - 1
    if cut:
        level //= 2
    return 2 * level - mu.exponent


def rule_node_count(mu: MeasureSpec, domain: Domain, level: int) -> int:
    """Number of nodes ``measure_nodes`` would materialize."""
    if is_discrete(mu):
        k = mu.discrete.atoms.shape[0]
        return math.comb(k + mu.exponent - 1, mu.exponent)
    if domain.kind == SIMPLEX:
        return (level + 1) ** (domain.dim * mu.exponent)
    return (mu.exponent * level) ** domain.dim


def check_rule_budget(mu: MeasureSpec, domain: Domain, level: int) -> None:
    """Refuse a Lebesgue rule above ``MAX_RULE_NODES`` nodes."""
    if not is_discrete(mu):
        count = rule_node_count(mu, domain, level)
        if count > MAX_RULE_NODES:
            raise ConfigError(
                f"power measure with exponent {mu.exponent} on the {domain.dim}-d "
                f"{domain.kind} needs {count} rule nodes at level {level} "
                f"(limit {MAX_RULE_NODES})"
            )


def measure_nodes(
    mu: MeasureSpec, domain: Domain, level: int, cuts=None
) -> tuple[np.ndarray, np.ndarray]:
    """Finite rule (nodes, weights) integrating against ``mu``.

    A discrete base to the power ``k`` is exact (:func:`is_discrete`):
    the means of the ``k``-fold combinations of its atoms.  Lebesgue to
    the power ``k`` gets ``(k * level)^d`` nodes on the interval and the
    hypercube (a product of B-spline rules, Gauss-Legendre at ``k = 1``)
    and the ``k``-fold tensor of :func:`quadrature_rule` on the simplex.

    ``cuts`` (Lebesgue on the interval or the hypercube) holds per axis
    ``None`` or a 1-D array of cut coordinates.  The product rule then
    comes axis by axis: ``nodes[i]`` and ``weights[i]`` are axis i's rule
    from :func:`_bspline_rule`, shared ``(q,)`` or one per cut
    ``(len(cuts[i]), q)``, with ``q = exponent * level``.
    """
    k = mu.exponent
    if cuts is not None and (domain.kind == SIMPLEX or is_discrete(mu)):
        raise ConfigError("cut rules need Lebesgue or its power on the interval or cube")
    if is_discrete(mu):
        atoms, bw = mu.discrete.atoms, mu.discrete.weights
        nodes, weights = [], []
        for combo in itertools.combinations_with_replacement(range(atoms.shape[0]), k):
            coef = math.factorial(k)
            w = 1.0
            for idx, c in Counter(combo).items():
                coef //= math.factorial(c)
                w *= bw[idx] ** c
            nodes.append(atoms[list(combo)].mean(axis=0))
            weights.append(coef * w)
        return np.array(nodes), np.array(weights)

    check_rule_budget(mu, domain, level)
    if cuts is not None:
        nodes, weights = zip(*(_bspline_rule(k, level, cut) for cut in cuts))
        return nodes, weights
    if domain.kind != SIMPLEX:
        grid = ProductGrid(domain, *_bspline_rule(k, level))
        return grid.points, grid.weights
    rule = quadrature_rule(domain, level)
    # mass 1: d! times the simplex's Lebesgue measure
    points, mass = rule.points, rule.weights * math.factorial(domain.dim)
    # the k-fold tensor in C order, each node the mean of its k draws
    nodes, weights = points, mass
    for _ in range(k - 1):
        nodes = (nodes[:, None] + points).reshape(-1, domain.dim)
        weights = (weights[:, None] * mass).reshape(-1)
    return nodes / k, weights


def mean_and_covariance(mu: MeasureSpec, domain: Domain) -> tuple[np.ndarray, np.ndarray]:
    """The mean ``(d,)`` and covariance ``(d, d)`` of ``mu``, in closed
    form; no rule is built.

    - Lebesgue on the interval and Q_d: independent uniform coordinates,
      mean 1/2 and covariance I/12.
    - Lebesgue on K_d (Dirichlet(1, ..., 1)): mean 1/(d+1) and covariance
      ``((d+1) delta_ij - 1) / ((d+1)^2 (d+2))``.
    - Discrete: the weighted mean and covariance of the atoms.
    - The averaging power ``k`` of a base: the mean of ``k`` i.i.d. draws
      has the base's mean and its covariance divided by ``k``.
    """
    d = domain.dim
    if is_discrete(mu):
        w, atoms = mu.discrete.weights, mu.discrete.atoms
        mean = (w[:, None] * atoms).sum(axis=0)
        dev = atoms - mean
        cov = (w[:, None, None] * dev[:, :, None] * dev[:, None, :]).sum(axis=0)
    elif domain.kind == SIMPLEX:
        mean = np.full(d, 1.0 / (d + 1))
        cov = ((d + 1) * np.eye(d) - 1.0) / ((d + 1) ** 2 * (d + 2))
    else:
        mean, cov = np.full(d, 0.5), np.eye(d) / 12.0
    return mean, cov / mu.exponent

