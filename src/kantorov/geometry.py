"""Domains (hypercube, simplex), grids and quadrature rules.  The
interval I is the 1-cube ``Domain.hypercube(1)``.

Points are float numpy arrays of shape ``(d,)``; batches of points have
shape ``(G, d)``.  Functions handed to the integrators must accept a
``(Q, d)`` array and return a ``(Q,)`` array.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import ConfigError, NumericError

HYPERCUBE = "hypercube"
SIMPLEX = "simplex"

_KINDS = (HYPERCUBE, SIMPLEX)

MAX_DIM = 3


@dataclass(frozen=True)
class Domain:
    """One of: unit hypercube ``[0,1]^d``, unit simplex
    ``{x >= 0, sum(x) <= 1}``."""

    kind: str
    dim: int = 1

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ConfigError(f"unknown domain kind {self.kind!r}")
        if not 1 <= self.dim <= MAX_DIM:
            raise ConfigError(f"dim must be in [1, {MAX_DIM}], got {self.dim}")

    @classmethod
    def interval(cls) -> "Domain":
        """The unit interval, which is the 1-cube."""
        return cls(HYPERCUBE, 1)

    @classmethod
    def hypercube(cls, dim: int) -> "Domain":
        return cls(HYPERCUBE, dim)

    @classmethod
    def simplex(cls, dim: int) -> "Domain":
        return cls(SIMPLEX, dim)

    @property
    def volume(self) -> float:
        """Lebesgue volume: 1, except 1/d! for the simplex."""
        if self.kind == SIMPLEX:
            return 1.0 / math.factorial(self.dim)
        return 1.0

    @property
    def diameter(self) -> float:
        """Euclidean diameter: the largest distance between two vertices."""
        verts = self.vertices()
        gaps = verts[:, None, :] - verts[None, :, :]
        return float(np.sqrt((gaps**2).sum(axis=2)).max())

    @property
    def modulus_scale(self) -> float:
        """Scale factor converting a total-modulus argument into a
        plain first-modulus argument: sqrt(d) for the hypercube, 1 for
        the simplex."""
        if self.kind == HYPERCUBE:
            return math.sqrt(self.dim)
        return 1.0

    def vertices(self) -> np.ndarray:
        """Extreme points, shape ``(V, d)``.

        Hypercube: the 2^d binary corners in lexicographic order.
        Simplex: the origin followed by the canonical unit vectors.
        """
        d = self.dim
        if self.kind == HYPERCUBE:
            verts = list(itertools.product((0.0, 1.0), repeat=d))
            return np.array(verts)
        verts = np.zeros((d + 1, d))
        for i in range(d):
            verts[i + 1, i] = 1.0
        return verts


# How far a simplex point's coordinate sum may exceed 1 and still be
# admitted: rounding noise, not a wider domain.
BOUNDARY_TOL = 1e-12


def inside(domain: Domain, pts: np.ndarray) -> np.ndarray:
    """Row mask of the ``(G, d)`` batch ``pts``: coordinates >= 0, and
    <= 1 on the interval and cube; coordinate sum <= 1 + BOUNDARY_TOL on
    the simplex.  Rows with a NaN are outside."""
    ok = (pts >= 0.0).all(axis=1)
    if domain.kind == SIMPLEX:
        return ok & (pts.sum(axis=1) <= 1.0 + BOUNDARY_TOL)
    return ok & (pts <= 1.0).all(axis=1)


def _batch(domain: Domain, x) -> tuple[np.ndarray, bool]:
    arr = np.asarray(x, dtype=float)
    single = arr.ndim <= 1
    pts = np.atleast_1d(arr)[None, :] if single else arr
    if pts.ndim != 2 or pts.shape[1] != domain.dim:
        raise ConfigError(
            f"points of shape {arr.shape} do not match domain dim {domain.dim}"
        )
    return pts, single


def contains(domain: Domain, x) -> bool:
    """Whether the point ``x`` (shape ``(d,)``) passes :func:`inside`."""
    pts, single = _batch(domain, x)
    if not single:
        raise ConfigError(f"expected one point, got shape {pts.shape}")
    return bool(inside(domain, pts)[0])


def admit(domain: Domain, x) -> tuple[np.ndarray, bool]:
    """The one admission rule for caller points.

    Coerces a point ``(d,)`` or a batch ``(G, d)`` to a ``(G, d)``
    batch and returns (batch, was_single).  Raises ``ConfigError`` on a
    shape that does not match the domain, an empty batch, a non-finite
    coordinate or a point outside the domain (by :func:`inside`).
    """
    pts, single = _batch(domain, x)
    if pts.shape[0] == 0:
        raise ConfigError("empty point batch")
    if not np.all(np.isfinite(pts)):
        raise ConfigError("points contain non-finite coordinates")
    out = ~inside(domain, pts)
    if np.any(out):
        raise ConfigError(f"point {pts[np.argmax(out)]} lies outside the {domain.kind}")
    return pts, single


def values(f, pts: np.ndarray, where: str = "point") -> np.ndarray:
    """``f`` on the ``(G, d)`` batch ``pts``, checked to be ``(G,)`` and
    finite; raises :class:`NumericError` at the first non-finite value."""
    vals = np.asarray(f(pts), dtype=float)
    if vals.shape != (pts.shape[0],):
        raise ConfigError("function must map (G, d) points to (G,) values")
    if not np.isfinite(vals).all():
        pt = pts[np.argmin(np.isfinite(vals))].copy()
        raise NumericError(f"function non-finite at {where} {pt}", point=pt)
    return vals


def uniform_grid(domain: Domain, m: int) -> np.ndarray:
    """Lattice ``{i/m}`` restricted to the domain, shape ``(G, d)``.

    Ordering is lexicographic in the index tuple.  On the simplex the
    last coordinate of boundary rows is one minus the float sum of the
    others; that fix-up is kept so that grid rows keep their bits, since
    :func:`inside` admits the rounding noise of ``i/m`` anyway.
    """
    if m < 1:
        raise ConfigError("grid resolution m must be >= 1")
    d = domain.dim
    idx = np.indices((m + 1,) * d).reshape(d, -1).T
    if domain.kind == SIMPLEX:
        sums = idx.sum(axis=1)
        idx = idx[sums <= m]
        pts = idx / m
        boundary = idx.sum(axis=1) == m
        if d > 1:
            for row in np.nonzero(boundary)[0]:
                pts[row, -1] = 1.0 - math.fsum(pts[row, :-1].tolist())
        else:
            pts[boundary, 0] = 1.0
        return pts
    return idx / m


def uniform_product_grid(domain: Domain, m: int) -> ProductGrid:
    """:func:`uniform_grid` on the interval or hypercube as a :class:`ProductGrid`
    (nodes ``i/m``, the same rows in the same order), with trapezoid weights."""
    if domain.kind == SIMPLEX:
        raise ConfigError("the simplex's uniform grid is not a product grid")
    if m < 1:
        raise ConfigError("grid resolution m must be >= 1")
    return ProductGrid(domain, np.arange(m + 1) / m, trapezoid_weights(m, m))


def trapezoid_weights(steps: int, m: int) -> np.ndarray:
    """Trapezoid weights of ``steps`` steps of length ``1/m``, on
    ``steps + 1`` nodes; a lone node (``steps = 0``) weighs 0."""
    w = np.full(steps + 1, 1.0 / m)
    w[0] = w[-1] = 0.5 / m if steps else 0.0
    return w


@lru_cache(maxsize=None)
def gauss01(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights mapped to [0, 1] (cached, read-only)."""
    x, w = leggauss(order)
    x, w = (x + 1.0) / 2.0, w / 2.0
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def _tensor(nodes_1d: np.ndarray, weights_1d: np.ndarray, d: int):
    """The ``(q^d, d)`` points and ``(q^d,)`` weights of the product of a
    ``q``-node rule with itself, in C order.  Each axis is broadcast into
    a preallocated array; the weights are multiplied in axis order."""
    q = nodes_1d.size
    nodes = np.empty((q,) * d + (d,))
    weights = np.ones((q,) * d)
    for i in range(d):
        along = (1,) * i + (q,) + (1,) * (d - 1 - i)
        nodes[..., i] = nodes_1d.reshape(along)
        weights *= weights_1d.reshape(along)
    return nodes.reshape(-1, d), weights.reshape(-1)


def simplex_from_cube(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Collapse map from the unit cube onto the simplex.

    ``x_1 = u_1``, ``x_j = u_j * prod_{i<j}(1 - u_i)``.  Returns the
    mapped points and the Jacobian ``prod_{j<d} (1-u_j)^(d-j)``.
    """
    u = np.atleast_2d(u)
    d = u.shape[1]
    x = np.empty_like(u)
    shrink = np.ones(u.shape[0])
    jac = np.ones(u.shape[0])
    for j in range(d):
        x[:, j] = u[:, j] * shrink
        if j < d - 1:
            shrink = shrink * (1.0 - u[:, j])
            jac = jac * (1.0 - u[:, j]) ** (d - 1 - j)
    return x, jac


@dataclass(frozen=True, eq=False)
class ProductGrid:
    """Tensor grid with the same 1-D nodes and weights on every axis.

    On the interval/hypercube the points are ``nodes_1d^d``; on the
    simplex they are the image of that cube grid under
    :func:`simplex_from_cube`, and the weights carry its Jacobian.
    Points are in C order over the axis indices (first axis slowest).
    ``shape``, ``ndim`` and ``len`` are those of the ``(G, d)`` point
    batch the grid stands for.
    """

    domain: Domain
    nodes_1d: np.ndarray
    weights_1d: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes_1d, dtype=float)
        weights = np.asarray(self.weights_1d, dtype=float)
        if nodes.ndim != 1 or nodes.shape != weights.shape or nodes.size == 0:
            raise ConfigError("grid needs matching non-empty 1-D nodes and weights")
        if not np.all((nodes >= 0.0) & (nodes <= 1.0)):
            raise ConfigError("grid nodes must lie in [0, 1]")
        object.__setattr__(self, "nodes_1d", nodes)
        object.__setattr__(self, "weights_1d", weights)

    ndim = 2

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nodes_1d.size ** self.domain.dim, self.domain.dim)

    def __len__(self) -> int:
        return self.shape[0]

    @cached_property
    def _rule(self) -> tuple[np.ndarray, np.ndarray]:
        nodes, weights = _tensor(self.nodes_1d, self.weights_1d, self.domain.dim)
        if self.domain.kind == SIMPLEX:
            nodes, jac = simplex_from_cube(nodes)
            weights = weights * jac
        return nodes, weights

    @property
    def points(self) -> np.ndarray:
        return self._rule[0]

    @property
    def weights(self) -> np.ndarray:
        return self._rule[1]


def quadrature_rule(domain: Domain, level: int) -> ProductGrid:
    """Rule exact for all monomials of total degree <= 2*level - 1.

    Interval/hypercube: tensor Gauss-Legendre with ``level`` nodes per
    axis.  Simplex: a collapsed (cube-to-simplex) tensor rule; the map's
    Jacobian raises per-axis degrees, so ``level + 1`` nodes per axis
    are used there to keep the same total-degree exactness.
    """
    if level < 1:
        raise ConfigError("quadrature level must be >= 1")
    return ProductGrid(domain, *gauss01(level + (domain.kind == SIMPLEX)))
