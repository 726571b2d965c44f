"""Named test functions with shape/smoothness metadata.

Each entry evaluates on ``(G, d)`` point batches and carries the facts
the verification layers rely on: convexity flags, the Lipschitz constant
for |x-y|_1 on its domain, and an exact first modulus of continuity
where one is available in closed form.

Coordinate indices in ``params`` are 1-based (as they appear in run
configs); internal evaluation converts to 0-based axes.  A bad name or
parameter list raises :class:`ConfigError`.

On the interval and the hypercube a function may declare ``breakpoints``:
per axis, the one coordinate where it has a kink across that axis (or
``None``).  The inner integrals cut their rules there.  A polynomial may
declare its total ``degree``; the inner integrals then stop at the first
rule exact for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError
from .geometry import HYPERCUBE, SIMPLEX, Domain, contains
from .kantorovich import AffineForm


@dataclass(frozen=True, eq=False)
class FunctionMeta:
    convex: Optional[bool] = None
    coordinate_convex: Optional[bool] = None
    axially_convex: Optional[bool] = None
    lipschitz_l1: Optional[float] = None
    exact_omega: Optional[Callable[[float], float]] = None
    breakpoints: Optional[tuple] = None
    degree: Optional[int] = None


@dataclass(frozen=True, eq=False)
class CatalogFunction:
    name: str
    params: tuple
    domain: Domain
    eval: Callable[[np.ndarray], np.ndarray]
    meta: FunctionMeta

    def __call__(self, pts) -> np.ndarray:
        return self.eval(np.atleast_2d(np.asarray(pts, dtype=float)))

    def __repr__(self) -> str:
        return f"CatalogFunction({self.name}, params={self.params}, {self.domain.kind} d={self.domain.dim})"


def _axis(domain: Domain, i: float) -> int:
    ax = int(i)
    if ax != i or not 1 <= ax <= domain.dim:
        raise ConfigError(f"coordinate index {i!r} invalid for dim {domain.dim}")
    return ax - 1


def _axis_kinks(domain: Domain, kinks) -> Optional[tuple]:
    """``breakpoints`` for axis kinks at ``kinks`` (one entry per axis);
    none on the simplex, where cells are not axis boxes."""
    return None if domain.kind == SIMPLEX else tuple(kinks)


def _sum_max(domain: Domain) -> float:
    return float(domain.dim) if domain.kind == HYPERCUBE else 1.0


def _constant(domain: Domain, params) -> CatalogFunction:
    (c,) = params
    meta = FunctionMeta(
        convex=True,
        coordinate_convex=True,
        axially_convex=True,
        lipschitz_l1=0.0,
        exact_omega=lambda delta: 0.0,
        degree=0,
    )
    return CatalogFunction("constant", tuple(params), domain, lambda p: np.full(p.shape[0], float(c)), meta)


def _affine(domain: Domain, params) -> CatalogFunction:
    form = AffineForm(params[0], tuple(params[1:]))
    g = np.asarray(form.gradient)
    exact = None
    if domain.dim == 1:
        exact = lambda delta: abs(g[0]) * min(delta, 1.0)
    meta = FunctionMeta(
        convex=True,
        coordinate_convex=True,
        axially_convex=True,
        lipschitz_l1=float(np.max(np.abs(g))) if g.size else 0.0,
        exact_omega=exact,
        degree=1,
    )
    return CatalogFunction("affine", tuple(params), domain, form, meta)


def _monomial(domain: Domain, params) -> CatalogFunction:
    i, k = params
    ax = _axis(domain, i)
    kk = int(k)
    if kk != k or kk < 1:
        raise ConfigError("monomial exponent must be an integer >= 1")
    exact = None
    if domain.dim == 1:
        # sup of (x+t)^k - x^k sits at x = 1-t
        exact = lambda delta: 1.0 - (1.0 - min(delta, 1.0)) ** kk
    meta = FunctionMeta(
        convex=True,
        coordinate_convex=True,
        axially_convex=True,
        lipschitz_l1=float(kk),
        exact_omega=exact,
        degree=kk,
    )
    return CatalogFunction("monomial", tuple(params), domain, lambda p: p[:, ax] ** kk, meta)


def _product12(domain: Domain, params) -> CatalogFunction:
    if domain.dim < 2:
        raise ConfigError("product12 needs dim >= 2")
    meta = FunctionMeta(
        convex=False,
        coordinate_convex=True,
        axially_convex=False,
        lipschitz_l1=1.0,
    )
    return CatalogFunction("product12", (), domain, lambda p: p[:, 0] * p[:, 1], meta)


def _abs_dist(domain: Domain, params) -> CatalogFunction:
    c = np.asarray(params, dtype=float)
    if not contains(domain, c):
        raise ConfigError(f"abs_dist center {c} outside the domain")
    exact = None
    if domain.dim == 1:
        reach = max(c[0], 1.0 - c[0])
        exact = lambda delta: min(delta, reach)
    meta = FunctionMeta(
        convex=True,
        coordinate_convex=True,
        axially_convex=True,
        lipschitz_l1=1.0,
        exact_omega=exact,
        breakpoints=_axis_kinks(domain, c.tolist()),
    )
    return CatalogFunction(
        "abs_dist", tuple(params), domain, lambda p: np.abs(p - c).sum(axis=1), meta
    )


def _abs_dist_coord(domain: Domain, params) -> CatalogFunction:
    i, c = params
    ax = _axis(domain, i)
    c = float(c)
    if not 0.0 <= c <= 1.0:
        raise ConfigError("abs_dist_coord center must lie in [0, 1]")
    reach = max(c, 1.0 - c)
    meta = FunctionMeta(
        convex=True,
        coordinate_convex=True,
        axially_convex=True,
        lipschitz_l1=1.0,
        exact_omega=lambda delta: min(delta, reach),
        breakpoints=_axis_kinks(domain, [c if i == ax else None for i in range(domain.dim)]),
    )
    return CatalogFunction(
        "abs_dist_coord", tuple(params), domain, lambda p: np.abs(p[:, ax] - c), meta
    )


def _abs_diff12(domain: Domain, params) -> CatalogFunction:
    if domain.dim < 2:
        raise ConfigError("abs_diff12 needs dim >= 2")
    meta = FunctionMeta(
        convex=True,
        coordinate_convex=True,
        axially_convex=True,
        lipschitz_l1=1.0,
    )
    return CatalogFunction(
        "abs_diff12", (), domain, lambda p: np.abs(p[:, 0] - p[:, 1]), meta
    )


def _exp_sum(domain: Domain, params) -> CatalogFunction:
    smax = _sum_max(domain)
    top = math.exp(smax)
    exact = None
    if domain.dim == 1:
        exact = lambda delta: math.e * (1.0 - math.exp(-min(delta, 1.0)))
    meta = FunctionMeta(
        convex=True,
        coordinate_convex=True,
        axially_convex=True,
        lipschitz_l1=top,
        exact_omega=exact,
    )
    return CatalogFunction("exp_sum", (), domain, lambda p: np.exp(p.sum(axis=1)), meta)


_RUNGE_LIP = 15.0 * math.sqrt(3.0) / 8.0


def _runge(domain: Domain, params) -> CatalogFunction:
    meta = FunctionMeta(
        convex=False,
        coordinate_convex=False,
        axially_convex=False,
        lipschitz_l1=_RUNGE_LIP,
    )
    return CatalogFunction(
        "runge", (), domain, lambda p: 1.0 / (1.0 + 25.0 * (p**2).sum(axis=1)), meta
    )


# name -> (builder, its parameter count on a domain of dimension d)
_BUILDERS = {
    "constant": (_constant, lambda d: 1),
    "affine": (_affine, lambda d: d + 1),
    "monomial": (_monomial, lambda d: 2),
    "product12": (_product12, lambda d: 0),
    "abs_dist": (_abs_dist, lambda d: d),
    "abs_dist_coord": (_abs_dist_coord, lambda d: 2),
    "abs_diff12": (_abs_diff12, lambda d: 0),
    "exp_sum": (_exp_sum, lambda d: 0),
    "runge": (_runge, lambda d: 0),
}


def catalog_names() -> list[str]:
    return sorted(_BUILDERS)


def lookup(name: str, params, domain: Domain) -> CatalogFunction:
    """Build the named catalog function for the domain."""
    if name not in _BUILDERS:
        raise ConfigError(f"unknown catalog function {name!r}; know {catalog_names()}")
    build, arity = _BUILDERS[name]
    try:
        params = tuple(float(p) for p in params)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{name} parameters must be numbers, got {params!r}") from None
    if not all(math.isfinite(p) for p in params):
        raise ConfigError(f"{name} parameters must be finite, got {params!r}")
    if len(params) != arity(domain.dim):
        raise ConfigError(f"{name} takes {arity(domain.dim)} parameter(s) on dim {domain.dim}, "
                          f"got {len(params)}")
    return build(domain, params)
