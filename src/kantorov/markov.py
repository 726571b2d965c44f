"""Canonical vertex-supported Markov operators T1 (interval), Sd
(hypercube) and Td (simplex), all of which fix affine functions."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .geometry import HYPERCUBE, INTERVAL, SIMPLEX, Domain, _batch, contains, values
from .measures import DiscreteMeasure

T1 = "T1"
SD = "Sd"
TD = "Td"

_KIND_TO_DOMAIN = {T1: INTERVAL, SD: HYPERCUBE, TD: SIMPLEX}
_DOMAIN_TO_KIND = {INTERVAL: T1, HYPERCUBE: SD, SIMPLEX: TD}


@dataclass(frozen=True)
class MarkovOpId:
    kind: str
    domain: Domain

    def __post_init__(self):
        if self.kind not in _KIND_TO_DOMAIN:
            raise ValueError(f"unknown Markov operator {self.kind!r}")
        if _KIND_TO_DOMAIN[self.kind] != self.domain.kind:
            raise ValueError(
                f"operator {self.kind} does not act on a {self.domain.kind} domain"
            )


def canonical_markov(domain: Domain) -> MarkovOpId:
    """The canonical operator for the domain kind."""
    return MarkovOpId(_DOMAIN_TO_KIND[domain.kind], domain)


def selection_weights(op: MarkovOpId, xs: np.ndarray) -> np.ndarray:
    """Vertex weights for a batch of points, shape ``(G, V)``.

    Vertex order matches ``Domain.vertices()``.
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    d = op.domain.dim
    if op.kind == T1:
        x = xs[:, 0]
        return np.stack([1.0 - x, x], axis=1)
    if op.kind == TD:
        return np.concatenate([(1.0 - xs.sum(axis=1))[:, None], xs], axis=1)
    # Sd: running product over coordinates, most significant axis first
    # to match the lexicographic vertex order.
    w = np.ones((xs.shape[0], 1))
    for i in range(d - 1, -1, -1):
        x = xs[:, i : i + 1]
        w = np.concatenate([w * (1.0 - x), w * x], axis=1)
    return w


def selection(op: MarkovOpId, x) -> DiscreteMeasure:
    """The probability measure mu-tilde_x placed on the vertices."""
    if not contains(op.domain, x):
        raise ConfigError(f"point {x} lies outside the {op.domain.kind}")
    weights = selection_weights(op, x)[0]
    if op.kind == TD:
        # a point admitted just beyond the face keeps a remainder of 0
        weights[0] = max(weights[0], 0.0)
    return DiscreteMeasure(op.domain.vertices(), weights)


def markov_values(op: MarkovOpId, f, xs) -> np.ndarray:
    """T(f) at a point or a batch of points.  Only the shape of ``xs`` is
    checked: T also runs on integrand points a rounding error outside."""
    xs, single = _batch(op.domain, xs)
    out = selection_weights(op, xs) @ values(f, op.domain.vertices())
    return out[0] if single else out
