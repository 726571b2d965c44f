"""Canonical vertex-supported Markov operators T1 (interval), Sd
(hypercube) and Td (simplex), all of which fix affine functions."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import HYPERCUBE, INTERVAL, SIMPLEX, Domain, as_point, as_points, contains
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
    p = as_point(op.domain, x)
    if not contains(op.domain, p):
        raise ValueError(f"point {p} outside the domain")
    weights = selection_weights(op, p[None, :])[0]
    # Tiny negative rounding noise (e.g. simplex boundary sums) is clipped.
    weights = np.where(np.abs(weights) < 1e-15, np.maximum(weights, 0.0), weights)
    return DiscreteMeasure(op.domain.vertices(), weights)


def markov_values(op: MarkovOpId, f, xs) -> np.ndarray:
    """T(f) at a batch of points, shape ``(G,)``."""
    xs, single = as_points(op.domain, xs)
    fv = np.asarray(f(op.domain.vertices()), dtype=float)
    out = selection_weights(op, xs) @ fv
    return out[0] if single else out
