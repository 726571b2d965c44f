"""The Markov operator T of the paper, which is the canonical
vertex-supported operator of the domain: T1 on the interval, Sd on the
hypercube and Td on the simplex.  Each fixes affine functions."""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .geometry import INTERVAL, SIMPLEX, Domain, _batch, contains, values
from .measures import DiscreteMeasure


def selection_weights(domain: Domain, xs: np.ndarray) -> np.ndarray:
    """Vertex weights for a batch of points, shape ``(G, V)``.

    Vertex order matches ``Domain.vertices()``.
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    if domain.kind == INTERVAL:
        x = xs[:, 0]
        return np.stack([1.0 - x, x], axis=1)
    if domain.kind == SIMPLEX:
        return np.concatenate([(1.0 - xs.sum(axis=1))[:, None], xs], axis=1)
    # Sd: running product over coordinates, most significant axis first
    # to match the lexicographic vertex order.
    w = np.ones((xs.shape[0], 1))
    for i in range(domain.dim - 1, -1, -1):
        x = xs[:, i : i + 1]
        w = np.concatenate([w * (1.0 - x), w * x], axis=1)
    return w


def selection(domain: Domain, x) -> DiscreteMeasure:
    """The probability measure mu-tilde_x placed on the vertices."""
    if not contains(domain, x):
        raise ConfigError(f"point {x} lies outside the {domain.kind}")
    weights = selection_weights(domain, x)[0]
    if domain.kind == SIMPLEX:
        # a point admitted just beyond the face keeps a remainder of 0
        weights[0] = max(weights[0], 0.0)
    return DiscreteMeasure(domain.vertices(), weights)


def markov_values(domain: Domain, f, xs) -> np.ndarray:
    """T(f) at a point or a batch of points.  Only the shape of ``xs`` is
    checked: T also runs on integrand points a rounding error outside."""
    xs, single = _batch(domain, xs)
    out = (selection_weights(domain, xs) * values(f, domain.vertices())).sum(axis=1)
    return out[0] if single else out
