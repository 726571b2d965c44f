"""Grid estimators for moduli of continuity and smoothness.

Each estimator scans the uniform grid ``{i/m}``.  ``omega1``, ``omega2``
and ``lipschitz_estimate`` are sups over a subset of the pairs of their
definitions: lower approximations, converging as ``m`` grows.
``omega_kp`` is a sup over a subset of the steps (``h = j/m``), each
norm integrated by the trapezoid rule (equal weights on K_d), and
``tau_p`` integrates a lower local oscillation by the same rules; these
rules err either way, so neither has a fixed direction.  Consumers that
need a safe upper bound must either inflate these values or use the
catalog's exact formulas.  Functions are anything callable on ``(G, d)``
batches, in particular :class:`~kantorov.catalog.CatalogFunction`.

The moduli take ``delta`` as a float or a 1-D array and return a float
or an array in the input order; one walk of the grid serves all deltas.
Grid points lie at least ``1/m`` apart, so ``omega1`` and ``omega_kp``
are 0 for ``delta * m < 1`` and ``omega2`` below 1/2; ``tau_p`` would be
0 below 2 and raises :class:`ConfigError` there.
"""

from __future__ import annotations

import math
from functools import reduce

import numpy as np

from .errors import ConfigError
from .geometry import (SIMPLEX, Domain, trapezoid_weights, uniform_grid, uniform_product_grid,
                       values)

# Flat row pairs per block of _pair_blocks.
_PAIRS_PER_BLOCK = 1 << 15
# delta * m is rounded in floats (0.29 * 100 is 28.999999999999996); a
# relative slack far below one grid step keeps the offsets that lie at
# exactly distance delta.
_RADIUS_SLACK = 1.0 + 1e-12


def _positions(domain: Domain, m: int) -> np.ndarray:
    """Row of each index tuple in ``uniform_grid(domain, m)``, as an
    ``(m+1,)*d`` tensor; -1 outside the simplex."""
    shape = (m + 1,) * domain.dim
    if domain.kind != SIMPLEX:
        return np.arange(np.prod(shape)).reshape(shape)
    inside = np.indices(shape).sum(axis=0) <= m
    pos = np.full(shape, -1)
    pos[inside] = np.arange(int(inside.sum()))
    return pos


def _half_offsets(d: int, m: int) -> np.ndarray:
    """The offsets ``k`` of the ``(m+1)^d`` grid whose first non-zero
    entry is positive, as a ``(K, d)`` array in lexicographic order."""
    ks = np.indices((2 * m + 1,) * d).reshape(d, -1).T - m
    return ks[ks[np.arange(len(ks)), np.argmax(ks != 0, axis=1)] > 0]


def _shells(d: int, m: int, radii: np.ndarray):
    """``(inverse, shells)``: ``shells`` yields, in increasing ``|k|²``,
    the offsets that each distinct radius (in grid steps) admits and the
    smaller ones do not; ``inverse`` maps each radius to its shell.  A
    running extremum over the shells gives every radius, from one visit
    of each pair."""
    ks = _half_offsets(d, m)
    k2 = (ks**2).sum(axis=1)
    order = np.argsort(k2, kind="stable")
    ends = np.searchsorted(k2[order], radii * radii * _RADIUS_SLACK, side="right")
    ends, inverse = np.unique(ends, return_inverse=True)
    starts = np.concatenate([[0], ends[:-1]])
    # each shell back in lexicographic order, as _pair_blocks needs
    return inverse.reshape(-1), (ks[np.sort(order[a:b])] for a, b in zip(starts, ends))


def _pair_blocks(domain: Domain, m: int, ks: np.ndarray, midpoints=False):
    """Every unordered pair of distinct ``uniform_grid(domain, m)`` rows
    whose index offset is in ``ks``, once, in blocks of about
    ``_PAIRS_PER_BLOCK`` flat row pairs.

    ``ks`` is a lexicographically ordered subset of ``_half_offsets``.
    A pair is a row ``a`` at index ``i`` and a row ``b`` at index
    ``i + k``.  Yields ``(a, b)``, or with ``midpoints`` ``(a, b, mid)``:
    the rows of ``2i``, ``2i + 2k`` and ``2i + k`` in
    ``uniform_grid(domain, 2m)``.
    """
    if not len(ks):
        return
    pos2 = _positions(domain, 2 * m) if midpoints else None
    pos = pos2[(slice(None, None, 2),) * domain.dim] if midpoints else _positions(domain, m)
    # A run of offsets that share all but the last entry, and fall in one
    # window of _PAIRS_PER_BLOCK pairs (counted on the cube), takes one
    # slicing of the leading axes.
    window = np.cumsum(np.prod(m + 1 - np.abs(ks), axis=1)) // _PAIRS_PER_BLOCK
    new = np.any(ks[1:, :-1] != ks[:-1, :-1], axis=1) | (window[1:] != window[:-1])
    parts, count = [], 0
    for run in np.split(ks, np.flatnonzero(new) + 1):
        lead, last = run[0, :-1].tolist(), run[:, -1]
        # last-axis index of the first row of each pair, and its step
        length = m + 1 - np.abs(last)
        step = np.repeat(last, length)
        first = np.arange(length.sum()) + np.repeat(
            np.maximum(-last, 0) - np.cumsum(length) + length, length
        )
        part = [
            pos[tuple(slice(max(-c, 0), m + 1 - max(c, 0)) for c in lead)]
            .reshape(-1, m + 1)[:, first],
            pos[tuple(slice(max(c, 0), m + 1 - max(-c, 0)) for c in lead)]
            .reshape(-1, m + 1)[:, first + step],
        ]
        if midpoints:
            part.append(
                pos2[tuple(slice(abs(c), 2 * m + 1 - abs(c), 2) for c in lead)]
                .reshape(-1, 2 * m + 1)[:, 2 * first + step]
            )
        part = [rows.ravel() for rows in part]
        if domain.kind == SIMPLEX:
            inside = (part[0] >= 0) & (part[1] >= 0)
            part = [rows[inside] for rows in part]
        parts.append(part)
        count += part[0].size
        if count >= _PAIRS_PER_BLOCK:
            yield tuple(np.concatenate(rows) for rows in zip(*parts))
            parts, count = [], 0
    if count:
        yield tuple(np.concatenate(rows) for rows in zip(*parts))


def _deltas(delta):
    """``delta`` (a float or a 1-D array) as a 1-D array of positive
    deltas (a NaN is not), and the map that shapes a result like it."""
    deltas = np.asarray(delta, dtype=float)
    if deltas.ndim > 1 or not np.all(deltas > 0.0):
        raise ConfigError("delta must be positive (a float or a 1-D array)")
    return deltas.reshape(-1), (lambda out: out) if deltas.ndim else (lambda out: float(out[0]))


def _shell_max(domain: Domain, m: int, radii: np.ndarray, largest):
    """Running maximum of ``largest(ks)`` over the offset shells within
    each of ``radii`` grid steps, from one walk of the shells;
    ``largest`` maps a shell's offsets to the largest value they give
    (0 for none)."""
    if m < 2:
        raise ConfigError("resolution m must be >= 2")
    inverse, shells = _shells(domain.dim, m, radii)
    best, out = 0.0, []
    for ks in shells:
        best = max(best, largest(ks))
        out.append(best)
    return np.array(out)[inverse]


def _pair_max(domain: Domain, m: int, diff, midpoints=False):
    """``largest`` for :func:`_shell_max`: the largest ``diff`` over a shell's pairs."""
    blocks = lambda ks: _pair_blocks(domain, m, ks, midpoints)
    return lambda ks: max((float(np.max(diff(*b))) for b in blocks(ks)), default=0.0)


def omega1(f, domain: Domain, delta, m: int):
    """First modulus: sup |f(x)-f(y)| over grid pairs with dist <= delta."""
    deltas, like = _deltas(delta)
    fv = values(f, uniform_grid(domain, m))
    diff = lambda a, b: np.abs(fv[a] - fv[b])
    return like(_shell_max(domain, m, deltas * m, _pair_max(domain, m, diff)))


def omega2(f, domain: Domain, delta, m: int):
    """Second modulus: sup |f(x) - 2f((x+y)/2) + f(y)|, dist(x,y) <= 2*delta."""
    deltas, like = _deltas(delta)
    fv2 = values(f, uniform_grid(domain, 2 * m))
    diff = lambda a, b, mid: np.abs(fv2[a] + fv2[b] - 2.0 * fv2[mid])
    return like(_shell_max(domain, m, 2.0 * deltas * m, _pair_max(domain, m, diff, True)))


def _grid_quad_weights(domain: Domain, m: int) -> np.ndarray:
    """L^p quadrature weights on the uniform grid (total = volume).

    Tensor trapezoid on the interval/hypercube; uniform weights on the
    simplex (a documented low-order approximation).
    """
    if domain.kind == SIMPLEX:
        count = uniform_grid(domain, m).shape[0]
        return np.full(count, domain.volume / count)
    return uniform_product_grid(domain, m).weights


def check_tau_deltas(delta, m: int) -> None:
    """``ConfigError`` unless every ball of radius delta/2 that ``tau_p``
    takes on the grid holds a neighbouring grid point: ``delta * m >= 2``,
    with the radius test of :func:`_shells`."""
    smallest = float(_deltas(delta)[0].min())
    radius = smallest * m / 2.0
    if radius * radius * _RADIUS_SLACK < 1.0:
        raise ConfigError(f"a ball of radius {smallest!r}/2 holds no neighbouring grid point; "
                          f"the smallest admissible delta is 2/m = {2.0 / m!r}")


def tau_p(f, domain: Domain, delta, p: float, m: int):
    """Averaged modulus: L^p norm of the local oscillation over
    Euclidean balls of radius delta/2 (see :func:`check_tau_deltas`)."""
    deltas, like = _deltas(delta)
    if not p >= 1.0:
        raise ConfigError("p must be >= 1")
    check_tau_deltas(deltas, m)
    fv = values(f, uniform_grid(domain, m))
    w = _grid_quad_weights(domain, m)
    lo, hi = fv.copy(), fv.copy()
    inverse, shells = _shells(domain.dim, m, deltas * m / 2.0)
    out = []
    for ks in shells:
        for a, b in _pair_blocks(domain, m, ks):
            np.maximum.at(hi, a, fv[b])
            np.maximum.at(hi, b, fv[a])
            np.minimum.at(lo, a, fv[b])
            np.minimum.at(lo, b, fv[a])
        out.append(float(((hi - lo) ** p * w).sum() ** (1.0 / p)))
    return like(np.array(out)[inverse])


def difference_coeffs(k: int) -> np.ndarray:
    """The weights ``(-1)^(k-l) C(k, l)``, l = 0..k, of the k-th forward
    difference; ``ConfigError`` unless k >= 1 and every C(k, l) fits a float."""
    if k < 1:
        raise ConfigError("difference order k must be >= 1")
    try:
        return np.array([(-1.0) ** (k - l) * math.comb(k, l) for l in range(k + 1)])
    except OverflowError:
        raise ConfigError(
            f"difference order k = {k} is too large: C({k}, {k // 2}) does not fit a float"
        ) from None


def omega_kp(f, domain: Domain, k: int, delta, p: float, m: int):
    """Order-k L^p modulus: max over the lattice steps ``h = j/m``,
    ``|h| <= delta``, of the L^p norm of the k-th forward difference over
    the grid rows ``i`` with ``i + k j`` on the grid: a box on I and Q_d,
    integrated by its own trapezoid rule, and the simplex grid's equal
    weights on K_d.  ``f`` is evaluated once, on the grid.  A step and its
    negative give the same norm, so only half the offsets are walked."""
    deltas, like = _deltas(delta)
    coeffs = difference_coeffs(k)
    if not p >= 1.0:
        raise ConfigError("p must be >= 1")
    fv = values(f, uniform_grid(domain, m))
    pos = _positions(domain, m)
    w = _grid_quad_weights(domain, m) if domain.kind == SIMPLEX else None

    def norm(j):
        # grid steps the box of rows i spans on each axis
        steps = [m - k * abs(c) for c in j]
        if min(steps) < 0:
            return 0.0
        lo = [max(-k * c, 0) for c in j]
        rows = [
            pos[tuple(slice(a + l * c, a + l * c + s + 1) for a, c, s in zip(lo, j, steps))]
            .ravel()
            for l in range(k + 1)
        ]
        if w is None:
            weights = reduce(np.multiply.outer, [trapezoid_weights(s, m) for s in steps]).ravel()
        else:
            # a row inside the simplex whose last point is inside has every point inside
            valid = (rows[0] >= 0) & (rows[-1] >= 0)
            rows = [r[valid] for r in rows]
            weights = w[rows[0]]
        acc = coeffs[0] * fv[rows[0]]
        for c, r in zip(coeffs[1:], rows[1:]):
            acc += c * fv[r]
        return float((np.abs(acc) ** p * weights).sum() ** (1.0 / p))

    largest = lambda ks: max(map(norm, ks.tolist()), default=0.0)
    return like(_shell_max(domain, m, deltas * m, largest))


def lipschitz_estimate(f, domain: Domain, m: int) -> float:
    """Largest grid secant quotient |f(x)-f(y)| / |x-y|_1 of a callable
    ``f`` or of its value array on ``uniform_grid(m)``.

    Any two grid points are joined by a monotone path of axis steps
    that stays in the domain (on the simplex, lower the falling
    coordinates first, then raise the rising ones).  The steps' l1
    lengths add up to |x-y|_1, so the pair's quotient is a weighted mean
    of its steps' quotients, and the maximum is reached on a pair one
    axis step apart: O(G·d) pairs in place of O(G²).  Distances are the
    float coordinate differences summed in axis order, so a quotient is
    the secant of the points actually evaluated.
    """
    pts = uniform_grid(domain, m)
    fv = values(f if callable(f) else lambda _: f, pts)
    best = 0.0
    # the unit offsets, in the lexicographic order _pair_blocks takes
    for a, b in _pair_blocks(domain, m, np.eye(domain.dim, dtype=int)[::-1]):
        dist = sum(np.abs(x[a] - x[b]) for x in pts.T)
        best = max(best, float(np.max(np.abs(fv[a] - fv[b]) / dist)))
    return best
