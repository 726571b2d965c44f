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

Every scan reads ``f`` as one ``(m+1,)*d`` tensor of its (finite) grid
values, NaN outside K_d (:func:`_scan_grid`), and reduces with ``fmax``
and ``fmin``, which skip the NaN.  A pair is the rows ``i`` and ``i + k``
for an offset ``k`` whose first non-zero entry is positive.

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
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, check_p
from .geometry import SIMPLEX, Domain, trapezoid_weights, uniform_grid, uniform_product_grid, values

# Elements of each temporary a pair scan computes on.
_BUDGET = 1 << 14
# delta * m is rounded in floats (0.29 * 100 is 28.999999999999996); a
# relative slack far below one grid step keeps the offsets that lie at
# exactly distance delta.
_RADIUS_SLACK = 1.0 + 1e-12


def _tensor(rows: np.ndarray, domain: Domain, n: int) -> np.ndarray:
    """``rows`` on ``uniform_grid(domain, n)`` (trailing axes kept) as an
    ``(n+1,)*d`` tensor in index order, NaN outside the simplex."""
    shape = (n + 1,) * domain.dim
    if domain.kind != SIMPLEX:
        return rows.reshape(shape + rows.shape[1:])
    t = np.full(shape + rows.shape[1:], np.nan)
    t[np.indices(shape).sum(axis=0) <= n] = rows
    return t


def _scan_grid(f, domain: Domain, m: int, scale: int = 1):
    """``(t, pts)``: ``f`` (a callable, or its values) on ``pts =
    uniform_grid(domain, scale * m)``, as the tensor of :func:`_tensor`.
    Every grid scan starts here; ``ConfigError`` unless ``m >= 2``."""
    if m < 2:
        raise ConfigError("resolution m must be >= 2")
    pts = uniform_grid(domain, scale * m)
    return _tensor(values(f if callable(f) else lambda _: f, pts), domain, scale * m), pts


def _half_offsets(d: int, m: int) -> np.ndarray:
    """The offsets ``k`` of the ``(m+1)^d`` grid whose first non-zero
    entry is positive, as a ``(K, d)`` array in lexicographic order."""
    ks = np.indices((2 * m + 1,) * d).reshape(d, -1).T - m
    return ks[ks[np.arange(len(ks)), np.argmax(ks != 0, axis=1)] > 0]


def _shells(d: int, m: int, radii: np.ndarray):
    """``(ks, order, ends)``: the half offsets within the largest of
    ``radii`` (grid steps), in lexicographic order; ``ks[order]`` sorted
    stably by ``|k|²``, whose first ``ends[r]`` have ``|k|² <= radii[r]²``
    (up to ``_RADIUS_SLACK``)."""
    ks = _half_offsets(d, m)
    k2 = (ks**2).sum(axis=1)
    order = np.argsort(k2, kind="stable")
    ends = np.searchsorted(k2[order], radii * radii * _RADIUS_SLACK, side="right")
    keep = np.sort(order[:ends.max()])
    return ks[keep], np.searchsorted(keep, order[:ends.max()]), ends


def _radius_max(ext: np.ndarray, order: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """The largest of ``ext`` (per offset of :func:`_shells`) within each radius, or 0."""
    return np.fmax.accumulate(np.concatenate([[0.0], ext[order]]))[ends]


def _boxes(k, m: int):
    """The boxes of rows ``i`` and ``i + k`` of an ``(m+1,)*d`` tensor on
    which both lie on the grid; a short ``k`` leaves the last axes whole."""
    return (tuple(slice(max(-c, 0), m + 1 - max(c, 0)) for c in k),
            tuple(slice(max(c, 0), m + 1 - max(-c, 0)) for c in k))


def _pair_views(t: np.ndarray, k, midpoints: bool) -> list:
    """Views of rows ``i`` and ``i + k``, and with ``midpoints`` of ``2i +
    k``: ``t`` is then the 2m grid's tensor, its even coset the m grid and
    its coset of parity ``k mod 2`` on each axis the midpoints."""
    m = (t.shape[0] - 1) // (1 + midpoints)
    mid = [t[tuple(slice(abs(c), 2 * m + 1 - abs(c), 2) for c in k)]] if midpoints else []
    return [t[(slice(None, None, 1 + midpoints),) * t.ndim][box] for box in _boxes(k, m)] + mid


def _slices(a: np.ndarray, width: int) -> list:
    """Slices of ``a``'s first axis (none if 1-D) of at most ``_BUDGET / width`` elements."""
    step = max(1, _BUDGET // (math.prod(a.shape[1:]) * width))
    return [()] if a.ndim == 1 else [slice(s, s + step) for s in range(0, len(a), step)]


def _run(op, t: np.ndarray, lead, l0: int, l1: int, midpoints: bool) -> np.ndarray:
    """:func:`_extrema` of the offsets ``lead + (l,)``, ``l0 <= l <= l1``:
    each partner slab, padded with NaN, is read as a sliding window whose
    column ``l`` holds row ``i``'s partner ``i + l`` (``2i + l`` for the
    midpoints), in groups of at most ``_BUDGET`` elements (or one row)."""
    m = (t.shape[0] - 1) // (1 + midpoints)
    a, *slabs = _pair_views(t, lead, midpoints)
    count, pad = l1 - l0 + 1, (max(-l0, 0), max(l1, 0))
    out = np.full(count, np.nan)
    for part in _slices(a, 4):
        views = [a[part][..., None]]
        for stride, slab in enumerate(slabs, 1):
            slab = slab[part]
            padded = np.full(slab.shape[:-1] + (slab.shape[-1] + sum(pad),), np.nan)
            padded[..., pad[0]:pad[0] + slab.shape[-1]] = slab
            windows = sliding_window_view(padded, count, axis=-1)
            views.append(windows[..., pad[0] + l0::stride, :][..., :m + 1, :])
        width = max(1, min(count, _BUDGET // views[0].size))
        for lo in range(0, count, width):
            hi = min(lo + width, count)
            # the rows i that have a partner i + l on the grid for some l here
            rows = slice(max(0, -(l0 + hi - 1)), m + 1 - max(0, l0 + lo))
            vals = op(views[0][..., rows, :], *(v[..., rows, lo:hi] for v in views[1:]))
            out[lo:hi] = np.fmax(out[lo:hi], np.fmax.reduce(vals.reshape(-1, hi - lo), axis=0))
    return out


def _extrema(op, t: np.ndarray, ks: np.ndarray, midpoints: bool = False) -> np.ndarray:
    """The largest elementwise ``op(a, b)`` (``op(a, b, mid)``) over the
    pairs of each offset in ``ks`` (sorted half offsets), NaN for none.
    Offsets that share all but a consecutive last entry go to :func:`_run`
    together; any other is read as one box of each operand, in slices."""
    cut = np.any(ks[1:, :-1] != ks[:-1, :-1], axis=1) | (np.diff(ks[:, -1]) != 1)
    bounds = [0, *(np.flatnonzero(cut) + 1).tolist(), len(ks)] if len(ks) else [0]
    out = [np.full(0, np.nan)]
    for start, stop in zip(bounds, bounds[1:]):
        k = ks[start].tolist()
        if stop - start > 1:
            out.append(_run(op, t, k[:-1], k[-1], int(ks[stop - 1, -1]), midpoints))
            continue
        views = _pair_views(t, k, midpoints)
        out.append(np.fmax.reduce([np.fmax.reduce(op(*(v[part] for v in views)), axis=None)
                                   for part in _slices(views[0], 1)], keepdims=True))
    return np.concatenate(out)


def _deltas(delta):
    """``delta`` (a float or a 1-D array) as a 1-D array of positive
    deltas (a NaN is not), and the map that shapes a result like it."""
    deltas = np.asarray(delta, dtype=float)
    if deltas.ndim > 1 or not np.all(deltas > 0.0):
        raise ConfigError("delta must be positive (a float or a 1-D array)")
    return deltas.reshape(-1), (lambda out: out) if deltas.ndim else (lambda out: float(out[0]))


def omega1(f, domain: Domain, delta, m: int):
    """First modulus: sup |f(x)-f(y)| over grid pairs with dist <= delta."""
    deltas, like = _deltas(delta)
    t, _ = _scan_grid(f, domain, m)
    ks, order, ends = _shells(domain.dim, m, deltas * m)
    return like(_radius_max(_extrema(lambda a, b: np.abs(a - b), t, ks), order, ends))


def omega2(f, domain: Domain, delta, m: int):
    """Second modulus: sup |f(x) - 2f((x+y)/2) + f(y)|, dist(x,y) <= 2*delta."""
    deltas, like = _deltas(delta)
    t2, _ = _scan_grid(f, domain, m, 2)
    ks, order, ends = _shells(domain.dim, m, 2.0 * deltas * m)
    ext = _extrema(lambda a, b, mid: np.abs(a + b - 2.0 * mid), t2, ks, midpoints=True)
    return like(_radius_max(ext, order, ends))


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
    check_p(p)
    check_tau_deltas(deltas, m)
    t, pts = _scan_grid(f, domain, m)
    # the product trapezoid rule on I and Q_d, equal weights on K_d
    w = (uniform_product_grid(domain, m).weights if domain.kind != SIMPLEX
         else domain.volume / len(pts))
    inside = ~np.isnan(t)
    hi, lo = t.copy(), t.copy()
    ks, order, ends = _shells(domain.dim, m, deltas * m / 2.0)
    norms, done = {}, 0
    for end in np.unique(ends).tolist():
        for k in ks[order[done:end]].tolist():
            a, b = _boxes(k, m)
            np.fmax(hi[a], t[b], out=hi[a])
            np.fmax(hi[b], t[a], out=hi[b])
            np.fmin(lo[a], t[b], out=lo[a])
            np.fmin(lo[b], t[a], out=lo[b])
        norms[end], done = float(((hi[inside] - lo[inside]) ** p * w).sum() ** (1.0 / p)), end
    return like(np.array([norms[end] for end in ends.tolist()]))


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
    check_p(p)
    t, pts = _scan_grid(f, domain, m)
    weight = domain.volume / len(pts) if domain.kind == SIMPLEX else None

    def norm(j):
        # grid steps the box of rows i spans on each axis
        steps = [m - k * abs(c) for c in j]
        if min(steps) < 0:
            return 0.0
        lo = [max(-k * c, 0) for c in j]
        terms = [t[tuple(slice(a + l * c, a + l * c + s + 1) for a, c, s in zip(lo, j, steps))]
                 for l in range(k + 1)]
        acc = coeffs[0] * terms[0]
        for c, term in zip(coeffs[1:], terms[1:]):
            acc += c * term
        if weight is None:
            weights = reduce(np.multiply.outer, [trapezoid_weights(s, m) for s in steps])
        else:
            # a row inside the simplex whose last point is inside has every point inside
            acc = acc[~(np.isnan(terms[0]) | np.isnan(terms[-1]))]
            weights = np.full(acc.size, weight)
        return float((np.abs(acc) ** p * weights).ravel().sum() ** (1.0 / p))

    ks, order, ends = _shells(domain.dim, m, deltas * m)
    return like(_radius_max(np.array([norm(j) for j in ks.tolist()]), order, ends))


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
    t, pts = _scan_grid(f, domain, m)
    x = _tensor(pts, domain, m)
    best = 0.0
    # the unit offsets, in lexicographic order
    for k in np.eye(domain.dim, dtype=int)[::-1].tolist():
        a, b = _boxes(k, m)
        dist = sum(np.abs(x[a][..., axis] - x[b][..., axis]) for axis in range(domain.dim))
        best = max(best, float(np.fmax.reduce(np.abs(t[a] - t[b]) / dist, axis=None)))
    return best
