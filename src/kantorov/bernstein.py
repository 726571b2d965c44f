"""Bernstein-type positive operators B_n built from the canonical
vertex selections: tensor-product basis on the interval/hypercube,
multinomial basis on the simplex.

B_n(f)(x) = sum_h basis(n, h, x) * f(h/n) over the admissible lattice.
Both bases are evaluated as products of one-dimensional Bernstein rows.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import ConfigError, check_n
from .geometry import SIMPLEX, Domain, ProductGrid, admit, values

# Above this order, basis evaluation moves to log form: the logs of the
# exact integer coefficients, which do not overflow.
_DIRECT_N = 60

_CHUNK = 2048

# ln 2 = _LN2_HI + _LN2_LO (fdlibm); s * _LN2_HI is exact for s < 2^21.
_LN2_HI = 6.93147180369123816490e-01
_LN2_LO = 1.90821492927058770002e-10


def _log_int(c: int) -> float:
    """ln c for a positive integer c, within one ulp.

    Past the float range ``math.log`` adds ``e * ln 2`` for ``c = x 2^e``
    in floats and loses about an ulp, so there the power of two is split
    off with a two-part ln 2 and the terms are summed exactly.
    """
    if c.bit_length() <= 1023:
        return math.log(c)
    s = c.bit_length() - 64
    return math.fsum((math.log(c >> s), s * _LN2_HI, s * _LN2_LO))


@lru_cache(maxsize=None)
def _binom_row(n: int) -> np.ndarray:
    return np.array([math.comb(n, k) for k in range(n + 1)], dtype=float)


@lru_cache(maxsize=None)
def _log_binom_row(n: int) -> np.ndarray:
    return np.array([_log_int(math.comb(n, k)) for k in range(n + 1)])


@lru_cache(maxsize=None)
def lattice(domain: Domain, n: int) -> np.ndarray:
    """Admissible multi-indices, shape ``(L, d)``, dtype int.

    Hypercube/interval: ``{0..n}^d`` in lexicographic order.  Simplex:
    ``|h| <= n`` in colexicographic order.
    """
    idx = np.indices((n + 1,) * domain.dim).reshape(domain.dim, -1)
    if domain.kind == SIMPLEX:
        return idx[::-1].T[idx.sum(axis=0) <= n]
    return idx.T


def _pow_table(t: np.ndarray, n: int) -> np.ndarray:
    """``t^k`` for k = 0..n via a cumulative product, shape ``(G, n+1)``."""
    out = np.ones((t.shape[0], n + 1))
    if n >= 1:
        np.cumprod(np.broadcast_to(t[:, None], (t.shape[0], n)), axis=1, out=out[:, 1:])
    return out


def _rows(t, n: int):
    """The Bernstein rows ``m -> b^m(t)``, shape ``(G, m+1)``, for ``m <= n``.

    Orders up to ``_DIRECT_N`` are sliced from one pair of power tables:
    a ``cumprod`` prefix is exact, so each slice is bitwise the table of
    its own order.  Higher orders take the logs of the exact binomials.
    """
    t = np.asarray(t, dtype=float)
    top = min(n, _DIRECT_N)
    tk, sk = _pow_table(t, top), _pow_table(1.0 - t, top)

    def row(m: int) -> np.ndarray:
        if m <= _DIRECT_N:
            return _binom_row(m) * tk[:, : m + 1] * sk[:, m::-1]
        k = np.arange(m + 1)
        out = np.zeros((t.shape[0], m + 1))
        interior = (t > 0.0) & (t < 1.0)
        ti = t[interior][:, None]
        out[interior] = np.exp(_log_binom_row(m) + k * np.log(ti) + (m - k) * np.log1p(-ti))
        out[t == 0.0, 0] = 1.0
        out[t == 1.0, m] = 1.0
        return out

    return row


def _collapsed(domain: Domain, xs: np.ndarray) -> np.ndarray:
    """The coordinates the basis factors in: ``x`` on the cube, and on
    the simplex ``u_i = x_i / (1 - x_1 - ... - x_{i-1})``, 0 where that
    remainder is <= 0, clipped to [0, 1] so that a point admitted up to
    ``1 + BOUNDARY_TOL`` evaluates on the face."""
    if domain.kind != SIMPLEX:
        return xs
    u = np.zeros_like(xs)
    rem = np.ones(xs.shape[0])
    for i in range(domain.dim):
        live = rem > 0.0
        u[live, i] = xs[live, i] / rem[live]
        rem = rem - xs[:, i]
    return np.clip(u, 0.0, 1.0, out=u)


def _basis_columns(domain: Domain, n: int, xs: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Basis values at the points for the multi-indices ``idx``, shape
    ``(G, len(idx))``: axis i multiplies in ``b^m_{h_i}(u_i)`` with
    ``m = n - |h_<i|`` on the simplex and ``m = n`` on the cube."""
    u = _collapsed(domain, xs)
    used = 0
    out = None
    for i in range(domain.dim):
        order = n - used
        row = _rows(u[:, i], n)
        # the rows of every order in use side by side, and where each starts
        ms = np.flatnonzero(np.bincount(np.ravel(order), minlength=n + 1))
        start = np.zeros(n + 1, dtype=int)
        start[ms[1:]] = np.cumsum(ms[:-1] + 1)
        table = np.concatenate([row(m) for m in ms.tolist()], axis=1)
        factor = np.take(table, start[order] + idx[:, i], axis=1)
        out = factor if out is None else np.multiply(out, factor, out=out)
        if domain.kind == SIMPLEX:
            used = used + idx[:, i]
    return out


def basis_weights(domain: Domain, n: int, xs) -> np.ndarray:
    """All basis values at a point or a batch of points, shape ``(G, L)``."""
    xs, _ = admit(domain, xs)
    return _basis_columns(domain, n, xs, lattice(domain, n))


def _apply_collapsed(domain: Domain, n: int, values: np.ndarray, u: np.ndarray,
                     grid: bool) -> np.ndarray:
    """Axis-by-axis contraction of the lattice values, innermost axis first.

    On the cube every axis applies the rows ``b^n(u_i)``.  On the simplex,
    in the collapsed coordinates ``u``, the basis factors as
    ``B_h(x) = prod_i b^{n-h_1-...-h_{i-1}}_{h_i}(u_i)`` (Ainsworth,
    Andriamaro & Davydov 2011), so axis i applies the row of order
    ``n - |h_<i|``.  With ``grid``, ``u`` holds the q nodes all axes of a
    product grid share, and the result is in C order over the grid, at
    cost O(q n^d + q^d n).  Otherwise ``u`` holds each point's own
    coordinates, at cost O(G L).
    """
    d = domain.dim
    if domain.kind == SIMPLEX:
        coeffs = np.zeros((n + 1,) * d)
        coeffs[tuple(lattice(domain, n).T)] = values
    else:
        coeffs = values.reshape((n + 1,) * d)
    for axis in reversed(range(d)):
        row = _rows(u if grid else u[:, axis], n)
        lead = coeffs.shape[:axis]
        flat = coeffs.reshape(math.prod(lead), n + 1, -1)
        used = sum(np.indices(lead, sparse=True)) if domain.kind == SIMPLEX else 0
        budget = np.broadcast_to(n - used, lead).reshape(-1)
        out = np.zeros((flat.shape[0], len(u)) + (flat.shape[2:] if grid else ()))
        # a set, not np.unique, whose first call imports numpy.ma (13 ms)
        for m in sorted(set(budget[budget >= 0].tolist())):
            sel = budget == m
            block = flat[sel, : m + 1]
            if grid:
                out[sel] = row(m) @ block
            elif axis == d - 1:
                out[sel] = block[:, :, 0] @ row(m).T
            else:
                out[sel] = np.einsum("gh,phg->pg", row(m), block)
        coeffs = out.reshape(lead + (-1,))
    return coeffs.reshape(-1)


def admit_points(domain: Domain, x):
    """``(x, single)``: a :class:`ProductGrid` of ``domain`` as it is, else
    the batch and flag of :func:`~kantorov.geometry.admit`."""
    if isinstance(x, ProductGrid):
        if x.domain != domain:
            raise ConfigError(f"grid domain {x.domain} does not match {domain}")
        return x, False
    return admit(domain, x)


def apply_lattice_values(domain: Domain, n: int, values: np.ndarray, x):
    """Contract lattice values against the basis: ``sum_h basis(h, x) *
    values[h]``, with one value per lattice multi-index (in ``lattice``
    order).

    At a single point the sum is compensated and returned as a float.  A
    :class:`ProductGrid` is contracted axis by axis on its shared nodes
    (results in the order of ``grid.points``); a ``(G, d)`` batch of
    scattered points is contracted point by point, in blocks of
    ``_CHUNK`` rows on three axes.
    """
    idx, values = lattice(domain, n), np.asarray(values, dtype=float)
    if values.shape != (len(idx),):
        raise ConfigError(f"lattice values of shape {values.shape} do not match "
                          f"the {len(idx)} multi-indices of order {n} on the {domain.kind}")
    x, single = admit_points(domain, x)
    if isinstance(x, ProductGrid):
        return _apply_collapsed(domain, n, values, x.nodes_1d, grid=True)
    if single:
        return math.fsum((_basis_columns(domain, n, x, idx)[0] * values).tolist())
    # below three axes the intermediates take O(G n) memory, like the output
    step = _CHUNK if domain.dim == 3 else x.shape[0]
    out = np.empty(x.shape[0])
    for i in range(0, x.shape[0], step):
        out[i : i + step] = _apply_collapsed(domain, n, values, _collapsed(domain, x[i : i + step]),
                                             grid=False)
    return out


def _validate_index(domain: Domain, n: int, h) -> np.ndarray:
    harr = np.atleast_1d(np.asarray(h, dtype=int))
    if harr.shape != (domain.dim,):
        raise ConfigError(f"multi-index {h!r} does not match domain dim {domain.dim}")
    if np.any(harr < 0) or np.any(harr > n):
        raise ConfigError(f"multi-index {h!r} out of range for order {n}")
    if domain.kind == SIMPLEX and harr.sum() > n:
        raise ConfigError(f"multi-index {h!r} exceeds simplex order {n}")
    return harr


def basis(domain: Domain, n: int, h, x) -> float:
    """Single basis value P_{n,h}(x)."""
    harr = _validate_index(domain, n, h)
    xs, single = admit(domain, x)
    if not single:
        raise ConfigError(f"basis takes one point, got shape {xs.shape}")
    return float(_basis_columns(domain, n, xs, harr[None])[0, 0])


def lattice_points(domain: Domain, n: int) -> np.ndarray:
    """The evaluation points h/n of B_n, shape ``(L, d)``."""
    return lattice(domain, n) / n


def eval_Bn(domain: Domain, n: int, f, x):
    """B_n(f) at a point, an ``(G, d)`` batch or a :class:`ProductGrid`
    (see :func:`apply_lattice_values`)."""
    check_n(n)
    admit_points(domain, x)
    return apply_lattice_values(domain, n, values(f, lattice_points(domain, n), "lattice point"), x)
