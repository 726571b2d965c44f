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

# Degree elevation takes its weights from the binomials up to this order,
# where C(n, n/2) is still a float; above it, from log-form tables, one per
# block of this many output indices (see _elevation_blocks).
_ELEVATE_N = 1000
_ELEVATE_BLOCK = 64

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


def _binomials(n: int) -> list:
    """The exact integers ``C(n, k)``, k = 0..n, each from the one before."""
    out = [1]
    for k in range(n):
        out.append(out[-1] * (n - k) // (k + 1))
    return out


@lru_cache(maxsize=None)
def _binom_row(n: int) -> np.ndarray:
    return np.array(_binomials(n), dtype=float)


@lru_cache(maxsize=None)
def _log_binom_row(n: int) -> np.ndarray:
    return np.array([_log_int(c) for c in _binomials(n)])


@lru_cache(maxsize=None)
def lattice(domain: Domain, n: int) -> np.ndarray:
    """Admissible multi-indices, shape ``(L, d)``, dtype int (cached,
    read-only).

    Hypercube: ``{0..n}^d`` in lexicographic order.  Simplex: ``|h| <= n``
    in colexicographic order.
    """
    idx = np.indices((n + 1,) * domain.dim).reshape(domain.dim, -1)
    out = idx.T
    if domain.kind == SIMPLEX:
        out = idx[::-1].T[idx.sum(axis=0) <= n]
    out.flags.writeable = False
    return out


def _pow_table(t: np.ndarray, n: int) -> np.ndarray:
    """``t^k`` for k = 0..n via a cumulative product, shape ``(G, n+1)``."""
    out = np.ones((t.shape[0], n + 1))
    if n >= 1:
        np.cumprod(np.broadcast_to(t[:, None], (t.shape[0], n)), axis=1, out=out[:, 1:])
    return out


def _rows(t, n: int):
    """The Bernstein rows ``m -> b^m(t)``, shape ``(G, m+1)``, for ``m <= n``.

    Orders up to ``_DIRECT_N`` are sliced from one pair of power tables,
    built when the first such order is asked for: a ``cumprod`` prefix is
    exact, so each slice is bitwise the table of its own order.  Higher
    orders take the logs of the exact binomials.
    """
    t = np.asarray(t, dtype=float)
    powers = []

    def row(m: int) -> np.ndarray:
        if m <= _DIRECT_N:
            if not powers:
                top = min(n, _DIRECT_N)
                powers.extend((_pow_table(t, top), _pow_table(1.0 - t, top)))
            tk, sk = powers
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


def _elevation_blocks(n: int):
    """``(ks, win, alpha)`` triples, the slices ``ks`` covering ``0..n``.  For
    k in ``ks`` the weights that raise a row of lead sum s from order
    ``n - s`` to n, ``C(n-s, j) C(s, k-j) / C(n, k)``, are
    ``win[s, k, n - j] * alpha[s, n - j]`` divided by their sum over j.
    Here ``win[s, k, n - j] = T[s, k - j]`` is a view of row s of a table T
    slid along k (zero where ``k - j`` leaves ``0..s``), and
    ``alpha[s, n - j] = T[n - s, j]``; j runs backwards so that every
    stride is positive.

    Any ``T[m, j] = C(m, j) x^j (1-x)^(m-j)`` gives these weights, since
    ``j + (k - j) = k`` is fixed in the sum.  Up to ``_ELEVATE_N``, T holds
    the binomials, in one block.  Above it, ``C(n, n/2)`` leaves the float
    range, and each block of ``_ELEVATE_BLOCK`` indices k takes the
    Bernstein values in log form at x = k/n for the block's centre (kept
    inside (0, 1)): there the products sum to ``b^n_k(x)``, above 1e-8,
    and none overflows.
    """
    lower = np.tri(n + 1, dtype=bool)  # row by row, as the rows concatenate
    log_form = n > _ELEVATE_N
    if log_form:
        m, j = np.nonzero(lower)
        logc = np.concatenate([_log_binom_row(r) for r in range(n + 1)])
    step = _ELEVATE_BLOCK if log_form else n + 1
    for lo in range(0, n + 1, step):
        ks = slice(lo, min(lo + step, n + 1))
        pad = np.zeros((n + 1, 2 * n + 1))
        tri = pad[:, n:]
        if log_form:
            x = min(max(lo + ks.stop - 1, 1), 2 * n - 1) / (2 * n)
            tri[lower] = np.exp(logc + j * math.log(x) + (m - j) * math.log1p(-x))
        else:
            tri[lower] = np.concatenate([_binom_row(r) for r in range(n + 1)])
        st = pad.strides
        win = np.lib.stride_tricks.as_strided(pad, (n + 1,) * 3, (st[0], st[1], st[1]),
                                              writeable=False)
        yield ks, win[:, ks], np.ascontiguousarray(tri[::-1, ::-1])


def _elevate(domain: Domain, n: int, values: np.ndarray) -> np.ndarray:
    """The lattice values as tensor-product Bernstein coefficients of order
    n in the collapsed coordinates, shape ``(n+1,)*d``.

    On the cube (and K1) this is a reshape.  On the simplex, in the
    collapsed coordinates ``u``, the basis factors as
    ``B_h(x) = prod_i b^{n-|h_<i|}_{h_i}(u_i)`` (Ainsworth, Andriamaro &
    Davydov 2011).  From the innermost axis out, each row of lead sum
    ``s = |h_<i|`` is raised from order ``n - s`` to n by degree elevation
    (Farouki & Rajan 1988), with the convex weights of
    :func:`_elevation_blocks`: a convolution with row s of Pascal's
    triangle.  The weights do not depend on the points; the cost is
    O(n^(d+1)), and no array is larger than O(n^d).  The coefficients
    are filled with each summed index ``j`` stored at ``n - j``, to match
    :func:`_elevation_blocks`.
    """
    d = domain.dim
    if domain.kind != SIMPLEX or d == 1:
        return values.reshape((n + 1,) * d)
    h = lattice(domain, n).T
    if d == 2:
        # one row per s = h_0; a power of two brings the values into
        # [-1, 1] exactly, so that no sum of binomial products overflows
        scale = np.frexp(np.abs(values).max(initial=0.0))[1]
        c = np.zeros((n + 1, n + 1))
        c[h[0], n - h[1]] = np.ldexp(values, -scale)
        out = np.empty_like(c)
        for ks, win, alpha in _elevation_blocks(n):
            num = np.einsum("skw,sw->sk", win, alpha * c)
            out[:, ks] = num / np.einsum("skw,sw->sk", win, alpha)
        return np.ldexp(out, scale)
    # K3: the normalized weights w[s, k, n - j] as arrays, for batched products
    weights = []
    for ks, win, alpha in _elevation_blocks(n):
        w = win * alpha[:, None, :]
        w /= w.sum(axis=2, keepdims=True)
        weights.append((ks, w))
    # the last axis: rows batched by b = n - s = n - h_0 - h_1, so that
    # skew[b, n - h_1, n - h_2] holds the value at h
    skew = np.zeros((n + 1,) * 3)
    r = n - h[1]
    skew[r - h[0], r, n - h[2]] = values
    out = np.zeros((2 * n + 1, n + 1, n + 1))
    for ks, w in weights:
        np.matmul(skew, w[::-1].transpose(0, 2, 1), out=out[n:, :, ks])
    # the middle axis, s = h_0, reads c[h_0, n - h_1, k_2] = out[n + b, n - h_1, k_2]
    # through a view whose core strides are positive; b < 0 reads zeros
    st = out.strides
    c = np.lib.stride_tricks.as_strided(out[n:], (n + 1,) * 3, (-st[0], st[0] + st[1], st[2]),
                                        writeable=False)
    coeffs = np.empty((n + 1,) * 3)
    for ks, w in weights:
        np.matmul(w, c, out=coeffs[:, ks])
    return coeffs


def _apply_collapsed(n: int, coeffs: np.ndarray, u: np.ndarray, grid: bool) -> np.ndarray:
    """Axis-by-axis contraction of the ``(n+1,)*d`` coefficients of
    :func:`_elevate` with the rows ``b^n(u_i)``, innermost axis first.

    With ``grid``, ``u`` holds the q nodes all axes of a product grid
    share, and the result is in C order over the grid, at cost
    O(q n^d + q^d n).  Otherwise ``u`` holds each point's own
    coordinates, at cost O(G n^d).
    """
    d = coeffs.ndim
    # every axis of a grid shares its rows; scattered points take each axis's own
    rows = _rows(u, n)(n) if grid else _rows(u.T.reshape(-1), n)(n).reshape(d, len(u), n + 1)
    for axis in reversed(range(d)):
        row = rows if grid else rows[axis]
        flat = coeffs.reshape(math.prod(coeffs.shape[:axis]), n + 1, -1)
        if grid:
            out = row @ flat
        elif axis == d - 1:
            out = flat[:, :, 0] @ row.T
        else:
            out = np.einsum("gh,phg->pg", row, flat)
        coeffs = out.reshape(coeffs.shape[:axis] + (-1,))
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

    At a single point the sum is compensated and returned as a float.
    Otherwise the values become the ``(n+1,)*d`` coefficients of
    :func:`_elevate` once, and a :class:`ProductGrid` is contracted axis by
    axis on its shared nodes (results in the order of ``grid.points``); a
    ``(G, d)`` batch of scattered points is contracted point by point, in
    blocks of ``_CHUNK`` rows on three axes.
    """
    idx, values = lattice(domain, n), np.asarray(values, dtype=float)
    if values.shape != (len(idx),):
        raise ConfigError(f"lattice values of shape {values.shape} do not match "
                          f"the {len(idx)} multi-indices of order {n} on the {domain.kind}")
    x, single = admit_points(domain, x)
    if single:
        return math.fsum((_basis_columns(domain, n, x, idx)[0] * values).tolist())
    coeffs = _elevate(domain, n, values)
    if isinstance(x, ProductGrid):
        return _apply_collapsed(n, coeffs, x.nodes_1d, grid=True)
    # below three axes the intermediates take O(G n) memory, like the output
    step = _CHUNK if domain.dim == 3 else x.shape[0]
    out = np.empty(x.shape[0])
    for i in range(0, x.shape[0], step):
        out[i : i + step] = _apply_collapsed(n, coeffs, _collapsed(domain, x[i : i + step]),
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
