"""Bernstein-type positive operators B_n built from the canonical
vertex selections: tensor-product basis on the interval/hypercube,
multinomial basis on the simplex.

B_n(f)(x) = sum_h basis(n, h, x) * f(h/n) over the admissible lattice.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

from .errors import check_n
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
    d = domain.dim
    if domain.kind == SIMPLEX:
        rows = [
            rev[::-1]
            for rev in itertools.product(range(n + 1), repeat=d)
            if sum(rev) <= n
        ]
        return np.array(rows, dtype=int)
    idx = np.indices((n + 1,) * d).reshape(d, -1).T
    return idx


@lru_cache(maxsize=None)
def _multinomial_ints(domain: Domain, n: int) -> tuple:
    """The exact integers n! / (h_1! ... h_d! (n-|h|)!) over the simplex lattice."""
    fact = [math.factorial(i) for i in range(n + 1)]
    return tuple(fact[n] // (math.prod(fact[i] for i in h) * fact[n - sum(h)])
                 for h in lattice(domain, n).tolist())


@lru_cache(maxsize=None)
def _multinomial_coeffs(domain: Domain, n: int) -> np.ndarray:
    return np.array([float(c) for c in _multinomial_ints(domain, n)])


@lru_cache(maxsize=None)
def _log_multinomial_coeffs(domain: Domain, n: int) -> np.ndarray:
    return np.array([_log_int(c) for c in _multinomial_ints(domain, n)])


def _pow_table(t: np.ndarray, n: int) -> np.ndarray:
    """``t^k`` for k = 0..n via a cumulative product, shape ``(G, n+1)``."""
    out = np.ones((t.shape[0], n + 1))
    if n >= 1:
        np.cumprod(np.broadcast_to(t[:, None], (t.shape[0], n)), axis=1, out=out[:, 1:])
    return out


def _bern1d(n: int, t: np.ndarray) -> np.ndarray:
    """One-dimensional Bernstein basis row, shape ``(G, n+1)``."""
    t = np.asarray(t, dtype=float)
    if n <= _DIRECT_N:
        tk = _pow_table(t, n)
        sk = _pow_table(1.0 - t, n)[:, ::-1]
        return _binom_row(n) * tk * sk
    k = np.arange(n + 1)
    out = np.zeros((t.shape[0], n + 1))
    logc = _log_binom_row(n)
    interior = (t > 0.0) & (t < 1.0)
    ti = t[interior][:, None]
    out[interior] = np.exp(logc + k * np.log(ti) + (n - k) * np.log1p(-ti))
    out[t == 0.0, 0] = 1.0
    out[t == 1.0, n] = 1.0
    return out


def _simplex_basis_block(domain: Domain, n: int, xs: np.ndarray) -> np.ndarray:
    """Dense simplex basis values for a block of points, shape ``(g, L)``."""
    latt = lattice(domain, n)
    rem = n - latt.sum(axis=1)
    s = np.maximum(1.0 - xs.sum(axis=1), 0.0)
    if n <= _DIRECT_N:
        vals = np.broadcast_to(_multinomial_coeffs(domain, n), (xs.shape[0], latt.shape[0])).copy()
        for i in range(domain.dim):
            vals *= _pow_table(xs[:, i], n)[:, latt[:, i]]
        vals *= _pow_table(s, n)[:, rem]
        return vals
    logc = _log_multinomial_coeffs(domain, n)
    logs = np.where(s > 0.0, np.log(np.where(s > 0.0, s, 1.0)), 0.0)
    exps = logc + rem * logs[:, None]
    dead = (s[:, None] == 0.0) & (rem > 0)
    for i in range(domain.dim):
        xi = xs[:, i]
        logx = np.where(xi > 0.0, np.log(np.where(xi > 0.0, xi, 1.0)), 0.0)
        exps = exps + latt[:, i] * logx[:, None]
        dead |= (xi[:, None] == 0.0) & (latt[:, i] > 0)
    vals = np.exp(exps)
    vals[dead] = 0.0
    return vals


def basis_weights(domain: Domain, n: int, xs) -> np.ndarray:
    """All basis values at a point or a batch of points, shape ``(G, L)``."""
    xs, _ = admit(domain, xs)
    if domain.kind == SIMPLEX:
        return np.concatenate(
            [_simplex_basis_block(domain, n, xs[i : i + _CHUNK]) for i in range(0, xs.shape[0], _CHUNK)]
        )
    rows = _bern1d(n, xs[:, 0])
    for i in range(1, domain.dim):
        ri = _bern1d(n, xs[:, i])
        rows = (rows[:, :, None] * ri[:, None, :]).reshape(xs.shape[0], -1)
    return rows


def _apply_block(domain: Domain, n: int, values: np.ndarray, xs: np.ndarray) -> np.ndarray:
    d = domain.dim
    if domain.kind == SIMPLEX:
        return _simplex_basis_block(domain, n, xs) @ values
    tensor = values.reshape((n + 1,) * d)
    if d == 1:
        return _bern1d(n, xs[:, 0]) @ tensor
    if d == 2:
        tmp = _bern1d(n, xs[:, 0]) @ tensor
        return np.einsum("gj,gj->g", tmp, _bern1d(n, xs[:, 1]))
    tmp = np.einsum("gi,ijk->gjk", _bern1d(n, xs[:, 0]), tensor)
    tmp = np.einsum("gj,gjk->gk", _bern1d(n, xs[:, 1]), tmp)
    return np.einsum("gk,gk->g", _bern1d(n, xs[:, 2]), tmp)


def _apply_grid(domain: Domain, n: int, values: np.ndarray, grid: ProductGrid) -> np.ndarray:
    """Axis-by-axis contraction on a product grid, innermost axis first.

    On the cube every axis applies the rows ``b^n(u_i)``.  On the
    simplex, in the collapsed coordinates ``x = simplex_from_cube(u)``,
    the basis factors as ``B_h(x) = prod_i b^{n-h_1-...-h_{i-1}}_{h_i}(u_i)``
    (Ainsworth, Andriamaro & Davydov 2011), so axis i applies the row of
    order ``n - |h_<i|``.  Cost O(q n^d + q^d n) for q nodes per axis.
    """
    d, u = domain.dim, grid.nodes_1d
    if domain.kind == SIMPLEX:
        coeffs = np.zeros((n + 1,) * d)
        coeffs[tuple(lattice(domain, n).T)] = values
    else:
        coeffs = values.reshape((n + 1,) * d)
    rows = {}
    for axis in reversed(range(d)):
        lead = coeffs.shape[:axis]
        flat = coeffs.reshape(-1, n + 1, u.size ** (d - 1 - axis))
        used = sum(np.indices(lead, sparse=True)) if domain.kind == SIMPLEX else 0
        budget = np.broadcast_to(n - used, lead).reshape(-1)
        out = np.zeros((flat.shape[0], u.size, flat.shape[2]))
        # a set, not np.unique, whose first call imports numpy.ma (13 ms)
        for m in sorted(set(budget[budget >= 0].tolist())):
            if m not in rows:
                rows[m] = _bern1d(m, u)
            sel = budget == m
            out[sel] = rows[m] @ flat[sel, : m + 1]
        coeffs = out.reshape(lead + (u.size,) * (d - axis))
    return coeffs.reshape(-1)


def apply_lattice_values(domain: Domain, n: int, values: np.ndarray, xs) -> np.ndarray:
    """Contract lattice values against the basis at each point.

    ``values`` has one entry per lattice multi-index (in ``lattice``
    order); returns ``sum_h basis(h, x) * values[h]`` for each point.
    A :class:`ProductGrid` is contracted axis by axis (results in the
    order of ``grid.points``); a ``(G, d)`` batch of scattered points is
    contracted point by point, in blocks of ``_CHUNK`` rows on Q3 and
    the simplex.
    """
    if isinstance(xs, ProductGrid):
        if xs.domain != domain:
            raise ValueError("grid domain does not match")
        return _apply_grid(domain, n, values, xs)
    xs, _ = admit(domain, xs)
    # below three cube axes the rows take O(G n) memory, like the output
    step = _CHUNK if domain.kind == SIMPLEX or domain.dim == 3 else xs.shape[0]
    out = np.empty(xs.shape[0])
    for i in range(0, xs.shape[0], step):
        out[i : i + step] = _apply_block(domain, n, values, xs[i : i + step])
    return out


def _validate_index(domain: Domain, n: int, h) -> np.ndarray:
    harr = np.atleast_1d(np.asarray(h, dtype=int))
    if harr.shape != (domain.dim,):
        raise ValueError(f"multi-index {h!r} does not match domain dim {domain.dim}")
    if np.any(harr < 0) or np.any(harr > n):
        raise ValueError(f"multi-index {h!r} out of range for order {n}")
    if domain.kind == SIMPLEX and harr.sum() > n:
        raise ValueError(f"multi-index {h!r} exceeds simplex order {n}")
    return harr


def basis(domain: Domain, n: int, h, x) -> float:
    """Single basis value P_{n,h}(x)."""
    harr = _validate_index(domain, n, h)
    xs, single = admit(domain, x)
    if not single:
        raise ValueError(f"basis takes one point, got shape {xs.shape}")
    if domain.kind == SIMPLEX:
        latt = lattice(domain, n)
        pos = int(np.nonzero(np.all(latt == harr, axis=1))[0][0])
        return float(_simplex_basis_block(domain, n, xs)[0, pos])
    val = 1.0
    for i in range(domain.dim):
        val *= float(_bern1d(n, xs[0, i : i + 1])[0, harr[i]])
    return val


def lattice_points(domain: Domain, n: int) -> np.ndarray:
    """The evaluation points h/n of B_n, shape ``(L, d)``."""
    return lattice(domain, n) / n


def eval_Bn(domain: Domain, n: int, f, x):
    """B_n(f) at a point or an ``(G, d)`` batch of points.

    The scalar path uses compensated summation over the lattice.
    """
    check_n(n)
    xs, single = admit(domain, x)
    fv = values(f, lattice_points(domain, n), "lattice point")
    if single:
        w = basis_weights(domain, n, xs)[0]
        return math.fsum((w * fv).tolist())
    return apply_lattice_values(domain, n, fv, xs)
