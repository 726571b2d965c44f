"""Reference values for the benchmark's checks, computed without kantorov.

Nothing here imports the package.  The kink values come from exact
rational arithmetic; the smooth ones from closed forms of
``C_n(exp_sum)``; the L^2 norms from this module's own Gauss-Legendre
rules (NumPy's nodes, not the package's quadrature).

Notation: ``C_n(f)(x) = sum_h P_{n,h}(x) J_{n,h}`` with inner integrals
``J_{n,h} = E f((h + a S)/(n + a))``, ``S ~ mu_n``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

# Law of one coordinate of S on [0, 1] for the measure sequences whose
# kink value is exact: pieces (lo, hi, polynomial density coefficients).
# "power2" is the mean of two uniform draws (triangular density).
_DENSITIES = {
    "lebesgue": ((Fraction(0), Fraction(1), (Fraction(1),)),),
    "power2": (
        (Fraction(0), Fraction(1, 2), (Fraction(0), Fraction(4))),
        (Fraction(1, 2), Fraction(1), (Fraction(4), Fraction(-4))),
    ),
}

_GAUSS_NODES = 32


def measure_key(measures: dict) -> str:
    """Oracle name of a CLI ``operator.measures`` entry."""
    kind = measures["kind"]
    if kind == "constant_lebesgue":
        return "lebesgue"
    if kind == "power_of_base" and measures["base"] == {"kind": "lebesgue"}:
        return f"power{measures['exponent']}"
    if kind == "dirac_shift":
        return "dirac"
    raise ValueError(f"no oracle for measures {measures!r}")


def _integral(coeffs, lo, hi):
    return sum(c * (hi ** (j + 1) - lo ** (j + 1)) / (j + 1) for j, c in enumerate(coeffs))


def abs_moment(alpha: Fraction, a: Fraction, measure: str) -> Fraction:
    """``E|alpha + a T|`` exactly, T one coordinate of the named measure."""
    total = Fraction(0)
    for lo, hi, rho in _DENSITIES[measure]:
        # coefficients of (alpha + a t) * rho(t)
        prod = [Fraction(0)] * (len(rho) + 1)
        for j, r in enumerate(rho):
            prod[j] += alpha * r
            prod[j + 1] += a * r
        cuts = [lo, hi]
        if a != 0 and lo < -alpha / a < hi:
            cuts.insert(1, -alpha / a)
        for u, v in zip(cuts, cuts[1:]):
            sign = 1 if alpha + a * (u + v) / 2 >= 0 else -1
            total += sign * _integral(prod, u, v)
    return total


@lru_cache(maxsize=None)
def kink_inner_values(n: int, a: Fraction, measure: str) -> tuple:
    """``J_{n,k} = E|(k + a T)/(n + a) - 1/2|`` for k = 0..n, exact."""
    a = Fraction(a)
    return tuple(
        abs_moment(k - (n + a) / 2, a, measure) / (n + a) for k in range(n + 1)
    )


def kink_centre_error(n: int, a: Fraction, measure: str) -> Fraction:
    """``C_n(|t - 1/2|)(1/2)``, the 1-D error at the kink, exact.

    With a = 1 and Lebesgue measures this is ``E|xi_n - 1/2|`` for
    ``xi_n = (K + U)/(n + 1)``, ``K ~ Bin(n, 1/2)``, ``U ~ U(0, 1)``.
    """
    values = kink_inner_values(n, Fraction(a), measure)
    return sum(math.comb(n, k) * v for k, v in enumerate(values)) / 2**n


def bernstein_sum(coeffs, x: np.ndarray) -> np.ndarray:
    """``sum_k coeffs[k] C(n,k) x^k (1-x)^(n-k)`` by de Casteljau."""
    b = np.tile(np.asarray(coeffs, dtype=float), (x.shape[0], 1))
    t = x[:, None]
    while b.shape[1] > 1:
        b = (1.0 - t) * b[:, :-1] + t * b[:, 1:]
    return b[:, 0]


def _gauss01(count: int, lo: float = 0.0, hi: float = 1.0):
    x, w = np.polynomial.legendre.leggauss(count)
    return lo + (hi - lo) * (x + 1.0) / 2.0, w * (hi - lo) / 2.0


def kink_errors(n: int, a: float, measure: str, dim: int, m: int) -> tuple[float, float]:
    """(grid sup error, L^2 error) of ``C_n`` on ``abs_dist`` at the centre of Q_dim.

    The operator is a tensor product there, so the error is
    ``e(x_1) + ... + e(x_d)`` with the 1-D error ``e``; its grid maximum
    is ``d * max|e(i/m)|`` and its squared L^2 norm is
    ``d * int e^2 + d (d - 1) (int e)^2``.  ``e`` is a polynomial on each
    half of [0, 1], so ``n + 2`` Gauss nodes per half integrate ``e^2``
    exactly.
    """
    values = [float(v) for v in kink_inner_values(n, Fraction(a), measure)]

    def err(x):
        return bernstein_sum(values, x) - np.abs(x - 0.5)

    sup = dim * float(np.max(np.abs(err(np.arange(m + 1) / m))))
    int_e = int_e2 = 0.0
    for lo, hi in ((0.0, 0.5), (0.5, 1.0)):
        x, w = _gauss01(n + 2, lo, hi)
        e = err(x)
        int_e += float(w @ e)
        int_e2 += float(w @ e**2)
    return sup, math.sqrt(dim * int_e2 + dim * (dim - 1) * int_e**2)


def _mean_exp(c: float, measure: str, point=None, dim: int = 1) -> np.ndarray:
    """Per-axis ``E exp(c S_i)`` for a cube measure, shape ``(dim,)``."""
    if measure == "dirac":
        return np.exp(c * np.asarray(point, dtype=float))
    k = 1 if measure == "lebesgue" else int(measure.removeprefix("power"))
    return np.full(dim, (math.expm1(c / k) / (c / k)) ** k)


def exp_cube(n: int, a: float, measure: str, x: np.ndarray, point=None) -> np.ndarray:
    """``C_n(exp(x_1 + ... + x_d))`` on Q_d (or I), closed form.

    ``prod_i M_i (1 - x_i + x_i e^{1/(n+a)})^n`` with ``M_i = E exp(c S_i)``,
    ``c = a/(n + a)``.
    """
    scale = _mean_exp(a / (n + a), measure, point, x.shape[1])
    growth = math.expm1(1.0 / (n + a))
    return np.prod(scale * np.exp(n * np.log1p(x * growth)), axis=1)


def _simplex_radial_mean(c: float, dim: int) -> float:
    """``E exp(c |S|)`` for S uniform on K_dim: ``int_0^1 d t^{d-1} e^{ct} dt``."""
    terms, j, term = [], 0, 1.0
    while True:
        terms.append(dim * term / (j + dim))
        j += 1
        term *= c / j
        if term < 1e-18:
            return math.fsum(terms)


def exp_simplex(n: int, a: float, dim: int, s: np.ndarray) -> np.ndarray:
    """``C_n(exp(|x|))`` on K_dim at points with coordinate sum ``s``.

    ``M_d (1 - s + s e^{1/(n+a)})^n``: the multinomial sum depends on x
    only through ``s = |x|``.
    """
    mean = _simplex_radial_mean(a / (n + a), dim)
    return mean * np.exp(n * np.log1p(s * math.expm1(1.0 / (n + a))))


def exp_errors_cube(n: int, a: float, measure: str, dim: int, m: int, point=None):
    """(grid sup error, L^2 error) of ``C_n(exp_sum)`` on Q_dim."""
    axes = [np.arange(m + 1) / m] * dim
    grid = np.stack([g.reshape(-1) for g in np.meshgrid(*axes, indexing="ij")], axis=1)
    sup = float(np.max(np.abs(exp_cube(n, a, measure, grid, point) - np.exp(grid.sum(axis=1)))))
    x, w = _gauss01(_GAUSS_NODES)
    nodes = np.stack([g.reshape(-1) for g in np.meshgrid(*[x] * dim, indexing="ij")], axis=1)
    weights = np.prod(np.stack(np.meshgrid(*[w] * dim, indexing="ij")).reshape(dim, -1), axis=0)
    gap = exp_cube(n, a, measure, nodes, point) - np.exp(nodes.sum(axis=1))
    return sup, math.sqrt(float(weights @ gap**2))


def _radial_l2(g, dim: int) -> float:
    """L^2 norm over K_dim of ``x -> g(|x|)``: ``|x|`` has density
    ``s^{d-1}/(d-1)!`` against Lebesgue measure."""
    s, w = _gauss01(2 * _GAUSS_NODES)
    return math.sqrt(float(w @ (g(s) ** 2 * s ** (dim - 1))) / math.factorial(dim - 1))


def exp_errors_simplex(n: int, a: float, dim: int, m: int) -> tuple[float, float]:
    """(grid sup error, L^2 error) of ``C_n(exp_sum)`` on K_dim.

    Every grid point ``h/m`` has ``|x| = k/m`` for some k = 0..m.
    """
    s = np.arange(m + 1) / m
    sup = float(np.max(np.abs(exp_simplex(n, a, dim, s) - np.exp(s))))
    return sup, _radial_l2(lambda t: exp_simplex(n, a, dim, t) - np.exp(t), dim)


def exp_norm_simplex(n: int, a: float, dim: int) -> float:
    """``||C_n(exp_sum)||_2`` on K_dim."""
    return _radial_l2(lambda t: exp_simplex(n, a, dim, t), dim)


def _simplex_monomial(alpha) -> Fraction:
    """``int_{K_d} x^alpha dx = prod alpha_i! / (|alpha| + d)!``."""
    num = math.prod(math.factorial(k) for k in alpha)
    return Fraction(num, math.factorial(sum(alpha) + len(alpha)))


def _poly_l2_squared(poly: dict) -> Fraction:
    """``int_{K_d} p^2`` for ``p`` as {exponent tuple: coefficient}."""
    total = Fraction(0)
    for e1, c1 in poly.items():
        for e2, c2 in poly.items():
            total += c1 * c2 * _simplex_monomial(tuple(i + j for i, j in zip(e1, e2)))
    return total


def korovkin_lambda_simplex(n: int, a: Fraction, dim: int) -> float:
    """``max ||C_n(phi) - phi||_2`` over phi in {1, x_i, sum x_i^2} on K_dim,
    Lebesgue measures, exact before the final square root.

    With ``K ~ Mult(n, x)`` and S uniform on K_d (``E S_i = 1/(d+1)``,
    ``E S_i^2 = 2/((d+1)(d+2))``):
    ``C_n(x_i) = (n x_i + a E S_i)/(n + a)`` and
    ``C_n(x_i^2) = (n x_i + n(n-1) x_i^2 + 2 a E S_i n x_i + a^2 E S_i^2)/(n + a)^2``.
    """
    a = Fraction(a)
    m1, m2 = Fraction(1, dim + 1), Fraction(2, (dim + 1) * (dim + 2))
    den = (n + a) ** 2
    zero = (0,) * dim

    def unit(i, power):
        return tuple(power if j == i else 0 for j in range(dim))

    affine = {zero: a * m1 / (n + a), unit(0, 1): Fraction(n) / (n + a) - 1}
    quad = {zero: dim * a**2 * m2 / den}
    for i in range(dim):
        quad[unit(i, 1)] = (n + 2 * a * m1 * n) / den
        quad[unit(i, 2)] = Fraction(n * (n - 1)) / den - 1
    return math.sqrt(max(_poly_l2_squared(affine), _poly_l2_squared(quad)))
