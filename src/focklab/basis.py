"""Truncated Fock space: basis enumeration, kernels, Weyl operators.

The truncated space is spanned by e_alpha(w) = w^alpha / sqrt(alpha!) over
all |alpha| <= D in graded-lex order.  Coefficient vectors are plain complex
ndarrays of length ``basis.size`` in that order.  Truncation is by total
degree; tests of operators that raise degree restrict to the interior block
|alpha| <= D/2, since the outer band carries the truncation error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .indices import MultiIndex, graded_lex_keys, monomial_matrix
from .quadrature import gather_axes

MAX_BASIS_SIZE = 20_000


@dataclass(frozen=True, eq=False)
class BasisSet:
    """Graded-lex enumeration of all |alpha| <= degree in n complex variables."""

    n: int
    degree: int
    indices: tuple[MultiIndex, ...]

    @property
    def size(self) -> int:
        return len(self.indices)

    @cached_property
    def position(self) -> dict[MultiIndex, int]:
        return {a: i for i, a in enumerate(self.indices)}

    @cached_property
    def degrees(self) -> np.ndarray:
        return np.array([sum(a) for a in self.indices])

    def interior_positions(self) -> np.ndarray:
        """Positions of the interior block, |alpha| <= degree // 2."""
        return np.nonzero(self.degrees <= self.degree // 2)[0]


def enumerate_basis(n: int, degree: int) -> BasisSet:
    """Build the truncated basis; size C(n + D, n) beyond ``MAX_BASIS_SIZE`` is rejected."""
    if n < 1 or degree < 0:
        raise ValueError(f"need n >= 1 and degree >= 0, got n={n}, D={degree}")
    size = math.comb(n + degree, n)
    if size > MAX_BASIS_SIZE:
        mem = 16 * size * size / 1e6
        raise ValueError(
            f"basis would have {size} elements; a dense matrix needs ~{mem:.0f} MB (cap {MAX_BASIS_SIZE} elements)"
        )
    return BasisSet(n, degree, graded_lex_keys(n, degree)[0])


def kernel_coefficients(z, basis: BasisSet) -> np.ndarray:
    """Truncated expansion of K_z(w) = e^{conj(z) . w}: c_alpha = conj(z)^alpha / sqrt(alpha!)."""
    z = np.broadcast_to(np.asarray(z, dtype=complex), (basis.n,))
    return monomial_matrix(np.conj(z)[None, :], list(basis.indices))[0]


def normalized_kernel(z, basis: BasisSet) -> np.ndarray:
    """k_z = e^{-|z|^2/2} K_z; the truncated norm tends to 1 as D grows."""
    z = np.broadcast_to(np.asarray(z, dtype=complex), (basis.n,))
    return math.exp(-0.5 * float(np.sum(np.abs(z) ** 2))) * kernel_coefficients(z, basis)


def _weyl_axis_table(h: complex, degree: int) -> np.ndarray:
    """Single-axis Weyl table T[g, a] with W_h e_a = e^{-|h|^2/2} prod_axes T[g_j, a_j] e_g.

    Closed form (Cahill-Glauber): T[g, a] = sqrt(a!/g!) conj(h)^{g-a} L_a^{(g-a)}(|h|^2)
    for g >= a, and sqrt(g!/a!) (-h)^{a-g} L_g^{(a-g)}(|h|^2) otherwise.  The
    Laguerre values come from the three-term recurrence in the degree, one
    step for every order at once; the factorial ratios from half log-factorial
    differences, so nothing overflows.
    """
    d = np.arange(degree + 1)
    x = abs(h) ** 2
    lag = np.ones((degree + 1, degree + 1))  # lag[m, s] = L_m^{(s)}(x)
    if degree >= 1:
        lag[1] = 1.0 + d - x
    for m in range(1, degree):
        lag[m + 1] = ((2 * m + 1 + d - x) * lag[m] - (m + d) * lag[m - 1]) / (m + 1)
    log_fact = np.array([math.lgamma(m + 1) for m in range(degree + 1)])
    g, a = d[:, None], d[None, :]
    low, diff = np.minimum(g, a), np.abs(g - a)
    ratio = np.exp(0.5 * (log_fact[low] - log_fact[np.maximum(g, a)]))
    return ratio * np.where(g >= a, np.conj(h), -h) ** diff * lag[low, diff]


def weyl_matrix(h, basis: BasisSet) -> np.ndarray:
    """Dense truncated matrix of the Weyl operator W_h f(z) = e^{z.hbar - |h|^2/2} f(z - h).

    Each entry is the closed form of the untruncated operator, accurate to
    rounding (within 2e-14 of the largest entry at D = 80, |h| = 6); only unitarity is
    lost to the truncation, which grows with |h| against sqrt(D).  ``quadrature.gather_axes``
    gathers the one-axis tables, refusing a matrix over ``MAX_BYTES`` before allocating it.
    """
    h = np.broadcast_to(np.asarray(h, dtype=complex), (basis.n,))
    _, out = gather_axes([_weyl_axis_table(hj, basis.degree) for hj in h], basis.degree)
    return np.multiply(out, math.exp(-0.5 * float(np.sum(np.abs(h) ** 2))), out=out)  # the gather is fresh

