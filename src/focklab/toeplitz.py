"""Toeplitz matrices for measure symbols and coderivatives; Berezin transforms.

Matrix convention: entry (beta, alpha) = <T e_alpha, e_beta>, rows and
columns in the basis' graded-lex order.  Every assembly reads one moment
table from ``measures.moment_table`` and gathers its entries from it, so no
entry is integrated on its own.  For horizontal products and Gaussian-grid
densities that table is sum-factorized from per-axis tables; complex atoms
and pushforwards pay a Gram product over all their quadrature nodes.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .basis import BasisSet, kernel_coefficients
from .indices import HalfIndex, as_multi_index, factorial, index_add, index_leq, index_sub
from .measures import (
    DEFAULT_ORDER,
    dimension,
    gaussian_pairing,
    moment_table,
    real_nodes,
)


class AccuracyDomainWarning(UserWarning):
    """Raised (as a warning) when a request leaves the documented accuracy domain."""


@dataclass(frozen=True, eq=False)
class OperatorMatrix:
    """Dense truncated operator: entries[beta, alpha] = <T e_alpha, e_beta>."""

    basis: BasisSet
    entries: np.ndarray

    def hermitian_defect(self) -> float:
        return float(np.max(np.abs(self.entries - self.entries.conj().T)))


def interior_max_norm(matrix, basis: BasisSet, max_degree: int | None = None) -> float:
    """Max-entry norm over the interior block (degrees <= D//2 by default)."""
    entries = matrix.entries if isinstance(matrix, OperatorMatrix) else np.asarray(matrix)
    pos = basis.interior_positions(max_degree)
    return float(np.max(np.abs(entries[np.ix_(pos, pos)])))


def _locate_bad_entry(table: np.ndarray, basis: BasisSet):
    bad = ~np.isfinite(table)
    if np.any(bad):
        i, j = np.unravel_index(int(np.argmax(bad)), table.shape)
        raise ValueError(
            f"moment quadrature produced a non-finite value at (alpha, beta) = "
            f"({basis.indices[i]}, {basis.indices[j]}); growth contract violated"
        )


def assemble_toeplitz(mu, basis: BasisSet, order: int = DEFAULT_ORDER) -> OperatorMatrix:
    """T_mu f(z) = pi^{-n} int e^{z.wbar} f(w) e^{-|w|^2} dmu(w), truncated.

    Entry (beta, alpha) = pi^{-n} m_{alpha,beta}(mu) / sqrt(alpha! beta!).
    """
    table = moment_table(mu, list(basis.indices), order)
    _locate_bad_entry(table, basis)
    sf = basis.sqrt_factorials
    entries = math.pi ** (-basis.n) * table.T / (sf[:, None] * sf[None, :])
    return OperatorMatrix(basis, entries)


def _coderivative_from_table(table: np.ndarray, a, b, basis: BasisSet) -> np.ndarray:
    n = basis.n
    rows_ok, cols_ok, row_src, col_src, row_coef, col_coef = [], [], [], [], [], []
    for pos, alpha in enumerate(basis.indices):
        if index_leq(a, alpha):
            cols_ok.append(pos)
            col_src.append(basis.position[index_sub(alpha, a)])
            col_coef.append((factorial(alpha) // factorial(index_sub(alpha, a))) / basis.sqrt_factorials[pos])
        if index_leq(b, alpha):
            rows_ok.append(pos)
            row_src.append(basis.position[index_sub(alpha, b)])
            row_coef.append((factorial(alpha) // factorial(index_sub(alpha, b))) / basis.sqrt_factorials[pos])
    entries = np.zeros((basis.size, basis.size), dtype=complex)
    if rows_ok and cols_ok:
        sub = table[np.ix_(col_src, row_src)].T  # entry (beta, alpha) needs m_{alpha-a, beta-b}
        coef = np.asarray(row_coef)[:, None] * np.asarray(col_coef)[None, :]
        entries[np.ix_(rows_ok, cols_ok)] = math.pi ** (-n) * coef * sub
    return entries


def assemble_coderivative(mu, a, b, basis: BasisSet, order: int = DEFAULT_ORDER,
                          k: HalfIndex | None = None) -> OperatorMatrix:
    """Operator of the sesquilinear form pi^{-n} int d^a f conj(d^b g) e^{-|w|^2} dmu.

    ``a + b`` must equal the declared derivative order 2k when k is given.
    """
    a = as_multi_index(a, basis.n)
    b = as_multi_index(b, basis.n)
    if k is not None and index_add(a, b) != k.order_index():
        raise ValueError(f"coderivative orders a={a}, b={b} do not sum to 2k={k.order_index()}")
    table = moment_table(mu, list(basis.indices), order)
    _locate_bad_entry(table, basis)
    return OperatorMatrix(basis, _coderivative_from_table(table, a, b, basis))


def assemble_real_coderivative(mu, k: HalfIndex, basis: BasisSet, order: int = DEFAULT_ORDER) -> OperatorMatrix:
    """Binomial sum over b <= 2k of the (2k-b, b) coderivative operators.

    Is assemble_toeplitz when |k| = 0; Hermitian for positive mu.
    """
    two_k = HalfIndex.of(k).order_index()
    if len(two_k) != basis.n:
        raise ValueError(f"k has {len(two_k)} axes, basis has {basis.n}")
    if not any(two_k):
        return assemble_toeplitz(mu, basis, order)
    table = moment_table(mu, list(basis.indices), order)
    _locate_bad_entry(table, basis)
    entries = np.zeros((basis.size, basis.size), dtype=complex)
    # the first axis of b varies fastest
    for reversed_b in itertools.product(*(range(t + 1) for t in reversed(two_k))):
        b = reversed_b[::-1]
        coef = math.prod(math.comb(t, bj) for t, bj in zip(two_k, b))
        entries += coef * _coderivative_from_table(table, index_sub(two_k, b), b, basis)
    return OperatorMatrix(basis, entries)


def berezin_measure(mu, z, order: int = DEFAULT_ORDER) -> complex:
    """mu~(z) = pi^{-n} int e^{-|z-w|^2} dmu(w).

    For horizontal products the Lebesgue factor integrates out exactly
    through the recentered product rule, leaving the one-axis convolution
    pi^{-n/2} int e^{-(t-x)^2} drho(t).
    """
    n = dimension(mu)
    return math.pi ** (-n) * gaussian_pairing(mu, z, None, order)


def berezin_coderivative(mu, k: HalfIndex, z, order: int = DEFAULT_ORDER) -> complex:
    """2^{|2k|} pi^{-n} (Re z)^{2k} int e^{-|z-w|^2} dmu(w); closed in the 2k factor."""
    two_k = HalfIndex.of(k).order_index()
    z = np.broadcast_to(np.asarray(z, dtype=complex), (dimension(mu),))
    front = 2.0 ** sum(two_k) * math.prod(float(z[j].real) ** two_k[j] for j in range(len(two_k)))
    if front == 0.0:
        return 0.0 + 0.0j
    return front * berezin_measure(mu, z, order)


def horizontal_berezin_profile(rho, x, order: int = DEFAULT_ORDER) -> complex:
    """pi^{-n/2} int e^{-(t-x)^2} drho(t), the Berezin value of rho (x) nu_n at Re z = x."""
    n = dimension(rho)
    x = np.broadcast_to(np.asarray(x, dtype=float), (n,))
    _, wts = real_nodes(rho, x, order)
    return math.pi ** (-n / 2.0) * complex(np.sum(wts))


def berezin_operator(op: OperatorMatrix, z, kernel_norm_floor: float = 0.99) -> complex:
    """S~(z) = <S K_z, K_z> / <K_z, K_z> on the truncated kernel.

    Outside the accuracy domain (truncated kernel mass below the floor) the
    value is still returned but an AccuracyDomainWarning is emitted.
    """
    z = np.broadcast_to(np.asarray(z, dtype=complex), (op.basis.n,))
    kz = kernel_coefficients(z, op.basis)
    norm2 = float(np.sum(np.abs(kz) ** 2))
    captured = norm2 * math.exp(-float(np.sum(np.abs(z) ** 2)))
    if captured < kernel_norm_floor:
        warnings.warn(
            f"truncated kernel at z={z} captures {captured:.3f} of its mass "
            f"(floor {kernel_norm_floor}); Berezin value is degraded",
            AccuracyDomainWarning,
            stacklevel=2,
        )
    return complex(kz.conj() @ (op.entries @ kz) / norm2)


def berezin_y_variation(mu, x_values, y_values, order: int = DEFAULT_ORDER) -> float:
    """Max over the grid of |mu~(x+iy) - mu~(x+iy')|; zero iff horizontal on the grid."""
    n = dimension(mu)
    worst = 0.0
    for x in np.atleast_2d(np.asarray(x_values, dtype=float)):
        vals = [berezin_measure(mu, x + 1j * np.broadcast_to(np.asarray(y, dtype=float), (n,)), order)
                for y in y_values]
        worst = max(worst, float(np.max(np.abs(np.asarray(vals) - vals[0]))))
    return worst


def commutator(a: OperatorMatrix, b: OperatorMatrix) -> OperatorMatrix:
    if a.basis is not b.basis and a.basis.indices != b.basis.indices:
        raise ValueError("commutator needs operators over the same basis")
    return OperatorMatrix(a.basis, a.entries @ b.entries - b.entries @ a.entries)
