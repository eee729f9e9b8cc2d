"""Toeplitz matrices for measure symbols and coderivatives; Berezin transforms.

Matrix convention: entry (beta, alpha) = <T e_alpha, e_beta>, rows and
columns in the basis' graded-lex order.  Every assembly reads one
``measures.moment_table``, so no entry is integrated on its own; a derivative
of f or g is a lowering step on that table's rows or columns, which for a
product symbol acts on one factor's one-axis (D+1)^2 table before the gather.
Every Berezin value of a measure is a ``measures.gaussian_pairings`` row, which rho (x) nu_alpha
factorizes into rho's pairing at Re z times one nu_alpha integral per axis, so no 2n-dimensional grid
is built.  Rows of points (an (m, n) array) are taken in one batch: ``berezin_measure`` pairs them,
``berezin_operator`` forms all their kernels as one matrix.  A commutator read on the interior block
is formed on its rows and columns alone (``interior_commutator_norm``).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .basis import BasisSet
from .indices import HalfIndex, as_multi_index, monomial_matrix
from .measures import (
    DEFAULT_ORDER,
    AlphaHorizontal,
    dimension,
    gaussian_pairings,
    moment_table,
)
from .quadrature import blocks

KERNEL_NORM_FLOOR = 0.99  # truncated kernel mass below which a Berezin value is flagged


class AccuracyDomainWarning(UserWarning):
    """Raised (as a warning) when a request leaves the documented accuracy domain."""


@dataclass(frozen=True, eq=False)
class OperatorMatrix:
    """Dense truncated operator: entries[beta, alpha] = <T e_alpha, e_beta>."""

    basis: BasisSet
    entries: np.ndarray

    def hermitian_defect(self) -> float:
        # an exactly real matrix is measured in real arithmetic: the same float, at a fraction of the cost;
        # row blocks against column blocks, so no second N x N array is formed
        entries = self.entries if np.any(self.entries.imag) else self.entries.real
        return max(float(np.max(np.abs(entries[s] - entries[:, s].conj().T))) for s in blocks(*entries.shape))


def interior_max_norm(matrix, basis: BasisSet) -> float:
    """Max-entry norm over the interior block (degrees <= D//2)."""
    entries = matrix.entries if isinstance(matrix, OperatorMatrix) else np.asarray(matrix)
    pos = basis.interior_positions()
    return float(np.max(np.abs(entries[np.ix_(pos, pos)])))


def interior_commutator_norm(a: np.ndarray, b: np.ndarray, basis: BasisSet) -> float:
    """``interior_max_norm`` of the commutator a b - b a of two N x N arrays, formed on the interior
    rows and columns P alone: (a b - b a)[P, P] = a[P, :] b[:, P] - b[P, :] a[:, P]."""
    pos = basis.interior_positions()
    return float(np.max(np.abs(a[pos] @ b[:, pos] - b[pos] @ a[:, pos])))


def _locate_bad_entry(table: np.ndarray, basis: BasisSet):
    bad = ~np.isfinite(table)
    if np.any(bad):
        i, j = np.unravel_index(int(np.argmax(bad)), table.shape)
        raise ValueError(
            f"moment quadrature produced a non-finite value at (alpha, beta) = "
            f"({basis.indices[i]}, {basis.indices[j]}): past the float range, or growth contract violated"
        )


def _assemble(mu, basis: BasisSet, order: int, steps) -> OperatorMatrix:
    """The operator of the moment table m[alpha, beta] (in e_alpha) after the lowering steps (j, axes),
    which ``measures.moment_table`` applies (on a product, to the one-axis tables before the gather):
    entry (beta, alpha) = pi^{-n} m[alpha, beta]."""
    # past the float range the moment pass and its lowering overflow; the located refusal is the only signal
    with np.errstate(over="ignore", invalid="ignore"):
        table = moment_table(mu, list(basis.indices), order, steps)
    _locate_bad_entry(table, basis)
    # every moment route builds a fresh table, so it is scaled in place and its transpose is a view
    table *= math.pi ** (-basis.n)
    return OperatorMatrix(basis, table.T)


def assemble_toeplitz(mu, basis: BasisSet, order: int = DEFAULT_ORDER) -> OperatorMatrix:
    """T_mu f(z) = pi^{-n} int e^{z.wbar} f(w) e^{-|w|^2} dmu(w), truncated.

    Entry (beta, alpha) = pi^{-n} m_{alpha,beta}(mu) / sqrt(alpha! beta!), the moment table in e_alpha.
    """
    return _assemble(mu, basis, order, ())


def assemble_coderivative(mu, a, b, basis: BasisSet, order: int = DEFAULT_ORDER) -> OperatorMatrix:
    """Operator of the sesquilinear form pi^{-n} int d^a f conj(d^b g) e^{-|w|^2} dmu."""
    a = as_multi_index(a, basis.n)
    b = as_multi_index(b, basis.n)
    steps = [(j, (0,)) for j in range(basis.n) for _ in range(a[j])]
    steps += [(j, (1,)) for j in range(basis.n) for _ in range(b[j])]
    return _assemble(mu, basis, order, steps)


def assemble_real_coderivative(mu, k: HalfIndex, basis: BasisSet, order: int = DEFAULT_ORDER) -> OperatorMatrix:
    """Operator of the sesquilinear form pi^{-n} int d_x^{2k}(f conj(g)) e^{-|w|^2} dmu, x = Re w.

    For holomorphic f and g, d/dx_j (f conj g) = (d_j f) conj(g) + f conj(d_j g), so
    each of the (2k)_j steps on axis j lowers both table axes; expanded, this is the
    binomial sum of the (2k - b, b) coderivatives.  Is assemble_toeplitz when
    |k| = 0; Hermitian for positive mu.
    """
    two_k = HalfIndex.of(k, basis.n).order_index()
    return _assemble(mu, basis, order, [(j, (0, 1)) for j, t in enumerate(two_k) for _ in range(t)])


def berezin_measure(mu, z, order: int = DEFAULT_ORDER):
    """mu~(z) = pi^{-n} int e^{-|z-w|^2} dmu(w) at a point z, or one value per row of z (m, n).

    A measure that answers ``axis_factors()`` multiplies one-axis values; for
    rho (x) nu_alpha the value costs rho's nodes plus n one-axis sums, and with
    alpha = 0 the y integrals are pi^{1/2} each, so it depends on Re z alone.  A
    point and all rows go to one ``gaussian_pairings`` call; an n-dimensional
    density pairs them in ``quadrature.row_blocks``, a row costing its centre's evaluations.
    """
    rows = np.asarray(z, dtype=complex)
    values = math.pi ** (-dimension(mu)) * gaussian_pairings(mu, rows, order)
    return complex(values[0]) if rows.ndim < 2 else values


def berezin_coderivative(mu, k: HalfIndex, z, order: int = DEFAULT_ORDER):
    """2^{|2k|} pi^{-n} (Re z)^{2k} int e^{-|z-w|^2} dmu(w) at a point z, or one value per row
    of z (m, n); closed in the 2k factor, and exactly 0 (with no pairing) where it is 0."""
    two_k = HalfIndex.of(k, dimension(mu)).order_index()
    rows = np.asarray(z, dtype=complex)
    point = rows.ndim < 2
    rows = np.broadcast_to(rows, (1, dimension(mu))) if point else rows
    front = 2.0 ** sum(two_k) * np.prod(rows.real ** np.array(two_k), axis=1)
    values = np.zeros(rows.shape[0], dtype=complex)
    live = front != 0.0
    if live.any():
        values[live] = front[live] * berezin_measure(mu, rows[live], order)
    return complex(values[0]) if point else values


def horizontal_berezin_profile(rho, x, order: int = DEFAULT_ORDER) -> complex:
    """pi^{-n/2} int e^{-(t-x)^2} drho(t), the Berezin value of rho (x) nu_n at Re z = x;
    ``berezin_measure`` of the horizontal product at the real point x."""
    return berezin_measure(AlphaHorizontal(rho), x, order)


def berezin_operator(op: OperatorMatrix, z):
    """S~(z) = <S K_z, K_z> / <K_z, K_z> on the truncated kernel, at a point z or one value per row of
    z (m, n), as ``berezin_measure`` takes them: one ``monomial_matrix`` of kernels, one product with S.

    Outside the accuracy domain (truncated kernel mass below the floor) the
    value is still returned but an AccuracyDomainWarning names the first such row.
    """
    rows = np.asarray(z, dtype=complex)
    point = rows.ndim < 2
    rows = np.broadcast_to(rows, (1, op.basis.n)) if point else rows
    kz = monomial_matrix(np.conj(rows), op.basis.indices)
    norm2 = np.sum(np.abs(kz) ** 2, axis=1)
    captured = norm2 * np.exp(-np.sum(np.abs(rows) ** 2, axis=1))
    for i in np.flatnonzero(captured < KERNEL_NORM_FLOOR)[:1]:
        warnings.warn(f"truncated kernel at {'' if point else f'row {i}, '}z={rows[i]} captures {captured[i]:.3f} "
                      f"of its mass (floor {KERNEL_NORM_FLOOR}); Berezin value is degraded",
                      AccuracyDomainWarning, stacklevel=2)
    values = np.sum(kz.conj() * (kz @ op.entries.T), axis=1) / norm2
    return complex(values[0]) if point else values


def berezin_values(mu, x_values, y_values, order: int = DEFAULT_ORDER) -> np.ndarray:
    """mu~(x + iy) with one row per row x of ``x_values`` and one column per entry y of
    ``y_values``, from batched ``berezin_measure`` rows: a density streams its node
    grids over whole blocks of centres in bounded slabs instead of one set per point."""
    n = dimension(mu)
    x = np.atleast_2d(np.asarray(x_values, dtype=float))
    y = np.array([np.broadcast_to(np.asarray(v, dtype=float), (n,)) for v in y_values])
    return berezin_measure(mu, (x[:, None] + 1j * y[None]).reshape(-1, n), order).reshape(len(x), -1)


def berezin_y_variation(mu, x_values, y_values, order: int = DEFAULT_ORDER) -> float:
    """Max over the grid of |mu~(x+iy) - mu~(x+iy')|; zero iff horizontal on the grid."""
    vals = berezin_values(mu, x_values, y_values, order)
    return float(np.max(np.abs(vals - vals[:, :1])))


def commutator(a: OperatorMatrix, b: OperatorMatrix) -> OperatorMatrix:
    if a.basis is not b.basis and a.basis.indices != b.basis.indices:
        raise ValueError("commutator needs operators over the same basis")
    return OperatorMatrix(a.basis, a.entries @ b.entries - b.entries @ a.entries)
