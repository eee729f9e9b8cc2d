"""Symplectic linear algebra: Lagrangian frames, vertical rotations, invariance.

A frame is n real vectors b_j spanning an n-plane of R^{2n}; the plane is
Lagrangian when the standard symplectic form vanishes on it, that is when the
identified frame C (columns x_j + i y_j) has a real Gram matrix C*C, whose
imaginary part is -omega_0(b_i, b_j).  Such a plane is U . R^n for a unitary
U, and X = i U* rotates it onto the vertical plane i R^n.  Any two valid
rotations differ by a real orthogonal factor on the left.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .basis import BasisSet, weyl_matrix
from .indices import HalfIndex, substitution_matrix
from .measures import DEFAULT_ORDER, pushforward
from .toeplitz import (
    OperatorMatrix,
    assemble_real_coderivative,
    assemble_toeplitz,
    berezin_values,
    interior_commutator_norm,
)

LAGRANGIAN_TOL = 1e-12


def complex_identification(vectors) -> np.ndarray:
    """Columns c_j = x_j + i y_j of the frame (rows of shape (n, 2n)) under (x, y) <-> x + iy."""
    v = np.atleast_2d(np.asarray(vectors, dtype=float))
    n = v.shape[0]
    if v.shape != (n, 2 * n):
        raise ValueError(f"frame must be n vectors in R^(2n), got shape {v.shape}")
    return (v[:, :n] + 1j * v[:, n:]).T


def is_lagrangian(vectors) -> tuple[bool, float]:
    """Whether the span is a full-rank Lagrangian plane, and the worst form violation max |Im C*C|."""
    v = np.atleast_2d(np.asarray(vectors, dtype=float))
    c = complex_identification(v)
    defect = float(np.max(np.abs((c.conj().T @ c).imag)))
    full_rank = np.linalg.matrix_rank(v, tol=1e-10) == v.shape[0]
    return bool(defect <= LAGRANGIAN_TOL and full_rank), defect


@dataclass(frozen=True, eq=False)
class LagrangianFrame:
    """A validated Lagrangian frame with its cached vertical rotation."""

    vectors: np.ndarray

    def __post_init__(self):
        v = np.atleast_2d(np.asarray(self.vectors, dtype=float))
        ok, defect = is_lagrangian(v)
        if not ok:
            raise ValueError(f"frame is not Lagrangian (max |omega_0| = {defect:.2e} or rank-deficient)")
        object.__setattr__(self, "vectors", v)

    @property
    def n(self) -> int:
        return self.vectors.shape[0]

    @cached_property
    def rotation(self) -> np.ndarray:
        return rotation_to_vertical(self)

    @cached_property
    def unit_columns(self) -> np.ndarray:
        """The identified frame columns c_j, each scaled to unit length."""
        c = complex_identification(self.vectors)
        return c / np.linalg.norm(c, axis=0, keepdims=True)


def rotation_to_vertical(frame: LagrangianFrame) -> np.ndarray:
    """A unitary X with X L = i R^n, deterministic given the frame.

    The frame's identified Gram matrix C*C is real (``is_lagrangian``), so polar
    orthonormalization U = C (C*C)^{-1/2} spans the same plane, and X = i U*
    is vertical-rotating.  The leftover real orthogonal gauge is fixed by
    sign-canonicalizing rows: the first above-tolerance entry of each row of
    X gets a positive imaginary part (positive real part as tie-break).
    """
    c = complex_identification(frame.vectors)
    evals, evecs = np.linalg.eigh((c.conj().T @ c).real)
    if np.min(evals) < 1e-12 * np.max(evals):
        raise ValueError("frame is numerically degenerate; cannot orthonormalize")
    inv_sqrt = (evecs / np.sqrt(evals)) @ evecs.T
    u = c @ inv_sqrt
    x = 1j * u.conj().T
    for i in range(x.shape[0]):
        row = x[i]
        j = int(np.argmax(np.abs(row) > 1e-9))
        lead = row[j]
        if lead.imag < 0 or (abs(lead.imag) <= 1e-12 and lead.real < 0):
            x[i] = -row
    return x


def rotation_defect(frame: LagrangianFrame, x: np.ndarray) -> float:
    """How far X is from a valid vertical rotation of the frame.

    Max of the unitarity defect and |Re(X c_j)| over the identified frame
    columns; <= 1e-12 certifies X L = i R^n at working precision.
    """
    x = np.asarray(x, dtype=complex)
    unitarity = float(np.max(np.abs(x.conj().T @ x - np.eye(x.shape[0]))))
    vertical = float(np.max(np.abs((x @ frame.unit_columns).real)))
    return max(unitarity, vertical)


def vx_matrix(x: np.ndarray, basis: BasisSet) -> np.ndarray:
    """Matrix of V_X f(z) = f(X* z) on the truncated basis: ``substitution_matrix(X*)``, the dense
    form of the degree blocks ``indices.substitution_blocks`` that conjugate a pushforward's table.

    V_X preserves total degree, so it is block diagonal and stays exactly
    unitary in truncation.
    """
    return substitution_matrix(np.conj(np.asarray(x, dtype=complex)).T, basis.indices)


@dataclass(frozen=True)
class InvarianceReport:
    """Evidence for invariance of a measure under translations along a plane."""

    berezin_y_variation: float
    weyl_commutators: tuple[float, ...]
    invariant: bool


def l_invariance_test(mu, frame: LagrangianFrame, basis: BasisSet,
                      order: int = DEFAULT_ORDER) -> InvarianceReport:
    """Two-route invariance check for translations along the frame's plane.

    Route 1: the rotated measure mu_{X*} must have a Berezin transform
    independent of the imaginary part (to 1e-8 relative).  Route 2: the
    assembled Toeplitz matrix must commute with the Weyl translations W_h,
    h = 0.4 times each unit frame vector, on the interior block (to 1e-4).
    Each commutator is formed on the interior rows and columns it reports alone
    (``toeplitz.interior_commutator_norm``), never as two N x N products.
    """
    x = frame.rotation
    rotated = pushforward(mu, x.conj().T)
    # one grid serves the variation (as in berezin_y_variation) and the verdict's scale
    vals = berezin_values(rotated, [np.full(frame.n, xv) for xv in (-0.8, 0.0, 0.6)], (-0.9, 0.0, 0.7), order)
    variation_y = float(np.max(np.abs(vals - vals[:, :1])))
    scale = float(np.max(np.abs(vals)))
    t = assemble_toeplitz(mu, basis, order).entries
    commutators = [interior_commutator_norm(t, weyl_matrix(0.4 * h, basis), basis) for h in frame.unit_columns.T]
    invariant = variation_y <= 1e-8 * max(scale, 1e-12) and all(v <= 1e-4 for v in commutators)
    return InvarianceReport(variation_y, tuple(commutators), bool(invariant))


def assemble_l_real_coderivative(mu, k: HalfIndex, frame: LagrangianFrame, basis: BasisSet,
                                 order: int = DEFAULT_ORDER) -> OperatorMatrix:
    """Real coderivative of the rotated measure mu_{X*}; the L-adapted operator."""
    return assemble_real_coderivative(pushforward(mu, frame.rotation.conj().T), k, basis, order)
