"""Lattice certification of boundedness-type properties of measure symbols.

Finite grids cannot certify a supremum over C^n, so every verdict here is
window-relative: a sup estimate over an axis-aligned lattice plus a
boundary-growth flag (boundary-shell max exceeding the interior max by a
configured factor).  Inconclusive verdicts are data, not errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import BasisSet, enumerate_basis
from .indices import HalfIndex
from .measures import DEFAULT_ORDER, ball_mass, dimension, variation, weight
from .quadrature import tensor_grid
from .toeplitz import assemble_coderivative, berezin_measure

GROWTH_FACTOR = 1.5


@dataclass(frozen=True)
class CarlesonReport:
    """Windowed supremum estimate with its lattice and growth flag."""

    sup_estimate: float
    argmax: tuple
    window: float
    spacing: float
    r: tuple | None
    interior_max: float
    boundary_max: float
    growth_detected: bool

    @property
    def verdict(self) -> str:
        return "growth-detected" if self.growth_detected else "bounded-on-window"


def lattice(n: int, window: float, spacing: float):
    """Axis-aligned complex lattice over [-R, R]^{2n} and its boundary-shell mask."""
    if spacing <= 0 or window <= 0:
        raise ValueError(f"need positive window and spacing, got R={window}, delta={spacing}")
    m = int(math.floor(window / spacing + 1e-9))
    axis = spacing * np.arange(-m, m + 1)
    pts, _ = tensor_grid([axis] * (2 * n), [np.ones(axis.size)] * (2 * n))  # refused past MAX_NODES points
    z = pts[:, :n] + 1j * pts[:, n:]
    boundary = np.max(np.abs(pts), axis=1) >= axis[-1] - 1e-12
    return z, boundary


def _scan(values: np.ndarray, z: np.ndarray, boundary: np.ndarray, window, spacing, r) -> CarlesonReport:
    if np.all(boundary):
        # the lone lattice point is on the boundary, so growth could not be told from a bound
        raise ValueError(f"window {window} < spacing {spacing}: the lattice has no interior points")
    values = np.asarray(values, dtype=float)
    top = int(np.argmax(values))
    interior_max = float(np.max(values[~boundary]))
    boundary_max = float(np.max(values[boundary]))
    grew = boundary_max > GROWTH_FACTOR * max(interior_max, 1e-300)
    return CarlesonReport(
        sup_estimate=float(values[top]),
        argmax=tuple(complex(v) for v in z[top]),
        window=float(window),
        spacing=float(spacing),
        r=None if r is None else tuple(float(v) for v in np.atleast_1d(r)),
        interior_max=interior_max,
        boundary_max=boundary_max,
        growth_detected=bool(grew),
    )


@dataclass(frozen=True)
class ConditionMReport:
    """The kernel-mass condition, verbatim and in its normalized variant.

    The verbatim integrand e^{|z|^2} pi^n |mu|~(z) grows for essentially every
    measure with mass away from the origin (Lebesgue included), while the
    normalized variant sup_z |mu|~(z) is the boundedness criterion; both are
    reported so the discrepancy is visible.
    """

    verbatim: CarlesonReport
    normalized: CarlesonReport


def condition_m(mu, window: float = 2.0, spacing: float = 0.5,
                order: int = DEFAULT_ORDER) -> ConditionMReport:
    """sup_z int |K_z|^2 e^{-|w|^2} d|mu|(w) over the lattice, plus sup_z |mu|~(z)."""
    n = dimension(mu)
    amu = variation(mu)
    z, boundary = lattice(n, window, spacing)
    # |mu|~(z) = pi^{-n} int e^{-|z-w|^2} d|mu|(w) at every lattice point, paired in row blocks
    berezin = np.abs(berezin_measure(amu, z, order))
    raw = np.exp(np.sum(np.abs(z) ** 2, axis=1)) * math.pi**n * berezin
    return ConditionMReport(
        verbatim=_scan(raw, z, boundary, window, spacing, None),
        normalized=_scan(berezin, z, boundary, window, spacing, None),
    )


def carleson_constant(mu, k: HalfIndex, r, window: float = 2.0, spacing: float = 0.5) -> CarlesonReport:
    """C_k(mu, r) = Gamma(k+1)^2 sup_z (|mu|_k)(B_r(z)) over the lattice."""
    n = dimension(mu)
    k = HalfIndex.of(k, n)
    r = np.broadcast_to(np.asarray(r, dtype=float), (n,))
    weighted = weight(variation(mu), k)
    z, boundary = lattice(n, window, spacing)
    masses = k.gamma_factor() ** 2 * np.abs(ball_mass(weighted, z, r))
    return _scan(masses, z, boundary, window, spacing, r)


@dataclass(frozen=True)
class KfcReport:
    """Empirical embedding constant for k-th derivatives at two truncations."""

    omega: float
    omega_coarse: float
    degree: int
    coarse_degree: int
    growth_detected: bool


def kfc_verdict(mu, k: HalfIndex, basis: BasisSet, order: int = DEFAULT_ORDER) -> KfcReport:
    """Top eigenvalue of the derivative pairing form of |mu| as the omega estimate.

    Computed at the full truncation and a coarser one; growth of the estimate
    across truncations flags a failing embedding.  Requires integer k (the
    Gram matrix is the (k, k) coderivative operator).
    """
    kk = HalfIndex.of(k, basis.n).as_integer_index()
    # graded-lex bases of lower degree are prefixes and each Gram entry depends
    # only on (alpha, beta), so both truncations are leading blocks of one Gram
    coarse = enumerate_basis(basis.n, max(basis.degree // 2, sum(kk)))
    largest = basis if basis.degree >= coarse.degree else coarse
    gram = assemble_coderivative(variation(mu), kk, kk, largest, order).entries

    def top_eig(size: int) -> float:
        block = gram[:size, :size]
        return float(np.max(np.linalg.eigvalsh((block + block.conj().T) / 2.0)))

    omega = top_eig(basis.size)
    omega_coarse = top_eig(coarse.size)
    return KfcReport(
        omega=omega,
        omega_coarse=omega_coarse,
        degree=basis.degree,
        coarse_degree=coarse.degree,
        growth_detected=bool(omega > GROWTH_FACTOR * max(omega_coarse, 1e-300)),
    )


@dataclass(frozen=True)
class WeightShiftReport:
    """Both index placements of the weight-shift identity, plus the normalized core.

    ``stated`` follows the displayed identity C_{k-p}(mu_p, r) = C_k(mu, r);
    ``prose`` follows the surrounding text, C_p(mu_{k-p}, r) = C_k(mu, r).
    The Gamma-normalized suprema agree exactly (the weighted measures
    coincide); the two constants differ from C_k by the ratio of their Gamma
    factors unless those happen to match.
    """

    c_k: float
    stated: float
    prose: float
    normalized_lhs: float
    normalized_rhs: float
    stated_matches: bool
    prose_matches: bool


def weight_shift_check(mu, k: HalfIndex, p: HalfIndex, r, window: float = 2.0,
                       spacing: float = 0.5) -> WeightShiftReport:
    k, p = HalfIndex.of(k, dimension(mu)), HalfIndex.of(p, dimension(mu))
    if not (p.is_nonnegative and k.geq(p)):
        raise ValueError(f"weight shift needs 0 <= p <= k componentwise, got k={k.halves()}, p={p.halves()}")
    c_k = carleson_constant(mu, k, r, window, spacing)
    stated = carleson_constant(weight(mu, p), k - p, r, window, spacing)
    prose = carleson_constant(weight(mu, k - p), p, r, window, spacing)
    norm_lhs = stated.sup_estimate / (k - p).gamma_factor() ** 2
    norm_rhs = c_k.sup_estimate / k.gamma_factor() ** 2
    scale = max(abs(c_k.sup_estimate), 1.0)
    return WeightShiftReport(
        c_k=c_k.sup_estimate,
        stated=stated.sup_estimate,
        prose=prose.sup_estimate,
        normalized_lhs=norm_lhs,
        normalized_rhs=norm_rhs,
        stated_matches=bool(abs(stated.sup_estimate - c_k.sup_estimate) <= 1e-9 * scale),
        prose_matches=bool(abs(prose.sup_estimate - c_k.sup_estimate) <= 1e-9 * scale),
    )
