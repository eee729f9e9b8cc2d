"""Spectral functions of horizontal symbols and their Hermite-side matrices.

A horizontal Toeplitz operator is unitarily equivalent, through the basis
correspondence e_alpha <-> h_alpha (normalized Hermite functions), to
multiplication by a spectral function gamma on L2(R^n).  The correspondence
is realized exactly through the bases rather than by discretizing the
transform kernels, which removes one quadrature layer from the headline
dual-path comparison.  The Hermite-side matrix is a Gauss-Hermite sum of
w gamma against hhat_a(x_j) hhat_b(x_j) on every axis j, the shape of a moment
table, so it goes through the moment pass's ``quadrature.contract_axes``.  For a
rho that answers ``axis_factors()``, gamma is a product of one-axis gammas: the samples
keep one vector per axis and the matrix is a ``quadrature.gather_axes`` of n one-axis
tables, as the moment table is.
Whether a measure is horizontal (rho (x) Lebesgue, the alpha = 0 ``AlphaHorizontal``)
is decided in one place, ``horizontal_rho``, which ``diagonalization_residual`` and the CLI read.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .basis import BasisSet
from .indices import HalfIndex, hermite, select_table
from .measures import DEFAULT_ORDER, AlphaHorizontal, MeasureSpec, dimension, real_sums
from .quadrature import check_nodes, contract_axes, gather_axes, gauss_hermite, row_blocks, tensor_rule
from .toeplitz import (
    OperatorMatrix,
    assemble_real_coderivative,
    berezin_coderivative,
    berezin_operator,
    interior_max_norm,
)

DEFAULT_SPECTRAL_ORDER = 80
_ORDER_MARGIN = 5


@dataclass(frozen=True, eq=False)
class SpectralSamples:
    """gamma_{rho,2k} on the tensor Gauss-Hermite nodes of ``quad_order``, with its order k.

    For a product rho, gamma = prod_j gamma_{rho_j,2k_j}(x_j) and ``factors`` holds one q-vector
    per axis; otherwise it holds gamma as one array of shape (q,) * n.  The nodes and the flat
    values are built on demand, so past ``quadrature.MAX_NODES`` they are refused.
    """

    factors: tuple
    k: HalfIndex
    quad_order: int

    @property
    def grid(self) -> np.ndarray:
        return spectral_grid(self.k.n, self.quad_order)

    @property
    def values(self) -> np.ndarray:
        check_nodes(self.quad_order ** self.k.n)
        return functools.reduce(np.multiply.outer, self.factors).ravel()


def gamma_plain(rho, grid) -> np.ndarray:
    """gamma_rho(x) = (2/pi)^{n/2} int e^{-(x - sqrt2 y)^2} drho(y) on the grid."""
    return gamma_2k(rho, (0,) * dimension(rho), grid)


def gamma_2k(rho, k: HalfIndex, grid, order: int = DEFAULT_ORDER) -> np.ndarray:
    """gamma_{rho,2k}(x) = (2/pi)^{n/2} int H_{2k}(sqrt2 x - y) e^{-(x - sqrt2 y)^2} drho(y).

    One ``real_sums`` batch over the grid: H_{2k} is one factor per axis, built
    on that axis' (point, node) pairs, and a density rho streams in bounded slabs.
    """
    two_k = HalfIndex.of(k, dimension(rho)).order_index()
    return (2.0 / math.pi) ** (dimension(rho) / 2.0) * real_sums(
        rho, grid, lambda j, x, y: hermite(two_k[j], np.sqrt(2.0) * x - y), order, scale=2.0)


def spectral_grid(n: int, order: int = DEFAULT_SPECTRAL_ORDER) -> np.ndarray:
    """Default SpectralSamples grid: tensor Gauss-Hermite nodes, so the
    multiplication matrix needs no resampling."""
    return tensor_rule([order] * n).points()


def gamma_samples(rho, k: HalfIndex, order: int = DEFAULT_SPECTRAL_ORDER,
                  rho_order: int = DEFAULT_ORDER) -> SpectralSamples:
    """gamma_{rho,2k} on the order-q nodes: q values per axis of a product rho, else q^n values."""
    k = HalfIndex.of(k, dimension(rho))
    factors = rho.axis_factors()
    if factors is None:
        values = gamma_2k(rho, k, spectral_grid(k.n, order), rho_order)
        return SpectralSamples((values.reshape((order,) * k.n),), k, order)
    nodes = gauss_hermite(order).nodes[:, None]
    axes = list(zip(factors, k.doubled))  # one vector per distinct (factor, 2k_j), shared by its axes
    shared = {(f, t): gamma_2k(f, HalfIndex((t,)), nodes, rho_order) for f, t in dict.fromkeys(axes)}
    return SpectralSamples(tuple(shared[a] for a in axes), k, order)


def hermite_function_matrix(degree: int, x) -> np.ndarray:
    """Rows hhat_0(x) .. hhat_degree(x) at the nodes x: Hermite functions without the
    Gaussian half-weight (it lives in the folded quadrature weights)."""
    x = np.asarray(x, dtype=float)
    vals = np.empty((degree + 1, x.size))
    vals[0] = math.pi ** (-0.25)
    if degree >= 1:
        vals[1] = math.sqrt(2.0) * x * vals[0]
    for m in range(1, degree):
        vals[m + 1] = x * math.sqrt(2.0 / (m + 1)) * vals[m] - math.sqrt(m / (m + 1)) * vals[m - 1]
    return vals


def multiplication_matrix(gamma: SpectralSamples, basis: BasisSet) -> OperatorMatrix:
    """Matrix of multiplication by gamma in the orthonormal Hermite-function basis:
    ``contract_axes`` of the one-axis table g[i, a, b] = hhat_a(x_i) hhat_b(x_i),
    shared by every axis, against w gamma on the samples' order-q tensor nodes.
    Factored samples of a product rho reduce g against each w gamma_j and gather the
    n one-axis tables (``quadrature.gather_axes``), so no q^n array is formed.

    The samples' order must cover the basis degree plus the polynomial content
    of gamma; insufficient orders are rejected.
    """
    if gamma.k.n != basis.n:
        raise ValueError(f"samples on {gamma.k.n} axes do not fit a basis on {basis.n}")
    order, needed = gamma.quad_order, basis.degree + gamma.k.total_order() // 2 + _ORDER_MARGIN
    if order < needed:
        raise ValueError(f"quadrature order {order} is insufficient for degree {basis.degree} (need >= {needed})")
    rule = gauss_hermite(order)
    h = hermite_function_matrix(basis.degree, rule.nodes).T
    g = h[:, :, None] * h[:, None, :]
    if len(gamma.factors) > 1:  # one one-axis table per distinct factor vector
        tables = {id(f): np.tensordot(rule.weights * f, g, axes=1) for f in {id(f): f for f in gamma.factors}.values()}
        keys, table = gather_axes([tables[id(f)] for f in gamma.factors], basis.degree)
    else:
        grid = functools.reduce(np.multiply.outer, [rule.weights] * basis.n) * gamma.factors[0]
        keys, table = contract_axes([g] * basis.n, grid, basis.degree)
    return OperatorMatrix(basis, select_table(keys, table, basis.indices))


@dataclass(frozen=True)
class DiagonalizationReport:
    """Dual-path comparison of a horizontal operator with its spectral function."""

    residual: float
    interior_degree: int
    berezin_gap: float
    toeplitz: OperatorMatrix = field(repr=False)
    multiplication: OperatorMatrix = field(repr=False)
    samples: SpectralSamples = field(repr=False)


def horizontal_rho(mu):
    """rho if mu is the horizontal rho (x) Lebesgue, an ``AlphaHorizontal`` with alpha = 0, else None."""
    return mu.rho if isinstance(mu, AlphaHorizontal) and not any(mu.alpha_doubled) else None


def _extract_rho(mu_or_rho):
    rho = horizontal_rho(mu_or_rho) if isinstance(mu_or_rho, MeasureSpec) else mu_or_rho
    if rho is None:
        raise ValueError(
            f"diagonalization needs a horizontal symbol (rho or Horizontal(rho)); got {type(mu_or_rho).__name__}"
        )
    return rho


def diagonalization_residual(mu_or_rho, k: HalfIndex, basis: BasisSet,
                             moment_order: int = DEFAULT_ORDER,
                             spectral_order: int = DEFAULT_SPECTRAL_ORDER) -> DiagonalizationReport:
    """Interior-block max difference between the Fock-side operator matrix and
    the Hermite-side multiplication matrix for the same horizontal symbol.

    Also reports the Berezin-route gap against ``berezin_coderivative``, the
    independent kernel-based path, at five points taken as rows by both routes: it
    carries the truncation error of the kernel expansion and shrinks as D grows,
    unlike the entrywise residual which is quadrature-limited.
    """
    k = HalfIndex.of(k, basis.n)
    rho = _extract_rho(mu_or_rho)
    mu = AlphaHorizontal(rho)
    top = assemble_real_coderivative(mu, k, basis, moment_order)
    samples = gamma_samples(rho, k, spectral_order, moment_order)
    mult = multiplication_matrix(samples, basis)
    residual = interior_max_norm(top.entries - mult.entries, basis)

    z = np.outer([0.0, 0.4, 0.4 + 0.3j, -0.6 + 0.2j, 0.8j], np.ones(basis.n))
    gap = float(np.max(np.abs(berezin_operator(top, z) - berezin_coderivative(mu, k, z, moment_order))))
    return DiagonalizationReport(residual, basis.degree // 2, gap, top, mult, samples)


@dataclass(frozen=True)
class SpectrumReport:
    """Norm and spectrum of a truncated operator against its spectral function."""

    operator_norm: float
    spectral_radius: float
    gamma_sup: float
    eig_to_range: float
    hermitian_defect: float


def norm_and_spectrum(op: OperatorMatrix, samples: SpectralSamples) -> SpectrumReport:
    """Top singular value, spectral radius, sup |gamma|, and the one-sided
    Hausdorff distance from the truncated spectrum to the sampled range.

    A Hermitian operator's 2-norm is its spectral radius, so only a
    non-Hermitian one (defect >= 1e-10) pays for an SVD.  A Hermitian operator
    whose imaginary part is exactly zero, as every horizontal symbol over a
    real-weighted rho assembles, is real symmetric and takes the real solve,
    a fraction of the cost of the complex one; any other keeps the complex solve.
    """
    entries = op.entries
    defect = op.hermitian_defect()
    if defect < 1e-10:
        sym = entries if np.any(entries.imag) else entries.real
        eigs = np.linalg.eigvalsh((sym + sym.conj().T) / 2.0).astype(complex)
    else:
        eigs = np.linalg.eigvals(entries)
    radius = float(np.max(np.abs(eigs)))
    opnorm = radius if defect < 1e-10 else float(np.linalg.norm(entries, 2))
    gvals = np.asarray(samples.values)
    gsup = float(np.max(np.abs(gvals)))
    if not np.any(np.imag(gvals)):
        # the real sample nearest an eigenvalue neighbours its real part in the sorted samples
        s = np.sort(np.real(gvals))
        i = np.searchsorted(s, eigs.real)
        near = np.minimum(np.abs(eigs - s[np.maximum(i - 1, 0)]), np.abs(eigs - s[np.minimum(i, s.size - 1)]))
    else:  # complex samples: eigenvalue row blocks, an eigenvalue costing q^n distances, never N x q^n
        near = row_blocks(eigs, gvals.size, lambda e: np.min(np.abs(e[:, None] - gvals), axis=1))
    return SpectrumReport(opnorm, radius, gsup, float(np.max(near)), defect)
