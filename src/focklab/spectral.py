"""Spectral functions of horizontal symbols and their Hermite-side matrices.

A horizontal Toeplitz operator is unitarily equivalent, through the basis correspondence
e_alpha <-> h_alpha (normalized Hermite functions), to multiplication by a spectral function
gamma on L2(R^n).  The Hermite-side matrix of that multiplication is built from rho, not from
samples of gamma: with h_a = hhat_a e^{-x^2/2} and x = (y + s)/sqrt2, the x-integral against a
rho-node y is a Gauss-Hermite sum in s, exact at order D + floor(2k_j/2) + 1, and the y-integral
runs over rho's ``axis_grid``, which the Fock side's moment pass contracts too.  The Hermite side
is a symbol ``measures.moment_table`` integrates, so both sides of ``diagonalization_residual``
share one discretization of rho, one order floor and one gather of a product's one-axis tables.
gamma samples on the order-q tensor Gauss-Hermite grid serve the spectral report and gamma.csv.
Whether a measure is horizontal is decided in one place, ``horizontal_rho``, which the residual and the CLI read.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .basis import BasisSet
from .indices import HalfIndex, hermite
from .measures import DEFAULT_ORDER, AlphaHorizontal, MeasureSpec, dimension, moment_table, real_sums
from .quadrature import blocks, check_nodes, contract_axes, gauss_hermite, row_blocks, tensor_grid
from .toeplitz import OperatorMatrix, assemble_real_coderivative, berezin_coderivative, berezin_operator

DEFAULT_SPECTRAL_ORDER = 80


@dataclass(frozen=True, eq=False)
class SpectralSamples:
    """gamma_{rho,2k} on the tensor Gauss-Hermite nodes of ``quad_order``, with its order k.

    For a product rho, gamma = prod_j gamma_{rho_j,2k_j}(x_j) and ``factors`` holds one q-vector
    per axis; otherwise it holds gamma as one array of shape (q,) * n.  The nodes and the flat
    values are built on demand, once, so past ``quadrature.MAX_NODES`` they are refused.
    """

    factors: tuple
    k: HalfIndex
    quad_order: int

    @property
    def grid(self) -> np.ndarray:
        return spectral_grid(self.k.n, self.quad_order)

    @functools.cached_property
    def values(self) -> np.ndarray:
        check_nodes(self.quad_order ** self.k.n)
        return functools.reduce(np.multiply.outer, self.factors).ravel()

    @property
    def sup(self) -> float:
        return float(np.max(np.abs(self.values)))


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
    """SpectralSamples grid: the order-q Gauss-Hermite nodes on every axis, laid out in C order."""
    rule = gauss_hermite(order)
    return tensor_grid([rule.nodes] * n, [rule.weights] * n)[0]


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


def _hermite_kernel(y, degree: int, doubled: int) -> np.ndarray:
    """K[i, a, b] = pi^{-1/2} sum_s w_s H_{2k}(s) hhat_a(x) hhat_b(x) at x = (y_i + s) / sqrt2, (y-values, D+1, D+1):
    the integrand is a polynomial of degree 2D + 2k in s, so the order-(D + floor(2k/2) + 1) rule is exact."""
    rule = gauss_hermite(degree + doubled // 2 + 1)
    x = (y[:, None] + rule.nodes) / math.sqrt(2.0)
    h = hermite_function_matrix(degree, x.ravel()).reshape((degree + 1,) + x.shape).transpose(1, 2, 0)
    w = rule.weights * hermite(doubled, rule.nodes) / math.sqrt(math.pi)
    return np.matmul(np.swapaxes(h, 1, 2), h * w[:, None])


@dataclass(frozen=True)
class _HermiteSide:
    """The Hermite side of gamma_{rho,2k}, per axis rho_j with 2k_j, as a symbol ``moment_table`` integrates
    (equal axes share one table): one ``_hermite_kernel`` per axis contracted against rho's weight grid."""

    rho: object
    two_k: tuple[int, ...]

    def axis_factors(self):
        factors = self.rho.axis_factors()
        return None if factors is None else tuple(map(_HermiteSide, factors, zip(self.two_k)))

    def moments(self, maxdeg: int, order: int):
        axes, grid = self.rho.axis_grid(order)
        return contract_axes([_hermite_kernel(y if np.ndim(y) else gauss_hermite(order).nodes / y, maxdeg, t)
                              for y, t in zip(axes, self.two_k)], grid, maxdeg)


def multiplication_matrix(rho, k: HalfIndex, basis: BasisSet, order: int = DEFAULT_ORDER) -> OperatorMatrix:
    """Matrix of multiplication by gamma_{rho,2k} in the orthonormal Hermite-function basis,
    M[a, b] = pi^{-n/2} int e^{-|y|^2} drho(y) prod_j sum_s w_s H_{2k_j}(s) hhat_{a_j} hhat_{b_j}((y_j + s) / sqrt2),
    exact in s: the ``moment_table`` of the Hermite side, on rho's nodes at the moment pass's order
    max(``order``, D + 1), the Fock side's discretization of rho."""
    two_k = HalfIndex.of(k, basis.n).order_index()
    if dimension(rho) != basis.n:
        raise ValueError(f"rho on {dimension(rho)} axes does not fit a basis on {basis.n}")
    return OperatorMatrix(basis, moment_table(_HermiteSide(rho, two_k), basis.indices, order))


@dataclass(frozen=True)
class DiagonalizationReport:
    """Dual-path comparison of a horizontal operator with its spectral function."""

    residual: float
    berezin_gap: float
    toeplitz: OperatorMatrix = field(repr=False)
    multiplication: OperatorMatrix = field(repr=False)


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
                             moment_order: int = DEFAULT_ORDER) -> DiagonalizationReport:
    """Full-block max difference between the Fock-side operator matrix and the Hermite-side
    multiplication matrix for the same horizontal symbol.  Both integrate rho on the same nodes,
    so the residual checks the diagonalization identity on that discretization of rho, to
    rounding at every D; rho's own quadrature error is not in it.

    Also reports the Berezin-route gap against ``berezin_coderivative``, the
    independent kernel-based path, at five points taken as rows by both routes: it
    carries the truncation error of the kernel expansion and shrinks as D grows.
    """
    k = HalfIndex.of(k, basis.n)
    rho = _extract_rho(mu_or_rho)
    mu = AlphaHorizontal(rho)
    top = assemble_real_coderivative(mu, k, basis, moment_order)
    mult = multiplication_matrix(rho, k, basis, moment_order)
    # in row blocks, so no N x N difference is formed
    residual = max(float(np.max(np.abs(top.entries[s] - mult.entries[s]))) for s in blocks(basis.size, basis.size))

    z = np.outer([0.0, 0.4, 0.4 + 0.3j, -0.6 + 0.2j, 0.8j], np.ones(basis.n))
    gap = float(np.max(np.abs(berezin_operator(top, z) - berezin_coderivative(mu, k, z, moment_order))))
    return DiagonalizationReport(residual, gap, top, mult)


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
    if not np.any(np.imag(gvals)):
        # the real sample nearest an eigenvalue neighbours its real part in the sorted samples
        s = np.sort(np.real(gvals))
        i = np.searchsorted(s, eigs.real)
        near = np.minimum(np.abs(eigs - s[np.maximum(i - 1, 0)]), np.abs(eigs - s[np.minimum(i, s.size - 1)]))
    else:  # complex samples: eigenvalue row blocks, an eigenvalue costing q^n distances, never N x q^n
        near = row_blocks(eigs, gvals.size, lambda e: np.min(np.abs(e[:, None] - gvals), axis=1))
    return SpectrumReport(opnorm, radius, samples.sup, float(np.max(near)), defect)
