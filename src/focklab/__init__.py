"""Truncated Fock-space Toeplitz operators with measure symbols.

Dense assembly of operators defined by Borel measures on C^n (including
derivative-pairing symbols), windowed Carleson-type boundedness
certification, and the unitary diagonalization of horizontal and
Lagrangian-invariant symbols into multiplication by spectral functions.
"""

from .basis import BasisSet, enumerate_basis, kernel_coefficients, normalized_kernel, weyl_matrix
from .carleson import CarlesonReport, carleson_constant, condition_m, kfc_verdict, weight_shift_check
from .indices import HalfIndex, factorial, graded_lex_indices, hermite
from .lagrangian import LagrangianFrame, is_lagrangian, l_invariance_test, rotation_to_vertical, vx_matrix
from .measures import (
    AlphaHorizontal,
    Atoms,
    Density,
    Horizontal,
    Lebesgue,
    Product,
    RealAtoms,
    RealDensity,
    RealProduct,
    ball_mass,
    dirac,
    gaussian_density,
    lebesgue,
    moment,
    parse_measure,
    parse_real_measure,
    pushforward,
    real_dirac,
    real_gaussian,
    variation,
    weight,
)
from .quadrature import QuadRule, TensorRule, gauss_hermite, integrate_gaussian, tensor_rule
from .spectral import (
    SpectralSamples,
    diagonalization_residual,
    gamma_2k,
    gamma_plain,
    gamma_samples,
    multiplication_matrix,
    norm_and_spectrum,
)
from .toeplitz import (
    AccuracyDomainWarning,
    OperatorMatrix,
    assemble_coderivative,
    assemble_real_coderivative,
    assemble_toeplitz,
    berezin_coderivative,
    berezin_measure,
    berezin_operator,
    interior_max_norm,
)

__version__ = "0.1.0"
