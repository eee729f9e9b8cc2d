import math
import tracemalloc

import numpy as np
import pytest

from focklab.basis import enumerate_basis
from focklab.indices import HalfIndex
from focklab.measures import (
    AlphaHorizontal,
    Horizontal,
    Lebesgue,
    RealAtoms,
    dirac,
    real_dirac,
    real_gaussian,
    weight,
)
from focklab.quadrature import tensor_rule
from focklab.spectral import (
    SpectralSamples,
    diagonalization_residual,
    gamma_2k,
    gamma_plain,
    gamma_samples,
    horizontal_rho,
    multiplication_matrix,
    norm_and_spectrum,
    spectral_grid,
)
from focklab.toeplitz import (
    assemble_real_coderivative,
    berezin_operator,
    horizontal_berezin_profile,
    interior_max_norm,
)

K0 = HalfIndex.from_doubled((0,))
K1 = HalfIndex.from_doubled((2,))


def test_gamma_of_point_mass():
    xs = np.array([[0.0], [0.5], [-1.2]])
    vals = gamma_plain(real_dirac([0.0]), xs)
    expected = math.sqrt(2 / math.pi) * np.exp(-xs[:, 0] ** 2)
    np.testing.assert_allclose(vals, expected, rtol=1e-14)


def test_gamma_of_lebesgue_is_one():
    vals = gamma_plain(Lebesgue(1), np.array([[0.0], [2.0]]))
    np.testing.assert_allclose(vals, 1.0, atol=1e-12)


def test_gamma_of_gaussian_closed_form():
    # completing the square: gamma(x) = sqrt(2/3) e^{-x^2/3}
    xs = np.array([[0.0], [0.7], [-1.5]])
    vals = gamma_plain(real_gaussian(1), xs)
    expected = math.sqrt(2.0 / 3.0) * np.exp(-xs[:, 0] ** 2 / 3.0)
    np.testing.assert_allclose(vals, expected, rtol=1e-12)


def test_gamma_2k_zero_order_reduces():
    xs = np.array([[0.3]])
    assert gamma_2k(real_gaussian(1), K0, xs)[0] == gamma_plain(real_gaussian(1), xs)[0]


def test_gamma_2k_of_point_mass():
    xs = np.array([[0.8], [0.2]])
    vals = gamma_2k(real_dirac([0.0]), K1, xs)
    expected = math.sqrt(2 / math.pi) * (8 * xs[:, 0] ** 2 - 2) * np.exp(-xs[:, 0] ** 2)
    np.testing.assert_allclose(vals, expected, rtol=1e-12)


def test_gamma_2k_of_lebesgue_is_degree_two_polynomial():
    # ladder algebra predicts gamma(x) = 2 x^2 - 1 for the order-2 symbol on Lebesgue
    xs = np.array([[0.0], [1.0], [-0.5]])
    vals = gamma_2k(Lebesgue(1), K1, xs)
    np.testing.assert_allclose(vals, 2 * xs[:, 0] ** 2 - 1, atol=1e-10)


def test_gamma_linearity_in_atoms():
    a1 = real_dirac([0.2])
    a2 = real_dirac([-0.9])
    mix = RealAtoms([[0.2], [-0.9]], [0.3, 0.7])
    xs = np.array([[0.4]])
    lhs = gamma_plain(mix, xs)[0]
    rhs = 0.3 * gamma_plain(a1, xs)[0] + 0.7 * gamma_plain(a2, xs)[0]
    assert lhs == pytest.approx(rhs, rel=1e-14)


def test_samples_of_positive_measure_are_nonnegative():
    samples = gamma_samples(real_gaussian(1), K0, order=40)
    assert np.all(samples.values.real >= 0)
    assert np.max(np.abs(samples.values.imag)) <= 1e-14


def sampled(f, n, order):
    """Order-0 SpectralSamples holding the values of the function f on the order-q spectral grid."""
    return SpectralSamples((np.asarray(f(spectral_grid(n, order))).reshape((order,) * n),),
                           HalfIndex((0,) * n), order)


def test_multiplication_matrix_identity():
    b = enumerate_basis(1, 8)
    m = multiplication_matrix(sampled(lambda p: np.ones(p.shape[0]), 1, 40), b)
    np.testing.assert_allclose(m.entries, np.eye(b.size), atol=1e-13)


def test_multiplication_matrix_coordinate():
    # <x h_a, h_{a+1}> = sqrt((a+1)/2), Hermite recurrence
    b = enumerate_basis(1, 8)
    m = multiplication_matrix(sampled(lambda p: p[:, 0], 1, 40), b).entries
    for a in range(8):
        assert m[a + 1, a] == pytest.approx(math.sqrt((a + 1) / 2), rel=1e-12)
    assert np.max(np.abs(np.diag(m))) <= 1e-13


def test_multiplication_matrix_coordinate_squared():
    b = enumerate_basis(1, 8)
    m = multiplication_matrix(sampled(lambda p: p[:, 0] ** 2, 1, 40), b).entries
    for a in range(9):
        assert m[a, a] == pytest.approx(a + 0.5, rel=1e-12)


def test_multiplication_matrix_rejects_low_order():
    b = enumerate_basis(1, 30)
    with pytest.raises(ValueError, match="order"):
        multiplication_matrix(sampled(lambda p: np.ones(p.shape[0]), 1, 20), b)


def test_diagonalization_identity_symbol():
    b = enumerate_basis(1, 10)
    rep = diagonalization_residual(Lebesgue(1), K0, b)
    assert rep.residual <= 1e-10


GALLERY = {
    "dirac0": real_dirac([0.0]),
    "dirac07": real_dirac([0.7]),
    "gauss": real_gaussian(1),
    "two-atom": RealAtoms([[-0.4], [0.9]], [0.6, 0.4]),
}


@pytest.mark.parametrize("name", sorted(GALLERY))
def test_diagonalization_gallery_plain(name):
    b = enumerate_basis(1, 10)
    rep = diagonalization_residual(GALLERY[name], K0, b)
    assert rep.residual <= 1e-6


@pytest.mark.parametrize("name", sorted(GALLERY))
def test_diagonalization_gallery_order_two(name):
    b = enumerate_basis(1, 10)
    rep = diagonalization_residual(GALLERY[name], K1, b)
    assert rep.residual <= 1e-5


def test_diagonalization_rejects_non_horizontal():
    b = enumerate_basis(1, 8)
    with pytest.raises(ValueError, match="horizontal"):
        diagonalization_residual(dirac([0.4 + 0.7j]), K0, b)


def test_diagonalization_accepts_horizontal_spec():
    b = enumerate_basis(1, 8)
    rep = diagonalization_residual(Horizontal(real_gaussian(1)), K0, b)
    assert rep.residual <= 1e-10


def test_diagonalization_accepts_the_alpha_zero_product():
    # AlphaHorizontal(rho) is the horizontal measure itself; alpha != 0 is refused
    b = enumerate_basis(1, 8)
    rho = real_gaussian(1)
    assert horizontal_rho(AlphaHorizontal(rho)) is rho
    rep = diagonalization_residual(AlphaHorizontal(rho, (0,)), K0, b)
    np.testing.assert_array_equal(rep.toeplitz.entries, diagonalization_residual(rho, K0, b).toeplitz.entries)
    assert rep.residual <= 1e-10
    assert horizontal_rho(AlphaHorizontal(rho, (2,))) is None and horizontal_rho(dirac([0.4j])) is None
    with pytest.raises(ValueError, match="horizontal"):
        diagonalization_residual(AlphaHorizontal(rho, (2,)), K0, b)


def test_kernel_route_residual_decreases_with_truncation():
    coarse = diagonalization_residual(real_gaussian(1), K0, enumerate_basis(1, 10))
    fine = diagonalization_residual(real_gaussian(1), K0, enumerate_basis(1, 14))
    assert fine.berezin_gap < coarse.berezin_gap


def test_berezin_of_multiplication_matrix_matches_profile():
    # the kernel route through the Hermite side lands on the same profile
    b = enumerate_basis(1, 16)
    rho = real_gaussian(1)
    m = multiplication_matrix(gamma_samples(rho, K0), b)
    for z in (0.0, 0.5, 0.5 + 0.5j, -0.8 + 0.2j):
        lhs = berezin_operator(m, [z])
        rhs = horizontal_berezin_profile(rho, [complex(z).real])
        assert lhs == pytest.approx(rhs, abs=1e-6)


def test_spectrum_report_identity():
    b = enumerate_basis(1, 8)
    from focklab.toeplitz import OperatorMatrix

    eye = OperatorMatrix(b, np.eye(b.size, dtype=complex))
    samples = gamma_samples(Lebesgue(1), K0, order=40)
    rep = norm_and_spectrum(eye, samples)
    assert rep.operator_norm == pytest.approx(1.0, abs=1e-12)
    assert rep.spectral_radius == pytest.approx(1.0, abs=1e-12)
    assert rep.gamma_sup == pytest.approx(1.0, abs=1e-12)
    assert rep.eig_to_range <= 1e-10


def test_norm_approaches_sup_gamma_from_below():
    rho = real_dirac([0.0])
    sup_gamma = math.sqrt(2 / math.pi)
    gaps = []
    for d in (8, 12, 16):
        b = enumerate_basis(1, d)
        from focklab.toeplitz import assemble_toeplitz

        t = assemble_toeplitz(Horizontal(rho), b)
        nrm = float(np.linalg.norm(t.entries, 2))
        assert nrm <= sup_gamma
        gaps.append(sup_gamma - nrm)
    assert gaps[0] > gaps[1] > gaps[2]


def test_eigenvalues_lie_near_sampled_range():
    # every truncated eigenvalue sits close to the densely sampled gamma range
    b = enumerate_basis(1, 16)
    for rho in (real_dirac([0.0]), real_gaussian(1)):
        from focklab.toeplitz import assemble_toeplitz

        t = assemble_toeplitz(Horizontal(rho), b)
        dense = np.linspace(-8, 8, 4001)[:, None]
        gvals = gamma_plain(rho, dense)
        eigs = np.linalg.eigvalsh((t.entries + t.entries.conj().T) / 2)
        dist = np.abs(eigs[:, None] - gvals[None, :].real)
        worst = float(np.max(np.min(dist, axis=1)))
        assert worst <= 0.05 * float(np.max(np.abs(gvals)))


def test_interior_commutator_of_two_horizontal_symbols():
    from focklab.toeplitz import assemble_toeplitz

    b = enumerate_basis(1, 16)
    t1 = assemble_toeplitz(Horizontal(real_dirac([0.0])), b).entries
    t2 = assemble_toeplitz(Horizontal(real_gaussian(1)), b).entries
    # truncation leakage decays exponentially in D; at D=16 this pair sits
    # near 1.5e-4 on the interior block and vanishes by D=28
    assert interior_max_norm(t1 @ t2 - t2 @ t1, b) <= 1e-3


def test_diagonalization_in_two_dimensions():
    # tensor machinery end to end: gamma on the R^2 node grid vs the n=2 operator
    b = enumerate_basis(2, 6)
    rho = real_gaussian(2)
    for k in (HalfIndex.from_doubled((0, 0)), HalfIndex.from_doubled((2, 0))):
        rep = diagonalization_residual(rho, k, b, spectral_order=40)
        assert rep.residual <= 1e-8


def test_alpha_horizontal_reduction_diagonalizes():
    # weighting an alpha-horizontal product by alpha lands on a horizontal
    # symbol whose order-(2k-2alpha) operator matches its spectral function
    alpha = HalfIndex.from_ints([1])
    k = HalfIndex.from_ints([2])
    rho = real_gaussian(1)
    mu = AlphaHorizontal(rho, alpha.doubled)
    reduced = weight(mu, alpha)
    assert isinstance(reduced, Horizontal) and reduced.alpha_doubled == (0,)
    b = enumerate_basis(1, 10)
    t = assemble_real_coderivative(reduced, k - alpha, b)
    samples = gamma_samples(weight(rho, alpha), k - alpha)
    m = multiplication_matrix(samples, b)
    assert interior_max_norm(t.entries - m.entries, b) <= 1e-8


def test_diagonalization_report_carries_its_gamma_samples():
    b = enumerate_basis(1, 8)
    rep = diagonalization_residual(real_gaussian(1), K1, b, 40, 60)
    again = gamma_samples(real_gaussian(1), K1, 60, 40)
    assert rep.samples.k == K1 and rep.samples.quad_order == 60
    np.testing.assert_array_equal(rep.samples.grid, again.grid)
    np.testing.assert_array_equal(rep.samples.values, again.values)


def test_samples_with_a_tuple_k_feed_the_multiplication_matrix():
    # gamma_samples reads k as doubled entries and stores it as a HalfIndex
    samples = gamma_samples(real_gaussian(2), (1, 1), order=24)
    assert samples.k == HalfIndex.from_doubled((1, 1))
    b = enumerate_basis(2, 6)
    np.testing.assert_array_equal(multiplication_matrix(samples, b).entries,
                                  multiplication_matrix(gamma_samples(real_gaussian(2), HalfIndex.from_doubled((1, 1)),
                                                                      order=24), b).entries)


def test_operator_norm_of_both_branches_is_the_svd_norm():
    from focklab.toeplitz import OperatorMatrix, assemble_toeplitz

    b = enumerate_basis(2, 8)
    samples = gamma_samples(real_gaussian(2), (0, 0), order=24)
    hermitian = assemble_toeplitz(Horizontal(real_gaussian(2)), b)
    skew = OperatorMatrix(b, hermitian.entries @ np.diag(np.exp(1j * np.arange(b.size))))
    for op, eigvalsh_branch in ((hermitian, True), (skew, False)):
        rep = norm_and_spectrum(op, samples)
        assert (rep.hermitian_defect < 1e-10) is eigvalsh_branch
        assert rep.operator_norm == pytest.approx(float(np.linalg.norm(op.entries, 2)), rel=1e-12)


def brute_force_distance(eigs, gvals):
    return float(np.max(np.min(np.abs(eigs[:, None] - gvals[None, :]), axis=1)))


@pytest.mark.parametrize("n, degree", [(1, 20), (2, 12)])
@pytest.mark.parametrize("rho", [real_gaussian, lambda n: RealAtoms([[0.3] * n, [-0.8] * n], [0.6, 0.4 - 0.2j])],
                         ids=["real-samples", "complex-samples"])
def test_eig_to_range_is_the_brute_force_distance(rho, n, degree, monkeypatch):
    from focklab import quadrature
    from focklab.toeplitz import OperatorMatrix, assemble_toeplitz

    monkeypatch.setattr(quadrature, "_BLOCK", 1_000)  # blocks of a few eigenvalues for complex samples
    b = enumerate_basis(n, degree)
    samples = gamma_samples(rho(n), (0,) * n, 24)
    hermitian = assemble_toeplitz(Horizontal(rho(n)), b)
    skew = OperatorMatrix(b, hermitian.entries @ np.diag(np.exp(1j * np.arange(b.size))))
    for op in (hermitian, skew):
        # the route norm_and_spectrum takes: an exactly real Hermitian operator is solved as real
        entries = op.entries if np.any(op.entries.imag) else op.entries.real
        eigs = (np.linalg.eigvalsh((entries + entries.conj().T) / 2.0).astype(complex)
                if op.hermitian_defect() < 1e-10 else np.linalg.eigvals(entries))
        assert norm_and_spectrum(op, samples).eig_to_range == brute_force_distance(eigs, samples.values)


def test_norm_and_spectrum_stays_under_memory_bound():
    # the eigenvalue-by-sample distance array would be 231 x 6,400 complex values (24 MB)
    from focklab.toeplitz import assemble_toeplitz

    b = enumerate_basis(2, 20)
    samples = gamma_samples(real_gaussian(2), (0, 0), 80)
    op = assemble_toeplitz(Horizontal(real_gaussian(2)), b)
    tracemalloc.start()
    try:
        rep = norm_and_spectrum(op, samples)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5e6
    assert rep.eig_to_range < 0.05


def phi_reference(gamma, basis, order=80):
    """The Hermite-side matrix as (Phi * w gamma) @ Phi.T, Phi[pos, i] = prod_j hhat_{alpha_j}(x_ij)
    built position by position on the order-q tensor nodes: the algorithm before the contraction."""
    pts, wts = tensor_rule([order] * basis.n).grid()
    vals = gamma.values
    axis_vals = []
    for j in range(basis.n):
        x = pts[:, j]
        h = np.empty((basis.degree + 1, x.size))
        h[0] = math.pi ** (-0.25)
        if basis.degree >= 1:
            h[1] = math.sqrt(2.0) * x * h[0]
        for m in range(1, basis.degree):
            h[m + 1] = x * math.sqrt(2.0 / (m + 1)) * h[m] - math.sqrt(m / (m + 1)) * h[m - 1]
        axis_vals.append(h)
    phi = np.ones((basis.size, pts.shape[0]))
    for pos, alpha in enumerate(basis.indices):
        for j in range(basis.n):
            phi[pos] = phi[pos] * axis_vals[j][alpha[j]]
    return (phi * (wts * vals)[None, :]) @ phi.T


def _complex_gamma(p):
    return np.exp(-p[:, 0] ** 2) * (1.0 + p[:, 1] - 0.5j * p[:, 0] * p[:, 1])


@pytest.mark.parametrize("make, n, degree, order", [
    (lambda: gamma_samples(RealAtoms([[0.3], [-0.8]], [0.6, 0.4 - 0.2j]), K0, 80), 1, 60, 80),
    (lambda: gamma_samples(real_gaussian(2), (0, 0), 80), 2, 16, 80),
    (lambda: sampled(_complex_gamma, 2, 80), 2, 16, 80),
    (lambda: gamma_samples(real_gaussian(3), (2, 0, 0), 16), 3, 8, 16),
], ids=["n1-atoms", "n2-gaussian", "n2-sampled-function", "n3"])
def test_multiplication_matrix_matches_the_per_position_phi_product(make, n, degree, order):
    gamma, b = make(), enumerate_basis(n, degree)
    got = multiplication_matrix(gamma, b).entries
    want = phi_reference(gamma, b, order)
    assert got.shape == want.shape == (b.size, b.size)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_multiplication_matrix_at_n3_degree16_stays_under_memory_bound():
    # the per-position Phi table alone is N x q^n = 969 x 13,824 floats (107 MB); the traced peak was 551 MB
    samples = gamma_samples(real_gaussian(3), 0, 24)
    b = enumerate_basis(3, 16)
    tracemalloc.start()
    try:
        multiplication_matrix(samples, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100e6
