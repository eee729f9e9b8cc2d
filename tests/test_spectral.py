import math

import numpy as np
import pytest

from focklab.basis import enumerate_basis
from focklab.indices import HalfIndex
from focklab.measures import (
    AlphaHorizontal,
    Horizontal,
    Lebesgue,
    RealAtoms,
    RealDensity,
    dirac,
    real_dirac,
    real_gaussian,
    weight,
)
from focklab import spectral
from focklab.indices import hermite, select_table
from focklab.measures import real_nodes
from focklab.quadrature import contract_axes, gather_axes, gauss_hermite, tensor_rule
from focklab.spectral import (
    diagonalization_residual,
    gamma_2k,
    gamma_plain,
    gamma_samples,
    hermite_function_matrix,
    horizontal_rho,
    multiplication_matrix,
    norm_and_spectrum,
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


@pytest.mark.parametrize("degree", [10, 30, 60])
def test_multiplication_matrix_of_lebesgue_is_the_identity(degree):
    # gamma_{Lebesgue,0} = 1, and the Hermite side is exact in both y and s
    b = enumerate_basis(1, degree)
    m = multiplication_matrix(Lebesgue(1), 0, b)
    np.testing.assert_allclose(m.entries, np.eye(b.size), atol=1e-13)


def test_hermite_functions_are_orthonormal_under_gauss_hermite():
    # hhat_a hhat_b is a polynomial of degree <= 120, which the order-61 rule integrates exactly
    rule = gauss_hermite(61)
    h = hermite_function_matrix(60, rule.nodes)
    np.testing.assert_allclose((h * rule.weights) @ h.T, np.eye(61), atol=1e-13)


def test_hermite_functions_satisfy_the_three_term_recurrence():
    # x hhat_m = sqrt((m+1)/2) hhat_{m+1} + sqrt(m/2) hhat_{m-1}: the matrix of x in the Hermite basis
    x = np.linspace(-3.0, 3.0, 13)
    h = hermite_function_matrix(30, x)
    m = np.arange(1, 30)[:, None]
    np.testing.assert_allclose(x * h[1:30], np.sqrt((m + 1) / 2) * h[2:] + np.sqrt(m / 2) * h[:29],
                               rtol=1e-12, atol=1e-12 * np.max(np.abs(h)))
    np.testing.assert_allclose(x * h[0], np.sqrt(0.5) * h[1], rtol=1e-14)


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
    m = multiplication_matrix(rho, K0, b)
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
        rep = diagonalization_residual(rho, k, b)
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
    m = multiplication_matrix(weight(rho, alpha), k - alpha, b)
    assert interior_max_norm(t.entries - m.entries, b) <= 1e-8


def test_multiplication_matrix_reads_a_tuple_k_as_doubled_entries():
    b = enumerate_basis(2, 6)
    np.testing.assert_array_equal(multiplication_matrix(real_gaussian(2), (1, 1), b).entries,
                                  multiplication_matrix(real_gaussian(2), HalfIndex.from_doubled((1, 1)), b).entries)


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


def test_norm_and_spectrum_stays_under_memory_bound(traced_peak):
    # the eigenvalue-by-sample distance array would be 231 x 6,400 complex values (24 MB)
    from focklab.toeplitz import assemble_toeplitz

    b = enumerate_basis(2, 20)
    samples = gamma_samples(real_gaussian(2), (0, 0), 80)
    op = assemble_toeplitz(Horizontal(real_gaussian(2)), b)
    rep, peak = traced_peak(lambda: norm_and_spectrum(op, samples))
    assert peak < 5e6
    assert rep.eig_to_range < 0.05


def phi_reference(rho, two_k, basis, order):
    """The Hermite-side matrix as (Phi * W) @ Phi.T over the joint nodes (y, s_1, .., s_n), built position
    by position: y runs over ``real_nodes(rho, 0, max(order, D + 1))``, s_j over the order-(D + floor(2k_j/2) + 1)
    rule, Phi[pos, (i, s)] = prod_j hhat_{alpha_j}((y_ij + s_j) / sqrt2) and W = pi^{-n/2} w_i prod_j w_s H_{2k_j}(s_j)."""
    y, wy = real_nodes(rho, np.zeros(basis.n), max(order, basis.degree + 1))
    rules = [gauss_hermite(basis.degree + t // 2 + 1) for t in two_k]
    s_pts, s_wts = tensor_rule([r.order for r in rules]).grid()
    s_wts = s_wts * np.prod([hermite(t, s_pts[:, j]) for j, t in enumerate(two_k)], axis=0)
    x = (y[:, None, :] + s_pts[None, :, :]).reshape(-1, basis.n) / math.sqrt(2.0)
    w = math.pi ** (-basis.n / 2) * (wy[:, None] * s_wts[None, :]).ravel()
    axis_vals = [hermite_function_matrix(basis.degree, x[:, j]) for j in range(basis.n)]
    phi = np.ones((basis.size, x.shape[0]))
    for pos, alpha in enumerate(basis.indices):
        for j in range(basis.n):
            phi[pos] = phi[pos] * axis_vals[j][alpha[j]]
    return (phi * w[None, :]) @ phi.T


@pytest.mark.parametrize("rho, two_k, degree, order", [
    (RealAtoms([[0.3], [-0.8]], [0.6, 0.4 - 0.2j]), (0,), 60, 40),
    (real_gaussian(2), (0, 0), 10, 11),
    (RealAtoms([[0.3, 0.5], [-0.8, 0.1]], [0.6, 0.4 - 0.2j]), (2, 1), 10, 11),
    (real_gaussian(3), (2, 0, 0), 5, 6),
], ids=["n1-atoms", "n2-gaussian", "n2-flat-atoms", "n3"])
def test_multiplication_matrix_matches_the_per_position_phi_product(rho, two_k, degree, order):
    b = enumerate_basis(len(two_k), degree)
    got = multiplication_matrix(rho, two_k, b, order).entries
    want = phi_reference(rho, two_k, b, order)
    assert got.shape == want.shape == (b.size, b.size)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_multiplication_matrix_at_n3_degree16_stays_under_memory_bound(traced_peak):
    # the per-position Phi table alone would be N x q^n = 969 x 13,824 floats (107 MB) on a 24^3 grid
    b = enumerate_basis(3, 16)
    _, peak = traced_peak(lambda: multiplication_matrix(real_gaussian(3), 0, b, 24))
    assert peak < 100e6


def relative_residual(report):
    return report.residual / np.max(np.abs(report.multiplication.entries))


def test_dirac_at_degree_60_order_two_is_exact_over_the_full_block():
    # the sampled Hermite side left the two matrices 4.3e-2 apart here
    rep = diagonalization_residual(Horizontal(real_dirac([0.0])), K1, enumerate_basis(1, 60))
    assert relative_residual(rep) <= 1e-13
    assert np.max(np.abs(rep.toeplitz.entries - rep.multiplication.entries)) == rep.residual


@pytest.mark.parametrize("two_k", [0, 2, 4])
@pytest.mark.parametrize("name", ["dirac0", "two-atom", "gauss"])
def test_full_block_residual_at_degree_120(name, two_k):
    rep = diagonalization_residual(GALLERY[name], (two_k,), enumerate_basis(1, 120))
    assert relative_residual(rep) <= 1e-12


@pytest.mark.parametrize("rho, k", [
    (RealAtoms([[-0.4, 0.9], [0.9, -0.4]], [0.6, 0.4]), (2, 0)),
    (real_gaussian(2), (0, 0)),
    (real_gaussian(2), (2, 2)),
    (real_gaussian(3), (0, 0, 0)),
], ids=["n2-two-atoms", "n2-gaussian", "n2-gaussian-2k22", "n3-gaussian"])
def test_full_block_residual_at_degree_16_in_several_dimensions(rho, k):
    rep = diagonalization_residual(rho, k, enumerate_basis(len(k), 16))
    assert relative_residual(rep) <= 1e-13


def test_the_residual_samples_no_gamma(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("gamma_samples called")

    monkeypatch.setattr(spectral, "gamma_samples", refuse)
    rep = diagonalization_residual(real_gaussian(2), (2, 0), enumerate_basis(2, 8))
    assert rep.residual <= 1e-13


def flat_density(n):
    """A non-product density on R^n, so its gamma samples come as one flat array."""
    return RealDensity(lambda p: np.exp(-np.sum(p ** 2, axis=1) / 3.0) * (1.0 + p[:, 0] * p[:, -1]), n)


@pytest.mark.parametrize("rho, two_k, order", [
    (real_gaussian(1), (1,), 80),
    (real_gaussian(2), (1, 3), 80),
    (real_gaussian(3), (3, 1, 1), 24),
    (flat_density(2), (1, 0), 40),
    (RealAtoms([[0.3, -0.5], [-0.8, 0.2], [0.1, 0.9]], [0.6, 0.3, 0.5]), (1, 2), 60),
], ids=["product-n1", "product-n2", "product-n3", "flat-n2", "atoms-n2"])
def test_sup_is_the_max_modulus_of_the_flat_values(rho, two_k, order):
    samples = gamma_samples(rho, two_k, order)
    assert samples.sup == float(np.max(np.abs(samples.values)))
    if any(t % 2 for t in two_k):  # an odd 2k_j makes gamma change sign, so the sup is not the max
        assert samples.values.min() < 0.0 < samples.values.max()


def gathered_hermite_route(rho, two_k, basis, order):
    """The Hermite-side matrix as its own route built it: one ``_hermite_kernel`` per axis contracted
    at order max(order, D + 1), a product's one-axis tables gathered, then the basis selected."""
    q = max(order, basis.degree + 1)

    def table(r, tk):
        axes, grid = r.axis_grid(q)
        return contract_axes([spectral._hermite_kernel(y if np.ndim(y) else gauss_hermite(q).nodes / y, basis.degree, t)
                              for y, t in zip(axes, tk)], grid, basis.degree)

    factors = rho.axis_factors()
    if factors is None:
        keys, full = table(rho, two_k)
    else:
        keys, full = gather_axes([table(f, (t,))[1] for f, t in zip(factors, two_k)], basis.degree)
    return select_table(keys, full, basis.indices)


@pytest.mark.parametrize("rho, two_k, degree", [
    (real_gaussian(2), (1, 2), 12),
    (real_gaussian(3), (0, 3, 2), 8),
    (RealAtoms([[0.3, -0.5], [-0.8, 0.2], [0.3, 0.9]], [0.6, 0.3, 0.5]), (2, 1), 10),
    (flat_density(2), (0, 2), 10),
], ids=["product-n2", "product-n3", "atoms-n2", "flat-n2"])
@pytest.mark.parametrize("order", [40, 7])
def test_multiplication_matrix_is_the_gathered_hermite_table(rho, two_k, degree, order):
    basis = enumerate_basis(len(two_k), degree)
    np.testing.assert_array_equal(multiplication_matrix(rho, two_k, basis, order).entries,
                                  gathered_hermite_route(rho, two_k, basis, order))
