import itertools
import math

import numpy as np
import pytest

from focklab.basis import enumerate_basis
from focklab.carleson import (
    carleson_constant,
    condition_m,
    kfc_verdict,
    lattice,
    weight_shift_check,
)
from focklab.indices import HalfIndex
from focklab.measures import (
    Density,
    Horizontal,
    ball_mass,
    dirac,
    gaussian_density,
    lebesgue,
    real_gaussian,
    weight,
)
from focklab.spectral import gamma_2k, gamma_samples
from focklab.toeplitz import assemble_real_coderivative, berezin_coderivative

K0 = HalfIndex.from_doubled((0,))
K1 = HalfIndex.from_ints((1,))


def test_lattice_shape_and_boundary():
    z, boundary = lattice(1, 2.0, 0.5)
    assert z.shape == (81, 1)
    assert boundary.sum() == 81 - 49  # outer shell of the 9x9 grid
    assert np.any(np.all(z == 0, axis=1))


def test_window_below_spacing_is_refused():
    # the lattice is then the origin alone, a boundary point, so growth could not be told from a bound
    assert lattice(1, 0.4, 0.5)[1].tolist() == [True]
    with pytest.raises(ValueError, match="window 0.4 < spacing 0.5"):
        carleson_constant(lebesgue(1), (2,), (1.0,), window=0.4, spacing=0.5)
    with pytest.raises(ValueError, match="no interior"):
        condition_m(lebesgue(1), window=0.4, spacing=0.5)


def test_condition_m_unit_atom_is_flat():
    rep = condition_m(dirac([0.0]))
    assert rep.verbatim.sup_estimate == pytest.approx(1.0, rel=1e-12)
    assert not rep.verbatim.growth_detected


def test_condition_m_lebesgue_grows_verbatim_but_is_bounded_normalized():
    # closed form: int |K_z|^2 e^{-|w|^2} dnu = pi^n e^{|z|^2}, unbounded;
    # the normalized transform is identically 1
    rep = condition_m(lebesgue(1))
    assert rep.verbatim.growth_detected
    corner = math.pi * math.exp(8.0)  # |z|^2 = 8 at the (2, 2) corner
    assert rep.verbatim.sup_estimate == pytest.approx(corner, rel=1e-10)
    assert rep.normalized.sup_estimate == pytest.approx(1.0, rel=1e-10)
    assert not rep.normalized.growth_detected


def test_condition_m_gaussian_normalized_peaks_at_origin():
    # Gaussian convolution oracle: mu~(z) = 2^{-n} e^{-|z|^2/2}
    rep = condition_m(gaussian_density(1))
    assert rep.normalized.sup_estimate == pytest.approx(0.5, rel=1e-10)
    assert rep.normalized.argmax == (0j,)
    assert not rep.normalized.growth_detected
    assert rep.verbatim.growth_detected


def test_carleson_constant_lebesgue_disk_area():
    rep = carleson_constant(lebesgue(1), K0, [1.0])
    assert rep.sup_estimate == pytest.approx(math.pi, abs=1e-9)
    assert not rep.growth_detected


def test_carleson_constant_weighted_example_matches_lebesgue():
    # the rational density weighted by k is plain Lebesgue
    mu = Density(lambda p: 1.0 / ((1 + p[:, 0].real ** 2) * (1 + p[:, 0].imag ** 2)), 1)
    rep = carleson_constant(mu, K1, [1.0])
    assert rep.sup_estimate == pytest.approx(math.pi, abs=1e-8)


def test_carleson_constant_unit_atom():
    rep = carleson_constant(dirac([0.0]), K0, [1.0])
    assert rep.sup_estimate == pytest.approx(1.0, rel=1e-12)


def test_carleson_constant_monotone_in_window():
    mu = gaussian_density(1)
    small = carleson_constant(mu, K0, [1.0], window=1.0)
    large = carleson_constant(mu, K0, [1.0], window=2.0)
    assert large.sup_estimate >= small.sup_estimate


def test_kfc_lebesgue_zero_order_is_identity_form():
    b = enumerate_basis(1, 8)
    rep = kfc_verdict(lebesgue(1), HalfIndex.from_ints((0,)), b)
    assert rep.omega == pytest.approx(1.0, abs=1e-10)
    assert not rep.growth_detected


def test_kfc_lebesgue_first_order_grows_like_truncation():
    # the derivative pairing of Lebesgue is the number operator: omega(D) = D
    b = enumerate_basis(1, 12)
    rep = kfc_verdict(lebesgue(1), K1, b)
    assert rep.omega == pytest.approx(12.0, abs=1e-9)
    assert rep.omega_coarse == pytest.approx(6.0, abs=1e-9)
    assert rep.growth_detected


def test_kfc_coarse_truncation_above_full_degree():
    # |k| > D: the full Gram vanishes, the coarse one (degree |k|) does not
    b = enumerate_basis(1, 1)
    rep = kfc_verdict(lebesgue(1), HalfIndex.from_ints((2,)), b)
    assert rep.coarse_degree == 2
    assert rep.omega == pytest.approx(0.0, abs=1e-12)
    assert rep.omega_coarse == pytest.approx(2.0, abs=1e-9)
    assert not rep.growth_detected


def test_kfc_atom_is_bounded():
    b = enumerate_basis(1, 12)
    rep = kfc_verdict(dirac([0.0]), K1, b)
    assert rep.omega == pytest.approx(1 / math.pi, abs=1e-12)
    assert not rep.growth_detected


def test_kfc_requires_integer_order():
    b = enumerate_basis(1, 6)
    with pytest.raises(ValueError):
        kfc_verdict(lebesgue(1), HalfIndex.from_halves([0.5]), b)


def test_weight_shift_normalized_identity_and_orientations():
    mu = Horizontal(real_gaussian(1))
    k = HalfIndex.from_ints((2,))
    p = HalfIndex.from_ints((1,))
    rep = weight_shift_check(mu, k, p, [1.0])
    # the Gamma-normalized suprema agree exactly: the weighted measures coincide
    assert rep.normalized_lhs == pytest.approx(rep.normalized_rhs, rel=1e-9)
    # with k=2, p=1 the displayed orientation differs by ((k-p)!/k!)^2 = 1/4
    assert rep.stated / rep.c_k == pytest.approx(0.25, rel=1e-9)
    assert not rep.stated_matches
    # the prose orientation differs by (p!/k!)^2 = 1/4 as well
    assert rep.prose / rep.c_k == pytest.approx(0.25, rel=1e-9)
    assert not rep.prose_matches


def test_weight_shift_trivial_orientation_matches():
    # p = k makes the prose orientation exact; p = 0 makes both exact
    mu = Horizontal(real_gaussian(1))
    k = HalfIndex.from_ints((1,))
    rep = weight_shift_check(mu, k, k, [1.0])
    assert rep.prose_matches
    rep0 = weight_shift_check(mu, k, HalfIndex.from_ints((0,)), [1.0])
    assert rep0.stated_matches and rep0.prose_matches


def test_weight_shift_requires_p_below_k():
    with pytest.raises(ValueError, match="p <= k"):
        weight_shift_check(lebesgue(1), K0, K1, [1.0])


def test_lattice_and_constants_in_two_dimensions():
    # 4-dimensional lattice: polydisk masses of nu_4 are translation invariant
    z, boundary = lattice(2, 1.0, 0.5)
    assert z.shape == (625, 2)
    rep = carleson_constant(lebesgue(2), HalfIndex.from_ints((0, 0)), [1.0, 0.5], window=1.0, spacing=0.5)
    assert rep.sup_estimate == pytest.approx(math.pi**2 * 0.25, rel=1e-10)
    assert not rep.growth_detected


def test_fc_equivalence_gallery_agreement():
    # bounded Berezin, bounded polydisk mass, and bounded form eigenvalue
    # classify the gallery identically
    b = enumerate_basis(1, 10)
    k0 = HalfIndex.from_ints((0,))
    gallery = [
        (dirac([0.0]), False),
        (lebesgue(1), False),
        (gaussian_density(1), False),
        (Horizontal(real_gaussian(1)), False),
        (Density(lambda p: (1 + p[:, 0].real ** 2) * (1 + p[:, 0].imag ** 2), 1), True),
    ]
    for mu, grows in gallery:
        cm = condition_m(mu).normalized
        ball = carleson_constant(mu, k0, [1.0])
        form = kfc_verdict(mu, k0, b)
        assert cm.growth_detected == grows
        assert ball.growth_detected == grows
        assert form.growth_detected == grows


def test_condition_m_pairs_a_density_lattice_in_blocks_and_refuses_a_centre_over_the_cap(monkeypatch):
    # with the cap lowered to 100,000, above one centre's 8^4 evaluations and below the 2.56M of
    # the 625-point lattice of an n = 2 density at order 8, the lattice is paired in blocks of rows
    from focklab import quadrature
    from focklab.measures import gaussian_pairings

    monkeypatch.setattr(quadrature, "MAX_EVALS", 100_000)
    mu = Density(lambda pts: np.exp(-np.sum(np.abs(pts) ** 2, axis=1)), 2)
    z, _ = lattice(2, 1.0, 0.5)
    assert 8 ** 4 < quadrature.MAX_EVALS < z.shape[0] * 8 ** 4
    report = condition_m(mu, 1.0, 0.5, order=8)
    per_point = [abs(gaussian_pairings(mu, c, 8)[0]) / math.pi**2 for c in z]
    assert report.normalized.sup_estimate == pytest.approx(max(per_point), rel=1e-14)
    # below one centre's evaluations the pairing is refused
    monkeypatch.setattr(quadrature, "MAX_EVALS", 1_000)
    with pytest.raises(ValueError, match="evaluations"):
        gaussian_pairings(mu, z, 8)


def test_a_scalar_index_is_repeated_over_the_axes():
    # carleson_constant reads k doubled, weight reads p in integers, each as it reads a tuple
    mu = lebesgue(2)
    for k in (0, 1, 2):
        scalar = carleson_constant(mu, k, [1.0, 0.5], window=1.0, spacing=0.5)
        assert scalar == carleson_constant(mu, (k, k), [1.0, 0.5], window=1.0, spacing=0.5)
    assert HalfIndex.of(1, 2) == HalfIndex.from_doubled((1, 1))
    assert HalfIndex.of(1, 2, doubled=False) == HalfIndex.from_ints((1, 1))
    with pytest.raises(TypeError, match="number of axes"):
        HalfIndex.of(1)
    z, _ = lattice(2, 0.5, 0.5)
    r = [1.0, 0.5]
    for p in (0, 1):
        assert np.array_equal(ball_mass(weight(mu, p), z, r), ball_mass(weight(mu, (p, p)), z, r))
    assert weight_shift_check(mu, 2, 1, r, 1.0, 0.5) == weight_shift_check(mu, (2, 2), (1, 1), r, 1.0, 0.5)


@pytest.mark.parametrize("call", [
    lambda k: HalfIndex.of(HalfIndex.from_doubled(k), 2),
    lambda k: berezin_coderivative(lebesgue(2), k, [0.5, 0.7]),
    lambda k: weight(lebesgue(2), k),
    lambda k: carleson_constant(lebesgue(2), k, (1.0, 1.0), window=1.0, spacing=0.5),
    lambda k: weight_shift_check(lebesgue(2), (2, 2), k, (1.0, 1.0), 1.0, 0.5),
    lambda k: gamma_2k(real_gaussian(2), k, np.zeros((3, 2))),
    lambda k: gamma_samples(real_gaussian(2), k, 8),
    lambda k: assemble_real_coderivative(lebesgue(2), k, enumerate_basis(2, 3)),
], ids=["of", "berezin_coderivative", "weight", "carleson_constant", "weight_shift_check", "gamma_2k",
        "gamma_samples", "assemble_real_coderivative"])
@pytest.mark.parametrize("k", [(2,), (1, 1, 1)], ids=["short", "long"])
def test_an_index_with_the_wrong_number_of_axes_is_refused(call, k):
    # an index has one entry per axis of the measure; a short one must not broadcast, a long one not be cut
    with pytest.raises(ValueError, match="axes, expected 2"):
        call(k)


@pytest.mark.parametrize("n, window, spacing", [(1, 2.0, 0.5), (2, 1.0, 0.3), (3, 0.5, 0.25), (1, 0.4, 0.5)])
def test_lattice_points_and_boundary_match_the_product_loop(n, window, spacing):
    # the itertools.product construction the tensor grid replaced, kept as the exact reference
    z, boundary = lattice(n, window, spacing)
    m = int(math.floor(window / spacing + 1e-9))
    axis = spacing * np.arange(-m, m + 1)
    pts = np.array(list(itertools.product(axis, repeat=2 * n)))
    np.testing.assert_array_equal(z, pts[:, :n] + 1j * pts[:, n:])
    np.testing.assert_array_equal(boundary, np.max(np.abs(pts), axis=1) >= axis[-1] - 1e-12)


def test_lattice_over_the_node_cap_is_refused_before_allocating(traced_peak):
    # 33^6 points on [-4, 4]^6 at spacing 1/4
    refusal, peak = traced_peak(lambda: pytest.raises(ValueError, lattice, 3, 4.0, 0.25))
    refusal.match("discretization needs 1291467969 nodes")
    assert peak < 1e6
