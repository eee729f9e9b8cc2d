import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from focklab.indices import HalfIndex
from focklab.measures import (
    AlphaHorizontal,
    Atoms,
    Density,
    Horizontal,
    Lebesgue,
    RealAtoms,
    RealDensity,
    ball_mass,
    compile_density_expression,
    dirac,
    gaussian_density,
    lebesgue,
    moment,
    moment_table,
    parse_measure,
    parse_real_measure,
    pushforward,
    real_dirac,
    real_gaussian,
    variation,
    weight,
)


def test_moment_atom_at_origin():
    mu = dirac([0.0])
    assert moment(mu, (0,), (0,)) == pytest.approx(1.0)
    assert moment(mu, (1,), (0,)) == 0.0
    assert moment(mu, (2,), (3,)) == 0.0


def test_moment_lebesgue_polar_identity():
    mu = lebesgue(1)
    for a in range(4):
        val = moment(mu, (a,), (a,))
        assert val == pytest.approx(math.pi * math.factorial(a), rel=1e-12)
    assert abs(moment(mu, (1,), (2,))) <= 1e-12


def test_moment_atom_substitution():
    mu = dirac([1 + 1j])
    # direct substitution: z^1 conj(z)^2 e^{-|z|^2}
    expected = (1 + 1j) * (1 - 1j) ** 2 * math.exp(-2.0)
    assert moment(mu, (1,), (2,)) == pytest.approx(expected, rel=1e-14)


@given(
    st.lists(st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5), st.floats(0.1, 2.0)), min_size=1, max_size=4),
    st.integers(0, 3),
    st.integers(0, 3),
)
@settings(max_examples=30, deadline=None)
def test_moment_conjugate_symmetry_for_real_measures(atoms, a, b):
    pts = [[complex(x, y)] for x, y, _ in atoms]
    wts = [w for _, _, w in atoms]
    mu = Atoms(np.array(pts), np.array(wts))
    m_ab = moment(mu, (a,), (b,))
    m_ba = moment(mu, (b,), (a,))
    assert m_ba == pytest.approx(np.conj(m_ab), abs=1e-12)


def test_weight_zero_is_identity():
    mu = dirac([0.5 + 0.5j])
    assert weight(mu, HalfIndex.from_ints([0])) is mu


def test_weight_of_matching_density_is_lebesgue():
    # density prod (1+x^2)^{-k} (1+y^2)^{-k} weighted by k has unit density
    k = HalfIndex.from_ints([1])
    mu = Density(lambda p: 1.0 / ((1 + p[:, 0].real ** 2) * (1 + p[:, 0].imag ** 2)), 1)
    weighted = weight(mu, k)
    for a in range(3):
        lhs = moment(weighted, (a,), (a,))
        rhs = moment(lebesgue(1), (a,), (a,))
        assert lhs == pytest.approx(rhs, rel=1e-10)


def test_weight_round_trip_on_moments():
    p = HalfIndex.from_halves([0.5])
    mu = Horizontal(real_gaussian(1))
    round_trip = weight(weight(mu, p), -p)
    for a, b in [(0, 0), (1, 1), (2, 0), (2, 2)]:
        assert moment(round_trip, (a,), (b,)) == pytest.approx(moment(mu, (a,), (b,)), abs=1e-10)


def test_weight_composition_collapses():
    mu = Horizontal(real_gaussian(1))
    p = HalfIndex.from_ints([1])
    q = HalfIndex.from_ints([2])
    lhs = weight(weight(mu, p), q)
    rhs = weight(mu, p + q)
    for a, b in [(0, 0), (1, 1), (2, 2)]:
        assert moment(lhs, (a,), (b,)) == pytest.approx(moment(rhs, (a,), (b,)), rel=1e-10)


def test_weight_of_horizontal_has_alpha_structure():
    # mu_p of rho (x) nu_n is rho_p (x) nu_{n,-p}
    mu = Horizontal(real_gaussian(1))
    weighted = weight(mu, HalfIndex.from_ints([1]))
    assert isinstance(weighted, AlphaHorizontal)
    assert weighted.alpha_doubled == (-2,)


def test_alpha_horizontal_weight_shift_structure():
    # (alpha, k) product weighted by (k - p) carries alpha' = p + alpha - k
    alpha = HalfIndex.from_ints([2])
    k = HalfIndex.from_ints([3])
    p = HalfIndex.from_ints([2])
    mu = AlphaHorizontal(real_gaussian(1), alpha.doubled)
    shifted = weight(mu, k - p)
    assert isinstance(shifted, AlphaHorizontal)
    assert shifted.alpha_doubled == (p + alpha - k).doubled
    # weighting by alpha itself lands exactly on the horizontal normal form
    lands = weight(mu, alpha)
    assert isinstance(lands, Horizontal) and lands.alpha_doubled == (0,)


def test_alpha_horizontal_is_equal_by_rho_and_alpha():
    # rho compares by its own equality: the same object for densities, the same n for Lebesgue
    rho = real_gaussian(2)
    mu = AlphaHorizontal(rho, (1, 2))
    same = AlphaHorizontal(rho, (1, 2))
    assert mu == same and hash(mu) == hash(same)
    assert mu != AlphaHorizontal(rho, (1, 3))
    assert mu != AlphaHorizontal(real_gaussian(2), (1, 2))
    assert lebesgue(2) == lebesgue(2) and hash(lebesgue(2)) == hash(lebesgue(2))
    assert len(set(lebesgue(3).axis_factors())) == 1


def test_ball_mass_lebesgue_disk_area():
    assert ball_mass(lebesgue(1), [0.0], [1.0]) == pytest.approx(math.pi, rel=1e-12)
    assert ball_mass(lebesgue(1), [2.0 + 1.0j], [0.5]) == pytest.approx(math.pi * 0.25, rel=1e-12)
    # n = 2 polydisk: product of disk areas
    assert ball_mass(lebesgue(2), [0.0, 0.0], [1.0, 2.0]) == pytest.approx(math.pi**2 * 4.0, rel=1e-11)


def test_ball_mass_disjoint_atom():
    mu = dirac([0.0])
    assert ball_mass(mu, [3.0], [1.0]) == 0.0
    assert ball_mass(mu, [0.2], [1.0]) == pytest.approx(1.0)


def test_ball_mass_gaussian_density_radial_oracle():
    # 1-D radial integral: int_0^1 e^{-r^2} 2 pi r dr = pi (1 - e^{-1})
    mu = gaussian_density(1)
    expected = math.pi * (1 - math.exp(-1))
    assert ball_mass(mu, [0.0], [1.0]) == pytest.approx(expected, rel=1e-10)


def test_ball_mass_horizontal_chord_oracle():
    # rho = dirac(t0): mass of disk = chord length 2 sqrt(r^2 - (t0-x)^2)
    mu = Horizontal(real_dirac([0.3]))
    r, x = 1.0, 0.1
    expected = 2.0 * math.sqrt(r**2 - (0.3 - x) ** 2)
    assert ball_mass(mu, [x], [r]) == pytest.approx(expected, rel=1e-12)


POLYDISK_CENTRE = np.array([0.3 + 0.4j, -0.5 + 0.2j])
POLYDISK_RADII = np.array([0.8, 1.3])


def nu_chord_mass(alpha_doubled: int, y: float, c: float) -> float:
    """Closed-form nu_alpha mass of the chord |v - y| < c: int (1+v^2)^{-alpha} dv, including the
    growth weights alpha = -1, -1/2 that the weighting calculus produces."""
    antiderivative = {
        -2: lambda v: v + v**3 / 3.0,
        -1: lambda v: 0.5 * (v * math.sqrt(1.0 + v * v) + math.asinh(v)),
        0: lambda v: v,
        1: math.asinh,
        2: math.atan,
    }[alpha_doubled]
    return antiderivative(y + c) - antiderivative(y - c)


@pytest.mark.parametrize("alpha_doubled", [(0, 0), (1, 1), (2, 1), (-2, -1), (-1, 2)])
@pytest.mark.parametrize("rho_name", ["lebesgue", "gaussian", "atoms"])
def test_alpha_horizontal_polydisk_mass_n2_matches_closed_form_chords(rho_name, alpha_doubled):
    integrate = pytest.importorskip("scipy.integrate")
    x0, y0, r = POLYDISK_CENTRE.real, POLYDISK_CENTRE.imag, POLYDISK_RADII

    def chord(j, t):
        return nu_chord_mass(alpha_doubled[j], y0[j], math.sqrt(max(r[j] ** 2 - (t - x0[j]) ** 2, 0.0)))

    if rho_name == "atoms":
        # the third atom lies outside the box on axis 2
        rho = RealAtoms(np.array([[0.1, -0.2], [0.9, 0.4], [0.5, -2.0]]), np.array([1.0, 0.5 - 0.25j, 2.0]))
        expected = sum(w * chord(0, p[0]) * chord(1, p[1])
                       for p, w in zip(rho.points, rho.weights) if np.all(np.abs(p - x0) < r))
    else:
        rho = Lebesgue(2) if rho_name == "lebesgue" else real_gaussian(2)
        density = (lambda t: 1.0) if rho_name == "lebesgue" else (lambda t: math.exp(-t * t))
        # both rho factorize over the axes, so the box integral is one quad per axis
        expected = math.prod(integrate.quad(lambda t: density(t) * chord(j, t), x0[j] - r[j], x0[j] + r[j],
                                            epsabs=0.0, epsrel=1e-13, limit=200)[0] for j in range(2))
    got = ball_mass(AlphaHorizontal(rho, alpha_doubled), POLYDISK_CENTRE, r)
    assert abs(got - expected) <= 1e-13 * abs(expected)


def test_gaussian_density_polydisk_mass_n2_off_centre_noncentral_chi2():
    special = pytest.importorskip("scipy.special")
    # per axis, 2|w - z|^2 under e^{-|w|^2} dA / pi is chi-square with 2 dof and noncentrality 2|z|^2
    expected = math.prod(math.pi * special.chndtr(2.0 * r**2, 2, 2.0 * abs(z) ** 2)
                         for z, r in zip(POLYDISK_CENTRE, POLYDISK_RADII))
    got = ball_mass(gaussian_density(2), POLYDISK_CENTRE, POLYDISK_RADII)
    assert abs(got - expected) <= 1e-13 * expected


def test_pushforward_identity_and_atom_motion():
    mu = dirac([1.0])
    assert pushforward(mu, np.eye(1)) is mu
    moved = pushforward(mu, np.array([[-1j]]))
    np.testing.assert_allclose(moved.points, [[1j]])


def test_pushforward_preserves_radial_mass():
    mu = gaussian_density(1)
    x = np.array([[np.exp(0.7j)]])
    assert moment(pushforward(mu, x), (0,), (0,)) == pytest.approx(moment(mu, (0,), (0,)), rel=1e-12)


def test_pushforward_real_orthogonal_keeps_horizontal_structure():
    mu = Horizontal(real_dirac([0.4]))
    flipped = pushforward(mu, np.array([[-1.0]]))
    assert isinstance(flipped, Horizontal) and flipped.alpha_doubled == (0,)
    np.testing.assert_allclose(flipped.rho.points, [[-0.4]])


def test_pushforward_rejects_non_unitary():
    with pytest.raises(ValueError, match="unitary"):
        pushforward(dirac([0.0]), np.array([[2.0]]))


def test_pushforward_composition_collapses():
    mu = Horizontal(real_gaussian(1))
    x = np.array([[np.exp(0.3j)]])
    twice = pushforward(pushforward(mu, x), x.conj().T)
    assert twice is mu


def test_variation_of_complex_atoms():
    mu = Atoms(np.array([[1.0], [1j]]), np.array([1j, -2.0]))
    v = variation(mu)
    np.testing.assert_allclose(v.weights, [1.0, 2.0])


def test_horizontal_factorization_against_full_quadrature():
    # the same measure written as a plain 2n-density must give identical moments
    g = real_gaussian(1)
    mu_factored = Horizontal(g)
    mu_full = Density(lambda p: np.exp(-p[:, 0].real ** 2), 1)
    idx = [(0,), (1,), (2,), (3,)]
    t1 = moment_table(mu_factored, idx)
    t2 = moment_table(mu_full, idx)
    np.testing.assert_allclose(t1, t2, atol=1e-9)


def test_moment_table_matches_single_moments():
    mu = Horizontal(RealAtoms([[-0.4], [0.9]], [0.6, 0.4]))
    idx = [(0,), (1,), (2,)]
    table = moment_table(mu, idx)
    for i, a in enumerate(idx):
        for j, b in enumerate(idx):
            want = moment(mu, a, b) / math.sqrt(math.factorial(a[0]) * math.factorial(b[0]))
            assert table[i, j] == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_alpha_horizontal_chord_weight_oracle():
    # int e^{-v^2} / (1+v^2) dv = pi e erfc(1), via moments of the alpha product
    mu = AlphaHorizontal(real_dirac([0.0]), HalfIndex.from_ints([1]).doubled)
    got = moment(mu, (0,), (0,), order=80)
    expected = math.pi * math.e * math.erfc(1.0)
    assert got == pytest.approx(expected, rel=1e-9)


def test_density_expression_compiler():
    f = compile_density_expression("exp(-r2) * (1 + x1**2)", 1)
    pts = np.array([[1.0 + 1.0j], [0.5]])
    expected = np.exp(-np.abs(pts[:, 0]) ** 2) * (1 + pts[:, 0].real ** 2)
    np.testing.assert_allclose(f(pts), expected)


def test_density_expression_rejects_unsafe():
    with pytest.raises(ValueError):
        compile_density_expression("__import__('os')", 1)
    with pytest.raises(ValueError):
        compile_density_expression("x2", 1)
    with pytest.raises(ValueError):
        compile_density_expression("exp(x1).real", 1)


def test_parse_measure_builtins():
    mu0 = parse_measure("lebesgue", 2)
    assert isinstance(mu0, Horizontal) and mu0.alpha_doubled == (0, 0)
    mu = parse_measure("dirac(1+1j)", 1)
    np.testing.assert_allclose(mu.points, [[1 + 1j]])
    mu2 = parse_measure("atoms(1+0j: 1.0, 0.5j: 2)", 1)
    assert mu2.points.shape == (2, 1)
    mu3 = parse_measure("horizontal(gaussian(1.0))", 1)
    assert isinstance(mu3, Horizontal) and mu3.alpha_doubled == (0,)
    mu4 = parse_measure("weighted(horizontal(lebesgue); 1)", 1)
    assert isinstance(mu4, AlphaHorizontal) and mu4.alpha_doubled == (-2,)
    mu5 = parse_measure("pushforward(dirac(1+0j); -1j)", 1)
    np.testing.assert_allclose(mu5.points, [[1j]])
    mu6 = parse_measure("density(exp(-r2))", 2)
    assert isinstance(mu6, Density)


def test_parse_measure_n2_points():
    mu = parse_measure("atoms([1+0j, 0.5-1j]: 1.0)", 2)
    np.testing.assert_allclose(mu.points, [[1 + 0j, 0.5 - 1j]])
    with pytest.raises(ValueError):
        parse_measure("dirac(1+0j)", 2)


def test_parse_real_measure():
    assert isinstance(parse_real_measure("lebesgue", 1), Lebesgue)
    rho = parse_real_measure("dirac(0.5)", 1)
    np.testing.assert_allclose(rho.points, [[0.5]])
    rho2 = parse_real_measure("density((1 + x1**2)**-1)", 1)
    assert isinstance(rho2, RealDensity)
    rho3 = parse_real_measure("atoms(-0.4: 0.6, 0.9: 0.4)", 1)
    assert rho3.points.shape == (2, 1)


@pytest.mark.parametrize("spec", [
    "spherical(1)",
    "horizontal(dirac(0)",
    "gaussian(0)",
    "gaussian(-1)",
    "gaussian(inf)",
    "horizontal(gaussian(0))",
    "density(exp(-r2); radius=3; junk)",
    "density(exp(-r2); foo=3)",
    "dirac",
    "horizontal",
    "gaussian",
    "atoms",
    "density",
    "alpha_horizontal",
    "weighted",
    "pushforward",
    "density(exp(-r2); radius=3)",
    "dirac([1+)",
    "dirac(1 +)",
    "atoms(0.5: 1+)",
    "atoms(0.5: )",
    "pushforward(lebesgue; [[1+]])",
], ids=["unknown-head", "unbalanced", "gaussian-zero", "gaussian-negative", "gaussian-inf",
        "real-gaussian-zero", "density-extra-option", "density-unknown-key", "bare-dirac", "bare-horizontal",
        "bare-gaussian", "bare-atoms", "bare-density", "bare-alpha-horizontal", "bare-weighted",
        "bare-pushforward", "density-radius", "literal-bracket", "literal-point", "literal-weight",
        "literal-empty-weight", "literal-matrix"])
def test_parse_rejects_garbage(spec):
    with pytest.raises(ValueError):
        parse_measure(spec, 1)


def test_moment_matches_table_past_default_order():
    # m_{a,a}(Lebesgue) = pi a!, pi in e_a; degree 45 needs more than the default 40 nodes
    table = moment_table(lebesgue(1), [(a,) for a in range(46)])
    exact = math.pi * math.factorial(45)
    assert table[45, 45] == pytest.approx(exact / math.factorial(45), rel=1e-13)
    assert moment(lebesgue(1), (45,), (45,)) == pytest.approx(math.factorial(45) * table[45, 45], rel=1e-13)
