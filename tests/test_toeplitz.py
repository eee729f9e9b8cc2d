import itertools
import math
import warnings

import numpy as np
import pytest

from focklab.basis import enumerate_basis, weyl_matrix
from focklab.indices import HalfIndex, factorial, monomial_matrix
from focklab.measures import (
    AlphaHorizontal,
    Atoms,
    Density,
    Horizontal,
    RealAtoms,
    RealProduct,
    dirac,
    gaussian_density,
    gaussian_pairing,
    lebesgue,
    moment,
    moment_table,
    pushforward,
    real_dirac,
    real_gaussian,
)
from focklab.quadrature import tensor_rule
from focklab.toeplitz import (
    AccuracyDomainWarning,
    assemble_coderivative,
    assemble_real_coderivative,
    assemble_toeplitz,
    berezin_coderivative,
    berezin_measure,
    berezin_operator,
    berezin_y_variation,
    commutator,
    horizontal_berezin_profile,
    interior_max_norm,
)


def test_identity_symbol_gives_identity():
    for n, d in [(1, 10), (2, 5)]:
        b = enumerate_basis(n, d)
        t = assemble_toeplitz(lebesgue(n), b)
        assert np.max(np.abs(t.entries - np.eye(b.size))) <= 1e-10


@pytest.mark.parametrize("n, degree", [(1, 30), (1, 41), (1, 60), (1, 80), (2, 40)])
def test_lebesgue_identity_past_the_default_order(n, degree):
    # the moment order follows D, so degrees past the default order 40 stay exact
    b = enumerate_basis(n, degree)
    t = assemble_toeplitz(lebesgue(n), b)
    assert np.max(np.abs(t.entries - np.eye(b.size))) <= 1e-13


def test_atom_at_origin_single_entry():
    b = enumerate_basis(1, 6)
    t = assemble_toeplitz(dirac([0.0]), b)
    expected = np.zeros((b.size, b.size))
    expected[0, 0] = 1 / math.pi
    np.testing.assert_allclose(t.entries, expected, atol=1e-15)


def test_gaussian_density_diagonal_oracle():
    # radial moments: int r^{2a} e^{-2 r^2} 2 pi r dr = pi a! / 2^{a+1}
    b = enumerate_basis(1, 8)
    t = assemble_toeplitz(gaussian_density(1), b)
    for a in range(9):
        assert t.entries[a, a] == pytest.approx(2.0 ** -(a + 1), rel=1e-12)
    off = t.entries - np.diag(np.diag(t.entries))
    assert np.max(np.abs(off)) <= 1e-12


def test_coderivative_zero_order_matches_toeplitz():
    b = enumerate_basis(1, 6)
    mu = gaussian_density(1)
    t1 = assemble_toeplitz(mu, b)
    t2 = assemble_coderivative(mu, (0,), (0,), b)
    np.testing.assert_allclose(t1.entries, t2.entries, atol=1e-14)


def test_coderivative_number_operator():
    b = enumerate_basis(1, 8)
    t = assemble_coderivative(lebesgue(1), (1,), (1,), b)
    np.testing.assert_allclose(t.entries, np.diag(np.arange(9, dtype=float)), atol=1e-11)


def test_coderivative_atom_single_entry():
    b = enumerate_basis(1, 4)
    t = assemble_coderivative(dirac([0.0]), (1,), (1,), b)
    expected = np.zeros((b.size, b.size))
    expected[1, 1] = 1 / math.pi
    np.testing.assert_allclose(t.entries, expected, atol=1e-15)


def test_real_coderivative_of_lebesgue():
    # 2k = 2: diagonal 2a, corners sqrt(a(a-1)) two steps off the diagonal
    b = enumerate_basis(1, 8)
    k = HalfIndex.from_doubled((2,))
    t = assemble_real_coderivative(lebesgue(1), k, b)
    for a in range(9):
        assert t.entries[a, a] == pytest.approx(2.0 * a, abs=1e-11)
        if a >= 2:
            corner = math.sqrt(a * (a - 1))
            assert t.entries[a - 2, a] == pytest.approx(corner, abs=1e-11)
            assert t.entries[a, a - 2] == pytest.approx(corner, abs=1e-11)
    assert t.hermitian_defect() <= 1e-10


def test_real_coderivative_zero_order_is_toeplitz():
    b = enumerate_basis(1, 5)
    mu = Horizontal(real_gaussian(1))
    t1 = assemble_real_coderivative(mu, HalfIndex.from_doubled((0,)), b)
    t2 = assemble_toeplitz(mu, b)
    np.testing.assert_allclose(t1.entries, t2.entries, atol=1e-14)


def test_positive_measure_gives_psd_matrix():
    b = enumerate_basis(1, 8)
    for mu in (gaussian_density(1), Horizontal(RealAtoms([[-0.4], [0.9]], [0.6, 0.4])), dirac([0.3 + 0.2j])):
        t = assemble_toeplitz(mu, b)
        eigs = np.linalg.eigvalsh((t.entries + t.entries.conj().T) / 2)
        assert eigs.min() >= -1e-9


def test_coderivative_pairing_identity_against_direct_quadrature(derivative):
    # <T e_alpha, e_beta> for the (a, b) coderivative equals the sesquilinear
    # pairing evaluated by brute-force tensor quadrature over R^2
    b = enumerate_basis(1, 4)
    mu = gaussian_density(1)
    a, bb = (1,), (2,)
    t = assemble_coderivative(mu, a, bb, b)
    rule = tensor_rule([60, 60])
    pts2 = rule.points()
    wts = rule.weights()
    w = pts2[:, :1] + 1j * pts2[:, 1:]
    pows = monomial_matrix(w, list(b.indices))
    density_vals = mu.density(w)
    for i, alpha in enumerate(b.indices):
        va = np.zeros(b.size, dtype=complex)
        va[i] = 1.0
        da = pows @ derivative(va, a, b)
        for j, beta in enumerate(b.indices):
            vb = np.zeros(b.size, dtype=complex)
            vb[j] = 1.0
            db = pows @ derivative(vb, bb, b)
            direct = np.sum(wts * density_vals * da * np.conj(db)) / math.pi
            assert t.entries[j, i] == pytest.approx(direct, abs=1e-8)


def sqrt_factorial(alpha) -> float:
    return math.sqrt(factorial(alpha))


def coderivative_reference(table, a, b, basis):
    """The (a, b) coderivative gathered position by position from the moment table in e_alpha,
    with its factorial ratios: the algorithm before the lowering steps."""
    rows_ok, cols_ok, row_src, col_src, row_coef, col_coef = [], [], [], [], [], []
    for pos, alpha in enumerate(basis.indices):
        low_a = tuple(x - y for x, y in zip(alpha, a))
        low_b = tuple(x - y for x, y in zip(alpha, b))
        if min(low_a) >= 0:
            cols_ok.append(pos)
            col_src.append(basis.position[low_a])
            col_coef.append((factorial(alpha) // factorial(low_a)) * sqrt_factorial(low_a) / sqrt_factorial(alpha))
        if min(low_b) >= 0:
            rows_ok.append(pos)
            row_src.append(basis.position[low_b])
            row_coef.append((factorial(alpha) // factorial(low_b)) * sqrt_factorial(low_b) / sqrt_factorial(alpha))
    entries = np.zeros((basis.size, basis.size), dtype=complex)
    if rows_ok and cols_ok:
        sub = table[np.ix_(col_src, row_src)].T  # entry (beta, alpha) needs m_{alpha-a, beta-b}
        coef = np.asarray(row_coef)[:, None] * np.asarray(col_coef)[None, :]
        entries[np.ix_(rows_ok, cols_ok)] = math.pi ** (-basis.n) * coef * sub
    return entries


def real_coderivative_reference(mu, two_k, basis):
    """The binomial sum over b <= 2k of the (2k - b, b) coderivatives."""
    table = moment_table(mu, list(basis.indices))
    entries = np.zeros((basis.size, basis.size), dtype=complex)
    # the first axis of b varies fastest
    for reversed_b in itertools.product(*(range(t + 1) for t in reversed(two_k))):
        b = reversed_b[::-1]
        coef = math.prod(math.comb(t, bj) for t, bj in zip(two_k, b))
        a = tuple(t - bj for t, bj in zip(two_k, b))
        entries += coef * coderivative_reference(table, a, b, basis)
    return entries


def _rotation(theta):
    return np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])


REFERENCE_MEASURES_2D = {
    "horizontal": lambda: Horizontal(real_gaussian(2)),
    "atoms": lambda: Atoms([[0.3 + 0.2j, -0.5j], [1.0, 0.4]], [1.0, 0.5]),
    "density": lambda: gaussian_density(2),
    "pushforward": lambda: pushforward(Horizontal(real_gaussian(2)), _rotation(0.4)),
}


@pytest.mark.parametrize("make, n, degree, two_k", [
    *[(lambda: Horizontal(real_gaussian(1)), 1, 30, (t,)) for t in (1, 2, 3)],
    *[(make, 2, 16, two_k) for make in REFERENCE_MEASURES_2D.values() for two_k in ((1, 2), (2, 4))],
    (lambda: Horizontal(real_gaussian(3)), 3, 10, (2, 2, 2)),
    (lambda: AlphaHorizontal(real_gaussian(2), (1, 2)), 2, 12, (2, 4)),
    (lambda: lebesgue(2), 2, 12, (2, 4)),
], ids=[*(f"n1-{t}" for t in (1, 2, 3)),
        *(f"n2-{name}-{t}" for name in REFERENCE_MEASURES_2D for t in ("12", "24")), "n3-222",
        "n2-alpha-24", "n2-lebesgue-24"])
def test_real_coderivative_matches_the_binomial_sum_of_gathered_coderivatives(make, n, degree, two_k):
    mu, b = make(), enumerate_basis(n, degree)
    got = assemble_real_coderivative(mu, two_k, b).entries
    want = real_coderivative_reference(mu, two_k, b)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("name, a, b", [
    *(pytest.param(name, (1, 0), (1, 2), id=name) for name in REFERENCE_MEASURES_2D),
    # both sides lower axis 0 of one shared factor table: neither lowering may see the other's
    pytest.param("horizontal", (1, 0), (1, 0), id="horizontal-same-axis"),
])
def test_coderivative_matches_the_gathered_reference(name, a, b):
    mu, basis = REFERENCE_MEASURES_2D[name](), enumerate_basis(2, 16)
    got = assemble_coderivative(mu, a, b, basis).entries
    want = coderivative_reference(moment_table(mu, list(basis.indices)), a, b, basis)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_berezin_of_lebesgue_is_one():
    for z in (0.0, 1 + 2j, -0.5j):
        assert berezin_measure(lebesgue(1), [z]) == pytest.approx(1.0, abs=1e-12)


def test_berezin_of_atom():
    z = 0.7 - 0.3j
    val = berezin_measure(dirac([0.0]), [z])
    assert val == pytest.approx(math.exp(-abs(z) ** 2) / math.pi, rel=1e-12)


def test_berezin_horizontal_is_y_independent():
    mu = Horizontal(real_dirac([0.0]))
    vals = [berezin_measure(mu, [complex(0.8, y)]) for y in (-2, 0, 3)]
    expected = math.exp(-0.64) / math.sqrt(math.pi)
    for v in vals:
        assert v == pytest.approx(expected, rel=1e-12)


def test_berezin_factored_path_matches_full_2d_quadrature():
    # the same measure written as a plain density on C goes through the full
    # 2-dimensional recentered quadrature instead of the product route
    mu_factored = Horizontal(real_gaussian(1))
    mu_full = Density(lambda p: np.exp(-p[:, 0].real ** 2), 1)
    for z in (0.0, 0.3, 0.3 + 1j, -1.2 + 0.4j):
        assert berezin_measure(mu_factored, [z]) == pytest.approx(
            berezin_measure(mu_full, [z]), rel=1e-9
        )


def test_berezin_measure_at_a_point_is_its_row_value():
    # a point and rows take the one gaussian_pairings route
    for mu, z in ((gaussian_density(2), [0.3 - 0.2j, 0.5j]), (lebesgue(2), [0.1, -0.4 + 0.2j])):
        value = berezin_measure(mu, z)
        assert type(value) is complex and value == berezin_measure(mu, np.array([z]))[0]
        assert value == math.pi ** -2 * gaussian_pairing(mu, z)


def test_hermitian_defect_is_the_complex_formula_bit_for_bit():
    # an exactly real operator is measured in real arithmetic, a complex one in complex
    b = enumerate_basis(2, 10)
    real = assemble_toeplitz(Horizontal(real_gaussian(2)), b)
    x = np.diag([1 + 1j, 1 + 1j]) / math.sqrt(2)
    rotated = assemble_toeplitz(pushforward(Horizontal(real_gaussian(2)), x), b)
    assert not np.any(real.entries.imag) and np.any(rotated.entries.imag)
    for op in (real, rotated):
        assert op.hermitian_defect() == float(np.max(np.abs(op.entries - op.entries.conj().T)))


def test_berezin_y_variation_detects_off_axis_atom():
    xs = np.linspace(-1, 1, 5)[:, None]
    ys = np.linspace(-1, 1, 5)
    assert berezin_y_variation(Horizontal(real_dirac([0.3])), xs, ys) <= 1e-10
    assert berezin_y_variation(dirac([0.4 + 0.7j]), xs, ys) >= 1e-2


def test_berezin_coderivative_closed_form():
    k = HalfIndex.from_doubled((2,))
    assert berezin_coderivative(lebesgue(1), k, [1.0]) == pytest.approx(4.0, rel=1e-12)
    assert berezin_coderivative(lebesgue(1), k, [1j]) == 0.0
    k0 = HalfIndex.from_doubled((0,))
    assert berezin_coderivative(lebesgue(1), k0, [0.5]) == pytest.approx(
        berezin_measure(lebesgue(1), [0.5]), rel=1e-12
    )


def test_berezin_operator_identity_and_atom():
    b = enumerate_basis(1, 16)
    from focklab.toeplitz import OperatorMatrix

    eye = OperatorMatrix(b, np.eye(b.size, dtype=complex))
    assert berezin_operator(eye, [0.3 + 0.2j]) == pytest.approx(1.0, abs=1e-12)
    t = assemble_toeplitz(dirac([0.0]), b)
    val = berezin_operator(t, [0.5])
    assert val == pytest.approx(math.exp(-0.25) / math.pi, abs=1e-6)


def test_berezin_operator_consistency_with_measure_route():
    b = enumerate_basis(1, 16)
    mu = gaussian_density(1)
    t = assemble_toeplitz(mu, b)
    for z in (0.0, 0.5, 0.3 + 0.4j, -0.9):
        assert berezin_operator(t, [z]) == pytest.approx(berezin_measure(mu, [z]), abs=1e-6)


def test_berezin_operator_warns_outside_domain():
    b = enumerate_basis(1, 6)
    from focklab.toeplitz import OperatorMatrix

    eye = OperatorMatrix(b, np.eye(b.size, dtype=complex))
    with pytest.warns(AccuracyDomainWarning):
        berezin_operator(eye, [3.0])


def test_horizontal_matrix_commutes_with_vertical_weyl():
    b = enumerate_basis(1, 16)
    t = assemble_toeplitz(Horizontal(real_gaussian(1)), b).entries
    for h in (0.2, 0.5):
        w = weyl_matrix([1j * h], b)
        assert interior_max_norm(t @ w - w @ t, b) <= 1e-5


def test_horizontal_berezin_profile_matches_measure_route():
    rho = real_gaussian(1)
    mu = Horizontal(rho)
    for x in (-0.7, 0.0, 1.1):
        assert horizontal_berezin_profile(rho, [x]) == pytest.approx(
            berezin_measure(mu, [complex(x, 0.4)]), rel=1e-10
        )


def test_commutator_requires_same_basis():
    b1 = enumerate_basis(1, 4)
    b2 = enumerate_basis(1, 5)
    t1 = assemble_toeplitz(lebesgue(1), b1)
    t2 = assemble_toeplitz(lebesgue(1), b2)
    with pytest.raises(ValueError):
        commutator(t1, t2)


def test_moment_growth_surfaces_with_location():
    # a density violating the Gaussian-dominated contract overflows to inf
    bad = Density(lambda p: np.exp(np.abs(p[:, 0]) ** 2 * 1.5), 1)
    b = enumerate_basis(1, 2)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="alpha"):
            assemble_toeplitz(bad, b, order=150)


def test_float_range_refusal_names_both_causes():
    # Lebesgue measure meets the growth contract.  In e_alpha its table stays in the float range at
    # D = 150, while its raw moment m_{150,150} = pi 150! leaves it.
    b = enumerate_basis(1, 150)
    assert np.max(np.abs(assemble_toeplitz(lebesgue(1), b).entries - np.eye(b.size))) <= 1e-14
    # An atom at t = 1e120 leaves the float range from degree 3 on.  The located refusal is the
    # only signal: no numpy warning comes first.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"\(\(0,\), \(3,\)\): past the float range, or growth contract"):
            assemble_toeplitz(Horizontal(RealAtoms([[1e120]], [1.0])), enumerate_basis(1, 4))
        with pytest.raises(ValueError, match="float range"):
            moment(lebesgue(1), (150,), (150,))


@pytest.mark.parametrize("two_k", [(0, 0), (1, 0), (2, 2)])
def test_float_range_refusal_of_a_product_names_the_moment(two_k):
    # the atom factor's one-axis table leaves the float range from degree 3 on, and its lowerings
    # keep that entry non-finite: the gathered refusal names the moment, with no numpy warning first
    mu = Horizontal(RealProduct((RealAtoms([[1e120]], [1.0]), real_gaussian(1))))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"\(\(0, 0\), \(3, 0\)\): past the float range, or growth contract"):
            assemble_real_coderivative(mu, two_k, enumerate_basis(2, 4))


def test_lebesgue_is_the_identity_at_the_largest_order(traced_peak):
    # D = 199 needs 200 Gauss-Hermite nodes per axis, MAX_ORDER; the (200, 200, 200) real one-axis
    # table is 64 MB, and the pass holds little else (three such power arrays would be 384 MB more)
    b = enumerate_basis(1, 199)
    entries, peak = traced_peak(lambda: assemble_toeplitz(lebesgue(1), b).entries)
    assert np.max(np.abs(entries - np.eye(b.size))) <= 1e-14
    assert peak < 2e8
