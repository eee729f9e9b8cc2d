"""The per-class measure protocol behind the module entry points."""

import math

import numpy as np
import pytest

from focklab.basis import enumerate_basis
from focklab.indices import HalfIndex
from focklab.measures import (
    AlphaHorizontal,
    Atoms,
    Density,
    Horizontal,
    Lebesgue,
    Pushforward,
    RealAtoms,
    RealDensity,
    Weighted,
    ball_mass,
    dimension,
    dirac,
    gaussian_density,
    gaussian_nodes,
    gaussian_pairing,
    lebesgue,
    parse_measure,
    parse_real_measure,
    pushforward,
    real_gaussian,
    real_nodes,
    variation,
    weight,
)
from focklab.quadrature import gauss_hermite, tensor_grid
from focklab.spectral import gamma_2k, gamma_plain
from focklab.toeplitz import assemble_real_coderivative, assemble_toeplitz, berezin_measure

PTS1 = np.array([[0.3 - 0.2j], [-1.1 + 0.4j], [0.0]])


def test_variation_of_real_density_takes_modulus():
    rho = RealDensity(lambda t: -2.0 * np.exp(-t[:, 0] ** 2) * np.sin(3.0 * t[:, 0]), 1)
    v = variation(rho)
    assert isinstance(v, RealDensity) and v.n == 1
    t = np.array([[0.4], [-0.7], [1.3]])
    np.testing.assert_array_equal(v.density(t), np.abs(rho.density(t)))


def test_variation_of_complex_density_takes_modulus():
    mu = Density(lambda w: (1j - w[:, 0]) * np.exp(-np.abs(w[:, 0]) ** 2), 1)
    v = variation(mu)
    assert isinstance(v, Density)
    np.testing.assert_array_equal(v.density(PTS1), np.abs(mu.density(PTS1)))


def test_variation_of_pushforward_rotates_the_modulus():
    x = np.array([[0.6, 0.8j], [0.8j, 0.6]])
    base = Atoms(np.array([[0.5, 0.2j], [-0.3 + 0.1j, 0.4]]), np.array([1j, -2.0]))
    mu = Pushforward(base, x)
    v = variation(mu)
    assert isinstance(v, Pushforward)
    np.testing.assert_array_equal(v.matrix, mu.matrix)
    np.testing.assert_allclose(v.base.weights, [1.0, 2.0])
    # |mu_X| = |mu|_X: the Gaussian pairing sees the moved atoms with |weights|
    z = np.array([0.2 + 0.1j, -0.3j])
    moved = base.points @ np.conj(x)
    expected = np.sum(np.array([1.0, 2.0]) * np.exp(-np.sum(np.abs(moved - z) ** 2, axis=1)))
    assert gaussian_pairing(v, z) == pytest.approx(expected, rel=1e-13)


def _real_factor(kind, n):
    if kind == "lebesgue":
        return Lebesgue(n)
    if kind == "gaussian":
        return real_gaussian(n)
    rng = np.random.default_rng(n)
    return RealAtoms(rng.uniform(-1.0, 1.0, (5, n)), rng.uniform(0.5, 1.5, 5))


PAIRING_CENTERS = {1: [0.3 + 0.7j], 2: [0.3 + 0.7j, -0.5 - 0.4j]}


@pytest.mark.parametrize("kind", ["lebesgue", "gaussian", "atoms"])
@pytest.mark.parametrize("alpha_doubled", [(0,), (1,), (2,), (0, 0), (1, 1), (2, 2), (2, 1)])
def test_factorized_pairing_of_horizontal_products_matches_the_node_sum(kind, alpha_doubled):
    n = len(alpha_doubled)
    mu = AlphaHorizontal(_real_factor(kind, n), alpha_doubled)
    if not any(alpha_doubled):
        mu = Horizontal(mu.rho)
    c = PAIRING_CENTERS[n]
    expected = np.sum(gaussian_nodes(mu, c, 24)[1])
    assert gaussian_pairing(mu, c, 24) == pytest.approx(expected, rel=1e-13)


@pytest.mark.parametrize("alpha_doubled", [(0, 0), (2, 1)])
def test_pairing_of_a_rotated_horizontal_product_matches_the_node_sum(alpha_doubled):
    x = np.array([[0.6, 0.8j], [0.8j, 0.6]])
    mu = pushforward(AlphaHorizontal(real_gaussian(2), alpha_doubled), x)
    assert isinstance(mu, Pushforward)
    c = PAIRING_CENTERS[2]
    expected = np.sum(gaussian_nodes(mu, c, 24)[1])
    assert gaussian_pairing(mu, c, 24) == pytest.approx(expected, rel=1e-13)


def test_lebesgue_berezin_past_the_node_cap_is_one():
    # 60^4 nodes exceed MAX_NODES, the factorized pairing needs 60^2
    for z in ([0.0, 0.0], [1.3 - 0.4j, -0.7 + 2.1j]):
        assert berezin_measure(lebesgue(2), z, order=60) == pytest.approx(1.0, abs=1e-13)


def test_variation_of_weighted_keeps_the_weight():
    mu = Weighted(Density(lambda w: -np.exp(-np.abs(w[:, 0]) ** 2), 1), HalfIndex.from_ints([1]))
    v = variation(mu)
    assert isinstance(v, Weighted) and v.p == mu.p
    _, w_abs = gaussian_nodes(v, [0.1], order=12)
    _, w_ref = gaussian_nodes(weight(gaussian_density(1), (1,)), [0.1], order=12)
    np.testing.assert_allclose(w_abs, w_ref, rtol=1e-14)


def test_ball_mass_of_weighted_atoms_folds_the_weight():
    points = np.array([[0.3 + 0.4j], [2.0 - 1.0j], [-0.5j]])
    mu = Weighted(Atoms(points, np.array([1.0, 2.0, 0.5])), HalfIndex.from_ints([1]))
    inside = [0, 2]
    w = (1 + points.real**2) * (1 + points.imag**2)
    expected = float(np.sum(np.array([1.0, 2.0, 0.5])[inside] * w[inside, 0]))
    assert ball_mass(mu, [0.0], [1.0]) == pytest.approx(expected, rel=1e-14)


def test_ball_mass_of_pushforward_is_refused():
    mu = pushforward(lebesgue(1), np.array([[np.exp(0.4j)]]))
    assert isinstance(mu, Pushforward)
    with pytest.raises(TypeError, match="rotate the polydisk"):
        ball_mass(mu, [0.0], [1.0])
    # a weighted pushforward gets the same explanation, not a complaint about density products
    with pytest.raises(TypeError, match="rotate the polydisk"):
        ball_mass(weight(mu, (1,)), [0.0], [1.0])


def test_horizontal_is_alpha_horizontal_with_zero_alpha():
    rho = real_gaussian(2)
    mu = Horizontal(rho)
    assert isinstance(mu, AlphaHorizontal) and mu.alpha_doubled == (0, 0)
    same = AlphaHorizontal(rho, (0, 0))
    b = enumerate_basis(2, 3)
    np.testing.assert_array_equal(assemble_toeplitz(mu, b).entries, assemble_toeplitz(same, b).entries)


def test_weight_keeps_the_normal_form():
    # the weight folds into a horizontal product, a density or an atom set; only a pushforward is wrapped
    p = HalfIndex.from_doubled([1])
    for mu, kind in [(lebesgue(1), AlphaHorizontal), (AlphaHorizontal(Lebesgue(1), (2,)), AlphaHorizontal),
                     (gaussian_density(1), Density), (dirac([0.5j]), Atoms)]:
        assert isinstance(weight(mu, p), kind)
    lands = weight(AlphaHorizontal(Lebesgue(1), (1,)), p)
    assert type(lands) is Horizontal and lands.alpha_doubled == (0,)
    rotated = pushforward(lebesgue(1), np.array([[np.exp(0.4j)]]))
    w = weight(rotated, p)
    assert type(w) is Weighted and type(w.base) is Pushforward
    assert weight(w, HalfIndex.from_doubled([-1])) is rotated


def test_real_nodes_scale_two_is_gamma_kernel():
    # int g(t) e^{-(sqrt2 t - x)^2} dt by the substitution u = sqrt2 t - x
    x = np.array([0.7])
    rule = gauss_hermite(30)
    expected = np.sum(rule.weights * np.cos((rule.nodes + x[0]) / math.sqrt(2.0))) / math.sqrt(2.0)
    pts, wts = real_nodes(Lebesgue(1), x, 30, scale=2.0)
    assert np.sum(wts * np.cos(pts[:, 0])) == pytest.approx(expected, rel=1e-14)
    atoms = RealAtoms([[0.2], [-0.5]], [1.0, 3.0])
    _, aw = real_nodes(atoms, x, 30, scale=2.0)
    np.testing.assert_allclose(aw, [1.0, 3.0] * np.exp(-(math.sqrt(2.0) * np.array([0.2, -0.5]) - 0.7) ** 2))


def test_gamma_plain_is_gamma_2k_at_order_zero():
    grid = np.array([[-0.8], [0.0], [1.1]])
    for rho in (real_gaussian(1), RealAtoms([[0.2], [-0.5]], [1.0, 3.0]), Lebesgue(1)):
        np.testing.assert_array_equal(gamma_plain(rho, grid), gamma_2k(rho, (0,), grid))


def test_real_coderivative_of_order_zero_is_the_toeplitz_matrix():
    b = enumerate_basis(2, 4)
    mu = Horizontal(real_gaussian(2))
    np.testing.assert_array_equal(assemble_real_coderivative(mu, (0, 0), b).entries,
                                  assemble_toeplitz(mu, b).entries)


def test_half_index_of_coerces_doubled_tuples_only():
    k = HalfIndex.from_doubled((1, 2))
    assert HalfIndex.of(k) is k
    assert HalfIndex.of((1, 2)) == k and HalfIndex.of([1, 2]) == k


def test_tensor_grid_is_c_ordered():
    pts, wts = tensor_grid([np.array([1.0, 2.0]), np.array([10.0, 20.0, 30.0])],
                           [np.array([1.0, 2.0]), np.array([1.0, 10.0, 100.0])])
    np.testing.assert_array_equal(pts[:, 0], [1, 1, 1, 2, 2, 2])
    np.testing.assert_array_equal(pts[:, 1], [10, 20, 30] * 2)
    np.testing.assert_array_equal(wts, [1, 10, 100, 2, 20, 200])


def test_real_and_complex_grammar_share_their_built_ins():
    assert isinstance(parse_real_measure("atoms(-0.4: 0.6, 0.9: 0.4)", 1), RealAtoms)
    assert isinstance(parse_measure("atoms(-0.4: 0.6, 0.9: 0.4)", 1), Atoms)
    assert isinstance(parse_real_measure("gaussian(2)", 1), RealDensity)
    assert isinstance(parse_measure("gaussian(2)", 1), Density)
    assert isinstance(parse_real_measure("lebesgue", 2), Lebesgue)
    mu = parse_measure("lebesgue", 2)
    assert isinstance(mu, Horizontal) and mu.alpha_doubled == (0, 0)
    with pytest.raises(ValueError, match="real measure"):
        parse_real_measure("weighted(lebesgue; 1)", 1)


def test_dimension_of_a_non_measure_is_a_type_error():
    with pytest.raises(TypeError, match="BasisSet"):
        dimension(enumerate_basis(1, 3))


def test_alpha_horizontal_validates_its_alpha():
    # alpha is read as a HalfIndex: a fractional doubled entry or a wrong axis count is refused
    with pytest.raises(ValueError, match="must be integers"):
        AlphaHorizontal(real_gaussian(1), (1.5,))
    with pytest.raises(ValueError, match="expected 2"):
        AlphaHorizontal(real_gaussian(2), (1,))
    assert AlphaHorizontal(real_gaussian(2)).alpha_doubled == (0, 0)
    assert AlphaHorizontal(real_gaussian(2), (1, -2)).alpha_doubled == (1, -2)
    assert AlphaHorizontal(real_gaussian(2), np.array([2, 0])).alpha_doubled == (2, 0)
