"""The sum-factorized moment pass against per-node sums and exact moments."""

import math
from fractions import Fraction

import numpy as np
import pytest

from focklab.basis import enumerate_basis
from focklab.indices import HalfIndex, factorial, graded_lex_indices
from focklab.measures import (
    AlphaHorizontal,
    Atoms,
    Density,
    Horizontal,
    Lebesgue,
    RealAtoms,
    RealDensity,
    Pushforward,
    dimension,
    gaussian_density,
    gaussian_nodes,
    moment_table,
    real_gaussian,
    weight,
)
from focklab.toeplitz import assemble_toeplitz

ORDER = 12  # small enough for a per-node reference, >= D + 1 so both use the same rules


def per_node_table(mu, indices, order=ORDER):
    """sum_i w_i z_i^alpha conj(z_i)^beta / sqrt(alpha! beta!) over every quadrature node of mu."""
    pts, wts = gaussian_nodes(mu, np.zeros(dimension(mu)), order)
    pows = np.stack([np.prod(pts ** np.array(a), axis=1) / math.sqrt(factorial(a)) for a in indices], axis=1)
    return (pows * wts[:, None]).T @ np.conj(pows)


def assert_tables_match(got, want, rtol=1e-13):
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= rtol * np.max(np.abs(want))


def _shifted_density(n):
    # not symmetric in any axis, complex valued
    return RealDensity(lambda t: np.exp(-np.sum((t - 0.3) ** 2, axis=1)) * (1.0 + 0.5j * t[:, -1]), n)


def _shared_atoms(n):
    # atoms 0 and 1 share their first and last coordinates, atoms 0 and 2 the second
    pts = np.array([[0.3, -0.5, 0.2], [0.3, 0.7, 0.2], [-0.2, -0.5, 0.9], [1.1, 0.0, 0.2]])
    return RealAtoms(pts[:, :n], np.array([1.0, 0.5j, 2.0, -0.7]))


RHOS = {
    "lebesgue": Lebesgue,
    "density": _shifted_density,
    "atoms": _shared_atoms,
}

SYMBOLS = {
    "horizontal": lambda rho: Horizontal(rho),
    "alpha": lambda rho: AlphaHorizontal(rho, (2, 1, 3)[: dimension(rho)]),
    "weighted": lambda rho: weight(Horizontal(rho), HalfIndex.from_halves([-1.5, 0.5, -0.5][: dimension(rho)])),
    "weighted-alpha": lambda rho: weight(AlphaHorizontal(rho, (1,) * dimension(rho)),
                                         HalfIndex.from_halves([0.5, -1.0, 1.5][: dimension(rho)])),
}


@pytest.mark.parametrize("symbol", sorted(SYMBOLS))
@pytest.mark.parametrize("rho", sorted(RHOS))
@pytest.mark.parametrize("n, degree", [(1, 9), (2, 5)])
def test_product_path_matches_per_node_sum(symbol, rho, n, degree):
    mu = SYMBOLS[symbol](RHOS[rho](n))
    idx = graded_lex_indices(n, degree)
    assert_tables_match(moment_table(mu, idx, ORDER), per_node_table(mu, idx))


@pytest.mark.parametrize("rho", sorted(RHOS))
def test_product_path_three_axes(rho):
    mu = weight(Horizontal(RHOS[rho](3)), HalfIndex.from_halves([0.5, 0.0, -0.5]))
    idx = graded_lex_indices(3, 4)
    assert_tables_match(moment_table(mu, idx, 6), per_node_table(mu, idx, 6))


def _lopsided_density(n):
    # weights x_1 and y_1 differently, so a wrong (x_j, y_j) pairing shows
    return Density(lambda w: np.exp(-np.sum(np.abs(w) ** 2, axis=1))
                   * (1.0 + w[:, 0].real + 0.25j * w[:, -1].imag + 0.5 * w[:, 0].imag ** 2), n)


@pytest.mark.parametrize("make", [
    gaussian_density,
    _lopsided_density,
    lambda n: weight(gaussian_density(n), HalfIndex.from_halves([0.5, -1.5][:n])),
    lambda n: weight(_lopsided_density(n), HalfIndex.from_halves([1.0, 0.5][:n])),
], ids=["gaussian", "lopsided", "weighted-gaussian", "weighted-lopsided"])
@pytest.mark.parametrize("n, degree", [(1, 8), (2, 4)])
def test_density_path_matches_per_node_sum(make, n, degree):
    mu = make(n)
    idx = graded_lex_indices(n, degree)
    assert_tables_match(moment_table(mu, idx, ORDER), per_node_table(mu, idx))


def test_table_follows_requested_index_order():
    mu = Horizontal(_shared_atoms(2))
    idx = [(0, 0), (0, 1), (1, 0), (0, 2), (2, 0), (1, 1)]  # downward closed, not graded-lex
    assert_tables_match(moment_table(mu, idx, ORDER), per_node_table(mu, idx))


def _double_factorial(m: int) -> int:
    return math.prod(range(m, 0, -2)) if m > 0 else 1


def _horizontal_gaussian_axis(a: int, b: int) -> Fraction:
    """int (t+iv)^a (t-iv)^b e^{-2t^2 - v^2} dt dv divided by pi/sqrt(2)."""
    total = Fraction(0)
    for k in range(a + 1):
        for l in range(b + 1):
            mt, mv = a + b - k - l, k + l
            if mt % 2 or mv % 2:
                continue
            sign = (-1) ** (mv // 2 + l)
            total += (sign * math.comb(a, k) * math.comb(b, l)
                      * Fraction(_double_factorial(mt - 1), 4 ** (mt // 2))
                      * Fraction(_double_factorial(mv - 1), 2 ** (mv // 2)))
    return total


def test_horizontal_gaussian_n3_exact_moments():
    idx = np.array(graded_lex_indices(3, 8))
    table = moment_table(Horizontal(real_gaussian(3)), [tuple(a) for a in idx])
    axis = np.array([[float(_horizontal_gaussian_axis(a, b)) for b in range(9)] for a in range(9)])
    exact = (math.pi / math.sqrt(2.0)) ** 3 * np.prod(
        [axis[idx[:, j][:, None], idx[:, j][None, :]] for j in range(3)], axis=0)
    sf = np.array([math.sqrt(factorial(a)) for a in idx])
    exact /= np.outer(sf, sf)
    assert np.max(np.abs(table - exact)) <= 1e-12 * np.max(np.abs(exact))


def test_n4_degree8_stays_under_memory_bound(traced_peak):
    # the dense (D+1)^(2n) tensor alone would be 9^8 complex values = 690 MB
    table, peak = traced_peak(lambda: moment_table(Horizontal(real_gaussian(4)), graded_lex_indices(4, 8)))
    assert peak < 512e6
    assert table.shape == (495, 495)
    assert table[0, 0] == pytest.approx((math.pi / math.sqrt(2.0)) ** 4, rel=1e-12)


def test_one_axis_density_table_is_a_gram_product(traced_peak):
    # the (q^2, D+1, D+1) per-axis table would be 3,721 x 61 x 61 complex values (221 MB) here
    b = enumerate_basis(1, 60)
    t, peak = traced_peak(lambda: assemble_toeplitz(gaussian_density(1), b))
    assert peak < 30e6
    assert np.max(np.abs(t.entries - np.diag(0.5 ** (np.arange(b.size) + 1.0)))) <= 1e-15


def test_flat_two_axis_density_past_d48_is_refused_before_its_axis_table(traced_peak):
    # order D + 1 = 50 needs 50^4 = 6,250,000 nodes, past MAX_NODES: refused before the
    # (q^2, D+1, D+1) per-axis table (2,500 x 50 x 50 complex values, 100 MB) is built
    flat = Density(lambda p: np.exp(-np.sum(np.abs(p) ** 2, axis=1)), 2)
    b = enumerate_basis(2, 49)
    refusal, peak = traced_peak(lambda: pytest.raises(ValueError, assemble_toeplitz, flat, b))
    refusal.match("discretization needs 6250000 nodes")
    assert peak < 5e6


def test_product_path_growth_surfaces_with_location():
    bad = Horizontal(RealDensity(lambda t: np.exp(3.0 * t[:, 0] ** 2), 1))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="alpha"):
            assemble_toeplitz(bad, enumerate_basis(1, 2), order=150)


def _unitary(n, seed):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q


@pytest.mark.parametrize("n, degree", [(2, 8), (3, 5)])
def test_pushforward_of_atoms_is_atoms_at_rotated_points(n, degree):
    # mu_X(E) = mu(X E) moves the atom at p to X* p
    pts = np.array([[0.5 + 0.2j, -0.3 + 0.1j, 0.4j], [0.1 - 0.4j, 0.2 + 0.2j, -0.6], [0.7, -0.5j, 0.3 - 0.3j]])[:, :n]
    wts = np.array([1.0, 0.7j, -0.4])
    x = _unitary(n, n)
    idx = graded_lex_indices(n, degree)
    rotated = Atoms((x.conj().T @ pts.T).T, wts)
    assert_tables_match(moment_table(Pushforward(Atoms(pts, wts), x), idx), moment_table(rotated, idx))


def test_pushforward_of_product_matches_per_node_sum():
    mu = Pushforward(AlphaHorizontal(real_gaussian(2), (2, 1)), _unitary(2, 5))
    idx = graded_lex_indices(2, 6)
    assert_tables_match(moment_table(mu, idx, ORDER), per_node_table(mu, idx))


@pytest.mark.parametrize("idx", [[(0, 0), (1, 0), (2, 0)], [(2, 0), (0, 1)]], ids=["downward-closed", "scattered"])
def test_pushforward_on_degree_incomplete_indices(idx):
    # X* mixes the axes, so (2, 0) needs the base's (1, 1) and (0, 2) moments
    mu = Pushforward(Horizontal(real_gaussian(2)), _unitary(2, 6))
    full = graded_lex_indices(2, 2)
    sel = [full.index(a) for a in idx]
    assert_tables_match(moment_table(mu, idx), moment_table(mu, full)[np.ix_(sel, sel)])
    assert_tables_match(moment_table(mu, idx, ORDER), per_node_table(mu, idx))
