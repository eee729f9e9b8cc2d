"""Polydisk masses of rows of centres against the per-point loop, and one call per lattice scan."""

import math
from pathlib import Path

import numpy as np
import pytest

from focklab import carleson, measures, quadrature, toeplitz
from focklab.carleson import carleson_constant, lattice, weight_shift_check
from focklab.cli import load_config
from focklab.indices import HalfIndex
from focklab.measures import (
    AlphaHorizontal,
    Atoms,
    Density,
    Horizontal,
    Lebesgue,
    Product,
    Pushforward,
    RealAtoms,
    RealDensity,
    RealProduct,
    Weighted,
    ball_mass,
    gaussian_density,
    lebesgue,
    pushforward,
    real_gaussian,
    weight,
)

RTOL = 1e-13


def per_point(mu, rows, r):
    return np.array([ball_mass(mu, c, r) for c in rows])


def assert_rows_match(mu, rows, r, reference=None, rtol=RTOL):
    got = ball_mass(mu, rows, r)
    expected = per_point(mu if reference is None else reference, rows, r)
    assert got.shape == (rows.shape[0],)
    assert np.max(np.abs(got - expected)) <= rtol * np.max(np.abs(expected))


def rows(n, m, seed=0):
    rng = np.random.default_rng(seed + n)
    return rng.uniform(-1.5, 1.5, (m, n)) + 1j * rng.uniform(-1.5, 1.5, (m, n))


def two_axis_atoms(complex_):
    rng = np.random.default_rng(7)
    pts = rng.uniform(-1.0, 1.0, (6, 2))
    if complex_:
        pts = pts + 1j * rng.uniform(-1.0, 1.0, (6, 2))
    return pts, rng.uniform(0.5, 1.5, 6) - 0.2j


def test_a_point_gives_a_complex_and_rows_give_one_mass_each():
    mu = lebesgue(2)
    assert isinstance(ball_mass(mu, [0.1, 0.2j], [1.0, 0.5]), complex)
    assert ball_mass(mu, [[0.1, 0.2j]], [1.0, 0.5]).shape == (1,)


def test_atoms():
    assert_rows_match(Atoms(*two_axis_atoms(True)), rows(2, 40), (0.9, 1.2))


def test_horizontal_over_atoms_with_repeated_and_distinct_axis_pairs():
    mu = Horizontal(RealAtoms(*two_axis_atoms(False)))
    z, _ = lattice(2, 1.0, 0.5)  # a tensor lattice: every (x_j, y_j) pair repeats 25 times
    assert_rows_match(mu, z, (0.8, 1.1))
    assert_rows_match(mu, rows(2, 30), (0.8, 1.1))  # no pair repeats


def test_alpha_horizontal_with_nonzero_alpha():
    rho = RealAtoms(*two_axis_atoms(False))
    assert_rows_match(AlphaHorizontal(rho, (2, -1)), np.concatenate([rows(2, 20), rows(2, 20)[:5]]), (0.8, 1.1))
    z, _ = lattice(2, 1.0, 0.5)
    assert_rows_match(AlphaHorizontal(Lebesgue(2), (1, 3)), z, (1.0, 0.7))


def test_atom_chords_are_keyed_on_the_whole_centre_coordinate():
    # atom offsets p_j - x_j move with Re c_j, so rows that share Im c_j still need their own chords
    rng = np.random.default_rng(11)
    shared_im = rng.uniform(-1.0, 1.0, (12, 2)) + 1j * np.tile([[0.3, -0.2], [0.5, 0.5]], (6, 1))
    for alpha in ((0, 0), (2, -1)):
        assert_rows_match(AlphaHorizontal(RealAtoms(*two_axis_atoms(False)), alpha), shared_im, (0.8, 1.1))


def test_weighted_atoms():
    mu = Weighted(Atoms(*two_axis_atoms(True)), HalfIndex.from_halves([1.0, 0.5]))
    assert_rows_match(mu, rows(2, 40), (0.9, 1.2))


def test_product():
    mu = gaussian_density(2, 1.3)
    assert type(mu) is Product
    z, _ = lattice(2, 1.0, 0.5)
    assert_rows_match(mu, z, (0.7, 1.0))


def test_flat_density():
    # (40 * 80)^2 polar points per centre, so a handful of centres
    mu = Density(lambda pts: np.exp(-np.sum(np.abs(pts) ** 2, axis=1)) * (1.0 + pts[:, 0].real), 2)
    assert_rows_match(mu, rows(2, 4), (0.8, 1.1))


@pytest.mark.parametrize("n, m", [(2, 40), (3, 5)])
def test_weighted_lebesgue_is_a_product_matching_the_flat_density(n, m):
    k = HalfIndex.from_doubled((1, 2, 3)[:n])
    mu = weight(lebesgue(n), k)
    assert type(mu) is AlphaHorizontal and mu.alpha_doubled == tuple(-d for d in k.doubled)
    assert type(mu.rho) is RealProduct
    # the weight prod_j (1 + x_j^2)^{k_j} as one n-dimensional density
    flat = Lebesgue(n).times(lambda t: np.prod((1.0 + t**2) ** (np.array(k.doubled) / 2.0), axis=1))
    assert type(flat) is RealDensity
    assert_rows_match(mu, rows(n, m), (0.9, 1.2, 0.6)[:n], reference=AlphaHorizontal(flat, mu.alpha_doubled))


def test_lebesgue_itself_stays_rotation_invariant():
    rotation = np.array([[0.6, -0.8], [0.8, 0.6]])
    mu = pushforward(lebesgue(2), rotation)
    assert type(mu) is Horizontal and mu.alpha_doubled == (0, 0) and type(mu.rho) is Lebesgue


def test_rotated_polydisk_refusal_in_row_form():
    mu = pushforward(lebesgue(2), np.array([[0.6, 0.8j], [0.8j, 0.6]]))
    assert type(mu) is Pushforward
    for nu in (mu, weight(mu, (1, 1))):
        with pytest.raises(TypeError, match="rotate the polydisk"):
            ball_mass(nu, rows(2, 5), (1.0, 1.0))


def test_flat_density_lattice_scans_in_blocks_under_the_cap_and_a_centre_over_it_is_refused(monkeypatch):
    # the polar rule drops to 4 radii by 8 angles per axis, 1,024 points per centre, so the
    # 625-point lattice (640,000 evaluations) runs fast; a cap of 100,000 lies above one centre's
    # evaluations and below the lattice's, so the scan goes through in blocks of centres
    monkeypatch.setattr(measures, "_POLAR_ORDER", 4)
    monkeypatch.setattr(quadrature, "MAX_EVALS", 100_000)
    mu = Density(lambda pts: np.exp(-np.sum(np.abs(pts) ** 2, axis=1)) * (1.5 + np.sin(pts[:, 1].real)), 2)
    z, _ = lattice(2, 1.0, 0.5)
    r = (0.8, 1.1)
    assert 32 ** 2 < quadrature.MAX_EVALS < z.shape[0] * 32 ** 2
    blocked = ball_mass(mu, z, r)
    expected = per_point(mu, z, r)
    assert np.max(np.abs(blocked - expected)) <= 1e-14 * np.max(np.abs(expected))
    report = carleson_constant(mu, (0, 0), r, window=1.0, spacing=0.5)
    assert report.sup_estimate == pytest.approx(np.max(np.abs(expected)), rel=1e-14)
    # below one centre's evaluations the scan is refused
    monkeypatch.setattr(quadrature, "MAX_EVALS", 1_000)
    with pytest.raises(ValueError, match="evaluations"):
        ball_mass(mu, z, r)


class Spy:
    """Counts the calls of a wrapped function and the rows each call was handed."""

    def __init__(self, f):
        self.f = f
        self.rows = []

    def __call__(self, mu, z, *args):
        self.rows.append(np.shape(z)[0])
        return self.f(mu, z, *args)


def test_lattice_scans_make_one_ball_mass_call_per_lattice(monkeypatch):
    spy = Spy(carleson.ball_mass)
    monkeypatch.setattr(carleson, "ball_mass", spy)
    carleson_constant(lebesgue(2), (1, 1), (1.0, 1.0), window=1.0, spacing=0.5)
    assert spy.rows == [625]
    spy.rows.clear()
    weight_shift_check(lebesgue(2), (2, 2), (1, 1), (1.0, 1.0), window=1.0, spacing=0.5)
    assert spy.rows == [625] * 3


def test_chord_tables_are_built_once_per_distinct_coordinate(monkeypatch):
    seen = []
    nu = AlphaHorizontal._nu

    def spy(self, j, v):
        seen.append((self.n, np.size(v)))
        return nu(self, j, v)

    monkeypatch.setattr(AlphaHorizontal, "_nu", spy)
    chord_table = 48 * 48  # chord nodes by the 48 offsets of the box rule
    # the carleson config: 81 lattice points with 9 distinct Im c, over a grid rho
    config = load_config(Path(__file__).resolve().parent.parent / "configs" / "carleson.yaml")
    carleson_constant(lebesgue(1), HalfIndex.from_doubled(config.k), config.r, config.window, config.spacing)
    assert seen == [(1, 9 * chord_table)]
    # n = 2, the default 6,561-point lattice: a product rho sees one one-axis table per axis
    for mu, k in ((lebesgue(2), (1, 1)), (Horizontal(real_gaussian(2)), (2, 2))):
        seen.clear()
        carleson_constant(mu, k, (1.0, 1.0))
        assert seen == [(1, 9 * chord_table)] * 2


def test_berezin_rows_of_a_product_make_one_pairing_call(monkeypatch):
    # at n = 3 the rows of a Product are no longer paired one at a time
    spy = Spy(toeplitz.gaussian_pairings)
    monkeypatch.setattr(toeplitz, "gaussian_pairings", spy)
    z, _ = lattice(3, 0.5, 0.5)
    values = toeplitz.berezin_measure(gaussian_density(3), z)
    assert spy.rows == [729]
    # the Gaussian convolution oracle 2^{-n} e^{-|z|^2/2}
    expected = 2.0**-3 * np.exp(-0.5 * np.sum(np.abs(z) ** 2, axis=1))
    assert np.max(np.abs(values - expected)) <= 1e-13
    assert math.isclose(values[np.argmax(np.abs(values))].real, 2.0**-3, rel_tol=1e-13)


def _flat_gaussian():
    return Density(lambda pts: np.exp(-np.sum(np.abs(pts) ** 2, axis=1)), 2)


@pytest.mark.parametrize("call", [
    lambda e: ball_mass(lebesgue(2), e, (1, 1)),
    lambda e: ball_mass(gaussian_density(2), e, (1, 1)),
    lambda e: ball_mass(_flat_gaussian(), e, (1, 1)),
    lambda e: ball_mass(Atoms(*two_axis_atoms(True)), e, (1, 1)),
    lambda e: ball_mass(Horizontal(real_gaussian(2)), e, (1, 1)),
    lambda e: toeplitz.berezin_measure(_flat_gaussian(), e, 8),
    lambda e: toeplitz.berezin_measure(lebesgue(2), e),
    lambda e: toeplitz.berezin_measure(Atoms(*two_axis_atoms(True)), e),
    lambda e: toeplitz.berezin_measure(Horizontal(real_gaussian(2)), e),
], ids=["lebesgue", "product-gaussian", "flat-density", "atoms", "horizontal-gaussian",
        "berezin-flat-density", "berezin-lebesgue", "berezin-atoms", "berezin-horizontal-gaussian"])
def test_zero_rows_give_an_empty_array(call):
    out = call(np.zeros((0, 2), dtype=complex))
    assert isinstance(out, np.ndarray) and out.shape == (0,)


def test_real_rotation_of_the_alpha_zero_product_keeps_its_polydisk_mass():
    # alpha = 0 is the horizontal measure, whose Lebesgue factor absorbs a real rotation
    rotation = np.array([[0.6, -0.8], [0.8, 0.6]])
    alpha0 = pushforward(AlphaHorizontal(real_gaussian(2), (0, 0)), rotation)
    horizontal = pushforward(Horizontal(real_gaussian(2)), rotation)
    assert type(alpha0) is AlphaHorizontal and alpha0.alpha_doubled == (0, 0)
    centres, r = rows(2, 6), (0.9, 1.2)
    np.testing.assert_array_equal(ball_mass(alpha0, centres, r), ball_mass(horizontal, centres, r))
    # any other alpha weights the y-directions axis by axis, so the rotation stays a pushforward
    assert type(pushforward(AlphaHorizontal(real_gaussian(2), (2, 0)), rotation)) is Pushforward
