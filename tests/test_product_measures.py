"""Tensor-product built-ins against the n-dimensional densities they replace.

``gaussian_density(n)`` and ``real_gaussian(n)`` are products of one-axis
Gaussians for n >= 2.  A tensor Gauss rule applied to a product integrand is
the product of the one-axis sums, so every value must agree with the
n-dimensional density route (built inline below) up to round-off.
"""

import math

import numpy as np
import pytest

from focklab.basis import enumerate_basis
from focklab.carleson import condition_m
from focklab.cli import ExperimentConfig, run
from focklab.indices import HalfIndex
from focklab.measures import (
    Atoms,
    Density,
    Horizontal,
    Product,
    RealDensity,
    RealProduct,
    ball_mass,
    gaussian_density,
    gaussian_pairings,
    moment_table,
    pushforward,
    real_gaussian,
    variation,
    weight,
)
from focklab.spectral import gamma_2k, spectral_grid

RTOL = 1e-13
SIGMAS = [0.7, 1.0, 1.5]
ROTATION = np.array([[0.6, 0.8j], [0.8j, 0.6]])


def flat_density(n, sigma):
    s2 = sigma**2
    return Density(lambda pts: np.exp(-np.sum(np.abs(pts) ** 2, axis=1) / s2), n)


def flat_real(n, sigma):
    s2 = sigma**2
    return RealDensity(lambda pts: np.exp(-np.sum(pts**2, axis=1) / s2), n)


def assert_close(got, expected):
    got, expected = np.asarray(got), np.asarray(expected)
    assert got.shape == expected.shape
    assert np.max(np.abs(got - expected)) <= RTOL * np.max(np.abs(expected))


def centers(n, m, seed=7):
    rng = np.random.default_rng(seed + n)
    return rng.uniform(-1.2, 1.2, (m, n)) + 1j * rng.uniform(-1.2, 1.2, (m, n))


def test_built_ins_are_products_from_two_axes_on():
    assert type(gaussian_density(1)) is Density and type(real_gaussian(1)) is RealDensity
    mu, rho = gaussian_density(3, 0.7), real_gaussian(2)
    assert type(mu) is Product and mu.n == 3 and all(type(f) is Density and f.n == 1 for f in mu.factors)
    assert type(rho) is RealProduct and rho.n == 2
    pts = centers(3, 5)
    np.testing.assert_allclose(mu.density(pts), flat_density(3, 0.7).density(pts), rtol=1e-15)


@pytest.mark.parametrize("sigma", SIGMAS)
@pytest.mark.parametrize("n", [1, 2])
def test_pairings(n, sigma):
    c = centers(n, 6)
    assert_close(gaussian_pairings(gaussian_density(n, sigma), c, 20), gaussian_pairings(flat_density(n, sigma), c, 20))
    # |mu| per factor
    assert_close(gaussian_pairings(variation(gaussian_density(n, sigma)), c, 20),
                 gaussian_pairings(variation(flat_density(n, sigma)), c, 20))


@pytest.mark.parametrize("sigma", SIGMAS)
@pytest.mark.parametrize("n", [1, 2])
def test_polydisk_masses(n, sigma):
    r = np.array([0.8, 1.1])[:n]
    for c in centers(n, 3):
        assert ball_mass(gaussian_density(n, sigma), c, r) == pytest.approx(
            ball_mass(flat_density(n, sigma), c, r), rel=RTOL)


@pytest.mark.parametrize("sigma", SIGMAS)
@pytest.mark.parametrize("n", [1, 2])
def test_moment_tables(n, sigma):
    keys = list(enumerate_basis(n, 12).indices)
    assert_close(moment_table(gaussian_density(n, sigma), keys, 16), moment_table(flat_density(n, sigma), keys, 16))
    assert_close(moment_table(Horizontal(real_gaussian(n, sigma)), keys, 16),
                 moment_table(Horizontal(flat_real(n, sigma)), keys, 16))


@pytest.mark.parametrize("sigma", SIGMAS)
@pytest.mark.parametrize("n", [1, 2])
def test_gamma(n, sigma):
    grid = centers(n, 25).real
    for two_k in [(0, 0), (1, 1), (3, 0)]:
        assert_close(gamma_2k(real_gaussian(n, sigma), two_k[:n], grid), gamma_2k(flat_real(n, sigma), two_k[:n], grid))


@pytest.mark.parametrize("sigma", SIGMAS)
@pytest.mark.parametrize("n", [1, 2])
def test_weighted_masses(n, sigma):
    p = HalfIndex.from_halves([0.5, 1.0][:n])
    r = np.array([0.9, 0.7])[:n]
    weighted = weight(gaussian_density(n, sigma), p)
    horizontal = weight(Horizontal(real_gaussian(n, sigma)), p)
    if n > 1:
        assert type(weighted) is Product and type(horizontal.rho) is RealProduct
    c = centers(n, 1)[0]
    assert ball_mass(weighted, c, r) == pytest.approx(ball_mass(weight(flat_density(n, sigma), p), c, r), rel=RTOL)
    assert ball_mass(horizontal, c, r) == pytest.approx(
        ball_mass(weight(Horizontal(flat_real(n, sigma)), p), c, r), rel=RTOL)


@pytest.mark.parametrize("sigma", SIGMAS)
@pytest.mark.parametrize("n", [1, 2])
def test_pushforwards(n, sigma):
    c = centers(n, 2)
    keys = list(enumerate_basis(n, 6).indices)
    # a diagonal unitary pushes each factor: the composed n-dimensional density on the same grid
    diagonal = np.diag(np.exp(1j * np.array([0.4, -1.1]))[:n])
    mu, ref = pushforward(gaussian_density(n, sigma), diagonal), pushforward(flat_density(n, sigma), diagonal)
    assert type(mu) is type(gaussian_density(n, sigma))
    assert_close(gaussian_pairings(mu, c, 20), gaussian_pairings(ref, c, 20))
    assert_close(moment_table(mu, keys, 16), moment_table(ref, keys, 16))
    if n == 1:
        return
    # a mixing unitary couples the axes: the composed n-dimensional density takes over,
    # polydisk masses included
    mu, ref = pushforward(gaussian_density(2, sigma), ROTATION), pushforward(flat_density(2, sigma), ROTATION)
    assert type(mu) is Density
    assert_close(gaussian_pairings(mu, c, 20), gaussian_pairings(ref, c, 20))
    assert_close(moment_table(mu, keys, 16), moment_table(ref, keys, 16))
    assert_close(ball_mass(mu, c[0], (0.8, 1.1)), ball_mass(ref, c[0], (0.8, 1.1)))
    # a real rotation of rho mixes the axes: the n-dimensional density takes over
    turn = np.array([[0.6, -0.8], [0.8, 0.6]])
    mu, ref = pushforward(Horizontal(real_gaussian(2, sigma)), turn), pushforward(Horizontal(flat_real(2, sigma)), turn)
    assert type(mu.rho) is RealDensity
    assert_close(gaussian_pairings(mu, c), gaussian_pairings(ref, c))


def test_product_sums_see_each_centre_coordinate_once():
    # a 20 x 20 tensor grid has 20 distinct coordinates per axis; the spy factor sees their nodes only
    seen = []

    def spy_density(pts):
        seen.append(pts.shape[0])
        return np.exp(-pts[:, 0] ** 2)

    rho = RealProduct((RealDensity(spy_density, 1), real_gaussian(1)))
    grid = spectral_grid(2, 20)
    assert_close(gamma_2k(rho, (2, 1), grid, 16), gamma_2k(flat_real(2, 1.0), (2, 1), grid, 16))
    assert sum(seen) == 20 * 16


def test_three_axis_polydisk_mass_is_a_product_of_disk_masses():
    special = pytest.importorskip("scipy.special")
    one_axis = ball_mass(gaussian_density(1), [0.0], [1.0])
    mass = ball_mass(gaussian_density(3), [0.0] * 3, (1.0, 1.0, 1.0))
    assert mass == pytest.approx(one_axis**3, rel=RTOL)
    assert mass.real == pytest.approx((math.pi * special.chndtr(2.0, 2, 0.0)) ** 3, rel=RTOL)
    # off the origin: pi P(chi^2_2(2|c|^2) < 2 r^2) per axis
    c, r = np.array([0.3, -0.2j, 0.5 + 0.1j]), np.array([0.8, 1.0, 1.3])
    expected = math.prod(math.pi * special.chndtr(2 * rj**2, 2, 2 * abs(cj) ** 2) for cj, rj in zip(c, r))
    assert ball_mass(gaussian_density(3), c, r).real == pytest.approx(expected, rel=RTOL)


def test_carleson_command_runs_at_three_axes(tmp_path):
    cfg = ExperimentConfig(command="carleson", n=3, measure="gaussian(1.0)", window=0.5, spacing=0.5,
                           out=str(tmp_path / "run"))
    assert run(cfg) == 0
    summary = dict(line.split(": ", 1) for line in (tmp_path / "run" / "summary.txt").read_text().splitlines())
    # the Berezin transform of e^{-|w|^2} is 2^{-n} e^{-|z|^2/2}, largest at z = 0
    assert float(summary["condition-m-normalized-sup"]) == pytest.approx(2.0**-3, rel=1e-13)
    assert float(summary["carleson-constant"]) == pytest.approx(ball_mass(gaussian_density(1), [0.0], [1.0]).real ** 3,
                                                                rel=1e-13)


def test_product_pairings_see_each_centre_coordinate_once(monkeypatch):
    # the default n = 2 lattice has 6,561 rows but 81 distinct complex coordinates per axis
    seen = []
    pairing = Density.pairing

    def spy(self, rows, order):
        seen.append(rows.shape[0])
        return pairing(self, rows, order)

    monkeypatch.setattr(Density, "pairing", spy)
    condition_m(gaussian_density(2))
    assert seen == [81, 81]


def repeated_rows(n):
    # repeated coordinates on every axis, a -0.0 / 0.0 pair, and rows that differ on one axis only
    base = centers(n, 4)
    rows = np.concatenate([base, base[::-1], base[:2]])
    rows[1:3, 0] = rows[0, 0]
    rows[5, -1] = complex(-0.0, 0.4)
    rows[6, -1] = complex(0.0, 0.4)
    return rows


@pytest.mark.parametrize("make", [lambda: gaussian_density(2), lambda: gaussian_density(3),
                                  lambda: Product((Atoms([[0.3 + 0.1j], [-0.5j]], [1.0, 0.5 - 0.2j]),
                                                   Atoms([[0.0], [1.0 - 0.4j], [-0.7]], [2.0, 1.0, 0.3j])))],
                         ids=["gaussian2", "gaussian3", "atoms2"])
def test_product_pairings_equal_the_per_row_product(make):
    mu = make()
    for rows in (repeated_rows(mu.n), repeated_rows(mu.n)[:1]):
        expected = math.prod(gaussian_pairings(f, rows[:, j:j + 1]) for j, f in enumerate(mu.factors))
        np.testing.assert_array_equal(gaussian_pairings(mu, rows), expected)
