"""Batched pairings, gamma samples and streamed polydisk masses against per-centre node sums."""

import math

import numpy as np
import pytest

from focklab import quadrature
from focklab.carleson import condition_m
from focklab.indices import hermite
from focklab.measures import (
    AlphaHorizontal,
    Atoms,
    Density,
    Lebesgue,
    RealAtoms,
    RealDensity,
    ball_mass,
    gaussian_density,
    gaussian_nodes,
    gaussian_pairings,
    parse_real_measure,
    pushforward,
    real_gaussian,
    real_nodes,
    real_sums,
    weight,
)
from focklab.quadrature import MAX_EVALS, MAX_NODES, tensor_grid, tensor_sums
from focklab.spectral import gamma_2k, gamma_samples

RTOL = 1e-14


def assert_close(got, expected):
    # relative to the largest value: gamma of odd order crosses zero between centres
    got, expected = np.asarray(got), np.asarray(expected)
    assert got.shape == expected.shape
    assert np.max(np.abs(got - expected)) <= RTOL * np.max(np.abs(expected))


def centers(n, m, complex_=False, seed=3):
    rng = np.random.default_rng(seed + n)
    pts = rng.uniform(-1.2, 1.2, (m, n))
    return pts + 1j * rng.uniform(-1.2, 1.2, (m, n)) if complex_ else pts


def real_measures(n):
    rng = np.random.default_rng(n)
    return {
        "lebesgue": Lebesgue(n),
        "atoms": RealAtoms(rng.uniform(-1.0, 1.0, (4, n)), rng.uniform(0.5, 1.5, 4) + 0.3j),
        "gaussian": real_gaussian(n, 1.3),
        "grammar": parse_real_measure("density(exp(-r2) * (1 + x1**2))", n),
    }


def complex_measures(n):
    rng = np.random.default_rng(10 + n)
    x = np.eye(n, dtype=complex)
    x[0, 0] = np.exp(0.4j)
    if n == 2:
        x = np.array([[0.6, 0.8j], [0.8j, 0.6]])
    rotated = pushforward(AlphaHorizontal(real_gaussian(n), (2,) * n), x)
    return {
        "density": gaussian_density(n, 1.2),
        "atoms": Atoms(rng.uniform(-1, 1, (3, n)) + 1j * rng.uniform(-1, 1, (3, n)), rng.uniform(0.5, 1.5, 3)),
        "alpha-0": AlphaHorizontal(real_gaussian(n), (0,) * n),
        "alpha-half": AlphaHorizontal(real_measures(n)["atoms"], (1,) * n),
        "alpha-1": AlphaHorizontal(Lebesgue(n), (2,) * n),
        "pushforward": rotated,
        "weighted": weight(rotated, (1,) * n),
    }


def per_centre_gamma(rho, two_k, grid, order):
    out = []
    for x in grid:
        pts, wts = real_nodes(rho, x, order, scale=2.0)
        h = math.prod(hermite(t, math.sqrt(2.0) * x[j] - pts[:, j]) for j, t in enumerate(two_k))
        out.append((2.0 / math.pi) ** (len(x) / 2.0) * np.sum(wts * h))
    return np.array(out)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("kind", ["lebesgue", "atoms", "gaussian", "grammar"])
def test_gamma_matches_the_per_centre_node_sums(n, kind):
    rho = real_measures(n)[kind]
    grid = centers(n, 7)
    for two_k in [(0,) * n, (1,) * n, (3,) + (0,) * (n - 1)]:
        assert_close(gamma_2k(rho, two_k, grid, 24), per_centre_gamma(rho, two_k, grid, 24))


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("kind", ["lebesgue", "atoms", "gaussian", "grammar"])
def test_real_sums_match_the_per_centre_node_sums(n, kind):
    rho = real_measures(n)[kind]
    grid = centers(n, 5)

    def factor(j, c, t):
        return np.cos(t - 0.5 * c) + 0.2j * (j + 1)

    expected = []
    for c in grid:
        pts, wts = real_nodes(rho, c, 20)
        expected.append(np.sum(wts * math.prod(factor(j, c[j], pts[:, j]) for j in range(n))))
    assert_close(real_sums(rho, grid, factor, 20), np.array(expected))


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("kind", ["density", "atoms", "alpha-0", "alpha-half", "alpha-1", "pushforward", "weighted"])
def test_batched_pairings_match_the_per_centre_node_sums(n, kind):
    mu = complex_measures(n)[kind]
    c = centers(n, 5, complex_=True)
    expected = [np.sum(gaussian_nodes(mu, cc, 16)[1]) for cc in c]
    assert_close(gaussian_pairings(mu, c, 16), np.array(expected))


def test_a_density_pairing_split_into_slabs_matches_the_node_sums():
    # at order 20 one centre's grid has 400^2 points, more than a slab: it is split along its first axis
    mu = Density(lambda w: np.exp(-np.sum(np.abs(w - 0.3) ** 2, axis=1)) * (1 + w[:, 0].real ** 2), 2)
    c = centers(2, 2, complex_=True)
    assert 20 ** 4 > quadrature._BLOCK
    expected = [np.sum(gaussian_nodes(mu, cc, 20)[1]) for cc in c]
    assert_close(gaussian_pairings(mu, c, 20), np.array(expected))


def test_small_slabs_split_centres_and_first_axes(monkeypatch):
    rho = real_gaussian(2)
    grid = centers(2, 9)
    reference = gamma_2k(rho, (1, 1), grid, 12)
    monkeypatch.setattr(quadrature, "_BLOCK", 50)  # below one centre's 144 points
    assert_close(gamma_2k(rho, (1, 1), grid, 12), reference)
    assert_close(gamma_2k(rho, (1, 1), grid, 12), per_centre_gamma(rho, (1, 1), grid, 12))


def test_tensor_sums_is_the_weighted_grid_sum_per_centre(monkeypatch):
    rng = np.random.default_rng(0)
    axes = [rng.standard_normal((4, 3)), rng.standard_normal((4, 5)) + 1j, rng.standard_normal((4, 2))]
    weights = [rng.standard_normal((4, 3)), rng.standard_normal((4, 5)), rng.standard_normal((4, 2)) * 1j]

    def f(pts):
        return np.exp(0.1 * pts[:, 0]) * pts[:, 1] - pts[:, 2] ** 2

    expected = []
    for i in range(4):
        pts, w = tensor_grid([a[i] for a in axes], [w[i] for w in weights])
        expected.append(np.sum(w * f(pts)))
    for slab in (1000, 7, 1):
        monkeypatch.setattr(quadrature, "_BLOCK", slab)
        assert_close(tensor_sums(axes, weights, f), np.array(expected))


def test_a_constant_density_may_return_a_scalar():
    # densities are multiplied in by broadcasting, as the materialized node sets do
    mu = Density(lambda w: 2.0, 1)
    assert ball_mass(mu, [0.0], [1.0]) == pytest.approx(2.0 * math.pi, rel=1e-13)
    expected = np.sum(gaussian_nodes(mu, [0.4j], 16)[1])
    assert gaussian_pairings(mu, [[0.4j]], 16)[0] == pytest.approx(expected, rel=1e-14)


class Recorder:
    """A density wrapper that records the largest point array it was handed."""

    def __init__(self, f):
        self.f = f
        self.largest = 0
        self.calls = 0

    def __call__(self, pts):
        self.calls += 1
        self.largest = max(self.largest, pts.shape[0])
        return self.f(pts)


def test_no_density_sees_more_than_one_slab():
    # MAX_NODES bounds every materialized node set; streamed sums stay far below it
    rec = Recorder(real_gaussian(2).density)
    samples = gamma_samples(RealDensity(rec, 2), (1, 1))
    assert samples.values.shape == (80**2,) and 0 < rec.largest <= quadrature._BLOCK

    rec = Recorder(gaussian_density(2).density)
    mass = ball_mass(Density(rec, 2), [0.3, -0.2j], [0.9, 1.1])
    assert mass.real > 0 and 0 < rec.largest <= quadrature._BLOCK

    rec = Recorder(gaussian_density(2).density)
    report = condition_m(Density(rec, 2), 1.0, 1.0, order=20)
    assert report.normalized.sup_estimate > 0 and 0 < rec.largest <= quadrature._BLOCK
    assert quadrature._BLOCK <= MAX_NODES


def test_oversize_polydisk_mass_is_refused_before_any_evaluation():
    # (40 * 80)^3 = 3.3e10 polar points at n = 3
    assert MAX_EVALS >= (40 * 80) ** 2
    rec = Recorder(gaussian_density(3).density)
    with pytest.raises(ValueError, match=f"{(40 * 80) ** 3} evaluations"):
        ball_mass(Density(rec, 3), [0.0] * 3, [1.0] * 3)
    assert rec.calls == 0
