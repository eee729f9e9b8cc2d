"""Factored products against their flat references.

For rho = rho_1 (x) .. (x) rho_n every integral of rho (x) nu_alpha is a product
of one-axis integrals: the entry points read ``axis_factors()`` and integrate
factor by factor, and moment tables and the Hermite-side matrix of
gamma_{rho,2k} are gathers of n one-axis tables.  The reference is the same
measure with rho held as one n-dimensional measure, which answers no factors:
``RealDensity(rho.density, n)``, or for atom factors the ``RealAtoms`` of the
factors' tensor product.  A built-in Gaussian integrates on the rule of its
combined weight, which no flat density shares, so its products are compared
here as the Gaussian sampled per axis (``sampled_gaussian``).
"""


import numpy as np
import pytest

from focklab import quadrature
from focklab.basis import enumerate_basis
from focklab.indices import HalfIndex
from focklab.measures import (
    AlphaHorizontal,
    Density,
    Gaussian,
    Horizontal,
    Product,
    RealAtoms,
    RealDensity,
    RealProduct,
    ball_mass,
    gaussian_density,
    gaussian_nodes,
    gaussian_pairings,
    lebesgue,
    moment_table,
    real_gaussian,
    weight,
)
from focklab.quadrature import tensor_grid
from focklab.spectral import (
    diagonalization_residual,
    gamma_2k,
    gamma_samples,
    multiplication_matrix,
)
from focklab.toeplitz import assemble_real_coderivative, assemble_toeplitz

RTOL = 1e-14


def assert_close(got, expected):
    assert got.shape == expected.shape
    assert np.max(np.abs(got - expected)) <= RTOL * np.max(np.abs(expected))


def flat(mu):
    """mu with its rho as one n-dimensional measure, which answers no factors."""
    factors = mu.rho.axis_factors()
    if all(isinstance(f, RealAtoms) for f in factors):
        rho = RealAtoms(*tensor_grid([f.points[:, 0] for f in factors], [f.weights for f in factors]))
    else:
        rho = RealDensity(mu.rho.density, mu.n)
    return AlphaHorizontal(rho, mu.alpha_doubled)


def sampled_gaussian(n):
    return RealProduct((RealDensity(lambda t: np.exp(-t[:, 0] ** 2), 1),) * n)


ATOMS = RealProduct((RealAtoms([[0.3], [-0.7]], [1.0, 0.5 - 0.2j]),
                     RealAtoms([[1.1], [0.2], [-0.4]], [0.8, 0.3, 1.2])))

PRODUCTS = [
    pytest.param(Horizontal(sampled_gaussian(2)), 20, id="gaussian-2"),
    pytest.param(Horizontal(sampled_gaussian(3)), 8, id="gaussian-3"),
    pytest.param(weight(lebesgue(2), (1, 1)), 12, id="weighted-lebesgue-2"),
    pytest.param(AlphaHorizontal(sampled_gaussian(2), (1, 3)), 12, id="alpha-product"),
    pytest.param(Horizontal(ATOMS), 12, id="atom-factors"),
    pytest.param(lebesgue(2), 20, id="lebesgue-2"),
    pytest.param(lebesgue(3), 8, id="lebesgue-3"),
]


def rows(n):
    rng = np.random.default_rng(n)
    c = rng.uniform(-1.0, 1.0, (5, n)) + 1j * rng.uniform(-1.0, 1.0, (5, n))
    c[3, 0] = c[0, 0]  # a repeated coordinate is built once and gathered back
    return c


def node_sum(mu):
    """sum_i w_i F(w_i) over ``gaussian_nodes`` at one centre, F a polynomial in w and conj(w)."""
    pts, wts = gaussian_nodes(mu, rows(mu.n)[1], 20 if mu.n == 2 else 8)
    return np.array([np.sum(wts * np.prod(1.0 + 0.5 * pts + 0.25j * np.conj(pts) ** 2, axis=1))])


OPERATIONS = {
    "moments": lambda mu, degree: moment_table(mu, enumerate_basis(mu.n, degree).indices),
    "pairings": lambda mu, degree: gaussian_pairings(mu, rows(mu.n)),
    "polydisk": lambda mu, degree: ball_mass(mu, rows(mu.n), np.linspace(0.6, 1.2, mu.n)),
    "node-sums": lambda mu, degree: node_sum(mu),
}


@pytest.mark.parametrize("op", OPERATIONS)
@pytest.mark.parametrize("mu, degree", PRODUCTS)
def test_product_matches_its_flat_reference(mu, degree, op):
    reference = flat(mu)
    assert mu.axis_factors() is not None and reference.axis_factors() is None
    assert_close(OPERATIONS[op](mu, degree), OPERATIONS[op](reference, degree))


def test_real_coderivative_of_a_product_matches_its_flat_reference():
    mu, b = Horizontal(sampled_gaussian(2)), enumerate_basis(2, 16)
    assert_close(assemble_real_coderivative(mu, (1, 1), b).entries,
                 assemble_real_coderivative(flat(mu), (1, 1), b).entries)


@pytest.mark.parametrize("mu, tables", [
    pytest.param(Horizontal(real_gaussian(3)), 1, id="gaussian-3"),
    pytest.param(lebesgue(3), 1, id="lebesgue-3"),
    pytest.param(gaussian_density(2), 1, id="gaussian-density-2"),
    pytest.param(Horizontal(RealProduct((real_gaussian(1), real_gaussian(1, 2.0)))), 2, id="two-widths"),
    pytest.param(AlphaHorizontal(real_gaussian(2), (1, 2)), 2, id="two-alphas"),
])
def test_each_distinct_factor_table_is_built_once(monkeypatch, mu, tables):
    # factors equal by value share one one-axis table, also when the coderivative lowers each axis
    built = []
    for cls in (AlphaHorizontal, Density, Gaussian):
        def spy(self, maxdeg, order, moments=cls.moments):
            built.append(self.n)
            return moments(self, maxdeg, order)
        monkeypatch.setattr(cls, "moments", spy)
    assemble_real_coderivative(mu, (1,) * mu.n, enumerate_basis(mu.n, 8))
    assert built == [1] * tables


def test_products_are_pure_data():
    protocol = {"nodes", "pairing", "moments", "ball_mass", "real_nodes", "real_sums", "axis_grid"}
    for cls in (Product, RealProduct):
        own = [c for c in cls.__mro__ if "Product" in c.__name__]
        assert not protocol & set().union(*map(vars, own)), cls.__name__


@pytest.mark.parametrize("n, degree", [(2, 16), (3, 8)])
def test_multiplication_matrix_of_a_product_rho_is_the_gather(n, degree):
    # one-axis tables gathered against the n-axis contraction of the same rho held flat
    b = enumerate_basis(n, degree)
    mu = Horizontal(sampled_gaussian(n))
    assert_close(multiplication_matrix(mu.rho, (1,) * n, b).entries,
                 multiplication_matrix(flat(mu).rho, (1,) * n, b).entries)
    assert_close(multiplication_matrix(ATOMS, (2, 1), enumerate_basis(2, degree)).entries,
                 multiplication_matrix(flat(Horizontal(ATOMS)).rho, (2, 1), enumerate_basis(2, degree)).entries)
    # gamma samples of a product keep one vector per axis, and the flat values are the n-dimensional gamma
    samples = gamma_samples(real_gaussian(n), (1,) * n)
    assert [f.shape for f in samples.factors] == [(80,)] * n
    assert_close(samples.values, gamma_2k(real_gaussian(n), HalfIndex.of((1,) * n, n), samples.grid))


def test_diagonalization_at_four_axes():
    report = diagonalization_residual(real_gaussian(4), 0, enumerate_basis(4, 12))
    assert report.residual <= 1e-13


def test_flat_samples_past_the_node_cap_are_refused_by_size():
    samples = gamma_samples(real_gaussian(4), 0)
    for flat_view in ("values", "grid"):
        with pytest.raises(ValueError, match=r"needs 40960000 nodes"):
            getattr(samples, flat_view)


@pytest.mark.parametrize("mu, n, degree", [
    (Horizontal(RealDensity(lambda t: np.ones(t.shape[0]), 4)), 4, 20),
    (lebesgue(4), 4, 20),
    (Horizontal(real_gaussian(3)), 3, 35),
], ids=["dense-grid", "gather-lebesgue", "gather"])
def test_contraction_over_the_byte_cap_is_refused_before_it_allocates(mu, n, degree, traced_peak):
    # the dense pass's second step would hold 231^2 x 40^2 pairs (1.4 GB), the gathers
    # 10626^2 entries (1.8 GB) and 8436^2 entries (1.1 GB)
    b = enumerate_basis(n, degree)
    refusal, peak = traced_peak(lambda: pytest.raises(ValueError, assemble_toeplitz, mu, b))
    refusal.match(rf"needs a \d+-byte array \(cap {quadrature.MAX_BYTES}\)")
    assert peak < 2e8
