"""Factored horizontal products against the dense weight-grid contraction.

For rho = rho_1 (x) .. (x) rho_n, the moment table of rho (x) nu_alpha and the
Hermite-side matrix of gamma_{rho,2k} are gathers of n one-axis tables: a
rank-one grid in ``quadrature.contract_axes``.  The reference is the dense
contraction of the same per-axis tables against the outer product of the same
per-axis weights, built inside each test.
"""

import functools
import tracemalloc

import numpy as np
import pytest

from focklab import quadrature
from focklab.basis import enumerate_basis
from focklab.indices import HalfIndex, select_table
from focklab.measures import (
    AlphaHorizontal,
    Horizontal,
    RealAtoms,
    RealProduct,
    lebesgue,
    moment_table,
    real_gaussian,
    weight,
)
from focklab.quadrature import contract_axes, gauss_hermite
from focklab.spectral import (
    diagonalization_residual,
    gamma_2k,
    gamma_samples,
    hermite_function_matrix,
    multiplication_matrix,
)
from focklab.toeplitz import assemble_real_coderivative, assemble_toeplitz

RTOL = 1e-14


def assert_close(got, expected):
    assert got.shape == expected.shape
    assert np.max(np.abs(got - expected)) <= RTOL * np.max(np.abs(expected))


@pytest.fixture
def dense(monkeypatch):
    """``fn()`` with every RealProduct weight grid handed over as the outer product of its factors'."""
    factored = RealProduct.axis_grid

    def outer(self, order):
        axes, weights = factored(self, order)
        assert isinstance(weights, tuple)
        return axes, functools.reduce(np.multiply.outer, weights)

    def call(fn):
        with monkeypatch.context() as m:
            m.setattr(RealProduct, "axis_grid", outer)
            return fn()

    return call


ATOMS = RealProduct((RealAtoms([[0.3], [-0.7]], [1.0, 0.5 - 0.2j]),
                     RealAtoms([[1.1], [0.2], [-0.4]], [0.8, 0.3, 1.2])))


@pytest.mark.parametrize("mu, degree", [
    (Horizontal(real_gaussian(2)), 20),
    (Horizontal(real_gaussian(3)), 8),
    (weight(lebesgue(2), (1, 1)), 12),
    (AlphaHorizontal(real_gaussian(2), (1, 3)), 12),
    (Horizontal(ATOMS), 12),
], ids=["gaussian-2", "gaussian-3", "weighted-lebesgue-2", "alpha-product", "atom-factors"])
def test_moment_table_is_the_gather_of_one_axis_tables(mu, degree, dense):
    assert mu.rho.axis_factors() is not None
    keys = enumerate_basis(mu.n, degree).indices
    assert_close(moment_table(mu, keys), dense(lambda: moment_table(mu, keys)))


def test_real_coderivative_of_a_product_is_the_gather(dense):
    mu, b = Horizontal(real_gaussian(2)), enumerate_basis(2, 16)
    assert_close(assemble_real_coderivative(mu, (1, 1), b).entries,
                 dense(lambda: assemble_real_coderivative(mu, (1, 1), b).entries))


@pytest.mark.parametrize("n, degree", [(2, 16), (3, 8)])
def test_multiplication_matrix_of_factored_samples_is_the_gather(n, degree):
    samples = gamma_samples(real_gaussian(n), (1,) * n)
    assert [f.shape for f in samples.factors] == [(80,)] * n
    b = enumerate_basis(n, degree)
    rule = gauss_hermite(samples.quad_order)
    h = hermite_function_matrix(degree, rule.nodes).T
    grid = functools.reduce(np.multiply.outer, [rule.weights * f for f in samples.factors])
    keys, table = contract_axes([h[:, :, None] * h[:, None, :]] * n, grid, degree)
    assert_close(multiplication_matrix(samples, b).entries, select_table(keys, table, b.indices))
    # the flat values are the n-dimensional gamma on the grid
    assert_close(samples.values, gamma_2k(real_gaussian(n), HalfIndex.of((1,) * n, n), samples.grid))


def test_diagonalization_at_four_axes():
    report = diagonalization_residual(real_gaussian(4), 0, enumerate_basis(4, 12))
    assert report.residual <= 1e-13


def test_flat_samples_past_the_node_cap_are_refused_by_size():
    samples = gamma_samples(real_gaussian(4), 0)
    for flat in ("values", "grid"):
        with pytest.raises(ValueError, match=r"needs 40960000 nodes"):
            getattr(samples, flat)


@pytest.mark.parametrize("mu, n, degree", [(lebesgue(4), 4, 20), (Horizontal(real_gaussian(3)), 3, 35)],
                         ids=["dense-grid", "gather"])
def test_contraction_over_the_byte_cap_is_refused_before_it_allocates(mu, n, degree):
    # the dense pass's second step would hold 231^2 x 40^2 pairs (1.4 GB), the gather
    # 8436^2 entries (1.1 GB)
    b = enumerate_basis(n, degree)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=rf"needs a \d+-byte array \(cap {quadrature.MAX_BYTES}\)"):
            assemble_toeplitz(mu, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e8
