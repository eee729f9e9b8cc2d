"""Horizontal symbols in real arithmetic: the half-rule moment tables and the real eigensolve."""

import math

import numpy as np
import pytest

from focklab.basis import enumerate_basis
from focklab.indices import factorial, graded_lex_indices
from focklab.measures import (
    AlphaHorizontal,
    Lebesgue,
    RealAtoms,
    RealDensity,
    dimension,
    gaussian_nodes,
    moment,
    moment_table,
    pushforward,
    real_gaussian,
)
from focklab.quadrature import MAX_ORDER, gauss_hermite
from focklab.spectral import gamma_samples, norm_and_spectrum
from focklab.toeplitz import assemble_toeplitz


def _coupled_density():
    # real, not a product and not even in either axis
    return RealDensity(lambda t: np.exp(-np.sum((t - 0.3) ** 2, axis=1) - 0.5 * t[:, 0] * t[:, 1]), 2)


def _atoms(weights):
    # atoms 0 and 1 share their first coordinate
    return RealAtoms(np.array([[0.3, -0.5], [0.3, 0.7], [-1.1, 0.2]]), np.array(weights))


RHOS = {  # (rho, degree, real-weighted)
    "lebesgue-1": (lambda: Lebesgue(1), 12, True),
    "gaussian-1": (lambda: real_gaussian(1), 12, True),
    "gaussian-2": (lambda: real_gaussian(2), 6, True),
    "gaussian-3": (lambda: real_gaussian(3), 4, True),
    "coupled-density-2": (_coupled_density, 3, True),
    "real-atoms-2": (lambda: _atoms([1.0, 0.5, -0.7]), 6, True),
    "complex-atoms-2": (lambda: _atoms([1.0, 0.5j, -0.7 + 0.2j]), 6, False),
}


def per_node_reference(mu, indices, order):
    """Entry (alpha, beta) = m_{alpha,beta} / sqrt(alpha! beta!), summed node by node over
    ``gaussian_nodes`` as ``measures.moment`` sums it (one entry is checked against it), in node
    blocks; a product multiplies its factors' references (the flat node set of real_gaussian(3)
    at order 40 is past the node cap)."""
    factors = mu.axis_factors()
    if factors is not None:
        return math.prod(per_node_reference(f, [a[j:j + 1] for a in indices], order) for j, f in enumerate(factors))
    pts, wts = gaussian_nodes(mu, np.zeros(dimension(mu)), order)
    scale = np.array([math.sqrt(factorial(a)) for a in indices])
    table = np.zeros((len(indices), len(indices)), dtype=complex)
    for s in range(0, wts.size, 100_000):
        z = pts[s:s + 100_000]
        pows = np.stack([math.prod(z[:, j] ** aj for j, aj in enumerate(a)) for a in indices], axis=1) / scale
        table += (pows * wts[s:s + 100_000, None]).T @ np.conj(pows)
    i, k = len(indices) - 1, len(indices) // 2
    a, b = indices[i], indices[k]
    assert abs(moment(mu, a, b, order) / (scale[i] * scale[k]) - table[i, k]) <= 1e-13 * np.max(np.abs(table))
    return table


def test_gauss_hermite_rules_are_exactly_mirrored():
    # the half rule rests on it: nodes -v and v, equal weights, and an exact 0.0 middle node for odd q
    for q in range(1, MAX_ORDER + 1):
        rule = gauss_hermite(q)
        assert np.array_equal(rule.nodes, -rule.nodes[::-1]) and np.array_equal(rule.weights, rule.weights[::-1])
        assert q % 2 == 0 or rule.nodes[q // 2] == 0.0


@pytest.mark.parametrize("order", [40, 41], ids=["no-middle-node", "middle-node"])
@pytest.mark.parametrize("alpha_doubled", [0, 1, 2])
@pytest.mark.parametrize("name", list(RHOS))
def test_half_rule_table_matches_the_per_node_moments(name, alpha_doubled, order):
    make, degree, real_weighted = RHOS[name]
    rho = make()
    mu = AlphaHorizontal(rho, (alpha_doubled,) * rho.n)
    idx = graded_lex_indices(rho.n, degree)
    table = moment_table(mu, idx, order)
    want = per_node_reference(mu, idx, order)
    assert np.max(np.abs(table - want)) <= 1e-13 * np.max(np.abs(want))
    if real_weighted:
        assert np.all(table.imag == 0)
    else:
        assert np.max(np.abs(table.imag)) > 1e-3


def test_real_weighted_horizontal_operator_is_exactly_real():
    entries = assemble_toeplitz(AlphaHorizontal(real_gaussian(2), (1, 2)), enumerate_basis(2, 10)).entries
    assert entries.dtype == complex and np.all(entries.imag == 0)


class _EigvalshSpy:
    """Records the dtype of every matrix handed to np.linalg.eigvalsh and the eigenvalues it returned."""

    def __init__(self, monkeypatch):
        self.calls = []
        self._solve = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", self)

    def __call__(self, a, *args, **kwargs):
        eigs = self._solve(a, *args, **kwargs)
        self.calls.append((a.dtype, eigs))
        return eigs


def test_real_symmetric_operator_takes_the_real_solve(monkeypatch):
    b = enumerate_basis(3, 12)
    op = assemble_toeplitz(AlphaHorizontal(real_gaussian(3)), b)
    samples = gamma_samples(real_gaussian(3), (0, 0, 0), 24)
    entries = op.entries
    want = np.linalg.eigvalsh((entries + entries.conj().T) / 2.0)
    spy = _EigvalshSpy(monkeypatch)
    rep = norm_and_spectrum(op, samples)
    (dtype, eigs), = spy.calls
    assert dtype == np.float64
    assert np.max(np.abs(eigs - want)) <= 1e-13
    assert abs(rep.operator_norm - np.max(np.abs(want))) <= 1e-13
    assert rep.spectral_radius == rep.operator_norm


def test_hermitian_operator_with_an_imaginary_part_keeps_the_complex_solve(monkeypatch):
    mu = pushforward(AlphaHorizontal(real_gaussian(2)), np.diag([(1 + 1j) / math.sqrt(2.0)] * 2))
    b = enumerate_basis(2, 16)
    op = assemble_toeplitz(mu, b)
    samples = gamma_samples(real_gaussian(2), (0, 0), 80)
    entries = op.entries
    assert np.any(entries.imag) and op.hermitian_defect() < 1e-10
    want = np.linalg.eigvalsh((entries + entries.conj().T) / 2.0)
    spy = _EigvalshSpy(monkeypatch)
    rep = norm_and_spectrum(op, samples)
    (dtype, eigs), = spy.calls
    assert dtype == np.complex128
    np.testing.assert_array_equal(eigs, want)
    assert rep.operator_norm == rep.spectral_radius == float(np.max(np.abs(want)))
