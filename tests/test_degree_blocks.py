"""Verification at the cost of what it reads: V_X in degree blocks, a pushforward's table conjugated
block by block, commutators on the interior rows alone, and Berezin values of an operator in rows."""

import math
import warnings

import numpy as np
import pytest

from focklab import indices, spectral, toeplitz
from focklab.basis import enumerate_basis, weyl_matrix
from focklab.cli import ExperimentConfig, run
from focklab.indices import graded_lex_indices, graded_lex_keys, substitution_blocks, substitution_matrix
from focklab.lagrangian import LagrangianFrame, l_invariance_test, vx_matrix
from focklab.measures import Atoms, Horizontal, moment_table, pushforward, real_gaussian
from focklab.quadrature import gather_axes
from focklab.spectral import diagonalization_residual, gamma_samples
from focklab.toeplitz import (
    AccuracyDomainWarning,
    OperatorMatrix,
    assemble_toeplitz,
    berezin_operator,
    interior_commutator_norm,
    interior_max_norm,
)


def dense_substitution(xstar, idx):
    """V_X in the basis e_alpha by the dense recurrence over the whole index set: column alpha is its
    parent's column alpha - e_j times the linear form (X* u)_j / sqrt(alpha_j), j the first nonzero axis."""
    position = {a: i for i, a in enumerate(idx)}
    n = len(idx[0])
    c = np.zeros((len(idx), len(idx)), dtype=complex)
    c[position[(0,) * n], position[(0,) * n]] = 1.0
    for col, alpha in enumerate(idx):
        if not any(alpha):
            continue
        j = next(i for i, a in enumerate(alpha) if a > 0)
        parent = c[:, position[alpha[:j] + (alpha[j] - 1,) + alpha[j + 1:]]]
        for row in np.flatnonzero(parent):
            gamma = idx[row]
            for m in range(n):  # u_m e_gamma = sqrt(gamma_m + 1) e_(gamma + e_m)
                up = position[gamma[:m] + (gamma[m] + 1,) + gamma[m + 1:]]
                c[up, col] += math.sqrt(gamma[m] + 1) * xstar[j, m] * parent[row] / math.sqrt(alpha[j])
    return c


def random_unitary(n, seed):
    rng = np.random.default_rng(seed)
    return np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]


def diagonal_frame(n):
    return LagrangianFrame(np.hstack([np.eye(n), np.eye(n)]))


def rotated_gaussian(n):
    frame = diagonal_frame(n)
    return pushforward(Horizontal(real_gaussian(n)), frame.rotation), frame


@pytest.mark.parametrize("n, degree", [(1, 12), (2, 9), (3, 6)])
@pytest.mark.parametrize("frame", ["diagonal", "random"])
def test_degree_blocks_match_the_dense_recurrence(n, degree, frame):
    x = diagonal_frame(n).rotation if frame == "diagonal" else random_unitary(n, degree)
    xstar = x.conj().T
    idx = graded_lex_indices(n, degree)
    reference = dense_substitution(xstar, idx)
    blocks = substitution_blocks(xstar, n, degree)
    assert [s.stop - s.start for s, _ in blocks] == [math.comb(d + n - 1, n - 1) for d in range(degree + 1)]
    assembled = np.zeros_like(reference)
    for s, block in blocks:
        assert [sum(idx[i]) for i in range(s.start, s.stop)] == [sum(idx[s.start])] * block.shape[0]
        assembled[s, s] = block
        np.testing.assert_allclose(block.conj().T @ block, np.eye(len(block)), atol=1e-13)
    assert np.max(np.abs(assembled - reference)) <= 1e-14 * np.max(np.abs(reference))
    np.testing.assert_array_equal(substitution_matrix(xstar, idx), assembled)
    basis = enumerate_basis(n, degree)
    np.testing.assert_array_equal(vx_matrix(x, basis), assembled)


def test_substitution_matrix_follows_the_order_of_its_indices():
    xstar = random_unitary(2, 5)
    idx = graded_lex_indices(2, 5)
    perm = np.random.default_rng(2).permutation(len(idx))
    full = substitution_matrix(xstar, idx)
    np.testing.assert_array_equal(substitution_matrix(xstar, [idx[i] for i in perm]), full[np.ix_(perm, perm)])


def test_degree_maps_are_cached_and_read_only():
    indices._raising.cache_clear()
    substitution_blocks(np.eye(3), 3, 6)
    substitution_blocks(random_unitary(3, 1), 3, 6)
    assert indices._raising.cache_info().hits == 1
    for step in indices._raising(3, 6):
        assert not any(x.flags.writeable for x in step[1:])


@pytest.mark.parametrize("n, degree", [(1, 14), (2, 8), (3, 5)])
def test_pushforward_table_is_the_dense_conjugate(n, degree):
    # C^T m conj(C), C = V_X, from the dense matrix: the block conjugation is the same table
    rng = np.random.default_rng(n)
    base = Atoms(0.6 * (rng.standard_normal((5, n)) + 1j * rng.standard_normal((5, n))), rng.uniform(0.5, 1.5, 5))
    x = random_unitary(n, 7)
    keys = graded_lex_indices(n, degree)
    c = dense_substitution(x.conj().T, keys)
    reference = c.T @ moment_table(base, keys) @ np.conj(c)
    table = moment_table(pushforward(base, x), keys)
    assert np.max(np.abs(table - reference)) <= 1e-14 * np.max(np.abs(reference))


def test_rotated_assembly_holds_its_table_and_one_buffer(traced_peak):
    mu, _ = rotated_gaussian(3)
    b = enumerate_basis(3, 12)
    assemble_toeplitz(mu, b)
    op, peak = traced_peak(lambda: assemble_toeplitz(mu, b))
    assert peak <= 1.5 * 16 * b.size ** 2
    t = assemble_toeplitz(Horizontal(real_gaussian(3)), b).entries
    v = vx_matrix(diagonal_frame(3).rotation, b)
    np.testing.assert_allclose(op.entries, v.conj().T @ t @ v, rtol=0, atol=1e-15)


@pytest.mark.parametrize("n, degree", [(2, 10), (3, 8)])
def test_interior_commutators_equal_the_full_products(n, degree):
    mu, frame = rotated_gaussian(n)
    b = enumerate_basis(n, degree)
    t = assemble_toeplitz(mu, b).entries
    report = l_invariance_test(mu, frame, b)
    unit = frame.vectors[:, :n] + 1j * frame.vectors[:, n:]
    unit = (unit / np.linalg.norm(unit, axis=1, keepdims=True)).T
    for j, value in enumerate(report.weyl_commutators):
        w = weyl_matrix(0.4 * unit[:, j], b)
        assert abs(value - interior_max_norm(t @ w - w @ t, b)) <= 1e-15
    other = assemble_toeplitz(Atoms(np.full((1, n), 0.3 - 0.4j), [1.0]), b).entries
    assert abs(interior_commutator_norm(t, other, b) - interior_max_norm(t @ other - other @ t, b)) <= 1e-15


@pytest.mark.parametrize("n, degree", [(2, 10), (3, 8)])
def test_commutativity_command_reads_the_interior_rows(tmp_path, n, degree):
    config = ExperimentConfig(command="commutativity", n=n, truncation=degree, measure="horizontal(gaussian(1.0))",
                              measure2="dirac(" + ", ".join(["0.3+0.2j"] * n) + ")", out=str(tmp_path), tolerance=1e9)
    assert run(config) == 0
    summary = dict(line.split(": ", 1) for line in (tmp_path / "summary.txt").read_text().splitlines())
    reported = float(summary["residual"])
    b = enumerate_basis(n, degree)
    t1 = assemble_toeplitz(Horizontal(real_gaussian(n)), b).entries
    t2 = assemble_toeplitz(Atoms(np.full((1, n), 0.3 + 0.2j), [1.0]), b).entries
    assert reported > 0 and abs(reported - interior_max_norm(t1 @ t2 - t2 @ t1, b)) <= 1e-15


def test_berezin_operator_rows_match_the_point_loop():
    b = enumerate_basis(2, 12)
    op = assemble_toeplitz(Atoms([[0.4 + 0.1j, -0.2j], [0.3, 0.5 - 0.2j]], [1.0, 0.6 + 0.2j]), b)
    rng = np.random.default_rng(4)
    z = 0.8 * (rng.standard_normal((7, 2)) + 1j * rng.standard_normal((7, 2)))
    rows = berezin_operator(op, z)
    assert rows.shape == (7,) and rows.dtype == complex
    points = np.array([berezin_operator(op, p) for p in z])
    assert np.max(np.abs(rows - points)) <= 1e-15 * np.max(np.abs(points))
    assert isinstance(berezin_operator(op, z[0]), complex)
    assert berezin_operator(op, 0.2) == berezin_operator(op, [0.2, 0.2])


def test_berezin_operator_warning_names_the_first_degraded_row():
    b = enumerate_basis(1, 6)
    eye = OperatorMatrix(b, np.eye(b.size, dtype=complex))
    with pytest.warns(AccuracyDomainWarning, match=r"row 2, z=\[3\.\+0\.j\]") as caught:
        values = berezin_operator(eye, [[0.1], [0.2], [3.0], [4.0]])
    assert len(caught) == 1 and values.shape == (4,)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        berezin_operator(eye, [[0.1], [0.2]])
    with pytest.warns(AccuracyDomainWarning, match=r"at z=\[3\.\+0\.j\]"):
        berezin_operator(eye, [3.0])


def test_diagonalization_residual_makes_one_kernel_call_per_route(monkeypatch):
    calls = {"berezin_operator": 0, "berezin_coderivative": 0}
    for name in calls:
        original = getattr(spectral, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(spectral, name, counted)
    b = enumerate_basis(2, 8)
    report = diagonalization_residual(Horizontal(real_gaussian(2)), (2, 0), b)
    assert calls == {"berezin_operator": 1, "berezin_coderivative": 1}
    monkeypatch.undo()
    z = np.outer([0.0, 0.4, 0.4 + 0.3j, -0.6 + 0.2j, 0.8j], np.ones(2))
    gaps = [abs(berezin_operator(report.toeplitz, p) - toeplitz.berezin_coderivative(Horizontal(real_gaussian(2)),
                                                                                      (2, 0), p)) for p in z]
    assert report.berezin_gap == pytest.approx(max(gaps), rel=1e-12, abs=1e-15)


def test_repeated_gathers_enumerate_their_keys_once(monkeypatch):
    calls = []
    original = indices.graded_lex_indices
    monkeypatch.setattr(indices, "graded_lex_indices", lambda *a: calls.append(a) or original(*a))
    graded_lex_keys.cache_clear()
    mats = [np.eye(9, dtype=complex)] * 3
    first = gather_axes(mats, 8)
    for _ in range(3):
        keys, table = gather_axes(mats, 8)
    assert len(calls) <= 1 and keys is first[0]
    np.testing.assert_array_equal(table, np.eye(len(keys)))
    axes = graded_lex_keys(3, 8)[1]
    assert not axes.flags.writeable
    np.testing.assert_array_equal(axes, np.array(graded_lex_indices(3, 8)).T)
    graded_lex_keys.cache_clear()


@pytest.mark.parametrize("two_k, built", [((0, 0, 0), 1), ((2, 0, 2), 2)])
def test_gamma_samples_build_one_vector_per_distinct_axis(monkeypatch, two_k, built):
    calls = []
    original = spectral.gamma_2k
    monkeypatch.setattr(spectral, "gamma_2k", lambda *a: calls.append(a[1].doubled) or original(*a))
    samples = gamma_samples(real_gaussian(3), two_k)
    assert len(calls) == built
    for j, t in enumerate(two_k):
        np.testing.assert_array_equal(samples.factors[j], original(real_gaussian(1), (t,), samples.grid[:80, 2:3]))
