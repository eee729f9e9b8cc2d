import math

import numpy as np
import pytest

from focklab import lagrangian
from focklab.basis import enumerate_basis
from focklab.indices import HalfIndex
from focklab.lagrangian import (
    LagrangianFrame,
    assemble_l_real_coderivative,
    complex_identification,
    is_lagrangian,
    l_invariance_test,
    rotation_defect,
    vx_matrix,
)
from focklab.measures import (
    Atoms,
    Horizontal,
    dirac,
    pushforward,
    real_dirac,
    real_gaussian,
)
from focklab.spectral import multiplication_matrix
from focklab.toeplitz import assemble_real_coderivative, assemble_toeplitz, interior_max_norm

K0 = HalfIndex.from_doubled((0,))


def j_form_defect(vectors) -> float:
    """Reference: max_ij |omega_0(b_i, b_j)| through the 2n x 2n matrix J = [[0, I], [-I, 0]]."""
    v = np.asarray(vectors, dtype=float)
    n = v.shape[0]
    j = np.block([[np.zeros((n, n)), np.eye(n)], [-np.eye(n), np.zeros((n, n))]])
    assert np.array_equal(j @ j, -np.eye(2 * n))
    return float(np.max(np.abs((j @ v.T).T @ v.T)))


def _frames(n, seed):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    c = q @ (rng.standard_normal((n, n)) + 1.5 * np.eye(n))
    yield np.hstack([c.T.real, c.T.imag])  # a real respan of a unitary's columns: Lagrangian
    yield rng.standard_normal((n, 2 * n))  # a random real frame: not Lagrangian from n = 2 on
    v = rng.standard_normal((n, 2 * n))
    v[-1] = np.concatenate([v[0, n:], -v[0, :n]])  # a vector with its J-image, from n = 2 on
    yield v


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("n", [1, 2, 3])
def test_gram_defect_matches_the_symplectic_form(seed, n):
    for vectors in _frames(n, seed):
        ok, defect = is_lagrangian(vectors)
        reference = j_form_defect(vectors)
        assert defect == pytest.approx(reference, rel=1e-15, abs=1e-15)
        rank_ok = np.linalg.matrix_rank(vectors, tol=1e-10) == n
        assert ok == (reference <= lagrangian.LAGRANGIAN_TOL and rank_ok)


def test_frame_rotation_validates_the_frame_once(monkeypatch):
    calls = []
    original = lagrangian.is_lagrangian
    monkeypatch.setattr(lagrangian, "is_lagrangian", lambda v: calls.append(1) or original(v))
    frame = LagrangianFrame(np.array([[1.0, 0.0, 0.5, 0.3], [0.0, 1.0, 0.3, -0.2]]))
    assert rotation_defect(frame, frame.rotation) <= 1e-12
    assert len(calls) == 1


def test_coordinate_planes_and_diagonal_are_lagrangian():
    ok, _ = is_lagrangian([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])  # L_x, n=2
    assert ok
    ok, _ = is_lagrangian([[0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]])  # L_y, n=2
    assert ok
    ok, _ = is_lagrangian([[1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0]])  # diagonal
    assert ok


def test_vector_with_its_j_image_is_not_lagrangian():
    # omega_0(e1, J e1) = |e1|^2 = 1
    ok, defect = is_lagrangian([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, -1.0, 0.0]])
    assert not ok
    assert defect == pytest.approx(1.0)


def test_rank_deficient_frame_rejected():
    ok, _ = is_lagrangian([[1.0, 0.0, 0.0, 0.0], [2.0, 0.0, 0.0, 0.0]])
    assert not ok
    with pytest.raises(ValueError):
        LagrangianFrame(np.array([[1.0, 0.0, 0.0, 0.0], [2.0, 0.0, 0.0, 0.0]]))


def test_wrong_shape_rejected():
    with pytest.raises(ValueError):
        is_lagrangian([[1.0, 0.0, 0.0]])


def test_vertical_plane_admits_identity_rotation():
    frame = LagrangianFrame(np.array([[0.0, 1.0]]))  # iR in C^1
    assert rotation_defect(frame, np.eye(1, dtype=complex)) <= 1e-12
    assert rotation_defect(frame, frame.rotation) <= 1e-12


def test_horizontal_plane_validates_minus_i():
    frame = LagrangianFrame(np.array([[1.0, 0.0]]))
    assert rotation_defect(frame, np.array([[-1j]])) <= 1e-12
    assert rotation_defect(frame, frame.rotation) <= 1e-12
    # the computed rotation is unitary and deterministic
    np.testing.assert_allclose(frame.rotation, [[1j]])


def test_diagonal_plane_rotation_orientation():
    # the unitarized diagonal rotation: (1/sqrt2)(1+i) maps Delta onto iR^n,
    # while its adjoint (1/sqrt2)(1-i) maps iR^n back onto Delta
    frame = LagrangianFrame(np.array([[1.0, 1.0]]))
    x_plus = np.array([[(1 + 1j) / math.sqrt(2)]])
    x_minus = np.array([[(1 - 1j) / math.sqrt(2)]])
    assert rotation_defect(frame, x_plus) <= 1e-12
    assert rotation_defect(frame, x_minus) > 0.5
    assert rotation_defect(frame, x_minus.conj().T) <= 1e-12
    assert np.max(np.abs(x_minus.conj().T @ x_minus - np.eye(1))) <= 1e-12
    assert rotation_defect(frame, frame.rotation) <= 1e-12


def test_rotation_works_on_generic_lagrangian_frame():
    # tilted plane in R^4 spanned by two omega-orthogonal vectors
    v1 = np.array([1.0, 0.0, 0.5, 0.3])
    v2 = np.array([0.0, 1.0, 0.3, -0.2])  # omega_0(v1, v2) = 0 by construction
    ok, defect = is_lagrangian([v1, v2])
    assert ok, defect
    frame = LagrangianFrame(np.array([v1, v2]))
    assert rotation_defect(frame, frame.rotation) <= 1e-12


def test_two_rotations_differ_by_real_orthogonal():
    frame = LagrangianFrame(np.array([[1.0, 1.0]]))
    x = frame.rotation
    y = -x  # another valid rotation
    assert rotation_defect(frame, y) <= 1e-12
    # Y X* maps iR^n to itself: it is real orthogonal
    composed = y @ x.conj().T
    assert np.max(np.abs(composed.imag)) <= 1e-12
    np.testing.assert_allclose(composed.real @ composed.real.T, np.eye(1), atol=1e-12)


def test_vx_matrix_is_unitary_and_degree_block():
    theta = 0.6
    x2 = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]) @ np.diag(
        [np.exp(0.4j), np.exp(-0.2j)]
    )
    rng = np.random.default_rng(3)
    x3, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    for x, b in [(x2, enumerate_basis(2, 5)), (x3, enumerate_basis(3, 4))]:
        v = vx_matrix(x, b)
        np.testing.assert_allclose(v.conj().T @ v, np.eye(b.size), atol=1e-12)
        for i, a in enumerate(b.indices):
            for j, c in enumerate(b.indices):
                if sum(a) != sum(c):
                    assert v[i, j] == 0


def test_pushforward_assembly_compatible_with_vx_conjugation():
    b = enumerate_basis(2, 5)
    x = np.array([[0, 1.0], [1.0, 0]]) @ np.diag([np.exp(0.3j), 1.0])
    mu = Atoms([[0.5 + 0.2j, -0.3 + 0.1j], [0.1 - 0.4j, 0.2 + 0.2j]], [1.0, 0.7])
    t = assemble_toeplitz(mu, b).entries
    t_pushed = assemble_toeplitz(pushforward(mu, x), b).entries
    v = vx_matrix(x, b)
    assert interior_max_norm(t_pushed - v.conj().T @ t @ v, b) <= 1e-6


def test_invariance_of_horizontal_measure_under_vertical_frame():
    frame = LagrangianFrame(np.array([[0.0, 1.0]]))  # iR^n
    b = enumerate_basis(1, 12)
    rep = l_invariance_test(Horizontal(real_gaussian(1)), frame, b)
    assert rep.invariant


def test_invariance_of_constructed_horizontal_pushforward():
    frame = LagrangianFrame(np.array([[1.0, 0.0]]))  # L_x
    b = enumerate_basis(1, 12)
    mu = pushforward(Horizontal(real_gaussian(1)), frame.rotation)
    rep = l_invariance_test(mu, frame, b)
    assert rep.invariant


def test_atom_is_not_translation_invariant():
    frame = LagrangianFrame(np.array([[1.0, 0.0]]))
    b = enumerate_basis(1, 12)
    rep = l_invariance_test(dirac([0.0]), frame, b)
    assert not rep.invariant


def test_l_coderivative_with_vertical_frame_reduces_to_plain():
    frame = LagrangianFrame(np.array([[0.0, 1.0]]))
    b = enumerate_basis(1, 8)
    mu = Horizontal(real_dirac([0.4]))
    k = HalfIndex.from_doubled((2,))
    lhs = assemble_l_real_coderivative(mu, k, frame, b)
    rhs = assemble_real_coderivative(mu, k, b)
    np.testing.assert_allclose(lhs.entries, rhs.entries, atol=1e-12)


def test_l_coderivative_diagonalizes_for_horizontal_frame():
    frame = LagrangianFrame(np.array([[1.0, 0.0]]))
    b = enumerate_basis(1, 10)
    rho = real_gaussian(1)
    mu = pushforward(Horizontal(rho), frame.rotation)
    k = HalfIndex.from_doubled((2,))
    op = assemble_l_real_coderivative(mu, k, frame, b)
    mult = multiplication_matrix(rho, k, b)
    assert interior_max_norm(op.entries - mult.entries, b) <= 1e-5


def test_diagonal_frame_matches_horizontal_case_through_vx():
    # |k| = 0 with a diagonal-invariant measure: the rotated operator equals
    # the horizontal one, and the unrotated matrix is its V_X conjugate
    frame = LagrangianFrame(np.array([[1.0, 1.0]]))
    b = enumerate_basis(1, 10)
    rho = real_gaussian(1)
    mu = pushforward(Horizontal(rho), frame.rotation)
    t_rotated = assemble_l_real_coderivative(mu, K0, frame, b).entries
    t_horizontal = assemble_toeplitz(Horizontal(rho), b).entries
    assert np.max(np.abs(t_rotated - t_horizontal)) <= 1e-6
    v = vx_matrix(frame.rotation, b)
    t_raw = assemble_toeplitz(mu, b).entries
    assert np.max(np.abs(t_raw - v.conj().T @ t_horizontal @ v)) <= 1e-6


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("n", [1, 2, 3])
def test_random_frames_rotate_to_vertical(seed, n):
    # any real-linear respan of a unitary's columns is a Lagrangian frame;
    # the computed rotation must validate regardless of conditioning
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    mix = rng.standard_normal((n, n)) + np.eye(n) * 1.5  # keep it invertible
    c = q @ mix
    vectors = np.hstack([c.T.real, c.T.imag])
    ok, defect = is_lagrangian(vectors)
    assert ok, defect
    frame = LagrangianFrame(vectors)
    assert rotation_defect(frame, frame.rotation) <= 1e-11
    # determinism: rebuilding the frame reproduces the same rotation exactly
    again = LagrangianFrame(vectors)
    np.testing.assert_array_equal(frame.rotation, again.rotation)


def test_complex_identification_columns():
    c = complex_identification([[1.0, 0.0, 0.5, -0.2], [0.0, 2.0, 0.0, 0.3]])
    np.testing.assert_allclose(c[:, 0], [1.0 + 0.5j, 0.0 - 0.2j])
    np.testing.assert_allclose(c[:, 1], [0.0, 2.0 + 0.3j])
