"""The extended half-integer order calculus, exercised end to end at 2k = 1."""

import math

import numpy as np
import pytest

from focklab.basis import enumerate_basis
from focklab.carleson import carleson_constant
from focklab.indices import HalfIndex
from focklab.measures import Horizontal, Lebesgue, lebesgue, real_gaussian, weight
from focklab.spectral import diagonalization_residual, gamma_2k, multiplication_matrix
from focklab.toeplitz import (
    assemble_real_coderivative,
    berezin_coderivative,
    berezin_measure,
    berezin_operator,
    interior_max_norm,
)

KHALF = HalfIndex.from_halves((0.5,))


def test_order_one_symbol_on_lebesgue_is_ladder_sum():
    # 2k = 1 on Lebesgue: T = (lowering) + (raising), entries sqrt(alpha)
    b = enumerate_basis(1, 8)
    t = assemble_real_coderivative(lebesgue(1), KHALF, b)
    expected = np.zeros((b.size, b.size))
    for a in range(1, b.size):
        expected[a - 1, a] = expected[a, a - 1] = math.sqrt(a)
    np.testing.assert_allclose(t.entries, expected, atol=1e-11)


def test_order_one_spectral_function_is_linear():
    # gamma for 2k = 1 on Lebesgue is sqrt(2) x, matching the ladder sum
    xs = np.array([[0.0], [1.0], [-0.4]])
    vals = gamma_2k(Lebesgue(1), KHALF, xs)
    np.testing.assert_allclose(vals, math.sqrt(2) * xs[:, 0], atol=1e-12)


def test_order_one_diagonalization():
    b = enumerate_basis(1, 10)
    for rho in (Lebesgue(1), real_gaussian(1)):
        rep = diagonalization_residual(rho, KHALF, b)
        assert rep.residual <= 1e-10


def test_order_one_berezin_closed_form():
    # 2^{|2k|} (Re z)^{2k} mu~(z) with |2k| = 1
    mu = lebesgue(1)
    for z in (0.7, 0.7 + 0.3j, -1.1 + 0.2j):
        val = berezin_coderivative(mu, KHALF, [z])
        assert val == pytest.approx(2 * complex(z).real * berezin_measure(mu, [z]), rel=1e-12)


def test_operator_berezin_matches_coderivative_closed_form():
    # quadratic form of the assembled operator on truncated kernels lands on
    # the closed-form transform inside the accuracy domain
    b = enumerate_basis(1, 16)
    mu = Horizontal(real_gaussian(1))
    for k in (KHALF, HalfIndex.from_halves((1.0,))):
        t = assemble_real_coderivative(mu, k, b)
        for z in (0.3, 0.5 + 0.2j, -0.6):
            seen = berezin_operator(t, [z])
            closed = berezin_coderivative(mu, k, [z])
            assert seen == pytest.approx(closed, abs=2e-5)


def test_half_integer_carleson_constant_uses_gamma_factor():
    # Gamma(3/2)^2 = pi/4 scales the polydisk supremum
    rep = carleson_constant(lebesgue(1), KHALF, [1.0])
    plain = carleson_constant(weight(lebesgue(1), KHALF), HalfIndex.from_halves((0.0,)), [1.0])
    assert rep.sup_estimate == pytest.approx((math.pi / 4) * plain.sup_estimate, rel=1e-12)


def test_half_integer_multiplication_matrix_degree_margin():
    b = enumerate_basis(1, 10)
    m = multiplication_matrix(Lebesgue(1), KHALF, b)
    t = assemble_real_coderivative(lebesgue(1), KHALF, b)
    assert interior_max_norm(t.entries - m.entries, b) <= 1e-10
