import math

import numpy as np
import pytest

from focklab.basis import (
    apply_derivative,
    enumerate_basis,
    evaluate,
    kernel_coefficients,
    normalized_kernel,
    weyl_apply,
    weyl_matrix,
)
from focklab.indices import factorial, monomial_matrix


def test_enumeration_sizes():
    b = enumerate_basis(1, 3)
    assert b.indices == ((0,), (1,), (2,), (3,))
    assert enumerate_basis(2, 2).size == 6
    assert enumerate_basis(3, 4).size == 35


def test_enumeration_cap_reports_memory():
    with pytest.raises(ValueError, match="MB"):
        enumerate_basis(6, 40, max_size=1000)


def test_kernel_at_origin():
    b = enumerate_basis(2, 4)
    c = kernel_coefficients([0.0, 0.0], b)
    assert c[0] == 1.0
    assert np.all(c[1:] == 0.0)


def test_kernel_at_one():
    b = enumerate_basis(1, 6)
    c = kernel_coefficients([1.0], b)
    expected = np.array([1 / math.sqrt(factorial((a,))) for a in range(7)])
    np.testing.assert_allclose(c, expected)


def test_kernel_reproduces_truncated_functions():
    b = enumerate_basis(1, 8)
    f = np.zeros(b.size, dtype=complex)
    f[2] = 1.0  # e_2
    z = 0.7
    inner = complex(np.vdot(kernel_coefficients([z], b), f))
    assert inner == pytest.approx(0.49 / math.sqrt(2), rel=1e-12)
    assert inner == pytest.approx(evaluate(f, [z], b), rel=1e-12)


def partial_sum_norm2(z_abs2: float, degree: int) -> float:
    # oracle: e^{-|z|^2} sum_{a <= D} |z|^{2a} / a!
    return math.exp(-z_abs2) * sum(z_abs2**a / math.factorial(a) for a in range(degree + 1))


def test_normalized_kernel_norms():
    b = enumerate_basis(1, 20)
    nk = normalized_kernel([1.0], b)
    assert np.linalg.norm(nk) == pytest.approx(math.sqrt(partial_sum_norm2(1.0, 20)), rel=1e-12)
    assert np.linalg.norm(nk) == pytest.approx(1.0, abs=1e-12)
    b6 = enumerate_basis(1, 6)
    nk6 = normalized_kernel([2.0], b6)
    assert np.linalg.norm(nk6) ** 2 == pytest.approx(partial_sum_norm2(4.0, 6), rel=1e-12)
    assert np.linalg.norm(nk6) ** 2 == pytest.approx(0.889326, abs=5e-7)


def test_apply_derivative_examples():
    b = enumerate_basis(1, 5)
    v = np.zeros(b.size, dtype=complex)
    v[2] = 1.0
    out = apply_derivative(v, (0,), b)
    np.testing.assert_allclose(out, v)
    out = apply_derivative(v, (1,), b)
    expected = np.zeros(b.size, dtype=complex)
    expected[1] = math.sqrt(2)
    np.testing.assert_allclose(out, expected)

    b2 = enumerate_basis(2, 4)
    v2 = np.zeros(b2.size, dtype=complex)
    v2[b2.position[(2, 1)]] = 1.0
    out2 = apply_derivative(v2, (1, 1), b2)
    expected2 = np.zeros(b2.size, dtype=complex)
    expected2[b2.position[(1, 0)]] = math.sqrt(2)  # sqrt(2!1!/(1!0!))
    np.testing.assert_allclose(out2, expected2)


def test_derivative_composition():
    rng = np.random.default_rng(3)
    b = enumerate_basis(2, 6)
    v = rng.standard_normal(b.size) + 1j * rng.standard_normal(b.size)
    one_step = apply_derivative(v, (2, 1), b)
    two_step = apply_derivative(apply_derivative(v, (1, 0), b), (1, 1), b)
    np.testing.assert_allclose(one_step, two_step, rtol=1e-12, atol=1e-12)


def test_derivative_growth_bound():
    # |d^k f(z)| <= C k! prod (1+x^2)^{k/2} (1+y^2)^{k/2} e^{|z|^2/2} for unit f
    rng = np.random.default_rng(11)
    b = enumerate_basis(1, 14)
    c_const = 2.0**-1 * math.pi**-0.5 * math.exp((2 * math.sqrt(2) + 1) / 2)
    zs = [complex(x, y) for x in (-3, 0, 2.5) for y in (-2, 0.5, 3)]
    pows = monomial_matrix(np.array([[z] for z in zs]), list(b.indices)) / b.sqrt_factorials
    for k in [(1,), (3,)]:
        for _ in range(20):
            v = rng.standard_normal(b.size) + 1j * rng.standard_normal(b.size)
            v /= np.linalg.norm(v)
            dv = apply_derivative(v, k, b)
            vals = np.abs(pows @ dv)
            for z, val in zip(zs, vals):
                bound = (
                    c_const
                    * math.factorial(k[0])
                    * (1 + z.real**2) ** (k[0] / 2)
                    * (1 + z.imag**2) ** (k[0] / 2)
                    * math.exp(abs(z) ** 2 / 2)
                )
                assert val <= bound


def test_weyl_identity_at_zero_shift():
    b = enumerate_basis(1, 10)
    np.testing.assert_allclose(weyl_matrix([0.0], b), np.eye(b.size), atol=1e-15)


def test_weyl_on_vacuum_kernel():
    # W_h K_0 = e^{-|h|^2/2} K_h, coefficient-wise
    b = enumerate_basis(1, 16)
    h = 0.5
    lhs = weyl_apply(kernel_coefficients([0.0], b), [h], b)
    rhs = math.exp(-abs(h) ** 2 / 2) * kernel_coefficients([h], b)
    assert np.max(np.abs(lhs - rhs)) <= 1e-8


def test_weyl_unitary_on_interior_block():
    b = enumerate_basis(1, 16)
    w = weyl_matrix([0.5], b)
    gram = w.conj().T @ w - np.eye(b.size)
    pos = b.interior_positions()
    assert np.max(np.abs(gram[np.ix_(pos, pos)])) <= 1e-6


def test_weyl_two_axes_factorizes():
    b2 = enumerate_basis(2, 6)
    h = [0.2 + 0.1j, -0.3j]
    w = weyl_matrix(h, b2)
    # action on the vacuum matches the shifted kernel
    vac = np.zeros(b2.size, dtype=complex)
    vac[0] = 1.0
    lhs = w @ vac
    rhs = math.exp(-(abs(h[0]) ** 2 + abs(h[1]) ** 2) / 2) * kernel_coefficients(h, b2)
    assert np.max(np.abs(lhs - rhs)) <= 1e-10


def _laguerre_weyl_entry(mp, h, g, a):
    """<e_g, W_h e_a> from the Laguerre closed form, summed in mpmath (Cahill-Glauber)."""
    x = abs(h) ** 2
    lo, s = min(g, a), abs(g - a)
    lag = mp.fsum((-1) ** j * mp.binomial(lo + s, lo - j) * x**j / mp.factorial(j) for j in range(lo + 1))
    shift = mp.conj(h) if g >= a else -h
    return mp.sqrt(mp.factorial(lo) / mp.factorial(lo + s)) * shift**s * lag * mp.exp(-x / 2)


def test_weyl_entries_match_laguerre_closed_form():
    mp = pytest.importorskip("mpmath")
    b = enumerate_basis(1, 40)
    h = 3 * complex(math.cos(0.7), math.sin(0.7))
    with mp.workdps(50):
        ref = np.array([[complex(_laguerre_weyl_entry(mp, mp.mpc(h), g[0], a[0])) for a in b.indices]
                        for g in b.indices])
    assert np.max(np.abs(weyl_matrix([h], b) - ref)) <= 1e-13
