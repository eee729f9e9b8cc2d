import math

import numpy as np
import pytest

from focklab.basis import _weyl_axis_table, enumerate_basis, kernel_coefficients, normalized_kernel, weyl_matrix
from focklab.indices import factorial, monomial_matrix
from focklab.quadrature import MAX_BYTES


def derivative(coefficients, a, basis):
    """d^a in coefficients: c_alpha moves to alpha - a scaled by sqrt(alpha! / (alpha - a)!) (reference copy)."""
    out = np.zeros(basis.size, dtype=complex)
    for pos, alpha in enumerate(basis.indices):
        low = tuple(x - y for x, y in zip(alpha, a))
        if min(low) >= 0:
            out[basis.position[low]] = math.sqrt(factorial(alpha) // factorial(low)) * coefficients[pos]
    return out


def test_enumeration_sizes():
    b = enumerate_basis(1, 3)
    assert b.indices == ((0,), (1,), (2,), (3,))
    assert enumerate_basis(2, 2).size == 6
    assert enumerate_basis(3, 4).size == 35


def test_enumeration_cap_reports_memory():
    with pytest.raises(ValueError, match="MB"):
        enumerate_basis(6, 40)  # 9,366,819 elements


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
    # the pointwise value sum_alpha c_alpha e_alpha(z), e_alpha(z) = z^alpha / sqrt(alpha!)
    value = np.sum(f * monomial_matrix(np.array([[z]]), list(b.indices))[0])
    assert inner == pytest.approx(value, rel=1e-12)


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


def test_derivative_growth_bound():
    # |d^k f(z)| <= C k! prod (1+x^2)^{k/2} (1+y^2)^{k/2} e^{|z|^2/2} for unit f
    rng = np.random.default_rng(11)
    b = enumerate_basis(1, 14)
    c_const = 2.0**-1 * math.pi**-0.5 * math.exp((2 * math.sqrt(2) + 1) / 2)
    zs = [complex(x, y) for x in (-3, 0, 2.5) for y in (-2, 0.5, 3)]
    pows = monomial_matrix(np.array([[z] for z in zs]), list(b.indices))
    for k in [(1,), (3,)]:
        for _ in range(20):
            v = rng.standard_normal(b.size) + 1j * rng.standard_normal(b.size)
            v /= np.linalg.norm(v)
            dv = derivative(v, k, b)
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
    lhs = weyl_matrix([h], b) @ kernel_coefficients([0.0], b)
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


@pytest.mark.parametrize("n, degree", [(1, 40), (2, 12), (3, 6)])
def test_weyl_matrix_is_the_product_of_its_axis_tables(n, degree):
    # the per-axis loop the gather replaced, kept as the exact reference
    b = enumerate_basis(n, degree)
    h = np.random.default_rng(n).normal(size=(n, 2)) @ np.array([1.0, 1j])
    out = np.ones((b.size, b.size), dtype=complex)
    for j in range(n):
        cols = np.array([a[j] for a in b.indices])
        out = out * _weyl_axis_table(h[j], degree)[cols[:, None], cols[None, :]]
    np.testing.assert_array_equal(weyl_matrix(h, b), math.exp(-0.5 * float(np.sum(np.abs(h) ** 2))) * out)


def test_weyl_matrix_over_the_byte_cap_is_refused_before_allocating(traced_peak):
    b = enumerate_basis(2, 127)  # 8,256 elements: the complex matrix would take 1.09 GB
    refusal, peak = traced_peak(lambda: pytest.raises(ValueError, weyl_matrix, [0.3, -0.2j], b))
    refusal.match(rf"needs a {16 * b.size ** 2}-byte array \(cap {MAX_BYTES}\)")
    assert peak < 10e6
