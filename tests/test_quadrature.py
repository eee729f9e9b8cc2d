import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from focklab.basis import enumerate_basis
from focklab.indices import hermite
from focklab.measures import Lebesgue, lebesgue, real_nodes
from focklab.quadrature import (
    gauss_hermite,
    gauss_legendre,
    integrate_gaussian,
    raw_weights,
    tensor_rule,
)
from focklab.toeplitz import assemble_toeplitz


def gaussian_moment(m: int) -> float:
    # closed form int t^m e^{-t^2} dt = Gamma((m+1)/2) for even m, 0 for odd
    if m % 2 == 1:
        return 0.0
    return math.gamma((m + 1) / 2)


def test_order_one_rule():
    r = gauss_hermite(1)
    np.testing.assert_allclose(r.nodes, [0.0])
    np.testing.assert_allclose(r.weights, [math.sqrt(math.pi)])


def test_order_two_rule_matches_h2_roots():
    r = gauss_hermite(2)
    np.testing.assert_allclose(r.nodes, [-1 / math.sqrt(2), 1 / math.sqrt(2)], atol=1e-14)
    np.testing.assert_allclose(r.weights, [math.sqrt(math.pi) / 2] * 2, atol=1e-14)


def test_weights_sum_to_sqrt_pi():
    for order in (1, 2, 7, 40, 120):
        r = gauss_hermite(order)
        assert abs(np.sum(r.weights) - math.sqrt(math.pi)) <= 1e-12 * math.sqrt(math.pi)
        assert np.all(np.diff(r.nodes) > 0)
        assert np.all(r.weights > 0)


def test_order_cap_rejected():
    with pytest.raises(ValueError):
        gauss_hermite(201)
    with pytest.raises(ValueError):
        gauss_hermite(0)


@pytest.mark.parametrize("order", [25, 40, 80, 150])
def test_matches_numpy_hermgauss(order):
    # the tail weights are tiny, so they are compared relatively
    x, w = np.polynomial.hermite.hermgauss(order)
    r = gauss_hermite(order)
    np.testing.assert_allclose(r.nodes, x, atol=1e-12)
    np.testing.assert_allclose(r.weights, w, rtol=1e-13, atol=0)


@given(st.integers(2, 20), st.data())
@settings(max_examples=40, deadline=None)
def test_polynomial_exactness(order, data):
    deg = data.draw(st.integers(0, 2 * order - 1))
    coeffs = data.draw(st.lists(st.floats(-3, 3), min_size=deg + 1, max_size=deg + 1))
    r = gauss_hermite(order)
    val = float(np.sum(r.weights * np.polyval(coeffs, r.nodes)))
    expected = sum(c * gaussian_moment(deg - i) for i, c in enumerate(coeffs))
    # relative to the term scale: high-degree moments are huge and may cancel
    scale = max(1.0, sum(abs(c) * gaussian_moment(2 * ((deg - i) // 2)) for i, c in enumerate(coeffs)))
    assert abs(val - expected) <= 1e-11 * scale


def test_tensor_rule_moments():
    rule = tensor_rule([6, 9])
    pts, wts = rule.points(), rule.weights()
    assert rule.size == 54 == pts.shape[0]
    for a, b in [(0, 0), (2, 4), (6, 2), (4, 8)]:
        val = float(np.sum(wts * pts[:, 0] ** a * pts[:, 1] ** b))
        expected = gaussian_moment(a) * gaussian_moment(b)
        assert abs(val - expected) <= 1e-11 * max(1.0, abs(expected))


def test_integrate_gaussian_basic():
    assert abs(integrate_gaussian(lambda t: np.ones(t.shape[0]), gauss_hermite(5)) - math.sqrt(math.pi)) <= 1e-12
    val = integrate_gaussian(lambda t: t[:, 0] ** 2, gauss_hermite(5))
    assert abs(val - math.sqrt(math.pi) / 2) <= 1e-12
    # sqrt(pi) itself, the probe that any order integrates e^{-t^2} to 1.772453...
    assert abs(integrate_gaussian(lambda t: np.ones(t.shape[0]), gauss_hermite(11)).real - 1.7724538509055159) <= 1e-12


def test_integrate_gaussian_reports_bad_node():
    def f(t):
        vals = np.ones(t.shape[0])
        vals[3] = np.inf
        return vals

    with pytest.raises(ValueError, match="node 3"):
        integrate_gaussian(f, gauss_hermite(8))


def test_shift_substitution_consistency():
    # int f(t - c) e^{-t^2} dt computed on recentered nodes equals direct quadrature
    c = 0.8

    def f(x):
        return np.exp(-((x + 0.2) ** 2)) * (1 + x**2)

    r = gauss_hermite(60)
    direct = float(np.sum(r.weights * f(r.nodes - c)))
    # substitution u = t - c moves the Gaussian onto e^{-(u+c)^2}
    ru = raw_weights(r)
    substituted = float(np.sum(ru.weights * f(ru.nodes) * np.exp(-((ru.nodes + c) ** 2))))
    assert abs(direct - substituted) <= 1e-10 * max(1.0, abs(direct))


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("u", [0.5, 1.0, 2.0])
def test_hermite_shift_identity(k, u):
    # int H_{2k}(t) e^{-(t-u)^2} dt = sqrt(pi) (2u)^{2k}
    r = gauss_hermite(60)
    val = float(np.sum(r.weights * hermite(2 * k, r.nodes + u)))
    expected = math.sqrt(math.pi) * (2 * u) ** (2 * k)
    assert abs(val - expected) <= 1e-8 * abs(expected)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_hermite_shift_identity_vanishes_at_origin(k):
    r = gauss_hermite(60)
    val = float(np.sum(r.weights * hermite(2 * k, r.nodes)))
    assert abs(val) <= 1e-10


def test_raw_weights_unfold():
    r = gauss_hermite(12)
    ru = raw_weights(r)
    assert not ru.folded
    # raw rule integrates f e^{-t^2} when the integrand carries the Gaussian
    val = float(np.sum(ru.weights * np.exp(-(ru.nodes**2))))
    assert abs(val - math.sqrt(math.pi)) <= 1e-12


def test_gauss_legendre_interval():
    x, w = gauss_legendre(16)
    assert abs(np.sum(w) - 2.0) <= 1e-13
    assert abs(float(np.sum(w * x**4)) - 2.0 / 5.0) <= 1e-13


def test_gauss_legendre_is_cached_and_read_only():
    x, w = gauss_legendre(48)
    assert gauss_legendre(48)[0] is x
    with pytest.raises(ValueError):
        x[0] = 0.0
    with pytest.raises(ValueError):
        w *= 2.0


def test_cached_rule_arrays_are_read_only():
    # a caller writing into a cached rule would change every later integral
    rule = gauss_hermite(40)
    with pytest.raises(ValueError):
        rule.weights *= 2.0
    with pytest.raises(ValueError):
        rule.nodes[0] = 0.0
    with pytest.raises(ValueError):
        tensor_rule([40]).weights()[0] = 0.0
    # node sets built from a rule either copy its weights or inherit the lock
    _, w = real_nodes(Lebesgue(1), 0.0)
    assert not (w.flags.writeable and np.shares_memory(w, rule.weights))
    assert assemble_toeplitz(lebesgue(1), enumerate_basis(1, 4)).entries[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert np.sum(gauss_hermite(40).weights) == pytest.approx(math.sqrt(math.pi), rel=1e-12)
