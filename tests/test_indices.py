import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from focklab import indices
from focklab.indices import (
    HalfIndex,
    factorial,
    graded_lex_indices,
    hermite,
    hermite_values,
    monomial_matrix,
    select_table,
    substitution_matrix,
)


def repeated_multiplication_factorial(alpha):
    # independent oracle: multiply out each factorial digit by digit
    total = 1
    for a in alpha:
        acc = 1
        for m in range(2, a + 1):
            acc *= m
        total *= acc
    return total


def test_factorial_examples():
    assert factorial((0, 0)) == 1
    assert factorial((2, 1)) == 2
    assert factorial((5, 3, 4)) == repeated_multiplication_factorial((5, 3, 4)) == 17280


def test_factorial_rejects_bad_entries():
    with pytest.raises(ValueError):
        factorial((-1, 2))
    with pytest.raises(ValueError):
        factorial((1.5,))


def test_hermite_small_values():
    assert hermite(0, 0.3) == 1.0
    assert hermite(1, 0.5) == 1.0
    assert hermite(2, 0.0) == -2.0


@given(st.integers(1, 12), st.floats(-4, 4))
@settings(max_examples=60)
def test_hermite_recurrence_residual(m, x):
    vals = hermite_values(m + 1, np.array([x]))
    lhs = vals[m + 1][0]
    rhs = 2 * x * vals[m][0] - 2 * m * vals[m - 1][0]
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_hermite_orthogonality_via_quadrature():
    from focklab.quadrature import gauss_hermite

    rule = gauss_hermite(30)

    def scale(m):
        return 2**m * math.factorial(m) * math.sqrt(math.pi)

    for a in range(9):
        for b in range(9):
            val = float(np.sum(rule.weights * hermite(a, rule.nodes) * hermite(b, rule.nodes)))
            if a == b:
                assert abs(val - scale(a)) <= 1e-10 * scale(a)
            else:
                assert abs(val) <= 1e-10 * math.sqrt(scale(a) * scale(b))


def test_graded_lex_enumeration():
    assert graded_lex_indices(1, 3) == [(0,), (1,), (2,), (3,)]
    idx = graded_lex_indices(2, 2)
    assert idx == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]
    # stars and bars oracle
    assert len(graded_lex_indices(3, 4)) == math.comb(3 + 4, 3) == 35


def test_monomial_matrix_incremental_powers():
    pts = np.array([[1.0 + 1.0j, 2.0], [0.5j, -1.0]])
    idx = graded_lex_indices(2, 3)
    pows = monomial_matrix(pts, idx)
    for j, alpha in enumerate(idx):
        expected = pts[:, 0] ** alpha[0] * pts[:, 1] ** alpha[1] / math.sqrt(factorial(alpha))
        np.testing.assert_allclose(pows[:, j], expected)


def test_gamma_half_values():
    def gamma(*doubled):
        return HalfIndex(doubled).gamma_factor()

    assert gamma(0) == 1.0
    assert gamma(2) == 1.0
    assert gamma(4) == 2.0
    assert abs(gamma(1) - math.sqrt(math.pi) / 2) <= 1e-15
    assert abs(gamma(3) - 3 * math.sqrt(math.pi) / 4) <= 1e-15
    assert gamma(1, 4) == gamma(1) * 2.0
    # integer k: the correctly rounded k!, also where math.gamma is an ulp off (k = 23)
    for k in range(171):
        assert gamma(2 * k) == float(math.factorial(k))
    # Gamma(m + 3/2) = (2m+2)! sqrt(pi) / (4^{m+1} (m+1)!), the rational part divided exactly
    for m in range(60):
        closed = math.factorial(2 * m + 2) / (4 ** (m + 1) * math.factorial(m + 1)) * math.sqrt(math.pi)
        assert abs(gamma(2 * m + 1) - closed) <= 1e-15 * closed
    with pytest.raises(ValueError, match="k >= 0"):
        gamma(-1)


def test_half_index_arithmetic_is_exact():
    k = HalfIndex.from_halves([1.5, 2.0])
    p = HalfIndex.from_halves([0.5, 1.0])
    assert k.doubled == (3, 4)
    assert (k - p).doubled == (2, 2)
    assert (k - p).is_integer
    assert not k.is_integer
    assert k.geq(p)
    assert (-p).doubled == (-1, -2)
    assert k.order_index() == (3, 4)
    assert (k - p).as_integer_index() == (1, 1)


def test_half_index_gamma_factor():
    k = HalfIndex.from_ints([2, 1])
    assert k.gamma_factor() == 2.0
    khalf = HalfIndex.from_halves([0.5])
    assert abs(khalf.gamma_factor() - math.sqrt(math.pi) / 2) <= 1e-15


def test_half_index_rejects_bad_input():
    with pytest.raises(ValueError):
        HalfIndex.from_halves([0.3])
    with pytest.raises(ValueError):
        HalfIndex.from_doubled((-1,)).order_index()
    with pytest.raises(ValueError):
        HalfIndex.from_doubled((1,)).as_integer_index()


def test_half_index_refuses_non_integer_entries_instead_of_truncating():
    from focklab.measures import lebesgue, weight

    for build in (lambda: HalfIndex.from_doubled([1.5]), lambda: HalfIndex.of(0.7, 2),
                  lambda: weight(lebesgue(1), 0.5), lambda: HalfIndex.from_ints([0.5])):
        with pytest.raises(ValueError, match="must be integers"):
            build()
    assert HalfIndex.from_doubled(np.array([1, -2])).doubled == (1, -2)
    assert HalfIndex.from_ints([np.int64(1), 2]).doubled == (2, 4)
    assert HalfIndex.of(np.int32(3), 2).doubled == (3, 3)
    assert HalfIndex.of(np.int64(1), 1, doubled=False).doubled == (2,)
    assert all(type(v) is int for v in HalfIndex.from_ints(np.array([1, 2])).doubled)


@pytest.mark.parametrize("n, degree", [(2, 6), (3, 4)])
def test_substitution_matrix_expands_rotated_monomials(n, degree):
    # (X* u)^alpha at sample points u equals sum_gamma C[gamma, alpha] u^gamma
    rng = np.random.default_rng(n)
    xstar = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    u = rng.standard_normal((7, n)) + 1j * rng.standard_normal((7, n))
    idx = graded_lex_indices(n, degree)
    c = substitution_matrix(xstar, idx)
    np.testing.assert_allclose(monomial_matrix(u @ xstar.T, idx), monomial_matrix(u, idx) @ c, rtol=1e-12, atol=1e-12)
    degrees = np.array([sum(a) for a in idx])
    assert np.all(c[degrees[:, None] != degrees[None, :]] == 0)


def test_monomial_rows_are_bit_identical_from_a_cold_or_a_warm_cache():
    # the degree blocks are cached per index set; a row never depends on the batch it came in
    idx = graded_lex_indices(2, 20)
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(5000, 2)) + 1j * rng.normal(size=(5000, 2))
    indices._steps.cache_clear()
    one = monomial_matrix(pts[:1], idx)
    many = monomial_matrix(pts, idx)
    assert indices._steps.cache_info().hits == 1
    np.testing.assert_array_equal(one, many[:1])
    np.testing.assert_array_equal(monomial_matrix(pts[:1], tuple(idx)), one)
    indices._steps.cache_clear()
    np.testing.assert_array_equal(monomial_matrix(pts, idx), many)
    assert not any(x.flags.writeable for block in indices._steps(tuple(idx)) for x in block)


def test_select_table_in_key_order_is_the_table_itself():
    keys = graded_lex_indices(2, 3)
    table = np.arange(len(keys) ** 2, dtype=float).reshape(len(keys), -1)
    assert select_table(keys, table, keys) is table
    assert select_table(keys, table, tuple(keys)) is table
    order = [5, 0, 9, 2]
    picked = select_table(keys, table, [keys[i] for i in order])
    np.testing.assert_array_equal(picked, table[np.ix_(order, order)])
    perm = np.random.default_rng(1).permutation(len(keys))
    np.testing.assert_array_equal(select_table(keys, table, [keys[i] for i in perm]), table[np.ix_(perm, perm)])
