"""The nu_alpha one-axis kernel of a horizontal table: built once per (order, D, alpha_j) on the rule's own
nodes, read-only, mirrored in t, and held under a byte budget; atoms axes build theirs per call."""

import numpy as np
import pytest

from focklab import measures
from focklab.indices import graded_lex_keys
from focklab.measures import AlphaHorizontal, Horizontal, RealAtoms, lebesgue, moment_table, real_gaussian, weight
from focklab.quadrature import gauss_hermite


@pytest.fixture
def kernels(monkeypatch):
    """A fresh kernel cache and a log of every kernel build, as (t-values, D, order, alpha doubled)."""
    builds = []
    build = measures._axis_kernel

    def spy(t, maxdeg, order, doubled, out=None):
        builds.append((len(t), maxdeg, order, doubled))
        return build(t, maxdeg, order, doubled, out)

    monkeypatch.setattr(measures, "_kernels", {})
    monkeypatch.setattr(measures, "_axis_kernel", spy)
    return builds


def _axis(maxdeg):
    return [(d,) for d in range(maxdeg + 1)]


def test_grid_symbols_share_one_kernel_per_order_degree_and_alpha(kernels):
    for rho in (measures.Lebesgue(1), real_gaussian(1), real_gaussian(1, 0.5), weight(real_gaussian(1), 1)):
        moment_table(Horizontal(rho), _axis(12), 40)
    assert kernels == [(20, 12, 40, 0)]  # the t >= 0 half of the 40 rule nodes, once
    moment_table(AlphaHorizontal(real_gaussian(1), (2,)), _axis(12), 40)
    assert kernels[1:] == [(20, 12, 40, 2)]
    # atoms' coordinates are data: each call builds their kernel, and none reaches the cache
    atoms = Horizontal(RealAtoms(np.array([[0.3], [-1.1], [0.7]]), np.array([1.0, 0.5, 2.0])))
    for _ in range(2):
        moment_table(atoms, _axis(12), 40)
    assert kernels[2:] == [(3, 12, 40, 0)] * 2
    assert sorted(measures._kernels) == [(40, 12, 0), (40, 12, 2)]


def test_the_cache_is_keyed_by_order(kernels):
    # order 40 and order 160 are different rules: their tables differ by 7.6e-7 relative, in either order
    mu = Horizontal(real_gaussian(1, 0.5))
    high = moment_table(mu, _axis(20), 160)
    low = moment_table(mu, _axis(20), 40)
    assert np.max(np.abs(low - high)) / np.max(np.abs(high)) > 5e-7
    assert np.array_equal(moment_table(mu, _axis(20), 160), high)
    assert [b[2] for b in kernels] == [160, 40]


def test_kernels_are_read_only_and_warm_tables_equal_cold_ones(kernels):
    mu = Horizontal(real_gaussian(2))
    keys = graded_lex_keys(2, 10)[0]
    cold = moment_table(mu, keys, 40)
    warm = moment_table(mu, keys, 40)
    assert warm.tobytes() == cold.tobytes()
    g = measures._rule_kernel(40, 10, 0)
    assert len(kernels) == 1
    with pytest.raises(ValueError):
        g[0, 0, 0] = 1.0


# the last pair's kernel is 64 MB, past the budget, so it is built for the call alone;
# (41, 40) takes a half-integer alpha
@pytest.mark.parametrize("order, maxdeg, doubled", [(40, 5, 0), (40, 20, 0), (41, 40, 3), (51, 50, 0),
                                                    (61, 60, 2), (200, 199, 0)])
def test_the_mirrored_kernel_equals_the_full_rule_build(kernels, order, maxdeg, doubled):
    full = measures._axis_kernel(gauss_hermite(order).nodes, maxdeg, order, doubled)
    assert measures._rule_kernel(order, maxdeg, doubled).tobytes() == full.tobytes()


def test_a_sweep_in_degree_retains_no_more_than_the_budget(kernels):
    def build(maxdeg):
        moment_table(lebesgue(1), _axis(maxdeg), 40)

    held = lambda: sum(g.nbytes for g in measures._kernels.values())  # noqa: E731
    for maxdeg in (60, 80, 100):  # 1.8 + 4.3 + 8.2 MB
        build(maxdeg)
    build(60)  # used again: the D = 80 kernel is now the least recently used
    build(70)  # 2.9 MB more passes 16 MiB
    assert sorted(k[1] for k in measures._kernels) == [60, 70, 100]
    assert held() <= measures._KERNEL_BYTES
    build(130)  # 18 MB alone: built for the call, never kept
    assert 130 not in {k[1] for k in measures._kernels}
    for maxdeg in (110, 120):
        build(maxdeg)
        assert held() <= measures._KERNEL_BYTES
    assert sorted(k[1] for k in measures._kernels) == [120]
