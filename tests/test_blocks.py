"""One block size: ``quadrature.blocks`` sizes every batched kernel from the entries one row costs,
so a Gram product and an assembly hold one table plus blocks of ``_BLOCK`` entries, and a gather
one table plus row blocks of ``_BLOCK`` / 8 entries; ``contract_axes`` matches the dense sum."""

import itertools
import math

import numpy as np
import pytest

from focklab import quadrature
from focklab.basis import enumerate_basis
from focklab.indices import factorial, graded_lex_indices
from focklab.measures import Atoms, Horizontal, RealAtoms, moment, moment_table, real_gaussian
from focklab.quadrature import blocks, contract_axes, gather_axes
from focklab.toeplitz import assemble_real_coderivative, assemble_toeplitz


def test_blocks_hold_at_most_one_block_of_entries_or_one_row():
    size = quadrature._BLOCK
    assert blocks(5, size + 1) == [slice(i, i + 1) for i in range(5)]
    assert blocks(2 * size + 3, 1) == [slice(0, size), slice(size, 2 * size), slice(2 * size, 3 * size)]
    assert blocks(7, 0) == [slice(0, size)]
    assert blocks(0, 10) == []
    # 100 entries a row: 655 rows a block, the last one short
    assert [s.stop - s.start for s in blocks(1500, 100)] == [655, 655, 655]
    assert blocks(1500, 100)[-1].start == 1310


def test_gram_table_of_many_atoms_holds_blocks_not_all_node_powers(traced_peak):
    # 200,000 atoms by 66 keys would be 211 MB of powers in one block; blocks of 992 rows keep ~1 MB
    rng = np.random.default_rng(3)
    pts = 0.7 * (rng.standard_normal((200_000, 2)) + 1j * rng.standard_normal((200_000, 2)))
    mu = Atoms(pts, rng.uniform(0.5, 1.5, 200_000) + 0.1j * rng.standard_normal(200_000))
    keys = graded_lex_indices(2, 10)
    table, peak = traced_peak(lambda: moment_table(mu, keys))
    assert peak <= 64e6
    scale = np.max(np.abs(table))
    for i, j in [(0, 0), (3, 7), (20, 5), (41, 65), (65, 65)]:
        a, b = keys[i], keys[j]
        reference = moment(mu, a, b) / math.sqrt(factorial(a) * factorial(b))
        assert abs(table[i, j] - reference) <= 1e-13 * scale


def test_gather_axes_multiplies_its_table_in_row_blocks(traced_peak):
    rng = np.random.default_rng(4)
    mats = [rng.standard_normal((17, 17)) + 1j * rng.standard_normal((17, 17)) for _ in range(3)]
    (keys, table), peak = traced_peak(lambda: gather_axes(mats, 16))
    n_keys = len(keys)
    assert peak <= 1.2 * 16 * n_keys ** 2
    reference = np.ones((n_keys, n_keys), dtype=complex)
    for a, m in zip(np.array(keys).T, mats):
        reference *= m[np.ix_(a, a)]
    np.testing.assert_array_equal(table, reference)


def test_a_gather_holds_its_table_and_small_row_blocks(traced_peak):
    # factor 0 is taken into the table unbuffered, so no second table-sized array is formed
    rng = np.random.default_rng(5)
    mats = [rng.standard_normal((21, 21)) + 1j * rng.standard_normal((21, 21)) for _ in range(2)]
    (keys, table), peak = traced_peak(lambda: gather_axes(mats, 20))
    assert len(keys) == 231
    assert peak <= 16 * len(keys) ** 2 + 256 * 1024
    a0, a1 = np.array(keys).T
    np.testing.assert_array_equal(table, mats[0][np.ix_(a0, a0)] * mats[1][np.ix_(a1, a1)])


def test_a_two_axis_gathered_assembly_holds_little_more_than_its_table(traced_peak):
    b = enumerate_basis(2, 20)
    _, peak = traced_peak(lambda: assemble_toeplitz(Horizontal(real_gaussian(2)), b))
    assert peak <= 1.5 * 16 * b.size ** 2


def test_a_gather_of_real_axis_tables_is_their_complex_product():
    mats = [np.arange(49.0).reshape(7, 7) - 20.0, np.eye(7)]
    keys, table = gather_axes(mats, 6)
    a0, a1 = np.array(keys).T
    assert table.dtype == complex
    np.testing.assert_array_equal(table, mats[0][np.ix_(a0, a0)] * mats[1][np.ix_(a1, a1)])


@pytest.mark.parametrize("short", [0, 1])
def test_a_gather_of_a_table_short_of_the_degree_raises(short):
    # the row index runs first with the same indices, so the unbuffered take never clips
    mats = [np.ones((7, 7), dtype=complex)] * 2
    mats[short] = np.ones((6, 6), dtype=complex)
    with pytest.raises(IndexError):
        gather_axes(mats, 6)


def dense_moments(weights, cells, tables, maxdeg):
    """sum_k weights[k] prod_j tables[j][cells[k, j], a_j, b_j] over the full (maxdeg+1)^(2n) tensor,
    then restricted to degree <= maxdeg on both sides in prefix-lex order."""
    n, size = cells.shape[1], maxdeg + 1
    rows, cols = "abc"[:n], "def"[:n]
    spec = ",".join(["k"] + [f"k{r}{c}" for r, c in zip(rows, cols)]) + "->" + rows + cols
    full = np.einsum(spec, weights, *[t[cells[:, j]] for j, t in enumerate(tables)])
    keys = [k for k in itertools.product(range(size), repeat=n) if sum(k) <= maxdeg]
    flat = [np.ravel_multi_index(k, (size,) * n) for k in keys]
    return keys, full.reshape(size ** n, size ** n)[np.ix_(flat, flat)]


@pytest.mark.parametrize("n, degree", [(1, 6), (2, 5), (3, 4)])
def test_contract_axes_is_the_dense_sum_of_a_real_kernel_on_a_complex_grid(n, degree):
    rng = np.random.default_rng(n)
    shape = (7, 5, 4)[:n]
    tables = [rng.standard_normal((q, degree + 1, degree + 1)) for q in shape]
    grid = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    keys, table = contract_axes(tables, grid, degree)
    want_keys, want = dense_moments(grid.ravel(), np.indices(shape).reshape(n, -1).T, tables, degree)
    assert keys == want_keys
    assert np.max(np.abs(table - want)) <= 1e-15 * np.max(np.abs(want))


@pytest.mark.parametrize("n, degree", [(1, 6), (2, 5), (3, 4)])
def test_contract_axes_on_atoms_with_repeated_coordinates_is_the_sum_over_atoms(n, degree):
    pts = np.array([[0.3, 0.5, -0.1], [0.3, -0.2, -0.1], [-0.8, 0.5, 0.4], [0.1, 0.5, -0.1], [0.3, 0.5, 0.4]])[:, :n]
    wts = np.array([0.6, 0.4 - 0.2j, 0.3, -0.5 + 0.1j, 0.2j])
    a, b = np.indices((degree + 1, degree + 1))

    def kernel(t):  # real, (values, D+1, D+1)
        return np.cos(a * t[:, None, None] + 0.3 * b) * (1.0 + t[:, None, None]) ** b

    axes, grid = RealAtoms(pts, wts).axis_grid(degree + 1)
    assert grid.shape == tuple(np.unique(pts[:, j]).size for j in range(n))
    keys, table = contract_axes([kernel(t) for t in axes], grid, degree)
    cells = np.stack([np.searchsorted(t, pts[:, j]) for j, t in enumerate(axes)], axis=1)
    # axis_grid folds the Gaussian e^{-|t|^2} into each atom's weight
    want_keys, want = dense_moments(wts * np.exp(-np.sum(pts ** 2, axis=1)), cells, [kernel(t) for t in axes], degree)
    assert keys == want_keys
    assert np.max(np.abs(table - want)) <= 1e-15 * np.max(np.abs(want))


def test_a_gathered_assembly_holds_one_table(traced_peak):
    b = enumerate_basis(3, 16)
    op, peak = traced_peak(lambda: assemble_toeplitz(Horizontal(real_gaussian(3)), b))
    assert peak <= 1.2 * 16 * b.size ** 2
    assert op.entries.shape == (b.size, b.size) and op.entries.flags.f_contiguous


def test_a_product_coderivative_lowers_its_axis_tables_and_holds_one_table(traced_peak):
    # each step lowers a one-axis (D+1)^2 table before the gather, so no N x N temporary is formed
    b = enumerate_basis(3, 16)
    op, peak = traced_peak(lambda: assemble_real_coderivative(Horizontal(real_gaussian(3)), (1, 1, 1), b))
    assert peak <= 1.2 * 16 * b.size ** 2
    assert op.entries.shape == (b.size, b.size)


def test_hermitian_defect_holds_row_blocks(traced_peak):
    # a real N x N operator: its defect compares row blocks with column blocks, no second N x N array
    op = assemble_toeplitz(Horizontal(real_gaussian(3)), enumerate_basis(3, 16))
    _, peak = traced_peak(op.hermitian_defect)
    assert peak <= 0.5 * 8 * op.basis.size ** 2
