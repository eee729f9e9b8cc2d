"""One block size: ``quadrature.blocks`` sizes every batched kernel from the entries one row costs,
so a Gram product, a gather and an assembly hold one table plus blocks of ``_BLOCK`` entries."""

import math
import tracemalloc

import numpy as np

from focklab import quadrature
from focklab.basis import enumerate_basis
from focklab.indices import factorial, graded_lex_indices
from focklab.measures import Atoms, Horizontal, moment, moment_table, real_gaussian
from focklab.quadrature import blocks, gather_axes
from focklab.toeplitz import assemble_real_coderivative, assemble_toeplitz


def traced_peak(fn):
    tracemalloc.start()
    try:
        out = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak


def test_blocks_hold_at_most_one_block_of_entries_or_one_row():
    size = quadrature._BLOCK
    assert blocks(5, size + 1) == [slice(i, i + 1) for i in range(5)]
    assert blocks(2 * size + 3, 1) == [slice(0, size), slice(size, 2 * size), slice(2 * size, 3 * size)]
    assert blocks(7, 0) == [slice(0, size)]
    assert blocks(0, 10) == []
    # 100 entries a row: 655 rows a block, the last one short
    assert [s.stop - s.start for s in blocks(1500, 100)] == [655, 655, 655]
    assert blocks(1500, 100)[-1].start == 1310


def test_gram_table_of_many_atoms_holds_blocks_not_all_node_powers():
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


def test_gather_axes_multiplies_its_table_in_row_blocks():
    rng = np.random.default_rng(4)
    mats = [rng.standard_normal((17, 17)) + 1j * rng.standard_normal((17, 17)) for _ in range(3)]
    (keys, table), peak = traced_peak(lambda: gather_axes(mats, 16))
    n_keys = len(keys)
    assert peak <= 1.2 * 16 * n_keys ** 2
    reference = np.ones((n_keys, n_keys), dtype=complex)
    for a, m in zip(np.array(keys).T, mats):
        reference *= m[np.ix_(a, a)]
    np.testing.assert_array_equal(table, reference)


def test_a_gathered_assembly_holds_one_table():
    b = enumerate_basis(3, 16)
    op, peak = traced_peak(lambda: assemble_toeplitz(Horizontal(real_gaussian(3)), b))
    assert peak <= 1.2 * 16 * b.size ** 2
    assert op.entries.shape == (b.size, b.size) and op.entries.flags.f_contiguous


def test_a_product_coderivative_lowers_its_axis_tables_and_holds_one_table():
    # each step lowers a one-axis (D+1)^2 table before the gather, so no N x N temporary is formed
    b = enumerate_basis(3, 16)
    op, peak = traced_peak(lambda: assemble_real_coderivative(Horizontal(real_gaussian(3)), (1, 1, 1), b))
    assert peak <= 1.2 * 16 * b.size ** 2
    assert op.entries.shape == (b.size, b.size)


def test_hermitian_defect_holds_row_blocks():
    # a real N x N operator: its defect compares row blocks with column blocks, no second N x N array
    op = assemble_toeplitz(Horizontal(real_gaussian(3)), enumerate_basis(3, 16))
    _, peak = traced_peak(op.hermitian_defect)
    assert peak <= 0.5 * 8 * op.basis.size ** 2
