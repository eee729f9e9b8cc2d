"""Gauss-Hermite rules and tensor-product integration on R^d.

Every Gaussian-weighted integral in the package runs through these rules.
Integrands against shifted kernels e^{-(t-c)^2} are recentered onto the
e^{-t^2} weight before quadrature, so the stated polynomial-exactness
degrees stay meaningful.  Sums of one-axis tables over a tensor grid (moment
tables, the Hermite-side matrix) are contracted an axis at a time by ``contract_axes``;
the table of a product measure, a product of one-axis tables, is gathered from
those n tables by ``gather_axes``.

Batches of rows have one owner each: ``distinct`` builds a value that depends on a row only through
a key once per distinct key, and ``blocks`` alone sizes a block, from the entries one row costs
(``row_blocks`` maps a function over them); ``MAX_NODES`` and ``MAX_EVALS`` only refuse.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .indices import graded_lex_keys

MAX_ORDER = 200
MAX_NODES = 6_000_000  # largest node set any tensor discretization may materialize
MAX_EVALS = 2_000_000_000  # most point evaluations one streamed tensor sum may request
MAX_BYTES = 1 << 30  # largest complex array one contraction or gather (moment table, Weyl matrix) may allocate
# entries per block of every batched kernel: 20,000 to 100,000 points per tensor-sum slab measured
# alike, while 200,000-point slabs made gamma_samples at n = 2 three times slower (2-core Xeon)
_BLOCK = 65_536


@dataclass(frozen=True, eq=False)
class QuadRule:
    """One-axis rule: sum(weights * f(nodes)) ~ int f(t) e^{-t^2} dt.

    The Gaussian weight is folded into the weights.  Rules are cached and
    shared, so their arrays are read-only copies.
    """

    nodes: np.ndarray
    weights: np.ndarray
    order: int

    def __post_init__(self):
        for name in ("nodes", "weights"):
            values = np.array(getattr(self, name), dtype=float)
            values.flags.writeable = False
            object.__setattr__(self, name, values)


@lru_cache(maxsize=64)
def gauss_hermite(order: int) -> QuadRule:
    """Gauss-Hermite nodes/weights from ``numpy.polynomial.hermite.hermgauss``.

    Exact for polynomials of degree <= 2*order - 1 against e^{-t^2}; even
    the tiny tail weights keep full relative accuracy.  Orders beyond the
    stable range are rejected.  Rules are cached and immutable.
    """
    if not 1 <= order <= MAX_ORDER:
        raise ValueError(f"Gauss-Hermite order must be in [1, {MAX_ORDER}], got {order}")
    return QuadRule(*np.polynomial.hermite.hermgauss(order), order)


@dataclass(frozen=True, eq=False)
class TensorRule:
    """Tensor product of one-axis rules over R^d."""

    rules: tuple[QuadRule, ...]

    @property
    def size(self) -> int:
        return math.prod(r.order for r in self.rules)

    def grid(self) -> tuple[np.ndarray, np.ndarray]:
        """Points (size, dim) and weights (size,) of the product rule."""
        return tensor_grid([r.nodes for r in self.rules], [r.weights for r in self.rules])

    def points(self) -> np.ndarray:
        return self.grid()[0]

    def weights(self) -> np.ndarray:
        return self.grid()[1]


def check_nodes(count: int) -> None:
    """Refuse a node set of more than ``MAX_NODES`` points before it is allocated."""
    if count > MAX_NODES:
        raise ValueError(f"discretization needs {count} nodes (cap {MAX_NODES})")


def tensor_grid(axes, weights) -> tuple[np.ndarray, np.ndarray]:
    """Tensor product of per-axis nodes and weights, laid out in C order.

    Returns points of shape (m, d) and weights of shape (m,) with
    m = prod_j len(axes[j]); the last axis varies fastest.
    """
    check_nodes(math.prod(len(a) for a in axes))
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=-1), reduce(np.multiply.outer, weights).ravel()


def tensor_sums(axes, weights, f) -> np.ndarray:
    """sum_a prod_j weights[j][i, a_j] f(axes[0][i, a_0], .., axes[d-1][i, a_{d-1}]) per centre i.

    ``axes[j]`` and ``weights[j]`` have shape (m, q_j), one tensor grid per
    centre.  ``f`` maps points (P, d) to P values; it sees whole centres in
    ``blocks`` of at most ``_BLOCK`` points, a larger grid split along its first
    axis, and nothing at all if the sum needs over ``MAX_EVALS`` evaluations.
    """
    m, d, sizes = axes[0].shape[0], len(axes), [a.shape[1] for a in axes]
    if m * math.prod(sizes) > MAX_EVALS:
        raise ValueError(f"tensor sum needs {m * math.prod(sizes)} evaluations (cap {MAX_EVALS})")

    def slab(arrays, block, first):  # axis j of the slab's grids as (b, 1, .., q_j, .., 1)
        parts = [arrays[0][block, first]] + [x[block] for x in arrays[1:]]
        return [x.reshape((x.shape[0],) + (1,) * j + (-1,) + (1,) * (d - 1 - j)) for j, x in enumerate(parts)]

    out = np.zeros(m, dtype=complex)
    for block, first in itertools.product(blocks(m, math.prod(sizes)), blocks(sizes[0], math.prod(sizes[1:]))):
        w = math.prod(slab(weights, block, first))
        w = w.reshape(w.shape[0], -1)
        # coordinate-major, so each column pts[:, j] that f reads is contiguous
        pts = np.stack(np.broadcast_arrays(*slab(axes, block, first))).reshape(d, -1).T
        out[block] += np.einsum("ij,ij->i", w, np.broadcast_to(f(pts), pts.shape[:1]).reshape(w.shape))
    return out


def distinct(keys, fn):
    """``fn`` on the indices of the first row of each distinct key, its results gathered back to
    every row: a value that depends on a row only through its key is built once per key."""
    _, first, back = np.unique(keys, return_index=True, return_inverse=True)
    return fn(first)[back]


def blocks(count: int, cost: int) -> list[slice]:
    """Slices over ``count`` rows of ``cost`` entries each: at most ``_BLOCK`` entries per slice,
    or one row per slice where a single row costs more; no slice for zero rows."""
    step = max(1, _BLOCK // max(1, cost))
    return [slice(i, i + step) for i in range(0, count, step)]


def row_blocks(rows, cost: int, fn):
    """``fn`` over the ``blocks`` of rows of ``cost`` entries each, concatenated; zero rows are one empty block."""
    return np.concatenate([fn(rows[s]) for s in blocks(max(rows.shape[0], 1), cost)])


def contract_axes(tables, grid, maxdeg: int):
    """Moments from per-axis tables against a weight grid, over the multi-indices of degree <= maxdeg.

    ``tables[j][i, a, b]`` is axis j's factor of order (a, b) at its i-th
    value.  The grid ``grid[i_1, .., i_n]`` is contracted one axis at a time:
    the state is a list of pairs of partial multi-indices over the axes
    contracted so far, each holding its sum over those axes; only pairs of
    degree <= maxdeg on both sides are extended, so the dense (maxdeg+1)^(2n)
    tensor is never formed, and a step whose pair array would pass
    ``MAX_BYTES`` is refused before anything is allocated.  The first axis is
    one product of its whole table against the grid, each later one a batched
    product per class of pairs of equal degrees.  Returns the multi-indices of
    degree <= maxdeg in prefix-lex order and the moment table over them.
    """
    # after j axes the pairs are all (key, key) of degree <= maxdeg: comb(j + maxdeg, j)^2 of them
    _check_bytes(max(math.comb(j + maxdeg, j) ** 2 * math.prod(grid.shape[j:]) for j in range(1, grid.ndim + 1)))
    radix = maxdeg + 1
    a_of, b_of = (e.ravel() for e in np.indices((radix, radix)))
    # numpy's matmul, not a BLAS tensordot, which turns inf * 0 into 0 and hides a float-range failure
    vals = np.empty((radix * radix,) + grid.shape[1:], dtype=complex)  # (pairs, remaining grid axes...)
    np.matmul(np.moveaxis(tables[0][:, :radix, :radix], 0, -1).reshape(radix * radix, grid.shape[0]),
              grid.reshape(grid.shape[0], -1), out=vals.reshape(radix * radix, -1))
    keys = [(a,) for a in range(radix)]
    key_deg = np.arange(radix)
    row, col = a_of, b_of  # key ids of each pair
    for g in tables[1:]:
        u = g.shape[0]
        gt = np.moveaxis(g, 0, -1)  # (a, b, i)
        span = radix - key_deg  # children of key k: ids first[k] + a for a < span[k]
        first = np.cumsum(span) - span
        out = np.empty((int(np.sum(span[row] * span[col])),) + vals.shape[2:], dtype=complex)
        new_row = np.empty(out.shape[0], dtype=int)
        new_col = np.empty(out.shape[0], dtype=int)
        cls = key_deg[row] * radix + key_deg[col]
        by_class = np.argsort(cls, kind="stable")
        start = 0
        for sel in np.split(by_class, np.flatnonzero(np.diff(cls[by_class])) + 1):
            r, c = row[sel], col[sel]
            ea, eb = span[r[0]], span[c[0]]
            children = (a_of < ea) & (b_of < eb)
            stop = start + sel.size * ea * eb
            np.matmul(gt[:ea, :eb].reshape(ea * eb, u), vals[sel].reshape(sel.size, u, -1),
                      out=out[start:stop].reshape(sel.size, ea * eb, -1))
            new_row[start:stop] = (first[r][:, None] + a_of[children]).ravel()
            new_col[start:stop] = (first[c][:, None] + b_of[children]).ravel()
            start = stop
        keys = [k + (a,) for k, s in zip(keys, span) for a in range(s)]
        key_deg = np.array([sum(k) for k in keys])
        row, col, vals = new_row, new_col, out
    table = np.empty((len(keys), len(keys)), dtype=complex)
    table[row, col] = vals
    return keys, table


def gather_axes(mats, maxdeg: int):
    """The table prod_j mats[j][alpha_j, beta_j] of a product measure over the multi-indices of
    degree <= maxdeg (the cached ``indices.graded_lex_keys``), gathered from its n one-axis tables
    with no other N x N array: factor 0 is taken straight into each row block and the rest multiply
    it in place, in blocks of ``_BLOCK`` / 8 entries (128 KiB) that the heap reuses call after call."""
    keys, axes = graded_lex_keys(len(mats), maxdeg)
    _check_bytes(len(keys) ** 2)
    table = np.empty((len(keys), len(keys)), dtype=complex)
    first = np.asarray(mats[0], dtype=complex)
    for s in blocks(len(keys), 8 * len(keys)):
        # m[a][:, a]: 1.7x faster than m[np.ix_(a, a)].  mode="clip" leaves out unbuffered and never
        # clips: the row index first[axes[0][s]] raises IndexError on a short table with the same indices
        np.take(first[axes[0][s]], axes[0], axis=1, out=table[s], mode="clip")
        for a, m in zip(axes[1:], mats[1:]):
            table[s] *= np.take(m[a[s]], a, axis=1)
    return keys, table


def _check_bytes(entries: int) -> None:
    """Refuse a complex array of ``entries`` values over ``MAX_BYTES`` before it is allocated."""
    if 16 * entries > MAX_BYTES:
        raise ValueError(f"needs a {16 * entries}-byte array (cap {MAX_BYTES})")


def tensor_rule(orders) -> TensorRule:
    if isinstance(orders, int):
        orders = (orders,)
    return TensorRule(tuple(gauss_hermite(int(q)) for q in orders))


def integrate_gaussian(f, rule) -> complex:
    """sum_i w_i f(t_i) for a TensorRule (or a QuadRule treated as d=1).

    ``f`` receives the node array of shape (m, d) and must be finite on all
    nodes; a non-finite value is reported with its node location.
    """
    if isinstance(rule, QuadRule):
        rule = TensorRule((rule,))
    pts, wts = rule.grid()
    vals = np.asarray(f(pts))
    if vals.shape != (pts.shape[0],):
        raise ValueError(f"integrand returned shape {vals.shape}, expected ({pts.shape[0]},)")
    bad = ~np.isfinite(vals)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise ValueError(f"integrand is not finite at node {i}, t = {pts[i]}")
    return complex(np.sum(wts * vals))


@lru_cache(maxsize=64)
def gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights on [-1, 1] (used for disk and chord masses).

    Nodes are numpy's ``leggauss`` roots; weights are 2 / ((1 - x^2) P_q'(x)^2) by the
    three-term recurrence, within 4e-14 relative up to order 48 (``leggauss``'s
    own are off by up to 1.3e-12).  Rules are cached; the arrays are read-only.
    """
    if order < 1:
        raise ValueError(f"Gauss-Legendre order must be >= 1, got {order}")
    nodes = np.polynomial.legendre.leggauss(order)[0]
    prev, cur = np.ones_like(nodes), nodes  # P_{m-1}, P_m from m = 1 up to m = order
    for m in range(1, order):
        prev, cur = cur, ((2 * m + 1) * nodes * cur - m * prev) / (m + 1)
    # P_q' = q (x P_q - P_{q-1}) / (x^2 - 1)
    weights = 2.0 * (1.0 - nodes**2) / (order * (nodes * cur - prev)) ** 2
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights
