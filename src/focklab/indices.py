"""Multi-index arithmetic, the orthonormal Fock basis, half-integer orders, and Hermite polynomials.

Multi-indices are plain tuples of nonnegative ints, one entry per complex
axis.  Every table over them is born in the orthonormal basis
e_alpha(w) = w^alpha / sqrt(alpha!) of F^2(C^n), so no other module scales
by factorials.  Half-integer orders k in (Z+/2)^n are carried through their
doubled values 2k, which keeps comparisons, differences and the derivative
order 2k itself exact.  Hermite polynomials use the physicists' convention
H_{m+1}(x) = 2 x H_m(x) - 2 m H_{m-1}(x), H_0 = 1.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.hermite import hermvander

MultiIndex = tuple[int, ...]


def as_multi_index(alpha, n: int | None = None) -> MultiIndex:
    """Coerce ``alpha`` to a tuple of nonnegative ints, validating entries."""
    if isinstance(alpha, (int, np.integer)):
        alpha = (alpha,)
    out = []
    for a in alpha:
        ia = int(a)
        if ia != a:
            raise ValueError(f"multi-index entries must be integers, got {alpha!r}")
        if ia < 0:
            raise ValueError(f"multi-index entries must be nonnegative, got {alpha!r}")
        out.append(ia)
    if n is not None and len(out) != n:
        raise ValueError(f"expected a multi-index of length {n}, got {alpha!r}")
    return tuple(out)


def factorial(alpha) -> int:
    """alpha! = prod_j alpha_j!, exact (Python big integers never overflow)."""
    alpha = as_multi_index(alpha)
    return math.prod(math.factorial(a) for a in alpha)


def graded_lex_indices(n: int, max_degree: int) -> list[MultiIndex]:
    """All multi-indices with |alpha| <= max_degree in graded lexicographic order.

    Graded-lex (total degree first, then tuple comparison) fixes the matrix
    indexing convention used everywhere in the package.
    """
    if n < 1 or max_degree < 0:
        raise ValueError(f"need n >= 1 and max_degree >= 0, got n={n}, D={max_degree}")
    idx = [a for a in itertools.product(range(max_degree + 1), repeat=n) if sum(a) <= max_degree]
    idx.sort(key=lambda a: (sum(a), a))
    return idx


@lru_cache(maxsize=8)
def _steps(indices: tuple[MultiIndex, ...]):
    """Per degree d >= 1, increasing: index arrays of its columns, their first nonzero axes j,
    parents alpha - e_j, and sqrt(alpha_j), the step e_alpha = e_(alpha - e_j) w_j / sqrt(alpha_j).

    Cached per index set (each Berezin point evaluates one kernel row), so the arrays are read-only."""
    position = {a: i for i, a in enumerate(indices)}
    by_degree = {}
    for col, alpha in enumerate(indices):
        if any(alpha):
            j = next(i for i, a in enumerate(alpha) if a > 0)
            parent = position[alpha[:j] + (alpha[j] - 1,) + alpha[j + 1:]]
            by_degree.setdefault(sum(alpha), []).append((col, j, parent, math.sqrt(alpha[j])))
    blocks = tuple(tuple(np.array(x) for x in zip(*by_degree[d])) for d in sorted(by_degree))
    for block in blocks:
        for x in block:
            x.flags.writeable = False
    return blocks


def monomial_matrix(points: np.ndarray, indices: list[MultiIndex]) -> np.ndarray:
    """Evaluate e_alpha(w) = w^alpha / sqrt(alpha!) for every point (rows) and multi-index (columns).

    ``indices`` must be downward closed; values are built a degree at a time
    from the parent index with one fewer exponent, one row per index, and
    returned transposed.
    """
    pts = np.atleast_2d(np.asarray(points)).T
    pows = np.ones((len(indices), pts.shape[1]), dtype=complex)
    for cols, js, parents, roots in _steps(tuple(indices)):
        pows[cols] = pows[parents] * (pts[js] / roots[:, None])
    return pows.T


def orthonormal_powers(degree: int, z) -> np.ndarray:
    """e_0(z) .. e_degree(z), e_a = z^a / sqrt(a!), on a last axis (numpy's ``polyvander`` layout),
    by the recurrence e_a = e_(a-1) z / sqrt(a) on a leading axis."""
    z = np.asarray(z, dtype=complex)
    out = np.empty((degree + 1,) + z.shape, dtype=complex)
    out[0] = 1.0
    for a in range(1, degree + 1):
        np.multiply(out[a - 1], z / math.sqrt(a), out=out[a])
    return np.moveaxis(out, 0, -1)


@lru_cache(maxsize=16)
def graded_lex_keys(n: int, max_degree: int) -> tuple[tuple[MultiIndex, ...], np.ndarray]:
    """``graded_lex_indices`` as a tuple with its per-axis index array (n, N), cached per (n, D) and
    shared by every basis, gather and V_X of that size, so the array is read-only."""
    keys = tuple(graded_lex_indices(n, max_degree))
    axes = np.array(keys).reshape(len(keys), n).T
    axes.flags.writeable = False
    return keys, axes


@lru_cache(maxsize=8)
def _raising(n: int, top: int):
    """Per degree d >= 1 of the graded-lex basis, its slice, its columns' ``_steps`` (first nonzero axes j,
    parents alpha - e_j, sqrt(alpha_j)) and per axis m its rows' ``lowering`` (gamma - e_m and sqrt(gamma_m),
    0 where gamma_m = 0), positions in the whole basis.  Cached per (n, D), so the arrays are read-only."""
    keys = graded_lex_keys(n, top)[0]
    src, raise_ = (np.array(x) for x in zip(*(lowering(keys, m) for m in range(n))))
    src.flags.writeable = raise_.flags.writeable = False
    slices = [(slice(cols[0], cols[-1] + 1), js, parents, roots) for cols, js, parents, roots in _steps(keys)]
    return tuple((s, js, parents, roots, src[:, s], raise_[:, s, None]) for s, js, parents, roots in slices)


def substitution_blocks(xstar: np.ndarray, n: int, top: int) -> list[tuple[slice, np.ndarray]]:
    """V_X f(u) = f(X* u) on the graded-lex basis of degree <= top as its degree blocks: per degree,
    its slice of the basis and the block C_d with e_alpha(X* u) = sum_gamma C_d[gamma, alpha] e_gamma(u).
    V_X preserves degree, so no N x N array is formed.  Each block is built from the one below it
    (``_raising``): e_alpha = e_(alpha - e_j) (X* u)_j / sqrt(alpha_j), u_m e_(gamma - e_m) = sqrt(gamma_m) e_gamma."""
    xstar = np.asarray(xstar, dtype=complex)
    blocks = [(slice(0, 1), np.ones((1, 1), dtype=complex))]
    for rows, js, parents, roots, src, raise_ in _raising(n, top):
        start = blocks[-1][0].start  # the degree below starts there in the basis
        below = blocks[-1][1][:, parents - start]
        block = np.zeros((len(js), len(js)), dtype=complex)
        for m in range(n):  # rows with gamma_m = 0 have a zero factor: any row of ``below`` serves them
            block += raise_[m] * (xstar[js, m] / roots) * below.take(src[m] - start, axis=0, mode="clip")
        blocks.append((rows, block))
    return blocks


def substitution_matrix(xstar: np.ndarray, indices: list[MultiIndex]) -> np.ndarray:
    """Coefficients C with e_alpha(X* u) = sum_gamma C[gamma, alpha] e_gamma(u): the matrix of
    V_X f(u) = f(X* u) in the basis e_alpha = u^alpha / sqrt(alpha!), unitary for unitary X.
    It is ``substitution_blocks`` laid out densely over ``indices``, in their order; every
    multi-index up to the top degree must be among them."""
    n, top = len(xstar), max(sum(a) for a in indices)
    keys = graded_lex_keys(n, top)[0]
    c = np.zeros((len(keys), len(keys)), dtype=complex)
    for s, block in substitution_blocks(xstar, n, top):
        c[s, s] = block
    return select_table(keys, c, indices)


def lowering(indices: list[MultiIndex], j: int):
    """d/dw_j e_alpha = sqrt(alpha_j) e_(alpha - e_j): per index, the position of alpha - e_j
    (0 where alpha_j = 0) and the factor sqrt(alpha_j), which is then 0."""
    position = {a: i for i, a in enumerate(indices)}
    return [position.get(a[:j] + (a[j] - 1,) + a[j + 1:], 0) for a in indices], np.sqrt([a[j] for a in indices])


def select_table(keys: list[MultiIndex], table: np.ndarray, indices: list[MultiIndex]) -> np.ndarray:
    """The rows and columns of the square ``table`` over ``keys`` at ``indices``, in their order;
    ``table`` itself, not a copy, when ``indices`` lists ``keys`` in their order."""
    if list(indices) == list(keys):
        return table
    position = {a: i for i, a in enumerate(keys)}
    sel = [position[a] for a in indices]
    return table[np.ix_(sel, sel)]


def hermite_values(m: int, x) -> np.ndarray:
    """H_0(x) .. H_m(x) stacked along the first axis (physicists' convention)."""
    x = np.asarray(x, dtype=float)
    return np.moveaxis(hermvander(x, m), -1, 0).reshape((m + 1,) + x.shape)


def hermite(m: int, x):
    """H_m(x) via the three-term recurrence."""
    if m < 0:
        raise ValueError("Hermite degree must be nonnegative")
    return hermite_values(m, x)[m]


@dataclass(frozen=True)
class HalfIndex:
    """A half-integer multi-index k in (Z/2)^n stored as doubled = 2k.

    Signed entries are allowed so the same type carries weight exponents p;
    operations that need a derivative order validate nonnegativity.
    """

    doubled: MultiIndex

    def __post_init__(self):
        d = tuple(int(v) for v in self.doubled)
        if any(v != w for v, w in zip(d, self.doubled)):
            raise ValueError(f"index entries must be integers, got {self.doubled!r}")
        object.__setattr__(self, "doubled", d)

    @classmethod
    def of(cls, value, n: int | None = None, doubled: bool = True) -> "HalfIndex":
        """``value`` itself, or the HalfIndex whose entries it lists (doubled, or integers with
        ``doubled=False``); a scalar entry is repeated over the ``n`` axes.  Given ``n``, an
        index with another number of axes is refused."""
        if not isinstance(value, cls):
            if np.ndim(value) == 0:
                if n is None:
                    raise TypeError(f"a scalar index {value!r} needs the number of axes")
                value = (value,) * n
            value = cls.from_doubled(value) if doubled else cls.from_ints(value)
        if n is not None and value.n != n:
            raise ValueError(f"index {value.doubled} (doubled) has {value.n} axes, expected {n}")
        return value

    @classmethod
    def from_doubled(cls, values) -> "HalfIndex":
        return cls(tuple(values))

    @classmethod
    def from_ints(cls, values) -> "HalfIndex":
        # checked as integers before doubling: 2 * 0.5 would pass as the half-integer 1/2
        return cls(tuple(2 * v for v in cls.from_doubled(values).doubled))

    @classmethod
    def from_halves(cls, values) -> "HalfIndex":
        doubled = []
        for v in values:
            d = round(2 * float(v))
            if abs(2 * float(v) - d) > 1e-12:
                raise ValueError(f"{v!r} is not an integer or half-integer")
            doubled.append(d)
        return cls(tuple(doubled))

    @property
    def n(self) -> int:
        return len(self.doubled)

    @property
    def is_zero(self) -> bool:
        return all(v == 0 for v in self.doubled)

    @property
    def is_integer(self) -> bool:
        return all(v % 2 == 0 for v in self.doubled)

    @property
    def is_nonnegative(self) -> bool:
        return all(v >= 0 for v in self.doubled)

    def halves(self) -> tuple[float, ...]:
        return tuple(v / 2.0 for v in self.doubled)

    def order_index(self) -> MultiIndex:
        """The integer multi-index 2k; requires k >= 0."""
        if not self.is_nonnegative:
            raise ValueError(f"2k = {self.doubled} is not a valid derivative order")
        return self.doubled

    def as_integer_index(self) -> MultiIndex:
        """k itself as a multi-index; requires k integer and >= 0."""
        if not (self.is_integer and self.is_nonnegative):
            raise ValueError(f"k = {self.halves()} is not a nonnegative integer index")
        return tuple(v // 2 for v in self.doubled)

    def gamma_factor(self) -> float:
        """prod_j Gamma(k_j + 1), the half-integer extension of k!."""
        if not self.is_nonnegative:
            raise ValueError("gamma_factor needs k >= 0")
        # math.gamma is off the correctly rounded factorial by an ulp at some integers from 23 on
        return math.prod(math.gamma(v / 2 + 1) if v % 2 else float(math.factorial(v // 2)) for v in self.doubled)

    def geq(self, other: "HalfIndex") -> bool:
        return all(a >= b for a, b in zip(self.doubled, other.doubled))

    def __add__(self, other: "HalfIndex") -> "HalfIndex":
        return HalfIndex(tuple(a + b for a, b in zip(self.doubled, other.doubled)))

    def __sub__(self, other: "HalfIndex") -> "HalfIndex":
        return HalfIndex(tuple(a - b for a, b in zip(self.doubled, other.doubled)))

    def __neg__(self) -> "HalfIndex":
        return HalfIndex(tuple(-a for a in self.doubled))
