"""Multi-index arithmetic, half-integer orders, and Hermite polynomials.

Multi-indices are plain tuples of nonnegative ints, one entry per complex
axis.  Half-integer orders k in (Z+/2)^n are carried through their doubled
values 2k, which keeps comparisons, differences and the derivative order
2k itself exact.  Hermite polynomials use the physicists' convention
H_{m+1}(x) = 2 x H_m(x) - 2 m H_{m-1}(x), H_0 = 1.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

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


def degree(alpha) -> int:
    return int(sum(alpha))


def index_leq(alpha, beta) -> bool:
    """Componentwise partial order alpha <= beta."""
    return all(a <= b for a, b in zip(alpha, beta))


def index_sub(alpha, beta) -> MultiIndex:
    return tuple(a - b for a, b in zip(alpha, beta))


def index_add(alpha, beta) -> MultiIndex:
    return tuple(a + b for a, b in zip(alpha, beta))


def factorial(alpha) -> int:
    """alpha! = prod_j alpha_j!, exact (Python big integers never overflow)."""
    alpha = as_multi_index(alpha)
    return math.prod(math.factorial(a) for a in alpha)


def binomial(m, beta) -> int:
    """prod_j C(m_j, beta_j); requires beta <= m componentwise."""
    m = as_multi_index(m)
    beta = as_multi_index(beta)
    if len(m) != len(beta) or not index_leq(beta, m):
        raise ValueError(f"binomial requires beta <= m componentwise, got m={m}, beta={beta}")
    return math.prod(math.comb(a, b) for a, b in zip(m, beta))


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


def monomial_matrix(points: np.ndarray, indices: list[MultiIndex]) -> np.ndarray:
    """Evaluate w^alpha for every point (rows) and multi-index (columns).

    ``indices`` must be downward closed and graded (parents precede children),
    which graded-lex enumerations are; powers are built incrementally from the
    parent index with one fewer exponent.
    """
    pts = np.atleast_2d(np.asarray(points))
    m = pts.shape[0]
    pows = np.empty((m, len(indices)), dtype=complex)
    position = {a: i for i, a in enumerate(indices)}
    for col, alpha in enumerate(indices):
        if sum(alpha) == 0:
            pows[:, col] = 1.0
            continue
        j = next(i for i, a in enumerate(alpha) if a > 0)
        parent = tuple(a - 1 if i == j else a for i, a in enumerate(alpha))
        pows[:, col] = pows[:, position[parent]] * pts[:, j]
    return pows


def hermite_values(m: int, x) -> np.ndarray:
    """H_0(x) .. H_m(x) stacked along the first axis (physicists' convention)."""
    x = np.asarray(x, dtype=float)
    return np.moveaxis(hermvander(x, m), -1, 0).reshape((m + 1,) + x.shape)


def hermite(m: int, x):
    """H_m(x) via the three-term recurrence."""
    if m < 0:
        raise ValueError("Hermite degree must be nonnegative")
    return hermite_values(m, x)[m]


def hermite_product(m, t):
    """prod_j H_{m_j}(t_j) for t a point of R^n or an array of shape (..., n)."""
    m = as_multi_index(m)
    t = np.asarray(t, dtype=float)
    if t.ndim == 0:
        t = t[None]
    if t.shape[-1] != len(m):
        raise ValueError(f"point dimension {t.shape[-1]} does not match index length {len(m)}")
    vals = np.ones(t.shape[:-1])
    for j, mj in enumerate(m):
        vals = vals * hermite(mj, t[..., j])
    if vals.ndim == 0:
        return float(vals)
    return vals


def gamma_half_plus_one(doubled: int) -> float:
    """Gamma(m/2 + 1) for the half-integer m/2, exact down the recursion.

    Even doubled values reduce to an integer factorial; odd ones walk
    Gamma(x+1) = x Gamma(x) down to Gamma(1/2) = sqrt(pi).
    """
    if doubled < 0:
        raise ValueError("gamma_half_plus_one needs a nonnegative doubled value")
    if doubled % 2 == 0:
        return float(math.factorial(doubled // 2))
    acc = math.sqrt(math.pi)
    x = doubled / 2.0
    while x > 0:
        acc *= x
        x -= 1.0
    return acc


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
            raise ValueError(f"doubled entries must be integers, got {self.doubled!r}")
        object.__setattr__(self, "doubled", d)

    @classmethod
    def of(cls, value) -> "HalfIndex":
        """``value`` itself, or the HalfIndex whose doubled entries it lists."""
        return cls.from_doubled(value) if isinstance(value, (tuple, list)) else value

    @classmethod
    def from_doubled(cls, values) -> "HalfIndex":
        return cls(tuple(int(v) for v in values))

    @classmethod
    def from_ints(cls, values) -> "HalfIndex":
        return cls(tuple(2 * int(v) for v in values))

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

    def total_order(self) -> int:
        """|2k| = sum of the doubled entries."""
        return sum(self.doubled)

    def gamma_factor(self) -> float:
        """prod_j Gamma(k_j + 1), the half-integer extension of k!."""
        if not self.is_nonnegative:
            raise ValueError("gamma_factor needs k >= 0")
        return math.prod(gamma_half_plus_one(v) for v in self.doubled)

    def geq(self, other: "HalfIndex") -> bool:
        return all(a >= b for a, b in zip(self.doubled, other.doubled))

    def __add__(self, other: "HalfIndex") -> "HalfIndex":
        return HalfIndex(tuple(a + b for a, b in zip(self.doubled, other.doubled)))

    def __sub__(self, other: "HalfIndex") -> "HalfIndex":
        return HalfIndex(tuple(a - b for a, b in zip(self.doubled, other.doubled)))

    def __neg__(self) -> "HalfIndex":
        return HalfIndex(tuple(-a for a in self.doubled))
