"""Gauss-Hermite rules and tensor-product integration on R^d.

Every Gaussian-weighted integral in the package runs through these rules.
Integrands against shifted kernels e^{-(t-c)^2} are recentered onto the
e^{-t^2} weight before quadrature, so the stated polynomial-exactness
degrees stay meaningful.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

MAX_ORDER = 200
MAX_NODES = 6_000_000  # largest node set any tensor discretization may materialize


@dataclass(frozen=True, eq=False)
class QuadRule:
    """One-axis rule: sum(weights * f(nodes)) ~ int f(t) e^{-t^2} dt.

    ``folded`` marks whether the Gaussian weight is folded into the weights
    (the default) or left to the integrand.  Rules are cached and shared, so
    their arrays are read-only copies.
    """

    nodes: np.ndarray
    weights: np.ndarray
    order: int
    folded: bool = True

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


def raw_weights(rule: QuadRule) -> QuadRule:
    """Unfold the Gaussian: weights for integrands that carry e^{-t^2} themselves."""
    if not rule.folded:
        return rule
    return QuadRule(rule.nodes, rule.weights * np.exp(rule.nodes**2), rule.order, folded=False)


@dataclass(frozen=True, eq=False)
class TensorRule:
    """Tensor product of one-axis rules over R^d."""

    rules: tuple[QuadRule, ...]

    @property
    def dim(self) -> int:
        return len(self.rules)

    @property
    def size(self) -> int:
        return math.prod(r.order for r in self.rules)

    def grid(self, max_nodes: int = MAX_NODES) -> tuple[np.ndarray, np.ndarray]:
        """Points (size, dim) and weights (size,) of the product rule."""
        if self.size > max_nodes:
            raise ValueError(f"tensor rule would materialize {self.size} nodes (cap {max_nodes})")
        return tensor_grid([r.nodes for r in self.rules], [r.weights for r in self.rules])

    def points(self, max_nodes: int = MAX_NODES) -> np.ndarray:
        return self.grid(max_nodes)[0]

    def weights(self, max_nodes: int = MAX_NODES) -> np.ndarray:
        return self.grid(max_nodes)[1]


def tensor_grid(axes, weights) -> tuple[np.ndarray, np.ndarray]:
    """Tensor product of per-axis nodes and weights, laid out in C order.

    Returns points of shape (m, d) and weights of shape (m,) with
    m = prod_j len(axes[j]); the last axis varies fastest.
    """
    grids = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=-1)
    w = weights[0]
    for aw in weights[1:]:
        w = np.multiply.outer(w, aw)
    return pts, w.ravel()


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

    Rules are cached; the returned arrays are read-only.
    """
    if order < 1:
        raise ValueError(f"Gauss-Legendre order must be >= 1, got {order}")
    nodes, weights = np.polynomial.legendre.leggauss(order)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights
