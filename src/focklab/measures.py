"""Measure symbols on C^n and the integration primitives behind every formula.

A measure is described structurally: finite atom sets, densities, products
rho (x) nu_alpha (one type; its alpha = 0 case, the horizontal rho (x) Lebesgue_y,
is told apart only by ``spectral.horizontal_rho``), unitary pushforwards, tensor
products of one-axis measures, and the (1+x^2)^p (1+y^2)^p weighting calculus.
All pairings against Gaussian kernels reduce to node/weight sets: atoms contribute
exactly, everything else goes through recentered Gauss-Hermite rules.  Only
``AlphaHorizontal`` knows how rho (x) nu_alpha integrates: its pairings, moments
and polydisk masses split into rho's part and y-integrals.

One rule serves every product: a measure that answers ``axis_factors()`` (the
one-axis measures whose tensor product it is) is integrated factor by factor by
the entry points.  ``Product`` (on C^n) and ``RealProduct`` (on R^n) answer their
factors and are pure data, ``Lebesgue(n)`` answers n copies of ``Lebesgue(1)``,
and ``AlphaHorizontal`` over a product rho answers the one-axis rho_j (x)
nu_{alpha_j}.  The kernel, the weight, the monomials and the polydisk factor over
the axes, so a node set is the tensor product of one-axis sets, a pairing, polydisk
mass or ``real_sums`` value the product of one-axis values, each built once per
distinct c_j (``_per_axis`` through ``quadrature.distinct``), and a moment table the
``quadrature.gather_axes`` of one-axis tables.  ``gaussian_density(n)`` and
``real_gaussian(n)`` build products for n >= 2.

Rules fitted to the weight.  The one-axis Gaussian exp(-|w|^2 / sigma^2) is a value,
``Gaussian(sigma)`` on C and ``RealGaussian(sigma)`` on R, equal by sigma.  Against a
Gaussian kernel it is one Gaussian per real direction, e^{-k^2 t^2} with k^2 = 1 + 1/sigma^2
(2 + 1/sigma^2 for gamma's kernel), recentred where the kernel is centred, so its nodes and
pairings come from the Gauss-Hermite rule of that weight, nodes s_i / k and weights w_i / k.
Every Gaussian moment, Berezin value and gamma is then exact at the order the moment pass
already uses (D + 1 nodes for degree D), at every width; a sampled Gaussian was off by 82%
at sigma = 0.1 and D = 20.  A product with another density (``times``, ``weighted``) is
sampled, as any density, and polydisk masses keep the density's fixed rules.  The
y-density (1+v^2)^{-alpha} of nu_alpha has poles at v = +-i, so its tables and its node set
at Im c = 0 use the Gauss rule of e^{-v^2} nu_alpha itself (``_nu_rule``), exact at D + 1 too.

The module functions (``dimension``, ``variation``, ``weight``, ``pushforward``,
``real_nodes``, ``real_sums``, ``gaussian_nodes``, ``gaussian_pairing(s)``,
``ball_mass``, ``moment_table``) validate their arguments and dispatch to the
one protocol every measure type implements:

- all measures: ``n``, ``variation()``, ``times(g)`` (multiply by a density
  g, where the type can hold the product), ``weighted(p)``, ``pushed(x)`` and
  ``axis_factors()`` (None for a measure that is not a product);
- real measures on R^n: ``real_nodes(center, order, scale)``, its batch over
  centres ``real_sums(centers, order, scale, factor)`` of sum_i w_i(c)
  prod_j factor(j, c_j, t_ij), the moment pass's ``axis_grid(order)`` (per axis the
  distinct node values, or a node scale k for the rule's own nodes over k, and the
  weight grid) and the polydisk
  masses' ``box_integral(x0, r, factor)`` of prod_j factor(j, t_j - x0_j) per row
  of x0 (offsets (1, q) shared by every row on a grid, (m, atoms) for atoms);
- measures on C^n (``MeasureSpec``): ``nodes(center, order)``
  (refused by ``quadrature.check_nodes`` over ``MAX_NODES``), ``pairing(centers, order)``
  (one value per row of a batch of centres; the default sums the node
  weights centre by centre), ``moments(maxdeg, order)`` (each type's own
  moment route, a table in the orthonormal basis e_alpha = w^alpha /
  sqrt(alpha!) built by ``indices``; the default is a Gram product over the
  nodes) and
  ``ball_mass(centers, r)`` (one polydisk mass per row of a batch of centres,
  by fixed rules: 48-node chords, and a polar rule of 40 radii by 80 angles
  per axis for densities).

Grid types (Lebesgue, of density 1, densities and Gaussians) share ``grid_sums(axes,
weights)``, per-centre sums over tensor grids: Lebesgue multiplies its axis
sums, densities stream them through ``quadrature.tensor_sums``.  Every batched
kernel here states only the entries one row costs (one centre's evaluations for
a density's centres), and ``quadrature.blocks`` alone sizes the blocks.

A new measure type is one class.  Methods that recurse into a factor call
the module functions again, so every node set is requested through
``gaussian_nodes`` or ``real_nodes``.
"""

from __future__ import annotations

import ast
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .indices import HalfIndex, as_multi_index, graded_lex_keys, lowering, monomial_matrix, orthonormal_powers
from .indices import select_table, substitution_blocks
from .quadrature import MAX_ORDER, QuadRule, blocks, check_nodes, contract_axes, distinct, gather_axes
from .quadrature import gauss_hermite, gauss_legendre, row_blocks, tensor_grid, tensor_sums

DEFAULT_ORDER = 40
_POLAR_ORDER = 40  # Gauss-Legendre radii per axis of a density's polydisk mass, with twice as many angles
_UNITARY_TOL = 1e-12
_ROTATED_POLYDISK = "polydisk mass for a rotated measure is not supported; rotate the polydisk instead"


# ---------------------------------------------------------------------------
# shared bases


class _Measure:
    """Root of every measure class; types that cannot hold a product with a density refuse it."""

    def times(self, g):
        raise TypeError(f"{type(self).__name__} cannot be multiplied by a density")

    def weighted(self, p: HalfIndex):
        # on real points the y-factor (1 + 0)^{p_j} is 1, so one weight serves R^n and C^n
        return self.times(lambda pts: _weight_values(p.doubled, pts))

    def axis_factors(self):
        """The one-axis measures whose tensor product this measure is, or None if it is not one."""
        return None


class _RealGrid(_Measure):
    """Real measures discretized on a Gauss-Hermite grid (Lebesgue, densities)."""

    def real_nodes(self, center, order: int, scale: float):
        rule = gauss_hermite(order)
        root = np.sqrt(scale)
        pts, wts = tensor_grid([(c + rule.nodes) / root for c in center], [rule.weights] * self.n)
        return pts, wts * scale ** (-self.n / 2.0) * self.density(pts)

    def real_sums(self, centers, order: int, scale: float, factor):
        rule = gauss_hermite(order)  # real_nodes' rule; axis j's factor joins that axis' weights
        root = np.sqrt(scale)
        axes = [(c[:, None] + rule.nodes) / root for c in centers.T]
        return self.grid_sums(axes, [rule.weights / root * factor(j, c[:, None], t)
                                     for j, (c, t) in enumerate(zip(centers.T, axes))])

    def axis_grid(self, order: int):
        _, wts = real_nodes(self, np.zeros(self.n), order)
        # every axis is the rule's own nodes (node scale 1), and real_nodes lays their tensor grid out in C order
        return (1.0,) * self.n, wts.reshape((order,) * self.n)

    def box_integral(self, x0, r, factor):
        # t = x0 + r sin(phi) per axis; axis j's factor gets the offsets r_j sin(phi) as one row shared
        # by every centre, (1, 48), and joins that axis' chord weights
        s, sw = _chord_rule()
        axes = [x[:, None] + rj * s for x, rj in zip(x0.T, r)]
        return self.grid_sums(axes, [rj * sw * factor(j, rj * s[None]) for j, rj in enumerate(r)])


@dataclass(frozen=True, eq=False)
class _AtomSet(_Measure):
    """Finite atomic measure: points of shape (m, n), complex weights."""

    points: np.ndarray
    weights: np.ndarray
    _dtype = float

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=self._dtype))
        wts = np.atleast_1d(np.asarray(self.weights, dtype=complex))
        if pts.shape[0] != wts.shape[0]:
            raise ValueError("atom points and weights must have equal length")
        if not (np.all(np.isfinite(pts)) and np.all(np.isfinite(wts))):
            raise ValueError("atom points and weights must be finite")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", wts)

    @property
    def n(self) -> int:
        return self.points.shape[1]

    def variation(self):
        return type(self)(self.points, np.abs(self.weights))

    def times(self, g):
        return type(self)(self.points, self.weights * g(self.points))

    def pushed(self, x):
        return type(self)(self.points @ np.conj(x), self.weights)

    def box_integral(self, centers, r, factor):
        """Per row c of ``centers``, the sum of w prod_j factor(j, p_j - c_j) over atoms with all
        |p_j - c_j| < r_j (a box on R^n, a polydisk on C^n); the offsets come as (centres, atoms)."""
        offsets = self.points[None] - centers[:, None]  # (centres, atoms, n)
        inside = np.all(np.abs(offsets) < r, axis=2)
        values = math.prod(factor(j, offsets[:, :, j]) for j in range(self.n))
        return np.sum(np.where(inside, self.weights * values, 0.0), axis=1)


@dataclass(frozen=True, eq=False)
class _DensitySet(_Measure):
    """Density against Lebesgue measure; ``density`` is vectorized over (m, n) arrays."""

    density: object
    n: int

    def variation(self):
        f = self.density
        return type(self)(lambda pts: np.abs(f(pts)), self.n)

    def times(self, g):
        f = self.density
        return type(self)(lambda pts: f(pts) * g(pts), self.n)

    def pushed(self, x):
        f = self.density
        return type(self)(lambda pts: f(pts @ x.T), self.n)

    def grid_sums(self, axes, weights):
        return tensor_sums(axes, weights, self.density)


@dataclass(frozen=True)
class _GaussianAxis(_Measure):
    """The density exp(-|w|^2 / sigma^2) on one axis, a value equal by sigma.  Against the kernel
    e^{-(sqrt(s) t - c)^2} of each real direction it is one Gaussian, e^{-c^2 / (sigma k)^2} e^{-k^2 (t - t_c)^2}
    with k^2 = s + 1/sigma^2 and t_c = sqrt(s) c / k^2, so its rule is the Gauss-Hermite rule of that weight:
    nodes t_c + s_i / k, weights w_i / k times the constant, exact for polynomials of degree < 2q at every
    sigma.  A product with any other density (``times``, ``weighted``) is sampled, and polydisk masses keep
    the density's fixed rules."""

    sigma: float
    n = 1
    grid_sums = _DensitySet.grid_sums

    def __post_init__(self):
        if not (math.isfinite(self.sigma) and self.sigma > 0):
            raise ValueError(f"Gaussian width sigma must be positive and finite, got {self.sigma}")
        object.__setattr__(self, "sigma", float(self.sigma))

    def density(self, pts):
        return np.exp(-np.sum(np.abs(pts) ** 2, axis=1) / self.sigma**2)

    def variation(self):
        return self

    def times(self, g):
        return self._sampled(lambda pts: self.density(pts) * g(pts), 1)

    def pushed(self, x):
        return self  # a one-axis unitary keeps |w|

    def _rule(self, c, order: int, scale: float = 1.0):
        """The rule of the combined weight at each real centre coordinate c (m,): nodes and weights (m, q)."""
        k2 = scale + self.sigma**-2
        rule, c, k = gauss_hermite(order), np.asarray(c, dtype=float)[:, None], np.sqrt(k2)
        return np.sqrt(scale) * c / k2 + rule.nodes / k, rule.weights / k * np.exp(-c**2 / (self.sigma**2 * k2))


class MeasureSpec(_Measure):
    """Base of the measures on C^n; the defaults serve atoms, densities and ``Weighted``."""

    def pushed(self, x):
        return Pushforward(self, x)

    def pairing(self, centers, order: int):
        return np.array([np.sum(gaussian_nodes(self, c, order)[1]) for c in centers], dtype=complex)

    def moments(self, maxdeg: int, order: int):
        """(keys, table): the moments in e_alpha over all degrees <= maxdeg, by a Gram product over the nodes."""
        keys = graded_lex_keys(self.n, maxdeg)[0]
        pts, wts = gaussian_nodes(self, np.zeros(self.n), order)
        table = None  # the first block's product becomes the table, and later blocks add into it
        for s in blocks(pts.shape[0], len(keys)):
            pows = monomial_matrix(pts[s], keys)
            term = (pows * wts[s, None]).T @ np.conj(pows)
            table = term if table is None else np.add(table, term, out=table)
        return keys, np.zeros((len(keys), len(keys)), dtype=complex) if table is None else table


# ---------------------------------------------------------------------------
# real measures on R^n (the rho factor of horizontal products)


class RealAtoms(_AtomSet):
    """Finite atomic measure on R^n: points of shape (m, n), complex weights."""

    def real_nodes(self, center, order: int, scale: float):
        return self.points, self.weights * np.exp(-np.sum((np.sqrt(scale) * self.points - center) ** 2, axis=1))

    def real_sums(self, centers, order: int, scale: float, factor):
        wts = self.weights * np.exp(-np.sum((np.sqrt(scale) * self.points - centers[:, None, :]) ** 2, axis=2))
        return np.sum(wts * math.prod(factor(j, c[:, None], t[None]) for j, (c, t) in
                                      enumerate(zip(centers.T, self.points.T))), axis=1)

    def axis_grid(self, order: int):
        # the atoms' distinct coordinates on each axis: up to m^n cells for m atoms
        _, wts = real_nodes(self, np.zeros(self.n), order)
        axes, where = zip(*(np.unique(self.points[:, j], return_inverse=True) for j in range(self.n)))
        grid = np.zeros(tuple(len(a) for a in axes), dtype=complex)
        np.add.at(grid, where, wts)
        return axes, grid


class RealDensity(_DensitySet, _RealGrid):
    """Density g(t) dt on R^n; g is vectorized over point arrays (m, n)."""


class RealGaussian(_GaussianAxis, _RealGrid):
    """exp(-t^2 / sigma^2) dt on R, integrated on the rule of its combined weight (``_GaussianAxis``)."""

    _sampled = RealDensity

    def real_nodes(self, center, order: int, scale: float):
        t, w = self._rule(center, order, scale)
        return t.reshape(-1, 1), w[0]

    def real_sums(self, centers, order: int, scale: float, factor):
        t, w = self._rule(centers[:, 0], order, scale)
        return np.sum(w * factor(0, centers, t), axis=1)

    def axis_grid(self, order: int):
        # the rule's nodes over the node scale k = sqrt(1 + 1/sigma^2)
        return (math.sqrt(1.0 + self.sigma**-2),), self._rule(np.zeros(1), order)[1][0]


@dataclass(frozen=True)
class Lebesgue(_RealGrid):
    """Lebesgue measure on R^n."""

    n: int

    def variation(self):
        return self

    def times(self, g):
        return RealDensity(g, self.n)

    def pushed(self, x):
        return self

    def weighted(self, p: HalfIndex):
        # (1 + x_j^2)^{p_j} factors over the axes, so from n = 2 on the weighted measure is a product
        return super().weighted(p) if self.n == 1 else RealProduct((Lebesgue(1),) * self.n).weighted(p)

    def axis_factors(self):
        return None if self.n == 1 else (Lebesgue(1),) * self.n

    def density(self, pts):
        return np.ones(pts.shape[0])

    def grid_sums(self, axes, weights):
        return math.prod(w.sum(axis=1) for w in weights)


def real_dirac(point) -> RealAtoms:
    pts = np.atleast_2d(np.asarray(point, dtype=float))
    return RealAtoms(pts, np.ones(pts.shape[0]))


# ---------------------------------------------------------------------------
# measures on C^n


class Atoms(_AtomSet, MeasureSpec):
    """Finite atomic measure on C^n with complex weights."""

    _dtype = complex

    def nodes(self, center, order: int):
        return self.points, self.weights * np.exp(-np.sum(np.abs(self.points - center) ** 2, axis=1))

    def ball_mass(self, centers, r):
        return self.box_integral(centers, r, lambda j, t: 1.0)


class Density(_DensitySet, MeasureSpec):
    """Complex density f(w) dnu_{2n}(w); f is vectorized over (m, n) complex arrays."""

    def _axis_rules(self, centers, order: int):
        """Per complex axis, the q^2 nodes x + iy of the rule at each centre, (m, q^2), and their weights."""
        rule = gauss_hermite(order)
        z = (rule.nodes[:, None] + 1j * rule.nodes[None, :]).ravel()
        w = np.broadcast_to(np.multiply.outer(rule.weights, rule.weights).ravel(), (centers.shape[0], z.size))
        return [c[:, None] + z for c in centers.T], [w] * self.n

    def moments(self, maxdeg: int, order: int):
        # one axis (every gaussian_density factor) is the Gram product over its q^2 nodes
        if self.n == 1:
            return super().moments(maxdeg, order)
        # per-axis tables e_a(z) conj(e_b(z)) on the q^2 complex nodes of each axis, against the weight grid
        n = self.n
        _, wts = gaussian_nodes(self, np.zeros(n), order)
        axes, _ = self._axis_rules(np.zeros((1, n)), order)
        pows = orthonormal_powers(maxdeg, axes[0][0])
        g = pows[:, :, None] * np.conj(pows)[:, None, :]
        return contract_axes([g] * n, wts.reshape((pows.shape[0],) * n), maxdeg)

    def nodes(self, center, order: int):
        axes, weights = self._axis_rules(center[None], order)
        pts, wts = tensor_grid([a[0] for a in axes], [w[0] for w in weights])
        return pts, wts * self.density(pts)

    def pairing(self, centers, order: int):
        return row_blocks(centers, order ** (2 * self.n), lambda c: self.grid_sums(*self._axis_rules(c, order)))

    def ball_mass(self, centers, r):
        """Per-axis polar rules, 40 Gauss-Legendre radii by 80 equispaced angles, streamed in blocks."""
        gl_nodes, gl_weights = gauss_legendre(_POLAR_ORDER)
        qth = 2 * _POLAR_ORDER
        circle = np.exp(2j * math.pi * np.arange(qth) / qth)
        rr = 0.5 * r[:, None] * (gl_nodes + 1.0)  # (axis, radius)
        wr = 0.5 * r[:, None] * gl_weights * rr * (2.0 * math.pi / qth)  # polar Jacobian times the angle weight
        disk, w = (rr[:, :, None] * circle).reshape(self.n, -1), np.repeat(wr, qth, axis=1)
        return row_blocks(centers, disk.shape[1] ** self.n, lambda c: self.grid_sums(
            [x[:, None] + d for x, d in zip(c.T, disk)], [np.broadcast_to(v, (c.shape[0], v.size)) for v in w]))


class Gaussian(_GaussianAxis, MeasureSpec):
    """exp(-|w|^2 / sigma^2) dnu_2(w) on C, integrated on the rule of its combined weight in x and in y
    (``_GaussianAxis``); its pairing is the product of the two weight sums."""

    _sampled = Density
    ball_mass = Density.ball_mass

    def nodes(self, center, order: int):
        (x, wx), (y, wy) = self._rule(center.real, order), self._rule(center.imag, order)
        return (x[0, :, None] + 1j * y[0]).reshape(-1, 1), np.multiply.outer(wx[0], wy[0]).ravel()

    def pairing(self, centers, order: int):
        return math.prod(self._rule(c, order)[1].sum(axis=1) for c in (centers[:, 0].real, centers[:, 0].imag))


# rule-node kernels, least recently used first, 16 MiB in all: a kernel is q (D+1)^2 doubles, so every one
# up to D = 127 at the D + 1 order floor fits, and a D = 199 one (64 MB) is built per call, never kept
_KERNEL_BYTES = 16 << 20
_kernels = {}


def _nu_density(doubled: int, v):
    """The nu_alpha density (1+v^2)^{-alpha} with 2 alpha = ``doubled``; exactly 1 where alpha = 0."""
    return (1.0 + v**2) ** (-doubled / 2.0)


@lru_cache(maxsize=64)
def _nu_rule(order: int, doubled: int) -> QuadRule:
    """The order-q Gauss rule of the weight e^{-v^2} nu_alpha(v), exact for polynomials of degree < 2q; Gauss-Hermite
    where alpha = 0.  Sampling nu_alpha on Gauss-Hermite converges slowly (its poles at v = +-i leave 3.3e-8 relative
    in a D = 20 table at order 40), so the rule is fitted instead: Lanczos, reorthogonalized, reads the recurrence off
    the order-200 Gauss-Hermite discretization of the weight (its moments within 1e-14 of the closed form), the
    Jacobi matrix's eigenvalues take one Newton step, the weights are the Christoffel numbers 1 / sum_k p_k^2, which
    keep their relative accuracy in the tails, and both are mirrored exactly, as ``_axis_kernel``'s half rule needs."""
    if doubled == 0:
        return gauss_hermite(order)
    base = gauss_hermite(MAX_ORDER)
    mass = base.weights * _nu_density(doubled, base.nodes)
    lanczos, b = np.zeros((order, MAX_ORDER)), np.zeros(order)  # b[k] p_{k+1} = v p_k - b[k-1] p_{k-1}; b[-1] = 0
    lanczos[0] = np.sqrt(mass / mass.sum())
    for k in range(order - 1):  # the weight is even, so the diagonal of the Jacobi matrix is 0
        r = base.nodes * lanczos[k]
        for _ in range(2):
            r -= lanczos[:k + 1].T @ (lanczos[:k + 1] @ r)
        b[k] = np.linalg.norm(r)
        lanczos[k + 1] = r / b[k]

    def orthonormal(v):
        """p_0 .. p_{q-1} at v and the Newton step p_q / p_q', in which the unknown b[q-1] cancels."""
        p, dp = np.zeros((order + 2, v.size)), np.zeros((order + 2, v.size))  # row k + 1 holds p_k
        p[1] = mass.sum() ** -0.5
        for k in range(order):
            div = b[k] if k < order - 1 else 1.0
            p[k + 2] = (v * p[k + 1] - b[k - 1] * p[k]) / div
            dp[k + 2] = (p[k + 1] + v * dp[k + 1] - b[k - 1] * dp[k]) / div
        return p[1:-1], p[-1] / dp[-1]

    v = np.linalg.eigvalsh(np.diag(b[:-1], 1) + np.diag(b[:-1], -1))
    v = v - orthonormal(v)[1]
    v = (v - v[::-1]) / 2.0
    w = 1.0 / np.sum(orthonormal(v)[0] ** 2, axis=0)
    return QuadRule(v, (w + w[::-1]) / 2.0, order)


def _axis_kernel(t, maxdeg: int, order: int, doubled: int, out=None) -> np.ndarray:
    """g[i, a, b] = sum_v w(v) nu_alpha(v) Re(e_a conj(e_b))(t_i + iv), (t-values, D+1, D+1), into ``out`` if
    given: the rule and nu_alpha are even in v and e_a(t-iv) = conj(e_a(t+iv)), so one real batched product
    over the v >= 0 half of the rule, weights doubled off v = 0, per ``quadrature.blocks`` block of t-values.
    The v-rule is ``_nu_rule``, fitted to e^{-v^2} nu_alpha, so the kernel is exact at order D + 1 for every alpha."""
    rule = _nu_rule(order, doubled)
    half = rule.nodes >= 0  # the nodes are mirrored exactly, with an exact 0.0 middle node for odd q
    v, wv = rule.nodes[half], rule.weights[half]
    w2 = np.tile(np.where(v > 0, 2.0, 1.0) * wv, 2)[:, None]
    g = np.empty((t.size, maxdeg + 1, maxdeg + 1)) if out is None else out
    for s in blocks(t.size, w2.size * (maxdeg + 1)):
        pows = orthonormal_powers(maxdeg, t[s, None] + 1j * v)
        parts = np.concatenate([pows.real, pows.imag], axis=1)  # (t-values, 2 * half nodes, D + 1)
        np.matmul(np.swapaxes(parts, 1, 2), parts * w2, out=g[s])
    return g


def _rule_kernel(order: int, maxdeg: int, doubled: int, scale: float) -> np.ndarray:
    """``_axis_kernel`` on the rule's own nodes over the node scale, read-only, kept if it fits.  They are mirrored
    exactly and g(-t) = (-1)^(a+b) g(t), so only the t >= 0 rows are built; the rest flip in place, no
    table-sized temporary."""
    key = (order, maxdeg, doubled, scale)
    g = _kernels.pop(key, None)
    if g is None:
        g, low = np.empty((order, maxdeg + 1, maxdeg + 1)), order // 2
        _axis_kernel(gauss_hermite(order).nodes[low:] / scale, maxdeg, order, doubled, g[low:])
        np.multiply(g[::-1][:low], (-1.0) ** np.indices(g.shape[1:]).sum(axis=0), out=g[:low])
        g.flags.writeable = False
    if g.nbytes <= _KERNEL_BYTES:
        _kernels[key] = g  # (re)inserted last, as the most recently used
        while sum(k.nbytes for k in _kernels.values()) > _KERNEL_BYTES:
            del _kernels[next(iter(_kernels))]
    return g


@dataclass(frozen=True)
class AlphaHorizontal(MeasureSpec):
    """mu = rho (x) nu_{n,alpha} with d nu_{n,alpha} = prod (1+y_j^2)^{-alpha_j} dy_j.

    ``alpha_doubled`` stores 2*alpha so half-integer exponents arising from
    the weighting calculus stay exact (n integers, read by ``HalfIndex.of``); it defaults
    to alpha = 0, the horizontal rho (x) Lebesgue, which ``Horizontal`` also names.
    A value: equal when rho is equal (rho's own equality: the same object for atoms and
    densities, the same n for Lebesgue) and alpha is, so equal product factors share one table.
    """

    rho: RealMeasure
    alpha_doubled: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "alpha_doubled", HalfIndex.of(tuple(self.alpha_doubled) or 0, self.rho.n).doubled)

    @property
    def n(self) -> int:
        return self.rho.n

    def variation(self):
        return type(self)(variation(self.rho), self.alpha_doubled)

    def weighted(self, p: HalfIndex):
        return AlphaHorizontal(weight(self.rho, p), tuple(a - d for a, d in zip(self.alpha_doubled, p.doubled)))

    def pushed(self, x):
        # nu_0 is Lebesgue, invariant under any real orthogonal rotation
        if not any(self.alpha_doubled) and np.max(np.abs(x.imag)) < _UNITARY_TOL:
            return AlphaHorizontal(self.rho.pushed(x.real))
        return Pushforward(self, x)

    def axis_factors(self):
        # nu_alpha is a product too, so over a product rho each axis is a one-axis rho_j (x) nu_{alpha_j}
        factors = self.rho.axis_factors()
        return None if factors is None else tuple(map(AlphaHorizontal, factors, zip(self.alpha_doubled)))

    def _nu(self, j: int, v):
        return _nu_density(self.alpha_doubled[j], v)

    def _v_rule(self, center, order: int):
        """Per axis the v-nodes at Im c, (q,) or (m, q), and their nu_alpha-weighted weights: ``_nu_rule`` where
        Im c = 0, as the moment tables are centred, and the Gauss-Hermite rule recentred at Im c, nu_alpha sampled,
        elsewhere.  Where alpha = 0 the two are the same rule."""
        rule, vaxes, weights = gauss_hermite(order), [], []
        for j, y in enumerate(center.imag.T):
            y, fitted = np.asarray(y)[..., None], _nu_rule(order, self.alpha_doubled[j])
            vaxes.append(np.where(y == 0, fitted.nodes, y + rule.nodes))
            weights.append(np.where(y == 0, fitted.weights, rule.weights * self._nu(j, y + rule.nodes)))
        return vaxes, weights

    def pairing(self, centers, order: int):
        # the kernel factorizes: rho's pairing at Re c times one nu_alpha integral per axis
        rho_part = real_sums(self.rho, centers.real, lambda j, c, t: np.ones_like(t), order)
        return rho_part * math.prod(w.sum(axis=1) for w in self._v_rule(centers, order)[1])

    def moments(self, maxdeg: int, order: int):
        """Real per-axis tables ``_axis_kernel`` on the distinct t-values of each axis, contracted against rho's
        weight grid: the cached ``_rule_kernel`` on an axis of the rule's own nodes over a node scale (a scalar
        from ``axis_grid``: 1 for Lebesgue and every sampled density, sqrt(1 + 1/sigma^2) for a Gaussian), a
        per-call build on an atoms axis."""
        axes, grid = self.rho.axis_grid(order)
        return contract_axes([_axis_kernel(t, maxdeg, order, a) if np.ndim(t) else _rule_kernel(order, maxdeg, a, t)
                              for t, a in zip(axes, self.alpha_doubled)], grid, maxdeg)

    def nodes(self, center, order: int):
        tpts, twts = real_nodes(self.rho, center.real, order)
        vpts, vwts = tensor_grid(*self._v_rule(center, order))
        check_nodes(tpts.shape[0] * vpts.shape[0])
        pts = (tpts[:, None, :] + 1j * vpts[None, :, :]).reshape(-1, self.n)
        return pts, (twts[:, None] * vwts[None, :]).ravel()

    def ball_mass(self, centers, r):
        """rho integrated over the box |t_j - x_j| < r_j against the product of the per-axis
        nu_alpha masses of the chords |v_j - y_j| < sqrt(r_j^2 - u_j^2), u_j = t_j - x_j: rho's
        box integral hands the chords the offsets u, the same r_j sin(phi) under every row for a
        grid rho (one chord table per distinct Im c_j) and p_j - x_j for atoms (one per distinct
        c_j), in ``quadrature.row_blocks`` of chord nodes, gathered back to the rows."""
        s, sw = _chord_rule()

        def chord(j, u):
            key = centers[:, j].imag if u.shape[0] == 1 else centers[:, j]
            u = np.broadcast_to(u, (centers.shape[0], u.shape[1]))

            def table(f):
                c = np.sqrt(np.maximum(r[j] ** 2 - u[f] ** 2, 0.0))[:, :, None]
                return (c * self._nu(j, centers[f, j].imag[:, None, None] + c * s) * sw).sum(axis=2)

            return distinct(key, lambda first: row_blocks(first, u.shape[1] * s.size, table))

        return self.rho.box_integral(centers.real, r, chord)


Horizontal = AlphaHorizontal  # rho (x) Lebesgue on the imaginary directions is the alpha = 0 case


@dataclass(frozen=True, eq=False)
class Pushforward(MeasureSpec):
    """mu_X(E) = mu(X E) for a unitary X; integrates g via g(X* w)."""

    base: MeasureSpec
    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", np.asarray(self.matrix, dtype=complex))

    @property
    def n(self) -> int:
        return self.base.n

    def variation(self):
        return Pushforward(variation(self.base), self.matrix)

    def weighted(self, p: HalfIndex):
        return Weighted(self, p)

    def pushed(self, x):
        combined = self.matrix @ x
        if np.max(np.abs(combined - np.eye(self.n))) < _UNITARY_TOL:
            return self.base
        return pushforward(self.base, combined)

    def nodes(self, center, order: int):
        pts, wts = gaussian_nodes(self.base, self.matrix @ center, order)
        return pts @ np.conj(self.matrix), wts

    def pairing(self, centers, order: int):
        # |w - c| = |X* w' - c| = |w' - X c|, so the kernel moves to the base
        return gaussian_pairings(self.base, centers @ self.matrix.T, order)

    def moments(self, maxdeg: int, order: int):
        """T_{mu_X} = V_X* T_mu V_X: the base's table m becomes C^T m conj(C), C = V_X, in place, the rows
        of each (contiguous, graded-lex) degree d by C_d^T and its columns by conj(C_d), each product
        written into one buffer of the top degree's N x |d| entries."""
        keys = graded_lex_keys(self.n, maxdeg)[0]
        vx = substitution_blocks(np.conj(self.matrix).T, self.n, maxdeg)
        table = moment_table(self.base, keys, order)  # fresh from every moment route
        size = len(keys)
        buffer = np.empty(size * len(vx[-1][1]), dtype=complex)
        for s, c in vx:  # rows and columns commute: C_e^T (m[e, d] conj(C_d)) = (C_e^T m[e, d]) conj(C_d)
            table[s] = np.matmul(c.T, table[s], out=buffer[:len(c) * size].reshape(len(c), size))
            table[:, s] = np.matmul(table[:, s], np.conj(c), out=buffer[:size * len(c)].reshape(size, len(c)))
        return keys, table

    def ball_mass(self, centers, r):
        raise TypeError(_ROTATED_POLYDISK)

    def times(self, g):
        # only a weighted polydisk mass asks a pushforward for a density product
        raise TypeError(_ROTATED_POLYDISK)


@dataclass(frozen=True, eq=False)
class Weighted(MeasureSpec):
    """mu_p with density prod_j (1+x_j^2)^{p_j} (1+y_j^2)^{p_j} against the base;
    ``weight()`` builds it only over a pushforward, every other type folds the weight in."""

    base: MeasureSpec
    p: HalfIndex

    @property
    def n(self) -> int:
        return self.base.n

    def variation(self):
        return Weighted(variation(self.base), self.p)

    def weighted(self, p: HalfIndex):
        q = self.p + p
        return self.base if q.is_zero else weight(self.base, q)

    def nodes(self, center, order: int):
        pts, wts = gaussian_nodes(self.base, center, order)
        return pts, wts * _weight_values(self.p.doubled, pts)

    def ball_mass(self, centers, r):
        return ball_mass(self.base.times(lambda pts: _weight_values(self.p.doubled, pts)), centers, r)


@dataclass(frozen=True, eq=False)
class _ProductSet(_Measure):
    """mu_1 (x) .. (x) mu_n of one-axis measures, pure data: kernel, weight, monomials and polydisk
    factor over the axes, so the entry points integrate it factor by factor."""

    factors: tuple

    @property
    def n(self) -> int:
        return len(self.factors)

    def _each(self, fn):
        return type(self)(tuple(fn(j, f) for j, f in enumerate(self.factors)))

    def variation(self):
        return self._each(lambda j, f: variation(f))

    def weighted(self, p: HalfIndex):
        return self._each(lambda j, f: weight(f, HalfIndex(p.doubled[j:j + 1])))

    def pushed(self, x):
        if np.max(np.abs(x - np.diag(np.diagonal(x)))) < _UNITARY_TOL:
            return self._each(lambda j, f: f.pushed(x[j:j + 1, j:j + 1]))
        # a mixing unitary or rotation couples the axes: the n-dimensional density integrates it
        return self._flat(self.density, self.n).pushed(x)

    def density(self, pts):
        return math.prod(f.density(pts[:, j:j + 1]) for j, f in enumerate(self.factors))

    def times(self, g):
        return self._flat(lambda pts: self.density(pts) * g(pts), self.n)

    def axis_factors(self):
        return self.factors


class RealProduct(_ProductSet):
    """Tensor product of one-axis real measures on R^n."""

    _flat = RealDensity


class Product(_ProductSet, MeasureSpec):
    """Tensor product of one-axis measures on C^n."""

    _flat = Density


RealMeasure = RealAtoms | RealDensity | RealGaussian | Lebesgue | RealProduct


def dirac(point) -> Atoms:
    pts = np.atleast_2d(np.asarray(point, dtype=complex))
    return Atoms(pts, np.ones(pts.shape[0]))


def lebesgue(n: int) -> AlphaHorizontal:
    """Lebesgue measure nu_{2n} on C^n, kept in product form."""
    return AlphaHorizontal(Lebesgue(n))


def gaussian_density(n: int, sigma: float = 1.0) -> Gaussian | Product:
    """Density exp(-|w|^2 / sigma^2) on C^n; for n >= 2 the product of n one-axis Gaussians."""
    axis = Gaussian(sigma)
    return axis if n == 1 else Product((axis,) * n)


def real_gaussian(n: int, sigma: float = 1.0) -> RealGaussian | RealProduct:
    """Density exp(-|t|^2 / sigma^2) on R^n; for n >= 2 the product of n one-axis Gaussians."""
    axis = RealGaussian(sigma)
    return axis if n == 1 else RealProduct((axis,) * n)


# ---------------------------------------------------------------------------
# the protocol's entry points


def dimension(mu) -> int:
    if not isinstance(mu, _Measure):
        raise TypeError(f"expected a measure, got {type(mu).__name__}")
    return mu.n


def variation(mu):
    """|mu|, formed structurally (moduli of weights, |f| for densities)."""
    return mu.variation()


def _weight_values(doubled, pts: np.ndarray) -> np.ndarray:
    """prod_j (1+x_j^2)^{p_j} (1+y_j^2)^{p_j} at complex or real points (m, n), with 2p = doubled."""
    out = np.ones(pts.shape[0])
    for j, d in enumerate(doubled):
        if d == 0:
            continue
        e = d / 2.0
        out = out * (1.0 + pts[:, j].real ** 2) ** e * (1.0 + pts[:, j].imag ** 2) ** e
    return out


def weight(mu, p: HalfIndex):
    """The measure mu_p; repeated weightings collapse to a single normal form.

    A tuple ``p`` is read in integers (``HalfIndex.from_ints``), and a scalar
    is that integer on every axis.
    """
    p = HalfIndex.of(p, dimension(mu), doubled=False)
    if p.is_zero:
        return mu
    return mu.weighted(p)


def _check_unitary(x: np.ndarray, n: int) -> np.ndarray:
    x = np.asarray(x, dtype=complex)
    if x.shape != (n, n):
        raise ValueError(f"rotation must be {n}x{n}, got shape {x.shape}")
    defect = np.max(np.abs(x.conj().T @ x - np.eye(n)))
    if defect > _UNITARY_TOL:
        raise ValueError(f"matrix is not unitary: max |X*X - I| = {defect:.2e}")
    return x


def pushforward(mu, x):
    """mu_X(E) = mu(X E); atoms move by X*, densities compose with X.

    Compositions multiply out, and a horizontal base survives any real
    orthogonal total rotation (the Lebesgue factor is rotation invariant),
    so the residual gauge between equivalent vertical rotations collapses.
    """
    n = dimension(mu)
    x = _check_unitary(x, n)
    if np.max(np.abs(x - np.eye(n))) < _UNITARY_TOL:
        return mu
    return mu.pushed(x)


# ---------------------------------------------------------------------------
# node/weight discretizations for Gaussian pairings


def _tensor(sets):
    """The tensor product of one-axis node sets, (nodes (q_j, 1), weights (q_j,)) per axis."""
    return tensor_grid([p[:, 0] for p, _ in sets], [w for _, w in sets])


def _per_axis(factors, centers, fn):
    """prod_j fn(j, factors[j], c_j) for a value whose axis-j factor depends on a row of ``centers``
    only through c_j: ``fn`` gets each distinct c_j once, as a column, and is gathered back."""
    return math.prod(distinct(centers[:, j], lambda first: fn(j, f, centers[first, j:j + 1]))
                     for j, f in enumerate(factors))


def real_nodes(rho, center, order: int = DEFAULT_ORDER, scale: float = 1.0):
    """Nodes/weights with int g(t) e^{-|sqrt(scale) t - c|^2} drho(t) ~ sum w_i g(t_i).

    The Gaussian kernel is folded into the weights; Lebesgue and density
    factors are discretized by Gauss-Hermite recentered at c / sqrt(scale).
    Berezin transforms use scale 1, the spectral functions gamma scale 2.
    """
    center = np.broadcast_to(np.asarray(center, dtype=float), (dimension(rho),))
    factors = rho.axis_factors()
    if factors is not None:
        return _tensor([real_nodes(f, center[j:j + 1], order, scale) for j, f in enumerate(factors)])
    return rho.real_nodes(center, order, scale)


def real_sums(rho, centers, factor, order: int = DEFAULT_ORDER, scale: float = 1.0) -> np.ndarray:
    """sum_i w_i(c) prod_j factor(j, c_j, t_ij) over ``real_nodes(rho, c, order, scale)`` for every
    row c of ``centers`` in one batch; ``factor`` gets the centres' j-th coordinates as a column
    (m, 1) and axis j's nodes t, (m, q) on a grid or (1, atoms) for atoms."""
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    centers = np.broadcast_to(centers, (centers.shape[0], dimension(rho)))
    factors = rho.axis_factors()
    if factors is not None:
        return _per_axis(factors, centers, lambda j, f, c: real_sums(
            f, c, lambda _, x, t: factor(j, x, t), order, scale))
    return rho.real_sums(centers, order, scale, factor)


def gaussian_nodes(mu, center, order: int = DEFAULT_ORDER):
    """Nodes/weights with int F(w) e^{-|w-c|^2} dmu(w) ~ sum w_i F(w_i).

    This single contract drives the per-node moments and every pairing a
    type does not factorize: the Gaussian and all structural densities are
    in the weights, F alone stays with the caller.
    """
    center = np.broadcast_to(np.asarray(center, dtype=complex), (dimension(mu),))
    factors = mu.axis_factors()
    if factors is not None:
        return _tensor([gaussian_nodes(f, center[j:j + 1], order) for j, f in enumerate(factors)])
    return mu.nodes(center, order)


def gaussian_pairing(mu, center, order: int = DEFAULT_ORDER) -> complex:
    """int e^{-|w-c|^2} dmu(w): ``gaussian_pairings`` at one centre."""
    center = np.broadcast_to(np.asarray(center, dtype=complex), (dimension(mu),))
    return complex(gaussian_pairings(mu, center, order)[0])


def gaussian_pairings(mu, centers, order: int = DEFAULT_ORDER) -> np.ndarray:
    """int e^{-|w-c|^2} dmu(w) for every row c of ``centers``: products multiply one-axis
    pairings, rho (x) nu_alpha splits into rho's pairing and y-integrals, densities stream
    their grids in blocks, a pushforward moves the centres, the rest sum nodes."""
    centers = np.atleast_2d(np.asarray(centers, dtype=complex))
    centers = np.broadcast_to(centers, (centers.shape[0], dimension(mu)))
    factors = mu.axis_factors()
    if factors is not None:
        return _per_axis(factors, centers, lambda j, f, c: gaussian_pairings(f, c, order))
    return mu.pairing(centers, order)


# ---------------------------------------------------------------------------
# moments m_{alpha,beta}(mu) = int w^alpha conj(w)^beta e^{-|w|^2} dmu(w)


def _lowered(table: np.ndarray, keys, steps) -> np.ndarray:
    """``table`` over the downward-closed ``keys`` after each step (j, axes), a new array per step:
    the sum over the table axes in ``axes`` of its lowering on axis j, on the rows
    m'[alpha, beta] = sqrt(alpha_j) m[alpha - e_j, beta], 0 where alpha_j = 0."""
    for j, axes in steps:
        src, factor = lowering(keys, j)
        lowered = np.zeros_like(table)
        for axis in axes:
            term = np.take(table, src, axis=axis)
            term *= np.expand_dims(factor, 1 - axis)
            lowered += term
        table = lowered
    return table


def moment_table(mu, indices, order: int = DEFAULT_ORDER, steps=()) -> np.ndarray:
    """All moments for alpha, beta in ``indices`` as one pass, in the orthonormal basis:
    entry m_{alpha,beta} / sqrt(alpha! beta!) = int e_alpha conj(e_beta) e^{-|w|^2} dmu,
    after each lowering step (j, axes) in ``steps``.

    ``indices`` may be any set of multi-indices, in any order.  The table is
    the shared input for every operator assembly, pi^n times its transpose
    for the Toeplitz matrix; entry growth or a violated decay contract
    surfaces as a non-finite value located by the caller.  A derivative d/dw_j
    of f lowers the table's rows, one of g its columns, and a step (j, axes)
    adds up the lowerings of the table axes in ``axes``: (j, (0, 1)) is d/dx_j
    of f conj(g).

    ``order`` is a floor: the rule has max(order, D + 1) nodes per axis, the
    fewest exact for the polynomial part of every entry; past order 200 or
    the node cap the request is refused.

    A measure that answers ``axis_factors()`` gets the gather prod_j m_j[alpha_j, beta_j]
    of its factors' one-axis (D+1)^2 tables: each distinct factor (equal by value) is
    built once, and axis j's steps lower a new copy of factor j's table before the
    gather, since d/dx_j acts on that factor alone.  Any other measure's ``moments``
    gives the table over all degrees <= D, which is lowered and then gathered into the
    caller's order (no copy when that is the keys' order).
    ``AlphaHorizontal`` and an n >= 2 ``Density`` contract per-axis tables on the
    distinct node values one axis at a time (``quadrature.contract_axes``), about
    (D+1)^2 operations per grid point instead of N^2 per node, and so does ``spectral``'s
    Hermite-side symbol, which answers only ``axis_factors()`` and ``moments``.  ``AlphaHorizontal``'s
    tables are real (exactly, over a real-weighted rho), and on the rule's own nodes over a
    node scale (1, or a Gaussian's k) they contract one nu_alpha kernel per (order, D,
    alpha_j, scale), kept under 16 MiB: a repeated
    size pays only the contraction, a first one also the build.  Requests whose gather
    or contraction would hold more than ``quadrature.MAX_BYTES`` are refused.  A pushforward
    mu_X conjugates its base's table in place by the degree blocks of V_X
    (``indices.substitution_blocks``), never by an N x N matrix.
    Complex atoms, one-axis densities and Gaussians and weighted pushforwards, whose
    weight is not rotation invariant, pay a Gram product over their nodes.
    """
    indices = [tuple(a) for a in indices]
    maxdeg = max(sum(a) for a in indices)
    factors = mu.axis_factors()
    if factors is not None:
        axis = [(d,) for d in range(maxdeg + 1)]
        shared = {f: moment_table(f, axis, order) for f in dict.fromkeys(factors)}
        keys, table = gather_axes([_lowered(shared[f], axis, [(0, axes) for i, axes in steps if i == j])
                                   for j, f in enumerate(factors)], maxdeg)
    else:
        keys, table = mu.moments(maxdeg, max(order, maxdeg + 1))
        table = _lowered(table, keys, steps)
    return select_table(keys, table, indices)


def moment(mu, alpha, beta, order: int = DEFAULT_ORDER) -> complex:
    """The raw moment m_{alpha,beta}(mu) = int w^alpha conj(w)^beta e^{-|w|^2} dmu(w), node by node
    at the order floor max(order, |alpha| + 1, |beta| + 1): the per-node reference."""
    n = dimension(mu)
    alpha = as_multi_index(alpha, n)
    beta = as_multi_index(beta, n)
    order = max(order, sum(alpha) + 1, sum(beta) + 1)
    pts, wts = gaussian_nodes(mu, np.zeros(n), order)
    vals = np.ones(pts.shape[0], dtype=complex)
    # past the float range the powers overflow; the refusal below locates it
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(n):
            if alpha[j]:
                vals = vals * pts[:, j] ** alpha[j]
            if beta[j]:
                vals = vals * np.conj(pts[:, j]) ** beta[j]
        out = complex(np.sum(wts * vals))
    if not np.isfinite(out):
        raise ValueError(f"moment ({alpha}, {beta}) is not finite: past the float range, or growth contract violated")
    return out


# ---------------------------------------------------------------------------
# polydisk masses


def _chord_rule():
    # theta-substitution v = y + c sin(theta) removes the sqrt endpoint
    gl_nodes, gl_weights = gauss_legendre(48)
    theta = 0.5 * math.pi * gl_nodes
    return np.sin(theta), np.cos(theta) * 0.5 * math.pi * gl_weights


def ball_mass(mu, center, r):
    """Mass of the polydisk prod_j {|w_j - z_j| < r_j} under mu at a point z, or one mass
    per row of z (m, n), all rows in one call.

    A measure that answers ``axis_factors()`` (every Gaussian built-in from n = 2 on)
    multiplies one-axis masses, at any n.  Atoms are exact; densities use a fixed
    polar rule per axis (40 Gauss-Legendre radii by 80 equispaced angles), streamed in
    ``quadrature.blocks``, so (40 * 80)^n points per centre are evaluated but never held;
    a batch over ``quadrature.MAX_EVALS`` evaluations is refused (a single n = 3 centre
    exceeds it); rho (x) nu_alpha hands rho one nu_alpha chord mass per axis as a factor
    of its box integral, built once per distinct centre coordinate on that axis.
    The radius is a tuple, one entry per axis (its Euclidean norm plays no
    role).
    """
    n = dimension(mu)
    rows = np.asarray(center, dtype=complex)
    r = np.broadcast_to(np.asarray(r, dtype=float), (n,))
    if np.any(r <= 0):
        raise ValueError(f"polydisk radii must be positive, got {r}")
    centers = np.broadcast_to(rows, (rows.shape[0] if rows.ndim == 2 else 1, n))
    factors = mu.axis_factors()
    if factors is not None:
        masses = _per_axis(factors, centers, lambda j, f, c: ball_mass(f, c, r[j:j + 1]))
    else:
        masses = mu.ball_mass(centers, r)
    return complex(masses[0]) if rows.ndim < 2 else masses


# ---------------------------------------------------------------------------
# measure expression grammar (CLI configs)

_ALLOWED_CALLS = {"exp": np.exp, "sqrt": np.sqrt, "cos": np.cos, "sin": np.sin, "abs": np.abs}
_ALLOWED_NAMES = {"pi": math.pi, "e": math.e}
_ALLOWED_NODES = (
    ast.Expression, ast.BinOp, ast.UnaryOp, ast.Call, ast.Name, ast.Constant, ast.Load,
    ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow, ast.USub, ast.UAdd,
)


def compile_density_expression(expr: str, n: int, real: bool = False):
    """Compile a polynomial-times-Gaussian style expression to a vectorized density.

    Variables: x1..xn (and y1..yn on C^n), r2 = |w|^2; functions exp, sqrt,
    cos, sin, abs; constants pi, e.  Anything else is rejected.
    """
    try:
        tree = ast.parse(expr, mode="eval")
    except SyntaxError as exc:
        raise ValueError(f"cannot parse density expression {expr!r}: {exc}") from None
    names = {f"x{j + 1}" for j in range(n)}
    if not real:
        names |= {f"y{j + 1}" for j in range(n)}
    names.add("r2")
    for node in ast.walk(tree):
        if not isinstance(node, _ALLOWED_NODES):
            raise ValueError(f"forbidden syntax {type(node).__name__!r} in density expression {expr!r}")
        if isinstance(node, ast.Call):
            if not (isinstance(node.func, ast.Name) and node.func.id in _ALLOWED_CALLS and not node.keywords):
                raise ValueError(f"only {sorted(_ALLOWED_CALLS)} calls are allowed in density expressions")
        if isinstance(node, ast.Name) and node.id not in names | set(_ALLOWED_NAMES) | set(_ALLOWED_CALLS):
            raise ValueError(f"unknown name {node.id!r} in density expression {expr!r}")
        if isinstance(node, ast.Constant) and not isinstance(node.value, (int, float)):
            raise ValueError(f"only numeric constants are allowed, got {node.value!r}")
    code = compile(tree, "<density>", "eval")

    def f(pts):
        pts = np.asarray(pts)
        env = dict(_ALLOWED_NAMES)
        env.update(_ALLOWED_CALLS)
        if real:
            for j in range(n):
                env[f"x{j + 1}"] = pts[:, j]
            env["r2"] = np.sum(pts**2, axis=1)
        else:
            for j in range(n):
                env[f"x{j + 1}"] = pts[:, j].real
                env[f"y{j + 1}"] = pts[:, j].imag
            env["r2"] = np.sum(np.abs(pts) ** 2, axis=1)
        return np.broadcast_to(eval(code, {"__builtins__": {}}, env), (pts.shape[0],))

    return f


def _split_top(text: str, sep: str) -> list[str]:
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        if ch == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return [p.strip() for p in parts if p.strip()]


def _head_body(text: str):
    text = text.strip()
    if "(" not in text:
        return text.lower(), None
    head, rest = text.split("(", 1)
    if not rest.endswith(")"):
        raise ValueError(f"unbalanced parentheses in measure spec {text!r}")
    return head.strip().lower(), rest[:-1]


def _literal(text: str, spec: str):
    try:
        return ast.literal_eval(text.strip())
    except (SyntaxError, ValueError):
        raise ValueError(f"malformed literal {text.strip()!r} in measure spec {spec!r}") from None


def _parse_point(text: str, n: int, real: bool, spec: str):
    # a point is one number, or a bracketed or comma-separated list of them
    values = _literal(text, spec)
    conv = float if real else complex
    pt = [conv(v) for v in (values if isinstance(values, (list, tuple)) else [values])]
    if len(pt) != n:
        raise ValueError(f"point {text!r} has {len(pt)} components, expected {n}")
    return pt


def _parse(text: str, n: int, real: bool):
    head, body = _head_body(text)
    if head == "lebesgue" and body is None:
        return Lebesgue(n) if real else lebesgue(n)
    if body is None:
        raise ValueError(f"cannot parse measure spec {text!r}: only lebesgue is written without an argument list")
    if head == "dirac":
        return (real_dirac if real else dirac)(_parse_point(body, n, real, text))
    if head == "gaussian":
        return (real_gaussian if real else gaussian_density)(n, float(body))
    if head == "atoms":
        points, weights = [], []
        for item in _split_top(body, ","):
            loc, _, wt = item.rpartition(":")
            points.append(_parse_point(loc, n, real, text))
            weights.append(complex(_literal(wt, text)))
        return (RealAtoms if real else Atoms)(np.array(points), np.array(weights))
    if head == "density":
        expr, *options = _split_top(body, ";")
        if options:
            raise ValueError(f"density spec {text!r}: density takes no options")
        return (RealDensity if real else Density)(compile_density_expression(expr, n, real), n)
    if not real and head == "horizontal":
        return AlphaHorizontal(_parse(body, n, True))
    if not real and head == "alpha_horizontal":
        rho_text, alpha_text = _split_top(body, ";")
        alpha = [float(a) for a in _split_top(alpha_text, ",")]
        return AlphaHorizontal(_parse(rho_text, n, True), HalfIndex.from_halves(alpha).doubled)
    if not real and head == "weighted":
        mu_text, p_text = _split_top(body, ";")
        p = HalfIndex.from_halves([float(a) for a in _split_top(p_text, ",")])
        return weight(_parse(mu_text, n, False), p)
    if not real and head == "pushforward":
        mu_text, x_text = _split_top(body, ";")
        x = np.atleast_2d(np.asarray(_literal(x_text, text), dtype=complex))
        return pushforward(_parse(mu_text, n, False), x)
    raise ValueError(f"cannot parse {'real ' if real else ''}measure spec {text!r}")


def parse_real_measure(text: str, n: int):
    """Parse the real-measure grammar: lebesgue | dirac(..) | gaussian(s) | atoms(..) | density(..)."""
    return _parse(text, n, real=True)


def parse_measure(text: str, n: int):
    """Parse the measure grammar used by experiment configs.

    Built-ins: ``lebesgue``, ``dirac(point)``, ``gaussian(sigma)``.  Composites:
    ``atoms(p: w, ...)``, ``density(expr)``, ``horizontal(rho)``,
    ``alpha_horizontal(rho; a1,..,an)``, ``weighted(mu; p1,..,pn)``,
    ``pushforward(mu; X)``.  Complex literals use Python syntax (1+2j).
    """
    return _parse(text, n, real=False)
