"""Measure symbols on C^n and the integration primitives behind every formula.

A measure is described structurally: finite atom sets, densities with a
declared Gaussian-dominated growth region, horizontal products rho (x)
Lebesgue_y, alpha-weighted horizontal products, unitary pushforwards, and
the (1+x^2)^p (1+y^2)^p weighting calculus.  All pairings against Gaussian
kernels reduce to node/weight sets: atoms contribute exactly, everything
else goes through recentered Gauss-Hermite rules.

Every measure type implements one protocol, and the module functions
(``dimension``, ``variation``, ``weight``, ``pushforward``, ``real_nodes``,
``gaussian_nodes``, ``ball_mass``, ``moment_table``) validate their
arguments and dispatch to it:

- all measures: ``n``, ``variation()``, ``times(g)`` (multiply by a density
  g, where the type can hold the product) and ``pushed(x)``;
- real measures on R^n: ``real_nodes(center, order, scale)``; the grid
  types (Lebesgue, densities) share ``weigh(pts, wts)``;
- measures on C^n (``MeasureSpec``): ``weighted(p)``,
  ``nodes(center, order, max_nodes)``, ``product_form()``,
  ``is_density()`` and ``ball_mass(center, r, order)``.

A new measure type is one class.  Methods that recurse into a factor call
the module functions again, so every node set is requested through
``gaussian_nodes`` or ``real_nodes``.
"""

from __future__ import annotations

import ast
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.polynomial import polyvander

from .indices import HalfIndex, as_multi_index, monomial_matrix
from .quadrature import MAX_NODES, gauss_hermite, gauss_legendre, tensor_grid

DEFAULT_ORDER = 40
_CHUNK = 200_000
_UNITARY_TOL = 1e-12


# ---------------------------------------------------------------------------
# shared bases


class _Measure:
    """Root of every measure class; types that cannot hold a product with a density refuse it."""

    def times(self, g):
        raise TypeError(f"{type(self).__name__} cannot be multiplied by a density")


class _RealGrid(_Measure):
    """Real measures discretized on a Gauss-Hermite grid (Lebesgue, densities)."""

    def real_nodes(self, center, order: int, scale: float):
        rule = gauss_hermite(order)
        root = np.sqrt(scale)
        pts, wts = tensor_grid([(c + rule.nodes) / root for c in center], [rule.weights] * self.n)
        return pts, self.weigh(pts, wts * scale ** (-self.n / 2.0))


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


@dataclass(frozen=True, eq=False)
class _DensitySet(_Measure):
    """Density against Lebesgue measure; ``density`` is vectorized over (m, n) arrays.

    ``radius`` declares where the Gaussian-dominated decay of the density
    sets in; quadrature accuracy degrades for mass far outside it.
    """

    density: object
    n: int
    radius: float = 6.0

    def variation(self):
        f = self.density
        return type(self)(lambda pts: np.abs(f(pts)), self.n, self.radius)

    def times(self, g):
        f = self.density
        return type(self)(lambda pts: f(pts) * g(pts), self.n, self.radius)

    def pushed(self, x):
        f = self.density
        return type(self)(lambda pts: f(pts @ x.T), self.n, self.radius)

    def weigh(self, pts, wts):
        return wts * np.asarray(self.density(pts))


class MeasureSpec(_Measure):
    """Base of the measures on C^n; the defaults serve atoms and densities."""

    def weighted(self, p: HalfIndex):
        return self.times(lambda pts: _weight_values(p.doubled, pts))

    def pushed(self, x):
        return Pushforward(self, x)

    def product_form(self):
        """(rho, x_exponents_doubled, y_exponents_doubled) if this is a weighted
        horizontal product, else None.  The y-exponent e means a factor
        (1+v^2)^{e/2} on that imaginary axis."""
        return None

    def is_density(self) -> bool:
        return False


# ---------------------------------------------------------------------------
# real measures on R^n (the rho factor of horizontal products)


class RealAtoms(_AtomSet):
    """Finite atomic measure on R^n: points of shape (m, n), complex weights."""

    def real_nodes(self, center, order: int, scale: float):
        return self.points, self.weights * np.exp(-np.sum((np.sqrt(scale) * self.points - center) ** 2, axis=1))


class RealDensity(_DensitySet, _RealGrid):
    """Density g(t) dt on R^n; g is vectorized over point arrays (m, n)."""


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

    def weigh(self, pts, wts):
        return wts


RealMeasure = RealAtoms | RealDensity | Lebesgue


def real_dirac(point) -> RealAtoms:
    pts = np.atleast_2d(np.asarray(point, dtype=float))
    return RealAtoms(pts, np.ones(pts.shape[0]))


# ---------------------------------------------------------------------------
# measures on C^n


class Atoms(_AtomSet, MeasureSpec):
    """Finite atomic measure on C^n with complex weights."""

    _dtype = complex

    def nodes(self, center, order: int, max_nodes: int):
        return self.points, self.weights * np.exp(-np.sum(np.abs(self.points - center) ** 2, axis=1))

    def ball_mass(self, center, r, order: int) -> complex:
        inside = np.all(np.abs(self.points - center[None, :]) < r[None, :], axis=1)
        return complex(np.sum(self.weights[inside]))


class Density(_DensitySet, MeasureSpec):
    """Complex density f(w) dnu_{2n}(w); f is vectorized over (m, n) complex arrays."""

    def is_density(self) -> bool:
        return True

    def nodes(self, center, order: int, max_nodes: int):
        rule = gauss_hermite(order)
        n = self.n
        if rule.order ** (2 * n) > max_nodes:
            raise ValueError(f"density discretization needs {rule.order ** (2 * n)} nodes (cap {max_nodes})")
        axes = [c.real + rule.nodes for c in center] + [c.imag + rule.nodes for c in center]
        pts2, wts = tensor_grid(axes, [rule.weights] * (2 * n))
        pts = pts2[:, :n] + 1j * pts2[:, n:]
        return pts, self.weigh(pts, wts)

    def ball_mass(self, center, r, order: int) -> complex:
        """Per-axis polar rules: Gauss-Legendre in the radius, equispaced angles."""
        qr = min(order, 48)
        gl_nodes, gl_weights = gauss_legendre(qr)
        qth = max(16, 2 * qr)
        theta = 2.0 * math.pi * np.arange(qth) / qth
        wth = np.full(qth, 2.0 * math.pi / qth)
        axes, weights = [], []
        for j in range(self.n):
            rr = 0.5 * r[j] * (gl_nodes + 1.0)
            wr = 0.5 * r[j] * gl_weights * rr  # polar Jacobian
            axes.append((center[j] + rr[:, None] * np.exp(1j * theta[None, :])).ravel())
            weights.append((wr[:, None] * wth[None, :]).ravel())
        pts, wts = tensor_grid(axes, weights)
        return complex(np.sum(self.weigh(pts, wts)))


@dataclass(frozen=True, eq=False)
class AlphaHorizontal(MeasureSpec):
    """mu = rho (x) nu_{n,alpha} with d nu_{n,alpha} = prod (1+y_j^2)^{-alpha_j} dy_j.

    ``alpha_doubled`` stores 2*alpha so half-integer exponents arising from
    the weighting calculus stay exact; it defaults to alpha = 0.
    """

    rho: RealMeasure
    alpha_doubled: tuple[int, ...] = ()

    def __post_init__(self):
        alpha = tuple(int(a) for a in self.alpha_doubled) or (0,) * self.rho.n
        object.__setattr__(self, "alpha_doubled", alpha)

    @property
    def n(self) -> int:
        return self.rho.n

    def variation(self):
        return type(self)(variation(self.rho), self.alpha_doubled)

    def weighted(self, p: HalfIndex):
        alpha = tuple(a - d for a, d in zip(self.alpha_doubled, p.doubled))
        rho = weight_real(self.rho, p)
        if all(a == 0 for a in alpha):
            return Horizontal(rho)
        return AlphaHorizontal(rho, alpha)

    def product_form(self):
        return self.rho, (0,) * self.n, tuple(-a for a in self.alpha_doubled)

    def nodes(self, center, order: int, max_nodes: int):
        tpts, twts = real_nodes(self.rho, center.real, order)
        rule = gauss_hermite(order)
        vaxes = [c.imag + rule.nodes for c in center]
        vweights = [rule.weights if a == 0 else rule.weights * (1.0 + v**2) ** (-a / 2.0)
                    for v, a in zip(vaxes, self.alpha_doubled)]
        vpts, vwts = tensor_grid(vaxes, vweights)
        if tpts.shape[0] * vpts.shape[0] > max_nodes:
            raise ValueError(f"horizontal discretization needs {tpts.shape[0] * vpts.shape[0]} nodes (cap {max_nodes})")
        pts = (tpts[:, None, :] + 1j * vpts[None, :, :]).reshape(-1, self.n)
        return pts, (twts[:, None] * vwts[None, :]).ravel()

    def ball_mass(self, center, r, order: int) -> complex:
        return _ball_mass_product(*self.product_form(), center, r)


class Horizontal(AlphaHorizontal):
    """mu = rho (x) Lebesgue on the imaginary directions (alpha = 0)."""

    def pushed(self, x):
        # the Lebesgue factor is invariant under any real orthogonal rotation
        if np.max(np.abs(x.imag)) < _UNITARY_TOL:
            return Horizontal(self.rho.pushed(x.real))
        return Pushforward(self, x)


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

    def nodes(self, center, order: int, max_nodes: int):
        pts, wts = gaussian_nodes(self.base, self.matrix @ center, order, max_nodes)
        return pts @ np.conj(self.matrix), wts

    def ball_mass(self, center, r, order: int) -> complex:
        raise TypeError("polydisk mass for a rotated measure is not supported; rotate the polydisk instead")


@dataclass(frozen=True, eq=False)
class Weighted(MeasureSpec):
    """mu_p with density prod_j (1+x_j^2)^{p_j} (1+y_j^2)^{p_j} against the base."""

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

    def product_form(self):
        form = self.base.product_form()
        if form is None:
            return None
        rho, xe, ye = form
        d = self.p.doubled
        return rho, tuple(a + b for a, b in zip(xe, d)), tuple(a + b for a, b in zip(ye, d))

    def is_density(self) -> bool:
        return self.base.is_density()

    def nodes(self, center, order: int, max_nodes: int):
        pts, wts = gaussian_nodes(self.base, center, order, max_nodes)
        return pts, wts * _weight_values(self.p.doubled, pts)

    def ball_mass(self, center, r, order: int) -> complex:
        form = self.product_form()
        if form is not None:
            return _ball_mass_product(*form, center, r)
        return ball_mass(self.base.times(lambda pts: _weight_values(self.p.doubled, pts)), center, r, order)


def dirac(point) -> Atoms:
    pts = np.atleast_2d(np.asarray(point, dtype=complex))
    return Atoms(pts, np.ones(pts.shape[0]))


def lebesgue(n: int) -> Horizontal:
    """Lebesgue measure nu_{2n} on C^n, kept in product form."""
    return Horizontal(Lebesgue(n))


def gaussian_density(n: int, sigma: float = 1.0) -> Density:
    """Density exp(-|w|^2 / sigma^2) on C^n."""
    s2 = float(sigma) ** 2
    return Density(lambda pts: np.exp(-np.sum(np.abs(pts) ** 2, axis=1) / s2), n, radius=4.0 * sigma)


def real_gaussian(n: int, sigma: float = 1.0) -> RealDensity:
    """Density exp(-|t|^2 / sigma^2) on R^n."""
    s2 = float(sigma) ** 2
    return RealDensity(lambda pts: np.exp(-np.sum(pts**2, axis=1) / s2), n, radius=4.0 * sigma)


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
    """prod_j (1+x_j^2)^{p_j} (1+y_j^2)^{p_j} at complex points (m, n), with 2p = doubled."""
    out = np.ones(pts.shape[0])
    for j, d in enumerate(doubled):
        if d == 0:
            continue
        e = d / 2.0
        out = out * (1.0 + pts[:, j].real ** 2) ** e * (1.0 + pts[:, j].imag ** 2) ** e
    return out


def _real_weight_values(doubled, pts: np.ndarray) -> np.ndarray:
    out = np.ones(pts.shape[0])
    for j, d in enumerate(doubled):
        if d != 0:
            out = out * (1.0 + pts[:, j] ** 2) ** (d / 2.0)
    return out


def weight_real(rho, p: HalfIndex):
    """Fold the x-part weight prod (1+t_j^2)^{p_j} into a real measure."""
    if p.is_zero:
        return rho
    return rho.times(lambda pts: _real_weight_values(p.doubled, pts))


def weight(mu, p: HalfIndex):
    """The measure mu_p; repeated weightings collapse to a single normal form.

    A tuple ``p`` is read in integers (``HalfIndex.from_ints``).
    """
    if isinstance(p, (tuple, list)):
        p = HalfIndex.from_ints(p)
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


def real_nodes(rho, center, order: int = DEFAULT_ORDER, scale: float = 1.0):
    """Nodes/weights with int g(t) e^{-|sqrt(scale) t - c|^2} drho(t) ~ sum w_i g(t_i).

    The Gaussian kernel is folded into the weights; Lebesgue and density
    factors are discretized by Gauss-Hermite recentered at c / sqrt(scale).
    Berezin transforms use scale 1, the spectral functions gamma scale 2.
    """
    n = dimension(rho)
    center = np.broadcast_to(np.asarray(center, dtype=float), (n,))
    return rho.real_nodes(center, order, scale)


def gaussian_nodes(mu, center, order: int = DEFAULT_ORDER, max_nodes: int = MAX_NODES):
    """Nodes/weights with int F(w) e^{-|w-c|^2} dmu(w) ~ sum w_i F(w_i).

    This single contract drives moments, Berezin transforms, and the
    sesquilinear pairings: the Gaussian and all structural densities are in
    the weights, F alone stays with the caller.
    """
    center = np.broadcast_to(np.asarray(center, dtype=complex), (dimension(mu),))
    return mu.nodes(center, order, max_nodes)


def gaussian_pairing(mu, center, f=None, order: int = DEFAULT_ORDER) -> complex:
    """int F(w) e^{-|w-c|^2} dmu(w), with F = 1 when ``f`` is None."""
    pts, wts = gaussian_nodes(mu, center, order)
    if f is None:
        return complex(np.sum(wts))
    vals = np.asarray(f(pts))
    bad = ~np.isfinite(vals)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise ValueError(f"integrand is not finite at node {i}, w = {pts[i]} (growth contract violated?)")
    return complex(np.sum(wts * vals))


# ---------------------------------------------------------------------------
# moments m_{alpha,beta}(mu) = int w^alpha conj(w)^beta e^{-|w|^2} dmu(w)


def moment_table(mu, indices, order: int = DEFAULT_ORDER) -> np.ndarray:
    """All moments m_{alpha,beta} for alpha, beta in ``indices`` as one pass.

    ``indices`` must be downward closed (graded-lex enumerations are).  The
    table is the shared input for every operator assembly; entry growth or a
    violated decay contract surfaces as a non-finite value located by the
    caller.

    ``order`` is a floor: the rule has max(order, D + 1) nodes per axis, the
    fewest exact for the polynomial part of every entry; past order 200 or
    the node cap the request is refused.

    Weighted horizontal products and densities on a Gauss-Hermite grid
    factor per axis: their moments come from per-axis tables on the distinct
    node values, contracted against the weight grid one axis at a time
    (sum factorization), for about (D+1)^2 operations per grid point instead
    of N^2 per node.  Complex atoms and pushforwards have no grid and go
    through the per-node Gram product over their node set.
    """
    indices = [tuple(a) for a in indices]
    maxdeg = max(sum(a) for a in indices)
    order = max(order, maxdeg + 1)
    form = mu.product_form()
    if form is not None:
        tables, grid = _product_grid(*form, maxdeg, order)
    elif mu.is_density():
        tables, grid = _density_grid(mu, maxdeg, order)
    else:
        return _moment_table_nodes(mu, indices, order)
    keys, table = _contract_axes(tables, grid, maxdeg)
    position = {a: i for i, a in enumerate(keys)}
    sel = [position[a] for a in indices]
    return table[np.ix_(sel, sel)]


def _moment_table_nodes(mu, indices, order: int) -> np.ndarray:
    pts, wts = gaussian_nodes(mu, np.zeros(dimension(mu)), order)
    table = np.zeros((len(indices), len(indices)), dtype=complex)
    for start in range(0, pts.shape[0], _CHUNK):
        sl = slice(start, start + _CHUNK)
        pows = monomial_matrix(pts[sl], indices)
        table += (pows * wts[sl, None]).T @ np.conj(pows)
    return table


def _product_grid(rho, x_exp, y_exp, maxdeg: int, order: int):
    """Per-axis tables g_j[i, a, b] = sum_v w(v) (t_i+iv)^a (t_i-iv)^b (1+t_i^2)^{x_j/2}
    on the distinct t-values of each axis, and the t-weights on their grid."""
    n = len(x_exp)
    rule = gauss_hermite(order)
    tpts, twts = real_nodes(rho, np.zeros(n), order)
    if isinstance(rho, RealAtoms):
        axes, where = zip(*(np.unique(tpts[:, j], return_inverse=True) for j in range(n)))
        grid = np.zeros(tuple(len(a) for a in axes), dtype=complex)
        np.add.at(grid, where, twts)
    else:
        # real_nodes lays the Gauss-Hermite tensor grid out in C order
        axes = (rule.nodes,) * n
        grid = twts.reshape((rule.order,) * n)
    v = rule.nodes
    tables = []
    for j in range(n):
        wv = rule.weights
        if y_exp[j] != 0:
            wv = wv * (1.0 + v**2) ** (y_exp[j] / 2.0)
        pows = polyvander(axes[j][:, None] + 1j * v[None, :], maxdeg)
        g = np.swapaxes(pows * wv[None, :, None], 1, 2) @ np.conj(pows)
        if x_exp[j] != 0:
            g = g * ((1.0 + axes[j] ** 2) ** (x_exp[j] / 2.0))[:, None, None]
        tables.append(g)
    return tables, grid


def _density_grid(mu, maxdeg: int, order: int):
    """Per-axis tables g_j[z, a, b] = z^a conj(z)^b on the q^2 complex nodes
    z = x + iy of each axis, and the node weights on their grid."""
    n = dimension(mu)
    _, wts = gaussian_nodes(mu, np.zeros(n), order)
    rule = gauss_hermite(order)
    q = rule.order
    # gaussian_nodes orders the real axes x_1..x_n, y_1..y_n in C order;
    # interleave them so (x_j, y_j) becomes one complex axis of q^2 nodes
    pairing = [a for j in range(n) for a in (j, n + j)]
    grid = wts.reshape((q,) * (2 * n)).transpose(pairing).reshape((q * q,) * n)
    pows = polyvander((rule.nodes[:, None] + 1j * rule.nodes[None, :]).ravel(), maxdeg)
    g = pows[:, :, None] * np.conj(pows)[:, None, :]
    return [g] * n, grid


def _contract_axes(tables, grid, maxdeg: int):
    """Moments from per-axis tables by contracting the weight grid one axis at a time.

    ``grid[i_1, .., i_n]`` weights the i_j-th value of each axis j, and
    ``tables[j][i, a, b]`` is axis j's factor of order (a, b) at its i-th
    value.  The state is a list of pairs of partial multi-indices over the
    axes contracted so far, each holding its sum over those axes; only pairs
    of degree <= maxdeg on both sides are extended, so the dense
    (maxdeg+1)^(2n) tensor is never formed.  Returns the multi-indices of
    degree <= maxdeg (prefix-lex order) and the moment table over them.
    """
    radix = maxdeg + 1
    a_of, b_of = (e.ravel() for e in np.indices((radix, radix)))
    keys = [()]
    key_deg = np.zeros(1, dtype=int)
    row = col = np.zeros(1, dtype=int)  # key ids of each pair
    vals = grid[None]  # (pairs, remaining grid axes...)
    for g in tables:
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


def moment(mu, alpha, beta, order: int = DEFAULT_ORDER) -> complex:
    """m_{alpha,beta}(mu) = int w^alpha conj(w)^beta e^{-|w|^2} dmu(w), node by node
    at the order floor max(order, |alpha| + 1, |beta| + 1)."""
    n = dimension(mu)
    alpha = as_multi_index(alpha, n)
    beta = as_multi_index(beta, n)
    order = max(order, sum(alpha) + 1, sum(beta) + 1)
    pts, wts = gaussian_nodes(mu, np.zeros(n), order)
    vals = np.ones(pts.shape[0], dtype=complex)
    for j in range(n):
        if alpha[j]:
            vals = vals * pts[:, j] ** alpha[j]
        if beta[j]:
            vals = vals * np.conj(pts[:, j]) ** beta[j]
    out = complex(np.sum(wts * vals))
    if not np.isfinite(out):
        raise ValueError(f"moment ({alpha}, {beta}) is not finite; growth contract violated")
    return out


# ---------------------------------------------------------------------------
# polydisk masses


def _chord_rule(order: int = 48):
    # theta-substitution v = y + c sin(theta) removes the sqrt endpoint
    gl_nodes, gl_weights = gauss_legendre(order)
    theta = 0.5 * math.pi * gl_nodes
    return np.sin(theta), np.cos(theta) * 0.5 * math.pi * gl_weights


def ball_mass(mu, center, r, order: int = DEFAULT_ORDER) -> complex:
    """Mass of the polydisk prod_j {|w_j - z_j| < r_j} under mu.

    Atoms are exact; densities use per-axis polar rules; horizontal products
    integrate the per-axis chord lengths against rho.  The radius is a tuple,
    one entry per axis (its Euclidean norm plays no role).
    """
    n = dimension(mu)
    center = np.broadcast_to(np.asarray(center, dtype=complex), (n,))
    r = np.broadcast_to(np.asarray(r, dtype=float), (n,))
    if np.any(r <= 0):
        raise ValueError(f"polydisk radii must be positive, got {r}")
    return mu.ball_mass(center, r, order)


def _ball_mass_product(rho, x_exp, y_exp, center, r) -> complex:
    n = len(x_exp)
    x0, y0 = center.real, center.imag
    s, sw = _chord_rule()

    def chords(tpts):
        out = np.ones(tpts.shape[0])
        for j in range(n):
            c = r[j] ** 2 - (tpts[:, j] - x0[j]) ** 2
            c = np.sqrt(np.maximum(c, 0.0))
            v = y0[j] + c[:, None] * s[None, :]
            f = np.ones_like(v)
            if y_exp[j] != 0:
                f = (1.0 + v**2) ** (y_exp[j] / 2.0)
            out = out * (c[:, None] * f * sw[None, :]).sum(axis=1)
        return out

    if isinstance(rho, RealAtoms):
        inside = np.all(np.abs(rho.points - x0[None, :]) < r[None, :], axis=1)
        if not np.any(inside):
            return 0.0 + 0.0j
        pts = rho.points[inside]
        return complex(np.sum(rho.weights[inside] * _real_weight_values(x_exp, pts) * chords(pts)))
    # Lebesgue or density rho: per-axis substitution t = x0 + r sin(phi)
    tpts, twts = tensor_grid([x0[j] + r[j] * s for j in range(n)], [r[j] * sw for j in range(n)])
    return complex(np.sum(twts * rho.weigh(tpts, _real_weight_values(x_exp, tpts) * chords(tpts))))


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


def _parse_point(text: str, n: int, real: bool):
    text = text.strip()
    conv = float if real else complex
    if text.startswith("["):
        values = ast.literal_eval(text)
        pt = [conv(v) for v in values]
    else:
        pt = [conv(ast.literal_eval(part)) for part in _split_top(text, ",")]
    if len(pt) != n:
        raise ValueError(f"point {text!r} has {len(pt)} components, expected {n}")
    return pt


def _parse(text: str, n: int, real: bool):
    head, body = _head_body(text)
    if head == "lebesgue" and body is None:
        return Lebesgue(n) if real else lebesgue(n)
    if head == "dirac":
        return (real_dirac if real else dirac)(_parse_point(body, n, real))
    if head == "gaussian":
        return (real_gaussian if real else gaussian_density)(n, float(body))
    if head == "atoms":
        points, weights = [], []
        for item in _split_top(body, ","):
            loc, _, wt = item.rpartition(":")
            points.append(_parse_point(loc, n, real))
            weights.append(complex(ast.literal_eval(wt.strip())))
        return (RealAtoms if real else Atoms)(np.array(points), np.array(weights))
    if head == "density":
        parts = _split_top(body, ";")
        radius = 6.0
        if len(parts) == 2:
            radius = float(parts[1].split("=")[-1])
        return (RealDensity if real else Density)(compile_density_expression(parts[0], n, real), n, radius)
    if not real and head == "horizontal":
        return Horizontal(_parse(body, n, True))
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
        x = np.atleast_2d(np.asarray(ast.literal_eval(x_text), dtype=complex))
        return pushforward(_parse(mu_text, n, False), x)
    raise ValueError(f"cannot parse {'real ' if real else ''}measure spec {text!r}")


def parse_real_measure(text: str, n: int):
    """Parse the real-measure grammar: lebesgue | dirac(..) | gaussian(s) | atoms(..) | density(..)."""
    return _parse(text, n, real=True)


def parse_measure(text: str, n: int):
    """Parse the measure grammar used by experiment configs.

    Built-ins: ``lebesgue``, ``dirac(point)``, ``gaussian(sigma)``.  Composites:
    ``atoms(p: w, ...)``, ``density(expr[; radius=R])``, ``horizontal(rho)``,
    ``alpha_horizontal(rho; a1,..,an)``, ``weighted(mu; p1,..,pn)``,
    ``pushforward(mu; X)``.  Complex literals use Python syntax (1+2j).
    """
    return _parse(text, n, real=False)
