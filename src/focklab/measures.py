"""Measure symbols on C^n and the integration primitives behind every formula.

A measure is described structurally: finite atom sets, densities with a
declared Gaussian-dominated growth region, horizontal products rho (x)
Lebesgue_y, alpha-weighted horizontal products, unitary pushforwards, and
the (1+x^2)^p (1+y^2)^p weighting calculus.  All pairings against Gaussian
kernels reduce to node/weight sets: atoms contribute exactly, everything
else goes through recentered Gauss-Hermite rules.
"""

from __future__ import annotations

import ast
import math
from dataclasses import dataclass

import numpy as np

from .indices import HalfIndex, as_multi_index, monomial_matrix
from .quadrature import gauss_hermite, gauss_legendre

DEFAULT_ORDER = 40
_MAX_NODES = 6_000_000
_CHUNK = 200_000
_UNITARY_TOL = 1e-12


# ---------------------------------------------------------------------------
# real measures on R^n (the rho factor of horizontal products)


@dataclass(frozen=True, eq=False)
class RealAtoms:
    """Finite atomic measure on R^n: points of shape (m, n), complex weights."""

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
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


@dataclass(frozen=True, eq=False)
class RealDensity:
    """Density g(t) dt on R^n; g is vectorized over point arrays (m, n).

    ``radius`` declares where the Gaussian-dominated decay of g sets in;
    quadrature accuracy degrades for mass far outside it.
    """

    density: object
    n: int
    radius: float = 6.0


@dataclass(frozen=True)
class Lebesgue:
    """Lebesgue measure on R^n."""

    n: int


RealMeasure = RealAtoms | RealDensity | Lebesgue


def real_dirac(point) -> RealAtoms:
    pts = np.atleast_2d(np.asarray(point, dtype=float))
    return RealAtoms(pts, np.ones(pts.shape[0]))


# ---------------------------------------------------------------------------
# measures on C^n


@dataclass(frozen=True, eq=False)
class Atoms:
    """Finite atomic measure on C^n with complex weights."""

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=complex))
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


@dataclass(frozen=True, eq=False)
class Density:
    """Complex density f(w) dnu_{2n}(w); f is vectorized over (m, n) complex arrays."""

    density: object
    n: int
    radius: float = 6.0


@dataclass(frozen=True, eq=False)
class Horizontal:
    """mu = rho (x) Lebesgue on the imaginary directions."""

    rho: RealMeasure


@dataclass(frozen=True, eq=False)
class AlphaHorizontal:
    """mu = rho (x) nu_{n,alpha} with d nu_{n,alpha} = prod (1+y_j^2)^{-alpha_j} dy_j.

    ``alpha_doubled`` stores 2*alpha so half-integer exponents arising from
    the weighting calculus stay exact.
    """

    rho: RealMeasure
    alpha_doubled: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "alpha_doubled", tuple(int(a) for a in self.alpha_doubled))


@dataclass(frozen=True, eq=False)
class Pushforward:
    """mu_X(E) = mu(X E) for a unitary X; integrates g via g(X* w)."""

    base: "MeasureSpec"
    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", np.asarray(self.matrix, dtype=complex))


@dataclass(frozen=True, eq=False)
class Weighted:
    """mu_p with density prod_j (1+x_j^2)^{p_j} (1+y_j^2)^{p_j} against the base."""

    base: "MeasureSpec"
    p: HalfIndex


MeasureSpec = Atoms | Density | Horizontal | AlphaHorizontal | Pushforward | Weighted


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


def dimension(mu) -> int:
    if isinstance(mu, (Atoms, RealAtoms)):
        return mu.n
    if isinstance(mu, (Density, RealDensity, Lebesgue)):
        return mu.n
    if isinstance(mu, (Horizontal, AlphaHorizontal)):
        return dimension(mu.rho)
    if isinstance(mu, (Pushforward, Weighted)):
        return dimension(mu.base)
    raise TypeError(f"not a measure spec: {mu!r}")


def variation(mu):
    """|mu|, formed structurally (moduli of weights, |f| for densities)."""
    if isinstance(mu, Atoms):
        return Atoms(mu.points, np.abs(mu.weights))
    if isinstance(mu, RealAtoms):
        return RealAtoms(mu.points, np.abs(mu.weights))
    if isinstance(mu, Density):
        f = mu.density
        return Density(lambda pts: np.abs(f(pts)), mu.n, mu.radius)
    if isinstance(mu, RealDensity):
        f = mu.density
        return RealDensity(lambda pts: np.abs(f(pts)), mu.n, mu.radius)
    if isinstance(mu, Lebesgue):
        return mu
    if isinstance(mu, Horizontal):
        return Horizontal(variation(mu.rho))
    if isinstance(mu, AlphaHorizontal):
        return AlphaHorizontal(variation(mu.rho), mu.alpha_doubled)
    if isinstance(mu, Pushforward):
        return Pushforward(variation(mu.base), mu.matrix)
    if isinstance(mu, Weighted):
        return Weighted(variation(mu.base), mu.p)
    raise TypeError(f"not a measure spec: {mu!r}")


# ---------------------------------------------------------------------------
# the weighting calculus mu_p


def _weight_values(p: HalfIndex, pts: np.ndarray) -> np.ndarray:
    """prod_j (1+x_j^2)^{p_j} (1+y_j^2)^{p_j} at complex points (m, n)."""
    out = np.ones(pts.shape[0])
    for j, d in enumerate(p.doubled):
        if d == 0:
            continue
        e = d / 2.0
        out = out * (1.0 + pts[:, j].real ** 2) ** e * (1.0 + pts[:, j].imag ** 2) ** e
    return out


def _real_weight_values(p: HalfIndex, pts: np.ndarray) -> np.ndarray:
    out = np.ones(pts.shape[0])
    for j, d in enumerate(p.doubled):
        if d != 0:
            out = out * (1.0 + pts[:, j] ** 2) ** (d / 2.0)
    return out


def weight_real(rho, p: HalfIndex):
    """Fold the x-part weight prod (1+t_j^2)^{p_j} into a real measure."""
    if p.is_zero:
        return rho
    if isinstance(rho, RealAtoms):
        return RealAtoms(rho.points, rho.weights * _real_weight_values(p, rho.points))
    if isinstance(rho, RealDensity):
        f = rho.density
        return RealDensity(lambda pts: f(pts) * _real_weight_values(p, pts), rho.n, rho.radius)
    if isinstance(rho, Lebesgue):
        return RealDensity(lambda pts: _real_weight_values(p, pts), rho.n)
    raise TypeError(f"not a real measure: {rho!r}")


def weight(mu, p: HalfIndex):
    """The measure mu_p; repeated weightings collapse to a single normal form."""
    if isinstance(p, (tuple, list)):
        p = HalfIndex.from_ints(p)
    if p.is_zero:
        return mu
    if isinstance(mu, Weighted):
        q = mu.p + p
        return mu.base if q.is_zero else weight(mu.base, q)
    if isinstance(mu, Atoms):
        return Atoms(mu.points, mu.weights * _weight_values(p, mu.points))
    if isinstance(mu, Density):
        f = mu.density
        return Density(lambda pts: f(pts) * _weight_values(p, pts), mu.n, mu.radius)
    if isinstance(mu, Horizontal):
        return AlphaHorizontal(weight_real(mu.rho, p), tuple(-d for d in p.doubled))
    if isinstance(mu, AlphaHorizontal):
        alpha = tuple(a - d for a, d in zip(mu.alpha_doubled, p.doubled))
        rho = weight_real(mu.rho, p)
        if all(a == 0 for a in alpha):
            return Horizontal(rho)
        return AlphaHorizontal(rho, alpha)
    if isinstance(mu, Pushforward):
        return Weighted(mu, p)
    raise TypeError(f"not a measure spec: {mu!r}")


# ---------------------------------------------------------------------------
# pushforward under unitaries


def _check_unitary(x: np.ndarray, n: int) -> np.ndarray:
    x = np.asarray(x, dtype=complex)
    if x.shape != (n, n):
        raise ValueError(f"rotation must be {n}x{n}, got shape {x.shape}")
    defect = np.max(np.abs(x.conj().T @ x - np.eye(n)))
    if defect > _UNITARY_TOL:
        raise ValueError(f"matrix is not unitary: max |X*X - I| = {defect:.2e}")
    return x


def _real_pushforward(rho, o: np.ndarray):
    """Image of a real measure under t -> O^T t for real orthogonal O."""
    if isinstance(rho, Lebesgue):
        return rho
    if isinstance(rho, RealAtoms):
        return RealAtoms(rho.points @ o, rho.weights)
    if isinstance(rho, RealDensity):
        f = rho.density
        return RealDensity(lambda pts: f(pts @ o.T), rho.n, rho.radius)
    raise TypeError(f"not a real measure: {rho!r}")


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
    if isinstance(mu, Atoms):
        return Atoms(mu.points @ np.conj(x), mu.weights)
    if isinstance(mu, Density):
        f = mu.density
        return Density(lambda pts: f(pts @ x.T), mu.n, mu.radius)
    if isinstance(mu, Pushforward):
        combined = mu.matrix @ x
        if np.max(np.abs(combined - np.eye(n))) < 1e-12:
            return mu.base
        return pushforward(mu.base, combined)
    if isinstance(mu, Horizontal) and np.max(np.abs(x.imag)) < _UNITARY_TOL:
        return Horizontal(_real_pushforward(mu.rho, x.real))
    return Pushforward(mu, x)


# ---------------------------------------------------------------------------
# node/weight discretizations for Gaussian pairings


def _tensor_nodes(axis_nodes, axis_weights):
    grids = np.meshgrid(*axis_nodes, indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=-1)
    w = axis_weights[0]
    for aw in axis_weights[1:]:
        w = np.multiply.outer(w, aw)
    return pts, w.ravel()


def real_nodes(rho, center, order: int = DEFAULT_ORDER):
    """Nodes/weights with int g(t) e^{-|t-c|^2} drho(t) ~ sum w_i g(t_i).

    The Gaussian kernel is folded into the weights; Lebesgue and density
    factors are discretized by Gauss-Hermite recentered at c.
    """
    n = dimension(rho)
    center = np.broadcast_to(np.asarray(center, dtype=float), (n,))
    if isinstance(rho, RealAtoms):
        wts = rho.weights * np.exp(-np.sum((rho.points - center) ** 2, axis=1))
        return rho.points, wts
    rule = gauss_hermite(order)
    axes = [center[j] + rule.nodes for j in range(n)]
    pts, wts = _tensor_nodes(axes, [rule.weights] * n)
    if isinstance(rho, RealDensity):
        wts = wts * np.asarray(rho.density(pts))
    elif not isinstance(rho, Lebesgue):
        raise TypeError(f"not a real measure: {rho!r}")
    return pts, wts


def gaussian_nodes(mu, center, order: int = DEFAULT_ORDER, max_nodes: int = _MAX_NODES):
    """Nodes/weights with int F(w) e^{-|w-c|^2} dmu(w) ~ sum w_i F(w_i).

    This single contract drives moments, Berezin transforms, and the
    sesquilinear pairings: the Gaussian and all structural densities are in
    the weights, F alone stays with the caller.
    """
    n = dimension(mu)
    center = np.broadcast_to(np.asarray(center, dtype=complex), (n,))
    if isinstance(mu, Atoms):
        wts = mu.weights * np.exp(-np.sum(np.abs(mu.points - center) ** 2, axis=1))
        return mu.points, wts
    if isinstance(mu, Density):
        rule = gauss_hermite(order)
        if rule.order ** (2 * n) > max_nodes:
            raise ValueError(f"density discretization needs {rule.order ** (2 * n)} nodes (cap {max_nodes})")
        axes = [center[j].real + rule.nodes for j in range(n)]
        axes += [center[j].imag + rule.nodes for j in range(n)]
        pts2, wts = _tensor_nodes(axes, [rule.weights] * (2 * n))
        pts = pts2[:, :n] + 1j * pts2[:, n:]
        return pts, wts * np.asarray(mu.density(pts))
    if isinstance(mu, (Horizontal, AlphaHorizontal)):
        tpts, twts = real_nodes(mu.rho, center.real, order)
        rule = gauss_hermite(order)
        vaxes = [center[j].imag + rule.nodes for j in range(n)]
        vweights = []
        for j in range(n):
            w = rule.weights
            if isinstance(mu, AlphaHorizontal) and mu.alpha_doubled[j] != 0:
                w = w * (1.0 + vaxes[j] ** 2) ** (-mu.alpha_doubled[j] / 2.0)
            vweights.append(w)
        vpts, vwts = _tensor_nodes(vaxes, vweights)
        if tpts.shape[0] * vpts.shape[0] > max_nodes:
            raise ValueError(f"horizontal discretization needs {tpts.shape[0] * vpts.shape[0]} nodes (cap {max_nodes})")
        pts = (tpts[:, None, :] + 1j * vpts[None, :, :]).reshape(-1, n)
        wts = (twts[:, None] * vwts[None, :]).ravel()
        return pts, wts
    if isinstance(mu, Weighted):
        pts, wts = gaussian_nodes(mu.base, center, order, max_nodes)
        return pts, wts * _weight_values(mu.p, pts)
    if isinstance(mu, Pushforward):
        pts, wts = gaussian_nodes(mu.base, mu.matrix @ center, order, max_nodes)
        return pts @ np.conj(mu.matrix), wts
    raise TypeError(f"not a measure spec: {mu!r}")


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


def _product_form(mu):
    """(rho, x_exponents_doubled, y_exponents_doubled) if mu is a weighted
    horizontal product, else None.  The y-exponent e means a factor
    (1+v^2)^{e/2} on that imaginary axis."""
    if isinstance(mu, Horizontal):
        n = dimension(mu)
        return mu.rho, (0,) * n, (0,) * n
    if isinstance(mu, AlphaHorizontal):
        n = dimension(mu)
        return mu.rho, (0,) * n, tuple(-a for a in mu.alpha_doubled)
    if isinstance(mu, Weighted):
        form = _product_form(mu.base)
        if form is None:
            return None
        rho, xe, ye = form
        d = mu.p.doubled
        return rho, tuple(a + b for a, b in zip(xe, d)), tuple(a + b for a, b in zip(ye, d))
    return None


def moment_table(mu, indices, order: int = DEFAULT_ORDER) -> np.ndarray:
    """All moments m_{alpha,beta} for alpha, beta in ``indices`` as one pass.

    ``indices`` must be downward closed (graded-lex enumerations are).  The
    table is the shared input for every operator assembly; entry growth or a
    violated decay contract surfaces as a non-finite value located by the
    caller.

    Weighted horizontal products and densities on a Gauss-Hermite grid
    factor per axis: their moments come from per-axis tables on the distinct
    node values, contracted against the weight grid one axis at a time
    (sum factorization), for about (D+1)^2 operations per grid point instead
    of N^2 per node.  Complex atoms and pushforwards have no grid and go
    through the per-node Gram product over their node set.
    """
    indices = [tuple(a) for a in indices]
    maxdeg = max(sum(a) for a in indices)
    form = _product_form(mu)
    if form is not None:
        tables, grid = _product_grid(*form, maxdeg, order)
    elif _is_density_form(mu):
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


def _is_density_form(mu) -> bool:
    if isinstance(mu, Weighted):
        return _is_density_form(mu.base)
    return isinstance(mu, Density)


def _powers(z: np.ndarray, maxdeg: int) -> np.ndarray:
    """z^0 .. z^maxdeg stacked along a new last axis."""
    pows = np.empty(z.shape + (maxdeg + 1,), dtype=complex)
    pows[..., 0] = 1.0
    for a in range(maxdeg):
        pows[..., a + 1] = pows[..., a] * z
    return pows


def _product_grid(rho, x_exp, y_exp, maxdeg: int, order: int):
    """Per-axis tables g_j[i, a, b] = sum_v w(v) (t_i+iv)^a (t_i-iv)^b (1+t_i^2)^{x_j/2}
    on the distinct t-values of each axis, and the t-weights on their grid."""
    n = len(x_exp)
    tpts, twts = real_nodes(rho, np.zeros(n), order)
    if isinstance(rho, RealAtoms):
        axes, where = zip(*(np.unique(tpts[:, j], return_inverse=True) for j in range(n)))
        grid = np.zeros(tuple(len(a) for a in axes), dtype=complex)
        np.add.at(grid, where, twts)
    else:
        # real_nodes lays the Gauss-Hermite tensor grid out in C order
        rule = gauss_hermite(order)
        axes = (rule.nodes,) * n
        grid = twts.reshape((rule.order,) * n)
    vrule = gauss_hermite(max(order, maxdeg + 1))
    v = vrule.nodes
    tables = []
    for j in range(n):
        wv = vrule.weights
        if y_exp[j] != 0:
            wv = wv * (1.0 + v**2) ** (y_exp[j] / 2.0)
        pows = _powers(axes[j][:, None] + 1j * v[None, :], maxdeg)
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
    pows = _powers((rule.nodes[:, None] + 1j * rule.nodes[None, :]).ravel(), maxdeg)
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
    """m_{alpha,beta}(mu) = int w^alpha conj(w)^beta e^{-|w|^2} dmu(w)."""
    n = dimension(mu)
    alpha = as_multi_index(alpha, n)
    beta = as_multi_index(beta, n)
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
    if isinstance(mu, Atoms):
        inside = np.all(np.abs(mu.points - center[None, :]) < r[None, :], axis=1)
        return complex(np.sum(mu.weights[inside]))
    if isinstance(mu, Density):
        return _ball_mass_density(mu, center, r, order)
    if isinstance(mu, (Horizontal, AlphaHorizontal, Weighted)):
        form = _product_form(mu)
        if form is not None:
            return _ball_mass_product(*form, center, r, order)
        if isinstance(mu, Weighted) and isinstance(mu.base, (Atoms, Density)):
            return ball_mass(weight(mu.base, mu.p), center, r, order)
        raise TypeError(f"polydisk mass unsupported for {type(mu).__name__} over {type(mu.base).__name__}")
    if isinstance(mu, Pushforward):
        raise TypeError("polydisk mass for a rotated product measure is not supported; rotate the polydisk instead")
    raise TypeError(f"not a measure spec: {mu!r}")


def _ball_mass_density(mu: Density, center, r, order: int) -> complex:
    qr = min(order, 48)
    gl_nodes, gl_weights = gauss_legendre(qr)
    rho_axis = []
    for j in range(mu.n):
        rr = 0.5 * r[j] * (gl_nodes + 1.0)
        wr = 0.5 * r[j] * gl_weights * rr  # polar Jacobian
        qth = max(16, 2 * qr)
        theta = 2.0 * math.pi * np.arange(qth) / qth
        wth = np.full(qth, 2.0 * math.pi / qth)
        pts_j = center[j] + rr[:, None] * np.exp(1j * theta[None, :])
        wts_j = wr[:, None] * wth[None, :]
        rho_axis.append((pts_j.ravel(), wts_j.ravel()))
    pts, wts = _tensor_nodes([a[0] for a in rho_axis], [a[1] for a in rho_axis])
    return complex(np.sum(wts * np.asarray(mu.density(pts))))


def _ball_mass_product(rho, x_exp, y_exp, center, r, order: int) -> complex:
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

    def xweight(tpts):
        out = np.ones(tpts.shape[0])
        for j, e in enumerate(x_exp):
            if e != 0:
                out = out * (1.0 + tpts[:, j] ** 2) ** (e / 2.0)
        return out

    if isinstance(rho, RealAtoms):
        inside = np.all(np.abs(rho.points - x0[None, :]) < r[None, :], axis=1)
        if not np.any(inside):
            return 0.0 + 0.0j
        pts = rho.points[inside]
        return complex(np.sum(rho.weights[inside] * xweight(pts) * chords(pts)))
    # Lebesgue or density rho: per-axis substitution t = x0 + r sin(phi)
    phi_s, phi_w = _chord_rule()
    axes = [x0[j] + r[j] * phi_s for j in range(n)]
    axws = [r[j] * phi_w for j in range(n)]
    tpts, twts = _tensor_nodes(axes, axws)
    vals = xweight(tpts) * chords(tpts)
    if isinstance(rho, RealDensity):
        vals = vals * np.asarray(rho.density(tpts))
    elif not isinstance(rho, Lebesgue):
        raise TypeError(f"not a real measure: {rho!r}")
    return complex(np.sum(twts * vals))


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


def parse_real_measure(text: str, n: int):
    """Parse the real-measure grammar: lebesgue | dirac(..) | gaussian(s) | atoms(..) | density(..)."""
    head, body = _head_body(text)
    if head == "lebesgue" and body is None:
        return Lebesgue(n)
    if head == "dirac":
        return real_dirac(_parse_point(body, n, real=True))
    if head == "gaussian":
        return real_gaussian(n, float(body))
    if head == "atoms":
        points, weights = [], []
        for item in _split_top(body, ","):
            loc, _, wt = item.rpartition(":")
            points.append(_parse_point(loc, n, real=True))
            weights.append(complex(ast.literal_eval(wt.strip())))
        return RealAtoms(np.array(points), np.array(weights))
    if head == "density":
        parts = _split_top(body, ";")
        radius = 6.0
        if len(parts) == 2:
            radius = float(parts[1].split("=")[-1])
        return RealDensity(compile_density_expression(parts[0], n, real=True), n, radius)
    raise ValueError(f"cannot parse real measure spec {text!r}")


def parse_measure(text: str, n: int):
    """Parse the measure grammar used by experiment configs.

    Built-ins: ``lebesgue``, ``dirac(point)``, ``gaussian(sigma)``.  Composites:
    ``atoms(p: w, ...)``, ``density(expr[; radius=R])``, ``horizontal(rho)``,
    ``alpha_horizontal(rho; a1,..,an)``, ``weighted(mu; p1,..,pn)``,
    ``pushforward(mu; X)``.  Complex literals use Python syntax (1+2j).
    """
    head, body = _head_body(text)
    if head == "lebesgue" and body is None:
        return lebesgue(n)
    if head == "dirac":
        return dirac(_parse_point(body, n, real=False))
    if head == "gaussian":
        return gaussian_density(n, float(body))
    if head == "atoms":
        points, weights = [], []
        for item in _split_top(body, ","):
            loc, _, wt = item.rpartition(":")
            points.append(_parse_point(loc, n, real=False))
            weights.append(complex(ast.literal_eval(wt.strip())))
        return Atoms(np.array(points), np.array(weights))
    if head == "density":
        parts = _split_top(body, ";")
        radius = 6.0
        if len(parts) == 2:
            radius = float(parts[1].split("=")[-1])
        return Density(compile_density_expression(parts[0], n, real=False), n, radius)
    if head == "horizontal":
        return Horizontal(parse_real_measure(body, n))
    if head == "alpha_horizontal":
        rho_text, alpha_text = _split_top(body, ";")
        alpha = [float(a) for a in _split_top(alpha_text, ",")]
        return AlphaHorizontal(parse_real_measure(rho_text, n), HalfIndex.from_halves(alpha).doubled)
    if head == "weighted":
        mu_text, p_text = _split_top(body, ";")
        p = HalfIndex.from_halves([float(a) for a in _split_top(p_text, ",")])
        return weight(parse_measure(mu_text, n), p)
    if head == "pushforward":
        mu_text, x_text = _split_top(body, ";")
        x = np.atleast_2d(np.asarray(ast.literal_eval(x_text), dtype=complex))
        return pushforward(parse_measure(mu_text, n), x)
    raise ValueError(f"cannot parse measure spec {text!r}")
