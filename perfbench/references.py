"""Closed-form references for the benchmark's accuracy checks.

Everything here is computed without calling focklab: exact rational
moments, direct atom sums, Gaussian convolutions in closed form, the
noncentral chi-square law for polydisk masses, and a high-precision mpmath
evaluation of the Weyl-operator matrix elements.  Only the matrix layout
(graded-lex multi-indices) is shared with the package, because it is the
package's documented convention.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

DIGITS_CAP = 12.0


def digits(err: float, scale: float) -> float:
    """-log10(err / scale), capped so rounding noise cannot move it."""
    if not (math.isfinite(err) and math.isfinite(scale)) or scale <= 0:
        return 0.0
    if err <= 0:
        return DIGITS_CAP
    return min(DIGITS_CAP, -math.log10(err / scale))


def graded_lex(n: int, degree: int) -> list[tuple[int, ...]]:
    idx = [a for a in itertools.product(range(degree + 1), repeat=n) if sum(a) <= degree]
    return sorted(idx, key=lambda a: (sum(a), a))


def _sqrt_factorials(indices) -> np.ndarray:
    return np.array([math.sqrt(math.prod(math.factorial(a) for a in alpha)) for alpha in indices])


def _gaussian_moment(p: int, c: int) -> Fraction:
    """int x^p e^{-c x^2} dx divided by sqrt(pi / c), as an exact rational."""
    if p % 2:
        return Fraction(0)
    double_fact = math.prod(range(p - 1, 0, -2))
    return Fraction(double_fact, (2 * c) ** (p // 2))


def _horizontal_gaussian_axis(degree: int) -> np.ndarray:
    """A[b, a] = pi^{-1} m_{a,b} / sqrt(a! b!) for rho = e^{-t^2} (x) Lebesgue_y on one axis.

    m_{a,b} = int (x+iy)^a (x-iy)^b e^{-2x^2} e^{-y^2} dx dy, expanded
    binomially; the odd powers of i cancel, and sqrt(pi/2) sqrt(pi) / pi =
    1/sqrt(2) is the constant in front of the exact rational sum.
    """
    table = np.empty((degree + 1, degree + 1))
    for a in range(degree + 1):
        for b in range(degree + 1):
            acc = Fraction(0)
            for j in range(a + 1):
                for l in range(b + 1):
                    q = a - j + b - l
                    if q % 2 or (j + l) % 2:
                        continue
                    sign = (-1) ** (b - l) * (-1) ** (q // 2)
                    acc += sign * math.comb(a, j) * math.comb(b, l) * _gaussian_moment(j + l, 2) * _gaussian_moment(q, 1)
            table[b, a] = float(acc) / (math.sqrt(2.0) * math.sqrt(math.factorial(a) * math.factorial(b)))
    return table


def horizontal_gaussian_toeplitz(n: int, degree: int) -> np.ndarray:
    """Toeplitz matrix of Horizontal(real_gaussian(n)): a product of per-axis tables."""
    axis = _horizontal_gaussian_axis(degree)
    cols = np.array(graded_lex(n, degree))
    out = np.ones((len(cols), len(cols)))
    for j in range(n):
        out = out * axis[cols[:, j][:, None], cols[:, j][None, :]]
    return out


def gaussian_density_toeplitz(n: int, degree: int) -> np.ndarray:
    """Toeplitz matrix of the density e^{-|w|^2}: diagonal with entries 2^{-|alpha|-n}."""
    return np.diag([2.0 ** (-sum(a) - n) for a in graded_lex(n, degree)])


def atoms_toeplitz(points: np.ndarray, weights: np.ndarray, degree: int) -> np.ndarray:
    """pi^{-n} sum_k w_k e^{-|p_k|^2} conj(p_k)^beta p_k^alpha / sqrt(alpha! beta!)."""
    n = points.shape[1]
    indices = graded_lex(n, degree)
    expo = np.array(indices)
    powers = np.prod(points[:, None, :] ** expo[None, :, :], axis=2)
    c = weights * np.exp(-np.sum(np.abs(points) ** 2, axis=1))
    sf = _sqrt_factorials(indices)
    return math.pi ** (-n) * (powers.conj().T @ (c[:, None] * powers)) / np.outer(sf, sf)


def gaussian_berezin(z: np.ndarray) -> np.ndarray:
    """Berezin transform of e^{-|w|^2} on C^n: 2^{-n} e^{-|z|^2/2}, rows of z are points."""
    z = np.atleast_2d(z)
    return 2.0 ** (-z.shape[1]) * np.exp(-0.5 * np.sum(np.abs(z) ** 2, axis=1))


def condition_m_expected(berezin_of_sq, n: int, window: float, spacing: float) -> dict:
    """Expected condition-M suprema for a radial Berezin transform b(|z|^2).

    The lattice is the axis grid spacing * (-m..m) in all 2n real coordinates;
    its boundary shell has some coordinate at the outermost grid value.  The
    verbatim integrand is e^{|z|^2} pi^n b, the normalized one is b itself.
    """
    m = int(math.floor(window / spacing + 1e-9))
    axis = spacing * np.arange(-m, m + 1)
    coords = np.array(list(itertools.product(axis, repeat=2 * n)))
    sq = np.sum(coords**2, axis=1)
    boundary = np.max(np.abs(coords), axis=1) >= axis[-1] - 1e-12
    normalized = berezin_of_sq(sq)
    out = {}
    for kind, values in (("normalized", normalized), ("verbatim", np.exp(sq) * math.pi**n * normalized)):
        out[kind] = {"sup_estimate": float(np.max(values)),
                     "interior_max": float(np.max(values[~boundary])),
                     "boundary_max": float(np.max(values[boundary]))}
    return out


def gaussian_polydisk_mass(center: np.ndarray, r: np.ndarray) -> float:
    """Mass of prod_j {|w_j - c_j| < r_j} under e^{-|w|^2} dA.

    Per axis the mass is pi P(|W - c| < r) for W with density e^{-|w|^2}/pi,
    and 2|W - c|^2 is noncentral chi-square with 2 degrees of freedom and
    noncentrality 2|c|^2.  At c = 0 this is pi (1 - e^{-r^2}).
    """
    from scipy.special import chndtr

    return float(np.prod([math.pi * chndtr(2.0 * rj**2, 2.0, 2.0 * abs(cj) ** 2) for cj, rj in zip(center, r)]))


def lebesgue_half_weight_polydisk_sup(n: int, r: float, window: float) -> float:
    """C_k(Lebesgue, r) over the lattice for k = (1/2, ..., 1/2).

    The weighted measure is prod_j sqrt(1+x_j^2) sqrt(1+y_j^2) dx dy and the
    factor is Gamma(3/2)^{2n}.  The per-axis disk mass grows with |Re z| and
    |Im z|, so the lattice supremum sits at the corner z_j = window (1 + i).
    The y-integral over each chord is closed form; the x-integral uses
    x = window + r sin(phi), which removes the square-root endpoints.
    """
    from scipy.integrate import quad

    def chord(y):
        return 0.5 * (y * np.sqrt(1.0 + y * y) + np.arcsinh(y))

    def integrand(phi):
        half = r * math.cos(phi)
        x = window + r * math.sin(phi)
        return math.sqrt(1.0 + x * x) * (chord(window + half) - chord(window - half)) * half

    axis, _ = quad(integrand, -math.pi / 2, math.pi / 2, epsabs=0.0, epsrel=1e-13, limit=200)
    return math.gamma(1.5) ** (2 * n) * axis**n


def gaussian_gamma(grid: np.ndarray, two_k: tuple[int, ...]) -> np.ndarray:
    """gamma_{rho,2k} of rho = e^{-|t|^2} for 2k_j in {0, 1}.

    Per axis: sqrt(2/3) e^{-x^2/3} for 2k_j = 0 and (8 / (3 sqrt 3)) x e^{-x^2/3}
    for 2k_j = 1, from completing the square in the defining integral.
    """
    out = np.ones(grid.shape[0])
    for j, kj in enumerate(two_k):
        x = grid[:, j]
        if kj == 0:
            out = out * math.sqrt(2.0 / 3.0) * np.exp(-x**2 / 3.0)
        elif kj == 1:
            out = out * 8.0 / (3.0 * math.sqrt(3.0)) * x * np.exp(-x**2 / 3.0)
        else:
            raise ValueError(f"no closed form coded for 2k_j = {kj}")
    return out


def weyl_table(h: complex, degree: int, dps: int = 50) -> np.ndarray:
    """<m|W_h|n> = sqrt(n!/m!) conj(h)^{m-n} e^{-|h|^2/2} L_n^{(m-n)}(|h|^2) (m >= n).

    For m < n the roles swap with -h in place of conj(h).  Laguerre
    polynomials are summed term by term at ``dps`` digits, so cancellation
    in the alternating series cannot reach double precision.
    """
    import mpmath as mp

    with mp.workdps(dps):
        hb = mp.mpc(h.real, -h.imag)
        x = abs(hb) ** 2
        damp = mp.exp(-x / 2)
        fact = [mp.factorial(k) for k in range(2 * degree + 2)]

        def laguerre(m, a):
            return mp.fsum((-1) ** j * mp.binomial(m + a, m - j) * x**j / fact[j] for j in range(m + 1))

        out = np.empty((degree + 1, degree + 1), dtype=complex)
        for m in range(degree + 1):
            for n in range(degree + 1):
                if m >= n:
                    v = mp.sqrt(fact[n] / fact[m]) * hb ** (m - n) * damp * laguerre(n, m - n)
                else:
                    v = mp.sqrt(fact[m] / fact[n]) * (-mp.conj(hb)) ** (n - m) * damp * laguerre(m, n - m)
                out[m, n] = complex(v)
    return out
