"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass/fail lines.  Two sub-clauses are marked xfail(strict): the entrywise
residual cannot decrease with truncation because both sides integrate rho on
the same nodes, which leaves it at rounding at every D, and the D=16 norm gap for the point-mass symbol
sits at 0.042 (it reaches 0.02 only near D=40); the companion tests verify
the meaningful versions of both claims.
"""

import math

import numpy as np
import pytest

from focklab.basis import enumerate_basis, kernel_coefficients, weyl_matrix
from focklab.carleson import carleson_constant, weight_shift_check
from focklab.indices import HalfIndex, factorial, hermite, monomial_matrix
from focklab.lagrangian import LagrangianFrame, l_invariance_test, rotation_defect
from focklab.measures import (
    Density,
    Horizontal,
    RealAtoms,
    dirac,
    lebesgue,
    pushforward,
    real_dirac,
    real_gaussian,
)
from focklab.quadrature import gauss_hermite
from focklab.spectral import diagonalization_residual, multiplication_matrix
from focklab.toeplitz import (
    assemble_toeplitz,
    berezin_y_variation,
    interior_max_norm,
)


def derivative(coefficients, a, basis):
    """d^a in coefficients: c_alpha moves to alpha - a scaled by sqrt(alpha! / (alpha - a)!) (reference copy)."""
    out = np.zeros(basis.size, dtype=complex)
    for pos, alpha in enumerate(basis.indices):
        low = tuple(x - y for x, y in zip(alpha, a))
        if min(low) >= 0:
            out[basis.position[low]] = math.sqrt(factorial(alpha) // factorial(low)) * coefficients[pos]
    return out


K0 = HalfIndex.from_doubled((0,))
K1 = HalfIndex.from_doubled((2,))

GALLERY = {
    "dirac(0)": real_dirac([0.0]),
    "dirac(0.7)": real_dirac([0.7]),
    "gaussian(1)": real_gaussian(1),
    "two-atom mix": RealAtoms([[-0.4], [0.9]], [0.6, 0.4]),
}


def report(criterion: str, ok: bool, detail: str):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_01_identity_symbol():
    worst = 0.0
    for n, d in ((1, 16), (2, 8)):
        b = enumerate_basis(n, d)
        t = assemble_toeplitz(lebesgue(n), b)
        worst = max(worst, float(np.max(np.abs(t.entries - np.eye(b.size)))))
    report("01 identity-symbol", worst <= 1e-10, f"max entry error {worst:.2e} <= 1e-10")


def test_criterion_02_hermite_shift_identity():
    rule = gauss_hermite(60)
    worst = 0.0
    for k in (1, 2, 3):
        for u in (0.5, 1.0, 2.0):
            val = float(np.sum(rule.weights * hermite(2 * k, rule.nodes + u)))
            expected = math.sqrt(math.pi) * (2 * u) ** (2 * k)
            worst = max(worst, abs(val - expected) / abs(expected))
    report("02 hermite-shift-identity", worst <= 1e-8, f"max relative error {worst:.2e} <= 1e-8")


def _gallery_reports(k, degrees):
    return {
        name: {d: diagonalization_residual(rho, k, enumerate_basis(1, d)) for d in degrees}
        for name, rho in GALLERY.items()
    }


def test_criterion_03_diagonalization():
    reps = _gallery_reports(K0, (10, 14))
    worst = max(r.residual for by_d in reps.values() for r in by_d.values())
    converges = all(by_d[14].berezin_gap < by_d[10].berezin_gap for by_d in reps.values())
    ok = worst <= 1e-5 and converges
    report(
        "03 diagonalization",
        ok,
        f"max full-block residual {worst:.2e} <= 1e-5 at D=10,14; "
        f"kernel-route residual strictly decreases from D=10 to D=14: {converges}",
    )


@pytest.mark.xfail(
    strict=True,
    reason="both sides integrate rho on the same nodes and the Hermite side is exact in s, so the "
    "full-block entrywise residual is rounding at every D (1.4e-16 to 3.6e-16 at D=10 and 14) and a "
    "strict decrease from D=10 to D=14 cannot hold; the kernel-route residual is the truncation-sensitive "
    "quantity and is asserted to decrease in test_criterion_03_diagonalization",
)
def test_criterion_03_entrywise_residual_decreases():
    reps = _gallery_reports(K0, (10, 14))
    assert all(by_d[14].residual < by_d[10].residual for by_d in reps.values())


def test_criterion_04_coderivative_diagonalization():
    worst = 0.0
    b = enumerate_basis(1, 12)
    for rho in GALLERY.values():
        worst = max(worst, diagonalization_residual(rho, K1, b).residual)
    report("04 coderivative-diagonalization", worst <= 1e-5, f"max full-block residual {worst:.2e} <= 1e-5 at D=12")


def test_criterion_05_horizontality_criterion():
    xs = np.linspace(-1.0, 1.0, 5)[:, None]
    ys = np.linspace(-1.0, 1.0, 5)
    worst = max(
        berezin_y_variation(Horizontal(rho), xs, ys) for rho in GALLERY.values()
    )
    off_axis = berezin_y_variation(dirac([0.4 + 0.7j]), xs, ys)
    ok = worst <= 1e-10 and off_axis >= 1e-2
    report(
        "05 horizontality-criterion",
        ok,
        f"horizontal y-variation {worst:.2e} <= 1e-10; off-axis atom varies by {off_axis:.2e} >= 1e-2",
    )


def test_criterion_06_commutativity():
    b = enumerate_basis(1, 16)
    t1 = assemble_toeplitz(Horizontal(real_gaussian(1, 1.0)), b).entries
    t2 = assemble_toeplitz(Horizontal(real_gaussian(1, 2.0)), b).entries
    horizontal_pair = interior_max_norm(t1 @ t2 - t2 @ t1, b)
    t3 = assemble_toeplitz(dirac([1.0 + 1.0j]), b).entries
    mixed_pair = interior_max_norm(t1 @ t3 - t3 @ t1, b)
    ok = horizontal_pair <= 1e-6 and mixed_pair >= 1e-3
    report(
        "06 commutativity",
        ok,
        f"horizontal pair {horizontal_pair:.2e} <= 1e-6; discrimination {mixed_pair:.2e} >= 1e-3",
    )


def _norm_gaps():
    sup_gamma = math.sqrt(2 / math.pi)
    gaps = {}
    for d in (8, 12, 16):
        b = enumerate_basis(1, d)
        t = assemble_toeplitz(Horizontal(real_dirac([0.0])), b)
        gaps[d] = abs(float(np.linalg.norm(t.entries, 2)) - sup_gamma)
    return gaps


def test_criterion_07_norm_monotone_improvement():
    gaps = _norm_gaps()
    ok = gaps[8] > gaps[12] > gaps[16]
    report(
        "07 norm-vs-sup-gamma (monotone part)",
        ok,
        f"gaps {gaps[8]:.4f} > {gaps[12]:.4f} > {gaps[16]:.4f} over D=8,12,16",
    )


@pytest.mark.xfail(
    strict=True,
    reason="the truncated norm gap for the point-mass symbol decays like ~0.7/D: "
    "0.070, 0.052, 0.042 at D=8,12,16, reaching 0.02 only near D=40, so the "
    "stated tolerance cannot hold at D=16; the D=40 companion test passes",
)
def test_criterion_07_norm_gap_tolerance_at_d16():
    gaps = _norm_gaps()
    report("07 norm-vs-sup-gamma (0.02 at D=16)", gaps[16] <= 0.02, f"gap {gaps[16]:.4f} <= 0.02")


def test_criterion_07_norm_gap_resolves_at_higher_truncation():
    b = enumerate_basis(1, 40)
    t = assemble_toeplitz(Horizontal(real_dirac([0.0])), b, order=48)
    gap = abs(float(np.linalg.norm(t.entries, 2)) - math.sqrt(2 / math.pi))
    report("07 norm-vs-sup-gamma (0.02 reached by D=40)", gap <= 0.02, f"gap {gap:.4f} <= 0.02 at D=40")


def test_criterion_08_carleson_constants():
    rep = carleson_constant(lebesgue(1), K0, [1.0])
    err_lebesgue = abs(rep.sup_estimate - math.pi)
    mu = Density(lambda p: 1.0 / ((1 + p[:, 0].real ** 2) * (1 + p[:, 0].imag ** 2)), 1)
    rep_weighted = carleson_constant(mu, HalfIndex.from_ints((1,)), [1.0])
    err_weighted = abs(rep_weighted.sup_estimate - math.pi)
    ok = err_lebesgue <= 1e-9 and err_weighted <= 1e-8
    report(
        "08 carleson-constants",
        ok,
        f"lebesgue k=0: pi {err_lebesgue:.1e} <= 1e-9; weighted example: pi {err_weighted:.1e} <= 1e-8",
    )


def test_criterion_09_weight_shift_identity():
    gallery = [
        (Horizontal(real_gaussian(1)), HalfIndex.from_ints((2,)), HalfIndex.from_ints((1,))),
        (Horizontal(real_gaussian(1)), HalfIndex.from_ints((1,)), HalfIndex.from_ints((1,))),
        (dirac([0.3 + 0.1j]), HalfIndex.from_ints((2,)), HalfIndex.from_ints((1,))),
        (lebesgue(1), HalfIndex.from_halves((1.5,)), HalfIndex.from_halves((0.5,))),
    ]
    worst = 0.0
    lines = []
    for mu, k, p in gallery:
        rep = weight_shift_check(mu, k, p, [1.0])
        scale = max(abs(rep.normalized_rhs), 1e-30)
        worst = max(worst, abs(rep.normalized_lhs - rep.normalized_rhs) / scale)
        lines.append(f"k={k.halves()},p={p.halves()}: stated ratio {rep.stated / rep.c_k:.4g}, "
                     f"prose ratio {rep.prose / rep.c_k:.4g}")
    ok = worst <= 1e-9
    report(
        "09 weight-shift-identity",
        ok,
        f"normalized suprema agree to {worst:.2e} <= 1e-9; orientations reported: " + "; ".join(lines),
    )


def test_criterion_10_lagrangian_pipeline():
    # horizontal coordinate plane: the reference rotation -iI validates exactly
    frame_x = LagrangianFrame(np.array([[1.0, 0.0]]))
    defect_x = rotation_defect(frame_x, np.array([[-1j]]))
    # diagonal plane: the corrected unitary (1/sqrt2)(I - iI) is the adjoint of
    # the vertical rotation (it carries iR^n onto the diagonal); both directions
    # validate at working precision
    frame_d = LagrangianFrame(np.array([[1.0, 1.0]]))
    x_minus = np.array([[(1 - 1j) / math.sqrt(2)]])
    unitarity = float(np.max(np.abs(x_minus.conj().T @ x_minus - np.eye(1))))
    defect_d = rotation_defect(frame_d, x_minus.conj().T)
    # constructed invariant measure: rotated symbol diagonalizes
    b = enumerate_basis(1, 12)
    rho = real_gaussian(1)
    mu = pushforward(Horizontal(rho), frame_x.rotation)
    inv = l_invariance_test(mu, frame_x, b)
    from focklab.lagrangian import assemble_l_real_coderivative

    op = assemble_l_real_coderivative(mu, K1, frame_x, b)
    mult = multiplication_matrix(rho, K1, b)
    residual = interior_max_norm(op.entries - mult.entries, b)
    ok = defect_x <= 1e-12 and unitarity <= 1e-12 and defect_d <= 1e-12 and inv.invariant and residual <= 1e-5
    report(
        "10 lagrangian-pipeline",
        ok,
        f"L_x rotation -iI defect {defect_x:.1e} <= 1e-12; diagonal unitary defect {unitarity:.1e}, "
        f"adjoint-rotation defect {defect_d:.1e} <= 1e-12; invariance {inv.invariant}; "
        f"coderivative residual {residual:.2e} <= 1e-5",
    )


def test_criterion_11_derivative_growth_bound():
    rng = np.random.default_rng(2024)
    b = enumerate_basis(1, 16)
    c_const = 2.0**-1 * math.pi**-0.5 * math.exp((2 * math.sqrt(2) + 1) / 2)
    grid = [complex(x, y) for x in (-3, -1.5, 0, 1.5, 3) for y in (-3, -1.5, 0, 1.5, 3)]
    pows = monomial_matrix(np.array([[z] for z in grid]), list(b.indices))
    violations = 0
    checked = 0
    for k in ((1,), (2,), (3,)):
        bound = np.array(
            [
                c_const
                * math.factorial(k[0])
                * (1 + z.real**2) ** (k[0] / 2)
                * (1 + z.imag**2) ** (k[0] / 2)
                * math.exp(abs(z) ** 2 / 2)
                for z in grid
            ]
        )
        for _ in range(200):
            v = rng.standard_normal(b.size) + 1j * rng.standard_normal(b.size)
            v /= np.linalg.norm(v)
            vals = np.abs(pows @ derivative(v, k, b))
            violations += int(np.sum(vals > bound))
            checked += len(grid)
    report(
        "11 derivative-growth-bound",
        violations == 0,
        f"{violations} violations over {checked} samples (200 unit vectors x 25 grid points x 3 orders)",
    )


def test_criterion_12_weyl_covariance():
    b = enumerate_basis(1, 16)
    worst = 0.0
    for z0 in (0.0, 0.3 + 0.2j, -0.5j, 0.4 - 0.1j):
        for h0 in (0.5, 0.3 + 0.4j, -0.35 - 0.35j):
            z = np.array([z0])
            h = np.array([h0])
            lhs = weyl_matrix(h, b) @ kernel_coefficients(z, b)
            rhs = np.exp(-np.conj(z0) * h0 - abs(h0) ** 2 / 2) * kernel_coefficients(z + h, b)
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    report("12 weyl-covariance", worst <= 1e-8, f"kernel identity residual {worst:.2e} <= 1e-8 for |h| <= 0.5")
