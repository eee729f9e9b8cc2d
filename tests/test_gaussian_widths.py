"""Gaussian widths and nu_alpha integrated exactly: rules fitted to the weight.

A Gaussian of width sigma against the Fock weight is one Gaussian per real
direction, so ``gaussian(sigma)``, ``real_gaussian`` and ``gaussian_density``
integrate on the Gauss-Hermite rule of that combined weight and are exact at
the order the moment pass already uses, at every sigma.  The y-density
(1+v^2)^{-alpha} of nu_alpha gets a rule of its own weight too.  References
here are closed forms, an order-200 sum built inline, and mpmath's v-moments.
"""

import math

import numpy as np
import pytest

from focklab import measures
from focklab.basis import enumerate_basis
from focklab.cli import ExperimentConfig, run
from focklab.indices import orthonormal_powers
from focklab.measures import AlphaHorizontal, Horizontal, gaussian_density, moment_table, real_gaussian
from focklab.spectral import gamma_2k
from focklab.toeplitz import assemble_toeplitz, berezin_measure


def _axis(degree):
    return [(d,) for d in range(degree + 1)]


def rescaled_reference(sigma, degree):
    """The table of Horizontal(real_gaussian(1, sigma)) summed node by node at order 200: the Gauss-Hermite rule
    of e^{-(1 + 1/sigma^2) t^2} in t (nodes s_i / k, weights w_i / k) and of e^{-v^2} in v."""
    s, w = np.polynomial.hermite.hermgauss(200)
    k = math.sqrt(1.0 + sigma**-2)
    z = ((s / k)[:, None] + 1j * s[None, :]).ravel()
    e = orthonormal_powers(degree, z)
    return (e * np.multiply.outer(w / k, w).ravel()[:, None]).T @ np.conj(e)


@pytest.mark.parametrize("degree", [20, 60])
@pytest.mark.parametrize("sigma", [0.1, 0.25, 0.5, 2.0])
def test_narrow_and_wide_horizontal_gaussians_are_exact_at_the_default_order(sigma, degree):
    want = rescaled_reference(sigma, degree)
    got = moment_table(Horizontal(real_gaussian(1, sigma)), _axis(degree))
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_verify_diagonalization_reports_the_exact_norm_of_a_narrow_gaussian(tmp_path):
    cfg = ExperimentConfig(command="verify-diagonalization", n=1, truncation=20,
                           measure="horizontal(gaussian(0.1))", k=[0], out=str(tmp_path / "run"))
    assert run(cfg) == 0
    summary = dict(line.split(": ", 1) for line in (tmp_path / "run" / "summary.txt").read_text().splitlines())
    exact = float(np.max(np.abs(np.linalg.eigvalsh(rescaled_reference(0.1, 20) / math.pi))))
    assert summary["operator-norm"].startswith("0.1339")
    assert float(summary["operator-norm"]) == pytest.approx(exact, rel=1e-13)


def test_repeated_gaussian_tables_build_no_new_kernel(monkeypatch):
    monkeypatch.setattr(measures, "_kernels", {})
    basis = enumerate_basis(2, 12)
    for sigma in (1.0, 0.5):
        assemble_toeplitz(Horizontal(real_gaussian(2, sigma)), basis)
    held = dict(measures._kernels)
    for _ in range(2):
        for sigma in (1.0, 0.5):
            assemble_toeplitz(Horizontal(real_gaussian(2, sigma)), basis)
    assert measures._kernels.keys() == held.keys()
    assert all(measures._kernels[key] is g for key, g in held.items())
    # sigma = 1 and sigma = 0.5 sit on the nodes over sqrt(2) and sqrt(5): two kernels, one per width
    wide, narrow = (held[(40, 12, 0, math.sqrt(1.0 + sigma**-2))] for sigma in (1.0, 0.5))
    assert len(held) == 2 and not np.array_equal(wide, narrow)


@pytest.mark.parametrize("doubled", [1, 2, 3])
def test_alpha_horizontal_tables_match_the_closed_form_v_moments(doubled):
    mp = pytest.importorskip("mpmath")
    degree = 20
    with mp.workdps(40):
        alpha = mp.mpf(doubled) / 2
        # int v^{2m} e^{-v^2} (1+v^2)^{-alpha} dv and int t^{2m} e^{-2 t^2} dt
        v = [mp.gamma(m + mp.mpf(0.5)) * mp.hyperu(m + mp.mpf(0.5), m + mp.mpf(1.5) - alpha, 1)
             for m in range(degree + 1)]
        t = [mp.gamma(m + mp.mpf(0.5)) / mp.mpf(2) ** (m + mp.mpf(0.5)) for m in range(degree + 1)]
        want = np.empty((degree + 1, degree + 1))
        for a in range(degree + 1):
            for b in range(degree + 1):
                # (t + iv)^a (t - iv)^b: the terms with even powers of v and of t, i^(j+l) (-1)^l real
                total = mp.fsum(math.comb(a, j) * math.comb(b, l) * (-1) ** ((j + l) // 2 + l)
                                * t[(a + b - j - l) // 2] * v[(j + l) // 2]
                                for j in range(a + 1) for l in range(b + 1) if (j + l) % 2 == 0 and (a + b) % 2 == 0)
                want[a, b] = float(total / mp.sqrt(mp.factorial(a) * mp.factorial(b)))
    got = moment_table(AlphaHorizontal(real_gaussian(1), (doubled,)), _axis(degree))
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


# properties over the width, sigma in [0.1, 2]; sigma = 0.1 always runs
st = pytest.importorskip("hypothesis.strategies")
from hypothesis import example, given, settings  # noqa: E402

SIGMAS = st.floats(0.1, 2.0)


@settings(max_examples=10, deadline=None, derandomize=True)
@example(sigma=0.1, degree=40)
@given(sigma=SIGMAS, degree=st.integers(0, 40))
def test_gaussian_density_operator_is_the_diagonal(sigma, degree):
    want = np.diag((sigma**2 / (1.0 + sigma**2)) ** (np.arange(degree + 1) + 1.0))
    got = assemble_toeplitz(gaussian_density(1, sigma), enumerate_basis(1, degree)).entries
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(want)


@settings(max_examples=10, deadline=None, derandomize=True)
@example(sigma=0.1, radius=2.0, angle=0.7)
@given(sigma=SIGMAS, radius=st.floats(0.0, 2.0), angle=st.floats(0.0, 2.0 * math.pi))
def test_gaussian_berezin_is_the_closed_form(sigma, radius, angle):
    want = sigma**2 / (1.0 + sigma**2) * math.exp(-radius**2 / (1.0 + sigma**2))
    got = berezin_measure(gaussian_density(1, sigma), [radius * complex(math.cos(angle), math.sin(angle))])
    assert abs(got - want) <= 1e-14 * want


@settings(max_examples=10, deadline=None, derandomize=True)
@example(sigma=0.1, x=[0.0, 1.3, -3.0])
@given(sigma=SIGMAS, x=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=5))
def test_gaussian_gamma_is_the_closed_form(sigma, x):
    x = np.array(x)
    want = math.sqrt(2.0 * sigma**2 / (1.0 + 2.0 * sigma**2)) * np.exp(-x**2 / (1.0 + 2.0 * sigma**2))
    got = gamma_2k(real_gaussian(1, sigma), (0,), x[:, None])
    assert np.all(np.abs(got - want) <= 1e-14 * want)
