"""The benchmark's workloads: seeded inputs, timed cases and their checks.

Each case calls focklab through module attributes looked up at call time
(``F.assemble_toeplitz``, ``cli.run``), so an installed tracer sees every
call.  ``run`` is the only timed part of a case; ``check`` runs afterwards
and returns the reference errors that feed ``accuracy_digits``, or raises
``CaseFailed`` when the program's own verdict fails.
"""

from __future__ import annotations

import dataclasses
import math
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import references as ref

DIAGONALIZATION_TOL = 1e-5  # the verify-diagonalization default tolerance
SPECTRAL_ORDER = 80  # focklab's default spectral order, used by every gamma case below
WEYL_SHIFTS = 3  # the worst of several seeded phases varies less from seed to seed than one


class CaseFailed(Exception):
    """The program's own verdict failed (exit code, residual over tolerance, byte mismatch)."""


@dataclass
class Case:
    name: str
    run: Callable[[dict], object]
    work: int
    check: Callable[[object, dict], list] | None = None


@dataclass(frozen=True)
class Workload:
    work_unit: str
    inputs: Callable[[dict, np.random.Generator], None]
    cases: Callable[[dict], list]


def _matrix_error(label, matrix, expected, scale=None):
    err = float(np.max(np.abs(matrix - expected)))
    return (label, err, float(np.max(np.abs(expected))) if scale is None else scale)


# ---------------------------------------------------------------------------
# assemble: one huge node set per call, no lattice


def _assemble_inputs(ctx, rng):
    m = 8
    ctx["atoms"] = (rng.uniform(-1.2, 1.2, (m, 2)) + 1j * rng.uniform(-1.2, 1.2, (m, 2)),
                    rng.uniform(0.5, 1.5, m))
    ctx["ref"] = {
        "hg2": ref.horizontal_gaussian_toeplitz(2, 20),
        "hg3": ref.horizontal_gaussian_toeplitz(3, 5),
        "gd2": ref.gaussian_density_toeplitz(2, 12),
        "atoms": ref.atoms_toeplitz(*ctx["atoms"], 20),
    }


def _assemble_cases(ctx):
    F, bases, refs = ctx["F"], ctx["bases"], ctx["ref"]

    def entries_check(key, label):
        return lambda op, ctx: [_matrix_error(label, op.entries, refs[key])]

    def identity_check(op, ctx):
        return [_matrix_error(f"lebesgue = identity, D={op.basis.degree}", op.entries,
                              np.eye(op.basis.size), scale=1.0)]

    cases = [
        Case("toeplitz horizontal(gaussian) n=2 D=20",
             lambda c: F.assemble_toeplitz(F.Horizontal(F.real_gaussian(2)), bases[2, 20]),
             bases[2, 20].size ** 2, entries_check("hg2", "horizontal gaussian, closed-form moments")),
        Case("real coderivative horizontal(gaussian) n=2 D=20 2k=(1,1)",
             lambda c: F.assemble_real_coderivative(F.Horizontal(F.real_gaussian(2)), (1, 1), bases[2, 20]),
             bases[2, 20].size ** 2),
        Case("toeplitz horizontal(gaussian) n=3 D=5",
             lambda c: F.assemble_toeplitz(F.Horizontal(F.real_gaussian(3)), bases[3, 5]),
             bases[3, 5].size ** 2, entries_check("hg3", "horizontal gaussian n=3, closed-form moments")),
        Case("toeplitz gaussian_density n=2 D=12 order=20",
             lambda c: F.assemble_toeplitz(F.gaussian_density(2), bases[2, 12], order=20),
             bases[2, 12].size ** 2, entries_check("gd2", "gaussian density = diag 2^(-|a|-n)")),
        Case("toeplitz atoms n=2 D=20",
             lambda c: F.assemble_toeplitz(F.Atoms(*c["atoms"]), bases[2, 20]),
             bases[2, 20].size ** 2, entries_check("atoms", "atoms = direct sum over atoms")),
    ]
    for degree in (30, 50, 60):
        basis = bases[1, degree]
        cases.append(Case(f"toeplitz lebesgue n=1 D={degree}",
                          lambda c, basis=basis: F.assemble_toeplitz(F.lebesgue(1), basis),
                          basis.size ** 2, identity_check))
    return cases


# ---------------------------------------------------------------------------
# lattice: many small per-point node sets, almost no moment pass


def _lattice_points(config) -> int:
    m = int(math.floor(config.window / config.spacing + 1e-9))
    return (2 * m + 1) ** (2 * config.n)


def _lattice_inputs(ctx, rng):
    centers = np.zeros((3, 2), dtype=complex)
    centers[1:] = rng.uniform(-0.8, 0.8, (2, 2)) + 1j * rng.uniform(-0.8, 0.8, (2, 2))
    ctx["balls"] = [(c, rng.uniform(0.6, 1.2, 2)) for c in centers]
    ctx["spots"] = rng.uniform(-1.0, 1.0, (3, 2)) + 1j * rng.uniform(-1.0, 1.0, (3, 2))
    ctx["configs"]["carleson"] = dataclasses.replace(ctx["configs"]["carleson"], seed=ctx["seed"])
    ctx["ref"] = {
        "balls": [ref.gaussian_polydisk_mass(c, r) for c, r in ctx["balls"]],
        "spots": ref.gaussian_berezin(ctx["spots"]),
        "ck": ref.lebesgue_half_weight_polydisk_sup(2, 1.0, 1.0),
    }


def _condition_m_check(label, berezin_of_sq):
    """Compare both suprema and the interior/boundary split with the radial closed form."""
    def check(report, ctx):
        want = ref.condition_m_expected(berezin_of_sq, 2, report.normalized.window, report.normalized.spacing)
        got = {"normalized": report.normalized, "verbatim": report.verbatim}
        out = []
        for kind, expected in want.items():
            err = max(abs(getattr(got[kind], key) - value) for key, value in expected.items())
            out.append((f"{label} condition M ({kind})", err, max(expected.values())))
        return out
    return check


def _lattice_cases(ctx):
    F, refs = ctx["F"], ctx["ref"]
    carleson = ctx["configs"]["carleson"]
    cli_points = _lattice_points(carleson) * (2 + (3 if carleson.p is not None else 0)) * 2

    def spots(c):
        leb = [F.berezin_measure(F.lebesgue(2), z) for z in c["spots"]]
        gauss = [F.berezin_measure(F.gaussian_density(2), z, order=20) for z in c["spots"]]
        return np.array(leb), np.array(gauss)

    def spots_check(values, ctx):
        leb, gauss = values
        return [("lebesgue berezin = 1 at seeded points", float(np.max(np.abs(leb - 1.0))), 1.0),
                _matrix_error("gaussian berezin = 2^-n e^(-|z|^2/2) at seeded points", gauss, refs["spots"])]

    def balls(c):
        return np.array([F.ball_mass(F.gaussian_density(2), center, r) for center, r in c["balls"]])

    def ck_check(report, ctx):
        return [("lebesgue polydisk constant, k=1/2", abs(report.sup_estimate - refs["ck"]), refs["ck"])]

    return [
        Case("condition_m lebesgue n=2 window=1 spacing=1",
             lambda c: F.condition_m(F.lebesgue(2), window=1.0, spacing=1.0), 81,
             _condition_m_check("lebesgue", lambda sq: np.ones_like(sq))),
        Case("carleson_constant lebesgue n=2 2k=(1,1) r=(1,1) window=1 spacing=0.5",
             lambda c: F.carleson_constant(F.lebesgue(2), (1, 1), (1.0, 1.0), window=1.0, spacing=0.5), 625,
             ck_check),
        Case("condition_m gaussian_density n=2 window=1 spacing=1 order=20",
             lambda c: F.condition_m(F.gaussian_density(2), 1.0, 1.0, order=20), 81,
             _condition_m_check("gaussian", lambda sq: 0.25 * np.exp(-0.5 * sq))),
        Case("berezin_measure lebesgue + gaussian_density at 3 seeded points", spots, 6, spots_check),
        Case("ball_mass gaussian_density n=2 at 3 seeded polydisks", balls, 3,
             lambda masses, ctx: [_matrix_error("gaussian polydisk mass (noncentral chi-square)",
                                                masses, np.array(refs["balls"]))]),
        Case("cli.run configs/carleson.yaml x2", lambda c: _cli_twice(c, "carleson"), cli_points, _cli_check),
    ]


# ---------------------------------------------------------------------------
# diagonalize: spectral and Lagrangian side


def _diagonalize_inputs(ctx, rng):
    F = ctx["F"]
    ctx["shifts"] = 2.0 * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, WEYL_SHIFTS))
    ctx["frame"] = F.LagrangianFrame(np.array([[1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0]]))
    ctx["diagonal_measure"] = F.pushforward(F.Horizontal(F.real_gaussian(2)), np.diag([(1 + 1j) / math.sqrt(2)] * 2))
    for name in ("diagonalization", "lagrangian"):
        ctx["configs"][name] = dataclasses.replace(ctx["configs"][name], seed=ctx["seed"])
    ctx["ref"] = {"weyl": [ref.weyl_table(h, 40) for h in ctx["shifts"]]}


def _diagonalize_cases(ctx):
    F, bases, refs = ctx["F"], ctx["bases"], ctx["ref"]
    rho = F.real_gaussian(2)
    grid_points = SPECTRAL_ORDER**2
    diag_cfg, lag_cfg = ctx["configs"]["diagonalization"], ctx["configs"]["lagrangian"]
    cli_diag = 2 * 2 * SPECTRAL_ORDER**diag_cfg.n  # gamma_samples twice per run
    cli_lag = 2 * SPECTRAL_ORDER**lag_cfg.n

    def residual(c):
        c["diag_report"] = F.diagonalization_residual(F.Horizontal(rho), (0, 0), bases[2, 16])
        return c["diag_report"]

    def residual_check(report, ctx):
        if report.residual > DIAGONALIZATION_TOL:
            raise CaseFailed(f"diagonalization residual {report.residual:.3e} > {DIAGONALIZATION_TOL}")
        return []

    def gamma(two_k, key):
        def run(c):
            c[key] = F.gamma_samples(rho, two_k)
            return c[key]
        return run

    def gamma_check(two_k):
        def check(samples, ctx):
            expected = ref.gaussian_gamma(samples.grid, two_k)
            return [_matrix_error(f"gaussian gamma, 2k={two_k}, closed form", samples.values, expected)]
        return check

    def invariance_note(report, ctx):
        ctx["notes"].add(f"l_invariance_test verdict invariant={report.invariant} "
                         f"(weyl commutators {max(report.weyl_commutators):.2e}, commutator_tol 1e-4, D=6)")
        return []

    def vx_check(v, ctx):
        return [_matrix_error("V_X unitary in truncation", v.conj().T @ v, np.eye(v.shape[0]), scale=1.0)]

    def weyl_check(matrices, ctx):
        return [_matrix_error("weyl entries vs mpmath Laguerre closed form", w, expected)
                for w, expected in zip(matrices, refs["weyl"])]

    return [
        Case("diagonalization_residual horizontal(gaussian) n=2 D=16 k=0", residual, grid_points, residual_check),
        Case("gamma_samples gaussian n=2 2k=(0,0)", gamma((0, 0), "gamma_k0"), grid_points, gamma_check((0, 0))),
        Case("gamma_samples gaussian n=2 2k=(1,1)", gamma((1, 1), "gamma_k11"), grid_points, gamma_check((1, 1))),
        Case("norm_and_spectrum D=16", lambda c: F.norm_and_spectrum(c["diag_report"].toeplitz, c["gamma_k0"]), 0),
        Case("l_invariance_test diagonal plane n=2 D=6",
             lambda c: F.l_invariance_test(c["diagonal_measure"], c["frame"], bases[2, 6]), 0, invariance_note),
        Case("vx_matrix diagonal plane n=2 D=16", lambda c: F.vx_matrix(c["frame"].rotation, bases[2, 16]), 0, vx_check),
        Case(f"weyl_matrix n=1 D=40 |h|=2 at {WEYL_SHIFTS} seeded phases",
             lambda c: [F.weyl_matrix(h, bases[1, 40]) for h in c["shifts"]], 0, weyl_check),
        Case("cli.run configs/diagonalization.yaml x2", lambda c: _cli_twice(c, "diagonalization"), cli_diag, _cli_check),
        Case("cli.run configs/lagrangian.yaml x2", lambda c: _cli_twice(c, "lagrangian"), cli_lag, _cli_check),
    ]


# ---------------------------------------------------------------------------
# config runs through cli.run, written twice for the byte-stability check


def _cli_twice(ctx, name):
    tmp = Path(tempfile.mkdtemp(dir=ctx["scratch"]))
    codes = [ctx["cli"].run(dataclasses.replace(ctx["configs"][name], out=str(tmp / f"run{i}"))) for i in (0, 1)]
    return {"codes": codes, "dir": tmp}


def _cli_check(result, ctx):
    """Exit codes 0 and byte-identical CSVs and summary.txt across the two writes."""
    tmp = result["dir"]
    try:
        if any(code != 0 for code in result["codes"]):
            raise CaseFailed(f"cli.run exit codes {result['codes']}")
        names = [sorted(p.name for p in (tmp / f"run{i}").iterdir() if p.suffix == ".csv" or p.name == "summary.txt")
                 for i in (0, 1)]
        if names[0] != names[1] or "summary.txt" not in names[0]:
            raise CaseFailed(f"cli.run wrote different file sets: {names}")
        for fname in names[0]:
            if (tmp / "run0" / fname).read_bytes() != (tmp / "run1" / fname).read_bytes():
                raise CaseFailed(f"cli.run output {fname} differs between two identical runs")
        return []
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


WORKLOADS = {
    "assemble": Workload("entries", _assemble_inputs, _assemble_cases),
    "lattice": Workload("points", _lattice_inputs, _lattice_cases),
    "diagonalize": Workload("samples", _diagonalize_inputs, _diagonalize_cases),
}
