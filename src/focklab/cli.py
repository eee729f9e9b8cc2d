"""Config-driven experiment runner.

One YAML config describes one run; the resolved config (defaults filled) is
emitted next to the results so any run can be reproduced bit-identically:

    fock-lab --config experiment.yaml [--out DIR] [--seed N]

Exit codes: 0 success, 1 verification failed (residual over tolerance),
2 invalid input.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np
import yaml

from . import carleson as carleson_mod
from .basis import enumerate_basis
from .indices import HalfIndex
from .lagrangian import LagrangianFrame, assemble_l_real_coderivative, l_invariance_test, rotation_defect
from .measures import DEFAULT_ORDER, parse_measure, pushforward, weight
from .output import write_complex_grid_csv, write_matrix_csv, write_samples_csv, write_summary
from .quadrature import check_nodes
from .spectral import DEFAULT_SPECTRAL_ORDER, diagonalization_residual, gamma_samples, horizontal_rho, norm_and_spectrum
from .toeplitz import (
    assemble_real_coderivative,
    assemble_toeplitz,
    berezin_coderivative,
    berezin_measure,
    interior_commutator_norm,
)

_OK = [("tolerance", "none"), ("result", "ok")]


@dataclass
class ExperimentConfig:
    """Everything one run needs; parse-validated before any computation."""

    command: str
    n: int = 1
    truncation: int = 10
    measure: str | None = None
    measure2: str | None = None
    k: list[int] | None = None
    p: list[int] | None = None
    alpha: list[int] | None = None
    frame: list[list[float]] | None = None
    moment_order: int = DEFAULT_ORDER
    window: float = 2.0
    spacing: float = 0.5
    r: list[float] | None = None
    out: str = "runs/out"
    seed: int = 0
    tolerance: float | None = None

    def validate(self) -> "ExperimentConfig":
        if self.command not in COMMANDS:
            raise ValueError(f"field 'command': unknown command {self.command!r}; choose from {tuple(COMMANDS)}")
        if self.n < 1:
            raise ValueError(f"field 'n': dimension must be >= 1, got {self.n}")
        if self.truncation < 0:
            raise ValueError(f"field 'truncation': degree must be >= 0, got {self.truncation}")
        for name in ("measure", "measure2"):
            if not isinstance(getattr(self, name), (str, type(None))):
                raise ValueError(f"field {name!r}: expected a measure spec string, got {getattr(self, name)!r}")
        for name in ("k", "p", "alpha"):
            value = getattr(self, name)
            if value is not None:
                if len(value) != self.n or any(int(v) != v for v in value):
                    raise ValueError(f"field {name!r}: expected {self.n} doubled integers, got {value!r}")
                setattr(self, name, [int(v) for v in value])
        if self.r is not None and (len(self.r) != self.n or any(v <= 0 for v in self.r)):
            raise ValueError(f"field 'r': expected {self.n} positive radii, got {self.r!r}")
        if self.moment_order < 1:
            raise ValueError("field 'moment_order' must be >= 1")
        return self


def load_config(path: Path) -> ExperimentConfig:
    try:
        raw = yaml.safe_load(Path(path).read_text())
    except yaml.YAMLError as exc:
        raise ValueError(f"cannot parse config {path}: {exc}") from None
    if not isinstance(raw, dict):
        raise ValueError(f"config {path} must be a mapping of fields")
    known = {f.name for f in fields(ExperimentConfig)}
    unknown = set(raw) - known
    if unknown:
        raise ValueError(f"unknown config fields: {sorted(unknown)}")
    if "command" not in raw:
        raise ValueError("field 'command' is required")
    return ExperimentConfig(**raw).validate()


def _require(config: ExperimentConfig, field_name: str):
    value = getattr(config, field_name)
    if value is None:
        raise ValueError(f"field {field_name!r} is required for command {config.command!r}")
    return value


def _symbol(config: ExperimentConfig, k: HalfIndex, horizontal: bool = False):
    """Parse ``measure``, apply the alpha reduction, and check horizontality.

    On a measure of the form rho (x) nu_{n,alpha} the reduction weights mu by
    alpha and lowers the order to k - alpha; this lands on a horizontal
    symbol whose order-2(k-alpha) operator carries the same spectral data.
    """
    mu = parse_measure(_require(config, "measure"), config.n)
    if config.alpha is not None and any(config.alpha):
        alpha = HalfIndex.from_doubled(config.alpha)
        if not (alpha.is_nonnegative and k.geq(alpha)):
            raise ValueError(f"field 'alpha': reduction needs 0 <= alpha <= k, got alpha={alpha.halves()}, k={k.halves()}")
        mu, k = weight(mu, alpha), k - alpha
    if horizontal and horizontal_rho(mu) is None:
        raise ValueError(f"field 'measure': {config.command} needs a horizontal(...) measure (after alpha reduction)")
    if horizontal:  # gamma.csv holds the flat q^n samples: refuse past the node cap before any work
        check_nodes(DEFAULT_SPECTRAL_ORDER ** config.n)
    return mu, k


def _assemble(config: ExperimentConfig, k: HalfIndex, out: Path):
    mu, k = _symbol(config, k)
    basis = enumerate_basis(config.n, config.truncation)
    if config.frame is not None:
        frame = LagrangianFrame(np.asarray(config.frame, dtype=float))
        op = assemble_l_real_coderivative(mu, k, frame, basis, config.moment_order)
    else:
        op = assemble_real_coderivative(mu, k, basis, config.moment_order)
    write_matrix_csv(op, out / "matrix")
    return [("basis-size", basis.size), ("hermitian-defect", repr(op.hermitian_defect()))] + _OK, False


def _berezin(config: ExperimentConfig, k: HalfIndex, out: Path):
    mu = parse_measure(_require(config, "measure"), config.n)
    z, _ = carleson_mod.lattice(config.n, config.window, config.spacing)
    values = berezin_measure(mu, z, config.moment_order)
    write_complex_grid_csv(z, values, out / "berezin.csv")
    summary = [("sup-berezin", repr(float(np.max(np.abs(values)))))]
    if not k.is_zero:
        cvals = berezin_coderivative(mu, k, z, config.moment_order)
        write_complex_grid_csv(z, cvals, out / "berezin_coderivative.csv")
        summary += [("sup-coderivative-berezin", repr(float(np.max(np.abs(cvals)))))]
    return summary + _OK, False


def _carleson(config: ExperimentConfig, k: HalfIndex, out: Path):
    mu = parse_measure(_require(config, "measure"), config.n)
    cm = carleson_mod.condition_m(mu, config.window, config.spacing, config.moment_order)
    summary = [
        ("condition-m-verbatim-sup", repr(cm.verbatim.sup_estimate)),
        ("condition-m-verbatim-verdict", cm.verbatim.verdict),
        ("condition-m-normalized-sup", repr(cm.normalized.sup_estimate)),
        ("condition-m-normalized-verdict", cm.normalized.verdict),
    ]
    r = config.r if config.r is not None else [1.0] * config.n
    ck = carleson_mod.carleson_constant(mu, k, r, config.window, config.spacing)
    summary += [
        ("carleson-constant", repr(ck.sup_estimate)),
        ("carleson-verdict", ck.verdict),
        ("carleson-argmax", ck.argmax),
    ]
    if k.is_integer and k.is_nonnegative:
        basis = enumerate_basis(config.n, config.truncation)
        kfc = carleson_mod.kfc_verdict(mu, k, basis, config.moment_order)
        summary += [
            ("kfc-omega", repr(kfc.omega)),
            ("kfc-omega-coarse", repr(kfc.omega_coarse)),
            ("kfc-growth-detected", kfc.growth_detected),
        ]
    if config.p is not None:
        p = HalfIndex.from_doubled(config.p)
        shift = carleson_mod.weight_shift_check(mu, k, p, r, config.window, config.spacing)
        summary += [
            ("weight-shift-c-k", repr(shift.c_k)),
            ("weight-shift-stated", repr(shift.stated)),
            ("weight-shift-prose", repr(shift.prose)),
            ("weight-shift-stated-matches", shift.stated_matches),
            ("weight-shift-prose-matches", shift.prose_matches),
            ("weight-shift-normalized-lhs", repr(shift.normalized_lhs)),
            ("weight-shift-normalized-rhs", repr(shift.normalized_rhs)),
        ]
    return summary + _OK, False


def _spectral(config: ExperimentConfig, k: HalfIndex, out: Path):
    mu, k = _symbol(config, k, horizontal=True)
    samples = gamma_samples(mu.rho, k, rho_order=config.moment_order)
    write_samples_csv(samples.grid, samples.values, out / "gamma.csv")
    return [("sup-gamma", repr(float(np.max(np.abs(samples.values)))))] + _OK, False


def _verify_diagonalization(config: ExperimentConfig, k: HalfIndex, out: Path):
    mu, k = _symbol(config, k, horizontal=True)
    basis = enumerate_basis(config.n, config.truncation)
    tolerance = config.tolerance if config.tolerance is not None else 1e-5
    report = diagonalization_residual(mu, k, basis, config.moment_order)
    samples = gamma_samples(mu.rho, k, rho_order=config.moment_order)
    write_matrix_csv(report.toeplitz, out / "toeplitz")
    write_matrix_csv(report.multiplication, out / "multiplication")
    write_samples_csv(samples.grid, samples.values, out / "gamma.csv")
    spectrum = norm_and_spectrum(report.toeplitz, samples)
    failed = report.residual > tolerance
    return [
        ("tolerance", repr(float(tolerance))),
        ("residual", repr(report.residual)),
        ("kernel-route-residual", repr(report.berezin_gap)),
        ("operator-norm", repr(spectrum.operator_norm)),
        ("spectral-radius", repr(spectrum.spectral_radius)),
        ("sup-gamma", repr(spectrum.gamma_sup)),
        ("eig-to-range-distance", repr(spectrum.eig_to_range)),
        ("result", "fail" if failed else "pass"),
    ], failed


def _commutativity(config: ExperimentConfig, k: HalfIndex, out: Path):
    mu1 = parse_measure(_require(config, "measure"), config.n)
    mu2 = parse_measure(_require(config, "measure2"), config.n)
    basis = enumerate_basis(config.n, config.truncation)
    tolerance = config.tolerance if config.tolerance is not None else 1e-6
    op1, op2 = (assemble_toeplitz(mu, basis, config.moment_order).entries for mu in (mu1, mu2))
    norm = interior_commutator_norm(op1, op2, basis)
    failed = norm > tolerance
    return [
        ("tolerance", repr(float(tolerance))),
        ("residual", repr(norm)),
        ("result", "fail" if failed else "pass"),
    ], failed


def _lagrangian(config: ExperimentConfig, k: HalfIndex, out: Path):
    frame = LagrangianFrame(np.asarray(_require(config, "frame"), dtype=float))
    defect = rotation_defect(frame, frame.rotation)
    tolerance = config.tolerance if config.tolerance is not None else 1e-5
    summary = [
        ("rotation-defect", repr(defect)),
        ("rotation", np.array2string(frame.rotation, separator=",")),
    ]
    failed = defect > 1e-12
    if config.measure is not None:
        mu = parse_measure(config.measure, config.n)
        rho = horizontal_rho(pushforward(mu, frame.rotation.conj().T))
        if rho is not None:  # gamma.csv holds the flat q^n samples, as in _symbol
            check_nodes(DEFAULT_SPECTRAL_ORDER ** config.n)
        basis = enumerate_basis(config.n, config.truncation)
        inv = l_invariance_test(mu, frame, basis, config.moment_order)
        summary += [
            ("berezin-variation", repr(inv.berezin_y_variation)),
            ("weyl-commutators", tuple(repr(v) for v in inv.weyl_commutators)),
            ("invariant", inv.invariant),
        ]
        failed = failed or not inv.invariant
        if rho is not None:
            report = diagonalization_residual(rho, k, basis, config.moment_order)
            samples = gamma_samples(rho, k, rho_order=config.moment_order)
            write_matrix_csv(report.toeplitz, out / "matrix")
            write_samples_csv(samples.grid, samples.values, out / "gamma.csv")
            failed = failed or report.residual > tolerance
            summary += [("tolerance", repr(float(tolerance))), ("residual", repr(report.residual))]
        else:
            summary += [("note", "rotated measure is not structurally horizontal; residual skipped")]
    return summary + [("result", "fail" if failed else "pass")], failed


# command -> (handler, the property its summary reports on); a handler writes
# its artifacts into ``out`` and returns its summary items and whether it failed
COMMANDS = {
    "assemble": (_assemble, "dense truncated operator of the measure symbol in the monomial basis"),
    "berezin": (_berezin, "Gaussian-convolution transform of the measure over a lattice"),
    "carleson": (_carleson, "windowed boundedness certification: kernel mass, polydisk mass, embedding constant"),
    "spectral": (_spectral, "spectral function of a horizontal symbol on the quadrature grid"),
    "verify-diagonalization": (_verify_diagonalization,
                               "horizontal symbol: operator matrix equals multiplication by its spectral function"),
    "commutativity": (_commutativity, "operators of horizontal symbols commute on the interior block"),
    "lagrangian": (_lagrangian, "plane validation, vertical rotation, and translation invariance"),
}


def run(config: ExperimentConfig) -> int:
    """Execute one experiment; artifacts land in ``config.out``."""
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    handler, prop = COMMANDS[config.command]
    k = HalfIndex.from_doubled(config.k if config.k is not None else [0] * config.n)
    items, failed = handler(config, k, out)
    # written only once the handler accepted the config, so a refused run leaves no resolved config
    # libyaml's emitter where PyYAML was built with it: the same bytes at a quarter of the time
    dumper = getattr(yaml, "CSafeDumper", yaml.SafeDumper)
    (out / "resolved_config.yaml").write_text(yaml.dump(asdict(config), Dumper=dumper, sort_keys=True))
    summary = [("summary-version", 1), ("command", config.command), ("seed", config.seed), ("property", prop)]
    write_summary(out / "summary.txt", summary + items)
    return 1 if failed else 0


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(prog="fock-lab", description=__doc__)
    parser.add_argument("--config", required=True, help="YAML experiment description")
    parser.add_argument("--out", default=None, help="output directory (overrides config)")
    parser.add_argument("--seed", type=int, default=None, help="run label printed in summary.txt (overrides config)")
    args = parser.parse_args(argv)
    try:
        config = load_config(Path(args.config))
        if args.out is not None:
            config.out = args.out
        if args.seed is not None:
            config.seed = args.seed
        code = run(config)
    except (ValueError, TypeError, OSError) as exc:
        print(f"fock-lab: invalid input: {exc}", file=sys.stderr)
        raise SystemExit(2)
    raise SystemExit(code)


if __name__ == "__main__":
    main()
