from pathlib import Path

import numpy as np
import pytest
import yaml

from focklab import cli, spectral
from focklab.cli import ExperimentConfig, load_config, main, run
from focklab.spectral import gamma_samples

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def write_config(tmp_path, name="cfg.yaml", **fields):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(fields))
    return path


def read_summary(out_dir):
    items = {}
    for line in (out_dir / "summary.txt").read_text().splitlines():
        key, _, value = line.partition(": ")
        items[key] = value
    return items


def test_load_config_rejects_unknown_field(tmp_path):
    path = write_config(tmp_path, command="assemble", n=1, truncatoin=4)
    with pytest.raises(ValueError, match="truncatoin"):
        load_config(path)


def test_load_config_rejects_unknown_command(tmp_path):
    path = write_config(tmp_path, command="explode")
    with pytest.raises(ValueError, match="command"):
        load_config(path)


def test_load_config_requires_command(tmp_path):
    path = write_config(tmp_path, n=1)
    with pytest.raises(ValueError, match="command"):
        load_config(path)


def test_load_config_validates_field_types(tmp_path):
    path = write_config(tmp_path, command="assemble", n=1, k=[0.5])
    with pytest.raises(ValueError, match="'k'"):
        load_config(path)


def test_load_config_orders_section(tmp_path):
    path = write_config(tmp_path, command="assemble", orders={"moment": 24, "spectral": 60})
    cfg = load_config(path)
    assert cfg.moment_order == 24 and cfg.spectral_order == 60


def test_assemble_lebesgue_writes_identity(tmp_path):
    cfg = ExperimentConfig(command="assemble", n=1, truncation=6, measure="lebesgue", out=str(tmp_path / "run"))
    assert run(cfg) == 0
    rows = (tmp_path / "run" / "matrix.csv").read_text().strip().splitlines()
    mat = np.array([[float(v) for v in row.split(",")] for row in rows])
    entries = mat[:, 0::2] + 1j * mat[:, 1::2]
    assert np.max(np.abs(entries - np.eye(7))) <= 1e-10
    legend = (tmp_path / "run" / "matrix_legend.csv").read_text().splitlines()
    assert legend[0] == "position,degree,multi_index"
    assert legend[1] == "0,0,0"
    summary = read_summary(tmp_path / "run")
    assert summary["result"] == "ok"


def test_verify_diagonalization_passes(tmp_path):
    cfg = ExperimentConfig(
        command="verify-diagonalization",
        n=1,
        truncation=10,
        measure="horizontal(dirac(0.0))",
        out=str(tmp_path / "run"),
        seed=5,
    )
    assert run(cfg) == 0
    summary = read_summary(tmp_path / "run")
    assert summary["result"] == "pass"
    assert float(summary["residual"]) <= 1e-5
    assert summary["seed"] == "5"
    assert "property" in summary and "tolerance" in summary
    assert (tmp_path / "run" / "gamma.csv").exists()
    assert (tmp_path / "run" / "toeplitz.csv").exists()


def test_verification_failure_gives_exit_one(tmp_path):
    cfg = ExperimentConfig(
        command="commutativity",
        n=1,
        truncation=10,
        measure="horizontal(dirac(0.0))",
        measure2="dirac(1+1j)",
        tolerance=1e-6,
        out=str(tmp_path / "run"),
    )
    assert run(cfg) == 1
    assert read_summary(tmp_path / "run")["result"] == "fail"


def test_commutativity_of_horizontal_pair_passes(tmp_path):
    cfg = ExperimentConfig(
        command="commutativity",
        n=1,
        truncation=16,
        measure="horizontal(gaussian(1.0))",
        measure2="horizontal(gaussian(2.0))",
        out=str(tmp_path / "run"),
    )
    assert run(cfg) == 0


def test_rerun_of_resolved_config_is_bit_identical(tmp_path):
    cfg = ExperimentConfig(
        command="verify-diagonalization",
        n=1,
        truncation=8,
        measure="horizontal(gaussian(1.0))",
        out=str(tmp_path / "first"),
    )
    assert run(cfg) == 0
    resolved = load_config(tmp_path / "first" / "resolved_config.yaml")
    resolved.out = str(tmp_path / "second")
    assert run(resolved) == 0
    first = (tmp_path / "first" / "toeplitz.csv").read_bytes()
    second = (tmp_path / "second" / "toeplitz.csv").read_bytes()
    assert first == second
    g1 = (tmp_path / "first" / "gamma.csv").read_bytes()
    g2 = (tmp_path / "second" / "gamma.csv").read_bytes()
    assert g1 == g2


def test_carleson_command_reports_both_condition_variants(tmp_path):
    cfg = ExperimentConfig(
        command="carleson",
        n=1,
        truncation=8,
        measure="lebesgue",
        k=[0],
        r=[1.0],
        out=str(tmp_path / "run"),
    )
    assert run(cfg) == 0
    summary = read_summary(tmp_path / "run")
    assert summary["condition-m-verbatim-verdict"] == "growth-detected"
    assert summary["condition-m-normalized-verdict"] == "bounded-on-window"
    assert float(summary["carleson-constant"]) == pytest.approx(np.pi, abs=1e-9)


def test_berezin_command_writes_lattice_table(tmp_path):
    cfg = ExperimentConfig(
        command="berezin",
        n=1,
        measure="horizontal(dirac(0.0))",
        k=[2],
        window=1.0,
        spacing=0.5,
        out=str(tmp_path / "run"),
    )
    assert run(cfg) == 0
    lines = (tmp_path / "run" / "berezin.csv").read_text().splitlines()
    assert lines[0] == "x1,y1,re,im"
    assert len(lines) == 1 + 25  # 5x5 lattice
    assert (tmp_path / "run" / "berezin_coderivative.csv").exists()
    summary = read_summary(tmp_path / "run")
    # sup of the transform of dirac(0) (x) Lebesgue is pi^{-1/2} at x = 0
    assert float(summary["sup-berezin"]) == pytest.approx(np.pi**-0.5, rel=1e-10)


def test_assemble_with_coderivative_order(tmp_path):
    cfg = ExperimentConfig(
        command="assemble",
        n=1,
        truncation=6,
        measure="lebesgue",
        k=[2],
        out=str(tmp_path / "run"),
    )
    assert run(cfg) == 0
    rows = (tmp_path / "run" / "matrix.csv").read_text().strip().splitlines()
    mat = np.array([[float(v) for v in row.split(",")] for row in rows])
    entries = mat[:, 0::2] + 1j * mat[:, 1::2]
    np.testing.assert_allclose(np.diag(entries).real, 2.0 * np.arange(7), atol=1e-10)


def test_spectral_command_writes_gamma_table(tmp_path):
    cfg = ExperimentConfig(
        command="spectral",
        n=1,
        truncation=8,
        measure="horizontal(gaussian(1.0))",
        k=[2],
        spectral_order=40,
        out=str(tmp_path / "run"),
    )
    assert run(cfg) == 0
    header = (tmp_path / "run" / "gamma.csv").read_text().splitlines()[0]
    assert header == "x1,re,im"


def test_alpha_reduction_in_verify_diagonalization(tmp_path):
    # alpha-horizontal symbol: weighting by alpha lands on a horizontal one
    # with the order lowered to k - alpha
    cfg = ExperimentConfig(
        command="verify-diagonalization",
        n=1,
        truncation=8,
        measure="alpha_horizontal(gaussian(1.0); 1)",
        k=[4],
        alpha=[2],
        out=str(tmp_path / "run"),
    )
    assert run(cfg) == 0
    assert read_summary(tmp_path / "run")["result"] == "pass"


def test_alpha_reduction_requires_alpha_below_k(tmp_path):
    cfg = ExperimentConfig(
        command="verify-diagonalization",
        n=1,
        truncation=8,
        measure="alpha_horizontal(gaussian(1.0); 1)",
        k=[0],
        alpha=[2],
        out=str(tmp_path / "run"),
    )
    with pytest.raises(ValueError, match="alpha"):
        run(cfg)


def test_lagrangian_command(tmp_path):
    cfg = ExperimentConfig(
        command="lagrangian",
        n=1,
        truncation=10,
        frame=[[1.0, 0.0]],
        measure="pushforward(horizontal(gaussian(1.0)); -1j)",
        k=[0],
        out=str(tmp_path / "run"),
    )
    assert run(cfg) == 0
    summary = read_summary(tmp_path / "run")
    assert float(summary["rotation-defect"]) <= 1e-12
    assert summary["invariant"] == "True"
    assert float(summary["residual"]) <= 1e-5


def test_main_exit_codes(tmp_path, capsys):
    bad = write_config(tmp_path, command="nope")
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(bad)])
    assert exc.value.code == 2
    good = write_config(
        tmp_path,
        name="good.yaml",
        command="assemble",
        n=1,
        truncation=4,
        measure="lebesgue",
        out=str(tmp_path / "out"),
    )
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(good), "--seed", "9"])
    assert exc.value.code == 0
    assert read_summary(tmp_path / "out")["seed"] == "9"


def test_main_rejects_bad_measure_grammar(tmp_path):
    cfg = write_config(tmp_path, command="assemble", n=1, truncation=4, measure="blorb(1)", out=str(tmp_path / "o"))
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(cfg)])
    assert exc.value.code == 2


@pytest.mark.parametrize("mistyped", [{"n": "two"}, {"k": 2}, {"orders": 5}, {"orders": ["moment"]}, {"measure": 5}],
                         ids=["n", "k", "orders", "orders-list", "measure"])
def test_main_mistyped_field_exits_two(tmp_path, capsys, mistyped):
    fields = {"command": "assemble", "truncation": 4, "measure": "lebesgue", "out": str(tmp_path / "o")}
    cfg = write_config(tmp_path, **{**fields, **mistyped})
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(cfg)])
    assert exc.value.code == 2
    assert "invalid input" in capsys.readouterr().err


def test_verify_diagonalization_samples_gamma_once(tmp_path, monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return gamma_samples(*args, **kwargs)

    monkeypatch.setattr(spectral, "gamma_samples", counting)
    monkeypatch.setattr(cli, "gamma_samples", counting)
    cfg = ExperimentConfig(command="verify-diagonalization", n=1, truncation=8,
                           measure="horizontal(dirac(0.0))", out=str(tmp_path / "run"))
    assert run(cfg) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.yaml")), ids=lambda p: p.stem)
def test_shipped_config_reruns_byte_identical(tmp_path, path):
    written = []
    for i in range(2):
        config = load_config(path)
        config.out = str(tmp_path / f"run{i}")
        assert run(config) == 0
        files = sorted(p for p in Path(config.out).iterdir() if p.suffix == ".csv" or p.name == "summary.txt")
        written.append({p.name: p.read_bytes() for p in files})
    assert "summary.txt" in written[0]
    assert written[0] == written[1]
