import dataclasses
import time
from pathlib import Path

import numpy as np
import pytest
import yaml

from focklab import cli, spectral
from focklab.carleson import lattice
from focklab.cli import ExperimentConfig, load_config, main, run
from focklab.indices import HalfIndex
from focklab.measures import parse_measure
from focklab.spectral import gamma_samples
from focklab.toeplitz import berezin_coderivative, berezin_measure

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


def test_load_config_orders_section(tmp_path, capsys):
    path = write_config(tmp_path, command="assemble", moment_order=24)
    assert load_config(path).moment_order == 24
    # the Hermite side's orders follow from moment_order, D and k: a ``spectral_order`` key is unknown
    path = write_config(tmp_path, command="assemble", spectral_order=60)
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(path)])
    assert exc.value.code == 2
    assert "unknown config fields: ['spectral_order']" in capsys.readouterr().err
    # the orders are set by their own fields only; an ``orders:`` mapping is an unknown field
    path = write_config(tmp_path, command="assemble", orders={"moment": 24, "spectral": 60})
    with pytest.raises(ValueError, match="unknown config fields.*orders"):
        load_config(path)


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


def test_lagrangian_fails_a_measure_that_is_not_invariant(tmp_path):
    # a horizontal Gaussian is not invariant along this tilted plane: the run fails on that alone
    cfg = ExperimentConfig(command="lagrangian", n=2, truncation=8, frame=[[1.0, 0.0, 0.5, 0.3], [0.0, 1.0, 0.3, -0.2]],
                           measure="horizontal(gaussian(1.0))", out=str(tmp_path / "run"))
    assert run(cfg) == 1
    summary = read_summary(tmp_path / "run")
    assert float(summary["rotation-defect"]) <= 1e-12
    assert (summary["invariant"], summary["result"]) == ("False", "fail")


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
    assert not (tmp_path / "o" / "resolved_config.yaml").exists()


@pytest.mark.parametrize("mistyped", [{"n": "two"}, {"k": 2}, {"orders": 5}, {"orders": ["moment"]}, {"measure": 5},
                                      {"measure": "dirac"}, {"measure": "dirac(1 +)"},
                                      {"command": "carleson", "window": 0.4, "spacing": 0.5}],
                         ids=["n", "k", "orders", "orders-list", "measure", "bare-builtin", "malformed-literal",
                              "window-below-spacing"])
def test_main_mistyped_field_exits_two(tmp_path, capsys, mistyped):
    fields = {"command": "assemble", "truncation": 4, "measure": "lebesgue", "out": str(tmp_path / "o")}
    cfg = write_config(tmp_path, **{**fields, **mistyped})
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(cfg)])
    assert exc.value.code == 2
    assert "invalid input" in capsys.readouterr().err
    # a refused config leaves no resolved config behind, even when refused mid-run
    assert not (tmp_path / "o" / "resolved_config.yaml").exists()


@pytest.mark.parametrize("command", ["spectral", "verify-diagonalization"])
def test_four_axis_gamma_table_is_refused_before_any_work(tmp_path, capsys, command):
    # gamma.csv needs the 80^4 flat samples, past MAX_NODES: refused before any matrix is built or written
    cfg = write_config(tmp_path, command=command, n=4, truncation=12, measure="horizontal(gaussian(1.0))",
                       out=str(tmp_path / "o"))
    start = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(cfg)])
    assert time.perf_counter() - start < 5.0
    assert exc.value.code == 2
    assert "discretization needs 40960000 nodes" in capsys.readouterr().err
    assert not list((tmp_path / "o").glob("*.csv"))


def test_four_axis_lagrangian_gamma_table_is_refused_before_any_write(tmp_path, capsys):
    # the vertical frame e_5..e_8 rotates the horizontal measure onto itself, so the run would write
    # gamma.csv's 80^4 flat samples: refused before the invariance test and before matrix.csv
    frame = np.eye(8)[4:].tolist()
    cfg = write_config(tmp_path, command="lagrangian", n=4, truncation=4, frame=frame,
                       measure="horizontal(gaussian(1.0))", out=str(tmp_path / "o"))
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(cfg)])
    assert exc.value.code == 2
    assert "discretization needs 40960000 nodes" in capsys.readouterr().err
    assert not list((tmp_path / "o").glob("*.csv"))


def test_alpha_zero_spectral_run_is_the_horizontal_run(tmp_path):
    # alpha_horizontal(rho; 0) is the horizontal measure: same exit code and same bytes
    written = {}
    for name, measure in [("h", "horizontal(gaussian(1.0))"), ("a", "alpha_horizontal(gaussian(1.0); 0)")]:
        cfg = write_config(tmp_path, f"{name}.yaml", command="spectral", n=1, measure=measure, k=[2],
                           out=str(tmp_path / name))
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(cfg)])
        assert exc.value.code == 0
        written[name] = [(tmp_path / name / f).read_bytes() for f in ("gamma.csv", "summary.txt")]
    assert written["a"] == written["h"]


def test_carleson_lattice_over_the_node_cap_exits_two(tmp_path, capsys):
    cfg = write_config(tmp_path, command="carleson", n=3, measure="lebesgue", window=4.0, spacing=0.25,
                       out=str(tmp_path / "o"))
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(cfg)])
    assert exc.value.code == 2
    assert "discretization needs 1291467969 nodes" in capsys.readouterr().err


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


def read_grid(path):
    rows = np.loadtxt(path, delimiter=",", skiprows=1)
    return rows[:, -2] + 1j * rows[:, -1]


def test_berezin_command_batches_a_two_axis_density(tmp_path):
    # all 6,561 points of the default lattice at the default order 40, paired in blocks of rows
    cfg = ExperimentConfig(command="berezin", n=2, measure="gaussian(1.0)", k=[2, 1], out=str(tmp_path / "run"))
    assert run(cfg) == 0
    values = read_grid(tmp_path / "run" / "berezin.csv")
    coderivative = read_grid(tmp_path / "run" / "berezin_coderivative.csv")
    z, _ = lattice(2, cfg.window, cfg.spacing)
    assert values.shape == coderivative.shape == (6561,)
    mu, k = parse_measure(cfg.measure, 2), HalfIndex.from_doubled(cfg.k)
    for i in range(0, z.shape[0], 97):
        assert abs(values[i] - berezin_measure(mu, z[i])) <= 1e-14
        assert abs(coderivative[i] - berezin_coderivative(mu, k, z[i])) <= 1e-14 * max(1.0, abs(coderivative[i]))


def test_berezin_command_pairs_a_density_lattice_in_blocks_and_refuses_a_centre_over_the_cap(tmp_path, monkeypatch):
    # a non-product density pays q^{2n} evaluations per point; with the cap lowered to 100,000,
    # above one point's 8^4 and below the 2.56M of the 625-point lattice at order 8, it runs in blocks
    from focklab import quadrature

    monkeypatch.setattr(quadrature, "MAX_EVALS", 100_000)
    cfg = ExperimentConfig(command="berezin", n=2, measure="density(exp(-r2))", k=[2, 1], window=1.0,
                           spacing=0.5, moment_order=8, out=str(tmp_path / "run"))
    mu, k = parse_measure(cfg.measure, 2), HalfIndex.from_doubled(cfg.k)
    z, _ = lattice(2, cfg.window, cfg.spacing)
    assert 8 ** 4 < quadrature.MAX_EVALS < z.shape[0] * 8 ** 4
    assert run(cfg) == 0
    values = read_grid(tmp_path / "run" / "berezin.csv")
    coderivative = read_grid(tmp_path / "run" / "berezin_coderivative.csv")
    assert values.shape == coderivative.shape == (625,)
    for i in range(0, z.shape[0], 31):
        assert abs(values[i] - berezin_measure(mu, z[i], 8)) <= 1e-14
        assert abs(coderivative[i] - berezin_coderivative(mu, k, z[i], 8)) <= 1e-14 * max(1.0, abs(coderivative[i]))
    # below one point's evaluations the command is refused
    monkeypatch.setattr(quadrature, "MAX_EVALS", 1_000)
    cfg.out = str(tmp_path / "refused")
    with pytest.raises(ValueError, match="evaluations"):
        run(cfg)


@pytest.mark.skipif(not hasattr(yaml, "CSafeDumper"), reason="PyYAML was built without libyaml")
@pytest.mark.parametrize("name", ["carleson", "diagonalization", "lagrangian", "long"])
def test_resolved_config_is_the_same_bytes_from_either_emitter(tmp_path, name):
    if name == "long":  # a measure string past the 80-column fold, a frame, null fields and list fields
        measure = ("pushforward(horizontal(gaussian(1.0)); "
                   "[[0.7071067811865476+0.7071067811865476j, 0], [0, 0.7071067811865476+0.7071067811865476j]])")
        config = ExperimentConfig(command="assemble", n=2, truncation=3, k=[2, 0], measure=measure,
                                  frame=[[1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0]])
        assert len(measure) > 80 and config.r is None and config.measure2 is None
    else:
        config = load_config(CONFIGS / f"{name}.yaml")
    config.out = str(tmp_path / name)
    assert run(config) == 0
    written = (tmp_path / name / "resolved_config.yaml").read_text()
    fields = dataclasses.asdict(config)
    assert written == yaml.safe_dump(fields, sort_keys=True)
    assert written == yaml.dump(fields, Dumper=yaml.CSafeDumper, sort_keys=True)
    assert load_config(tmp_path / name / "resolved_config.yaml") == config
