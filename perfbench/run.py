"""focklab benchmark: one workload per run, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload assemble --seed 1 --seconds 38 --trace 0

Run from the repository root.  The package is imported from ``src/`` next to
this directory.

- ``--trace 0`` times whole passes over the workload's case list, as many as
  fit in ``--seconds`` seconds but at least two, and reports the end-to-end
  metrics.
- ``--trace 1`` runs a memory-tracking warm-up pass, a traced pass and an
  untraced pass, and reports the per-layer metrics.

The last line of standard output is one JSON object.  The lines before it,
and ``perfbench/out/``, hold the details: environment, per-case times,
reference checks, counts and spans.

Only the standard library is imported at module level, so that the measured
set-up (``setup_s``) includes importing numpy along with focklab.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
# fresh-interpreter set-ups after every pass; setup_s is the fastest set-up of
# the run, since machine noise only ever lengthens one
SETUP_PROBES_PER_PASS = 6
MIN_PASSES = 2
# what each workload builds before timing starts: bases, cold Gauss-Hermite
# rules at every order its cases use, and the configs it parses
PLANS = {
    "assemble": {"bases": [(2, 20), (3, 5), (2, 12), (1, 30), (1, 50), (1, 60)],
                 "rules": [20, 40, 51, 61], "configs": []},
    "lattice": {"bases": [], "rules": [20, 40], "configs": ["carleson"]},
    "diagonalize": {"bases": [(2, 16), (2, 6), (1, 40)], "rules": [40, 80],
                    "configs": ["diagonalization", "lagrangian"]},
}


def prepare(workload: str) -> dict:
    """The timed set-up: import, basis enumeration, cold Gauss-Hermite rules, config parsing."""
    import focklab
    from focklab import cli

    plan = PLANS[workload]
    bases = {(n, d): focklab.enumerate_basis(n, d) for n, d in plan["bases"]}
    for order in plan["rules"]:
        focklab.gauss_hermite(order)
    configs = {name: cli.load_config(ROOT / "configs" / f"{name}.yaml") for name in plan["configs"]}
    return {"F": focklab, "cli": cli, "bases": bases, "configs": configs}


def setup_probe(workload: str) -> float:
    """One set-up in a fresh interpreter, timed inside it."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--setup-probe"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


def finite(obj) -> bool:
    """Whether every number reachable from a result (arrays, dataclasses, containers) is finite."""
    import dataclasses

    import numpy as np

    if isinstance(obj, (float, complex)):
        return bool(np.isfinite(obj))
    if isinstance(obj, np.ndarray):
        return obj.dtype.kind not in "fc" or bool(np.all(np.isfinite(obj)))
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return all(finite(getattr(obj, f.name)) for f in dataclasses.fields(obj))
    if isinstance(obj, (tuple, list)):
        return all(finite(v) for v in obj)
    if isinstance(obj, dict):
        return all(finite(v) for v in obj.values())
    return True


def run_pass(cases, ctx, failures: list, checks: list) -> list[float]:
    """Run every case once; returns per-case seconds.  Only ``case.run`` is timed."""
    from workloads import CaseFailed

    times = []
    for case in cases:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            t0 = time.perf_counter()
            try:
                result, error = case.run(ctx), None
            except Exception as exc:  # a raising case is a failed operation, not a crash
                result, error = None, f"{type(exc).__name__}: {exc}"
            times.append(time.perf_counter() - t0)
        for w in caught:
            ctx["notes"].add(f"{case.name}: {w.category.__name__}: {str(w.message)[:120]}")
        if error is None and not finite(result):
            error = "non-finite value in result"
        if error is None and case.check is not None:
            try:
                checks.extend(case.check(result, ctx))
            except CaseFailed as exc:
                error = str(exc)
        if error is not None:
            failures.append(f"{case.name}: {error}")
    return times


def environment(seed: int) -> dict:
    import mpmath
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    threads = {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS") if k in os.environ}
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads": threads or "library default (no thread variable set)",
        "seed": seed,
    }


def percentile_beyond_ten(samples: list[float]) -> tuple[float | None, float | None]:
    """Highest percentile with at least ten samples above it, and its value (None if n < 11)."""
    n = len(samples)
    if n < 11:
        return None, None
    pct = 100.0 * (n - 10) / n
    ordered = sorted(samples)
    return pct, ordered[n - 11]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(PLANS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))

    if args.setup_probe:
        t0 = time.perf_counter()
        prepare(args.workload)
        print(repr(time.perf_counter() - t0))
        return 0

    run_start = time.perf_counter()
    tracer = None
    if args.trace:
        import focklab  # noqa: F401  (the tracer wraps functions of the imported package)

        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    t0 = time.perf_counter()
    ctx = prepare(args.workload)
    setup_samples = [time.perf_counter() - t0] if tracer is None else []
    if tracer is not None:
        tracer.uninstall()

    import numpy as np

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    ctx.update(seed=args.seed, notes=set(), scratch=tempfile.mkdtemp(dir=OUT, prefix="scratch-"))
    t_ref = time.perf_counter()
    workload.inputs(ctx, np.random.default_rng(args.seed))
    cases = workload.cases(ctx)
    reference_s = time.perf_counter() - t_ref

    failures, checks, passes = [], [], []
    try:
        if tracer is None:
            while True:
                passes.append(run_pass(cases, ctx, failures, checks))
                t_probe = time.perf_counter()
                setup_samples += [setup_probe(args.workload) for _ in range(SETUP_PROBES_PER_PASS)]
                # stop unless another pass and probe batch as long as the last still fit in --seconds
                now = time.perf_counter()
                if len(passes) >= MIN_PASSES and now - run_start + sum(passes[-1]) + now - t_probe > args.seconds:
                    break
        else:
            # warm-up, traced, untraced: the overhead compares two warm passes.  tracemalloc
            # slows the measures calls severalfold, so memory is taken in the warm-up only.
            memory = Tracer(track_memory=True)
            memory.install()
            passes.append(run_pass(cases, ctx, failures, checks))
            memory.uninstall()
            tracer.install()
            mark = len(tracer.spans)
            passes.append(run_pass(cases, ctx, failures, checks))
            tracer.uninstall()
            passes.append(run_pass(cases, ctx, failures, checks))
    finally:
        shutil.rmtree(ctx["scratch"], ignore_errors=True)

    from references import digits

    walls = [sum(p) for p in passes]
    work = sum(case.work for case in cases)
    worst = {}
    for label, err, scale in checks:
        d = digits(err, scale)
        if label not in worst or d < worst[label][0]:
            worst[label] = (d, err, scale)
    accuracy = min((d for d, _, _ in worst.values()), default=0.0)
    attempted = len(cases) * len(passes)
    correct = not failures and bool(checks) and accuracy >= 1.0
    env = environment(args.seed)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "environment": env,
        "setup_samples_s": setup_samples, "reference_build_s": reference_s,
        "wall_samples_s": walls, "work_unit": workload.work_unit, "work_per_pass": work,
        "cases": {c.name: {"seconds": [p[i] for p in passes], "work": c.work} for i, c in enumerate(cases)},
        "checks": {label: {"digits": d, "max_error": e, "scale": s} for label, (d, e, s) in worst.items()},
        "failures": failures, "notes": sorted(ctx["notes"]),
    }

    if tracer is None:
        wall = statistics.median(walls)
        metrics = {
            "wall_s": (wall, "s"),
            "throughput_per_s": (work / wall, "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "accuracy_digits": (accuracy, "digits"),
            "setup_s": (min(setup_samples), "s"),
        }
        pct, value = percentile_beyond_ten(walls)
        record["wall_percentile"] = {"samples": len(walls), "percentile": pct, "value_s": value}
        record[f"{workload.work_unit}_per_s"] = work / wall
    else:
        _, traced, untraced = walls
        layer = tracer.layer_metrics(traced, untraced, traced - tracer.covered_since(mark),
                                     _weight_rel_err(ctx["F"]), memory.largest_alloc_mb())
        per_layer = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
        metrics = {m["name"]: (layer[m["name"]], m["unit"]) for m in per_layer}
        env["tracing_overhead_s"] = traced - untraced
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write(trace_path, {"workload": args.workload, "seed": args.seed, "environment": env})
        record["trace_file"] = str(trace_path.relative_to(ROOT))
    record["metrics"] = {k: v for k, (v, _) in metrics.items()}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))

    _print_details(record, metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def _weight_rel_err(F) -> float:
    """Largest relative Gauss-Hermite weight error against numpy's hermgauss at orders 40 and 80."""
    import numpy as np

    worst = 0.0
    for order in (40, 80):
        expected = np.polynomial.hermite.hermgauss(order)[1]
        worst = max(worst, float(np.max(np.abs(F.gauss_hermite(order).weights - expected) / expected)))
    return worst


def _print_details(record: dict, metrics: dict) -> None:
    print(f"# workload {record['workload']}  seed {record['seed']}  trace {record['trace']}")
    for key, value in record["environment"].items():
        print(f"#   env {key}: {value}")
    if record["setup_samples_s"]:
        print(f"#   setup samples (s): {', '.join(f'{s:.4f}' for s in record['setup_samples_s'])}")
    print(f"#   reference build (s, not in any metric): {record['reference_build_s']:.3f}")
    for name, case in record["cases"].items():
        print(f"#   case {statistics.median(case['seconds']):9.4f} s  {name}")
    print(f"#   pass walls (s): {', '.join(f'{w:.4f}' for w in record['wall_samples_s'])}")
    if "wall_percentile" in record:
        wp = record["wall_percentile"]
        if wp["percentile"] is None:
            print(f"#   wall percentile: {wp['samples']} samples, fewer than 11, so no percentile has ten beyond it;"
                  " pool runs with perfbench/spread.py")
        else:
            print(f"#   wall p{wp['percentile']:.1f}: {wp['value_s']:.4f} s over {wp['samples']} samples")
    for label, c in record["checks"].items():
        print(f"#   check {c['digits']:6.2f} digits  err {c['max_error']:.3e} / {c['scale']:.3e}  {label}")
    for note in record["notes"]:
        print(f"#   note {note}")
    for failure in record["failures"]:
        print(f"#   FAILED {failure}")
    for name, (value, unit) in metrics.items():
        print(f"#   {name} = {value!r} {unit}")


if __name__ == "__main__":
    sys.exit(main())
