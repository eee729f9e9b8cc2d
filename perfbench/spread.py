"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload lattice --seeds 1 2 3 4 5

For every end-to-end metric this prints the median of the runs, the
quartiles from ``statistics.quantiles(values, n=4)``, and the spread
(Q3 - Q1) / median next to the metric's bound from ``BENCHMARK.json``.  It
also pools every run's pass times, so the wall-time percentile with ten
samples beyond it exists, and prints per-case medians.  Runs are sequential.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

sys.path.insert(0, str(HERE))
from run import OUT, percentile_beyond_ten  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    values, walls, cases, failed = {}, [], {}, 0
    for seed in args.seeds:
        cmd = spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                                 "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        failed += result["failed"] + (not result["correct"])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        record = json.loads((OUT / f"result-{args.workload}-seed{seed}-trace0.json").read_text())
        walls += record["wall_samples_s"]
        for name, case in record["cases"].items():
            cases.setdefault(name, []).extend(case["seconds"])
        print(f"seed {seed}: " + "  ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print(f"\n{args.workload}: {len(args.seeds)} runs, {failed} failed or incorrect")
    print(f"{'metric':18s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
    for name, vals in values.items():
        q1, _, q3 = statistics.quantiles(vals, n=4)
        med = statistics.median(vals)
        spread = (q3 - q1) / med if med else float("inf")
        print(f"{name:18s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} {bounds.get(name, float('nan')):6.3f}")
    pct, value = percentile_beyond_ten(walls)
    if pct is not None:
        print(f"pooled pass wall: median {statistics.median(walls):.4f} s, p{pct:.1f} {value:.4f} s, {len(walls)} samples")
    print("per-case median seconds:")
    for name, secs in cases.items():
        print(f"  {statistics.median(secs):9.4f}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
