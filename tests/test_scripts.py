"""Smoke runs of the experiment scripts under ``scripts/``, each in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("argv", [
    ["run_lagrangian_demo.py"],
    ["run_diagonalization_gallery.py", "--degrees", "8"],
    ["run_carleson_scan.py", "--window", "1", "--spacing", "1", "--truncation", "6"],
], ids=lambda argv: argv[0].removesuffix(".py"))
def test_script_runs(argv):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
