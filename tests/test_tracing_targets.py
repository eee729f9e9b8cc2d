"""The benchmark's span tracer wraps focklab functions by name; every name must still exist."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("layer", sorted(load_targets()))
def test_traced_functions_exist(layer):
    home = importlib.import_module(f"focklab.{layer}")
    assert [name for name in load_targets()[layer] if not callable(getattr(home, name, None))] == []
