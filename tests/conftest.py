"""Shared fixtures of the test suite."""

import tracemalloc

import pytest


def _traced_peak(fn):
    """``fn()`` and the peak bytes ``tracemalloc`` traced while it ran."""
    tracemalloc.start()
    try:
        out = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak


@pytest.fixture
def traced_peak():
    """The memory-peak helper: ``out, peak = traced_peak(fn)``."""
    return _traced_peak
