"""Shared fixtures of the test suite."""

import math
import tracemalloc

import numpy as np
import pytest

from focklab.indices import factorial


def _traced_peak(fn):
    """``fn()`` and the peak bytes ``tracemalloc`` traced while it ran."""
    tracemalloc.start()
    try:
        out = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak


def _derivative(coefficients, a, basis):
    """d^a in coefficients: c_alpha moves to alpha - a scaled by sqrt(alpha! / (alpha - a)!) (reference copy)."""
    out = np.zeros(basis.size, dtype=complex)
    for pos, alpha in enumerate(basis.indices):
        low = tuple(x - y for x, y in zip(alpha, a))
        if min(low) >= 0:
            out[basis.position[low]] = math.sqrt(factorial(alpha) // factorial(low)) * coefficients[pos]
    return out


@pytest.fixture
def traced_peak():
    """The memory-peak helper: ``out, peak = traced_peak(fn)``."""
    return _traced_peak


@pytest.fixture
def derivative():
    """The reference derivative on coefficient vectors: ``derivative(coefficients, a, basis)``."""
    return _derivative
