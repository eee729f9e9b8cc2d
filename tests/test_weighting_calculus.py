"""The weighting calculus: weighting by p and then by q is weighting by p + q."""

import numpy as np
import pytest

st = pytest.importorskip("hypothesis.strategies")
from hypothesis import given, settings  # noqa: E402

from focklab.indices import HalfIndex, graded_lex_indices  # noqa: E402
from focklab.measures import (  # noqa: E402
    AlphaHorizontal,
    Atoms,
    Horizontal,
    RealAtoms,
    gaussian_density,
    lebesgue,
    moment_table,
    pushforward,
    real_gaussian,
    weight,
)

N = 2
MEASURES = {
    "horizontal": lebesgue(N),
    "alpha-atoms": AlphaHorizontal(RealAtoms([[0.3, -0.5], [-0.2, 0.7]], [1.0, 0.5j]), (2, 1)),
    "density": gaussian_density(N),
    "atoms": Atoms([[0.3 + 0.1j, -0.5j], [0.3, 0.7 + 0.2j]], [1.0, 0.5j]),
    "pushforward": pushforward(Horizontal(real_gaussian(N)), np.linalg.qr([[1.0 + 0.3j, 0.2], [-0.4j, 0.9]])[0]),
}
HALF_INDICES = st.lists(st.integers(-3, 3), min_size=N, max_size=N).map(HalfIndex.from_doubled)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(MEASURES)), HALF_INDICES, HALF_INDICES)
def test_repeated_weighting_is_one_weighting(name, p, q):
    once = weight(MEASURES[name], p + q)
    twice = weight(weight(MEASURES[name], p), q)
    assert type(twice) is type(once)
    idx = graded_lex_indices(N, 4)
    want = moment_table(once, idx, 12)
    assert np.max(np.abs(moment_table(twice, idx, 12) - want)) <= 1e-13 * np.max(np.abs(want))
