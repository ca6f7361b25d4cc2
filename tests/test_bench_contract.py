"""What the benchmark's trace mode needs from ``pbn``.

``bench/tracer.py`` wraps the package's functions by name and reads two
integers from each saddle solve.  A renamed function or a changed
solution type would leave ``--trace 1`` reporting zeros, so the contract
is checked here, where every change runs it.
"""

import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench"))

import tracer  # noqa: E402

from pbn.errors import ReconstructionError  # noqa: E402
from pbn.linops import DenseMap  # noqa: E402
from pbn.priors import TRUNCATED_GAUSSIAN  # noqa: E402
from pbn.saddlepoint import solve_saddle  # noqa: E402


@pytest.mark.parametrize("target", tracer._targets(), ids=lambda t: f"{t[0]}:{t[2]}")
def test_every_traced_target_exists(target):
    _, owner, attr, _ = target
    assert vars(owner).get(attr) is not None


def test_saddle_attributes_of_a_batched_solve():
    m = DenseMap(np.random.default_rng(0).standard_normal((6, 2)))
    z = m.forward(TRUNCATED_GAUSSIAN.sample(np.random.default_rng(1), (3, 6)))
    sol = solve_saddle(m, TRUNCATED_GAUSSIAN, z, label="layer 4")
    layer, iterations = tracer._saddle_attrs((m, TRUNCATED_GAUSSIAN, z), {"label": "layer 4"}, sol, None)
    assert (layer, iterations) == (4, int(np.max(sol.column_iterations)))
    assert isinstance(sol.iterations, int)


def test_saddle_attributes_of_a_failed_solve():
    exc = ReconstructionError("layer 2: no descent direction", iterations=7, residual=1.0)
    assert tracer._saddle_attrs((), {"label": "layer 2"}, None, exc) == (2, 7)
