"""What the benchmark needs from ``pbn``.

``bench/tracer.py`` wraps the package's functions by name, reads two
integers from each saddle solve and the map shape from each Gram
factor.  A renamed function or a changed solution type would leave
``--trace 1`` reporting zeros, so the contract is checked here, where
every change runs it.  ``bench/checks.py`` moves the stock network's
parameters with ``Network.with_layer_params`` for its gradient check,
and calls ``gradient`` and ``log_likelihood`` on one sample: the finite
differences it takes of the float ``total`` go into JSON notes.
"""

import functools
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench"))

import tracer  # noqa: E402
from helpers import sample  # noqa: E402

from pbn.errors import LikelihoodUndefinedError, ReconstructionError  # noqa: E402
from pbn.linops import DenseMap, GramFactor  # noqa: E402
from pbn.network import (  # noqa: E402
    LayerSpec,
    Network,
    OutputPriorConfig,
    network_from_dict,
    network_to_dict,
    wordpair_network,
)
from pbn.priors import TRUNCATED_GAUSSIAN  # noqa: E402
from pbn.saddlepoint import solve_saddle  # noqa: E402
from pbn.training import gradient  # noqa: E402


@pytest.mark.parametrize("target", tracer._targets(), ids=lambda t: f"{t[0]}:{t[2]}")
def test_every_traced_target_exists(target):
    _, owner, attr, _ = target
    assert vars(owner).get(attr) is not None


def test_saddle_attributes_of_a_batched_solve():
    m = DenseMap(np.random.default_rng(0).standard_normal((6, 2)))
    z = m.forward(sample(TRUNCATED_GAUSSIAN, np.random.default_rng(1), (3, 6)))
    sol = solve_saddle(m, TRUNCATED_GAUSSIAN, z, label="layer 4")
    layer, iterations = tracer._saddle_attrs((m, TRUNCATED_GAUSSIAN, z), {"label": "layer 4"}, sol, None)
    assert (layer, iterations) == (4, int(np.max(sol.column_iterations)))
    assert isinstance(sol.iterations, int)


def test_saddle_attributes_of_a_failed_solve():
    exc = ReconstructionError("layer 2: no descent direction", iterations=7, residual=1.0)
    assert tracer._saddle_attrs((), {"label": "layer 2"}, None, exc) == (2, 7)


def test_gram_attributes_of_a_real_factor(monkeypatch):
    spans = tracer.Tracer()
    init = spans.wrap("linops.gram_factor", GramFactor.__init__, tracer._gram_attrs)
    monkeypatch.setattr(GramFactor, "__init__", init)
    map_ = wordpair_network(np.random.default_rng(0)).layers[0].map
    assert map_.gram is map_.gram  # built once, by the package's own call
    assert (spans.a, spans.b) == ([900], [405])


def test_moved_parameters_make_the_network_they_describe():
    net = wordpair_network(np.random.default_rng(1))
    rng = np.random.default_rng(2)
    params = [s.map.params + 1e-3 * rng.standard_normal(s.map.params.shape) for s in net.layers]
    biases = [s.bias + 1e-3 for s in net.layers]
    doc = network_to_dict(net)
    for layer, p, b in zip(doc["layers"], params, biases):
        layer["map"]["weights"], layer["bias"] = p.tolist(), b.tolist()
    moved, loaded = net.with_layer_params(params, biases), network_from_dict(doc)
    assert network_to_dict(moved) == doc
    x = rng.standard_normal((1, 900))
    np.testing.assert_array_equal(moved.class_scores(x), loaded.class_scores(x))


def test_one_sample_gradient_has_the_shape_of_every_layer():
    net = wordpair_network(np.random.default_rng(1))
    x = np.random.default_rng(2).standard_normal(900)
    grads_w, _, _ = gradient(net, x, label=1)
    assert [g.shape for g in grads_w] == [s.map.params.shape for s in net.layers]


def test_one_sample_likelihood_is_the_float_of_its_one_row_batch():
    net = wordpair_network(np.random.default_rng(1))
    x = np.random.default_rng(2).standard_normal(900)
    total = net.log_likelihood(x, label=1).total
    assert type(total) is float
    assert total == net.log_likelihood(x[None], label=[1]).total[0]


def test_one_undefined_sample_raises_from_both_calls():
    # a negative input leaves the truncated-Gaussian prior of the first layer
    layers = [
        LayerSpec(DenseMap(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])), np.zeros(2), "truncated_gaussian", "tg"),
        LayerSpec(DenseMap(np.eye(2)), np.zeros(2), "truncated_gaussian", "shift"),
    ]
    net = Network(layers, output_prior=OutputPriorConfig(c=20.0, level=1.0, n_classes=2))
    x = np.array([1.0, -1.0, 1.0])
    for call in (net.log_likelihood, functools.partial(gradient, net)):
        with pytest.raises(LikelihoodUndefinedError) as ei:
            call(x, label=0)
        assert ei.value.layer == 1
