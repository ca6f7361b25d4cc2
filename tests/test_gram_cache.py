"""The kept unit Gram factor against the per-sample factor it replaces.

Every map keeps its unit-weight GramFactor (``LinearMap.gram``), and
the fold of W S^-1 onto its parameters (``LinearMap.logdet_grad``) once
asked.  The oracle below restores the per-solve construction: a fresh
unit factor on every access (every seed, and every unit-weight
curvature of a solve, reads it anew), and a fresh S^-1 and log-det fold
on every use; curvature factors with other weights are built per solve
either way.  Results must agree bit for bit, because both paths run the
same arithmetic.

A parameter update, by a new network or in place on a training
skeleton, must leave no consumer reading an old factor or dense matrix;
and the factor formed in the syrk buffer must equal the copying
cho_factor formula it replaced.
"""

import numpy as np
import pytest
from scipy.linalg import cho_factor
from scipy.linalg.lapack import dpotri

from pbn import Dataset, TrainConfig, gradient, train, training
from pbn.linops import GramFactor, LinearMap
from pbn.network import network_from_dict, network_to_dict, wordpair_network
from pbn.reconstruct import reconstruct_from_layer, reconstruction_statistic


def install_per_sample_oracle(monkeypatch):
    monkeypatch.setattr(LinearMap, "gram", property(lambda map_: GramFactor(map_)))
    fresh_inv = GramFactor.inv.func
    monkeypatch.setattr(GramFactor, "inv", property(fresh_inv))
    monkeypatch.setattr(LinearMap, "logdet_grad", property(LinearMap.logdet_grad.func))


def wordpair(seed=5):
    return wordpair_network(np.random.default_rng(seed))


def sample(seed=6):
    return np.random.default_rng(seed).standard_normal((1, 900))


def results(net, x):
    """Every consumer of the kept factors, on a one-row batch."""
    zs = net.forward_pass(x)[1]
    grads_w, grads_b, ll = gradient(net, x, label=[0])
    return [
        net.class_scores(x),
        reconstruction_statistic(net, x, 1),
        reconstruct_from_layer(net, 4, zs[3])[0],
        ll,
        *grads_w,
        *grads_b,
    ]


def assert_all_equal(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        np.testing.assert_array_equal(a, b)


def test_kept_factors_match_per_sample_oracle(monkeypatch):
    x = sample()
    cached = results(wordpair(), x)
    install_per_sample_oracle(monkeypatch)
    assert_all_equal(cached, results(wordpair(), x))


def rebuilt(net):
    return network_from_dict(network_to_dict(net))


def test_parameter_update_never_sees_a_stale_factor():
    net = wordpair()
    x = sample()
    before = results(net, x)
    rng = np.random.default_rng(7)
    params = [spec.map.params * (1.0 + 0.1 * rng.random()) for spec in net.layers]
    biases = [spec.bias + 0.01 for spec in net.layers]
    updated = net.with_layer_params(params, biases)
    after = results(updated, x)
    assert_all_equal(after, results(rebuilt(updated), x))
    assert not np.array_equal(after[0], before[0])


def test_in_place_update_never_sees_a_stale_cache():
    skeleton, theta = training._skeleton(wordpair())
    x = sample()
    before = results(skeleton, x)  # builds every map's dense matrix, factor and log-det fold
    theta *= 1.0 + 0.1 * np.random.default_rng(7).random(theta.size)
    for spec in skeleton.layers:
        spec.map.refresh()
    after = results(skeleton, x)
    assert_all_equal(after, results(rebuilt(skeleton), x))
    assert not np.array_equal(after[0], before[0])


@pytest.mark.parametrize("layer", [0, 1])
def test_factor_matches_the_copying_formula(layer):
    """The factor formed on a conv map's blocks against cho_factor, potri and a np.tril mirror.

    The block products and the block-order factor sum in their own order,
    and so does the log-det fold of W S^-1, so each is held to 1e-13 of
    its largest entry, not bit for bit.
    """
    map_ = wordpair().layers[layer].map
    got = GramFactor(map_)
    a = map_.materialize()
    c, _ = cho_factor(a @ a.T, lower=True)
    lower, info = dpotri(c, lower=True)
    inv = np.tril(lower)
    inv += np.tril(inv, -1).T
    assert info == 0
    assert np.max(np.abs(got.inv - inv)) <= 1e-13 * np.max(np.abs(inv))
    want = map_.collect_matrix_grad(a.T @ inv)
    assert np.max(np.abs(map_.logdet_grad - want)) <= 1e-13 * np.max(np.abs(want))
    assert got.logdet == pytest.approx(float(2.0 * np.sum(np.log(np.diagonal(c)))), rel=1e-13)


def test_unit_factor_built_once_per_map(monkeypatch):
    built = []
    init = GramFactor.__init__

    def counting_init(self, map_, *args, **kwargs):
        if (map_.n_in, map_.n_out) == (900, 405):
            built.append(map_)
        init(self, map_, *args, **kwargs)

    monkeypatch.setattr(GramFactor, "__init__", counting_init)
    net = wordpair()
    for seed in (6, 7, 8):
        net.class_scores(sample(seed))
    assert len(built) == 1


def test_training_result_holds_no_kept_factors():
    net = wordpair()
    rng = np.random.default_rng(9)
    data = Dataset(rng.standard_normal((4, 900)), np.array([0, 1, 0, 1]))
    result = train(net, data, TrainConfig(epochs=1, learning_rate=1e-9, seed=0), val_data=data)
    assert result.history[0]["efficiency"] == 1.0
    assert all("gram" not in vars(spec.map) for spec in result.network.layers)
