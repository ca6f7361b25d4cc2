"""The kept unit Gram factor against the per-sample factor it replaces.

Every map keeps its unit-weight GramFactor (``LinearMap.gram``), and
every factor keeps W S^-1 once asked.  The oracle below restores the
per-solve construction: a fresh unit factor on every access (every
seed, and every unit-weight curvature of a solve, reads it anew), and a
fresh S^-1 and W S^-1 on every use; curvature factors with other
weights are built per solve either way.  Results must agree bit for
bit, because both paths run the same arithmetic.
"""

import numpy as np

from pbn import Dataset, TrainConfig, gradient, train
from pbn.linops import GramFactor, LinearMap
from pbn.network import network_from_dict, network_to_dict, wordpair_network
from pbn.reconstruct import reconstruct_from_layer, reconstruction_statistic


def install_per_sample_oracle(monkeypatch):
    monkeypatch.setattr(LinearMap, "gram", property(lambda map_: GramFactor(map_)))
    fresh_inv = GramFactor.inv.func
    monkeypatch.setattr(GramFactor, "inv", property(fresh_inv))
    monkeypatch.setattr(GramFactor, "w_s_inv", property(lambda f: f._a.T @ fresh_inv(f)))


def wordpair(seed=5):
    return wordpair_network(np.random.default_rng(seed))


def sample(seed=6):
    return np.random.default_rng(seed).standard_normal(900)


def results(net, x):
    """Every consumer of the kept factors, on one sample."""
    _, zs = net.forward_pass(x)
    grads_w, grads_b, ll = gradient(net, x, label=0)
    return [
        net.class_scores(x),
        np.array([reconstruction_statistic(net, x, 1)]),
        reconstruct_from_layer(net, 4, zs[3]),
        np.array([ll]),
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


def test_parameter_update_never_sees_a_stale_factor():
    net = wordpair()
    x = sample()
    before = results(net, x)
    rng = np.random.default_rng(7)
    params = [spec.map.params * (1.0 + 0.1 * rng.random()) for spec in net.layers]
    biases = [spec.bias + 0.01 for spec in net.layers]
    updated = net.with_layer_params(params, biases)
    after = results(updated, x)
    assert_all_equal(after, results(network_from_dict(network_to_dict(updated)), x))
    assert not np.array_equal(after[0], before[0])


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
