"""Backward walks: shift inversion, backsteps, synthesis, reconstruction scores."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pbn.errors import ConfigError, DomainError, ReconstructionError
from pbn.linops import DenseMap
from pbn.network import (
    LayerSpec,
    Network,
    OutputPriorConfig,
    build_network,
    label_signal,
    output_shift,
)
from pbn.reconstruct import (
    _backstep,
    invert_output_shift,
    reconstruct_from_layer,
    reconstruction_statistic,
    synthesize,
)

C, LEVEL = 200.0, 1.0


class TestInvertOutputShift:
    def test_frozen_anchor(self):
        z = invert_output_shift(np.array([0.0]), np.array([1.0]), C, LEVEL)
        assert_allclose(z, [1.8277414863053106], rtol=1e-12)

    def test_shift_of_zero_maps_back(self):
        s = label_signal(0, 2, LEVEL)
        x = output_shift(np.zeros(2), s, C, LEVEL)  # [-101, 101]
        assert_allclose(invert_output_shift(x, s, C, LEVEL), np.zeros(2), atol=1e-11)

    def test_round_trip_grid(self):
        s = np.array([1.0])
        for z in np.linspace(-3.0, 3.0, 61):
            x = output_shift(np.array([z]), s, C, LEVEL)
            back = invert_output_shift(x, s, C, LEVEL)
            assert_allclose(back, [z], atol=1e-11)

    def test_degenerate_scale_is_pure_translation(self):
        s = label_signal(1, 2, LEVEL)
        x = np.array([3.0, -2.0])
        assert_allclose(invert_output_shift(x, s, 0.0, LEVEL), x + s, atol=1e-12)

    def test_array_inverse_equals_the_scalar_inverses_bit_for_bit(self):
        # Converged elements stop iterating, so an element's inverse does
        # not depend on the other elements of its array.
        signals = np.array([[1.0, -1.0], [-1.0, 1.0], [1.0, -1.0]])
        x = np.array([[0.3, -104.0], [101.5, 2.0], [-7.0, 55.0]])
        got = invert_output_shift(x, signals, C, LEVEL)
        for idx in np.ndindex(x.shape):
            one = invert_output_shift(np.array([x[idx]]), np.array([signals[idx]]), C, LEVEL)[0]
            assert got[idx] == one

    def test_rejects_nonfinite(self):
        with pytest.raises(DomainError):
            invert_output_shift(np.array([np.inf]), np.array([1.0]), C, LEVEL)


def square_net(rng, dims=(5, 5, 5), seedless=False):
    """Dimension-preserving chain: reconstruction is information-lossless."""
    layers = []
    prior = "gaussian"
    for i, (a, b) in enumerate(zip(dims[:-1], dims[1:])):
        w = rng.standard_normal((a, b)) + 3.0 * np.eye(a, b)
        act = "linear" if i == len(dims) - 2 else "tg"
        layers.append(LayerSpec(DenseMap(w), 0.1 * rng.standard_normal(b), prior, act))
        prior = "truncated_gaussian" if act == "tg" else "gaussian"
    return Network(layers)


class TestExactRecovery:
    def test_square_chain_recovers_input(self):
        rng = np.random.default_rng(42)
        net = square_net(rng)
        x = rng.standard_normal((1, 5))
        zs = net.forward_pass(x)[1]
        for k in (1, 2):
            back, errors = reconstruct_from_layer(net, k, zs[k - 1])
            assert errors == [None]
            assert_allclose(back, x, atol=1e-6)

    def test_reforward_reproduces_features(self):
        # Rectangular maps lose information, but a successful
        # reconstruction must reproduce the feature it started from.
        rng = np.random.default_rng(7)
        cfgs = [
            dict(type="dense", units=5, activation="tg"),
            dict(type="dense", units=3, activation="linear"),
        ]
        net = build_network(8, cfgs, rng)
        x = rng.standard_normal((1, 8))
        zs = net.forward_pass(x)[1]
        for k in (1, 2):
            x_hat, errors = reconstruct_from_layer(net, k, zs[k - 1])
            assert errors == [None]
            zs_hat = net.forward_pass(x_hat)[1]
            assert_allclose(zs_hat[k - 1], zs[k - 1], rtol=1e-6, atol=1e-8)

    def test_standardization_round_trip(self):
        rng = np.random.default_rng(8)
        mu, sigma = rng.standard_normal(5), rng.uniform(0.5, 2.0, 5)
        layers = [
            LayerSpec(
                DenseMap(rng.standard_normal((5, 5)) + 3 * np.eye(5)),
                np.zeros(5),
                "gaussian",
                "linear",
            )
        ]
        net = Network(layers, standardize=(mu, sigma))
        x = rng.standard_normal((1, 5)) * sigma + mu
        zs = net.forward_pass(x)[1]
        x_hat, errors = reconstruct_from_layer(net, 1, zs[0])
        assert errors == [None]
        assert_allclose(x_hat, x, atol=1e-6)


class TestBacksteps:
    def ted_pair(self):
        # 2 -> 1 uniform layer under a 1 -> 1 second layer; the first
        # layer's feasible cone is the open interval (0, 2).
        l1 = LayerSpec(DenseMap(np.array([[1.0], [1.0]])), np.zeros(1), "uniform", "ted")
        l2 = LayerSpec(DenseMap(np.array([[2.0]])), np.zeros(1), "uniform", "linear")
        return Network([l1, l2])

    def test_backstep_range_check(self):
        net = self.ted_pair()
        x, errors = _backstep(net.layers[0], np.array([[1.5], [0.5]]), "layer 1")
        assert isinstance(errors[0], DomainError)  # outside (0, 1)
        assert np.all(np.isnan(x[0])) and errors[1] is None

    def test_feasible_walk_succeeds(self):
        net = self.ted_pair()
        x, errors = reconstruct_from_layer(net, 2, np.array([[1.2]]))
        assert x.shape == (1, 2) and errors == [None]
        assert np.all((x > 0.0) & (x < 1.0))

    def test_infeasible_backstep_raises(self):
        # z_2 = 1.99 forces the layer-1 feature to about 200, far
        # outside the (0, 2) cone.
        net = self.ted_pair()
        x, errors = reconstruct_from_layer(net, 2, np.array([[1.99]]))
        assert isinstance(errors[0], ReconstructionError) and np.all(np.isnan(x))

    def test_infeasible_top_target_raises(self):
        net = self.ted_pair()
        x, errors = reconstruct_from_layer(net, 2, np.array([[5.0]]))
        assert isinstance(errors[0], ReconstructionError) and np.all(np.isnan(x))


def shift_net(rng):
    # The last map's rows cover all four diagonal directions, so its
    # positive-cone image is the whole plane and synthesis from any
    # shifted-back target is feasible.
    l1 = LayerSpec(
        DenseMap(0.5 * rng.standard_normal((6, 4))),
        0.1 * rng.standard_normal(4),
        "gaussian",
        "tg",
    )
    w2 = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
    l2 = LayerSpec(DenseMap(w2), np.zeros(2), "truncated_gaussian", "shift")
    return Network([l1, l2], output_prior=OutputPriorConfig(c=C, level=LEVEL, n_classes=2))


def plain_linear_net(rng, n=5):
    mk = lambda: DenseMap(rng.standard_normal((n, n)) + 3.0 * np.eye(n))
    layers = [
        LayerSpec(mk(), rng.standard_normal(n), "gaussian", "linear"),
        LayerSpec(mk(), rng.standard_normal(n), "gaussian", "linear"),
    ]
    return Network(layers)


class TestSynthesize:
    def test_deterministic_in_seed(self):
        rng = np.random.default_rng(10)
        net = shift_net(rng)
        a, errors = synthesize(net, [123], label=0)
        b, _ = synthesize(net, [123], label=0)
        np.testing.assert_array_equal(a, b)
        assert a.shape == (1, 6) and errors == [None]

    def test_labels_differ(self):
        rng = np.random.default_rng(11)
        net = shift_net(rng)
        a, errors_a = synthesize(net, [5], label=0)
        b, errors_b = synthesize(net, [5], label=1)
        assert errors_a == errors_b == [None]
        assert not np.allclose(a, b)

    def test_label_contract(self):
        rng = np.random.default_rng(12)
        net = shift_net(rng)
        with pytest.raises(ConfigError):
            synthesize(net, [1])
        plain = plain_linear_net(np.random.default_rng(13))
        with pytest.raises(ConfigError):
            synthesize(plain, [1], label=0)
        assert synthesize(plain, [1])[0].shape == (1, 5)

    def test_synthesized_sample_is_classifiable(self):
        rng = np.random.default_rng(14)
        net = shift_net(rng)
        (x,), (error,) = synthesize(net, [2], label=1)
        assert error is None
        assert np.isfinite(net.log_likelihood(x, label=1).total)


class TestReconstructionStatistic:
    def test_perfect_round_trip_hits_floor_cap(self):
        rng = np.random.default_rng(20)
        net = square_net(rng)
        x = rng.standard_normal((1, 5))
        stat = reconstruction_statistic(net, x, 1)
        assert_allclose(stat, [-np.log(1e-12)], rtol=1e-12)

    def test_matches_direct_mse(self):
        rng = np.random.default_rng(21)
        cfgs = [
            dict(type="dense", units=4, activation="tg"),
            dict(type="dense", units=2, activation="linear"),
        ]
        net = build_network(9, cfgs, rng)
        x = rng.standard_normal((1, 9))
        zs = net.forward_pass(x)[1]
        x_hat, errors = reconstruct_from_layer(net, 1, zs[0])
        assert errors == [None]
        want = -np.log(max(float(np.mean((x - x_hat) ** 2)), 1e-12))
        assert_allclose(reconstruction_statistic(net, x, 1), [want], rtol=1e-12)

    def test_layer_range_enforced(self):
        rng = np.random.default_rng(22)
        net = square_net(rng)  # depth 2: only layer 1 is valid
        with pytest.raises(DomainError):
            reconstruction_statistic(net, np.zeros((1, 5)), 0)
        with pytest.raises(DomainError):
            reconstruction_statistic(net, np.zeros((1, 5)), 2)
