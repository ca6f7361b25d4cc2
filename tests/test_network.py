"""Network assembly, the output shift, likelihood terms, and serialization."""

import numpy as np
import pytest
from helpers import gaussian_chain_logpdf
from numpy.testing import assert_allclose

from pbn import network
from pbn.errors import (
    ConfigError,
    DomainError,
    LikelihoodUndefinedError,
    ReconstructionError,
    ShapeMismatchError,
)
from pbn.linops import DenseMap
from pbn.network import (
    LayerSpec,
    Network,
    OutputPriorConfig,
    build_network,
    label_signal,
    load_model,
    network_from_dict,
    network_to_dict,
    output_shift,
    output_shift_curvature,
    output_shift_slope,
    save_model,
    wordpair_network,
)


class TestOutputShift:
    C, L = 200.0, 1.0

    def test_frozen_anchors(self):
        s = label_signal(0, 2, self.L)
        x = output_shift(np.zeros(2), s, self.C, self.L)
        assert_allclose(x, [-101.0, 101.0], atol=1e-12)
        x1 = output_shift(np.array([1.0]), np.array([1.0]), self.C, self.L)
        assert_allclose(x1, [-9.4851746355133562], rtol=1e-14)

    def test_slope_anchors(self):
        assert_allclose(output_shift_slope(np.array([0.0]), self.C), [151.0], rtol=1e-14)
        assert_allclose(
            output_shift_slope(np.array([1.0]), self.C), [28.10599583854728], rtol=1e-13
        )

    def test_slope_and_curvature_match_finite_differences(self):
        z = np.linspace(-3.0, 3.0, 31)
        s = np.ones_like(z)
        h = 1e-6
        fd_slope = (output_shift(z + h, s, self.C, self.L) - output_shift(z - h, s, self.C, self.L)) / (2 * h)
        assert_allclose(output_shift_slope(z, self.C), fd_slope, rtol=1e-7)
        fd_curv = (output_shift_slope(z + h, self.C) - output_shift_slope(z - h, self.C)) / (2 * h)
        assert_allclose(output_shift_curvature(z, self.C), fd_curv, rtol=1e-6, atol=1e-4)

    def test_slope_never_below_one(self):
        z = np.linspace(-50.0, 50.0, 1001)
        assert np.all(output_shift_slope(z, self.C) >= 1.0)
        assert np.all(output_shift_slope(z, 0.0) == 1.0)

    def test_degenerate_scale_reduces_to_translation(self):
        z = np.linspace(-2.0, 2.0, 9)
        s = label_signal(1, 2, 1.0)
        for i, zi in enumerate(z):
            got = output_shift(np.full(2, zi), s, 0.0, 1.0)
            assert_allclose(got, zi - s, atol=1e-14)

    def test_label_signal(self):
        assert_allclose(label_signal(0, 3, 2.0), [2.0, -2.0, -2.0])
        assert_allclose(label_signal(2, 3, 1.0), [-1.0, -1.0, 1.0])
        with pytest.raises(DomainError):
            label_signal(3, 3, 1.0)
        with pytest.raises(DomainError):
            label_signal(-1, 3, 1.0)


def linear_chain(rng, dims, standardize=None):
    layers = []
    for n_in, n_out in zip(dims[:-1], dims[1:]):
        layers.append(
            LayerSpec(
                DenseMap(rng.standard_normal((n_in, n_out))),
                rng.standard_normal(n_out),
                "gaussian",
                "linear",
            )
        )
    return Network(layers, standardize=standardize)


class TestGaussianChainExactness:
    """With Gaussian priors and linear activations every approximation is
    exact, so the network total must equal the closed-form density of
    the generative chain."""

    def test_matches_closed_form(self):
        rng = np.random.default_rng(42)
        net = linear_chain(rng, (8, 5, 3))
        for _ in range(5):
            x = rng.standard_normal(8)
            got = net.log_likelihood(x).total
            want = gaussian_chain_logpdf(net, x)
            assert_allclose(got, want, rtol=1e-10)

    def test_matches_closed_form_standardized(self):
        rng = np.random.default_rng(43)
        mu = rng.standard_normal(8)
        sigma = rng.uniform(0.5, 2.0, 8)
        net = linear_chain(rng, (8, 5, 3), standardize=(mu, sigma))
        x = rng.standard_normal(8) * sigma + mu
        assert_allclose(net.log_likelihood(x).total, gaussian_chain_logpdf(net, x), rtol=1e-10)

    def test_log_standardize_is_minus_log_sigma_sum(self):
        rng = np.random.default_rng(44)
        sigma = rng.uniform(0.5, 2.0, 8)
        net = linear_chain(rng, (8, 5, 3), standardize=(np.zeros(8), sigma))
        assert_allclose(net.log_standardize, -np.sum(np.log(sigma)), rtol=1e-14)
        terms = net.log_likelihood(rng.standard_normal(8))
        assert terms.log_standardize == net.log_standardize


def small_shift_net(rng, c=200.0, dims=(8, 5, 3, 2)):
    cfgs = [dict(type="dense", units=u, activation="tg") for u in dims[1:-1]]
    cfgs.append(dict(type="dense", units=dims[-1], activation="shift"))
    prior = OutputPriorConfig(c=c, level=1.0, n_classes=dims[-1])
    return build_network(dims[0], cfgs, rng, output_prior=prior)


class TestLikelihoodTerms:
    def test_term_counts_small_net(self):
        rng = np.random.default_rng(1)
        net = small_shift_net(rng)
        terms = net.log_likelihood(rng.standard_normal(8), label=0)
        assert len(terms.log_priors) == 3
        assert len(terms.neg_log_features) == 3
        assert len(terms.log_jacobians) == 3
        assert np.isfinite(terms.total)

    def test_total_is_sum_of_parts(self):
        rng = np.random.default_rng(2)
        net = small_shift_net(rng)
        t = net.log_likelihood(rng.standard_normal(8), label=1)
        total = (
            sum(t.log_priors)
            + sum(t.neg_log_features)
            + sum(t.log_jacobians)
            + t.log_output_prior
            + t.log_standardize
        )
        assert_allclose(t.total, total, rtol=1e-15)

    def test_label_changes_only_output_terms(self):
        rng = np.random.default_rng(3)
        net = small_shift_net(rng)
        x = rng.standard_normal(8)
        t0 = net.log_likelihood(x, label=0)
        t1 = net.log_likelihood(x, label=1)
        assert_allclose(t0.log_priors, t1.log_priors, rtol=1e-15)
        assert_allclose(t0.neg_log_features, t1.neg_log_features, rtol=1e-15)
        assert_allclose(t0.log_jacobians, t1.log_jacobians, rtol=1e-15)
        assert t0.log_output_prior != t1.log_output_prior

    def test_label_required_iff_output_prior(self):
        rng = np.random.default_rng(4)
        shift_net = small_shift_net(rng)
        with pytest.raises(ConfigError):
            shift_net.log_likelihood(np.zeros(8))
        plain = linear_chain(rng, (6, 3))
        with pytest.raises(ConfigError):
            plain.log_likelihood(np.zeros(6), label=0)
        assert np.isfinite(plain.log_likelihood(np.zeros(6)).total)


class TestWordpairArchitecture:
    def test_shapes_and_term_counts(self):
        rng = np.random.default_rng(0)
        net = wordpair_network(rng)
        dims = [(s.map.n_in, s.map.n_out) for s in net.layers]
        assert dims == [(900, 405), (405, 144), (144, 64), (64, 24), (24, 2)]
        priors = [s.input_prior.kind for s in net.layers]
        assert priors == [
            "gaussian",
            "gaussian",
            "gaussian",
            "truncated_gaussian",
            "truncated_gaussian",
        ]
        acts = [s.activation for s in net.layers]
        assert acts == ["linear", "linear", "tg", "tg", "shift"]

    def test_likelihood_runs_end_to_end(self):
        rng = np.random.default_rng(5)
        net = wordpair_network(rng)
        terms = net.log_likelihood(rng.standard_normal(900), label=0)
        assert len(terms.log_priors) == 5
        assert len(terms.neg_log_features) == 5
        assert len(terms.log_jacobians) == 5
        assert np.isfinite(terms.total)
        # the first two layers are Gaussian-linear, so their saddle
        # jacobian terms vanish identically
        assert terms.log_jacobians[0] == 0.0
        assert terms.log_jacobians[1] == 0.0


class TestClassification:
    def test_scores_match_per_label_likelihoods(self):
        rng = np.random.default_rng(6)
        net = small_shift_net(rng)
        x = rng.standard_normal(8)
        scores = net.class_scores(x[None])[0]
        for y in range(2):
            assert scores[y] == net.log_likelihood(x, label=y).total

    def test_undefined_interior_is_unclassifiable(self):
        # A first layer whose prior demands positive inputs fails on a
        # negative sample, taking every hypothesis down with it.
        rng = np.random.default_rng(8)
        layers = [
            LayerSpec(
                DenseMap(rng.standard_normal((6, 2))),
                np.zeros(2),
                "truncated_gaussian",
                "shift",
            )
        ]
        net = Network(layers, output_prior=OutputPriorConfig(200.0, 1.0, 2))
        x = -np.abs(rng.standard_normal(6))
        trace = net.interior_trace(x[None])
        assert isinstance(trace.undefined[0], LikelihoodUndefinedError)
        assert trace.undefined[0].layer == 1
        assert np.all(np.isnan(net.class_scores(x[None], trace=trace)))
        with pytest.raises(LikelihoodUndefinedError) as ei:
            net.log_likelihood(x, label=0)
        assert ei.value.layer == 1

    def test_classification_requires_output_prior(self):
        rng = np.random.default_rng(9)
        net = linear_chain(rng, (6, 3))
        with pytest.raises(ConfigError):
            net.class_scores(np.zeros((1, 6)))


class TestInteriorTraceErrors:
    """Only numerical failures of a solve make a sample undefined."""

    def failing_solve(self, exc, layer):
        real = network.solve_saddle

        def solve(map_, prior, z_tilde, *, label):
            if label == f"layer {layer}":
                raise exc
            return real(map_, prior, z_tilde, label=label)

        return solve

    def test_programming_error_propagates(self, monkeypatch):
        net = small_shift_net(np.random.default_rng(10))
        monkeypatch.setattr(network, "solve_saddle", self.failing_solve(TypeError("bug"), 1))
        with pytest.raises(TypeError):
            net.interior_trace(np.random.default_rng(11).standard_normal((1, 8)))

    def test_solver_failure_is_undefined_at_its_layer(self, monkeypatch):
        net = small_shift_net(np.random.default_rng(10))
        failure = ReconstructionError("layer 2: saddle point not reached")
        monkeypatch.setattr(network, "solve_saddle", self.failing_solve(failure, 2))
        undefined = net.interior_trace(np.random.default_rng(11).standard_normal((1, 8))).undefined[0]
        assert isinstance(undefined, LikelihoodUndefinedError)
        assert undefined.layer == 2
        assert undefined.__cause__ is failure


class TestValidation:
    def test_dimension_chain_checked(self):
        rng = np.random.default_rng(10)
        l1 = LayerSpec(DenseMap(rng.standard_normal((8, 5))), np.zeros(5), "gaussian", "tg")
        l2 = LayerSpec(
            DenseMap(rng.standard_normal((4, 2))), np.zeros(2), "truncated_gaussian", "linear"
        )
        with pytest.raises(ShapeMismatchError):
            Network([l1, l2])

    def test_prior_activation_chain_checked(self):
        rng = np.random.default_rng(11)
        l1 = LayerSpec(DenseMap(rng.standard_normal((8, 5))), np.zeros(5), "gaussian", "tg")
        l2 = LayerSpec(DenseMap(rng.standard_normal((5, 2))), np.zeros(2), "uniform", "linear")
        with pytest.raises(ConfigError):
            Network([l1, l2])

    def test_shift_placement_rules(self):
        rng = np.random.default_rng(12)
        mk = lambda n_in, n_out, prior, act: LayerSpec(
            DenseMap(rng.standard_normal((n_in, n_out))), np.zeros(n_out), prior, act
        )
        with pytest.raises(ConfigError):
            Network([mk(8, 4, "gaussian", "shift"), mk(4, 2, "gaussian", "linear")])
        with pytest.raises(ConfigError):
            Network([mk(8, 2, "gaussian", "shift")])  # shift without output prior
        with pytest.raises(ConfigError):
            Network([mk(8, 2, "gaussian", "linear")], output_prior=OutputPriorConfig(200.0, 1.0, 2))

    def test_class_count_must_match_width(self):
        rng = np.random.default_rng(13)
        layer = LayerSpec(DenseMap(rng.standard_normal((8, 3))), np.zeros(3), "gaussian", "shift")
        with pytest.raises(ConfigError):
            Network([layer], output_prior=OutputPriorConfig(200.0, 1.0, 2))

    def test_input_validation(self):
        rng = np.random.default_rng(14)
        net = linear_chain(rng, (6, 3))
        with pytest.raises(ShapeMismatchError):
            net.log_likelihood(np.zeros(5))
        with pytest.raises(DomainError):
            net.log_likelihood(np.array([0.0, np.nan, 0, 0, 0, 0]))

    def test_output_prior_config_validation(self):
        with pytest.raises(ConfigError):
            OutputPriorConfig(-1.0, 1.0, 2)
        with pytest.raises(ConfigError):
            OutputPriorConfig(200.0, 0.0, 2)
        with pytest.raises(ConfigError):
            OutputPriorConfig(200.0, 1.0, 1)

    def test_conv_after_flatten_rejected(self):
        rng = np.random.default_rng(15)
        cfgs = [
            dict(type="dense", units=10, activation="tg"),
            dict(type="conv", channels=2, kernel=(3, 3), strides=(1, 1), activation="linear"),
        ]
        with pytest.raises(ConfigError):
            build_network((1, 6, 6), cfgs, rng)


class TestSerialization:
    def test_round_trip_is_byte_identical(self, tmp_path):
        rng = np.random.default_rng(16)
        net = wordpair_network(rng, standardize=(rng.standard_normal(900), rng.uniform(0.5, 2, 900)))
        p1 = tmp_path / "model.json"
        p2 = tmp_path / "model2.json"
        save_model(net, p1)
        save_model(load_model(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_round_trip_preserves_behavior(self, tmp_path):
        rng = np.random.default_rng(17)
        net = small_shift_net(rng)
        p = tmp_path / "model.json"
        save_model(net, p)
        back = load_model(p)
        x = rng.standard_normal(8)
        assert_allclose(
            back.log_likelihood(x, label=1).total,
            net.log_likelihood(x, label=1).total,
            rtol=1e-14,
        )

    def test_format_tag_checked(self):
        with pytest.raises(ConfigError):
            network_from_dict({"format": "something-else"})

    def test_dict_form_carries_all_fields(self):
        rng = np.random.default_rng(18)
        net = small_shift_net(rng)
        doc = network_to_dict(net)
        assert doc["format"] == "pbn-model"
        assert doc["output_prior"] == {"c": 200.0, "level": 1.0, "n_classes": 2}
        assert len(doc["layers"]) == 3
