import numpy as np
import oracle
import pytest
from scipy.special import logsumexp

from pbn import (
    Dataset,
    DenseMap,
    LayerSpec,
    LinearMap,
    Network,
    OutputPriorConfig,
    TrainConfig,
    TrainingError,
    build_network,
    evaluate,
    evaluate_logits,
    gradient,
    objective,
    pretrain_discriminative,
    train,
    training,
)
from pbn.network import wordpair_network
from pbn.priors import activation_prior

FD_STEP = 1e-5
FD_TOL = 1e-4


def flatten_params(net):
    parts = [spec.map.params.ravel() for spec in net.layers]
    parts += [spec.bias for spec in net.layers]
    return np.concatenate(parts)


def rebuild(net, theta):
    weights, biases, pos = [], [], 0
    for spec in net.layers:
        n = spec.map.params.size
        weights.append(theta[pos : pos + n].reshape(spec.map.params.shape))
        pos += n
    for spec in net.layers:
        n = spec.bias.size
        biases.append(theta[pos : pos + n])
        pos += n
    return net.with_layer_params(weights, biases)


def analytic_batch_gradient(net, data, l2=0.0):
    acc = None
    for i in range(len(data)):
        label = None if data.labels is None else int(data.labels[i])
        gw, gb, _ = gradient(net, data.x[i], label=label)
        flat = np.concatenate([g.ravel() for g in gw] + list(gb))
        acc = flat if acc is None else acc + flat
    acc /= len(data)
    decay = np.concatenate(
        [-2.0 * l2 * spec.map.params.ravel() for spec in net.layers]
        + [np.zeros_like(spec.bias) for spec in net.layers]
    )
    return acc + decay


def fd_batch_gradient(net, data, l2=0.0):
    theta = flatten_params(net)
    out = np.empty_like(theta)
    for j in range(theta.size):
        lo, hi = theta.copy(), theta.copy()
        lo[j] -= FD_STEP
        hi[j] += FD_STEP
        f_lo, _ = objective(rebuild(net, lo), data, l2=l2)
        f_hi, _ = objective(rebuild(net, hi), data, l2=l2)
        out[j] = (f_hi - f_lo) / (2 * FD_STEP)
    return out


def assert_gradients_close(got, want):
    err = np.max(np.abs(got - want)) / (1.0 + np.max(np.abs(got)))
    assert err < FD_TOL, f"relative gradient error {err:.3e}"


def tg_shift_net(rng, dims=(6, 4, 3, 2), c=200.0):
    cfgs = [{"type": "dense", "units": d, "activation": "tg"} for d in dims[1:-1]]
    cfgs.append({"type": "dense", "units": dims[-1], "activation": "shift"})
    net = build_network(
        dims[0], cfgs, rng, output_prior=OutputPriorConfig(c=c, level=1.0, n_classes=dims[-1])
    )
    return net


def blob_data(rng, n_per=40, spread=0.6):
    xs, ys = [], []
    for label, center in enumerate(((2.0, 0.0), (-2.0, 0.0))):
        xs.append(rng.normal(center, spread, size=(n_per, 2)))
        ys.append(np.full(n_per, label))
    return Dataset(np.vstack(xs), np.concatenate(ys))


def blob_net(rng, c=20.0):
    return build_network(
        2,
        [
            {"type": "dense", "units": 2, "activation": "tg"},
            {"type": "dense", "units": 2, "activation": "shift"},
        ],
        rng,
        output_prior=OutputPriorConfig(c=c, level=1.0, n_classes=2),
    )


class TestGradientOracle:
    def test_matches_fd_on_tg_shift_net(self):
        rng = np.random.default_rng(11)
        net = tg_shift_net(rng)
        data = Dataset(rng.uniform(0.2, 1.5, size=(2, 6)), np.array([0, 1]))
        assert_gradients_close(analytic_batch_gradient(net, data), fd_batch_gradient(net, data))

    def test_matches_fd_without_output_prior(self):
        rng = np.random.default_rng(12)
        net = build_network(
            5,
            [
                {"type": "dense", "units": 4, "activation": "ted"},
                {"type": "dense", "units": 2, "activation": "linear"},
            ],
            rng,
        )
        data = Dataset(rng.normal(size=(3, 5)))
        assert_gradients_close(analytic_batch_gradient(net, data), fd_batch_gradient(net, data))

    def test_matches_fd_with_conv_layer(self):
        rng = np.random.default_rng(13)
        net = build_network(
            (1, 4, 4),
            [
                {"type": "conv", "channels": 2, "kernel": (3, 3), "strides": (2, 2), "activation": "tg"},
                {"type": "dense", "units": 3, "activation": "linear"},
            ],
            rng,
        )
        data = Dataset(rng.normal(size=(2, 16)))
        assert_gradients_close(analytic_batch_gradient(net, data), fd_batch_gradient(net, data))

    def test_matches_fd_with_l2(self):
        rng = np.random.default_rng(14)
        net = tg_shift_net(rng, dims=(4, 3, 2))
        data = Dataset(rng.uniform(0.2, 1.5, size=(2, 4)), np.array([0, 1]))
        assert_gradients_close(
            analytic_batch_gradient(net, data, l2=0.01), fd_batch_gradient(net, data, l2=0.01)
        )

    def test_pretrain_step_matches_fd(self):
        rng = np.random.default_rng(15)
        net = blob_net(rng)
        data = blob_data(np.random.default_rng(16), n_per=5)
        lr = 1e-6
        result = pretrain_discriminative(
            net, data, TrainConfig(epochs=1, learning_rate=lr, optimizer="sgd", seed=0)
        )
        got = (flatten_params(result.network) - flatten_params(net)) / lr

        def ce_objective(theta):
            candidate = rebuild(net, theta)
            vals = [
                np.log(softmax(candidate.logits(data.x[i]))[int(data.labels[i])])
                for i in range(len(data))
            ]
            return float(np.mean(vals))

        def softmax(z):
            e = np.exp(z - np.max(z))
            return e / e.sum()

        theta = flatten_params(net)
        want = np.empty_like(theta)
        for j in range(theta.size):
            lo, hi = theta.copy(), theta.copy()
            lo[j] -= FD_STEP
            hi[j] += FD_STEP
            want[j] = (ce_objective(hi) - ce_objective(lo)) / (2 * FD_STEP)
        assert_gradients_close(got, want)


class TestObjective:
    def test_l2_penalty_identity(self):
        rng = np.random.default_rng(20)
        net = tg_shift_net(rng, dims=(4, 3, 2))
        data = Dataset(rng.uniform(0.2, 1.5, size=(3, 4)), np.array([0, 1, 0]))
        base, eff = objective(net, data)
        with_l2, _ = objective(net, data, l2=0.5)
        norm = sum(float(np.sum(spec.map.params**2)) for spec in net.layers)
        assert eff == 1.0
        assert with_l2 == pytest.approx(base - 0.5 * norm, rel=1e-12)

    def test_efficiency_counts_undefined_samples(self):
        rng = np.random.default_rng(21)
        spec = LayerSpec(
            DenseMap(rng.normal(size=(3, 2))), np.zeros(2), "truncated_gaussian", "linear"
        )
        net = Network([spec])
        rows = np.array([[1.0, 2.0, 0.5], [0.3, 0.4, 0.5], [-1.0, 1.0, 1.0]])
        value, eff = objective(net, Dataset(rows))
        assert eff == pytest.approx(2 / 3)
        assert np.isfinite(value)

    def test_all_undefined_raises(self):
        rng = np.random.default_rng(22)
        spec = LayerSpec(
            DenseMap(rng.normal(size=(3, 2))), np.zeros(2), "truncated_gaussian", "linear"
        )
        net = Network([spec])
        with pytest.raises(TrainingError):
            objective(net, Dataset(np.full((2, 3), -1.0)))

    def test_mean_over_defined_matches_manual(self):
        rng = np.random.default_rng(23)
        net = tg_shift_net(rng, dims=(4, 3, 2))
        data = Dataset(rng.uniform(0.2, 1.5, size=(3, 4)), np.array([1, 0, 1]))
        value, _ = objective(net, data)
        manual = np.mean(
            [
                net.log_likelihood(data.x[i], label=int(data.labels[i])).total
                for i in range(3)
            ]
        )
        assert value == pytest.approx(manual, rel=1e-12)


class TestTrainingLoop:
    def test_sgd_full_batch_step_increases_objective(self):
        rng = np.random.default_rng(30)
        net = tg_shift_net(rng, dims=(5, 3, 2))
        data = Dataset(rng.uniform(0.2, 1.5, size=(6, 5)), rng.integers(0, 2, size=6))
        before, _ = objective(net, data)
        result = train(net, data, TrainConfig(epochs=1, learning_rate=1e-5, seed=0))
        after, _ = objective(result.network, data)
        assert after > before

    @pytest.mark.parametrize("fit", [train, pretrain_discriminative])
    def test_empty_training_set_raises(self, fit):
        net = tg_shift_net(np.random.default_rng(30), dims=(5, 3, 2))
        data = Dataset(np.zeros((0, 5)), np.zeros(0, dtype=int))
        with pytest.raises(TrainingError, match="the training set is empty"):
            fit(net, data, TrainConfig(epochs=1, seed=0))

    def test_deterministic_given_seed(self):
        rng_a = np.random.default_rng(31)
        rng_b = np.random.default_rng(31)
        data = Dataset(
            np.random.default_rng(32).uniform(0.2, 1.5, size=(8, 4)),
            np.random.default_rng(33).integers(0, 2, size=8),
        )
        cfg = TrainConfig(epochs=3, learning_rate=1e-4, batch_size=3, optimizer="adam", seed=7)
        res_a = train(tg_shift_net(rng_a, dims=(4, 3, 2)), data, cfg)
        res_b = train(tg_shift_net(rng_b, dims=(4, 3, 2)), data, cfg)
        assert res_a.history == res_b.history
        for sa, sb in zip(res_a.network.layers, res_b.network.layers):
            np.testing.assert_array_equal(sa.map.params, sb.map.params)
            np.testing.assert_array_equal(sa.bias, sb.bias)

    def test_history_rows_and_efficiency(self):
        rng = np.random.default_rng(34)
        spec = LayerSpec(
            DenseMap(rng.normal(size=(3, 2))), np.zeros(2), "truncated_gaussian", "linear"
        )
        net = Network([spec])
        rows = np.vstack([np.full((3, 3), 0.5), [[-1.0, 0.5, 0.5]]])
        result = train(net, Dataset(rows), TrainConfig(epochs=2, learning_rate=1e-6, seed=0))
        assert len(result.history) == 2
        for row in result.history:
            assert set(row) == {"epoch", "objective", "val_accuracy", "efficiency"}
            assert row["efficiency"] == pytest.approx(0.75)
            assert row["val_accuracy"] is None

    def test_whole_batch_undefined_raises(self):
        rng = np.random.default_rng(35)
        spec = LayerSpec(
            DenseMap(rng.normal(size=(3, 2))), np.zeros(2), "truncated_gaussian", "linear"
        )
        net = Network([spec])
        with pytest.raises(TrainingError):
            train(net, Dataset(np.full((4, 3), -1.0)), TrainConfig(epochs=1, seed=0))

    def test_labeled_net_requires_labels(self):
        rng = np.random.default_rng(36)
        net = tg_shift_net(rng, dims=(4, 3, 2))
        with pytest.raises(TrainingError):
            train(net, Dataset(np.ones((2, 4))), TrainConfig(epochs=1))

    def test_best_validation_checkpoint_prefers_later_epoch(self):
        rng = np.random.default_rng(37)
        net = blob_net(rng)
        data = blob_data(np.random.default_rng(38), n_per=20)
        val = blob_data(np.random.default_rng(39), n_per=10)
        cfg = TrainConfig(epochs=4, learning_rate=1e-2, optimizer="adam", seed=1)
        result = pretrain_discriminative(net, data, cfg, val_data=val)
        accs = [row["val_accuracy"] for row in result.history]
        best_epoch = max(range(len(accs)), key=lambda i: (accs[i], i))
        assert accs[best_epoch] == max(accs)
        assert result.history[best_epoch]["val_accuracy"] == max(accs)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_abort_returns_last_good_checkpoint(self):
        rng = np.random.default_rng(40)
        net = blob_net(rng)
        data = blob_data(np.random.default_rng(41), n_per=10)
        # one step this large overflows the second epoch's logits
        cfg = TrainConfig(epochs=4, learning_rate=1e200, optimizer="sgd", seed=2)
        result = pretrain_discriminative(net, data, cfg)
        assert result.aborted
        assert result.reason == "non-finite objective or gradient"
        assert len(result.history) < 4
        for spec in result.network.layers:
            assert np.all(np.isfinite(spec.map.params))
            assert np.all(np.isfinite(spec.bias))

    def test_saturating_warm_start_runs_every_epoch(self):
        rng = np.random.default_rng(40)
        net = blob_net(rng)
        data = blob_data(np.random.default_rng(41), n_per=10)
        # a step of 1e30 saturates the net but keeps every value finite
        cfg = TrainConfig(epochs=4, learning_rate=1e30, optimizer="sgd", seed=2)
        result = pretrain_discriminative(net, data, cfg)
        assert not result.aborted and result.reason is None
        assert [row["epoch"] for row in result.history] == [1, 2, 3, 4]
        assert all(np.isfinite(row["objective"]) for row in result.history)
        # the likelihood phase cannot start from it: nothing to keep yet
        with pytest.raises(TrainingError, match="no sample in the batch"):
            train(result.network, data, TrainConfig(epochs=1, seed=2))

    def test_steps_out_of_support_abort_with_last_good_checkpoint(self):
        net = tg_shift_net(np.random.default_rng(34), dims=(4, 3, 2))
        data = Dataset(
            np.random.default_rng(32).uniform(0.2, 1.5, size=(8, 4)),
            np.random.default_rng(33).integers(0, 2, size=8),
        )
        # the first step leaves every sample of the next batch undefined
        cfg = TrainConfig(epochs=2, learning_rate=1e2, batch_size=2, optimizer="sgd", seed=7)
        result = train(net, data, cfg)
        assert result.aborted
        assert result.reason == "no sample in the batch has a defined likelihood"
        assert result.history == []
        for got, want in zip(result.network.layers, net.layers):
            np.testing.assert_array_equal(got.map.params, want.map.params)
            np.testing.assert_array_equal(got.bias, want.bias)


def fit_both(monkeypatch, fit, net, *args):
    """(result, skeleton) of ``fit`` on the in-place loop, then the result of the oracle loop.

    Also checks that the in-place run left ``net`` as it was.
    """
    skeletons = []
    make_skeleton = training._skeleton

    def spy(n):
        skeleton, theta = make_skeleton(n)
        skeletons.append(skeleton)
        return skeleton, theta

    monkeypatch.setattr(training, "_skeleton", spy)
    before = [(s.map.params.copy(), s.bias.copy(), s.map.materialize().copy()) for s in net.layers]
    got = fit(net, *args)
    for spec, arrays in zip(net.layers, before):
        for a, b in zip((spec.map.params, spec.bias, spec.map.materialize()), arrays):
            np.testing.assert_array_equal(a, b)
    monkeypatch.setattr(training, "_run_epochs", oracle.run_epochs)
    return got, skeletons[0], fit(net, *args)


def assert_same_run(got, skeleton, want, objective_rel=0.0):
    assert (got.aborted, got.reason) == (want.aborted, want.reason)
    assert len(got.history) == len(want.history) > 0
    for row, ref in zip(got.history, want.history):
        assert row["objective"] == pytest.approx(ref["objective"], rel=objective_rel, abs=0.0)
        assert {**row, "objective": None} == {**ref, "objective": None}
    for spec, ref, skel in zip(got.network.layers, want.network.layers, skeleton.layers):
        np.testing.assert_array_equal(spec.map.params, ref.map.params)
        np.testing.assert_array_equal(spec.bias, ref.bias)
        for mine, theirs in [
            (spec.map.params, skel.map.params),
            (spec.bias, skel.bias),
            (spec.map.materialize(), skel.map.materialize()),
        ]:
            assert not np.shares_memory(mine, theirs)


class TestInPlaceLoop:
    """The loop that trains one skeleton in place against the rebuild-per-step oracle."""

    @staticmethod
    def wordpair_data(seed, n):
        rng = np.random.default_rng(seed)
        return Dataset(rng.standard_normal((n, 900)), rng.integers(0, 2, size=n))

    @pytest.mark.parametrize("dropout", [0.0, 0.3])
    def test_warm_start_with_adam(self, monkeypatch, dropout):
        net = wordpair_network(np.random.default_rng(50))
        cfg = TrainConfig(
            epochs=2, learning_rate=1e-3, batch_size=8, optimizer="adam", seed=3, dropout=dropout
        )
        data, val = self.wordpair_data(51, 20), self.wordpair_data(52, 8)
        got, skeleton, want = fit_both(monkeypatch, pretrain_discriminative, net, data, cfg, val)
        assert_same_run(got, skeleton, want)

    # The L2 term sums the squared weights over the one parameter vector,
    # where the oracle adds one sum per layer: only that objective may differ.
    @pytest.mark.parametrize("l2, objective_rel", [(0.0, 0.0), (1e-3, 1e-12)])
    def test_likelihood_phase_with_sgd(self, monkeypatch, l2, objective_rel):
        net = wordpair_network(np.random.default_rng(53))
        cfg = TrainConfig(epochs=2, learning_rate=1e-8, batch_size=4, l2=l2, seed=4)
        data, val = self.wordpair_data(54, 8), self.wordpair_data(55, 4)
        got, skeleton, want = fit_both(monkeypatch, train, net, data, cfg, val)
        assert_same_run(got, skeleton, want, objective_rel)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_aborted_phase_returns_its_last_checkpoint(self, monkeypatch):
        net = blob_net(np.random.default_rng(40))
        data = blob_data(np.random.default_rng(41), n_per=10)
        cfg = TrainConfig(epochs=4, learning_rate=1e200, optimizer="sgd", seed=2)
        got, skeleton, want = fit_both(monkeypatch, pretrain_discriminative, net, data, cfg)
        assert got.aborted
        assert_same_run(got, skeleton, want)


class TestPretrain:
    def test_learns_blob_separation(self):
        rng = np.random.default_rng(50)
        net = blob_net(rng)
        data = blob_data(np.random.default_rng(51), n_per=40)
        cfg = TrainConfig(
            epochs=60, learning_rate=5e-2, batch_size=8, optimizer="adam", seed=3
        )
        result = pretrain_discriminative(net, data, cfg)
        assert evaluate_logits(result.network, data) >= 0.95

    def test_requires_labels(self):
        rng = np.random.default_rng(52)
        net = blob_net(rng)
        with pytest.raises(TrainingError):
            pretrain_discriminative(net, Dataset(np.ones((2, 2))), TrainConfig(epochs=1))

    def test_dropout_changes_training_and_stays_deterministic(self):
        data = blob_data(np.random.default_rng(53), n_per=10)
        cfg_plain = TrainConfig(epochs=2, learning_rate=1e-2, optimizer="adam", seed=4)
        cfg_drop = TrainConfig(
            epochs=2, learning_rate=1e-2, optimizer="adam", seed=4, dropout=0.5
        )
        runs = [
            pretrain_discriminative(blob_net(np.random.default_rng(54)), data, cfg)
            for cfg in (cfg_plain, cfg_drop, cfg_drop)
        ]
        plain, drop_a, drop_b = (flatten_params(r.network) for r in runs)
        assert not np.array_equal(plain, drop_a)
        np.testing.assert_array_equal(drop_a, drop_b)


class TestBatchedWarmStart:
    def test_dropout_masks_are_drawn_sample_by_sample_then_layer_by_layer(self):
        net = build_network(
            6,
            [
                {"type": "dense", "units": 4, "activation": "tg"},
                {"type": "dense", "units": 3, "activation": "tg"},
                {"type": "dense", "units": 2, "activation": "linear"},
            ],
            np.random.default_rng(70),
        )
        masks = training._dropout_masks(net, 5, np.random.default_rng(71), 0.3)
        rng = np.random.default_rng(71)
        for b in range(5):
            for l, spec in enumerate(net.layers):
                want = (rng.random(spec.map.n_in) >= 0.3) / 0.7
                np.testing.assert_array_equal(masks[l][b], want)

    def test_masked_forward_pass_scales_each_layer_input(self):
        net = blob_net(np.random.default_rng(72))
        x = np.random.default_rng(73).normal(size=(4, 2))
        masks = [np.array([[2.0, 0.0]] * 4), None]
        xs, zs, _ = net.forward_pass(x, masks=masks)
        np.testing.assert_array_equal(xs[0], net.standardized(x))
        want = net.layers[0].map.forward(xs[0] * masks[0]) + net.layers[0].bias
        np.testing.assert_array_equal(zs[0], want)

    def test_objective_is_the_log_softmax_of_the_logits(self):
        net = blob_net(np.random.default_rng(76))
        # logits this far apart put log-probabilities far below log(1e-300) = -690.8
        params = [spec.map.params for spec in net.layers]
        params[-1] = params[-1] * 1e4
        net = net.with_layer_params(params, [spec.bias for spec in net.layers])
        data = blob_data(np.random.default_rng(77), n_per=4)
        labels = np.arange(len(data)) % 2
        _, _, lls = training._pretrain_batch(net, data.x, labels, None, 0.0)
        z = net.logits(data.x)
        want = z[np.arange(len(z)), labels] - logsumexp(z, axis=1)
        assert np.min(want) < -1e3
        np.testing.assert_allclose(lls, want, rtol=1e-12)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_dropout_marks_the_samples_whose_hidden_activations_leave_their_range(self):
        net = tg_shift_net(np.random.default_rng(78))
        x = np.random.default_rng(79).normal(size=(12, 6))
        x[::3] = np.sign(x[::3]) * 1e308  # these rows overflow some preactivations
        labels = np.arange(len(x)) % 2
        _, _, lls = training._pretrain_batch(net, x, labels, np.random.default_rng(80), 0.5)
        # the rule: NaN where an activation of the masked forward pass,
        # evaluated apart from the dropout mask, leaves its range
        masks = training._dropout_masks(net, len(x), np.random.default_rng(80), 0.5)
        zs = net.forward_pass(x, masks=masks)[1]
        outside = np.zeros(len(x), dtype=bool)
        for spec, z in zip(net.layers[:-1], zs[:-1]):
            act = activation_prior(spec.activation)
            outside |= ~act.in_support(act.activation(z))
        np.testing.assert_array_equal(np.isnan(lls), outside)
        assert 0 < np.sum(outside) < len(x)
        # a dropped unit is 0, outside the tg support, and marks nothing
        kept = ~outside
        assert np.all(np.isfinite(lls[kept])) and np.any(masks[1][kept] == 0.0)

    def test_minibatch_gradient_is_the_sum_of_sample_gradients(self):
        net = blob_net(np.random.default_rng(74))
        data = blob_data(np.random.default_rng(75), n_per=4)
        grads_w, grads_b, lls = training._pretrain_batch(net, data.x, data.labels, None, 0.0)
        for l in range(net.depth):
            one_w = sum(
                training._pretrain_batch(net, data.x[i : i + 1], data.labels[i : i + 1], None, 0.0)[0][l]
                for i in range(len(data))
            )
            np.testing.assert_allclose(grads_w[l], one_w, rtol=1e-12, atol=1e-15)
        assert lls.shape == (len(data),)


class TestBacksweep:
    """Both reverse sweeps stop at the first layer's weights: no input gradient there."""

    def count_adjoints(self, monkeypatch):
        calls = []
        real = LinearMap.adjoint
        monkeypatch.setattr(LinearMap, "adjoint", lambda m, h: calls.append(m) or real(m, h))
        return calls

    def test_likelihood_gradient_runs_depth_minus_one_adjoints(self, monkeypatch):
        net = tg_shift_net(np.random.default_rng(80))
        x = np.random.default_rng(81).uniform(0.2, 1.5, size=(3, 6))
        trace = net.interior_trace(x)
        calls = self.count_adjoints(monkeypatch)
        gradient(net, x, label=np.array([0, 1, 0]), trace=trace)
        assert calls == [spec.map for spec in net.layers[:0:-1]]

    @pytest.mark.parametrize("dropout", [0.0, 0.5])
    def test_warm_start_gradient_runs_depth_minus_one_adjoints(self, monkeypatch, dropout):
        net = tg_shift_net(np.random.default_rng(82))
        data = blob_data(np.random.default_rng(83), n_per=2)
        x = np.hstack([data.x] * 3)
        calls = self.count_adjoints(monkeypatch)
        training._pretrain_batch(net, x, data.labels, np.random.default_rng(84), dropout)
        assert calls == [spec.map for spec in net.layers[:0:-1]]


class TestEvaluate:
    def test_unclassifiable_counts_as_wrong(self):
        w = np.array([[1.0, 1.0], [1.0, -1.0]])
        spec = LayerSpec(DenseMap(w), np.zeros(2), "truncated_gaussian", "shift")
        net = Network([spec], output_prior=OutputPriorConfig(c=20.0, level=1.0, n_classes=2))
        good = np.array([1.0, 2.0])
        label = int(np.argmax(net.class_scores(good[None])[0]))
        data = Dataset(np.vstack([good, [-1.0, -1.0]]), np.array([label, 0]))
        assert evaluate(net, data) == pytest.approx(0.5)

    def test_logit_accuracy_is_fraction(self):
        rng = np.random.default_rng(60)
        net = blob_net(rng)
        data = blob_data(np.random.default_rng(61), n_per=5)
        acc = evaluate_logits(net, data)
        assert 0.0 <= acc <= 1.0
        assert acc * len(data) == pytest.approx(round(acc * len(data)))


class TestDataset:
    def test_label_length_mismatch(self):
        with pytest.raises(TrainingError):
            Dataset(np.ones((3, 2)), np.array([0, 1]))

    def test_subset_keeps_alignment(self):
        data = Dataset(np.arange(8.0).reshape(4, 2), np.array([0, 1, 0, 1]), ids=list("abcd"))
        sub = data.subset([2, 0])
        np.testing.assert_array_equal(sub.x, [[4.0, 5.0], [0.0, 1.0]])
        np.testing.assert_array_equal(sub.labels, [0, 0])
        assert sub.ids == ["c", "a"]
