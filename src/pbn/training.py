"""Training: the exact likelihood gradient, plain optimizers, epoch loops.

The per-sample gradient runs one reverse sweep.  Activation and output
terms differentiate like any backward pass; each layer's feature term
-log p^(z~) needs two extra pieces, both available from the saddle
solution already computed for the likelihood:

* its z~ gradient is h^ + u/2, where u = S^-1 W'(k''' q) and
  q_i = w_i' S^-1 w_i, from differentiating the curvature log
  determinant through the saddle point;
* its explicit weight gradient is
  -lambda(alpha)(h^ + u/2)' + [(k''' q) - (k'' v)] h^'/2 + diag(k'') W S^-1
  with v = W u, everything evaluated at the saddle alpha = W h^.

Samples whose likelihood is undefined (prior support or infeasible
feature targets) are skipped and counted; the reported efficiency is
the fraction that evaluated.  A batch with no usable sample raises
TrainingError, and a non-finite objective or gradient aborts training,
returning the last good checkpoint.

Both training modes ascend: the discriminative warm start maximizes the
softmax log-probability of labels under the logits z_L, the generative
phase maximizes the mean log-likelihood; both subtract an optional L2
weight penalty (biases are not decayed).
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import LikelihoodUndefinedError, TrainingError, UnclassifiableError
from .linops import DenseMap
from .network import (
    INNER_ACTIVATIONS,
    label_signal,
    output_shift,
    output_shift_curvature,
    output_shift_slope,
)
from .priors import activation_prior


@dataclass
class Dataset:
    """Feature rows with optional integer labels and row ids."""

    x: np.ndarray
    labels: np.ndarray = None
    ids: list = None

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=np.float64)
        if self.x.ndim != 2:
            raise TrainingError("dataset features must be 2-d (rows, dims)")
        if self.labels is not None:
            self.labels = np.asarray(self.labels)
            if self.labels.shape != (len(self.x),):
                raise TrainingError("labels length does not match rows")

    def __len__(self):
        return len(self.x)

    def subset(self, idx):
        return Dataset(
            self.x[idx],
            None if self.labels is None else self.labels[idx],
            None if self.ids is None else [self.ids[i] for i in idx],
        )


@dataclass
class TrainConfig:
    epochs: int = 10
    learning_rate: float = 1e-4
    batch_size: int = None
    optimizer: str = "sgd"
    l2: float = 0.0
    seed: int = 0
    dropout: float = 0.0

    def __post_init__(self):
        if self.optimizer not in ("sgd", "adam"):
            raise TrainingError(f"unknown optimizer {self.optimizer!r}")
        if not 0.0 <= self.dropout < 1.0:
            raise TrainingError("dropout must be in [0, 1)")


@dataclass
class TrainResult:
    network: object
    history: list = field(default_factory=list)
    aborted: bool = False


# ---------------------------------------------------------------------------
# generative gradient


def gradient(net, x_raw, label=None, trace=None):
    """Per-sample gradient of the log-likelihood.

    Returns (weight grads, bias grads, log-likelihood).  Raises
    LikelihoodUndefinedError when the sample has no likelihood.
    """
    if trace is None:
        trace = net.interior_trace(x_raw)
    ll = net.log_likelihood(x_raw, label=label, trace=trace).total
    depth = net.depth
    grads_w = [None] * depth
    grads_b = [None] * depth

    z_last = trace.zs[-1]
    if net.output_prior is None:
        bar_z = -z_last.copy()
    else:
        cfg = net.output_prior
        signal = label_signal(label, cfg.n_classes, cfg.level)
        x_out = output_shift(z_last, signal, cfg.c, cfg.level)
        slope = output_shift_slope(z_last, cfg.c)
        bar_z = -x_out * slope + output_shift_curvature(z_last, cfg.c) / slope

    bar_x = None
    for l in range(depth, 0, -1):
        spec = net.layers[l - 1]
        x, z, sol = trace.xs[l - 1], trace.zs[l - 1], trace.solutions[l - 1]
        prior = spec.input_prior
        if l < depth:
            act = activation_prior(spec.activation)
            k2z = act.activation_deriv(z)
            bar_z = bar_x * k2z + act.cgf_third_deriv(z) / k2z

        # feature term internals, all at the saddle alpha = W h^
        a = spec.map.materialize()  # n_out x n_in
        k2 = prior.activation_deriv(sol.alpha)
        k3 = prior.cgf_third_deriv(sol.alpha)
        p = sol.curvature.w_s_inv  # n_in x n_out
        q = np.einsum("nm,nm->n", a.T, p)
        g_h = spec.map.forward(k3 * q)
        u = sol.curvature.solve(g_h)
        v = spec.map.adjoint(u)
        half = sol.h_hat + 0.5 * u

        bar_z_tilde = bar_z + half
        grads_b[l - 1] = bar_z.copy()
        db_dw = (
            -np.outer(sol.x_hat, half)
            + 0.5 * np.outer(k3 * q - k2 * v, sol.h_hat)
            + k2[:, None] * p
        )
        grads_w[l - 1] = spec.map.param_grad(x, bar_z_tilde) + spec.map.collect_matrix_grad(
            db_dw
        )
        bar_x = spec.map.adjoint(bar_z_tilde) + prior.grad_log_density(x)
    return grads_w, grads_b, ll


def objective(net, data, l2=0.0):
    """Mean defined-sample log-likelihood minus the L2 weight penalty.

    Returns (value, efficiency).  Raises TrainingError when every
    sample is undefined.
    """
    total, defined = 0.0, 0
    for i in range(len(data)):
        label = None if data.labels is None else int(data.labels[i])
        try:
            terms = net.log_likelihood(data.x[i], label=label)
        except LikelihoodUndefinedError:
            continue
        total += terms.total
        defined += 1
    if defined == 0:
        raise TrainingError("no sample in the batch has a defined likelihood")
    value = total / defined - l2 * _weight_norm(net)
    return value, defined / len(data)


def _weight_norm(net):
    return float(sum(np.sum(spec.map.params**2) for spec in net.layers))


def _batch(net, data, idx, l2, sample_grad):
    """Mean gradient and objective over the defined samples of one minibatch.

    ``sample_grad(net, x_raw, label)`` returns one sample's (weight
    grads, bias grads, objective); a sample that raises
    LikelihoodUndefinedError is skipped.  Returns (weight grads, bias
    grads, penalized objective, defined-sample count).
    """
    grads_w = [np.zeros_like(spec.map.params) for spec in net.layers]
    grads_b = [np.zeros_like(spec.bias) for spec in net.layers]
    total, defined = 0.0, 0
    for i in idx:
        label = None if data.labels is None else int(data.labels[i])
        try:
            gw, gb, ll = sample_grad(net, data.x[i], label)
        except LikelihoodUndefinedError:
            continue
        for l in range(net.depth):
            grads_w[l] += gw[l]
            grads_b[l] += gb[l]
        total += ll
        defined += 1
    if defined == 0:
        raise TrainingError("no sample in the batch has a defined likelihood")
    for l, spec in enumerate(net.layers):
        grads_w[l] = grads_w[l] / defined - 2.0 * l2 * spec.map.params
        grads_b[l] /= defined
    value = total / defined - l2 * _weight_norm(net)
    return grads_w, grads_b, value, defined


# ---------------------------------------------------------------------------
# discriminative warm start


def _softmax(z):
    e = np.exp(z - np.max(z))
    return e / np.sum(e)


def _pretrain_sample(net, x_raw, label, rng, dropout):
    x = net.standardized(x_raw)
    xs, zs, masks = [], [], []
    for spec in net.layers:
        mask = None
        if dropout > 0.0 and isinstance(spec.map, DenseMap):
            mask = (rng.random(x.size) >= dropout) / (1.0 - dropout)
            x = x * mask
        xs.append(x)
        masks.append(mask)
        z = spec.map.forward(x) + spec.bias
        zs.append(z)
        if spec.activation in INNER_ACTIVATIONS:
            x = activation_prior(spec.activation).activation(z)
    probs = _softmax(zs[-1])
    ll = float(np.log(max(probs[label], 1e-300)))

    grads_w = [None] * net.depth
    grads_b = [None] * net.depth
    bar_z = -probs
    bar_z[label] += 1.0
    for l in range(net.depth, 0, -1):
        spec = net.layers[l - 1]
        if l < net.depth:
            act = activation_prior(spec.activation)
            bar_z = bar_x * act.activation_deriv(zs[l - 1])
        grads_w[l - 1] = spec.map.param_grad(xs[l - 1], bar_z)
        grads_b[l - 1] = bar_z.copy()
        bar_x = spec.map.adjoint(bar_z)
        if masks[l - 1] is not None:
            bar_x = bar_x * masks[l - 1]
    return grads_w, grads_b, ll


# ---------------------------------------------------------------------------
# evaluation


def evaluate(net, data):
    """Generative classification accuracy; undefined samples count as wrong."""
    correct = 0
    for i in range(len(data)):
        try:
            if net.classify(data.x[i]) == int(data.labels[i]):
                correct += 1
        except UnclassifiableError:
            pass
    return correct / len(data)


def evaluate_logits(net, data):
    """Discriminative accuracy by argmax of the logits."""
    correct = 0
    for i in range(len(data)):
        if int(np.argmax(net.logits(data.x[i]))) == int(data.labels[i]):
            correct += 1
    return correct / len(data)


# ---------------------------------------------------------------------------
# optimizers and the epoch loop


class _Sgd:
    def __init__(self, lr):
        self.lr = lr

    def step(self, params, grads):
        return [p + self.lr * g for p, g in zip(params, grads)]


class _Adam:
    def __init__(self, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.t = 0
        self.m = None
        self.v = None

    def step(self, params, grads):
        if self.m is None:
            self.m = [np.zeros_like(p) for p in params]
            self.v = [np.zeros_like(p) for p in params]
        self.t += 1
        out = []
        for i, (p, g) in enumerate(zip(params, grads)):
            self.m[i] = self.beta1 * self.m[i] + (1 - self.beta1) * g
            self.v[i] = self.beta2 * self.v[i] + (1 - self.beta2) * g * g
            m_hat = self.m[i] / (1 - self.beta1**self.t)
            v_hat = self.v[i] / (1 - self.beta2**self.t)
            out.append(p + self.lr * m_hat / (np.sqrt(v_hat) + self.eps))
        return out


def _make_optimizer(config):
    if config.optimizer == "adam":
        return _Adam(config.learning_rate)
    return _Sgd(config.learning_rate)


def _all_finite(arrays):
    return all(np.all(np.isfinite(a)) for a in arrays)


def _checkpoint(net):
    """A copy of ``net`` with the same parameters and none of its caches.

    Holding the network itself would keep its dense matrices and Gram
    factors alive next to those of the network being trained.
    """
    return net.with_layer_params(
        [spec.map.params for spec in net.layers], [spec.bias for spec in net.layers]
    )


def _run_epochs(net, data, config, val_data, sample_grad, val_fn, rng):
    """Minibatch ascent; ``rng`` shuffles every epoch (and drives any dropout)."""
    opt = _make_optimizer(config)
    history = []
    best_net, best_acc = net, -1.0
    aborted = False

    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(len(data))
        size = config.batch_size or len(data)
        value_sum, defined_sum, attempted_sum = 0.0, 0, 0
        for start in range(0, len(order), size):
            idx = order[start : start + size]
            grads_w, grads_b, value, defined = _batch(net, data, idx, config.l2, sample_grad)
            if not (np.isfinite(value) and _all_finite(grads_w) and _all_finite(grads_b)):
                aborted = True
                break
            flat = list(grads_w) + list(grads_b)
            params = [spec.map.params for spec in net.layers] + [
                spec.bias for spec in net.layers
            ]
            updated = opt.step(params, flat)
            net = net.with_layer_params(updated[: net.depth], updated[net.depth :])
            value_sum += value * defined
            defined_sum += defined
            attempted_sum += len(idx)
        if aborted:
            break
        val_acc = None if val_data is None else val_fn(net, val_data)
        history.append(
            dict(
                epoch=epoch,
                objective=value_sum / max(defined_sum, 1),
                val_accuracy=val_acc,
                efficiency=defined_sum / max(attempted_sum, 1),
            )
        )
        if val_data is None or val_acc >= best_acc:
            best_acc, best_net = val_acc, _checkpoint(net)
    return TrainResult(network=best_net, history=history, aborted=aborted)


def train(net, data, config, val_data=None):
    """Generative (likelihood-ascent) training."""
    if net.output_prior is not None and data.labels is None:
        raise TrainingError("this network needs labeled data")
    rng = np.random.default_rng(config.seed)
    return _run_epochs(net, data, config, val_data, gradient, evaluate, rng)


def pretrain_discriminative(net, data, config, val_data=None):
    """Softmax cross-entropy warm start on the logits z_L."""
    if data.labels is None:
        raise TrainingError("pretraining needs labeled data")
    rng = np.random.default_rng(config.seed)

    def sample_grad(n, x_raw, label):
        return _pretrain_sample(n, x_raw, label, rng, config.dropout)

    return _run_epochs(net, data, config, val_data, sample_grad, evaluate_logits, rng)
