"""Training: the exact likelihood gradient, plain optimizers, epoch loops.

The gradient runs one reverse sweep over a whole minibatch, one row per
sample.  Activation and output terms differentiate like any backward
pass; each layer's feature term -log p^(z~) needs two extra pieces,
both available from the saddle solutions already computed for the
likelihood:

* its z~ gradient is h^ + u/2, where u = S^-1 W'(k''' q) and
  q_i = w_i' S^-1 w_i, from differentiating the curvature log
  determinant through the saddle point;
* its explicit weight gradient is
  -lambda(alpha)(h^ + u/2)' + [(k''' q) - (k'' v)] h^'/2 + diag(k'') W S^-1
  with v = W u, everything evaluated at the saddle alpha = W h^.

Summed over a batch, the first two weight terms and the input term
x z~bar' are one product L'R of row stacks: x and x^ against z~bar and
-(h^ + u/2), plus the k''' rows against h^.  ``LinearMap.fold`` projects
it onto the parameters, and for a convolution multiplies only the
blocks of L'R that hold taps.  Under the Gaussian prior k'' is 1 and
k''' is 0: the curvature is the map's unit factor, the last term is B
times the map's kept fold of W S^-1 (``LinearMap.logdet_grad``), so no
dense W S^-1 is formed, and u and v vanish.  Under any other prior the
last term folds diag(k'') W S_b^-1 summed over the rows of the
curvature stack, and the same W S_b^-1 gives q where k''' is not zero.
The k'' at the saddle are the solve's curvature weights and the
activation slopes k''(z) come from the forward pass, so the sweep
evaluates only k''' anew.  It skips the input gradient of the first
layer, which nothing reads.

Samples whose likelihood is undefined (prior support or infeasible
feature targets) are skipped and counted; the reported efficiency is
the fraction that evaluated.  A non-finite objective or gradient aborts
training, returning the last good checkpoint, and so does a batch with
no usable sample once the phase has taken a step.  Before the first
step such a batch raises TrainingError: the data or the starting
network is at fault, and there is nothing to keep.

Both training modes ascend: the discriminative warm start maximizes the
softmax log-probability of labels under the logits z_L, the generative
phase maximizes the mean log-likelihood; both subtract an optional L2
weight penalty (biases are not decayed).  The warm start's weight
gradient is the fold of each layer's inputs against its z bar.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import TrainingError
from .linops import DenseMap
from .network import check_labels, label_signal, output_shift, row_chunks
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
        if self.epochs < 0:
            raise TrainingError("epochs must be nonnegative")
        if self.batch_size is not None and self.batch_size < 1:
            raise TrainingError("batch_size must be positive")
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0.0):
            raise TrainingError("learning_rate must be finite and positive")
        if not (np.isfinite(self.l2) and self.l2 >= 0.0):
            raise TrainingError("l2 must be finite and nonnegative")
        if self.optimizer not in ("sgd", "adam"):
            raise TrainingError(f"unknown optimizer {self.optimizer!r}")
        if not 0.0 <= self.dropout < 1.0:
            raise TrainingError("dropout must be in [0, 1)")


@dataclass
class TrainResult:
    network: object
    history: list = field(default_factory=list)
    aborted: bool = False
    reason: str = None  # why the run aborted


# ---------------------------------------------------------------------------
# generative gradient


def gradient(net, x_raw, label=None, trace=None):
    """Gradient of the log-likelihood summed over a batch.

    Returns (weight grads, bias grads, log-likelihood).  For a
    (B, n_in) batch with one label per row, the gradients are summed
    over the samples whose likelihood is defined (``trace.defined``) and
    the log-likelihood has one value per defined sample.  One sample
    (n_in,) with one label is the one-row batch of ``log_likelihood``:
    its log-likelihood is a float, and an undefined sample raises
    LikelihoodUndefinedError.
    """
    if trace is None:
        trace = net.interior_trace(np.atleast_2d(x_raw))
    ll = net.log_likelihood(x_raw, label=label, trace=trace).total
    idx = np.flatnonzero(trace.defined)
    depth = net.depth
    grads_w = [None] * depth
    grads_b = [None] * depth

    z_last = trace.zs[-1][idx]
    if net.output_prior is None:
        bar_z = -z_last
    else:
        cfg = net.output_prior
        signal = label_signal(np.atleast_1d(label)[idx], cfg.n_classes, cfg.level)
        x_out, slope, curvature = output_shift(z_last, signal, cfg.c, cfg.level)
        bar_z = -x_out * slope + curvature / slope

    bar_x = None
    for l in range(depth, 0, -1):
        spec = net.layers[l - 1]
        x, z = trace.xs[l - 1][idx], trace.zs[l - 1][idx]
        prior = spec.input_prior
        if l < depth:
            k2z = trace.slopes[l - 1][idx]
            bar_z = bar_x * k2z + activation_prior(spec.activation).cgf_third_deriv(z) / k2z

        half, left, right, det = (0.0, [], [], 0.0)
        if idx.size:
            half, left, right, det = _feature_term(spec, trace.solution(l, idx))
        bar_z_tilde = bar_z + half
        grads_b[l - 1] = np.sum(bar_z, axis=0)
        left, right = np.concatenate([x, *left]), np.concatenate([bar_z_tilde, *right])
        grads_w[l - 1] = spec.map.fold(left, right) + det
        if l > 1:
            bar_x = spec.map.adjoint(bar_z_tilde) + prior.grad_log_density(x)
    return grads_w, grads_b, ll


def _feature_term(spec, sol):
    """(h^ + u/2 per row, left, right, det) of one layer.

    The explicit d/dW of -log p^ summed over the rows is the fold of the
    row stacks left and right plus det, its log-det term.
    """
    k2 = sol.curvature_weights
    if spec.input_prior.kind == "gaussian":  # k'' is 1 and k''' is 0
        return sol.h_hat, [sol.x_hat], [-sol.h_hat], len(k2) * spec.map.logdet_grad
    p = sol.curvature.w_s_inv  # one n_in x n_out matrix per row
    det = spec.map.collect_matrix_grad(np.einsum("bi,bij->ij", k2, p))
    k3 = spec.input_prior.cgf_third_deriv(sol.alpha)
    half, left, right = sol.h_hat, [], []
    if np.any(k3 != 0.0):
        a = spec.map.materialize()  # n_out x n_in
        q = np.einsum("ki,...ik->...i", a, p)
        # u = S^-1 W'(k''' q) = (W S^-1)'(k''' q), as S^-1 is symmetric
        u = ((k3 * q)[:, None, :] @ p)[:, 0]
        half = half + 0.5 * u
        left, right = [0.5 * (k3 * q - k2 * (u @ a))], [sol.h_hat]
    return half, [sol.x_hat, *left], [-half, *right], det


def objective(net, data, l2=0.0):
    """Mean defined-sample log-likelihood minus the L2 weight penalty.

    Returns (value, efficiency).  Raises TrainingError when every
    sample is undefined.
    """
    lls = []
    for idx in row_chunks(len(data)):
        labels = None if data.labels is None else data.labels[idx]
        lls.append(net.log_likelihood(data.x[idx], label=labels).total)
    lls = np.concatenate(lls) if lls else np.zeros(0)
    if lls.size == 0:
        raise TrainingError("no sample in the batch has a defined likelihood")
    norm = float(sum(np.sum(spec.map.params**2) for spec in net.layers))
    value = float(np.sum(lls)) / lls.size - l2 * norm
    return value, lls.size / len(data)


def _batch(net, weights, data, idx, l2, batch_grad):
    """Mean gradient and objective over the defined samples of one minibatch.

    ``batch_grad(net, x, labels)`` returns the weight and bias
    gradients summed over the defined samples of the rows ``x``, and
    one objective value per defined sample.  ``weights`` is the part of
    the parameter vector that holds the layer parameters (biases are
    not decayed).  Returns (gradient in the layout of the parameter
    vector, penalized objective, defined-sample count).
    """
    labels = None if data.labels is None else data.labels[idx]
    grads_w, grads_b, values = batch_grad(net, data.x[idx], labels)
    defined = len(values)
    if defined == 0:
        raise TrainingError("no sample in the batch has a defined likelihood")
    grad = np.concatenate([g.ravel() for g in grads_w + grads_b]) / defined
    grad[: weights.size] -= 2.0 * l2 * weights
    value = float(np.sum(values)) / defined - l2 * float(np.sum(weights**2))
    return grad, value, defined


# ---------------------------------------------------------------------------
# discriminative warm start


def _log_softmax(z):
    """(log-softmax, softmax) of each row of z, from one shift by the row maximum."""
    shifted = z - np.max(z, axis=1, keepdims=True)
    e = np.exp(shifted)
    total = np.sum(e, axis=1, keepdims=True)
    return shifted - np.log(total), e / total


def _dropout_masks(net, n_rows, rng, dropout):
    """Dropout multipliers for the inputs of the dense layers (None elsewhere).

    The draws run sample by sample and, within a sample, layer by layer.
    """
    dense = [l for l, spec in enumerate(net.layers) if isinstance(spec.map, DenseMap)]
    widths = [net.layers[l].map.n_in for l in dense]
    draws = rng.random((n_rows, sum(widths)))
    masks = [None] * net.depth
    for l, block in zip(dense, np.split(draws, np.cumsum(widths)[:-1], axis=1)):
        masks[l] = (block >= dropout) / (1.0 - dropout)
    return masks


def _pretrain_batch(net, x_raw, labels, rng, dropout):
    """Softmax cross-entropy gradient summed over a minibatch, and each sample's value."""
    masks = _dropout_masks(net, len(x_raw), rng, dropout) if dropout > 0.0 else None
    xs, zs, slopes = net.forward_pass(x_raw, masks=masks)
    rows = np.arange(len(x_raw))
    log_probs, probs = _log_softmax(zs[-1])
    lls = log_probs[rows, labels]
    # A hidden activation leaves its range only when its arithmetic breaks
    # down at enormous preactivations; such a sample's value is NaN, like
    # an overflow, so a diverging run aborts instead of training on noise.
    # xs holds each activation before its dropout mask.
    for spec, x in zip(net.layers[:-1], xs[1:]):
        lls[~activation_prior(spec.activation).in_support(x)] = np.nan

    grads_w = [None] * net.depth
    grads_b = [None] * net.depth
    bar_z = -probs
    bar_z[rows, labels] += 1.0
    for l in range(net.depth, 0, -1):
        spec = net.layers[l - 1]
        mask = None if masks is None else masks[l - 1]
        if l < net.depth:
            bar_z = bar_x * slopes[l - 1]
        x = xs[l - 1] if mask is None else xs[l - 1] * mask
        grads_w[l - 1] = spec.map.fold(x, bar_z)
        grads_b[l - 1] = np.sum(bar_z, axis=0)
        if l > 1:
            bar_x = spec.map.adjoint(bar_z)
            if mask is not None:
                bar_x = bar_x * mask
    return grads_w, grads_b, lls


# ---------------------------------------------------------------------------
# evaluation


def evaluate(net, data):
    """Generative classification accuracy; undefined samples count as wrong."""
    correct = 0
    for idx in row_chunks(len(data)):
        trace = net.interior_trace(data.x[idx])
        scores = net.class_scores(data.x[idx], trace=trace)
        hits = np.argmax(scores, axis=1) == data.labels[idx]
        correct += int(np.sum(hits & trace.defined))
    return correct / len(data)


def evaluate_logits(net, data):
    """Discriminative accuracy by argmax of the logits."""
    correct = 0
    for idx in row_chunks(len(data)):
        correct += int(np.sum(np.argmax(net.logits(data.x[idx]), axis=1) == data.labels[idx]))
    return correct / len(data)


# ---------------------------------------------------------------------------
# optimizers and the epoch loop


class _Sgd:
    def __init__(self, lr):
        self.lr = lr

    def step(self, theta, grad):
        theta += self.lr * grad


class _Adam:
    def __init__(self, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.t = 0
        self.m = self.v = 0.0

    def step(self, theta, grad):
        self.t += 1
        self.m = self.beta1 * self.m + (1 - self.beta1) * grad
        self.v = self.beta2 * self.v + (1 - self.beta2) * grad * grad
        m_hat = self.m / (1 - self.beta1**self.t)
        v_hat = self.v / (1 - self.beta2**self.t)
        theta += self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def _make_optimizer(config):
    if config.optimizer == "adam":
        return _Adam(config.learning_rate)
    return _Sgd(config.learning_rate)


def _layer_arrays(net):
    """Every layer's parameters, then every layer's bias: the layout of the parameter vector."""
    return [spec.map.params for spec in net.layers] + [spec.bias for spec in net.layers]


def _unflatten(flat, like):
    """Views of ``flat`` with the shapes of the arrays ``like``, in order."""
    ends = np.cumsum([0] + [a.size for a in like])
    return [flat[s:e].reshape(a.shape) for s, e, a in zip(ends, ends[1:], like)]


def _run_epochs(net, data, config, val_data, batch_grad, val_fn, rng):
    """Minibatch ascent; ``rng`` shuffles every epoch (and drives any dropout).

    The optimizer updates one parameter vector theta in place, laid out
    as ``_layer_arrays``, and every step reads a network built anew from
    it; ``net`` itself is never trained.  Returns a network built from
    the best checkpoint, a copy of theta, or ``net`` itself when no
    epoch completed.
    """
    if not len(data):
        raise TrainingError("the training set is empty")
    arrays = _layer_arrays(net)
    theta = np.concatenate([a.ravel() for a in arrays])
    weights = theta[: sum(a.size for a in arrays[: net.depth])]

    def build(flat):
        views = _unflatten(flat, arrays)
        return net.with_layer_params(views[: net.depth], views[net.depth :])

    step_net = build(theta)
    opt = _make_optimizer(config)
    history = []
    best, best_acc = None, -1.0
    reason = None

    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(len(data))
        size = config.batch_size or len(data)
        value_sum, defined_sum, attempted_sum = 0.0, 0, 0
        for start in range(0, len(order), size):
            idx = order[start : start + size]
            try:
                grad, value, defined = _batch(step_net, weights, data, idx, config.l2, batch_grad)
            except TrainingError as exc:
                if epoch == 1 and start == 0:
                    raise
                reason = str(exc)
                break
            if not (np.isfinite(value) and np.all(np.isfinite(grad))):
                reason = "non-finite objective or gradient"
                break
            opt.step(theta, grad)
            step_net = build(theta)
            value_sum += value * defined
            defined_sum += defined
            attempted_sum += len(idx)
        if reason is not None:
            break
        val_acc = None if val_data is None else val_fn(step_net, val_data)
        history.append(
            dict(
                epoch=epoch,
                objective=value_sum / max(defined_sum, 1),
                val_accuracy=val_acc,
                efficiency=defined_sum / max(attempted_sum, 1),
            )
        )
        if val_data is None or val_acc >= best_acc:
            best_acc, best = val_acc, theta.copy()
    if best is not None:
        net = build(best)
    return TrainResult(network=net, history=history, aborted=reason is not None, reason=reason)


def _check_labels(n_classes, data, val_data):
    """Refuse unlabeled training data, and a label outside 0..n_classes-1, before any step."""
    if data.labels is None:
        raise TrainingError("training needs labeled data")
    for d in (data, val_data):
        if d is not None and d.labels is not None:
            check_labels(d.labels, n_classes)


def train(net, data, config, val_data=None):
    """Generative (likelihood-ascent) training."""
    if net.output_prior is not None:
        _check_labels(net.n_classes, data, val_data)
    rng = np.random.default_rng(config.seed)
    return _run_epochs(net, data, config, val_data, gradient, evaluate, rng)


def pretrain_discriminative(net, data, config, val_data=None):
    """Softmax cross-entropy warm start on the logits z_L."""
    _check_labels(net.n_out, data, val_data)
    rng = np.random.default_rng(config.seed)

    def batch_grad(n, x_raw, labels):
        return _pretrain_batch(n, x_raw, labels, rng, config.dropout)

    return _run_epochs(net, data, config, val_data, batch_grad, evaluate_logits, rng)
