"""The per-sample numerical core that the batched one replaced, kept as the test oracle.

Every function here handles exactly one sample, the way ``pbn`` did
before its core took (B, n) batches: one Newton solve per target with
its own SciPy Cholesky factors, one interior trace, one likelihood and
one reverse sweep per sample, one reconstruction walk per sample.  The
solver follows the package's rules (its line search counts a change
within rounding as flat, and a non-finite residual fails the solve).
It uses the package's priors, maps and output-shift helpers, which act
elementwise, and nothing from its saddle, network, training or
reconstruction code.  Tests compare the batched results with these.

Two front-end pieces are kept the same way: ``logmel`` with one FFT and
one filterbank product per frame, and ``conv_wiring``, the tap indices
of a ``ConvMap`` built from full ``np.indices`` grids.

So is the epoch loop that trained a new network per step: ``run_epochs``
builds a validated network with new maps after every optimizer step,
keeps its optimizer state as one array per layer parameter and bias,
and checkpoints a network.  It takes the place of
``pbn.training._run_epochs`` and uses that module's batch gradients.
"""

import math

import numpy as np

from pbn.errors import (
    DomainError,
    LikelihoodUndefinedError,
    ReconstructionError,
    SingularityError,
    TrainingError,
)
from pbn.features import _BANK, _WINDOW_FN, ENERGY_FLOOR, HOP, N_BANDS, N_FFT, N_FRAMES, WINDOW
from pbn.linops import GramFactor
from pbn.network import (
    INNER_ACTIVATIONS,
    LOG_2PI,
    label_signal,
    output_shift,
    output_shift_curvature,
    output_shift_slope,
)
from pbn.priors import activation_prior
from pbn.training import TrainResult


class Solution:
    def __init__(self, h, alpha, lam, curvature, objective):
        self.h_hat, self.alpha, self.x_hat = h, alpha, lam
        self.curvature = curvature
        self.log_density = objective - 0.5 * curvature.logdet - 0.5 * h.size * LOG_2PI


def _factor(map_, weights, label, it, rmax):
    try:
        return GramFactor(map_, weights, label=label)
    except (DomainError, SingularityError) as exc:
        raise ReconstructionError(f"{label}: curvature failed: {exc}", iterations=it, residual=rmax)


def _direction_factor(map_, weights, label, it, rmax):
    try:
        return GramFactor(map_, weights, label=label)
    except (DomainError, SingularityError):
        floor = float(np.max(weights)) * 1e-10
        if not (math.isfinite(floor) and floor > 0.0):
            raise ReconstructionError(f"{label}: curvature collapsed", iterations=it, residual=rmax)
        return _factor(map_, np.maximum(weights, floor), label, it, rmax)


def solve_saddle(map_, prior, z, *, max_iter=200, tol=1e-9, label="saddle"):
    """Damped Newton on K(h) - h'z for one target."""
    z = np.asarray(z, dtype=np.float64)
    if not np.all(np.isfinite(z)):
        raise DomainError(f"{label}: target must be finite")
    scale = 1.0 + float(np.max(np.abs(z)))
    h = GramFactor(map_).solve(z)
    for it in range(max_iter + 1):
        alpha = map_.adjoint(h)
        lam = prior.activation(alpha)
        resid = z - map_.forward(lam)
        cgf = prior.cgf(alpha)
        objective = float(np.sum(cgf) - h @ z)
        flat = 16.0 * np.finfo(np.float64).eps * float(np.sum(np.abs(cgf)) + np.abs(h) @ np.abs(z))
        rmax = float(np.max(np.abs(resid)))
        if not math.isfinite(rmax):
            raise ReconstructionError(f"{label}: non-finite residual", iterations=it, residual=rmax)
        if rmax <= tol * scale:
            curv = _factor(map_, prior.activation_deriv(alpha), label, it, rmax)
            return Solution(h, alpha, lam, curv, objective)
        if it == max_iter:
            break
        curv = _direction_factor(map_, prior.activation_deriv(alpha), label, it, rmax)
        delta = curv.solve(resid)
        cap = max(25.0, 2.0 * float(np.max(np.abs(alpha))))
        move = float(np.max(np.abs(map_.adjoint(delta))))
        if move > cap:
            delta = delta * (cap / move)
        # a step must lower the objective by more than rounding; a flat full
        # step, or a stalled search, is judged by the residual
        t, judge = 1.0, True
        for attempt in range(60):
            cand = h + t * delta
            change = float(np.sum(prior.cgf(map_.adjoint(cand))) - cand @ z) - objective
            if change < -flat:
                h, judge = cand, False
                break
            if attempt == 0 and change <= flat:
                break
            t *= 0.5
        if judge:
            cand = h + delta
            cand_rmax = float(np.max(np.abs(z - map_.forward(prior.activation(map_.adjoint(cand))))))
            if not (math.isfinite(cand_rmax) and cand_rmax < rmax):
                raise ReconstructionError(f"{label}: no descent direction", iterations=it, residual=rmax)
            h = cand
    raise ReconstructionError(f"{label}: not reached", iterations=max_iter, residual=rmax)


def interior_trace(net, x_raw):
    """(layer inputs, preactivations, solutions) of one sample; raises when undefined."""
    xs, zs, _ = net.forward_pass(x_raw)
    solutions = []
    for l, spec in enumerate(net.layers, start=1):
        if not spec.input_prior.in_support(xs[l - 1]):
            raise LikelihoodUndefinedError(l, "layer input outside the prior support")
        try:
            solutions.append(solve_saddle(spec.map, spec.input_prior, zs[l - 1] - spec.bias, label=f"layer {l}"))
        except (DomainError, ReconstructionError, SingularityError) as exc:
            raise LikelihoodUndefinedError(l, f"feature density unavailable ({exc})") from exc
    return xs, zs, solutions


def log_likelihood(net, x_raw, label=None):
    xs, zs, solutions = interior_trace(net, x_raw)
    total = 0.0
    for spec, x, z, sol in zip(net.layers, xs, zs, solutions):
        total += float(spec.input_prior.log_density(x)) - sol.log_density
        if spec.activation in INNER_ACTIVATIONS:
            total += float(np.sum(np.log(activation_prior(spec.activation).activation_deriv(z))))
    z_last = zs[-1]
    if net.output_prior is None:
        x_out = z_last
    else:
        cfg = net.output_prior
        x_out = output_shift(z_last, label_signal(label, cfg.n_classes, cfg.level), cfg.c, cfg.level)
        total += float(np.sum(np.log(output_shift_slope(z_last, cfg.c))))
    total += -0.5 * x_out.size * LOG_2PI - 0.5 * float(x_out @ x_out)
    return total + net.log_standardize


def class_scores(net, x_raw):
    return np.array([log_likelihood(net, x_raw, label=y) for y in range(net.n_classes)])


def gradient(net, x_raw, label=None):
    """(weight grads, bias grads) of one sample's log-likelihood."""
    xs, zs, solutions = interior_trace(net, x_raw)
    grads_w, grads_b = [None] * net.depth, [None] * net.depth
    z_last = zs[-1]
    if net.output_prior is None:
        bar_z = -z_last.copy()
    else:
        cfg = net.output_prior
        x_out = output_shift(z_last, label_signal(label, cfg.n_classes, cfg.level), cfg.c, cfg.level)
        slope = output_shift_slope(z_last, cfg.c)
        bar_z = -x_out * slope + output_shift_curvature(z_last, cfg.c) / slope
    bar_x = None
    for l in range(net.depth, 0, -1):
        spec = net.layers[l - 1]
        x, z, sol = xs[l - 1], zs[l - 1], solutions[l - 1]
        prior = spec.input_prior
        if l < net.depth:
            act = activation_prior(spec.activation)
            k2z = act.activation_deriv(z)
            bar_z = bar_x * k2z + act.cgf_third_deriv(z) / k2z
        a = spec.map.materialize()
        k2 = prior.activation_deriv(sol.alpha)
        k3 = prior.cgf_third_deriv(sol.alpha)
        p = sol.curvature.solve(a).T
        q = np.einsum("nm,nm->n", a.T, p)
        u = sol.curvature.solve(spec.map.forward(k3 * q))
        v = spec.map.adjoint(u)
        half = sol.h_hat + 0.5 * u
        bar_z_tilde = bar_z + half
        grads_b[l - 1] = bar_z.copy()
        db_dw = (
            -np.outer(sol.x_hat, half)
            + 0.5 * np.outer(k3 * q - k2 * v, sol.h_hat)
            + k2[:, None] * p
        )
        grads_w[l - 1] = spec.map.collect_matrix_grad(np.outer(x, bar_z_tilde) + db_dw)
        bar_x = spec.map.adjoint(bar_z_tilde) + prior.grad_log_density(x)
    return grads_w, grads_b


def reconstruct_from_layer(net, layer, z_layer):
    spec = net.layers[layer - 1]
    x = solve_saddle(spec.map, spec.input_prior, z_layer - spec.bias, label=f"layer {layer}").x_hat
    for l in range(layer - 1, 0, -1):
        spec = net.layers[l - 1]
        act = activation_prior(spec.activation)
        if not act.in_support(x):
            raise DomainError(f"layer {l}: outside the activation range")
        z = act.activation_inverse(x)
        x = solve_saddle(spec.map, spec.input_prior, z - spec.bias, label=f"layer {l}").x_hat
    return net.destandardize(x)


def reconstruction_statistic(net, x_raw, layer):
    zs = net.forward_pass(x_raw)[1]
    x_hat = reconstruct_from_layer(net, layer, zs[layer - 1])
    return float(-np.log(max(float(np.mean((x_raw - x_hat) ** 2)), 1e-12)))


def logmel(wave):
    """Log-MEL matrix of one clip, one FFT and one filterbank product per frame."""
    wave = np.asarray(wave, dtype=np.float64)
    n_frames = max(0, 1 + (wave.size - WINDOW) // HOP)
    out = np.full((N_FRAMES, N_BANDS), np.log(ENERGY_FLOOR))
    for t in range(min(n_frames, N_FRAMES)):
        frame = wave[t * HOP : t * HOP + WINDOW] * _WINDOW_FN
        power = np.abs(np.fft.rfft(frame, n=N_FFT)) ** 2
        out[t] = np.log(np.maximum(_BANK @ power, ENERGY_FLOOR))
    return out


def conv_wiring(conv):
    """(dense, transposed-dense, parameter) flat indices of a ConvMap's taps, via np.indices."""
    c_out, c_in, kh, kw = conv.params.shape
    _, h, w = conv.in_shape
    sy, sx = conv.strides
    _, h_out, w_out = conv.out_shape
    co, ty, tx, ci, dy, dx = (a.ravel() for a in np.indices((c_out, h_out, w_out, c_in, kh, kw)))
    iy = ty * sy + dy - (kh - 1) // 2
    ix = tx * sx + dx - (kw - 1) // 2
    ok = (iy >= 0) & (iy < h) & (ix >= 0) & (ix < w)
    out_idx = np.ravel_multi_index((co[ok], ty[ok], tx[ok]), conv.out_shape)
    in_idx = np.ravel_multi_index((ci[ok], iy[ok], ix[ok]), conv.in_shape)
    par_idx = np.ravel_multi_index((co[ok], ci[ok], dy[ok], dx[ok]), conv.params.shape)
    return out_idx * conv.n_in + in_idx, in_idx * conv.n_out + out_idx, par_idx


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


def _weight_norm(net):
    return float(sum(np.sum(spec.map.params**2) for spec in net.layers))


def _batch(net, data, idx, l2, batch_grad):
    labels = None if data.labels is None else data.labels[idx]
    grads_w, grads_b, values = batch_grad(net, data.x[idx], labels)
    defined = len(values)
    if defined == 0:
        raise TrainingError("no sample in the batch has a defined likelihood")
    grads_w = [g / defined - 2.0 * l2 * spec.map.params for g, spec in zip(grads_w, net.layers)]
    grads_b = [g / defined for g in grads_b]
    value = float(np.sum(values)) / defined - l2 * _weight_norm(net)
    return grads_w, grads_b, value, defined


def _all_finite(arrays):
    return all(np.all(np.isfinite(a)) for a in arrays)


def _checkpoint(net):
    return net.with_layer_params(
        [spec.map.params for spec in net.layers], [spec.bias for spec in net.layers]
    )


def run_epochs(net, data, config, val_data, batch_grad, val_fn, rng):
    """Minibatch ascent that rebuilds the network after every step."""
    opt = _Adam(config.learning_rate) if config.optimizer == "adam" else _Sgd(config.learning_rate)
    history = []
    best_net, best_acc = net, -1.0
    reason = None

    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(len(data))
        size = config.batch_size or len(data)
        value_sum, defined_sum, attempted_sum = 0.0, 0, 0
        for start in range(0, len(order), size):
            idx = order[start : start + size]
            try:
                grads_w, grads_b, value, defined = _batch(net, data, idx, config.l2, batch_grad)
            except TrainingError as exc:
                if epoch == 1 and start == 0:
                    raise
                reason = str(exc)
                break
            if not (np.isfinite(value) and _all_finite(grads_w) and _all_finite(grads_b)):
                reason = "non-finite objective or gradient"
                break
            flat = list(grads_w) + list(grads_b)
            params = [spec.map.params for spec in net.layers] + [spec.bias for spec in net.layers]
            updated = opt.step(params, flat)
            net = net.with_layer_params(updated[: net.depth], updated[net.depth :])
            value_sum += value * defined
            defined_sum += defined
            attempted_sum += len(idx)
        if reason is not None:
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
    return TrainResult(network=best_net, history=history, aborted=reason is not None, reason=reason)
