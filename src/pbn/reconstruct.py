"""Reconstruction and synthesis by walking the network backwards.

From a preactivation z_k the layer input is estimated by the saddle
point conditional mean; from a layer input the preactivation below is
recovered by inverting its mean activation exactly.  Alternating the
two steps walks any hidden state back to the raw input space.  The
walk preserves every feature it passed through: running the network
forward on a reconstruction reproduces z_k to solver accuracy, because
each conditional mean satisfies its saddle constraint exactly.

A reconstructed preactivation need not be reachable by the layer below
(its feasible cone is a strict subset once a prior has bounded
support), so any backstep can fail; callers count such failures rather
than treating them as crashes.  Every walk takes a (B, n) stack and
walks all rows at once; a row that fails comes back NaN, with its
ReconstructionError (or DomainError, for a value outside an activation
range) in the walk's error list.
"""

import numpy as np

from .errors import ConfigError, DomainError, ShapeMismatchError
from .network import label_signal, output_shift
from .priors import _bracketed_newton, activation_prior
from .saddlepoint import solve_saddle

MSE_FLOOR = 1e-12


def invert_output_shift(x_out, signal, c, level):
    """Solve the monotone output shift for z, elementwise.

    The sigmoid term is bounded by C/2, so z always lies within
    C/2 + 1 of x plus the label offset; Newton under that bracket
    converges for any C >= 0.
    """
    x = np.asarray(x_out, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise DomainError("shifted output must be finite")
    s = np.broadcast_to(np.asarray(signal, dtype=np.float64), x.shape)
    y = x + s * (level + 0.5 * c) / level
    # z + C (sigma(3z) - 1/2) = y, the label offset moved to the right-hand side
    f_df = lambda z: output_shift(z, 0.0, c, level)[:2]
    return _bracketed_newton(f_df, y, y - 0.5 * c - 1.0, y + 0.5 * c + 1.0)


def _conditional_means(net, layer, z_layer, trace=None):
    """(E[x_l | z~_l] per row, per-row errors) at a 1-based layer.

    Rows the interior ``trace`` of the same batch solved at this layer
    reuse its solution; the others are solved here.
    """
    spec = net.layers[layer - 1]
    z_tilde = z_layer - spec.bias
    x = np.full((len(z_tilde), spec.map.n_in), np.nan)
    errors = [None] * len(z_tilde)
    todo = np.arange(len(z_tilde))
    if trace is not None and trace.solutions[layer - 1] is not None:
        rows, sol = trace.rows[layer - 1], trace.solutions[layer - 1]
        x[rows] = sol.x_hat
        for r, err in zip(rows, sol.errors):
            errors[r] = err
        todo = np.setdiff1d(todo, rows)
    if todo.size:
        sol = solve_saddle(spec.map, spec.input_prior, z_tilde[todo], label=f"layer {layer}")
        x[todo] = sol.x_hat
        for r, err in zip(todo, sol.errors):
            errors[r] = err
    return x, errors


def _backstep(spec, x_next, label):
    """(estimates of x_l, per-row errors) for each row of x_next; a failed row is NaN."""
    act = activation_prior(spec.activation)
    out = np.full((len(x_next), spec.map.n_in), np.nan)
    errors = [None] * len(x_next)
    inside = act.in_support(x_next)
    for r in np.flatnonzero(~inside):
        errors[r] = DomainError(f"{label}: value outside the {spec.activation} activation range")
    rows = np.flatnonzero(inside)
    if rows.size:
        z = act.activation_inverse(x_next[rows])
        sol = solve_saddle(spec.map, spec.input_prior, z - spec.bias, label=label)
        out[rows] = sol.x_hat
        for r, err in zip(rows, sol.errors):
            errors[r] = err
    return out, errors


def _walk_down(net, layer, x, errors):
    """Walk (B, n) estimates of a layer's input down to raw inputs; a row keeps its first error."""
    for l in range(layer - 1, 0, -1):
        x, step = _backstep(net.layers[l - 1], x, f"layer {l}")
        errors = [err or new for err, new in zip(errors, step)]
    return net.destandardize(x), errors


def reconstruct_from_layer(net, layer, z_layer):
    """Reconstruct raw inputs from a (B, n) stack of preactivations of a 1-based layer.

    Returns (rows, errors): NaN rows where the walk failed, with that
    walk's error (None for a row that succeeded).
    """
    if not 1 <= layer <= net.depth:
        raise DomainError(f"layer {layer} outside 1..{net.depth}")
    n_out = net.layers[layer - 1].map.n_out
    z = np.asarray(z_layer, dtype=np.float64)
    if z.ndim != 2 or z.shape[1] != n_out:
        raise ShapeMismatchError(f"layer {layer} emits (B, {n_out}), got {z.shape}")
    return _walk_down(net, layer, *_conditional_means(net, layer, z))


def synthesize(net, seeds, label=None):
    """Draw raw-space samples by inverting the whole network.

    The output is drawn standard normal, mapped back through the output
    shift under the requested label, then reconstructed layer by layer.
    Deterministic in the seeds: returns (rows, errors), one row per
    seed, NaN where the walk failed, with that walk's error (None for a
    row that succeeded).
    """
    u = np.array([np.random.default_rng(int(s)).standard_normal(net.n_out) for s in seeds])
    if net.output_prior is None:
        if label is not None:
            raise ConfigError("network has no output prior; drop the label")
        z_last = u
    else:
        if label is None:
            raise ConfigError("network has an output prior; a label is required")
        cfg = net.output_prior
        z_last = invert_output_shift(
            u, label_signal(label, cfg.n_classes, cfg.level), cfg.c, cfg.level
        )
    return _walk_down(net, net.depth, *_conditional_means(net, net.depth, z_last))


def reconstruction_statistic(net, x_raw, layer, trace=None):
    """Log inverse mean squared reconstruction error through a hidden layer.

    Forward to the given layer (1..depth-1), reconstruct, and score
    -log MSE in raw units, floored at MSE 1e-12 so perfect round trips
    cap near 27.63.  Larger means the sample is better explained.  A
    (B, n_in) batch gives one statistic per row, NaN where the walk
    fails.  Given the batch's interior ``trace``, the walk starts from
    the conditional means it already holds.
    """
    if not 1 <= layer <= net.depth - 1:
        raise DomainError(f"statistic layer {layer} outside 1..{net.depth - 1}")
    x = np.asarray(x_raw, dtype=np.float64)
    if x.ndim != 2:
        raise ShapeMismatchError(f"input shape {x.shape} != (B, {net.n_in})")
    zs = trace.zs if trace is not None else net.forward_pass(x)[1]
    start, errors = _conditional_means(net, layer, zs[layer - 1], trace)
    x_hat, _ = _walk_down(net, layer, start, errors)
    mse = np.mean((x - x_hat) ** 2, axis=1)
    return -np.log(np.maximum(mse, MSE_FLOOR))
