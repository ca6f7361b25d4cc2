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
support), so any backstep can raise ReconstructionError; callers count
such failures rather than treating them as crashes.
"""

import numpy as np

from .errors import ConfigError, DomainError, ShapeMismatchError
from .network import (
    INNER_ACTIVATIONS,
    label_signal,
    output_shift_slope,
    output_shift,
)
from .priors import _bracketed_newton, activation_prior
from .saddlepoint import conditional_mean

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
    offset = s * (level + 0.5 * c) / level
    lo = x + offset - 0.5 * c - 1.0
    hi = x + offset + 0.5 * c + 1.0
    f = lambda z: output_shift(z, s, c, level)
    fp = lambda z: output_shift_slope(z, c)
    return _bracketed_newton(f, fp, x, lo, hi)


def backstep(spec, x_next, *, label="backstep"):
    """One layer of reconstruction: from x_{l+1} back to an estimate of x_l.

    Inverts the layer's mean activation (exact, with a strict open-range
    check) and conditions the layer prior on the resulting feature.
    """
    if spec.activation not in INNER_ACTIVATIONS:
        raise ConfigError("backstep needs a mean activation; shift layers are inverted per label")
    x_next = np.asarray(x_next, dtype=np.float64)
    if x_next.shape != (spec.map.n_out,):
        raise ShapeMismatchError(f"{label}: expected shape ({spec.map.n_out},), got {x_next.shape}")
    z = activation_prior(spec.activation).activation_inverse(x_next)
    return conditional_mean(spec.map, spec.input_prior, z - spec.bias, label=label)


def reconstruct_from_layer(net, layer, z_layer):
    """Reconstruct a raw input from the preactivation of a 1-based layer."""
    if not 1 <= layer <= net.depth:
        raise DomainError(f"layer {layer} outside 1..{net.depth}")
    spec = net.layers[layer - 1]
    z = np.asarray(z_layer, dtype=np.float64)
    if z.shape != (spec.map.n_out,):
        raise ShapeMismatchError(f"layer {layer} emits ({spec.map.n_out},), got {z.shape}")
    if not np.all(np.isfinite(z)):
        raise DomainError("preactivation must be finite")
    x = conditional_mean(spec.map, spec.input_prior, z - spec.bias, label=f"layer {layer}")
    for l in range(layer - 1, 0, -1):
        x = backstep(net.layers[l - 1], x, label=f"layer {l}")
    return net.destandardize(x)


def synthesize(net, seed, label=None):
    """Draw one raw-space sample by inverting the whole network.

    The output is drawn standard normal, mapped back through the output
    shift under the requested label, then reconstructed layer by layer.
    Deterministic in the seed.
    """
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(net.n_out)
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
    return reconstruct_from_layer(net, net.depth, z_last)


def reconstruction_statistic(net, x_raw, layer):
    """Log inverse mean squared reconstruction error through a hidden layer.

    Forward to the given layer (1..depth-1), reconstruct, and score
    -log MSE in raw units, floored at MSE 1e-12 so perfect round trips
    cap near 27.63.  Larger means the sample is better explained.
    """
    if not 1 <= layer <= net.depth - 1:
        raise DomainError(f"statistic layer {layer} outside 1..{net.depth - 1}")
    _, zs = net.forward_pass(x_raw)
    x_hat = reconstruct_from_layer(net, layer, zs[layer - 1])
    x = np.asarray(x_raw, dtype=np.float64)
    mse = float(np.mean((x - x_hat) ** 2))
    return float(-np.log(max(mse, MSE_FLOOR)))
