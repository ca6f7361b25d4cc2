"""Reconstruction and synthesis by walking the network backwards.

From a preactivation z_k the layer input is estimated by the saddle
point conditional mean x^ = k'(alpha), and the solution's alpha = W h^
is the preactivation of the layer below, whose activation is that k'.
Repeating the solve walks any hidden state back to the raw input
space.  The walk preserves every feature it passed through: running
the network forward on a reconstruction reproduces z_k to solver
accuracy, because each conditional mean satisfies its saddle
constraint exactly.

A reconstructed preactivation need not be reachable by the layer below
(its feasible cone is a strict subset once a prior has bounded
support), so any step can fail; callers count such failures rather
than treating them as crashes.  Every walk takes a (B, n) stack and
walks all rows at once; a row that fails comes back NaN, with its
ReconstructionError (or DomainError, for a non-finite target) in the
walk's error list.
"""

import numpy as np

from .errors import ConfigError, DomainError, PbnError, ShapeMismatchError
from .network import label_signal, output_shift
from .saddlepoint import solve_saddle

MSE_FLOOR = 1e-12
NEWTON_MAX_ITER = 140  # steps of _bracketed_newton
NEWTON_TOL = 1e-13  # and its tolerance on |f(x) - y| relative to 1 + |y|


def _bracketed_newton(f_df, y, lo, hi):
    """Solve f(x) = y for increasing f with f(lo) < y < f(hi), elementwise.

    ``f_df(x)`` returns the pair f(x), f'(x).  Newton steps are accepted
    only while they stay inside the current bracket; otherwise the
    iterate falls back to bisection, so convergence is guaranteed.  An
    element stops iterating once it has converged, so each result is the
    one its scalar solve would give, whatever the other elements of the
    array.
    """
    y = np.asarray(y, dtype=np.float64)
    shape = y.shape
    y = y.ravel()
    lo = np.broadcast_to(np.asarray(lo, dtype=np.float64), shape).flatten()
    hi = np.broadcast_to(np.asarray(hi, dtype=np.float64), shape).flatten()
    x = 0.5 * (lo + hi)
    live = np.arange(y.size)
    for _ in range(NEWTON_MAX_ITER):
        yl, xl, lol, hil = y[live], x[live], lo[live], hi[live]
        fx, dfx = f_df(xl)
        fx = fx - yl
        going = ~(np.abs(fx) <= NEWTON_TOL * (1.0 + np.abs(yl)))
        if not going.any():
            return x.reshape(shape)
        live, fx, dfx, xl = live[going], fx[going], dfx[going], xl[going]
        lol, hil = lol[going], hil[going]
        below = fx < 0.0
        lol = np.where(below, xl, lol)
        hil = np.where(below, hil, xl)
        with np.errstate(divide="ignore", invalid="ignore"):
            xn = xl - fx / dfx
        bad = ~np.isfinite(xn) | (xn <= lol) | (xn >= hil)
        x[live] = np.where(bad, 0.5 * (lol + hil), xn)
        lo[live], hi[live] = lol, hil
    fx = f_df(x[live])[0] - y[live]
    if np.all(np.abs(fx) <= 1e-9 * (1.0 + np.abs(y[live]))):
        return x.reshape(shape)
    raise PbnError("output shift inverse did not converge")


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


def _walk_down(net, layer, z, trace=None):
    """Walk (B, n) preactivations of a 1-based layer down to raw inputs.

    Each layer solves the rows that have not failed; the solution's
    alpha = W h^ is the layer below's preactivation, the only preimage
    of x^ = k'(alpha) under that layer's activation.  Rows the interior
    ``trace`` of the same batch solved at the top layer reuse its
    solution.  Returns (rows, errors): a failed row is NaN, with the
    error of the layer where it failed.
    """
    errors = [None] * len(z)
    for l in range(layer, 0, -1):
        spec = net.layers[l - 1]
        x, alpha = np.full((2, len(z), spec.map.n_in), np.nan)
        todo, solved = np.flatnonzero([err is None for err in errors]), []
        if l == layer and trace is not None and trace.solutions[l - 1] is not None:
            solved.append((trace.rows[l - 1], trace.solutions[l - 1]))
            todo = np.setdiff1d(todo, trace.rows[l - 1])
        if todo.size:
            sol = solve_saddle(spec.map, spec.input_prior, z[todo] - spec.bias, label=f"layer {l}")
            solved.append((todo, sol))
        for rows, sol in solved:
            x[rows], alpha[rows] = sol.x_hat, sol.alpha
            for r, err in zip(rows, sol.errors):
                errors[r] = err
        z = alpha
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
    return _walk_down(net, layer, z)


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
            u, label_signal(label, net.n_classes, cfg.level), cfg.c, cfg.level
        )
    return _walk_down(net, net.depth, z_last)


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
    x_hat, _ = _walk_down(net, layer, zs[layer - 1], trace)
    mse = np.mean((x - x_hat) ** 2, axis=1)
    return -np.log(np.maximum(mse, MSE_FLOOR))
