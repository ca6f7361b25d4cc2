"""Saddle point solver for linear projections of maximum-entropy priors.

For a tall map with matrix W (n_in x n_out) and an iid prior on the
n_in inputs, the projected feature z = W'x has cumulant generating
function K(h) = sum_i k((W h)_i).  The saddle point for a target z~ is
the unique minimizer of the convex objective

    B(h) = K(h) - h'z~ ,

characterized by the stationarity condition W' lambda(W h^) = z~, and
gives the second order density approximation

    log p^(z~) = K(h^) - h^'z~ - (1/2) logdet S - (n_out/2) log(2 pi)

with curvature S = W' diag(k''(W h^)) W, plus the conditional mean
x^ = lambda(W h^) used for reconstruction.  Both are exact under the
Gaussian prior, where the Gram-seeded start is already the solution and
the solver reports zero iterations.

Targets outside the open image of the prior support have no saddle
point; the iteration then fails to contract and surfaces as
ReconstructionError, which callers count as an undefined likelihood
rather than a crash.

Each Newton iterate evaluates the prior once, by ``cgf_derivs``: k for
the objective and its rounding level, k' for the residual, and k'' for
the curvature, which is either the strict factor of a column that
stopped or the one its Newton direction is solved with.  The solution
keeps those weights (``curvature_weights``), and its curvature keeps
each column's S and Cholesky factor: the log determinant comes from the
factor, and S^-1 is built only when the likelihood gradient reads
W S_b^-1 for each column.

The unit Gram factor W'W that seeds every solve is a constant of the
map, so it is built once per map and kept there (``LinearMap.gram``).
Whenever the curvature weights k'' are exactly 1 (always, under the
Gaussian prior) the curvature is that same factor, and the solution
carries it instead of a rebuilt copy; the likelihood gradient then
reads the map's kept fold of W S^-1 (``LinearMap.logdet_grad``), not a
dense W S^-1.  A map's parameters change only in place in a training
skeleton, whose update ends with the map's ``refresh``: it rewrites the
map's stored matrix and drops the kept factor, so no solve can see a
stale one.  The solver reads the map only through ``forward``,
``adjoint`` and its factors, so a convolution's products run on its
output-row blocks.

A (B, n_out) stack of targets is solved as one stacked Newton
iteration, one column per target.  Each column keeps its own line
search, stalled-search rule, curvature floor and iteration count, and
stops once it has converged: nothing computed for the other columns
touches it afterwards, so a column's solution does not depend on its
batch beyond the summation order of the shared matrix products.  A
column that fails carries its error in ``SaddleSolution.errors`` and
never fails the batch.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ReconstructionError, ShapeMismatchError, SingularityError
from .linops import GramFactor, GramStack

LOG_2PI = math.log(2.0 * math.pi)

# Base cap on the per-iteration move of any preactivation component.
# Far from the solution the curvature can be nearly flat and the raw
# Newton step then overshoots into tail regions where the activation
# derivative underflows.  The cap grows with the current iterate so a
# solution deep in a tail (a target near the support boundary) is still
# reached geometrically, while single-step explosions stay impossible.
ALPHA_STEP_CAP = 25.0

# Halvings of the Newton step before the line search counts as stalled.
LINE_SEARCH_TRIES = 60

# An objective change within this many units of rounding of the objective
# (float64 epsilon times the summed magnitudes of its terms) counts as flat.
FLAT_ULPS = 16.0
EPS = float(np.finfo(np.float64).eps)


@dataclass(frozen=True)
class SaddleSolution:
    """The saddle point of each column of a stack of targets.

    Every array has a leading column axis; ``residual`` and
    ``objective`` hold one value per column; a failed column is NaN,
    with its error in ``errors``.  ``curvature_weights`` holds
    k''(alpha), the weights of the curvature S = W' diag(k'') W.
    ``curvature`` is the map's kept GramFactor when every column has
    unit weights, else a GramStack of each column's S and its Cholesky
    factor, which builds S^-1 only if the gradient asks for it.
    ``iterations`` is the largest column count, ``column_iterations``
    has each one.
    """

    h_hat: np.ndarray
    alpha: np.ndarray
    x_hat: np.ndarray
    residual: object
    curvature: object
    curvature_weights: np.ndarray
    iterations: int
    objective: object
    column_iterations: np.ndarray
    errors: list

    @property
    def log_density(self):
        """log p^(z~); the final objective is already K(h^) - h^'z~."""
        n_out = self.h_hat.shape[-1]
        return self.objective - 0.5 * self.curvature.logdet - 0.5 * n_out * LOG_2PI

    def take(self, idx):
        """The solution of the columns ``idx``, an index array."""
        curv = self.curvature
        return SaddleSolution(
            h_hat=self.h_hat[idx],
            alpha=self.alpha[idx],
            x_hat=self.x_hat[idx],
            residual=self.residual[idx],
            curvature=curv.take(idx) if isinstance(curv, GramStack) else curv,
            curvature_weights=self.curvature_weights[idx],
            iterations=int(np.max(self.column_iterations[idx], initial=0)),
            objective=self.objective[idx],
            column_iterations=self.column_iterations[idx],
            errors=[self.errors[i] for i in idx],
        )


def _factors(map_, weights):
    """(factor, per-row failure reasons) of W' diag(w) W for a (k, n_in) weight stack.

    All-unit weights (always, under the Gaussian prior) reuse the map's
    kept factor for every row.
    """
    if np.all(weights == 1.0):
        return map_.gram, [None] * len(weights)
    stack = GramStack.factor(map_, weights)
    return stack, list(stack.failures)


def _direction(map_, weights, resid):
    """(Newton directions S^-1 r, per-row failure reasons) for a stack of rows.

    Mid-iteration the iterate can sit in a tail where some activation
    derivatives underflow and the strict Gram factor is numerically
    singular.  Any positive definite surrogate still gives a descent
    direction on the convex objective, so the weights of a failed row
    are floored at a tiny fraction of their maximum and its
    factorization retried.  The converged solution always reports the
    strict factor.
    """
    factor, failures = _factors(map_, weights)
    delta = factor.solve_rows(resid)
    retry = np.array([j for j, f in enumerate(failures) if f is not None], dtype=int)
    if retry.size:
        floor = np.max(weights[retry], axis=1) * 1e-10
        usable = np.isfinite(floor) & (floor > 0.0)
        for j in retry[~usable]:
            failures[j] = "curvature collapsed"
        retry, floor = retry[usable], floor[usable]
        if retry.size:
            stack = GramStack.factor(map_, np.maximum(weights[retry], floor[:, None]))
            delta[retry] = stack.solve_rows(resid[retry])
            for j, f in zip(retry, stack.failures):
                failures[j] = f and f"curvature failed: {f}"
    return delta, failures


def solve_saddle(map_, prior, z_tilde, *, max_iter=200, tol=1e-9, label="saddle"):
    """Newton iteration on B(h), damped by objective backtracking.

    ``z_tilde`` is a (B, n_out) stack of targets, solved column by
    column in one stacked iteration.  The step is
    S^-1 (z~ - W' lambda(W h)); it is halved until the objective
    decreases by more than its rounding.  Near the solution the
    objective bottoms out in floating point before the residual test
    passes, so a full step that leaves it flat within rounding, and a
    stalled line search, still take the full Newton step whenever it
    shrinks the residual.  Which of two rounded objectives is lower thus
    never decides a step, and neither does the batch a column sits in.
    A column whose residual turns non-finite fails before any solve
    with it.  Every column is returned, failed ones marked in ``errors``.
    """
    z = np.asarray(z_tilde, dtype=np.float64)
    if z.ndim != 2 or z.shape[1] != map_.n_out:
        raise ShapeMismatchError(f"{label}: target shape {z.shape} != (B, {map_.n_out})")
    n_cols, m = z.shape
    h_out = np.full((n_cols, m), np.nan)
    alpha_out = np.full((n_cols, map_.n_in), np.nan)
    x_out = np.full((n_cols, map_.n_in), np.nan)
    k2_out = np.full((n_cols, map_.n_in), np.nan)
    residual = np.full(n_cols, np.nan)
    objective = np.full(n_cols, np.nan)
    iterations = np.zeros(n_cols, dtype=int)
    errors = [None] * n_cols
    converged = []  # (columns, strict curvature factor) per iteration that finished some

    def fail(col, message, it, rmax):
        errors[col] = ReconstructionError(f"{label}: {message}", iterations=it, residual=rmax)
        iterations[col] = it or 0

    finite = np.all(np.isfinite(z), axis=1)
    for col in np.flatnonzero(~finite):
        errors[col] = DomainError(f"{label}: target must be finite")
    cols = np.flatnonzero(finite)
    scale = 1.0 + np.max(np.abs(z), axis=1)
    try:
        h = map_.gram.solve_rows(z[cols])
    except SingularityError as exc:
        for col in cols:
            fail(col, "map has a singular Gram matrix", None, None)
            errors[col].__cause__ = exc
        cols = cols[:0]

    for it in range(max_iter + 1):
        if not cols.size:
            break
        zc = z[cols]
        alpha = map_.adjoint(h)
        cgf, lam, k2 = prior.cgf_derivs(alpha)
        resid = zc - map_.forward(lam)
        obj = np.sum(cgf, axis=1) - np.vecdot(h, zc)
        # an objective change this small is rounding, not descent
        flat = FLAT_ULPS * EPS * (np.sum(np.abs(cgf), axis=1) + np.vecdot(np.abs(h), np.abs(zc)))
        rmax = np.max(np.abs(resid), axis=1)
        done = np.isfinite(rmax) & (rmax <= tol * scale[cols])
        if done.any():
            factor, failures = _factors(map_, k2[done])
            dcols = cols[done]
            for col, f, r in zip(dcols, failures, rmax[done]):
                if f is not None:
                    fail(col, f"curvature failed: {f}", it, float(r))
            h_out[dcols], alpha_out[dcols], x_out[dcols] = h[done], alpha[done], lam[done]
            k2_out[dcols] = k2[done]
            residual[dcols], objective[dcols], iterations[dcols] = rmax[done], obj[done], it
            converged.append((dcols, factor))
        for col, r in zip(cols[~done], rmax[~done]):
            if not np.isfinite(r):
                fail(col, f"non-finite residual at iteration {it}", it, float(r))
            elif it == max_iter:
                fail(col, f"saddle point not reached in {max_iter} iterations", max_iter, float(r))
        go = ~done & np.isfinite(rmax)
        if it == max_iter or not go.any():
            break
        cols, h, zc, alpha, k2, resid, rmax, obj, flat = (
            v[go] for v in (cols, h, zc, alpha, k2, resid, rmax, obj, flat)
        )

        delta, failures = _direction(map_, k2, resid)
        ok = np.array([f is None for f in failures])
        for col, f, r in zip(cols, failures, rmax):
            if f is not None:
                fail(col, f"{f} at iteration {it}", it, float(r))
        cols, h, zc, alpha, rmax, obj, flat, delta = (
            v[ok] for v in (cols, h, zc, alpha, rmax, obj, flat, delta)
        )
        cap = np.maximum(ALPHA_STEP_CAP, 2.0 * np.max(np.abs(alpha), axis=1))
        move = np.max(np.abs(map_.adjoint(delta)), axis=1)
        over = move > cap
        delta[over] = delta[over] * (cap[over] / move[over])[:, None]

        # Per-column backtracking: a column leaves the search at its first
        # step that lowers its objective by more than rounding.  A full step
        # that leaves the objective flat within rounding (near the solution)
        # and a search that stalls are judged by the residual instead.
        stepped = h.copy()
        t = np.ones(len(cols))
        pending = np.arange(len(cols))
        by_residual = pending[:0]
        for attempt in range(LINE_SEARCH_TRIES):
            cand = h[pending] + t[pending, None] * delta[pending]
            cand_obj = np.sum(prior.cgf(map_.adjoint(cand)), axis=1) - np.vecdot(cand, zc[pending])
            change = cand_obj - obj[pending]
            lower = change < -flat[pending]
            stepped[pending[lower]] = cand[lower]
            if attempt == 0:
                level = ~lower & (change <= flat[pending])
                by_residual = pending[level]
                lower |= level
            pending = pending[~lower]
            if not pending.size:
                break
            t[pending] *= 0.5
        judged = np.concatenate([by_residual, pending])
        if judged.size:
            cand = h[judged] + delta[judged]
            cand_resid = zc[judged] - map_.forward(prior.activation(map_.adjoint(cand)))
            cand_rmax = np.max(np.abs(cand_resid), axis=1)
            shrinks = np.isfinite(cand_rmax) & (cand_rmax < rmax[judged])
            stepped[judged[shrinks]] = cand[shrinks]
            keep = np.ones(len(cols), dtype=bool)
            for j in judged[~shrinks]:
                fail(cols[j], f"no descent direction at iteration {it}", it, float(rmax[j]))
                keep[j] = False
            cols, stepped = cols[keep], stepped[keep]
        h = stepped

    failed = [col for col, err in enumerate(errors) if err is not None]
    for out in (h_out, alpha_out, x_out, k2_out, residual, objective):
        out[failed] = np.nan
    return SaddleSolution(
        h_hat=h_out,
        alpha=alpha_out,
        x_hat=x_out,
        residual=residual,
        curvature=_assemble(map_, converged, n_cols, errors),
        curvature_weights=k2_out,
        iterations=int(np.max(iterations, initial=0)),
        objective=objective,
        column_iterations=iterations,
        errors=errors,
    )


def _assemble(map_, converged, n_cols, errors):
    """One curvature for the whole stack from the factors of its converged groups."""
    if converged and all(isinstance(f, GramFactor) for _, f in converged):
        return map_.gram
    m = map_.n_out
    matrix = np.full((n_cols, m, m), np.nan)
    chol = np.full((n_cols, m, m), np.nan)
    logdet = np.full(n_cols, np.nan)
    for cols, f in converged:
        matrix[cols] = f.matrix
        chol[cols] = f.chol
        logdet[cols] = f.logdet
    failures = [None if err is None else str(err) for err in errors]
    return GramStack(map_.materialize(), matrix, chol, logdet, failures)

