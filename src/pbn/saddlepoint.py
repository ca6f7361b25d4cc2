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

Each trial point, the seed first, evaluates the prior once, by
``cgf_derivs``: k for the objective and its rounding level, k' for the
residual, and k'' for the curvature.  The trial a line search accepts
is the next iterate, and a flat or stalled search is judged by the
residual of its full-step trial, so a full Newton step costs one
evaluation and one factor: the strict curvature of a column that
stopped, or the one its direction is solved with.  The solution keeps
the weights k'' (``curvature_weights``), and its curvature keeps each
column's Cholesky factor: the log determinant comes from it, and S^-1
is built only when the likelihood gradient reads W S_b^-1.

The unit Gram factor W'W that seeds every solve is a constant of the
map, so it is built once per map and kept there (``LinearMap.gram``).
Under the Gaussian prior k'' is 1, so the curvature is that same
factor: the solver decides this once per solve, from the prior, and
the solution carries the kept factor instead of a rebuilt copy; the
likelihood gradient then reads the map's kept fold of W S^-1
(``LinearMap.logdet_grad``), not a dense W S^-1.  Under every other
prior the curvature is a GramStack, one factor per column.  The
solver reads the map only through ``forward``, ``adjoint`` and its
factors, so a convolution's products run on its output-row blocks,
the column slices of its one row-window matrix.

A (B, n_out) stack of targets is solved as one stacked Newton
iteration, one column per target.  Each column keeps its own line
search, stalled-search rule, curvature floor and iteration count, and
stops once it has converged: nothing computed for the other columns
touches it afterwards, so a column's solution does not depend on its
batch beyond the summation order of the shared matrix products.  A
column that fails carries its error in ``SaddleSolution.errors`` and
never fails the batch.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ReconstructionError, ShapeMismatchError, SingularityError
from .linops import GramStack
from .priors import LOG_2PI

# Base cap on the per-iteration move of any preactivation component.
# Far from the solution the curvature can be nearly flat and the raw
# Newton step then overshoots into tail regions where the activation
# derivative underflows.  The cap grows with the current iterate so a
# solution deep in a tail (a target near the support boundary) is still
# reached geometrically, while single-step explosions stay impossible.
ALPHA_STEP_CAP = 25.0

# Newton iterations before an unconverged column fails, and halvings of
# the Newton step before the line search counts as stalled.
MAX_ITER = 200
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
    with its error in ``errors``.  ``alpha`` is W h^ and ``x_hat`` is
    k'(alpha), bit for bit, which the backward walk of ``reconstruct``
    relies on.  ``curvature_weights`` holds k''(alpha), the weights of
    the curvature S = W' diag(k'') W.
    ``curvature`` is the map's kept GramFactor under the Gaussian prior,
    else a GramStack of each column's Cholesky factor, which builds S^-1
    only if the gradient asks for it.
    ``column_iterations`` holds each column's Newton iterations, and
    ``iterations`` is the largest of them.
    """

    h_hat: np.ndarray
    alpha: np.ndarray
    x_hat: np.ndarray
    residual: object
    curvature: object
    curvature_weights: np.ndarray
    objective: object
    column_iterations: np.ndarray
    errors: list

    @property
    def iterations(self):
        return int(np.max(self.column_iterations, initial=0))

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
            objective=self.objective[idx],
            column_iterations=self.column_iterations[idx],
            errors=[self.errors[i] for i in idx],
        )


def _trial(map_, prior, h, z):
    """The state at each row of the trial points h, from one prior evaluation.

    Returns [h, alpha = W h, k'(alpha), k''(alpha), residual, objective,
    rounding level of the objective, largest residual component].
    """
    alpha = map_.adjoint(h)
    cgf, lam, k2 = prior.cgf_derivs(alpha)
    resid = z - map_.forward(lam)
    obj = cgf.sum(axis=1) - np.vecdot(h, z)
    # an objective change this small is rounding, not descent
    flat = FLAT_ULPS * EPS * (np.abs(cgf).sum(axis=1) + np.vecdot(np.abs(h), np.abs(z)))
    return [h, alpha, lam, k2, resid, obj, flat, np.abs(resid).max(axis=1)]


def _direction(map_, factor, weights, resid):
    """(Newton directions S^-1 r, per-row failure reasons or None) for a stack of rows.

    ``factor`` is the strict curvature at ``weights``.  Mid-iteration the
    iterate can sit in a tail where some activation derivatives
    underflow and the strict Gram factor is numerically singular.  Any
    positive definite surrogate still gives a descent direction on the
    convex objective, so the weights of a failed row are floored at a
    tiny fraction of their maximum and its factorization retried.  The
    converged solution always reports the strict factor.
    """
    delta = factor.solve(resid)
    if not isinstance(factor, GramStack) or not factor.failed_rows.size:
        return delta, None
    failures = list(factor.failures)
    retry = factor.failed_rows
    floor = np.max(weights[retry], axis=1) * 1e-10
    usable = np.isfinite(floor) & (floor > 0.0)
    for j in retry[~usable]:
        failures[j] = "curvature collapsed"
    retry, floor = retry[usable], floor[usable]
    if retry.size:
        stack = GramStack.factor(map_, np.maximum(weights[retry], floor[:, None]))
        delta[retry] = stack.solve(resid[retry])
        for j, f in zip(retry, stack.failures):
            failures[j] = f and f"curvature failed: {f}"
    return delta, failures


def solve_saddle(map_, prior, z_tilde, *, tol=1e-9, label="saddle"):
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
    unit = prior.kind == "gaussian"
    h_out = np.full((n_cols, m), np.nan)
    alpha_out = np.full((n_cols, map_.n_in), np.nan)
    x_out = np.full((n_cols, map_.n_in), np.nan)
    k2_out = np.full((n_cols, map_.n_in), np.nan)
    residual = np.full(n_cols, np.nan)
    objective = np.full(n_cols, np.nan)
    iterations = np.zeros(n_cols, dtype=int)
    errors = [None] * n_cols
    converged = []  # (columns, strict curvature factor, its rows) per iteration that finished some

    def fail(col, message, it, rmax):
        errors[col] = ReconstructionError(f"{label}: {message}", iterations=it, residual=rmax)
        iterations[col] = it or 0

    finite = np.all(np.isfinite(z), axis=1)
    for col in np.flatnonzero(~finite):
        errors[col] = DomainError(f"{label}: target must be finite")
    cols = np.flatnonzero(finite)
    zc, lim = z[cols], tol * (1.0 + np.max(np.abs(z[cols]), axis=1))
    try:
        state = _trial(map_, prior, map_.gram.solve(zc), zc)
    except SingularityError as exc:
        for col in cols:
            fail(col, "map has a singular Gram matrix", None, None)
            errors[col].__cause__ = exc
        cols = cols[:0]

    for it in range(MAX_ITER + 1):
        if not cols.size:
            break
        rmax = state[7]
        done = rmax <= lim
        keep = np.isfinite(rmax) if it < MAX_ITER else done
        if not keep.all():
            for j in np.flatnonzero(~keep):
                r = float(rmax[j])
                if not np.isfinite(r):
                    fail(cols[j], f"non-finite residual at iteration {it}", it, r)
                else:
                    fail(cols[j], f"saddle point not reached in {MAX_ITER} iterations", MAX_ITER, r)
            cols, zc, lim, done = cols[keep], zc[keep], lim[keep], done[keep]
            state = [v[keep] for v in state]
            if not cols.size:
                break
        h, alpha, lam, k2, resid, obj, flat, rmax = state
        # one factor at k'' per column: the strict curvature of a column that
        # stopped, or the one its Newton direction is solved with
        factor = map_.gram if unit else GramStack.factor(map_, k2)
        if done.any():
            idx = np.flatnonzero(done)
            dcols = cols[idx]
            h_out[dcols], alpha_out[dcols], x_out[dcols] = h[idx], alpha[idx], lam[idx]
            k2_out[dcols] = k2[idx]
            residual[dcols], objective[dcols], iterations[dcols] = rmax[idx], obj[idx], it
            converged.append((dcols, factor, idx))
            if not unit and factor.failed_rows.size:
                for j in np.intersect1d(idx, factor.failed_rows):
                    fail(cols[j], f"curvature failed: {factor.failures[j]}", it, float(rmax[j]))
            go = np.flatnonzero(~done)
            if not go.size:
                break
            cols, zc, lim = cols[go], zc[go], lim[go]
            h, alpha, k2, resid, obj, flat, rmax = (v[go] for v in (h, alpha, k2, resid, obj, flat, rmax))
            if not unit:
                factor = factor.take(go)

        delta, failures = _direction(map_, factor, k2, resid)
        if failures is not None:
            ok = np.array([f is None for f in failures])
            for j in np.flatnonzero(~ok):
                fail(cols[j], f"{failures[j]} at iteration {it}", it, float(rmax[j]))
            cols, zc, lim = cols[ok], zc[ok], lim[ok]
            h, alpha, obj, flat, rmax, delta = (v[ok] for v in (h, alpha, obj, flat, rmax, delta))
            if not cols.size:
                break
        cap = np.maximum(ALPHA_STEP_CAP, 2.0 * np.abs(alpha).max(axis=1))
        move = np.abs(map_.adjoint(delta)).max(axis=1)
        over = move > cap
        if over.any():
            delta[over] *= (cap[over] / move[over])[:, None]

        # Per-column backtracking: a column leaves the search at its first
        # step that lowers its objective by more than rounding.  A full step
        # that leaves the objective flat within rounding (near the solution)
        # and a search that stalls are judged by the full step's residual.
        # The next state starts as the full step's and takes each shorter
        # step a column accepts.
        state = _trial(map_, prior, h + delta, zc)
        change = state[5] - obj
        lower = change < -flat
        if lower.all():
            continue
        level = ~lower & (change <= flat)
        pending = np.flatnonzero(~(lower | level))
        t = 1.0
        for _ in range(LINE_SEARCH_TRIES - 1):
            if not pending.size:
                break
            t *= 0.5
            trial = _trial(map_, prior, h[pending] + t * delta[pending], zc[pending])
            lower = trial[5] - obj[pending] < -flat[pending]
            for v, w in zip(state, trial):
                v[pending[lower]] = w[lower]
            pending = pending[~lower]
        # the rows judged still hold the full step's state
        judged = np.concatenate([np.flatnonzero(level), pending])
        stuck = judged[~(state[7][judged] < rmax[judged])]
        if stuck.size:
            for j in stuck:
                fail(cols[j], f"no descent direction at iteration {it}", it, float(rmax[j]))
            keep = np.ones(len(cols), dtype=bool)
            keep[stuck] = False
            cols, zc, lim = cols[keep], zc[keep], lim[keep]
            state = [v[keep] for v in state]

    failed = [col for col, err in enumerate(errors) if err is not None]
    for out in (h_out, alpha_out, x_out, k2_out, residual, objective):
        out[failed] = np.nan
    return SaddleSolution(
        h_hat=h_out,
        alpha=alpha_out,
        x_hat=x_out,
        residual=residual,
        curvature=_assemble(map_, converged, n_cols, errors, unit),
        curvature_weights=k2_out,
        objective=objective,
        column_iterations=iterations,
        errors=errors,
    )


def _assemble(map_, converged, n_cols, errors, unit):
    """One curvature for the whole stack from the factors of its converged groups.

    The converged columns of a Gaussian-prior layer share the map's kept factor.
    """
    if unit and converged:
        return map_.gram
    m = map_.n_out
    chol = np.full((n_cols, m, m), np.nan)
    logdet = np.full(n_cols, np.nan)
    for cols, f, idx in converged:
        chol[cols] = f.chol[idx]
        logdet[cols] = f.logdet[idx]
    failures = [None if err is None else str(err) for err in errors]
    return GramStack(map_.materialize(), chol, logdet, failures)
