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

The unit Gram factor W'W that seeds every solve is a constant of the
map, so it is built once per map and kept there (``LinearMap.gram``).
Whenever the curvature weights k'' are exactly 1 (always, under the
Gaussian prior) the curvature is that same factor, and the solution
carries it instead of a rebuilt copy.  Maps are immutable and a
parameter update builds new maps, so no solve can see a stale factor.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ReconstructionError, ShapeMismatchError, SingularityError
from .linops import GramFactor

LOG_2PI = math.log(2.0 * math.pi)

# Base cap on the per-iteration move of any preactivation component.
# Far from the solution the curvature can be nearly flat and the raw
# Newton step then overshoots into tail regions where the activation
# derivative underflows.  The cap grows with the current iterate so a
# solution deep in a tail (a target near the support boundary) is still
# reached geometrically, while single-step explosions stay impossible.
ALPHA_STEP_CAP = 25.0


@dataclass(frozen=True)
class SaddleSolution:
    h_hat: np.ndarray
    alpha: np.ndarray
    x_hat: np.ndarray
    residual: float
    curvature: GramFactor
    iterations: int
    objective_path: list

    @property
    def log_density(self):
        """log p^(z~); the final objective is already K(h^) - h^'z~."""
        return (
            self.objective_path[-1]
            - 0.5 * self.curvature.logdet
            - 0.5 * self.h_hat.size * LOG_2PI
        )


def _gram(map_, weights, label):
    """Factor of W' diag(weights) W; unit weights reuse the map's kept factor."""
    if np.all(weights == 1.0):
        return map_.gram
    return GramFactor(map_, weights, label=label)


def _curvature(map_, prior, alpha, label, iterations=None, residual=None):
    try:
        return _gram(map_, prior.activation_deriv(alpha), label)
    except (DomainError, SingularityError) as exc:
        raise ReconstructionError(
            f"{label}: curvature failed: {exc}",
            iterations=iterations,
            residual=residual,
        ) from exc


def _direction_factor(map_, prior, alpha, label, iterations, residual):
    """Curvature factor used only for the Newton direction.

    Mid-iteration the iterate can sit in a tail where some activation
    derivatives underflow and the strict Gram factor is numerically
    singular.  Any positive definite surrogate still gives a descent
    direction on the convex objective, so the weights are floored at a
    tiny fraction of their maximum and the factorization retried.  The
    converged solution always reports the strict factor.
    """
    weights = prior.activation_deriv(alpha)
    try:
        return _gram(map_, weights, label)
    except (DomainError, SingularityError):
        floor = float(np.max(weights)) * 1e-10
        if not (math.isfinite(floor) and floor > 0.0):
            raise ReconstructionError(
                f"{label}: curvature collapsed at iteration {iterations}",
                iterations=iterations,
                residual=residual,
            )
        try:
            return GramFactor(map_, np.maximum(weights, floor), label=label)
        except (DomainError, SingularityError) as exc:
            raise ReconstructionError(
                f"{label}: curvature failed: {exc}",
                iterations=iterations,
                residual=residual,
            ) from exc


def solve_saddle(map_, prior, z_tilde, *, max_iter=200, tol=1e-9, label="saddle"):
    """Newton iteration on B(h), damped by objective backtracking.

    The step is S^-1 (z~ - W' lambda(W h)); it is halved until the
    objective strictly decreases.  Near the solution the objective can
    bottom out in floating point before the residual test passes, so a
    stalled line search still accepts the full Newton step whenever it
    shrinks the residual.
    """
    z = np.asarray(z_tilde, dtype=np.float64)
    if z.shape != (map_.n_out,):
        raise ShapeMismatchError(f"{label}: target shape {z.shape} != ({map_.n_out},)")
    if not np.all(np.isfinite(z)):
        raise DomainError(f"{label}: target must be finite")
    scale = 1.0 + float(np.max(np.abs(z)))
    try:
        h = map_.gram.solve(z)
    except SingularityError as exc:
        raise ReconstructionError(f"{label}: map has a singular Gram matrix") from exc

    path = []
    rmax = math.inf
    for it in range(max_iter + 1):
        alpha = map_.adjoint(h)
        lam = prior.activation(alpha)
        resid = z - map_.forward(lam)
        objective = float(np.sum(prior.cgf(alpha)) - h @ z)
        path.append(objective)
        rmax = float(np.max(np.abs(resid)))
        if np.isfinite(rmax) and rmax <= tol * scale:
            curv = _curvature(map_, prior, alpha, label, it, rmax)
            return SaddleSolution(h, alpha, lam, rmax, curv, it, path)
        if it == max_iter:
            break
        curv = _direction_factor(map_, prior, alpha, label, it, rmax)
        delta = curv.solve(resid)
        cap = max(ALPHA_STEP_CAP, 2.0 * float(np.max(np.abs(alpha))))
        move = float(np.max(np.abs(map_.adjoint(delta))))
        if move > cap:
            delta = delta * (cap / move)
        t = 1.0
        stepped = False
        for _ in range(60):
            cand = h + t * delta
            cand_obj = float(np.sum(prior.cgf(map_.adjoint(cand))) - cand @ z)
            if cand_obj < objective:
                h = cand
                stepped = True
                break
            t *= 0.5
        if not stepped:
            cand = h + delta
            cand_resid = z - map_.forward(prior.activation(map_.adjoint(cand)))
            cand_rmax = float(np.max(np.abs(cand_resid)))
            if np.isfinite(cand_rmax) and cand_rmax < rmax:
                h = cand
            else:
                raise ReconstructionError(
                    f"{label}: no descent direction at iteration {it}",
                    iterations=it,
                    residual=rmax,
                )
    raise ReconstructionError(
        f"{label}: saddle point not reached in {max_iter} iterations",
        iterations=max_iter,
        residual=rmax,
    )


def log_feature_density(map_, prior, z_tilde, *, label="saddle"):
    """Second order approximate log density of the feature z = W'x at z~."""
    return solve_saddle(map_, prior, z_tilde, label=label).log_density


def conditional_mean(map_, prior, z_tilde, *, label="saddle"):
    """Approximate E[x | W'x = z~], the activation at the saddle point."""
    return solve_saddle(map_, prior, z_tilde, label=label).x_hat
