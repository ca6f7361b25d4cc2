"""Saddle point solver: exactness, quadrature cross-checks, failure modes."""

import math

import numpy as np
import pytest
from helpers import sample, sum_density_grid, sum_moments
from numpy.testing import assert_allclose, assert_array_equal
from scipy.stats import multivariate_normal

from pbn.errors import DomainError, ReconstructionError, ShapeMismatchError
from pbn.linops import DenseMap, GramFactor, GramStack
from pbn.priors import GAUSSIAN, TRUNCATED_GAUSSIAN, UNIFORM, TruncatedGaussianPrior, get_prior
from pbn.saddlepoint import solve_saddle


class TestGaussianExactness:
    """Under the Gaussian prior the approximation is the exact density
    of z = W'x ~ N(0, W'W), and the seed is already the solution."""

    def test_density_matches_closed_form(self):
        rng = np.random.default_rng(42)
        m = DenseMap(rng.standard_normal((9, 4)))
        a = m.materialize()
        exact = multivariate_normal(mean=np.zeros(4), cov=a @ a.T)
        for _ in range(10):
            z = a @ rng.standard_normal(9)
            got = solve_saddle(m, GAUSSIAN, z[None]).log_density[0]
            assert_allclose(got, exact.logpdf(z), rtol=1e-10)

    def test_converges_immediately(self):
        rng = np.random.default_rng(0)
        m = DenseMap(rng.standard_normal((7, 3)))
        sol = solve_saddle(m, GAUSSIAN, rng.standard_normal((1, 3)))
        assert sol.errors == [None] and sol.iterations == 0

    def test_conditional_mean_is_least_squares(self):
        rng = np.random.default_rng(1)
        m = DenseMap(rng.standard_normal((8, 3)))
        z = rng.standard_normal(3)
        got = solve_saddle(m, GAUSSIAN, z[None]).x_hat[0]
        want, *_ = np.linalg.lstsq(m.materialize(), z, rcond=None)
        assert_allclose(got, want, atol=1e-9)


class TestQuadratureCrossCheck:
    """For a single feature the approximate density must track a direct
    convolution quadrature of the summed prior."""

    @pytest.mark.parametrize("kind,z_max", [("truncated_gaussian", 40.0), ("uniform", 4.5)])
    def test_relative_error_within_five_percent(self, kind, z_max):
        weights = np.array([0.9, 1.0, 1.1, 1.2])
        grid, ref = sum_density_grid(kind, weights, z_max)
        mass = np.trapezoid(ref, grid)
        assert 0.95 <= mass <= 1.05
        prior = get_prior(kind)
        m = DenseMap(weights[:, None])
        mean, sd = sum_moments(kind, weights)
        for z in (mean - sd, mean, mean + sd):
            approx = np.exp(solve_saddle(m, prior, np.array([[z]])).log_density[0])
            exact = np.interp(z, grid, ref)
            assert abs(approx - exact) <= 0.05 * exact, f"{kind} at z={z}"


class TestExactRecovery:
    def test_square_map_inverts(self):
        # When the map preserves dimension the conditional mean is the
        # exact preimage, whatever the prior.
        rng = np.random.default_rng(7)
        w = rng.standard_normal((5, 5)) + 3.0 * np.eye(5)
        m = DenseMap(w)
        for prior in (TRUNCATED_GAUSSIAN, UNIFORM):
            x0 = sample(prior, rng, 5)
            z = m.forward(x0)
            sol = solve_saddle(m, prior, z[None])
            assert sol.errors == [None]
            assert_allclose(sol.x_hat[0], x0, atol=1e-6)


class TestFeasibleBatch:
    @pytest.mark.parametrize(
        "prior", [GAUSSIAN, TRUNCATED_GAUSSIAN, UNIFORM], ids=lambda p: p.kind
    )
    def test_hundred_draws_all_converge(self, prior):
        rng = np.random.default_rng(11)
        m = DenseMap(rng.standard_normal((7, 3)))
        tol = 1e-9
        for _ in range(100):
            z = m.forward(sample(prior, rng, 7))
            sol = solve_saddle(m, prior, z[None], tol=tol)
            assert sol.errors == [None]
            assert sol.residual[0] <= tol * (1.0 + np.max(np.abs(z)))
            assert_allclose(m.forward(sol.x_hat[0]), z, atol=1e-7)
            assert prior.in_support(sol.x_hat[0])
            # the backward walk takes alpha as the exact preimage of x_hat
            assert_array_equal(prior.cgf_derivs(sol.alpha)[1], sol.x_hat)

    def test_objective_path_decreases(self, monkeypatch):
        # Every trial point of a solve costs one cgf_derivs call, at
        # alpha = W h, and no other evaluation of the prior.  This target
        # takes full Newton steps only, so its trials are its iterates: the
        # seed, then one per iteration.  With the target z = W'x0,
        # h'z = alpha'x0, so the objective at each is K(alpha) - alpha'x0.
        rng = np.random.default_rng(13)
        m = DenseMap(rng.standard_normal((6, 2)))
        x0 = sample(TRUNCATED_GAUSSIAN, rng, 6)
        alphas = []
        real = TRUNCATED_GAUSSIAN.cgf_derivs

        def recording(alpha):
            alphas.append(np.array(alpha))
            return real(alpha)

        def third(alpha):
            raise AssertionError("a prior evaluation besides cgf_derivs")

        monkeypatch.setattr(TRUNCATED_GAUSSIAN, "cgf_derivs", recording)
        monkeypatch.setattr(TRUNCATED_GAUSSIAN, "cgf_third_deriv", third)
        sol = solve_saddle(m, TRUNCATED_GAUSSIAN, m.forward(x0)[None])
        monkeypatch.undo()
        assert sol.errors == [None]
        np.testing.assert_array_equal(alphas[-1], sol.alpha)
        path = np.array([np.sum(TRUNCATED_GAUSSIAN.cgf_derivs(a)[0]) - np.sum(a @ x0) for a in alphas])
        assert len(path) == sol.iterations + 1 > 1
        assert np.all(np.diff(path) < 0.0)


class TestInfeasibleTargets:
    def test_negative_target_outside_positive_cone(self):
        m = DenseMap(np.ones((2, 1)))
        sol = solve_saddle(m, TRUNCATED_GAUSSIAN, np.array([[-1.0]]))
        assert isinstance(sol.errors[0], ReconstructionError)

    def test_target_beyond_bounded_range(self):
        # Two unit weights on (0, 1) inputs can sum to at most 2.
        m = DenseMap(np.ones((2, 1)))
        sol = solve_saddle(m, UNIFORM, np.array([[5.0]]))
        assert isinstance(sol.errors[0], ReconstructionError)

    def test_error_carries_diagnostics(self):
        m = DenseMap(np.ones((2, 1)))
        err = solve_saddle(m, UNIFORM, np.array([[5.0]])).errors[0]
        assert isinstance(err, ReconstructionError)
        assert err.iterations is not None
        assert err.residual is not None


class FragileTruncatedGaussian(TruncatedGaussianPrior):
    """A prior whose activation turns NaN past a = 2, as an overflow would.

    The NaN goes into the fused evaluation ``cgf_derivs``, which every
    other tg function reads.
    """

    def cgf_derivs(self, a):
        k, k1, k2 = super().cgf_derivs(a)
        return k, np.where(np.asarray(a) > 2.0, np.nan, k1), k2


class TestNonFiniteResidual:
    def test_fails_before_any_solve_with_it(self, monkeypatch):
        m = DenseMap(np.ones((2, 1)))
        solves = []
        for factor in (GramFactor, GramStack):
            real = factor.solve
            monkeypatch.setattr(factor, "solve", lambda f, b, real=real: solves.append(b) or real(f, b))
        err = solve_saddle(m, FragileTruncatedGaussian(), np.array([[9.0]])).errors[0]
        assert isinstance(err, ReconstructionError) and "non-finite residual" in str(err)
        assert err.iterations == 0
        assert len(solves) == 1  # the seed; no Newton direction was solved for

    def test_fails_only_its_own_column(self):
        m = DenseMap(np.ones((2, 1)))
        z = np.array([[9.0], [1.0]])
        sol = solve_saddle(m, FragileTruncatedGaussian(), z)
        assert isinstance(sol.errors[0], ReconstructionError) and np.isnan(sol.x_hat[0]).all()
        alone = solve_saddle(m, TRUNCATED_GAUSSIAN, z[1:])
        assert sol.errors[1] is None
        assert_allclose(sol.x_hat[1], alone.x_hat[0], rtol=1e-12)
        assert sol.column_iterations[1] == alone.iterations


class TestValidation:
    def test_shape_and_domain_checks(self):
        m = DenseMap(np.eye(3))
        with pytest.raises(ShapeMismatchError):
            solve_saddle(m, GAUSSIAN, np.zeros((1, 2)))
        with pytest.raises(ShapeMismatchError):
            solve_saddle(m, GAUSSIAN, np.zeros(3))  # one target is not a stack
        sol = solve_saddle(m, GAUSSIAN, np.array([[0.0, np.nan, 0.0]]))
        assert isinstance(sol.errors[0], DomainError)

    @pytest.mark.parametrize("prior", [GAUSSIAN, TRUNCATED_GAUSSIAN, UNIFORM], ids=lambda p: p.kind)
    def test_log_density_is_the_explicit_formula_bit_for_bit(self, prior):
        # K(h^) - h^'z~ - logdet(S)/2 - n log(2 pi)/2, recomputed from the parts
        rng = np.random.default_rng(13)
        m = DenseMap(rng.standard_normal((9, 3)))
        z = m.forward(sample(prior, rng, 9))
        sol = solve_saddle(m, prior, z[None])
        want = (
            float(np.sum(prior.cgf_derivs(sol.alpha[0])[0]))
            - float(sol.h_hat[0] @ z)
            - 0.5 * np.reshape(sol.curvature.logdet, -1)[0]
            - 0.5 * m.n_out * math.log(2.0 * math.pi)
        )
        assert sol.log_density[0] == want


class TestCurvature:
    def test_weights_are_k2_at_the_saddle_and_the_inverse_waits_for_a_reader(self):
        rng = np.random.default_rng(14)
        m = DenseMap(rng.standard_normal((9, 3)))
        z = m.forward(sample(TRUNCATED_GAUSSIAN, rng, 9 * 4).reshape(4, 9))
        sol = solve_saddle(m, TRUNCATED_GAUSSIAN, z)
        np.testing.assert_array_equal(sol.curvature_weights, TRUNCATED_GAUSSIAN.cgf_derivs(sol.alpha)[2])
        curv = sol.curvature
        assert "w_s_inv" not in vars(curv)  # no inverse until the gradient reads one
        a = m.materialize()
        for b in range(len(z)):
            s = (a * sol.curvature_weights[b]) @ a.T
            assert_allclose(curv.logdet[b], np.linalg.slogdet(s)[1], rtol=1e-13)
            assert_allclose(curv.w_s_inv[b], a.T @ np.linalg.inv(s), rtol=1e-12, atol=1e-14)
            assert_allclose(curv.solve(z)[b], np.linalg.solve(s, z[b]), rtol=1e-12)

    def test_unit_weight_column_beside_weighted_ones_is_a_stack_row(self):
        # alpha = 50 > 38.5 underflows the Mills ratio, so k'' is exactly 1
        # there and the first column stops at iteration 0; under a tg prior
        # its curvature is still a row of the stack, not the map's factor
        m = DenseMap(np.array([[1.0], [1.0], [0.5]]))
        sol = solve_saddle(m, TRUNCATED_GAUSSIAN, np.array([[100.0], [1.0]]))
        np.testing.assert_array_equal(sol.curvature_weights[0], 1.0)
        assert sol.column_iterations[0] == 0 < sol.column_iterations[1]
        assert isinstance(sol.curvature, GramStack)
        a = m.materialize()
        assert_allclose(sol.curvature.logdet[0], np.linalg.slogdet(a @ a.T)[1], rtol=1e-15)
        assert_allclose(sol.curvature.w_s_inv[0], a.T @ np.linalg.inv(a @ a.T), rtol=1e-15)
        for b, z in enumerate((100.0, 1.0)):
            alone = solve_saddle(m, TRUNCATED_GAUSSIAN, np.array([[z]]))
            assert sol.take([b]).log_density == alone.log_density
