"""Scalar prior calculus: closed-form anchors, derivative chains, stability."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pbn.errors import DomainError
from pbn.priors import GAUSSIAN, TRUNCATED_GAUSSIAN, UNIFORM, activation_prior, get_prior

ALL_PRIORS = [GAUSSIAN, TRUNCATED_GAUSSIAN, UNIFORM]


def central_diff(f, a, h):
    return (f(a + h) - f(a - h)) / (2.0 * h)


def rel_err(got, want):
    scale = max(abs(got), abs(want), 1e-300)
    return abs(got - want) / scale


def mills_reference(a):
    """High-precision inverse Mills ratio N(a)/Phi(a)."""
    with mpmath.workdps(60):
        a = mpmath.mpf(a)
        num = mpmath.exp(-a * a / 2) / mpmath.sqrt(2 * mpmath.pi)
        den = mpmath.erfc(-a / mpmath.sqrt(2)) / 2
        return float(num / den)


def uniform_deriv_references(a):
    """k''(a) and k'''(a) of the uniform prior from their closed forms at 60 digits."""
    with mpmath.workdps(60):
        a = mpmath.mpf(a)
        e = mpmath.exp(a)
        k2 = 1 / a**2 - 1 / (4 * mpmath.sinh(a / 2) ** 2)
        k3 = -2 / a**3 + e * (e + 1) / (e - 1) ** 3
        return float(k2), float(k3)


def tg_references(a):
    """k'(a), k''(a) and k'''(a) of the truncated-Gaussian prior from its closed forms.

    They cancel in the negative tail, k''' by about 4 log10(-a) digits, so
    60 digits do not reach a = -1e8 and 100 do.
    """
    with mpmath.workdps(100):
        a = mpmath.mpf(a)
        r = mpmath.exp(-a * a / 2) / mpmath.sqrt(2 * mpmath.pi) / (mpmath.erfc(-a / mpmath.sqrt(2)) / 2)
        lam = a + r
        return float(lam), float(1 - r * lam), float(r * (lam * (a + 2 * r) - 1))


# Every branch of every prior: far tails, the Taylor windows around 0
# (|a| < 5e-3 and |a| < 1) and both sides of the tg switch at a = -5.
BRANCH_GRID = [-700.0, -40.0, -6.0, -4.0, -1.0, -0.03, -1e-3, 0.0, 1e-3, 0.03, 1.0, 6.0, 40.0, 700.0]


@pytest.mark.parametrize("prior", ALL_PRIORS, ids=lambda p: p.kind)
@pytest.mark.parametrize("name", ["cgf", "activation", "activation_deriv", "cgf_third_deriv"])
def test_scalar_input_equals_the_array_result(prior, name):
    f = getattr(prior, name)
    for a in BRANCH_GRID:
        got = f(a)
        assert np.ndim(got) == 0
        assert got == f(np.array([a]))[0]


@pytest.mark.parametrize("prior", ALL_PRIORS, ids=lambda p: p.kind)
def test_fused_evaluation_is_each_function_bit_for_bit(prior):
    # every branch, both sides of the tg switch at a = -5 and of a = 0, and
    # non-finite values, mixed in one array so that each branch split of the
    # fused pass must put every part back in its place
    edges = [np.nextafter(-5.0, -np.inf), -5.0, np.nextafter(-5.0, 0.0)]
    edges += [np.nextafter(0.0, -1.0), -0.0, np.nextafter(0.0, 1.0)]
    a = np.array(BRANCH_GRID + edges + [np.nan, np.inf, -np.inf])
    with np.errstate(all="ignore"):
        separate = [prior.cgf(a), prior.activation(a), prior.activation_deriv(a)]
        fused = prior.cgf_derivs(a)
        stacked = prior.cgf_derivs(a[::-1].reshape(-1, 1))
        alone = [prior.cgf_derivs(v) for v in a]
    assert len(fused) == 3
    for i, (got, want) in enumerate(zip(fused, separate)):
        np.testing.assert_array_equal(got, want)  # NaN matches NaN, and only NaN
        np.testing.assert_array_equal(stacked[i][::-1, 0], want)
        for v, one, w in zip(a, alone, want):
            assert np.ndim(one[i]) == 0
            assert one[i] == w or (np.isnan(one[i]) and np.isnan(w)), (v, i)


@pytest.mark.parametrize("prior", ALL_PRIORS, ids=lambda p: p.kind)
def test_scalar_inverse_equals_the_array_result(prior):
    # A converged element stops iterating, so each element of an array is
    # inverted bit for bit as it would be alone, whatever its neighbours.
    y = prior.activation(np.array([-3.0, 0.0, 0.7, -2.0, 0.5, 3.0, -40.0, 1e-3, 12.0]))
    for values in (y, y[::-1], y.reshape(3, 3)):
        got = prior.activation_inverse(values)
        assert got.shape == values.shape
        for yi, gi in zip(values.ravel(), got.ravel()):
            one = prior.activation_inverse(float(yi))
            assert np.ndim(one) == 0
            assert gi == one
            assert one == prior.activation_inverse(np.array([yi]))[0]


class TestClosedFormAnchors:
    def test_gaussian_cgf(self):
        assert GAUSSIAN.cgf(2.0) == pytest.approx(2.0, abs=1e-15)

    def test_tg_cgf_at_zero(self):
        # a^2/2 + log(2 * 0.5) = 0
        assert TRUNCATED_GAUSSIAN.cgf(0.0) == pytest.approx(0.0, abs=1e-15)

    def test_uniform_cgf_near_zero(self):
        assert abs(UNIFORM.cgf(1e-12)) <= 1e-12

    def test_gaussian_activation_identity(self):
        assert GAUSSIAN.activation(1.5) == 1.5

    def test_tg_activation_at_zero(self):
        assert TRUNCATED_GAUSSIAN.activation(0.0) == pytest.approx(
            math.sqrt(2.0 / math.pi), rel=1e-14
        )

    def test_uniform_activation_near_zero(self):
        assert UNIFORM.activation(1e-15) == pytest.approx(0.5, abs=1e-12)

    def test_tg_activation_deep_tail_against_mills_reference(self):
        got = TRUNCATED_GAUSSIAN.activation(-40.0)
        assert 0.0 < got <= 0.025
        want = -40.0 + mills_reference(-40.0)
        assert rel_err(got, want) < 1e-10

    def test_activation_deriv_anchors(self):
        assert GAUSSIAN.activation_deriv(123.4) == 1.0
        assert TRUNCATED_GAUSSIAN.activation_deriv(0.0) == pytest.approx(
            1.0 - 2.0 / math.pi, rel=1e-14
        )
        assert UNIFORM.activation_deriv(0.0) == pytest.approx(1.0 / 12.0, rel=1e-14)

    def test_uniform_derivatives_against_mpmath(self):
        # a log grid through both series windows and the closed forms
        mags = np.geomspace(1e-6, 40.0, 1200)
        grid = np.concatenate([-mags[::-1], mags])
        k2, k3 = UNIFORM.activation_deriv(grid), UNIFORM.cgf_third_deriv(grid)
        for a, got2, got3 in zip(grid, k2, k3):
            want2, want3 = uniform_deriv_references(a)
            assert rel_err(got2, want2) < 1e-12, f"k'' at a={a}"
            assert rel_err(got3, want3) < 1e-12, f"k''' at a={a}"

    def test_tg_derivatives_against_mpmath(self):
        # a log grid through the continued fraction below a = -5, the closed
        # forms above it, and the right tail where N(a) leaves the normal range
        grid = np.concatenate([-np.geomspace(1e8, 1e-6, 1400), np.geomspace(1e-6, 40.0, 400)])
        lam = TRUNCATED_GAUSSIAN.activation(grid)
        k2 = TRUNCATED_GAUSSIAN.activation_deriv(grid)
        k3 = TRUNCATED_GAUSSIAN.cgf_third_deriv(grid)
        for a, got1, got2, got3 in zip(grid, lam, k2, k3):
            want1, want2, want3 = tg_references(a)
            assert rel_err(got1, want1) < 1e-12, f"k' at a={a}"
            assert rel_err(got2, want2) < 1e-12, f"k'' at a={a}"
            if want3 >= np.finfo(np.float64).tiny:
                assert rel_err(got3, want3) < 1e-11, f"k''' at a={a}"
            else:  # subnormal beyond a ~ 37.6, where no relative bound can hold
                assert abs(got3 - want3) < np.finfo(np.float64).tiny, f"k''' at a={a}"
            assert got1 > 0.0 and 0.0 < got2 <= 1.0
            if a < 0.0:
                assert got2 < 1.0 and got3 > 0.0

    def test_inverse_anchors(self):
        assert GAUSSIAN.activation_inverse(3.0) == 3.0
        a = TRUNCATED_GAUSSIAN.activation_inverse(math.sqrt(2.0 / math.pi))
        assert abs(a) < 1e-10
        assert abs(UNIFORM.activation_inverse(0.5)) < 1e-10

    def test_log_density_anchors(self):
        assert GAUSSIAN.log_density(np.array([0.0])) == pytest.approx(
            -0.5 * math.log(2 * math.pi), rel=1e-15
        )
        want = math.log(2.0) - 0.5 * math.log(2 * math.pi) - 0.125
        assert TRUNCATED_GAUSSIAN.log_density(np.array([0.5])) == pytest.approx(want, rel=1e-14)
        assert UNIFORM.log_density(np.array([0.25, 0.75])) == 0.0

    def test_out_of_support_density_is_minus_inf(self):
        assert TRUNCATED_GAUSSIAN.log_density(np.array([-0.1])) == -np.inf
        assert TRUNCATED_GAUSSIAN.log_density(np.array([0.0])) == -np.inf
        assert UNIFORM.log_density(np.array([0.5, 1.0])) == -np.inf
        assert GAUSSIAN.log_density(np.array([np.inf])) == -np.inf


class TestDerivativeChains:
    """activation = cgf' and activation_deriv = activation', checked by FD."""

    GRID = np.concatenate(
        [
            np.linspace(-30.0, 30.0, 241),
            np.array([-0.051, -0.049, -0.006, -0.004, 0.004, 0.006, 0.049, 0.051]),
            np.array([-1e-4, 1e-4, -1e-6, 1e-6]),
        ]
    )

    @pytest.mark.parametrize("prior", ALL_PRIORS, ids=lambda p: p.kind)
    def test_activation_is_cgf_derivative(self, prior):
        for a in self.GRID:
            h = 6e-6 * max(1.0, abs(a))
            fd = central_diff(prior.cgf, a, h)
            got = prior.activation(a)
            assert rel_err(got, fd) < 1e-6, f"a={a}"

    @pytest.mark.parametrize("prior", ALL_PRIORS, ids=lambda p: p.kind)
    def test_activation_deriv_is_activation_derivative(self, prior):
        for a in self.GRID:
            h = 6e-6 * max(1.0, abs(a))
            fd = central_diff(prior.activation, a, h)
            got = prior.activation_deriv(a)
            if prior is GAUSSIAN:
                assert got == 1.0 and abs(fd - 1.0) < 1e-9
            else:
                assert rel_err(got, fd) < 1e-6, f"a={a}"

    @pytest.mark.parametrize("prior", ALL_PRIORS, ids=lambda p: p.kind)
    def test_third_deriv_is_deriv_of_activation_deriv(self, prior):
        for a in np.linspace(-25.0, 25.0, 141):
            h = 2e-5 * max(1.0, abs(a))
            fd = central_diff(prior.activation_deriv, a, h)
            got = prior.cgf_third_deriv(a)
            if prior is GAUSSIAN:
                assert got == 0.0
            else:
                assert abs(got - fd) < 1e-4 * max(abs(got), abs(fd), 1e-3), f"a={a}"


class TestInverseRoundTrip:
    @pytest.mark.parametrize("prior", ALL_PRIORS, ids=lambda p: p.kind)
    def test_round_trip_on_wide_range(self, prior):
        rng = np.random.default_rng(42)
        alphas = rng.uniform(-20.0, 20.0, 1000)
        y = prior.activation(alphas)
        back = prior.activation_inverse(y)
        assert np.max(np.abs(back - alphas)) < 1e-9

    def test_round_trip_extreme(self):
        for prior in (TRUNCATED_GAUSSIAN, UNIFORM):
            for a in (-700.0, -300.0, 300.0 if prior is UNIFORM else 30.0):
                y = prior.activation(a)
                back = prior.activation_inverse(y)
                assert abs(prior.activation(back) - y) <= 1e-9 * (1 + abs(y))

    def test_inverse_domain_errors(self):
        with pytest.raises(DomainError):
            TRUNCATED_GAUSSIAN.activation_inverse(0.0)
        with pytest.raises(DomainError):
            TRUNCATED_GAUSSIAN.activation_inverse(-1.0)
        with pytest.raises(DomainError):
            UNIFORM.activation_inverse(1.0)
        with pytest.raises(DomainError):
            UNIFORM.activation_inverse(0.0)
        with pytest.raises(DomainError):
            GAUSSIAN.activation_inverse(np.inf)


class TestRangesAndMonotonicity:
    @given(st.floats(-700.0, 700.0))
    @settings(max_examples=300)
    def test_tg_activation_positive_deriv_in_unit_interval(self, a):
        lam = TRUNCATED_GAUSSIAN.activation(a)
        assert lam > 0.0 and np.isfinite(lam)
        d = TRUNCATED_GAUSSIAN.activation_deriv(a)
        assert 0.0 < d <= 1.0

    @given(st.floats(-700.0, 700.0))
    @settings(max_examples=300)
    def test_uniform_activation_in_unit_interval(self, a):
        lam = UNIFORM.activation(a)
        assert 0.0 < lam < 1.0
        d = UNIFORM.activation_deriv(a)
        assert 0.0 < d <= 1.0 / 12.0 + 1e-15

    @given(st.floats(-50.0, 50.0), st.floats(1e-8, 10.0))
    @settings(max_examples=200)
    def test_strict_monotonicity(self, a, gap):
        for prior in ALL_PRIORS:
            assert prior.activation(a) < prior.activation(a + gap)

    @given(st.floats(-700.0, 700.0))
    @settings(max_examples=300)
    def test_all_ops_finite_on_wide_range(self, a):
        for prior in ALL_PRIORS:
            for fn in (prior.cgf, prior.activation, prior.activation_deriv, prior.cgf_third_deriv):
                v = fn(a)
                assert np.isfinite(v), f"{prior.kind} {fn.__name__}({a}) = {v}"


class TestVectorizationAndRegistry:
    def test_array_in_array_out(self):
        a = np.linspace(-3, 3, 7)
        for prior in ALL_PRIORS:
            assert prior.cgf(a).shape == a.shape
            assert prior.activation(a).shape == a.shape
            np.testing.assert_allclose(
                prior.activation_inverse(prior.activation(a)), a, atol=1e-10
            )

    def test_registry_lookup(self):
        assert get_prior("gaussian") is GAUSSIAN
        assert get_prior("truncated_gaussian") is TRUNCATED_GAUSSIAN
        assert get_prior("uniform") is UNIFORM
        assert activation_prior("linear") is GAUSSIAN
        assert activation_prior("tg") is TRUNCATED_GAUSSIAN
        assert activation_prior("ted") is UNIFORM
        with pytest.raises(DomainError):
            get_prior("cauchy")
        with pytest.raises(DomainError):
            activation_prior("relu")

    def test_sampling_lands_in_support(self):
        rng = np.random.default_rng(0)
        for prior in ALL_PRIORS:
            x = prior.sample(rng, 500)
            assert prior.in_support(x)

    def test_grad_log_density(self):
        x = np.array([0.3, 0.9])
        np.testing.assert_allclose(GAUSSIAN.grad_log_density(x), -x)
        np.testing.assert_allclose(TRUNCATED_GAUSSIAN.grad_log_density(x), -x)
        np.testing.assert_allclose(UNIFORM.grad_log_density(x), np.zeros(2))
