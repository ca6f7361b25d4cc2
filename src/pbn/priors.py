"""Scalar maximum-entropy priors and their calculus.

Each prior couples four functions of a scalar that the rest of the
package builds on.  They act elementwise on arrays of any shape, as does
``activation_inverse``; a Python scalar becomes a 0-d array, so it needs
no special case and gives a 0-d result:

* ``cgf``              k(a)  = log E[exp(a*x)] under the prior,
* ``activation``       k'(a), the mean of the exponentially tilted prior,
* ``activation_deriv`` k''(a), its variance (always strictly positive),
* ``cgf_third_deriv``  k'''(a), needed for curvature gradients.

``cgf_derivs`` returns k, k' and k'' of one array together, each bit for
bit what its own function gives.  The truncated Gaussian computes the
three in one pass over its branches, with one inverse Mills ratio; every
Newton iterate of a saddle solve and every forward pass needs them so.

Three priors are provided:

==================  =============  =======================  ==================
kind                support        density                  activation range
==================  =============  =======================  ==================
gaussian            (-inf, inf)    prod N(x_i)              (-inf, inf)
truncated_gaussian  (0, inf)       prod 2 N(x_i), x_i > 0   (0, inf)
uniform             (0, 1)         1                        (0, 1)
==================  =============  =======================  ==================

where N is the standard normal pdf.  Supports are open: a boundary value
is out of support.  The activation of each prior is the nonlinearity
whose output range equals the support of the prior, so the activation
tags ``linear``, ``tg`` and ``ted`` map back onto the same three objects.

Numerical notes.  The truncated-Gaussian inverse Mills ratio
r(a) = N(a)/Phi(a) is evaluated through the scaled complementary error
function for a < 0, which stays accurate far into the tail where Phi(a)
underflows (direct evaluation dies near a = -38).  Below a = -5 its
closed forms for k', k'' and k''' cancel (k'(a) = a + r(a) ~ -1/a), so
there all three come from the continued fraction of k' instead.  The
uniform-prior functions switch to Taylor series around a = 0 where the
closed forms cancel catastrophically.  All four functions of every prior are finite
and NaN-free at least on [-700, 700].
"""

import math
from itertools import zip_longest

import numpy as np
from scipy import special

from .errors import DomainError, PbnError

LOG_2PI = math.log(2.0 * math.pi)
_SQRT2 = math.sqrt(2.0)
_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


def _npdf(a):
    return np.exp(-0.5 * a * a) / math.sqrt(2.0 * math.pi)


def _bracketed_newton(f_df, y, lo, hi, *, max_iter=140, tol=1e-13):
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
    for _ in range(max_iter):
        yl, xl, lol, hil = y[live], x[live], lo[live], hi[live]
        fx, dfx = f_df(xl)
        fx = fx - yl
        going = ~(np.abs(fx) <= tol * (1.0 + np.abs(yl)))
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
    raise PbnError("activation inverse did not converge")


class ScalarPrior:
    """Interface shared by the three maximum-entropy priors."""

    kind = ""
    activation_tag = ""

    # -- elementwise calculus -------------------------------------------
    def cgf(self, a):
        raise NotImplementedError

    def activation(self, a):
        raise NotImplementedError

    def activation_deriv(self, a):
        raise NotImplementedError

    def cgf_third_deriv(self, a):
        raise NotImplementedError

    def cgf_derivs(self, a):
        """(k(a), k'(a), k''(a)), each bit for bit what its own function gives."""
        return self.cgf(a), self.activation(a), self.activation_deriv(a)

    def activation_inverse(self, y):
        raise NotImplementedError

    # -- densities ------------------------------------------------------
    def log_density(self, x):
        """Log prior density of each row of a stack, as an array (0-d for one vector).

        -inf where any element leaves the support.
        """
        raise NotImplementedError

    def grad_log_density(self, x):
        raise NotImplementedError

    def in_support(self, x):
        """Whether each row of a stack lies in the open support, as an array (0-d for one vector)."""
        raise NotImplementedError

    def sample(self, rng, n):
        """Draw n iid samples; used by tests and synthesis checks."""
        raise NotImplementedError

    def __repr__(self):
        return f"<{type(self).__name__} kind={self.kind!r}>"


class GaussianPrior(ScalarPrior):
    """Standard normal prior on the whole real line; activation is identity."""

    kind = "gaussian"
    activation_tag = "linear"

    def cgf(self, a):
        a = np.asarray(a, dtype=np.float64)
        return 0.5 * a * a

    def activation(self, a):
        a = np.asarray(a, dtype=np.float64)
        return a.copy()

    def activation_deriv(self, a):
        a = np.asarray(a, dtype=np.float64)
        return np.ones_like(a)

    def cgf_third_deriv(self, a):
        a = np.asarray(a, dtype=np.float64)
        return np.zeros_like(a)

    def activation_inverse(self, y):
        y = np.asarray(y, dtype=np.float64)
        if not np.all(np.isfinite(y)):
            raise DomainError("linear activation inverse requires finite values")
        return y.copy()

    def log_density(self, x):
        x = np.asarray(x, dtype=np.float64)
        with np.errstate(invalid="ignore", over="ignore"):
            out = -0.5 * x.shape[-1] * LOG_2PI - 0.5 * np.vecdot(x, x)
        return np.where(self.in_support(x), out, -np.inf)

    def grad_log_density(self, x):
        return -np.asarray(x, dtype=np.float64)

    def in_support(self, x):
        return np.all(np.isfinite(x), axis=-1)

    def sample(self, rng, n):
        return rng.standard_normal(n)


# Below this preactivation the truncated-Gaussian k, k', k'' and k''' switch
# to forms that do not cancel; at and above it the closed forms hold (k''',
# the worst, to about 5e-12 relative near the switch).
_TG_TAIL = -5.0
# Levels of the continued fraction of k' that the polynomials below carry;
# 32 hold all three derivatives to rounding at t = 5.
_TG_FRACTION_DEPTH = 32


def _fraction_polynomials(first):
    """Coefficients in z of P and Q with t u_first = P(z) / Q(z), z = 1/t^2.

    Unwound from u_(depth+1) = 0 by t u_k = k / (1 + z t u_(k+1)) in exact
    integers.  Every coefficient is positive, so P and Q sum without
    cancelling.
    """
    p, q = [0], [1]
    for k in range(_TG_FRACTION_DEPTH, first - 1, -1):
        p, q = [k * c for c in q], [x + y for x, y in zip_longest(q, [0] + p, fillvalue=0)]
    return p, q


# columns P, Q of t u_1, then of t u_2, t u_3 and t u_4; row i holds z^i terms
_TG_FRACTION_COEFFS = np.array(
    list(zip_longest(*(c for k in (1, 2, 3, 4) for c in _fraction_polynomials(k)), fillvalue=0)),
    dtype=np.float64,
)


def _tg_fraction(t):
    """u_1 .. u_4 of u_k = k / (t + u_(k+1)) as rows, for a 1-d array of t = -a > 0.

    By Laplace's continued fraction of the Mills ratio, r(-t) = t + u_1,
    so k'(-t) = u_1 with every term positive and nothing to cancel.  The
    polynomials above are summed by einsum, not BLAS, so that no
    element's result depends on the others in the array.
    """
    s = 1.0 / t
    powers = np.empty((len(_TG_FRACTION_COEFFS), len(t)))
    powers[0] = 1.0
    powers[1:] = s * s
    np.multiply.accumulate(powers, axis=0, out=powers)
    pq = np.einsum("kn,kj->jn", powers, _TG_FRACTION_COEFFS)
    return pq[0::2] / pq[1::2] * s


def _tg_split(a, tail, rest):
    """tail(-a) where a < _TG_TAIL and rest(a) elsewhere, elementwise.

    ``tail`` and ``rest`` return one array, or a tuple of them, shaped
    like their argument; the split returns the same.
    """
    a = np.asarray(a, dtype=np.float64)
    below = a < _TG_TAIL
    if not below.any():  # most arrays: no masked copies
        return rest(a)
    above = ~below

    def merge(lo, hi):
        out = np.empty_like(a)
        out[below] = lo
        out[above] = hi
        return out

    lo, hi = tail(-a[below]), rest(a[above])
    return tuple(map(merge, lo, hi)) if isinstance(hi, tuple) else merge(lo, hi)


def _mills(a):
    """r(a) = N(a)/Phi(a), the inverse Mills ratio, stable on the whole line."""
    out = np.empty_like(a)
    neg = a < 0.0
    # Phi(a) = 0.5 exp(-a^2/2) erfcx(-a/sqrt(2)) for a < 0, so the
    # Gaussians cancel exactly and nothing underflows.
    out[neg] = _SQRT_2_OVER_PI / special.erfcx(-a[neg] / _SQRT2)
    pos = ~neg
    out[pos] = _npdf(a[pos]) / special.ndtr(a[pos])
    return out


def _tg_tail_k(t):
    # a^2/2 + log(2 Phi(a)) == log erfcx(-a/sqrt(2)) identically
    return np.log(special.erfcx(t / _SQRT2))


def _tg_closed_k(a):
    return 0.5 * a * a + np.log(2.0 * special.ndtr(a))


def _tg_tail(t):
    """k, k' and k'' at a = -t below _TG_TAIL."""
    # 1 - r k' = u_1 (u_2 - u_1), and u_2 - u_1 = u_1 (t + 2 u_2 - u_3) / (t + u_3)
    u1, u2, u3, _ = _tg_fraction(t)
    return _tg_tail_k(t), u1, u1 * u1 * (t + 2.0 * u2 - u3) / (t + u3)


def _tg_closed(a):
    """k, k' and k'' at a at or above _TG_TAIL, from one inverse Mills ratio."""
    r = _mills(a)
    k1 = a + r
    return _tg_closed_k(a), k1, 1.0 - r * k1


def _tg_tail_k3(t):
    # r (k'^2 - k'') = 2 r u_1^2 (u_3 - u_2) / (t + u_3), with r = t + u_1 and
    # u_3 - u_2 = (t + 3 u_3 - 2 u_4) / ((t + u_3)(t + u_4)); the ratios keep
    # every intermediate finite for huge t
    u1, _, u3, u4 = _tg_fraction(t)
    return 2.0 * u1 * u1 * ((t + u1) / (t + u3)) * ((t + 3.0 * u3 - 2.0 * u4) / (t + u3)) / (t + u4)


def _tg_closed_k3(a):
    r = _mills(a)
    return r * ((a + r) * (a + 2.0 * r) - 1.0)


class TruncatedGaussianPrior(ScalarPrior):
    """Standard normal truncated to (0, inf): density 2 N(x) for x > 0.

    cgf  k(a) = a^2/2 + log(2 Phi(a))
    k'(a)     = a + r(a)            with r = N/Phi (inverse Mills ratio)
    k''(a)    = 1 - r(a) (a + r(a))
    k'''(a)   = r(a) [(a + r(a)) (a + 2 r(a)) - 1]

    Below a = -5, k is log erfcx(-a/sqrt(2)) and the three derivatives
    come from the continued fraction of k' (``_tg_fraction``).  k' and
    k'' are read off the fused ``cgf_derivs``, so each formula is
    written once.
    """

    kind = "truncated_gaussian"
    activation_tag = "tg"

    def cgf(self, a):
        return _tg_split(a, _tg_tail_k, _tg_closed_k)

    def activation(self, a):
        return self.cgf_derivs(a)[1]

    def activation_deriv(self, a):
        return self.cgf_derivs(a)[2]

    def cgf_third_deriv(self, a):
        return _tg_split(a, _tg_tail_k3, _tg_closed_k3)

    def cgf_derivs(self, a):
        return _tg_split(a, _tg_tail, _tg_closed)

    def activation_inverse(self, y):
        y = np.asarray(y, dtype=np.float64)
        if not np.all(np.isfinite(y)) or np.any(y <= 0.0):
            raise DomainError("tg activation inverse requires values in (0, inf)")
        # lambda(-1/y) < y < lambda(y + 1) holds for every y > 0 (Mills
        # ratio bound r(-t) < t + 1/t), so the bracket needs no search.
        return _bracketed_newton(lambda a: self.cgf_derivs(a)[1:], y, -1.0 / y, y + 1.0)

    def log_density(self, x):
        x = np.asarray(x, dtype=np.float64)
        n = x.shape[-1]
        with np.errstate(invalid="ignore", over="ignore"):
            out = n * (math.log(2.0) - 0.5 * LOG_2PI) - 0.5 * np.vecdot(x, x)
        return np.where(self.in_support(x), out, -np.inf)

    def grad_log_density(self, x):
        return -np.asarray(x, dtype=np.float64)

    def in_support(self, x):
        x = np.asarray(x)
        return np.all((x > 0.0) & (x < np.inf), axis=-1)

    def sample(self, rng, n):
        return np.abs(rng.standard_normal(n))


# k''(a) = sum over n >= 1 of C_n a^(2n-2), with C_n = B_2n (2n - 1) / (2n)!
# (B_2n the Bernoulli numbers), and k''' is its term-by-term derivative.  The
# series converges for |a| < 2 pi; inside |a| < 1 its first twelve terms hold
# both functions to rounding.  Outside it the closed forms lose at most about
# 12 / a^2 (k'') and 240 / a^4 (k''') units in the last place to cancellation.
_UNIFORM_K2_SERIES = (
    0.08333333333333333,
    -0.004166666666666667,
    0.00016534391534391533,
    -5.787037037037037e-06,
    1.8789081289081288e-07,
    -5.812609152556243e-09,
    1.7397297489890083e-10,
    -5.084520444483875e-12,
    1.4596305495672335e-13,
    -4.1322505272603176e-15,
    1.1568905939556482e-16,
    -3.2095268777368804e-18,
)
# k'''(a) = a * sum over n >= 2 of (2n - 2) C_n a^(2n-4)
_UNIFORM_K3_SERIES = tuple((2 * n - 2) * c for n, c in enumerate(_UNIFORM_K2_SERIES, 1))[1:]
_UNIFORM_SERIES_WINDOW = 1.0


def _series_in_square(coeffs, s):
    """sum over i of coeffs[i] * s^(2i), by Horner in s^2."""
    s2 = s * s
    out = np.zeros_like(s)
    for c in reversed(coeffs):
        out = out * s2 + c
    return out


class UniformPrior(ScalarPrior):
    """Uniform prior on (0, 1); the activation is the truncated-exponential mean.

    cgf  k(a) = log((e^a - 1)/a)
    k'(a)     = e^a/(e^a - 1) - 1/a
    k''(a)    = 1/a^2 - 1/(4 sinh^2(a/2))
    k'''(a)   = -2/a^3 + e^a (e^a + 1)/(e^a - 1)^3

    Each function switches to its Taylor series near a = 0, where the
    closed form cancels: k and k' for |a| < 5e-3, k'' and k''' (the
    Bernoulli series above) for |a| < 1.
    """

    kind = "uniform"
    activation_tag = "ted"

    def cgf(self, a):
        a = np.asarray(a, dtype=np.float64)
        out = np.full_like(a, np.nan)  # NaN stays NaN
        small = np.abs(a) < 5e-3
        s = a[small]
        out[small] = 0.5 * s + s * s / 24.0 - s**4 / 2880.0
        pos = (~small) & (a > 0.0)
        p = a[pos]
        out[pos] = p + np.log(-np.expm1(-p)) - np.log(p)
        neg = (~small) & (a < 0.0)
        m = a[neg]
        out[neg] = np.log(-np.expm1(m)) - np.log(-m)
        return out

    def activation(self, a):
        a = np.asarray(a, dtype=np.float64)
        out = np.full_like(a, np.nan)  # NaN stays NaN
        small = np.abs(a) < 5e-3
        s = a[small]
        out[small] = 0.5 + s / 12.0 - s**3 / 720.0 + s**5 / 30240.0
        pos = (~small) & (a > 0.0)
        p = a[pos]
        out[pos] = 1.0 / (-np.expm1(-p)) - 1.0 / p
        neg = (~small) & (a < 0.0)
        m = a[neg]
        out[neg] = np.exp(m) / np.expm1(m) - 1.0 / m
        return out

    def activation_deriv(self, a):
        a = np.asarray(a, dtype=np.float64)
        out = np.empty_like(a)
        small = np.abs(a) < _UNIFORM_SERIES_WINDOW
        out[small] = _series_in_square(_UNIFORM_K2_SERIES, a[small])
        rest = ~small
        r = a[rest]
        with np.errstate(over="ignore"):
            sh = np.sinh(0.5 * r)
            out[rest] = 1.0 / (r * r) - 1.0 / (4.0 * sh * sh)
        return out

    def cgf_third_deriv(self, a):
        a = np.asarray(a, dtype=np.float64)
        out = np.full_like(a, np.nan)  # NaN stays NaN
        small = np.abs(a) < _UNIFORM_SERIES_WINDOW
        s = a[small]
        out[small] = s * _series_in_square(_UNIFORM_K3_SERIES, s)
        pos = (~small) & (a > 0.0)
        p = a[pos]
        t = np.exp(-p)
        out[pos] = -2.0 / p**3 + t * (1.0 + t) / (-np.expm1(-p)) ** 3
        neg = (~small) & (a < 0.0)
        m = a[neg]
        t = np.exp(m)
        out[neg] = -2.0 / m**3 + t * (1.0 + t) / np.expm1(m) ** 3
        return out

    def activation_inverse(self, y):
        y = np.asarray(y, dtype=np.float64)
        if not np.all(np.isfinite(y)) or np.any(y <= 0.0) or np.any(y >= 1.0):
            raise DomainError("ted activation inverse requires values in (0, 1)")
        # lambda(-1/y) < y and lambda(1/(1-y)) > y hold for all y in (0, 1).
        return _bracketed_newton(
            lambda a: (self.activation(a), self.activation_deriv(a)), y, -1.0 / y, 1.0 / (1.0 - y)
        )

    def log_density(self, x):
        return np.where(self.in_support(x), 0.0, -np.inf)

    def grad_log_density(self, x):
        return np.zeros_like(np.asarray(x, dtype=np.float64))

    def in_support(self, x):
        x = np.asarray(x)
        return np.all((x > 0.0) & (x < 1.0), axis=-1)

    def sample(self, rng, n):
        return rng.uniform(1e-12, 1.0 - 1e-12, n)


GAUSSIAN = GaussianPrior()
TRUNCATED_GAUSSIAN = TruncatedGaussianPrior()
UNIFORM = UniformPrior()

_PRIORS = {p.kind: p for p in (GAUSSIAN, TRUNCATED_GAUSSIAN, UNIFORM)}
_ACTIVATIONS = {p.activation_tag: p for p in (GAUSSIAN, TRUNCATED_GAUSSIAN, UNIFORM)}


def get_prior(kind):
    """Look up a prior by its kind tag."""
    try:
        return _PRIORS[kind]
    except KeyError:
        raise DomainError(f"unknown prior kind {kind!r}") from None


def activation_prior(tag):
    """Return the prior whose activation carries the given tag.

    The range of an activation equals the support of its prior, so the
    same object answers both questions: ``linear`` -> gaussian,
    ``tg`` -> truncated_gaussian, ``ted`` -> uniform.
    """
    try:
        return _ACTIVATIONS[tag]
    except KeyError:
        raise DomainError(f"unknown activation tag {tag!r}") from None
