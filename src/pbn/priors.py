"""Scalar maximum-entropy priors and their calculus.

Each prior couples four functions of a scalar that the rest of the
package builds on.  They act elementwise on arrays of any shape, as does
``activation_inverse``; a Python scalar becomes a 0-d array, so it needs
no special case and gives a 0-d result:

* ``cgf``              k(a)  = log E[exp(a*x)] under the prior,
* ``activation``       k'(a), the mean of the exponentially tilted prior,
* ``activation_deriv`` k''(a), its variance (always strictly positive),
* ``cgf_third_deriv``  k'''(a), needed for curvature gradients.

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
underflows (direct evaluation dies near a = -38).  The uniform-prior
functions switch to Taylor series around a = 0 where the closed forms
cancel catastrophically.  All four functions of every prior are finite
and NaN-free at least on [-700, 700].
"""

import math

import numpy as np
from scipy import special

from .errors import DomainError, PbnError

LOG_2PI = math.log(2.0 * math.pi)
_SQRT2 = math.sqrt(2.0)
_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


def _npdf(a):
    return np.exp(-0.5 * a * a) / math.sqrt(2.0 * math.pi)


def _bracketed_newton(f, fprime, y, lo, hi, *, max_iter=140, tol=1e-13):
    """Solve f(x) = y for increasing f with f(lo) < y < f(hi), elementwise.

    Newton steps are accepted only while they stay inside the current
    bracket; otherwise the iterate falls back to bisection, so
    convergence is guaranteed.  An element stops iterating once it has
    converged, so each result is the one its scalar solve would give,
    whatever the other elements of the array.
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
        fx = f(xl) - yl
        going = ~(np.abs(fx) <= tol * (1.0 + np.abs(yl)))
        if not going.any():
            return x.reshape(shape)
        live, fx, xl, lol, hil = live[going], fx[going], xl[going], lol[going], hil[going]
        below = fx < 0.0
        lol = np.where(below, xl, lol)
        hil = np.where(below, hil, xl)
        with np.errstate(divide="ignore", invalid="ignore"):
            xn = xl - fx / fprime(xl)
        bad = ~np.isfinite(xn) | (xn <= lol) | (xn >= hil)
        x[live] = np.where(bad, 0.5 * (lol + hil), xn)
        lo[live], hi[live] = lol, hil
    fx = f(x[live]) - y[live]
    if np.all(np.abs(fx) <= 1e-9 * (1.0 + np.abs(y[live]))):
        return x.reshape(shape)
    raise PbnError("activation inverse did not converge")


def _per_row(values):
    """A per-row result as a Python scalar for one vector, an array for a stack."""
    return values.item() if values.ndim == 0 else values


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

    def activation_inverse(self, y):
        raise NotImplementedError

    # -- densities ------------------------------------------------------
    def log_density(self, x):
        """Log prior density of a vector, or of each row of a stack of them.

        -inf where any element leaves the support.
        """
        raise NotImplementedError

    def grad_log_density(self, x):
        raise NotImplementedError

    def in_support(self, x):
        """Whether a vector, or each row of a stack of them, lies in the open support."""
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
        return _per_row(np.where(self.in_support(x), out, -np.inf))

    def grad_log_density(self, x):
        return -np.asarray(x, dtype=np.float64)

    def in_support(self, x):
        return _per_row(np.all(np.isfinite(x), axis=-1))

    def sample(self, rng, n):
        return rng.standard_normal(n)


class TruncatedGaussianPrior(ScalarPrior):
    """Standard normal truncated to (0, inf): density 2 N(x) for x > 0.

    cgf  k(a) = a^2/2 + log(2 Phi(a))
    k'(a)     = a + r(a)            with r = N/Phi (inverse Mills ratio)
    k''(a)    = 1 - r(a) (a + r(a))
    k'''(a)   = r(a) [(a + r(a)) (a + 2 r(a)) - 1]
    """

    kind = "truncated_gaussian"
    activation_tag = "tg"

    @staticmethod
    def _mills(a):
        """r(a) = N(a)/Phi(a), stable on the whole line."""
        out = np.empty_like(a)
        neg = a < 0.0
        # Phi(a) = 0.5 exp(-a^2/2) erfcx(-a/sqrt(2)) for a < 0, so the
        # Gaussians cancel exactly and nothing underflows.
        out[neg] = _SQRT_2_OVER_PI / special.erfcx(-a[neg] / _SQRT2)
        pos = ~neg
        out[pos] = _npdf(a[pos]) / special.ndtr(a[pos])
        return out

    def cgf(self, a):
        a = np.asarray(a, dtype=np.float64)
        out = np.empty_like(a)
        tail = a < -5.0
        # a^2/2 + log(2 Phi(a)) == log erfcx(-a/sqrt(2)) identically.
        out[tail] = np.log(special.erfcx(-a[tail] / _SQRT2))
        rest = ~tail
        out[rest] = 0.5 * a[rest] * a[rest] + np.log(2.0 * special.ndtr(a[rest]))
        return out

    def activation(self, a):
        a = np.asarray(a, dtype=np.float64)
        return a + self._mills(a)

    def activation_deriv(self, a):
        a = np.asarray(a, dtype=np.float64)
        r = self._mills(a)
        return 1.0 - r * (a + r)

    def cgf_third_deriv(self, a):
        a = np.asarray(a, dtype=np.float64)
        r = self._mills(a)
        return r * ((a + r) * (a + 2.0 * r) - 1.0)

    def activation_inverse(self, y):
        y = np.asarray(y, dtype=np.float64)
        if not np.all(np.isfinite(y)) or np.any(y <= 0.0):
            raise DomainError("tg activation inverse requires values in (0, inf)")
        # lambda(-1/y) < y < lambda(y + 1) holds for every y > 0 (Mills
        # ratio bound r(-t) < t + 1/t), so the bracket needs no search.
        return _bracketed_newton(self.activation, self.activation_deriv, y, -1.0 / y, y + 1.0)

    def log_density(self, x):
        x = np.asarray(x, dtype=np.float64)
        n = x.shape[-1]
        with np.errstate(invalid="ignore", over="ignore"):
            out = n * (math.log(2.0) - 0.5 * LOG_2PI) - 0.5 * np.vecdot(x, x)
        return _per_row(np.where(self.in_support(x), out, -np.inf))

    def grad_log_density(self, x):
        return -np.asarray(x, dtype=np.float64)

    def in_support(self, x):
        x = np.asarray(x)
        return _per_row(np.all((x > 0.0) & (x < np.inf), axis=-1))

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
        out = np.empty_like(a)
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
        out = np.empty_like(a)
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
        out = np.empty_like(a)
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
            self.activation, self.activation_deriv, y, -1.0 / y, 1.0 / (1.0 - y)
        )

    def log_density(self, x):
        return _per_row(np.where(self.in_support(x), 0.0, -np.inf))

    def grad_log_density(self, x):
        return np.zeros_like(np.asarray(x, dtype=np.float64))

    def in_support(self, x):
        x = np.asarray(x)
        return _per_row(np.all((x > 0.0) & (x < 1.0), axis=-1))

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
