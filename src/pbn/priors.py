"""Scalar maximum-entropy priors and their calculus.

Each prior gives its cumulant generating function and the derivatives
the rest of the package builds on through two functions.  They act
elementwise on arrays of any shape; a Python scalar becomes a 0-d array,
so it needs no special case and gives a 0-d result:

* ``cgf_derivs``       (k(a), k'(a), k''(a)) in one pass, with
  k(a) = log E[exp(a*x)] under the prior, k'(a) the activation (the
  mean of the exponentially tilted prior) and k''(a) its slope and
  variance (always strictly positive),
* ``cgf_third_deriv``  k'''(a), needed only for curvature gradients.

Every trial point of a saddle solve and every layer of a forward pass
reads k, k' and k'' from ``cgf_derivs`` alone.  The truncated Gaussian
computes them from one erfcx per element, which k and the inverse Mills
ratio share; the uniform prior shares one expm1 between k and k'.

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
function up to a = 26, which stays accurate far into the tail where
Phi(a) underflows (direct evaluation dies near a = -38).  Below a = -5 its
closed forms for k', k'' and k''' cancel (k'(a) = a + r(a) ~ -1/a), so
there all three come from the continued fraction of k' instead.  The
uniform-prior functions switch to Taylor series around a = 0 where the
closed forms cancel catastrophically.  k, k', k'' and k''' of every
prior are finite and NaN-free at least on [-700, 700].
"""

import math
from itertools import zip_longest

import numpy as np
from scipy import special

from .errors import DomainError

LOG_2PI = math.log(2.0 * math.pi)
_SQRT2 = math.sqrt(2.0)
_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


def _npdf(a):
    return np.exp(-0.5 * a * a) / math.sqrt(2.0 * math.pi)


class ScalarPrior:
    """Interface shared by the three maximum-entropy priors.

    A prior has a ``kind`` and an ``activation_tag`` (the table above)
    and five members.  ``cgf_derivs`` and ``cgf_third_deriv`` are
    elementwise (see above).  On a stack of rows, ``log_density`` gives
    the log prior density of each row (-inf where any element leaves the
    support) and ``in_support`` whether each row lies in the open
    support, one vector giving a 0-d array; ``grad_log_density`` is the
    elementwise gradient of the log density.
    """

    def __repr__(self):
        return f"<{type(self).__name__} kind={self.kind!r}>"


class GaussianPrior(ScalarPrior):
    """Standard normal prior on the whole real line; activation is identity."""

    kind = "gaussian"
    activation_tag = "linear"

    def cgf_derivs(self, a):
        a = np.asarray(a, dtype=np.float64)
        return 0.5 * a * a, a.copy(), np.ones_like(a)

    def cgf_third_deriv(self, a):
        a = np.asarray(a, dtype=np.float64)
        return np.zeros_like(a)

    def log_density(self, x):
        x = np.asarray(x, dtype=np.float64)
        with np.errstate(invalid="ignore", over="ignore"):
            out = -0.5 * x.shape[-1] * LOG_2PI - 0.5 * np.vecdot(x, x)
        return np.where(self.in_support(x), out, -np.inf)

    def grad_log_density(self, x):
        return -np.asarray(x, dtype=np.float64)

    def in_support(self, x):
        return np.all(np.isfinite(x), axis=-1)


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


# Above this preactivation the truncated-Gaussian k and r are read off Phi,
# well before erfcx(-a/sqrt(2)) overflows at a = 37.6.
_TG_HEAD = 26.0


def _tg_kr(a):
    """k and the inverse Mills ratio r = N/Phi at each element of a 1-d array.

    With e = erfcx(-a/sqrt(2)) = 2 Phi(a) exp(a^2/2), k = log e and
    r = sqrt(2/pi) / e: one erfcx gives both, on both sides of a = 0.
    Above _TG_HEAD they come from Phi instead.
    """
    e = special.erfcx(-a / _SQRT2)
    with np.errstate(divide="ignore"):  # e = 0 at a = -inf
        k, r = np.log(e), _SQRT_2_OVER_PI / e
    head = a > _TG_HEAD
    if head.any():
        b = a[head]
        phi = special.ndtr(b)
        k[head], r[head] = 0.5 * b * b + np.log(2.0 * phi), _npdf(b) / phi
    return k, r


def _tg_derivs(a):
    """k, k' and k'' of the truncated Gaussian; below _TG_TAIL, k' and k'' from the fraction."""
    a = np.asarray(a, dtype=np.float64)
    shape, a = a.shape, a.reshape(-1)
    k, r = _tg_kr(a)
    with np.errstate(invalid="ignore"):  # the closed forms at a = -inf, replaced below
        k1 = a + r
        k2 = 1.0 - r * k1
    tail = a < _TG_TAIL
    if tail.any():
        t = -a[tail]
        # 1 - r k' = u_1 (u_2 - u_1), and u_2 - u_1 = u_1 (t + 2 u_2 - u_3) / (t + u_3)
        u1, u2, u3, _ = _tg_fraction(t)
        k1[tail], k2[tail] = u1, u1 * u1 * (t + 2.0 * u2 - u3) / (t + u3)
    return k.reshape(shape), k1.reshape(shape), k2.reshape(shape)


def _tg_k3(a):
    """k''' of the truncated Gaussian; below _TG_TAIL from the fraction."""
    a = np.asarray(a, dtype=np.float64)
    shape, a = a.shape, a.reshape(-1)
    r = _tg_kr(a)[1]
    with np.errstate(invalid="ignore", over="ignore"):  # the closed form in the tail, replaced below
        k3 = r * ((a + r) * (a + 2.0 * r) - 1.0)
    tail = a < _TG_TAIL
    if tail.any():
        t = -a[tail]
        # r (k'^2 - k'') = 2 r u_1^2 (u_3 - u_2) / (t + u_3), with r = t + u_1 and
        # u_3 - u_2 = (t + 3 u_3 - 2 u_4) / ((t + u_3)(t + u_4)); the ratios keep
        # every intermediate finite for huge t
        u1, _, u3, u4 = _tg_fraction(t)
        k3[tail] = 2.0 * u1 * u1 * ((t + u1) / (t + u3)) * ((t + 3.0 * u3 - 2.0 * u4) / (t + u3)) / (t + u4)
    return k3.reshape(shape)


class TruncatedGaussianPrior(ScalarPrior):
    """Standard normal truncated to (0, inf): density 2 N(x) for x > 0.

    cgf  k(a) = a^2/2 + log(2 Phi(a))
    k'(a)     = a + r(a)            with r = N/Phi (inverse Mills ratio)
    k''(a)    = 1 - r(a) (a + r(a))
    k'''(a)   = r(a) [(a + r(a)) (a + 2 r(a)) - 1]

    Up to a = 26, k is log erfcx(-a/sqrt(2)) and r is sqrt(2/pi) over
    the same erfcx; below a = -5 the three derivatives come from the
    continued fraction of k' (``_tg_fraction``).
    """

    kind = "truncated_gaussian"
    activation_tag = "tg"

    def cgf_derivs(self, a):
        return _tg_derivs(a)

    def cgf_third_deriv(self, a):
        return _tg_k3(a)

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

    def cgf_derivs(self, a):
        a = np.asarray(a, dtype=np.float64)
        k, k1 = np.full_like(a, np.nan), np.full_like(a, np.nan)  # NaN stays NaN
        small = np.abs(a) < 5e-3
        s = a[small]
        k[small] = 0.5 * s + s * s / 24.0 - s**4 / 2880.0
        k1[small] = 0.5 + s / 12.0 - s**3 / 720.0 + s**5 / 30240.0
        pos = (~small) & (a > 0.0)
        p = a[pos]
        e = -np.expm1(-p)
        k[pos], k1[pos] = p + np.log(e) - np.log(p), 1.0 / e - 1.0 / p
        neg = (~small) & (a < 0.0)
        m = a[neg]
        e = np.expm1(m)
        k[neg], k1[neg] = np.log(-e) - np.log(-m), np.exp(m) / e - 1.0 / m
        k2 = np.empty_like(a)
        small = np.abs(a) < _UNIFORM_SERIES_WINDOW
        k2[small] = _series_in_square(_UNIFORM_K2_SERIES, a[small])
        r = a[~small]
        with np.errstate(over="ignore"):
            sh = np.sinh(0.5 * r)
            k2[~small] = 1.0 / (r * r) - 1.0 / (4.0 * sh * sh)
        return k, k1, k2

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

    def log_density(self, x):
        return np.where(self.in_support(x), 0.0, -np.inf)

    def grad_log_density(self, x):
        return np.zeros_like(np.asarray(x, dtype=np.float64))

    def in_support(self, x):
        x = np.asarray(x)
        return np.all((x > 0.0) & (x < 1.0), axis=-1)


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
