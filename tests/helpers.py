"""Shared oracles and toy fixtures, independent of the package internals but for ``full_inverse``."""

import math
import struct

import numpy as np
from hypothesis import settings

SQRT_2PI = math.sqrt(2.0 * math.pi)

# the Hypothesis profile of the deeper CI run (registered in conftest.py)
DEEP_PROFILE = "pbn-deep"


def examples(local):
    """A property test's example budget: ``local``, or the deep profile's when that is loaded."""
    return settings.default.max_examples if settings.get_current_profile_name() == DEEP_PROFILE else local


def full_inverse(factor):
    """The whole S^-1 of a GramFactor in output order, mirrored from the lower triangle it forms.

    A convolution's factor is in block order (h_out, c_out, w_out); its
    ``_dims`` (c_out, h_out) give the permutation back to output order.
    """
    inv = np.tril(factor._inverse())
    inv += np.tril(inv, -1).T
    if factor._dims is None:
        return inv
    c_out, h_out = factor._dims
    back = np.arange(len(inv)).reshape(h_out, c_out, -1).transpose(1, 0, 2).ravel()
    return inv[np.ix_(back, back)]


def scalar_pdf(kind, x):
    """Reference densities, written directly from their definitions."""
    x = np.asarray(x, dtype=np.float64)
    if kind == "gaussian":
        return np.exp(-0.5 * x * x) / SQRT_2PI
    if kind == "truncated_gaussian":
        return np.where(x > 0.0, 2.0 * np.exp(-0.5 * x * x) / SQRT_2PI, 0.0)
    if kind == "uniform":
        return ((x > 0.0) & (x < 1.0)).astype(np.float64)
    raise ValueError(kind)


def sample(prior, rng, n):
    """n iid draws from ``prior``; n is a count or a shape."""
    if prior.kind == "gaussian":
        return rng.standard_normal(n)
    if prior.kind == "truncated_gaussian":
        return np.abs(rng.standard_normal(n))
    if prior.kind == "uniform":
        return rng.uniform(1e-12, 1.0 - 1e-12, n)
    raise ValueError(prior.kind)


def sum_density_grid(kind, weights, z_max, n=1 << 14):
    """Density of sum_i w_i x_i for iid x_i, by convolution quadrature.

    Both non-Gaussian supports live on the positives, so the grid starts
    at zero.  Returns (grid, density samples).
    """
    grid = np.linspace(0.0, z_max, n)
    dz = grid[1] - grid[0]
    f = None
    for w in weights:
        g = scalar_pdf(kind, grid / w) / w
        f = g if f is None else np.convolve(f, g)[:n] * dz
    return grid, f


def gaussian_chain_logpdf(net, x_raw):
    """Closed-form density of an all-linear, all-Gaussian chain.

    The generative model draws z_L ~ N(0, I) and fills each layer input
    by conditioning a spherical Gaussian on its projection, so every
    layer input stays Gaussian; composing the conditionals downward
    gives the exact mean and covariance of the raw input.
    """
    from scipy.stats import multivariate_normal

    mu = np.zeros(net.layers[-1].map.n_out)
    cov = np.eye(net.layers[-1].map.n_out)
    for spec in reversed(net.layers):
        w = spec.map.materialize().T  # n_in x n_out
        g = w @ np.linalg.inv(w.T @ w)
        mu = g @ (mu - spec.bias)
        cov = g @ cov @ g.T + np.eye(w.shape[0]) - g @ w.T
    x1 = net.standardized(x_raw)
    return float(multivariate_normal(mean=mu, cov=cov).logpdf(x1)) + net.log_standardize


def sum_moments(kind, weights):
    """Mean and standard deviation of sum_i w_i x_i under the reference priors."""
    w = np.asarray(weights, dtype=np.float64)
    if kind == "truncated_gaussian":
        m1, var = math.sqrt(2.0 / math.pi), 1.0 - 2.0 / math.pi
    elif kind == "uniform":
        m1, var = 0.5, 1.0 / 12.0
    elif kind == "gaussian":
        m1, var = 0.0, 1.0
    else:
        raise ValueError(kind)
    return float(np.sum(w) * m1), float(math.sqrt(np.sum(w * w) * var))


def write_non_finite_archive(tmp_path, binary):
    """An archive of four records whose records 1 and 3 hold a NaN and an infinity.

    The writers refuse such values, so the archive is written with two
    marker values and patched in place.
    """
    from pbn import Dataset
    from pbn.features import write_archive_binary, write_archive_text

    data = Dataset(np.ones((4, 3)), np.array([0, 1, 0, 1]), [f"cls/{i:02d}" for i in range(4)])
    data.x[1, 2], data.x[3, 0] = 1234.5, 6789.25
    path = str(tmp_path / ("bad.pbnf" if binary else "bad.csv"))
    (write_archive_binary if binary else write_archive_text)(path, data)
    with open(path, "rb") as fh:
        raw = fh.read()
    for marker, value in ((1234.5, math.nan), (6789.25, math.inf)):
        if binary:
            raw = raw.replace(struct.pack("<d", marker), struct.pack("<d", value))
        else:
            raw = raw.replace(f"{marker!r}".encode(), f"{value!r}".encode())
    with open(path, "wb") as fh:
        fh.write(raw)
    return path
