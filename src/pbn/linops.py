"""Linear maps with explicit parameter gradients, plus an SPD Gram factor.

Every map holds a tall weight matrix W of shape n_in x n_out (a map
never expands dimension) and exposes the pair

    forward(x) = W' x      (n_in -> n_out)
    adjoint(h) = W  h      (n_out -> n_in)

together with the two gradient collectors training needs: the gradient
of s' forward(x) with respect to the raw parameters, and the projection
of an arbitrary dense d/dW onto the parameters.  Maps are immutable;
``with_params`` builds a sibling that shares the wiring indices, so a
training loop can swap parameters without re-deriving the sparsity
pattern of a convolution.
"""

import functools

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve

from .errors import DomainError, ShapeMismatchError, SingularityError


def _readonly(a):
    out = np.array(a, dtype=np.float64)
    out.flags.writeable = False
    return out


class LinearMap:
    """Interface shared by DenseMap and ConvMap."""

    n_in = 0
    n_out = 0

    @property
    def params(self):
        return self._params

    @property
    def fan_in(self):
        """Number of inputs feeding one output unit; sets the init scale."""
        raise NotImplementedError

    def materialize(self):
        """Dense n_out x n_in matrix A = W' with forward(x) = A @ x, bit for bit."""
        raise NotImplementedError

    @functools.cached_property
    def gram(self):
        """The unit-weight GramFactor of S = W'W, built on first use and kept.

        Like ``materialize()`` it depends on the parameters alone, and a
        map's parameters never change (``with_params`` builds a new map
        with empty caches), so a kept factor can never go stale.
        """
        return GramFactor(self)

    def with_params(self, params):
        raise NotImplementedError

    def param_grad(self, x, s):
        """d(s' W' x)/dparams for vectors x (n_in) and s (n_out)."""
        raise NotImplementedError

    def collect_matrix_grad(self, g):
        """Fold a dense gradient d/dW of shape (n_in, n_out) onto the parameters."""
        raise NotImplementedError

    def forward(self, x):
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.n_in,):
            raise ShapeMismatchError(f"forward expects shape ({self.n_in},), got {x.shape}")
        return self.materialize() @ x

    def adjoint(self, h):
        h = np.asarray(h, dtype=np.float64)
        if h.shape != (self.n_out,):
            raise ShapeMismatchError(f"adjoint expects shape ({self.n_out},), got {h.shape}")
        return self.materialize().T @ h

    def __repr__(self):
        return f"<{type(self).__name__} {self.n_in}->{self.n_out}>"


class DenseMap(LinearMap):
    """Fully connected map; the parameters are the weight matrix itself."""

    def __init__(self, weights):
        w = np.asarray(weights, dtype=np.float64)
        if w.ndim != 2:
            raise ShapeMismatchError("dense weights must be 2-d (n_in, n_out)")
        if w.shape[1] > w.shape[0]:
            raise ShapeMismatchError(f"map must not expand dimension: {w.shape[0]} -> {w.shape[1]}")
        self._params = _readonly(w)
        self.n_in, self.n_out = w.shape

    @property
    def fan_in(self):
        return self.n_in

    @functools.cached_property
    def _dense(self):
        return _readonly(self._params.T)

    def materialize(self):
        return self._dense

    def with_params(self, params):
        p = np.asarray(params, dtype=np.float64)
        if p.shape != self._params.shape:
            raise ShapeMismatchError(f"params shape {p.shape} != {self._params.shape}")
        return DenseMap(p)

    def param_grad(self, x, s):
        return np.outer(np.asarray(x, dtype=np.float64), np.asarray(s, dtype=np.float64))

    def collect_matrix_grad(self, g):
        g = np.asarray(g, dtype=np.float64)
        if g.shape != (self.n_in, self.n_out):
            raise ShapeMismatchError(f"matrix grad shape {g.shape} != {(self.n_in, self.n_out)}")
        return g.copy()


class ConvMap(LinearMap):
    """2-d strided cross-correlation with centered kernels and zero padding.

    Output grid point (ty, tx) sits over input pixel (ty*sy, tx*sx); the
    kernel is centered there with offset (k - 1)//2 along each axis, and
    taps falling outside the image are dropped (zero padding).  The
    output spatial extent is floor(h/sy) by floor(w/sx).

    The wiring is stored as three parallel index arrays (output unit,
    input unit, parameter) covering every surviving tap, which makes the
    materialized matrix, the parameter gradient, and the dense-gradient
    projection all single gather/scatter passes.
    """

    def __init__(self, weights, in_shape, strides, *, _wiring=None):
        k = np.asarray(weights, dtype=np.float64)
        if k.ndim != 4:
            raise ShapeMismatchError("conv weights must be 4-d (c_out, c_in, kh, kw)")
        c_out, c_in, kh, kw = k.shape
        if len(in_shape) != 3:
            raise ShapeMismatchError("conv input shape must be (c_in, h, w)")
        ci, h, w = (int(v) for v in in_shape)
        if ci != c_in:
            raise ShapeMismatchError(f"kernel expects {c_in} input channels, image has {ci}")
        sy, sx = (int(v) for v in strides)
        if sy < 1 or sx < 1:
            raise ShapeMismatchError("strides must be positive")
        h_out, w_out = h // sy, w // sx
        if h_out < 1 or w_out < 1:
            raise ShapeMismatchError(f"strides {strides} collapse image {h}x{w} to nothing")
        self.in_shape = (c_in, h, w)
        self.out_shape = (c_out, h_out, w_out)
        self.strides = (sy, sx)
        self.n_in = c_in * h * w
        self.n_out = c_out * h_out * w_out
        if self.n_out > self.n_in:
            raise ShapeMismatchError(f"map must not expand dimension: {self.n_in} -> {self.n_out}")
        self._params = _readonly(k)
        if _wiring is None:
            _wiring = self._build_wiring()
        self._out_idx, self._in_idx, self._par_idx = _wiring

    def _build_wiring(self):
        c_out, c_in, kh, kw = self._params.shape
        _, h, w = self.in_shape
        sy, sx = self.strides
        _, h_out, w_out = self.out_shape
        co, ty, tx, ci, dy, dx = (
            a.ravel() for a in np.indices((c_out, h_out, w_out, c_in, kh, kw))
        )
        iy = ty * sy + dy - (kh - 1) // 2
        ix = tx * sx + dx - (kw - 1) // 2
        ok = (iy >= 0) & (iy < h) & (ix >= 0) & (ix < w)
        out_idx = np.ravel_multi_index((co[ok], ty[ok], tx[ok]), self.out_shape)
        in_idx = np.ravel_multi_index((ci[ok], iy[ok], ix[ok]), self.in_shape)
        par_idx = np.ravel_multi_index((co[ok], ci[ok], dy[ok], dx[ok]), self._params.shape)
        return out_idx, in_idx, par_idx

    @property
    def fan_in(self):
        _, c_in, kh, kw = self._params.shape
        return c_in * kh * kw

    @functools.cached_property
    def _dense(self):
        a = np.zeros((self.n_out, self.n_in))
        np.add.at(a, (self._out_idx, self._in_idx), self._params.ravel()[self._par_idx])
        return _readonly(a)

    def materialize(self):
        return self._dense

    def with_params(self, params):
        p = np.asarray(params, dtype=np.float64)
        if p.shape != self._params.shape:
            raise ShapeMismatchError(f"params shape {p.shape} != {self._params.shape}")
        return ConvMap(
            p,
            self.in_shape,
            self.strides,
            _wiring=(self._out_idx, self._in_idx, self._par_idx),
        )

    def param_grad(self, x, s):
        x = np.asarray(x, dtype=np.float64)
        s = np.asarray(s, dtype=np.float64)
        vals = s[self._out_idx] * x[self._in_idx]
        flat = np.bincount(self._par_idx, weights=vals, minlength=self._params.size)
        return flat.reshape(self._params.shape)

    def collect_matrix_grad(self, g):
        g = np.asarray(g, dtype=np.float64)
        if g.shape != (self.n_in, self.n_out):
            raise ShapeMismatchError(f"matrix grad shape {g.shape} != {(self.n_in, self.n_out)}")
        vals = g[self._in_idx, self._out_idx]
        flat = np.bincount(self._par_idx, weights=vals, minlength=self._params.size)
        return flat.reshape(self._params.shape)


class GramFactor:
    """Cholesky factor of S = W' diag(w) W for one of the maps above.

    S is the weighted Gram matrix that appears both as the curvature of
    the saddle point objective (w = k'' at the saddle) and, with unit
    weights, as the plain Gram W'W used to seed the solver.  Weights
    must be strictly positive and finite.  A failed factorization, or a
    pivot collapsing to zero relative to the trace, raises
    SingularityError carrying the provided label.

    The unit-weight factor of a map is kept on the map (``LinearMap.gram``)
    and so lives exactly as long as the map's parameters; a factor also
    keeps W S^-1 once a caller has asked for it (``w_s_inv``).
    """

    def __init__(self, map_, weights=None, label="gram"):
        self._a = a = map_.materialize()
        if weights is None:
            weights = np.ones(map_.n_in)
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != (map_.n_in,):
            raise ShapeMismatchError(f"{label}: weights shape {w.shape} != ({map_.n_in},)")
        if not np.all(np.isfinite(w)) or np.any(w <= 0.0):
            raise DomainError(f"{label}: gram weights must be positive and finite")
        s = (a * w) @ a.T
        m = map_.n_out
        try:
            c, lower = cho_factor(s, lower=True)
        except (LinAlgError, ValueError) as exc:
            raise SingularityError(f"{label}: gram matrix is not positive definite") from exc
        piv = np.diagonal(c)
        if np.any(piv * piv < 1e-12 * np.trace(s) / m):
            raise SingularityError(f"{label}: gram matrix is numerically singular")
        self.matrix = _readonly(s)
        self._factor = (c, lower)
        self.logdet = float(2.0 * np.sum(np.log(piv)))

    def solve(self, b):
        """Solve S u = b for a vector or a stack of columns."""
        return cho_solve(self._factor, np.asarray(b, dtype=np.float64))

    @functools.cached_property
    def w_s_inv(self):
        """W S^-1 (n_in x n_out, read-only), computed on first use and kept."""
        p = self.solve(self._a).T
        p.flags.writeable = False
        return p
