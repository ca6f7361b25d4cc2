"""Linear maps with explicit parameter gradients, plus SPD Gram factors.

Every map holds a tall weight matrix W of shape n_in x n_out (a map
never expands dimension) and exposes the pair

    forward(x) = W' x      (n_in -> n_out)
    adjoint(h) = W  h      (n_out -> n_in)

on one vector or on each row of a (B, n) stack, together with the two
gradient collectors training needs: the gradient of s' forward(x) with
respect to the raw parameters (summed over the rows of a stack), and
the projection of an arbitrary dense d/dW onto the parameters.  A map
keeps its dense matrix and unit Gram factor once built.  A sibling from
``with_params`` shares the wiring indices and keeps its parameters for
life; one from ``with_shared_params`` reads a vector that the training
loop updates in place, and ``refresh`` then writes the new parameters
into the kept dense matrix and drops the kept Gram factor.
``GramFactor`` factors one weighted Gram matrix, formed as one
symmetric product (syrk), in the buffer that product wrote, and keeps
its explicit inverse once asked, so W S^-1 is one matrix product;
``GramStack`` factors one per row of a weight stack, solves with all of
them in one batched call, and forms W S^-1 only when asked.
"""

import functools

import numpy as np
from numpy.linalg import LinAlgError
from scipy.linalg import cho_solve
from scipy.linalg.lapack import dpotrf, dpotri

from .errors import DomainError, ShapeMismatchError, SingularityError


def _rows(v, n, what):
    v = np.asarray(v, dtype=np.float64)
    if v.ndim not in (1, 2) or v.shape[-1] != n:
        raise ShapeMismatchError(f"{what} expects shape ({n},) or (B, {n}), got {v.shape}")
    return v


def _readonly(a):
    out = np.array(a, dtype=np.float64)
    out.flags.writeable = False
    return out


def _mirror_lower(a):
    """Copy the lower triangle of the square array ``a`` onto its upper triangle, in place.

    Each block of 64 columns copies its panel below the diagonal block
    as one transposed slice; only the diagonal blocks take temporaries.
    """
    for j in range(0, len(a), 64):
        e = j + 64
        d = a[j:e, j:e]
        d[...] = np.tril(d) + np.tril(d, -1).T
        a[j:e, e:] = a[e:, j:e].T


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
        """Dense n_out x n_in matrix A = W' with forward(x) = A @ x, bit for bit.

        It is built on first use and kept (read-only); ``refresh`` writes
        new parameters into it.
        """
        return self._dense

    def _fill(self, a):
        """Write the parameters into the dense matrix ``a``."""
        raise NotImplementedError

    @functools.cached_property
    def gram(self):
        """The unit-weight GramFactor of S = W'W, built on first use and kept.

        Like ``materialize()`` it depends on the parameters alone.  A map
        built by ``with_params`` keeps its parameters for life; a map
        built by ``with_shared_params`` drops the factor in ``refresh``
        after every update, so a kept factor can never go stale.
        """
        return GramFactor(self)

    def with_params(self, params):
        raise NotImplementedError

    def with_shared_params(self, params):
        """A sibling map whose parameters are the read-only view ``params`` itself, not a copy.

        Its owner writes new values through the view's writeable base and
        then calls ``refresh`` before the map is used again.
        """
        if params.flags.writeable:
            raise ValueError("shared parameters must be a read-only view")
        twin = self.with_params(params)
        twin._params = params
        return twin

    def refresh(self):
        """Bring the kept caches up to date after the parameters changed in place.

        The kept dense matrix takes the new parameters where it stands
        (a convolution's zero pattern never changes), and the kept Gram
        factor is dropped, to be built again on first use.
        """
        vars(self).pop("gram", None)
        a = vars(self).get("_dense")
        if a is not None:
            a.flags.writeable = True
            self._fill(a)
            a.flags.writeable = False

    def param_grad(self, x, s):
        """d(s' W' x)/dparams for vectors x (n_in) and s (n_out).

        For (B, n_in) and (B, n_out) stacks the result is the sum over
        the rows: one product X'S, folded once.
        """
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        s = np.atleast_2d(np.asarray(s, dtype=np.float64))
        return self.collect_matrix_grad(x.T @ s)

    def collect_matrix_grad(self, g):
        """Fold a dense gradient d/dW of shape (n_in, n_out) onto the parameters."""
        raise NotImplementedError

    def forward(self, x):
        """W'x for one vector or for each row of a (B, n_in) stack."""
        return _rows(x, self.n_in, "forward") @ self.materialize().T

    def adjoint(self, h):
        """W h for one vector or for each row of a (B, n_out) stack."""
        return _rows(h, self.n_out, "adjoint") @ self.materialize()

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

    def _fill(self, a):
        np.copyto(a, self._params.T)

    def with_params(self, params):
        p = np.asarray(params, dtype=np.float64)
        if p.shape != self._params.shape:
            raise ShapeMismatchError(f"params shape {p.shape} != {self._params.shape}")
        return DenseMap(p)

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

    The wiring is stored as three parallel index arrays over every
    surviving tap: its entry in the flattened n_out x n_in matrix, its
    entry in a flattened n_in x n_out dense gradient, and its parameter.
    That makes the materialized matrix and the dense-gradient projection
    single gather/scatter passes.  Each (output, input) pair is hit by
    exactly one tap (two taps of one output differ in their input pixel
    or channel), so the matrix is one assignment, with no accumulation.
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
        self._wiring = self._build_wiring() if _wiring is None else _wiring

    def _build_wiring(self):
        c_out, c_in, kh, kw = self._params.shape
        _, h, w = self.in_shape
        sy, sx = self.strides
        _, h_out, w_out = self.out_shape
        # one open index per axis of (c_out, h_out, w_out, c_in, kh, kw); the
        # flat indices broadcast over them and one mask keeps in-image taps
        shape = (c_out, h_out, w_out, c_in, kh, kw)
        co, ty, tx, ci, dy, dx = np.ix_(*(np.arange(n) for n in shape))
        iy = ty * sy + dy - (kh - 1) // 2
        ix = tx * sx + dx - (kw - 1) // 2
        ok = np.broadcast_to((iy >= 0) & (iy < h) & (ix >= 0) & (ix < w), shape)
        out_idx = np.broadcast_to((co * h_out + ty) * w_out + tx, shape)[ok]
        in_idx = np.broadcast_to((ci * h + iy) * w + ix, shape)[ok]
        par_idx = np.broadcast_to(((co * c_in + ci) * kh + dy) * kw + dx, shape)[ok]
        return out_idx * self.n_in + in_idx, in_idx * self.n_out + out_idx, par_idx

    @property
    def fan_in(self):
        _, c_in, kh, kw = self._params.shape
        return c_in * kh * kw

    @functools.cached_property
    def _dense(self):
        a = np.zeros((self.n_out, self.n_in))
        self._fill(a)
        a.flags.writeable = False
        return a

    def _fill(self, a):
        dense_idx, _, par_idx = self._wiring
        a.ravel()[dense_idx] = self._params.ravel()[par_idx]

    def with_params(self, params):
        p = np.asarray(params, dtype=np.float64)
        if p.shape != self._params.shape:
            raise ShapeMismatchError(f"params shape {p.shape} != {self._params.shape}")
        return ConvMap(p, self.in_shape, self.strides, _wiring=self._wiring)

    def collect_matrix_grad(self, g):
        g = np.asarray(g, dtype=np.float64)
        if g.shape != (self.n_in, self.n_out):
            raise ShapeMismatchError(f"matrix grad shape {g.shape} != {(self.n_in, self.n_out)}")
        _, grad_idx, par_idx = self._wiring
        vals = np.ravel(g)[grad_idx]
        flat = np.bincount(par_idx, weights=vals, minlength=self._params.size)
        return flat.reshape(self._params.shape)


class GramFactor:
    """Cholesky factor of S = W' diag(w) W for one of the maps above.

    S is the weighted Gram matrix that appears both as the curvature of
    the saddle point objective (w = k'' at the saddle) and, with unit
    weights, as the plain Gram W'W used to seed the solver.  It is
    formed as the symmetric product B B' with B = W' diag(w)^(1/2)
    (W' itself for unit weights), which BLAS runs as syrk, and LAPACK
    potrf factors it in the buffer that product wrote: S is exactly
    symmetric, so its transpose is the Fortran-ordered matrix potrf
    takes.  Weights must be strictly positive and finite.  A failed
    factorization, a non-finite S, or a pivot collapsing to zero
    relative to the trace, raises SingularityError carrying the
    provided label.  Every entry of a Gram matrix is bounded by its
    diagonal, so a finite trace means a finite S.

    The unit-weight factor of a map is kept on the map (``LinearMap.gram``)
    and so lives exactly as long as the map's parameters.  A factor
    keeps S^-1 (``inv``, from the Cholesky factor by LAPACK potri) and
    W S^-1 (``w_s_inv``, one matrix product with it) once a caller has
    asked for them; ``solve`` stays a pair of triangular solves.
    """

    def __init__(self, map_, weights=None, label="gram"):
        self._a = a = map_.materialize()
        self._scale = None
        if weights is not None:
            w = np.asarray(weights, dtype=np.float64)
            if w.shape != (map_.n_in,):
                raise ShapeMismatchError(f"{label}: weights shape {w.shape} != ({map_.n_in},)")
            if not np.all(np.isfinite(w)) or np.any(w <= 0.0):
                raise DomainError(f"{label}: gram weights must be positive and finite")
            self._scale = np.sqrt(w)
            a = a * self._scale
        s = a @ a.T
        trace = np.trace(s)
        c, info = dpotrf(s.T, lower=1, clean=0, overwrite_a=1)
        if info != 0 or not np.isfinite(trace):
            raise SingularityError(f"{label}: gram matrix is not positive definite")
        piv = np.diagonal(c)
        if np.any(piv * piv < 1e-12 * trace / map_.n_out):
            raise SingularityError(f"{label}: gram matrix is numerically singular")
        self._factor = (c, True)
        self.logdet = float(2.0 * np.sum(np.log(piv)))

    @property
    def matrix(self):
        """S itself, formed again by the same product: the factor took over its first buffer."""
        b = self._a if self._scale is None else self._a * self._scale
        return b @ b.T

    def solve(self, b):
        """Solve S u = b for a vector or a stack of columns."""
        # the factor is finite by construction, and so is every right-hand side
        return cho_solve(self._factor, np.asarray(b, dtype=np.float64), check_finite=False)

    def solve_rows(self, r):
        """Solve S u = r for one vector or for each row of a (B, n_out) stack."""
        return self.solve(np.asarray(r, dtype=np.float64).T).T

    @functools.cached_property
    def inv(self):
        """S^-1 (n_out x n_out, symmetric, read-only), computed on first use and kept.

        potri writes the lower triangle into a copy of the factor, which
        the solves still read, and the triangle is mirrored in place.
        """
        inv, info = dpotri(self._factor[0], lower=1)
        if info != 0:
            raise SingularityError(f"gram inverse failed: LAPACK potri info {info}")
        _mirror_lower(inv)
        inv.flags.writeable = False
        return inv

    @functools.cached_property
    def w_s_inv(self):
        """W S^-1 (n_in x n_out, read-only), computed on first use and kept."""
        p = self._a.T @ self.inv
        p.flags.writeable = False
        return p


class GramStack:
    """Factors of S_b = W' diag(w_b) W, one for each row w_b of a (B, n_in) stack.

    The counterpart of GramFactor for curvature weights that differ from
    row to row.  It keeps each S_b (``matrix``) and its lower Cholesky
    factor (``chol``): ``solve_rows`` is one batched LU solve with the
    S_b, ``logdet`` comes from the factor, and W S_b^-1 (``w_s_inv``)
    is built from the factor on first use only, which only the
    likelihood gradient does.  ``GramStack.factor`` runs
    the B Cholesky factorizations as one ``np.linalg.cholesky`` call.  A
    row whose weights are not positive and finite, or whose matrix fails
    the GramFactor tests, gets its reason in ``failures`` (None for a
    good row) and NaN in ``logdet``, ``w_s_inv`` and its solves; no
    other row sees it.
    """

    def __init__(self, a, matrix, chol, logdet, failures):
        """Take over the arrays of a stack."""
        bad = np.array([f is not None for f in failures], dtype=bool)
        # a failed row solves with the identity and reports NaN
        matrix[bad] = chol[bad] = np.eye(matrix.shape[-1])
        logdet[bad] = np.nan
        self._a = a
        self._bad = bad
        self.matrix = matrix
        self.chol = chol
        self.logdet = logdet
        self.failures = failures

    @classmethod
    def factor(cls, map_, weights):
        a = map_.materialize()
        w = np.asarray(weights, dtype=np.float64)
        if w.ndim != 2 or w.shape[1] != map_.n_in:
            raise ShapeMismatchError(f"weight stack shape {w.shape} != (B, {map_.n_in})")
        m = map_.n_out
        good = np.all(np.isfinite(w) & (w > 0.0), axis=1)
        failures = [None if g else "gram weights must be positive and finite" for g in good]
        s = (a * np.where(good[:, None], w, 1.0)[:, None, :]) @ a.T
        try:
            c = np.linalg.cholesky(s)
        except LinAlgError:
            c = np.empty_like(s)
            for b in range(len(s)):
                try:
                    c[b] = np.linalg.cholesky(s[b])
                except LinAlgError:
                    failures[b] = failures[b] or "gram matrix is not positive definite"
                    c[b] = np.eye(m)
        piv = np.diagonal(c, axis1=1, axis2=2)
        singular = np.any(piv * piv < 1e-12 * np.trace(s, axis1=1, axis2=2)[:, None] / m, axis=1)
        for b in np.flatnonzero(singular):
            failures[b] = failures[b] or "gram matrix is numerically singular"
        with np.errstate(divide="ignore", invalid="ignore"):
            logdet = 2.0 * np.sum(np.log(piv), axis=1)
        return cls(a, s, c, logdet, failures)

    def take(self, idx):
        """The factors of the rows ``idx``, an index array."""
        failures = [self.failures[i] for i in idx]
        return GramStack(self._a, self.matrix[idx], self.chol[idx], self.logdet[idx], failures)

    def solve_rows(self, r):
        """Solve S_b u_b = r_b for each row r_b of r."""
        u = np.linalg.solve(self.matrix, np.asarray(r, dtype=np.float64)[..., None])[..., 0]
        u[self._bad] = np.nan
        return u

    @functools.cached_property
    def w_s_inv(self):
        """W S_b^-1 for each row, shape (B, n_in, n_out), from the Cholesky factor on first use."""
        c_inv = np.linalg.inv(self.chol)
        inv = np.swapaxes(c_inv, -1, -2) @ c_inv
        inv[self._bad] = np.nan
        return self._a.T @ inv
