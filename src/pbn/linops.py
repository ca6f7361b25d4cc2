"""Linear maps with explicit parameter gradients, plus SPD Gram factors.

Every map holds a tall weight matrix W of shape n_in x n_out (a map
never expands dimension) and exposes the pair

    forward(x) = W' x      (n_in -> n_out)
    adjoint(h) = W  h      (n_out -> n_in)

on one vector or on each row of a (B, n) stack, together with the two
gradient collectors training needs: ``fold``, the projection of X'S
onto the parameters for row stacks X and S, and the projection of an
arbitrary dense d/dW.  A dense map keeps W' as one matrix.  A
convolution keeps only its output-row blocks: the outputs of one output
row read one contiguous span of inputs, so W' with its rows grouped by
output row (block order) is one dense block per output row over that
span.  Its products, its unit Gram factor and its log-det gradient run
block by block, and ``materialize`` builds the dense output-order W' on
demand, as a reference.  A map keeps its stored matrix, unit Gram
factor and log-det gradient once built.  A sibling from ``with_params``
shares the wiring and block layout and keeps its parameters for life;
one from ``with_shared_params`` reads a vector that the training loop
updates in place, and ``refresh`` then writes the new parameters into
the stored matrix and drops the other caches.  ``GramFactor`` factors
one weighted Gram matrix in the buffer that formed it (one syrk
product, or for a convolution's unit factor the products of the block
pairs whose spans meet, in block order); ``GramStack`` factors one per
row of a weight stack, solves with all of them in one batched call, and
forms W S^-1 only when asked.
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
        """Dense n_out x n_in matrix A = W' in output order; forward(x) is A @ x up to rounding."""
        raise NotImplementedError

    def _fill(self, a):
        """Write the parameters into the stored matrix ``a``."""
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

    @functools.cached_property
    def logdet_grad(self):
        """d(log det W'W)/dparams / 2, the fold of W S^-1, kept and dropped with ``gram``.

        The map keeps it, not the factor, so that a factor holds no
        reference back to its map.
        """
        g = self._logdet_fold(self.gram)
        g.flags.writeable = False
        return g

    def _logdet_fold(self, gram):
        """The fold of W S^-1 for the unit factor ``gram`` of this map."""
        return self.fold(self.materialize(), gram.inv)

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

        The stored matrix takes the new parameters where it stands (a
        convolution's block layout never changes), and the kept Gram
        factor and log-det gradient are dropped, to be built on first use.
        """
        vars(self).pop("gram", None)
        vars(self).pop("logdet_grad", None)
        a = vars(self).get("_stored")
        if a is not None:
            a.flags.writeable = True
            self._fill(a)
            a.flags.writeable = False

    def fold(self, left, right):
        """``collect_matrix_grad(left' right)`` for (K, n_in) and (K, n_out) row stacks.

        The fold of x and s stacks is d(sum of s' W' x)/dparams.  It
        multiplies only the blocks of left' right that hold parameters.
        """
        raise NotImplementedError

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

    def materialize(self):
        """W' itself, built on first use and kept (read-only); ``refresh`` writes into it."""
        return self._stored

    @functools.cached_property
    def _stored(self):
        return _readonly(self._params.T)

    def _fill(self, a):
        np.copyto(a, self._params.T)

    def with_params(self, params):
        p = np.asarray(params, dtype=np.float64)
        if p.shape != self._params.shape:
            raise ShapeMismatchError(f"params shape {p.shape} != {self._params.shape}")
        return DenseMap(p)

    def fold(self, left, right):
        return left.T @ right

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

    The map stores W' as its output-row blocks.  The outputs of output
    row ty (by channel, then tx: block order) read one contiguous span
    lo..hi of inputs, so block ty is a dense (c_out * w_out, hi - lo)
    array, and the blocks lie end to end in one buffer.  The layout
    comes from the geometry alone and is built on first use into the
    wiring's last slot, which every sibling shares.
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

    def _taps(self):
        """Open indices over (c_out, h_out, w_out, c_in, kh, kw), tap inputs, in-image mask."""
        c_out, c_in, kh, kw = self._params.shape
        _, h, w = self.in_shape
        sy, sx = self.strides
        _, h_out, w_out = self.out_shape
        shape = (c_out, h_out, w_out, c_in, kh, kw)
        grid = np.ix_(*(np.arange(n) for n in shape))
        _, ty, tx, ci, dy, dx = grid
        iy = ty * sy + dy - (kh - 1) // 2
        ix = tx * sx + dx - (kw - 1) // 2
        inside = (iy >= 0) & (iy < h) & (ix >= 0) & (ix < w)
        return shape, grid, (ci * h + iy) * w + ix, inside

    def _build_wiring(self):
        # the flat indices broadcast over the open ones; the mask keeps in-image taps
        shape, (co, ty, tx, ci, dy, dx), in_grid, inside = self._taps()
        c_out, h_out, w_out, c_in, kh, kw = shape
        ok = np.broadcast_to(inside, shape)
        out_idx = np.broadcast_to((co * h_out + ty) * w_out + tx, shape)[ok]
        in_idx = np.broadcast_to(in_grid, shape)[ok]
        par_idx = np.broadcast_to(((co * c_in + ci) * kh + dy) * kw + dx, shape)[ok]
        # the last slot takes the block layout on first use, for every sibling
        return out_idx * self.n_in + in_idx, in_idx * self.n_out + out_idx, par_idx, []

    def _block_layout(self):
        """The output-row blocks of W', from the geometry alone.

        Returns (spans, pos, size, order, back, pairs).  ``spans`` holds,
        per output row, (lo, hi, at, rows): the inputs lo..hi its taps
        read, its block's offset in the buffer and its rows in block
        order.  ``pos`` is each tap's entry in the buffer, ``size`` the
        buffer's; ``order`` is the output index of each row in block
        order and ``back`` its inverse.  ``pairs`` holds (t, u, ct, cu)
        for each ordered pair of blocks whose spans meet, the inputs they
        share being the columns ct of block t and cu of block u, by t
        and with the pair (t, t) first.
        """
        shape, (co, ty, tx, *_), in_grid, inside = self._taps()
        c_out, h_out, w_out = shape[:3]
        axes = (0, 2, 3, 4, 5)
        lo = np.min(np.where(inside, in_grid, self.n_in), axis=axes, keepdims=True)
        hi = np.max(np.where(inside, in_grid, -1), axis=axes, keepdims=True) + 1
        sizes = c_out * w_out * (hi - lo)
        ends = np.cumsum(sizes).reshape(lo.shape)
        at = ends - sizes
        pos = np.broadcast_to(at + (co * w_out + tx) * (hi - lo) + in_grid - lo, shape)
        outs = ((co * h_out + ty) * w_out + tx).reshape(c_out, h_out, w_out)
        order = outs.transpose(1, 0, 2).ravel()
        m = c_out * w_out
        spans = [
            (int(l), int(h), int(a), slice(t * m, (t + 1) * m))
            for t, (l, h, a) in enumerate(zip(lo.flat, hi.flat, at.flat))
        ]
        pairs = []
        for t, (lo_t, hi_t, *_) in enumerate(spans):
            for u, (lo_u, hi_u, *_) in sorted(enumerate(spans), key=lambda us: us[0] != t):
                a, b = max(lo_t, lo_u), min(hi_t, hi_u)
                if a < b:
                    pairs.append((t, u, slice(a - lo_t, b - lo_t), slice(a - lo_u, b - lo_u)))
        pos = pos[np.broadcast_to(inside, shape)]
        return spans, pos, int(ends.flat[-1]), order, np.argsort(order), pairs

    @property
    def _layout(self):
        slot = self._wiring[3]
        if not slot:
            slot.append(self._block_layout())
        return slot[0]

    @property
    def fan_in(self):
        _, c_in, kh, kw = self._params.shape
        return c_in * kh * kw

    def materialize(self):
        """W' in output order, built anew from the wiring on every call."""
        dense_idx, _, par_idx, _ = self._wiring
        a = np.zeros((self.n_out, self.n_in))
        a.ravel()[dense_idx] = self._params.ravel()[par_idx]
        return a

    @functools.cached_property
    def _stored(self):
        a = np.zeros(self._layout[2])
        self._fill(a)
        a.flags.writeable = False
        return a

    def _fill(self, a):
        _, _, par_idx, _ = self._wiring
        a[self._layout[1]] = self._params.ravel()[par_idx]

    @functools.cached_property
    def _blocks(self):
        """Each output row's block, a view of the stored buffer."""
        return self._views(self._stored)

    def _views(self, buf):
        """Block views of a buffer laid out like the stored one."""
        return [
            buf[at : at + (hi - lo) * (rows.stop - rows.start)].reshape(-1, hi - lo)
            for lo, hi, at, rows in self._layout[0]
        ]

    def with_params(self, params):
        p = np.asarray(params, dtype=np.float64)
        if p.shape != self._params.shape:
            raise ShapeMismatchError(f"params shape {p.shape} != {self._params.shape}")
        return ConvMap(p, self.in_shape, self.strides, _wiring=self._wiring)

    def forward(self, x):
        x = _rows(x, self.n_in, "forward")
        spans, _, _, _, back, _ = self._layout
        out = np.empty(x.shape[:-1] + (self.n_out,))
        for (lo, hi, _, rows), block in zip(spans, self._blocks):
            np.matmul(x[..., lo:hi], block.T, out=out[..., rows])
        return out[..., back]

    def adjoint(self, h):
        spans, _, _, order, _, _ = self._layout
        h = _rows(h, self.n_out, "adjoint")[..., order]
        out = np.zeros(h.shape[:-1] + (self.n_in,))
        for (lo, hi, _, rows), block in zip(spans, self._blocks):
            out[..., lo:hi] += h[..., rows] @ block
        return out

    def _gram(self):
        """W'W in block order, formed from the block pairs whose spans meet.

        Only the blocks on and above the diagonal are formed: they are the
        lower triangle of the transpose, which is all that potrf reads.
        """
        spans, _, _, _, _, pairs = self._layout
        blocks = self._blocks
        s = np.zeros((self.n_out, self.n_out))
        for t, u, ct, cu in pairs:
            if t <= u:
                np.matmul(blocks[t][:, ct], blocks[u][:, cu].T, out=s[spans[t][3], spans[u][3]])
        return s

    def _logdet_fold(self, gram):
        """The fold of W S^-1, from S^-1 in the block order of the unit factor ``gram``.

        Block t of W S^-1 sums S^-1 against only the blocks whose spans
        meet block t's, each over the inputs the two spans share; the
        pair (t, t) covers all of block t and writes it first.
        """
        spans, pos, size, _, _, pairs = self._layout
        inv = gram._inverse()
        blocks = self._blocks
        out = np.empty(size)
        views = self._views(out)
        for t, u, ct, cu in pairs:
            part = inv[spans[t][3], spans[u][3]]
            if t == u:
                np.matmul(part, blocks[u], out=views[t])
            else:
                views[t][:, ct] += part @ blocks[u][:, cu]
        return self._collect(out[pos])

    def fold(self, left, right):
        spans, pos, size, order, _, _ = self._layout
        out = np.empty(size)
        for (lo, hi, _, rows), block in zip(spans, self._views(out)):
            np.matmul(right[:, order[rows]].T, left[:, lo:hi], out=block)
        return self._collect(out[pos])

    def collect_matrix_grad(self, g):
        g = np.asarray(g, dtype=np.float64)
        if g.shape != (self.n_in, self.n_out):
            raise ShapeMismatchError(f"matrix grad shape {g.shape} != {(self.n_in, self.n_out)}")
        return self._collect(np.ravel(g)[self._wiring[1]])

    def _collect(self, vals):
        """Sum one value per tap onto the tap's parameter."""
        flat = np.bincount(self._wiring[2], weights=vals, minlength=self._params.size)
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
    takes.  A convolution's unit factor is formed and factored in block
    order instead, from the products of the block pairs whose spans
    meet; ``solve`` permutes in and out of that order, and the log
    determinant does not depend on it.  Weights must be strictly
    positive and finite.  A failed factorization, a non-finite S, or a
    pivot collapsing to zero relative to the trace, raises
    SingularityError carrying the provided label.  Every entry of a
    Gram matrix is bounded by its diagonal, so a finite trace means a
    finite S.

    The unit-weight factor of a map is kept on the map (``LinearMap.gram``)
    and so lives exactly as long as the map's parameters.  A factor
    keeps S^-1 in output order (``inv``, from the Cholesky factor by
    LAPACK potri) once a caller has asked for it; the map folds S^-1
    with W onto its parameters (``LinearMap.logdet_grad``), so no dense
    W S^-1 is formed.  ``solve`` stays a pair of triangular solves.
    """

    def __init__(self, map_, weights=None, label="gram"):
        self._a = self._scale = self._order = self._back = None
        if weights is None and isinstance(map_, ConvMap):
            s = map_._gram()
            _, _, _, self._order, self._back, _ = map_._layout
        else:
            self._a = a = map_.materialize()
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
    def chol(self):
        """C with C C' = S in output order: the lower Cholesky factor, rows in output order."""
        c = np.tril(self._factor[0])
        return c if self._back is None else c[self._back]

    @property
    def matrix(self):
        """S in output order, formed again: the factor took over its first buffer."""
        if self._a is None:
            c = self.chol
            return c @ c.T
        b = self._a if self._scale is None else self._a * self._scale
        return b @ b.T

    def solve(self, b):
        """Solve S u = b for a vector or a stack of columns."""
        # the factor is finite by construction, and so is every right-hand side
        b = np.asarray(b, dtype=np.float64)
        if self._order is None:
            return cho_solve(self._factor, b, check_finite=False)
        return cho_solve(self._factor, b[self._order], check_finite=False)[self._back]

    def solve_rows(self, r):
        """Solve S u = r for one vector or for each row of a (B, n_out) stack."""
        return self.solve(np.asarray(r, dtype=np.float64).T).T

    def _inverse(self):
        """S^-1 in the factor's order: potri writes the lower triangle into a
        copy of the factor, which the solves still read, and it is mirrored in place."""
        inv, info = dpotri(self._factor[0], lower=1)
        if info != 0:
            raise SingularityError(f"gram inverse failed: LAPACK potri info {info}")
        _mirror_lower(inv)
        return inv

    @functools.cached_property
    def inv(self):
        """S^-1 in output order (symmetric, read-only), computed on first use and kept."""
        inv = self._inverse()
        if self._back is not None:
            inv = inv[np.ix_(self._back, self._back)]
        inv.flags.writeable = False
        return inv


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
