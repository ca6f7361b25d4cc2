"""Linear maps with explicit parameter gradients, plus SPD Gram factors.

Every map holds a tall weight matrix W of shape n_in x n_out (a map
never expands dimension) and exposes the pair

    forward(x) = W' x      (n_in -> n_out)
    adjoint(h) = W  h      (n_out -> n_in)

on one vector or on each row of a (B, n) stack, together with the two
gradient collectors training needs: ``fold``, the projection of X'S
onto the parameters for row stacks X and S, and the projection of an
arbitrary dense d/dW.  A dense map keeps W' as one matrix.  Every
output row of a convolution applies the same matrix, clipped at the
image's top and bottom edge, so a convolution keeps W' as one row-window
matrix K, with one output row's outputs as its rows and the inputs
under the kernel's rows as its columns; each output row's block is a
column slice of K over one contiguous span of inputs.  Its products,
its unit Gram factor and its gradients run block by block, and
``materialize`` builds the dense output-order W' on demand, as a
reference.  A map's parameters never change, so it keeps its stored
matrix, unit Gram factor and log-det gradient once built; a sibling
from ``with_params`` shares the convolution's geometry.  ``GramFactor``
factors a map's unit Gram matrix W'W, the curvature of a Gaussian-prior
layer, in the buffer that formed it (one syrk product, or for a
convolution one product per group of block pairs on the same columns of
K, in block order), and inverts it on and below the diagonal by a blocked
triangular inverse; ``GramStack`` factors the weighted W' diag(w) W of
each row of a weight stack, the curvature under any other prior, in one
batched call, solves with each factor, and forms W S^-1 only when asked.
"""

import functools

import numpy as np
from numpy.linalg import LinAlgError
from scipy.linalg.blas import dsymm, dtrmm
from scipy.linalg.lapack import dlauum, dpotrf, dpotrs, dtrtri

from .errors import ShapeMismatchError, SingularityError


def _rows(v, n, what):
    v = np.asarray(v, dtype=np.float64)
    if v.ndim not in (1, 2) or v.shape[-1] != n:
        raise ShapeMismatchError(f"{what} expects shape ({n},) or (B, {n}), got {v.shape}")
    return v


def _readonly(a):
    out = np.array(a, dtype=np.float64)
    out.flags.writeable = False
    return out


def _swap(v, a, b):
    """Each row of v, read as an (a, b, rest) array, rewritten in (b, a, rest) order.

    A convolution takes its inputs from (c_in, h, w) to (h, c_in, w) order
    and its outputs from (c_out, h_out, w_out) to block order
    (h_out, c_out, w_out) with it, and back with a and b exchanged.
    """
    lead, n = v.shape[:-1], v.shape[-1]
    return np.swapaxes(v.reshape(lead + (a, b, n // (a * b))), -3, -2).reshape(lead + (n,))


def _invert_lower(c, lo, hi):
    """Invert the lower triangle of c[lo:hi, lo:hi] in place, leaving the entries above it.

    A 2x2 block recursion: with both diagonal blocks A and D inverted,
    the block C below A becomes -D^-1 C A^-1 by two trmm calls, near
    GEMM speed; blocks of at most 64 rows go to LAPACK trtri.
    """
    if hi - lo <= 64:
        c[lo:hi, lo:hi], info = dtrtri(c[lo:hi, lo:hi], lower=1)
        if info != 0:
            raise SingularityError(f"gram inverse failed: LAPACK trtri info {info}")
        return
    m = (lo + hi) // 2
    _invert_lower(c, lo, m)
    _invert_lower(c, m, hi)
    b = dtrmm(1.0, c[lo:m, lo:m], c[m:hi, lo:m], side=1, lower=1)
    c[m:hi, lo:m] = dtrmm(-1.0, c[m:hi, m:hi], b, lower=1, overwrite_b=1)


class LinearMap:
    """Interface shared by DenseMap and ConvMap.

    A map has ``n_in`` and ``n_out``, its parameters (``params``, read
    only) and ``fan_in``, the number of inputs feeding one output unit,
    which sets the init scale.  Each map provides:

    * ``materialize()``, the dense n_out x n_in matrix A = W' in output
      order, with ``forward(x)`` equal to A @ x up to rounding;
    * ``_stored``, the kept matrix that the products read;
    * ``with_params(params)``, a sibling map with new parameters;
    * ``fold(left, right)``, equal to ``collect_matrix_grad(left' right)``
      for (K, n_in) and (K, n_out) row stacks: the fold of x and s
      stacks is d(sum of s' W' x)/dparams, and only the blocks of
      left' right that hold parameters are multiplied;
    * ``collect_matrix_grad(g)``, a dense gradient d/dW of shape
      (n_in, n_out) folded onto the parameters.
    """

    @property
    def params(self):
        return self._params

    @functools.cached_property
    def gram(self):
        """The unit-weight GramFactor of S = W'W, built on first use and kept.

        Like ``materialize()`` it depends on the parameters alone, which
        a map keeps for life.
        """
        return GramFactor(self)

    @functools.cached_property
    def logdet_grad(self):
        """d(log det W'W)/dparams / 2, the fold of W S^-1, kept like ``gram``.

        The map keeps it, not the factor, so that a factor holds no
        reference back to its map; the fold reads S^-1's lower triangle.
        """
        g = self._logdet_fold(self.gram)
        g.flags.writeable = False
        return g

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
        """W' itself, built on first use and kept (read-only)."""
        return self._stored

    @functools.cached_property
    def _stored(self):
        return _readonly(self._params.T)

    def with_params(self, params):
        p = np.asarray(params, dtype=np.float64)
        if p.shape != self._params.shape:
            raise ShapeMismatchError(f"params shape {p.shape} != {self._params.shape}")
        return DenseMap(p)

    def fold(self, left, right):
        return left.T @ right

    def _logdet_fold(self, gram):
        """W S^-1 itself, as (S^-1 W')' by symm from the lower triangle of S^-1."""
        return dsymm(1.0, gram._inverse(), self._params.T, lower=1).T

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

    Every output row applies the same matrix, clipped at the image's top
    and bottom edge, so the map stores W' as one row-window matrix K
    (``_stored``): its rows are the outputs (c_out, tx) of one output
    row, its columns the inputs (dy, c_in, ix) under the kernel's rows
    across the whole image width, and the kernel is written into it by
    one strided (Toeplitz) copy.  Output row ty's block is the
    column slice of K over its in-image kernel rows, a view, and it reads
    one contiguous span of the input taken in (iy, c_in, ix) order.  The
    products run block by block, with the outputs in block order
    (ty, c_out, tx); every gradient adds into one K-shaped array, which
    reaches the kernel by one strided sum over tx.  The geometry comes
    from the shapes alone, and ``with_params`` siblings share it.
    """

    def __init__(self, weights, in_shape, strides, *, _geometry=None):
        k = np.asarray(weights, dtype=np.float64)
        if k.ndim != 4:
            raise ShapeMismatchError("conv weights must be 4-d (c_out, c_in, kh, kw)")
        if min(k.shape) < 1:
            raise ShapeMismatchError(f"conv kernel dimensions must be positive, got {k.shape}")
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
        self._geometry = self._plan() if _geometry is None else _geometry

    def _plan(self):
        """The geometry, (shape, blocks, diagonal, lower), from the shapes alone.

        ``shape`` is K's.  ``blocks`` holds, per output row t, its rows in
        block order, the span of the (iy, c_in, ix) input that it reads
        and its columns of K.  Output rows t and u whose spans meet
        multiply the columns ct and cu of K on the input rows they share,
        and the pairs are grouped by (ct, cu).  The rows' tops increase
        strictly with t, so no group mixes t = u, t > u and t < u, and
        each t < u group mirrors a t > u one.  ``diagonal`` holds (ct, ts)
        and ``lower`` (ct, cu, ts, us), ts > us, with index arrays ts, us.
        """
        c_out, c_in, kh, _ = self._params.shape
        _, h, w = self.in_shape
        _, h_out, w_out = self.out_shape
        m, row = c_out * w_out, c_in * w
        tops = [t * self.strides[0] - (kh - 1) // 2 for t in range(h_out)]
        rows = [(max(top, 0), min(top + kh, h)) for top in tops]

        def cols(t, a, b):
            return (a - tops[t]) * row, (b - tops[t]) * row

        blocks = [
            (slice(t * m, t * m + m), slice(a * row, b * row), slice(*cols(t, a, b)))
            for t, (a, b) in enumerate(rows)
        ]
        pairs = {}  # keyed by the bounds of (ct, cu): slices are not hashable before Python 3.12
        for t, u in ((t, u) for t in range(h_out) for u in range(t + 1)):
            a, b = max(rows[t][0], rows[u][0]), min(rows[t][1], rows[u][1])
            if a < b:
                pairs.setdefault((cols(t, a, b), cols(u, a, b)), []).append((t, u))
        groups = [(slice(*ct), slice(*cu), *np.array(tu).T) for (ct, cu), tu in pairs.items()]
        diagonal = [(ct, ts) for ct, cu, ts, _ in groups if ct == cu]
        lower = [group for group in groups if group[0] != group[1]]
        return (m, kh * row), blocks, diagonal, lower

    @property
    def fan_in(self):
        _, c_in, kh, kw = self._params.shape
        return c_in * kh * kw

    def materialize(self):
        """W' in output order, built anew from K on every call."""
        a = np.zeros((self.n_out, self.n_in))
        for (rows, span, _), block in zip(self._geometry[1], self._blocks):
            a[rows, span] = block
        a = _swap(a, *self.in_shape[1::-1])
        return _swap(a.T, *self.out_shape[1::-1]).T

    @functools.cached_property
    def _stored(self):
        """K, read-only: row (co, tx) holds kernel row (co, dy, ci) shifted by tx*sx."""
        c_out, c_in, kh, kw = self._params.shape
        w, w_out, sx = self.in_shape[2], self.out_shape[2], self.strides[1]
        # each kernel row, zero-padded so that every shifted window of w entries lies inside it;
        # row tx of K reads the w entries from at - tx*sx on
        px = (kw - 1) // 2
        at = max(px, (w_out - 1) * sx)
        pad = np.zeros((c_out, kh, c_in, at + max(w, kw)))
        pad[..., at - px : at - px + kw] = self._params.transpose(0, 2, 1, 3)
        s = pad.strides
        rows = np.lib.stride_tricks.as_strided(
            pad[..., at:], (c_out, w_out, kh, c_in, w), (s[0], -sx * s[3], s[1], s[2], s[3])
        )
        a = np.empty(self._geometry[0])
        np.copyto(a.reshape(rows.shape), rows)
        a.flags.writeable = False
        return a

    def _to_kernel(self, g):
        """The kernel gradient of a K-shaped gradient: the adjoint of ``_stored``, a sum over tx."""
        c_out, c_in, kh, kw = self._params.shape
        w, w_out, sx = self.in_shape[2], self.out_shape[2], self.strides[1]
        left = (kw - 1) // 2
        pad = np.zeros((c_out, w_out, kh, c_in, max(left + w, (w_out - 1) * sx + kw)))
        pad[..., left : left + w] = g.reshape(pad.shape[:-1] + (w,))
        s = pad.strides
        taps = np.lib.stride_tricks.as_strided(
            pad, (c_out, w_out, c_in, kh, kw), (s[0], s[1] + sx * s[4], s[3], s[2], s[4])
        )
        return taps.sum(axis=1)

    @functools.cached_property
    def _blocks(self):
        """Each output row's block, a column-slice view of K."""
        return [self._stored[:, cols] for _, _, cols in self._geometry[1]]

    def with_params(self, params):
        p = np.asarray(params, dtype=np.float64)
        if p.shape != self._params.shape:
            raise ShapeMismatchError(f"params shape {p.shape} != {self._params.shape}")
        return ConvMap(p, self.in_shape, self.strides, _geometry=self._geometry)

    def forward(self, x):
        x = _swap(_rows(x, self.n_in, "forward"), *self.in_shape[:2])
        out = np.empty(x.shape[:-1] + (self.n_out,))
        for (rows, span, _), block in zip(self._geometry[1], self._blocks):
            np.matmul(x[..., span], block.T, out=out[..., rows])
        return _swap(out, *self.out_shape[1::-1])

    def adjoint(self, h):
        h = _swap(_rows(h, self.n_out, "adjoint"), *self.out_shape[:2])
        out = np.zeros(h.shape[:-1] + (self.n_in,))
        for (rows, span, _), block in zip(self._geometry[1], self._blocks):
            out[..., span] += h[..., rows] @ block
        return _swap(out, *self.in_shape[1::-1])

    def _gram(self):
        """W'W in block order, one product per group of block pairs whose spans meet.

        Only the blocks on and above the diagonal, which potrf reads, are
        formed: a lower group's go to its mirrors (u, t) as K[:, cu] K[:, ct]'.
        """
        shape, blocks, diagonal, lower = self._geometry
        k = self._stored
        s = np.zeros((self.n_out, self.n_out))
        s4 = s.reshape(len(blocks), shape[0], len(blocks), shape[0])  # block (t, u) is s4[t, :, u]
        for c, ts in diagonal:
            s4[ts, :, ts, :] = k[:, c] @ k[:, c].T
        for ct, cu, ts, us in lower:
            s4[us, :, ts, :] = k[:, cu] @ k[:, ct].T
        return s

    def _logdet_fold(self, gram):
        """The fold of W S^-1, from the lower triangle of S^-1 in the block order of ``gram``.

        Block t of S^-1 W' sums S^-1 against the blocks whose spans meet
        block t's.  A group's pairs share their columns of K, so its
        blocks of S^-1, all on or below the diagonal, are summed into one
        A first: a lower group adds A K[:, cu] into g[:, ct] and A' K[:, ct]
        into g[:, cu]; symm reads a diagonal group's A from its lower triangle.
        """
        shape, blocks, diagonal, lower = self._geometry
        # block (t, u) of S^-1 is inv[:, t, :, u], a view of the Fortran-ordered inverse
        inv = np.reshape(gram._inverse(), (shape[0], len(blocks)) * 2, order="F")
        k = self._stored
        g = np.zeros(shape)
        for c, ts in diagonal:
            g[:, c] += dsymm(1.0, inv[:, ts, :, ts].sum(axis=0), k[:, c].T, side=1, lower=1).T
        for ct, cu, ts, us in lower:
            a = inv[:, ts, :, us].sum(axis=0)
            g[:, ct] += a @ k[:, cu]
            g[:, cu] += a.T @ k[:, ct]
        return self._to_kernel(g)

    def fold(self, left, right):
        shape, blocks = self._geometry[:2]
        left, right = _swap(left, *self.in_shape[:2]), _swap(right, *self.out_shape[:2])
        g = np.zeros(shape)
        for rows, span, cols in blocks:
            g[:, cols] += right[:, rows].T @ left[:, span]
        return self._to_kernel(g)

    def collect_matrix_grad(self, g):
        g = np.asarray(g, dtype=np.float64)
        if g.shape != (self.n_in, self.n_out):
            raise ShapeMismatchError(f"matrix grad shape {g.shape} != {(self.n_in, self.n_out)}")
        shape, blocks = self._geometry[:2]
        g = _swap(_swap(g, *self.out_shape[:2]).T, *self.in_shape[:2])
        out = np.zeros(shape)
        for rows, span, cols in blocks:
            out[:, cols] += g[rows, span]
        return self._to_kernel(out)


class GramFactor:
    """Cholesky factor of the unit Gram matrix S = W'W of one of the maps above.

    S is the curvature of the saddle point objective under the Gaussian
    prior, and it seeds the solver under every prior.  A dense map forms
    it as the symmetric product W'W, which BLAS runs as syrk, and LAPACK
    potrf factors it in the buffer that product wrote: S is exactly
    symmetric, so its transpose is the Fortran-ordered matrix potrf
    takes.  A convolution's factor is formed and factored in block
    order instead, one product per group of block pairs on the same
    columns of K; ``solve`` permutes in and out of that order, and the
    log determinant does not depend on it.  A failed factorization, a
    non-finite S, or a pivot collapsing to zero relative to the trace,
    raises SingularityError.  Every entry of a Gram matrix is bounded by
    its diagonal, so a finite trace means a finite S.

    A map keeps its factor (``LinearMap.gram``), which so lives exactly
    as long as the map's parameters.  The map folds the lower triangle
    of S^-1 (``_inverse``) with W onto its parameters
    (``LinearMap.logdet_grad``), so neither a dense W S^-1 nor a whole
    S^-1 is formed.  ``solve`` stays a pair of triangular solves.
    """

    def __init__(self, map_):
        self._dims = None
        if isinstance(map_, ConvMap):
            s = map_._gram()
            self._dims = map_.out_shape[:2]
        else:
            a = map_.materialize()
            s = a @ a.T
        trace = np.trace(s)
        c, info = dpotrf(s.T, lower=1, clean=0, overwrite_a=1)
        if info != 0 or not np.isfinite(trace):
            raise SingularityError("gram matrix is not positive definite")
        piv = np.diagonal(c)
        if np.any(piv * piv < 1e-12 * trace / map_.n_out):
            raise SingularityError("gram matrix is numerically singular")
        self._chol = c
        self.logdet = float(2.0 * np.sum(np.log(piv)))

    def solve(self, r):
        """Solve S u = r for one vector or for each row of a (B, n_out) stack."""
        r = np.asarray(r, dtype=np.float64)
        if self._dims is None:
            return dpotrs(self._chol, r.T, lower=1)[0].T
        c_out, h_out = self._dims
        u = dpotrs(self._chol, _swap(r, c_out, h_out).T, lower=1)[0].T
        # Fortran-ordered like the dense path's result, so that products with it round alike
        return np.asfortranarray(_swap(u, h_out, c_out))

    def _inverse(self):
        """S^-1 on and below the diagonal, in the factor's order; above it, not S^-1.

        The Cholesky factor L is inverted in a copy, which the solves
        still read, and LAPACK lauum forms L^-T L^-1 in place.
        """
        c = self._chol.copy(order="F")
        _invert_lower(c, 0, len(c))
        return dlauum(c, lower=1, overwrite_c=1)[0]


class GramStack:
    """Factors of S_b = W' diag(w_b) W, one for each row w_b of a (B, n_in) stack.

    The curvature of every prior but the Gaussian, whose weights differ
    from row to row.  It keeps only the lower Cholesky factor of each S_b
    (``chol``): ``solve`` runs LAPACK potrs with each factor, which costs
    half a batched LU solve with the S_b, ``logdet`` comes from the
    factor, and W S_b^-1 (``w_s_inv``) is built from it on first use
    only, which only the likelihood gradient does.  ``GramStack.factor``
    runs the B Cholesky factorizations as one ``np.linalg.cholesky``
    call.  A row whose weights are not positive and finite, or whose
    matrix fails the GramFactor tests, gets its reason in ``failures``
    (None for a good row), its index in ``failed_rows``, and NaN in
    ``logdet``, ``w_s_inv`` and its solves; no other row sees it.
    """

    def __init__(self, a, chol, logdet, failures):
        """Take over the arrays of a stack."""
        self._a = a
        self.chol = chol
        self.logdet = logdet
        self.failures = failures
        self.failed_rows = np.array([b for b, f in enumerate(failures) if f is not None], dtype=int)
        if self.failed_rows.size:
            # a failed row solves with the identity and reports NaN
            chol[self.failed_rows] = np.eye(chol.shape[-1])
            logdet[self.failed_rows] = np.nan

    @classmethod
    def factor(cls, map_, weights):
        a = map_.materialize()
        w = np.asarray(weights, dtype=np.float64)
        if w.ndim != 2 or w.shape[1] != map_.n_in:
            raise ShapeMismatchError(f"weight stack shape {w.shape} != (B, {map_.n_in})")
        m = map_.n_out
        good = ((w > 0.0) & (w < np.inf)).all(axis=1)
        failures = [None if g else "gram weights must be positive and finite" for g in good]
        s = (a * (w if good.all() else np.where(good[:, None], w, 1.0))[:, None, :]) @ a.T
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
        singular = (piv * piv < 1e-12 * np.trace(s, axis1=1, axis2=2)[:, None] / m).any(axis=1)
        for b in np.flatnonzero(singular):
            failures[b] = failures[b] or "gram matrix is numerically singular"
        with np.errstate(divide="ignore", invalid="ignore"):
            logdet = 2.0 * np.log(piv).sum(axis=1)
        return cls(a, c, logdet, failures)

    def take(self, idx):
        """The factors of the rows ``idx``, an index array."""
        failures = [self.failures[i] for i in idx]
        return GramStack(self._a, self.chol[idx], self.logdet[idx], failures)

    def solve(self, r):
        """Solve S_b u_b = r_b for each row r_b of r."""
        u = np.array(r, dtype=np.float64)
        for b, c in enumerate(self.chol):
            # c' is the upper factor in the Fortran order potrs reads, with no copy
            u[b] = dpotrs(c.T, u[b], lower=0, overwrite_b=1)[0]
        u[self.failed_rows] = np.nan
        return u

    @functools.cached_property
    def w_s_inv(self):
        """W S_b^-1 for each row, shape (B, n_in, n_out), from the Cholesky factor on first use."""
        c_inv = np.linalg.inv(self.chol)
        inv = np.swapaxes(c_inv, -1, -2) @ c_inv
        inv[self.failed_rows] = np.nan
        return self._a.T @ inv
