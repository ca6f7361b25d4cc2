"""Linear map wiring, parameter gradients, and the weighted Gram factor."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, reject, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.linalg import cho_factor, cho_solve
from scipy.linalg.lapack import dpotri, dpotrs

import oracle
from helpers import examples, full_inverse
from pbn import gradient, training
from pbn.errors import ShapeMismatchError, SingularityError
from pbn.linops import ConvMap, DenseMap, GramFactor, GramStack
from pbn.network import wordpair_network
from pbn.priors import GAUSSIAN
from pbn.reconstruct import reconstruct_from_layer
from pbn.saddlepoint import solve_saddle

WORDPAIR_CONVS = [
    dict(in_shape=(1, 45, 20), c_out=9, kernel=(21, 17), strides=(5, 4), out_shape=(9, 9, 5)),
    dict(in_shape=(9, 9, 5), c_out=24, kernel=(5, 3), strides=(3, 2), out_shape=(24, 3, 2)),
]


# conv geometries with even kernels, strides past the kernel, images
# smaller than it and a single output row
CONV_GEOMETRY = dict(
    c_in=st.integers(1, 3),
    c_out=st.integers(1, 3),
    kh=st.integers(1, 6),
    kw=st.integers(1, 6),
    sy=st.integers(1, 8),
    sx=st.integers(1, 8),
    extra_h=st.integers(0, 9),
    extra_w=st.integers(0, 9),
)


def sweep_conv(kernel, c_in, c_out, kh, kw, sy, sx, extra_h, extra_w):
    """The conv map of one CONV_GEOMETRY draw, its kernel from kernel(shape)."""
    h, w = sy + extra_h, sx + extra_w
    assume(c_out * (h // sy) * (w // sx) <= c_in * h * w)
    return ConvMap(kernel((c_out, c_in, kh, kw)), (c_in, h, w), (sy, sx))


def make_conv(rng, cfg):
    c_in = cfg["in_shape"][0]
    k = rng.standard_normal((cfg["c_out"], c_in) + cfg["kernel"])
    return ConvMap(k, cfg["in_shape"], cfg["strides"])


def assert_inverse_matches_triangular_solves(f, rtol):
    """S^-1 of a factor against the triangular solves on its own Cholesky factor.

    ``solve`` takes output order, as ``full_inverse`` does, whatever
    order the factor was formed in.
    """
    inv = full_inverse(f)
    want = f.solve(np.eye(len(inv)))
    assert np.max(np.abs(inv - want)) <= rtol * np.max(np.abs(want))


def brute_conv_matrix(k, in_shape, strides):
    """Reference wiring, written as the slowest possible loop."""
    c_out, c_in, kh, kw = k.shape
    _, h, w = in_shape
    sy, sx = strides
    h_out, w_out = h // sy, w // sx
    a = np.zeros((c_out * h_out * w_out, c_in * h * w))
    for co in range(c_out):
        for ty in range(h_out):
            for tx in range(w_out):
                row = (co * h_out + ty) * w_out + tx
                for c in range(c_in):
                    for dy in range(kh):
                        for dx in range(kw):
                            iy = ty * sy + dy - (kh - 1) // 2
                            ix = tx * sx + dx - (kw - 1) // 2
                            if 0 <= iy < h and 0 <= ix < w:
                                a[row, (c * h + iy) * w + ix] += k[co, c, dy, dx]
    return a


def assert_taps_match_the_oracle(m):
    """materialize() and collect_matrix_grad against the oracle's taps, exactly.

    The matrix is the parameters scattered onto the taps' entries, and
    the collected gradient sums each tap's entry of a dense gradient onto
    the tap's parameter.  The gradient's entries are small integers, so
    every order of that sum is exact.
    """
    dense_idx, grad_idx, par_idx = oracle.conv_wiring(m)
    want = np.zeros(m.n_out * m.n_in)
    want[dense_idx] = m.params.ravel()[par_idx]
    np.testing.assert_array_equal(m.materialize(), want.reshape(m.n_out, m.n_in))
    g = np.random.default_rng(m.n_in).integers(-8, 9, (m.n_in, m.n_out)).astype(float)
    sums = np.bincount(par_idx, weights=g.ravel()[grad_idx], minlength=m.params.size)
    np.testing.assert_array_equal(m.collect_matrix_grad(g), sums.reshape(m.params.shape))


class TestConvWiring:
    def test_tiny_strided_column(self):
        # One channel, 4x1 image, 3x1 kernel, stride 2.  Output row 0 is
        # centered on pixel 0 (taps at -1, 0, 1, the first dropped);
        # output row 1 is centered on pixel 2 (taps 1, 2, 3 all inside).
        k = np.array([1.0, 2.0, 3.0]).reshape(1, 1, 3, 1)
        m = ConvMap(k, (1, 4, 1), (2, 1))
        want = np.array([[2.0, 3.0, 0.0, 0.0], [0.0, 1.0, 2.0, 3.0]])
        np.testing.assert_array_equal(m.materialize(), want)

    def test_even_kernel_offset(self):
        # Width-2 kernel has centering offset (2-1)//2 = 0, so the taps
        # reach to the right of the output pixel.
        k = np.array([5.0, 7.0]).reshape(1, 1, 1, 2)
        m = ConvMap(k, (1, 1, 3), (1, 1))
        want = np.array([[5.0, 7.0, 0.0], [0.0, 5.0, 7.0], [0.0, 0.0, 5.0]])
        np.testing.assert_array_equal(m.materialize(), want)

    def test_brute_force_agreement(self):
        rng = np.random.default_rng(42)
        k = rng.standard_normal((3, 2, 3, 4))
        m = ConvMap(k, (2, 7, 6), (2, 3))
        np.testing.assert_array_equal(m.materialize(), brute_conv_matrix(k, (2, 7, 6), (2, 3)))

    @pytest.mark.parametrize("cfg", WORDPAIR_CONVS, ids=["conv1", "conv2"])
    def test_wordpair_geometry(self, cfg):
        m = make_conv(np.random.default_rng(0), cfg)
        assert m.out_shape == cfg["out_shape"]
        assert m.n_out == int(np.prod(cfg["out_shape"]))

    @pytest.mark.parametrize("cfg", WORDPAIR_CONVS, ids=["conv1", "conv2"])
    def test_each_tap_hits_its_own_matrix_entry(self, cfg):
        # No two taps may share an (output, input) pair, so the matrix is
        # one assignment per tap; the reference accumulates tap by tap.
        m = make_conv(np.random.default_rng(2), cfg)
        dense_idx = oracle.conv_wiring(m)[0]
        assert np.unique(dense_idx).size == dense_idx.size
        want = brute_conv_matrix(m.params, cfg["in_shape"], cfg["strides"])
        np.testing.assert_array_equal(m.materialize(), want)

    @pytest.mark.parametrize("cfg", WORDPAIR_CONVS, ids=["conv1", "conv2"])
    def test_wiring_equals_the_full_index_grid_oracle(self, cfg):
        assert_taps_match_the_oracle(make_conv(np.random.default_rng(3), cfg))

    @settings(max_examples=examples(60), deadline=None)
    @given(**CONV_GEOMETRY)
    def test_wiring_sweep_equals_the_oracle(self, **geometry):
        # distinct parameters, so a tap on the wrong entry shows
        def kernel(shape):
            return np.arange(1.0, 1 + np.prod(shape)).reshape(shape)

        assert_taps_match_the_oracle(sweep_conv(kernel, **geometry))

    def test_forward_is_materialized_product(self):
        # the block products sum in their own order
        rng = np.random.default_rng(1)
        m = make_conv(rng, WORDPAIR_CONVS[1])
        x = rng.standard_normal(m.n_in)
        assert_within(m.forward(x), m.materialize() @ x)


class TestAdjointIdentity:
    @pytest.mark.parametrize("cfg", WORDPAIR_CONVS, ids=["conv1", "conv2"])
    def test_conv_pairing(self, cfg):
        rng = np.random.default_rng(7)
        m = make_conv(rng, cfg)
        for _ in range(25):
            x = rng.standard_normal(m.n_in)
            h = rng.standard_normal(m.n_out)
            lhs = np.dot(m.forward(x), h)
            rhs = np.dot(x, m.adjoint(h))
            assert abs(lhs - rhs) <= 1e-10 * np.linalg.norm(x) * np.linalg.norm(h)

    @given(st.integers(1, 25), st.integers(1, 25), st.integers(0, 2**32 - 1))
    @settings(max_examples=examples(60), deadline=None)
    def test_dense_pairing(self, a, b, seed):
        n_in, n_out = max(a, b), min(a, b)
        rng = np.random.default_rng(seed)
        m = DenseMap(rng.standard_normal((n_in, n_out)))
        x = rng.standard_normal(n_in)
        h = rng.standard_normal(n_out)
        lhs = np.dot(m.forward(x), h)
        rhs = np.dot(x, m.adjoint(h))
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, np.linalg.norm(x) * np.linalg.norm(h))


class TestParameterGradients:
    """Both collectors are linear in the parameters, so directional
    checks hold to rounding, not just to finite-difference accuracy."""

    def maps(self):
        rng = np.random.default_rng(3)
        return rng, [
            DenseMap(rng.standard_normal((6, 4))),
            ConvMap(rng.standard_normal((3, 2, 3, 3)), (2, 5, 4), (2, 2)),
        ]

    def test_fold_directional(self):
        rng, maps = self.maps()
        for m in maps:
            x = rng.standard_normal((3, m.n_in))
            s = rng.standard_normal((3, m.n_out))
            d = rng.standard_normal(m.params.shape)
            g = m.fold(x, s)
            assert g.shape == m.params.shape
            # the fold of the rows is d/dparams of sum over rows of s' W' x
            moved = m.with_params(m.params + d)
            delta = np.sum(s * moved.forward(x)) - np.sum(s * m.forward(x))
            assert_allclose(delta, np.sum(g * d), rtol=1e-9, atol=1e-9)

    def test_collect_matrix_grad_directional(self):
        rng, maps = self.maps()
        for m in maps:
            g_mat = rng.standard_normal((m.n_in, m.n_out))
            d = rng.standard_normal(m.params.shape)
            g = m.collect_matrix_grad(g_mat)
            # sum(G * W(D)) is linear in D with gradient collect(G)
            w_of_d = type(m).materialize(m.with_params(d)).T
            assert_allclose(np.sum(g_mat * w_of_d), np.sum(g * d), rtol=1e-9, atol=1e-9)

    def test_grad_routes_agree(self):
        # fold(x, s) must equal collect_matrix_grad(x' s).
        rng, maps = self.maps()
        for m in maps:
            x = rng.standard_normal((2, m.n_in))
            s = rng.standard_normal((2, m.n_out))
            assert_allclose(m.fold(x, s), m.collect_matrix_grad(x.T @ s), atol=1e-12)


FOLD_RTOL = 1e-13


def assert_within(got, want, rtol=FOLD_RTOL):
    """got against want to rtol of want's largest entry."""
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= rtol * np.max(np.abs(want))


def assert_fold_is_the_collected_product(m, left, right):
    """fold(L, R) against collect(L'R) to FOLD_RTOL of the largest entry.

    The fold sums each entry of L'R over the same rows as the dense
    product, in a block product of its own; only the order of that sum
    may differ.
    """
    assert_within(m.fold(left, right), m.collect_matrix_grad(left.T @ right))


class TestFold:
    """A conv map's block products against the materialized W', their oracle.

    The fold multiplies only the blocks of L'R that hold taps; forward,
    adjoint, the unit W'W and the log-det fold multiply the stored
    output-row blocks.  Each sums in its own order, so each is held to
    FOLD_RTOL of its largest entry.  A solve, and the log-det fold
    through S^-1, can differ from the dense one by rounding times the
    condition of S, so they are held to 16 eps cond(S) where that is
    larger, as the kept inverse is.
    """

    @settings(max_examples=examples(80), deadline=None)
    @given(**CONV_GEOMETRY, rows=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
    def test_conv_sweep(self, rows, seed, **geometry):
        # the sweep's geometries, and stacks with more rows than the map has outputs
        rng = np.random.default_rng(seed)
        m = sweep_conv(rng.standard_normal, **geometry)
        left = rng.standard_normal((rows, m.n_in))
        right = rng.standard_normal((rows, m.n_out))
        assert_fold_is_the_collected_product(m, left, right)

        a = m.materialize()
        assert_within(m.forward(left), left @ a.T)
        assert_within(m.forward(left[0]), a @ left[0])
        assert_within(m.adjoint(right), right @ a)
        assert_within(m.adjoint(right[0]), right[0] @ a)
        gram = a @ a.T
        # the block W'W is formed on and above its diagonal, in block order:
        # by output row, then channel and column
        order = np.arange(m.n_out).reshape(m.out_shape).transpose(1, 0, 2).ravel()
        assert_within(np.triu(m._gram()), np.triu(gram[np.ix_(order, order)]))
        assert_groups_cover_the_pairs(m)
        np.testing.assert_array_equal(m._gram(), per_pair_gram(m))
        try:
            factor = GramFactor(m)
        except SingularityError:
            reject()
        rtol = max(FOLD_RTOL, 16 * np.finfo(float).eps * np.linalg.cond(gram))
        assert_within(factor.solve(right), np.linalg.solve(gram, right.T).T, rtol)
        want = m.collect_matrix_grad(a.T @ np.linalg.inv(gram))
        assert_within(m.logdet_grad, want, rtol)

    @pytest.mark.parametrize("cfg", WORDPAIR_CONVS, ids=["conv1", "conv2"])
    @pytest.mark.parametrize("rows", [1, 16, "n_out"])
    def test_wordpair_convs(self, cfg, rows):
        # n_out rows: the log-det fold of W S^-1, with W' as the left stack
        rng = np.random.default_rng(4)
        m = make_conv(rng, cfg)
        k = m.n_out if rows == "n_out" else rows
        left = m.materialize() if rows == "n_out" else rng.standard_normal((k, m.n_in))
        assert_fold_is_the_collected_product(m, left, rng.standard_normal((k, m.n_out)))

    @settings(max_examples=examples(40), deadline=None)
    @given(st.integers(1, 25), st.integers(1, 25), st.integers(1, 12), st.integers(0, 2**32 - 1))
    def test_dense_maps(self, a, b, rows, seed):
        rng = np.random.default_rng(seed)
        m = DenseMap(rng.standard_normal((max(a, b), min(a, b))))
        left = rng.standard_normal((rows, m.n_in))
        assert_fold_is_the_collected_product(m, left, rng.standard_normal((rows, m.n_out)))

    def test_sibling_matches_the_oracle_taps(self):
        # a sibling reads its own parameters through the geometry it shares
        m = make_conv(np.random.default_rng(5), WORDPAIR_CONVS[0])
        m.forward(np.ones(m.n_in))
        twin = m.with_params(2.0 * m.params)
        assert_taps_match_the_oracle(twin)
        assert_taps_match_the_oracle(m)

    def test_hot_paths_never_materialize_a_conv_map(self, monkeypatch):
        # every product, factor and fold of a conv map runs on its blocks
        def refuse(map_):
            raise AssertionError(f"{map_} was materialized")

        monkeypatch.setattr(ConvMap, "materialize", refuse)
        net = wordpair_network(np.random.default_rng(16))
        rng = np.random.default_rng(17)
        x = rng.standard_normal((4, 900))
        labels = np.array([0, 1, 0, 1])
        trace = net.interior_trace(x)
        assert trace.defined.all()
        assert np.all(np.isfinite(net.class_scores(x)))
        grads_w, _, _ = gradient(net, x, label=labels, trace=trace)
        assert all(np.all(np.isfinite(g)) for g in grads_w)
        grads_w, _, _ = training._pretrain_batch(net, x, labels, rng, 0.0)
        assert all(np.all(np.isfinite(g)) for g in grads_w)
        rows, errors = reconstruct_from_layer(net, 4, trace.zs[3])
        assert errors == [None] * 4 and np.all(np.isfinite(rows))


def enumerated_pairs(m):
    """{(t, u): (ct, cu)} for each ordered pair of output rows whose spans meet, from their tops.

    ct and cu are the (start, stop) columns of K under the input rows
    that t and u share.
    """
    _, c_in, kh, _ = m.params.shape
    _, h, w = m.in_shape
    tops = [t * m.strides[0] - (kh - 1) // 2 for t in range(m.out_shape[1])]
    row = c_in * w
    pairs = {}
    for t, top_t in enumerate(tops):
        for u, top_u in enumerate(tops):
            a, b = max(top_t, top_u, 0), min(top_t + kh, top_u + kh, h)
            if a < b:
                pairs[t, u] = tuple(((a - top) * row, (b - top) * row) for top in (top_t, top_u))
    return pairs


def assert_groups_cover_the_pairs(m):
    """Each ordered pair lies in exactly one group: a diagonal one, a lower one or its mirror."""
    _, _, diagonal, lower = m._geometry

    def bounds(c):
        return c.start, c.stop

    got = []
    for c, ts in diagonal:
        got += [((t, t), (bounds(c),) * 2) for t in ts]
    for ct, cu, ts, us in lower:
        assert np.all(ts > us)
        got += [((t, u), (bounds(ct), bounds(cu))) for t, u in zip(ts, us)]
        got += [((u, t), (bounds(cu), bounds(ct))) for t, u in zip(ts, us)]
    assert len({tu for tu, _ in got}) == len(got)
    assert dict(got) == enumerated_pairs(m)


def per_pair_gram(m):
    """The blocks of W'W on and above the diagonal, one product per pair of output rows."""
    k, n = m._stored, m._stored.shape[0]
    s = np.zeros((m.n_out, m.n_out))
    for (t, u), (ct, cu) in enumerated_pairs(m).items():
        if t <= u:
            s[t * n : t * n + n, u * n : u * n + n] = k[:, slice(*ct)] @ k[:, slice(*cu)].T
    return s


class TestBlockPairGroups:
    """A conv map forms each distinct block product of W'W, and of its log-det fold, once."""

    @pytest.mark.parametrize(
        "cfg, pairs, groups, products",
        # ordered pairs and those on and above the diagonal; diagonal and lower
        # groups; Gram products (one per group) and fold GEMMs (two per lower group)
        [
            (WORDPAIR_CONVS[0], (61, 35), (5, 6), (11, 17)),
            (WORDPAIR_CONVS[1], (7, 5), (2, 1), (3, 4)),
        ],
        ids=["conv1", "conv2"],
    )
    def test_wordpair_groups(self, cfg, pairs, groups, products):
        m = make_conv(np.random.default_rng(27), cfg)
        each = enumerated_pairs(m)
        assert (len(each), sum(t <= u for t, u in each)) == pairs
        _, _, diagonal, lower = m._geometry
        assert (len(diagonal), len(lower)) == groups
        assert (len(diagonal) + len(lower), len(diagonal) + 2 * len(lower)) == products
        assert_groups_cover_the_pairs(m)
        np.testing.assert_array_equal(m._gram(), per_pair_gram(m))


class TestRowWindow:
    """A conv map keeps W' as one row-window matrix K, and each output row's block is a view of it."""

    @pytest.mark.parametrize("cfg", WORDPAIR_CONVS, ids=["conv1", "conv2"])
    def test_each_block_is_a_view_of_k(self, cfg):
        m = make_conv(np.random.default_rng(21), cfg)
        c_out, h_out, w_out = m.out_shape
        kh, w = cfg["kernel"][0], cfg["in_shape"][2]
        assert m._stored.shape == (c_out * w_out, kh * cfg["in_shape"][0] * w)
        assert len(m._blocks) == h_out
        for block in m._blocks:
            assert np.shares_memory(block, m._stored)
        # each block holds its output row's nonzero columns of W'
        a = m.materialize().reshape(c_out, h_out, w_out, -1)
        for t, block in enumerate(m._blocks):
            assert np.count_nonzero(block) == np.count_nonzero(a[:, t])

    def test_siblings_share_the_geometry_not_k(self):
        m = make_conv(np.random.default_rng(23), WORDPAIR_CONVS[0])
        twin = m.with_params(2.0 * m.params)
        assert twin._geometry is m._geometry
        assert not np.shares_memory(twin._stored, m._stored)
        np.testing.assert_array_equal(twin._stored, 2.0 * m._stored)

    def test_empty_stacks(self):
        # a batch whose rows all dropped out folds to zero
        m = make_conv(np.random.default_rng(26), WORDPAIR_CONVS[1])
        assert m.forward(np.zeros((0, m.n_in))).shape == (0, m.n_out)
        assert m.adjoint(np.zeros((0, m.n_out))).shape == (0, m.n_in)
        np.testing.assert_array_equal(
            m.fold(np.zeros((0, m.n_in)), np.zeros((0, m.n_out))), np.zeros(m.params.shape)
        )

    def test_fold_allocates_nothing_as_large_as_the_taps(self):
        # the 900->405 map has 100,701 taps; no per-tap array is built
        m = make_conv(np.random.default_rng(24), WORDPAIR_CONVS[0])
        rng = np.random.default_rng(25)
        params = rng.standard_normal(m.params.shape)
        left, right = rng.standard_normal((8, m.n_in)), rng.standard_normal((8, m.n_out))
        assert oracle.conv_wiring(m)[0].size == 100_701
        tracemalloc.start()
        try:
            m.with_params(params).fold(left, right)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100_701 * 8


class TestImmutability:
    def test_params_are_readonly(self):
        m = DenseMap(np.eye(3))
        with pytest.raises(ValueError):
            m.params[0, 0] = 5.0
        c = ConvMap(np.ones((1, 1, 1, 1)), (1, 2, 2), (1, 1))
        with pytest.raises(ValueError):
            c.params[0, 0, 0, 0] = 5.0

    def test_with_params_leaves_original(self):
        rng = np.random.default_rng(5)
        m = ConvMap(rng.standard_normal((2, 1, 3, 3)), (1, 6, 6), (2, 2))
        before = m.materialize().copy()
        m2 = m.with_params(m.params * 2.0)
        np.testing.assert_array_equal(m.materialize(), before)
        assert_allclose(m2.materialize(), 2.0 * before)


class TestShapeValidation:
    def test_expansion_rejected(self):
        with pytest.raises(ShapeMismatchError):
            DenseMap(np.zeros((3, 5)))
        with pytest.raises(ShapeMismatchError):
            ConvMap(np.zeros((9, 1, 1, 1)), (1, 2, 2), (1, 1))

    def test_vector_length_checked(self):
        m = DenseMap(np.zeros((4, 2)))
        with pytest.raises(ShapeMismatchError):
            m.forward(np.zeros(3))
        with pytest.raises(ShapeMismatchError):
            m.adjoint(np.zeros(4))

    @pytest.mark.parametrize("shape", [(1, 1, 0, 3), (1, 1, 3, 0), (0, 1, 3, 3), (1, 0, 3, 3)])
    def test_empty_kernel_rejected(self, shape):
        with pytest.raises(ShapeMismatchError, match="^conv kernel dimensions must be positive"):
            ConvMap(np.zeros(shape), (shape[1], 8, 8), (1, 1))

    def test_conv_channel_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            ConvMap(np.zeros((2, 3, 3, 3)), (2, 8, 8), (2, 2))

    def test_bad_strides(self):
        with pytest.raises(ShapeMismatchError):
            ConvMap(np.zeros((1, 1, 3, 3)), (1, 8, 8), (0, 1))
        with pytest.raises(ShapeMismatchError):
            ConvMap(np.zeros((1, 1, 3, 3)), (1, 8, 8), (9, 9))


class TestGramFactor:
    def test_solve_and_logdet_against_numpy(self):
        # a weighted curvature is a row of a GramStack
        rng = np.random.default_rng(11)
        m = DenseMap(rng.standard_normal((9, 4)))
        w = rng.uniform(0.5, 2.0, (1, 9))
        f = GramStack.factor(m, w)
        assert f.failures == [None]
        s = (m.materialize() * w[0]) @ m.materialize().T
        b = rng.standard_normal((1, 4))
        assert_allclose(f.solve(b)[0], np.linalg.solve(s, b[0]), rtol=1e-10)
        sign, logdet = np.linalg.slogdet(s)
        assert sign == 1.0
        assert_allclose(f.logdet[0], logdet, rtol=1e-10)

    def test_matrix_rhs(self):
        rng = np.random.default_rng(12)
        m = DenseMap(rng.standard_normal((7, 3)))
        f = GramFactor(m)
        a = m.materialize()
        b = rng.standard_normal((5, 3))  # five right-hand sides, one per row
        assert_allclose(f.solve(b) @ (a @ a.T), b, atol=1e-10)

    @pytest.mark.parametrize("cfg", WORDPAIR_CONVS, ids=["conv1", "conv2"])
    def test_conv_solve_permutes_the_block_order_solve(self, cfg):
        # bit for bit, and in the Fortran layout of a dense map's solve, so
        # that products with it round as they do for a dense map
        m = make_conv(np.random.default_rng(17), cfg)
        f = m.gram
        order = np.arange(m.n_out).reshape(m.out_shape).transpose(1, 0, 2).ravel()
        r = np.random.default_rng(18).standard_normal((3, m.n_out))
        want = np.empty_like(r)
        want[:, order] = dpotrs(f._chol, r[:, order].T, lower=1)[0].T
        got = f.solve(r)
        np.testing.assert_array_equal(got, want)
        assert got.flags.f_contiguous
        np.testing.assert_array_equal(f.solve(r[1]), want[1])

    def test_default_weights_give_plain_gram(self):
        rng = np.random.default_rng(13)
        m = DenseMap(rng.standard_normal((6, 2)))
        f = GramFactor(m)
        a = m.materialize()
        c = np.tril(f._chol)
        assert_allclose(c @ c.T, a @ a.T, atol=1e-14)

    @pytest.mark.parametrize("layer", [0, 1])
    def test_kept_inverse_on_wordpair_convs(self, layer):
        net = wordpair_network(np.random.default_rng(16))
        assert_inverse_matches_triangular_solves(GramFactor(net.layers[layer].map), 1e-12)

    def test_kept_inverse_on_weighted_dense_map(self):
        # a weighted curvature is a row of a GramStack: W S^-1 from its
        # Cholesky factor against LU solves with its S
        rng = np.random.default_rng(17)
        m = DenseMap(rng.standard_normal((60, 24)))
        w = rng.uniform(0.1, 10.0, (1, 60))
        f = GramStack.factor(m, w)
        a = m.materialize()
        want = a.T @ np.linalg.solve((a * w) @ a.T, np.eye(24))
        assert np.max(np.abs(f.w_s_inv[0] - want)) <= 1e-12 * np.max(np.abs(want))

    def test_kept_inverse_tolerance_scales_with_condition(self):
        # singular values of W spread over 1e3, so cond(S) = 1e6
        rng = np.random.default_rng(18)
        q_in, _ = np.linalg.qr(rng.standard_normal((60, 24)))
        q_out, _ = np.linalg.qr(rng.standard_normal((24, 24)))
        m = DenseMap((q_in * np.logspace(0.0, 3.0, 24)) @ q_out.T)
        f = GramFactor(m)
        a = m.materialize()
        cond = np.linalg.cond(a @ a.T)
        assert 0.5e6 < cond < 2e6
        assert_inverse_matches_triangular_solves(f, 16 * np.finfo(float).eps * cond)

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 129, 405])
    def test_blocked_inverse_matches_potri(self, n):
        # 64 rows is the largest leaf of the block recursion, so these sizes
        # cover a leaf, one split and deeper recursions; cond(S) = 1e6 from n = 2
        rng = np.random.default_rng(n)
        q_in, _ = np.linalg.qr(rng.standard_normal((n + 8, n)))
        q_out, _ = np.linalg.qr(rng.standard_normal((n, n)))
        m = DenseMap((q_in * np.logspace(0.0, 3.0, n)) @ q_out.T)
        a = m.materialize()
        lower, info = dpotri(cho_factor(a @ a.T, lower=True)[0], lower=True)
        assert info == 0
        want = np.tril(lower)
        want += np.tril(want, -1).T
        bound = 16 * np.finfo(float).eps * np.linalg.cond(a @ a.T)
        assert np.max(np.abs(full_inverse(GramFactor(m)) - want)) <= bound * np.max(np.abs(want))

    @pytest.mark.parametrize("layer", [0, 1, 2])
    def test_logdet_fold_reads_only_the_lower_triangle(self, layer):
        # layers 1 and 2 are conv maps, layer 3 a dense one
        net = wordpair_network(np.random.default_rng(20))
        assert_fold_reads_only_the_lower_triangle(net.layers[layer].map)

    @settings(max_examples=examples(60), deadline=None)
    @given(**CONV_GEOMETRY, seed=st.integers(0, 2**32 - 1))
    def test_logdet_fold_reads_only_the_lower_triangle_on_the_sweep(self, seed, **geometry):
        # a group summed from an upper block of S^-1 reads NaN
        m = sweep_conv(np.random.default_rng(seed).standard_normal, **geometry)
        try:
            m.gram
        except SingularityError:
            reject()
        assert_fold_reads_only_the_lower_triangle(m)

    def test_weighted_gram_is_the_symmetric_product(self):
        # a stack keeps only the factor, so the factor is held to that of the product
        rng = np.random.default_rng(19)
        m = DenseMap(rng.standard_normal((9, 4)))
        w = rng.uniform(0.5, 2.0, 9)
        f = GramStack.factor(m, w[None])
        a = m.materialize()
        assert_allclose(f.chol[0], np.linalg.cholesky((a * w) @ a.T), rtol=1e-13)

    def test_weight_domain_errors(self):
        # a row whose weights are not positive and finite fails alone
        m = DenseMap(np.eye(3))
        w = np.array([[1.0, -1.0, 1.0], [1.0, 0.0, 1.0], [1.0, np.inf, 1.0], [1.0, 2.0, 1.0]])
        f = GramStack.factor(m, w)
        assert f.failures == ["gram weights must be positive and finite"] * 3 + [None]
        assert np.isnan(f.logdet[:3]).all()
        assert_allclose(f.logdet[3], np.log(2.0), rtol=1e-15)
        u = f.solve(np.ones((4, 3)))
        assert np.isnan(u[:3]).all()
        # the good row is the Cholesky solve of its own S, diag(1, 2, 1)
        want = cho_solve(cho_factor(np.diag([1.0, 2.0, 1.0]), lower=True), np.ones(3))
        np.testing.assert_array_equal(u[3], want)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, 1e200])
    def test_non_finite_gram_is_not_positive_definite(self, bad):
        w = np.random.default_rng(3).standard_normal((6, 3))
        w[2, 1] = bad  # 1e200 overflows S
        with pytest.raises(SingularityError, match="^gram matrix is not positive definite$") as raised:
            GramFactor(DenseMap(w))
        assert_seed_failure_names_the_layer(DenseMap(w), "layer 2", raised.value)

    def test_singular_map_raises_with_label(self):
        w = np.zeros((4, 2))
        w[:, 0] = [1.0, 2.0, 0.0, 0.0]
        w[:, 1] = [2.0, 4.0, 0.0, 0.0]
        with pytest.raises(SingularityError, match="^gram matrix is ") as raised:
            GramFactor(DenseMap(w))
        assert_seed_failure_names_the_layer(DenseMap(w), "layer 3", raised.value)


def assert_fold_reads_only_the_lower_triangle(map_):
    """The log-det gradient is unchanged, bit for bit, when S^-1 is NaN above its diagonal."""
    want = map_.with_params(map_.params).logdet_grad
    inverse = GramFactor._inverse

    def poisoned(self):
        inv = inverse(self)
        inv[np.triu_indices(len(inv), 1)] = np.nan
        return inv

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(GramFactor, "_inverse", poisoned)
        got = map_.logdet_grad
    assert np.all(np.isfinite(got))
    np.testing.assert_array_equal(got, want)


def assert_seed_failure_names_the_layer(map_, label, factor_error):
    """A solve whose seed factor fails carries its label, and the factor's error as the cause."""
    err = solve_saddle(map_, GAUSSIAN, np.zeros((1, map_.n_out)), label=label).errors[0]
    assert str(err) == f"{label}: map has a singular Gram matrix"
    assert str(err.__cause__) == str(factor_error)
