"""Linear map wiring, parameter gradients, and the weighted Gram factor."""

import numpy as np
import pytest
from hypothesis import assume, given, reject, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import oracle
from pbn import gradient, training
from pbn.errors import DomainError, ShapeMismatchError, SingularityError
from pbn.linops import ConvMap, DenseMap, GramFactor
from pbn.network import wordpair_network
from pbn.reconstruct import reconstruct_from_layer

WORDPAIR_CONVS = [
    dict(in_shape=(1, 45, 20), c_out=9, kernel=(21, 17), strides=(5, 4), out_shape=(9, 9, 5)),
    dict(in_shape=(9, 9, 5), c_out=24, kernel=(5, 3), strides=(3, 2), out_shape=(24, 3, 2)),
]


def make_conv(rng, cfg):
    c_in = cfg["in_shape"][0]
    k = rng.standard_normal((cfg["c_out"], c_in) + cfg["kernel"])
    return ConvMap(k, cfg["in_shape"], cfg["strides"])


def assert_kept_inverse_matches_triangular_solves(f, rtol):
    """S^-1 of a factor against the triangular solves on its own Cholesky factor.

    ``solve`` takes output order, as ``inv`` does, whatever order the
    factor was formed in.
    """
    want = f.solve(np.eye(f.matrix.shape[0]))
    assert np.max(np.abs(f.inv - want)) <= rtol * np.max(np.abs(want))
    assert not f.inv.flags.writeable
    np.testing.assert_array_equal(f.inv, f.inv.T)


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
        # The matrix is one assignment per tap, so no two taps may share an
        # (output, input) pair; the reference accumulates tap by tap.
        m = make_conv(np.random.default_rng(2), cfg)
        dense_idx = m._wiring[0]
        assert np.unique(dense_idx).size == dense_idx.size
        want = brute_conv_matrix(m.params, cfg["in_shape"], cfg["strides"])
        np.testing.assert_array_equal(m.materialize(), want)

    @pytest.mark.parametrize("cfg", WORDPAIR_CONVS, ids=["conv1", "conv2"])
    def test_wiring_equals_the_full_index_grid_oracle(self, cfg):
        m = make_conv(np.random.default_rng(3), cfg)
        for got, want in zip(m._wiring, oracle.conv_wiring(m)):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)

    @settings(max_examples=60, deadline=None)
    @given(
        c_in=st.integers(1, 3),
        c_out=st.integers(1, 3),
        kh=st.integers(1, 6),
        kw=st.integers(1, 6),
        sy=st.integers(1, 8),
        sx=st.integers(1, 8),
        extra_h=st.integers(0, 9),
        extra_w=st.integers(0, 9),
    )
    def test_wiring_sweep_equals_the_oracle(self, c_in, c_out, kh, kw, sy, sx, extra_h, extra_w):
        # even kernels, strides past the kernel and images smaller than it
        h, w = sy + extra_h, sx + extra_w
        assume(c_out * (h // sy) * (w // sx) <= c_in * h * w)
        m = ConvMap(np.ones((c_out, c_in, kh, kw)), (c_in, h, w), (sy, sx))
        for got, want in zip(m._wiring, oracle.conv_wiring(m)):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)

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
    @settings(max_examples=60, deadline=None)
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

    @settings(max_examples=80, deadline=None)
    @given(
        c_in=st.integers(1, 3),
        c_out=st.integers(1, 3),
        kh=st.integers(1, 6),
        kw=st.integers(1, 6),
        sy=st.integers(1, 8),
        sx=st.integers(1, 8),
        extra_h=st.integers(0, 9),
        extra_w=st.integers(0, 9),
        rows=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_conv_sweep(self, c_in, c_out, kh, kw, sy, sx, extra_h, extra_w, rows, seed):
        # even kernels, strides past the kernel, images smaller than it, a
        # single output row, and stacks with more rows than the map has
        # outputs
        h, w = sy + extra_h, sx + extra_w
        assume(c_out * (h // sy) * (w // sx) <= c_in * h * w)
        rng = np.random.default_rng(seed)
        m = ConvMap(rng.standard_normal((c_out, c_in, kh, kw)), (c_in, h, w), (sy, sx))
        left = rng.standard_normal((rows, m.n_in))
        right = rng.standard_normal((rows, m.n_out))
        assert_fold_is_the_collected_product(m, left, right)

        a = m.materialize()
        assert_within(m.forward(left), left @ a.T)
        assert_within(m.forward(left[0]), a @ left[0])
        assert_within(m.adjoint(right), right @ a)
        assert_within(m.adjoint(right[0]), right[0] @ a)
        gram = a @ a.T
        # the block W'W is formed on and above its diagonal, in block order
        order = m._layout[3]
        assert_within(np.triu(m._gram()), np.triu(gram[np.ix_(order, order)]))
        try:
            factor = GramFactor(m)
        except SingularityError:
            reject()
        rtol = max(FOLD_RTOL, 16 * np.finfo(float).eps * np.linalg.cond(gram))
        assert_within(factor.solve_rows(right), np.linalg.solve(gram, right.T).T, rtol)
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

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 25), st.integers(1, 25), st.integers(1, 12), st.integers(0, 2**32 - 1))
    def test_dense_maps(self, a, b, rows, seed):
        rng = np.random.default_rng(seed)
        m = DenseMap(rng.standard_normal((max(a, b), min(a, b))))
        left = rng.standard_normal((rows, m.n_in))
        assert_fold_is_the_collected_product(m, left, rng.standard_normal((rows, m.n_out)))

    def test_siblings_share_the_plan_built_on_first_use(self):
        m = make_conv(np.random.default_rng(5), WORDPAIR_CONVS[0])
        twin = m.with_params(2.0 * m.params)
        assert not m._wiring[3]  # a map that never multiplies builds no block layout
        twin.fold(np.ones((1, m.n_in)), np.ones((1, m.n_out)))
        assert m._wiring[3] and m._wiring[3] is twin._wiring[3]

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
        rng = np.random.default_rng(11)
        m = DenseMap(rng.standard_normal((9, 4)))
        w = rng.uniform(0.5, 2.0, 9)
        f = GramFactor(m, w)
        s = (m.materialize() * w) @ m.materialize().T
        b = rng.standard_normal(4)
        assert_allclose(f.solve(b), np.linalg.solve(s, b), rtol=1e-10)
        sign, logdet = np.linalg.slogdet(s)
        assert sign == 1.0
        assert_allclose(f.logdet, logdet, rtol=1e-10)

    def test_matrix_rhs(self):
        rng = np.random.default_rng(12)
        m = DenseMap(rng.standard_normal((7, 3)))
        f = GramFactor(m)
        b = rng.standard_normal((3, 5))
        assert_allclose(f.matrix @ f.solve(b), b, atol=1e-10)

    def test_default_weights_give_plain_gram(self):
        rng = np.random.default_rng(13)
        m = DenseMap(rng.standard_normal((6, 2)))
        f = GramFactor(m)
        a = m.materialize()
        assert_allclose(f.matrix, a @ a.T, atol=1e-14)

    @pytest.mark.parametrize("layer", [0, 1])
    def test_kept_inverse_on_wordpair_convs(self, layer):
        net = wordpair_network(np.random.default_rng(16))
        assert_kept_inverse_matches_triangular_solves(GramFactor(net.layers[layer].map), 1e-12)

    def test_kept_inverse_on_weighted_dense_map(self):
        rng = np.random.default_rng(17)
        m = DenseMap(rng.standard_normal((60, 24)))
        f = GramFactor(m, rng.uniform(0.1, 10.0, 60))
        assert_kept_inverse_matches_triangular_solves(f, 1e-12)

    def test_kept_inverse_tolerance_scales_with_condition(self):
        # singular values of W spread over 1e3, so cond(S) = 1e6
        rng = np.random.default_rng(18)
        q_in, _ = np.linalg.qr(rng.standard_normal((60, 24)))
        q_out, _ = np.linalg.qr(rng.standard_normal((24, 24)))
        f = GramFactor(DenseMap((q_in * np.logspace(0.0, 3.0, 24)) @ q_out.T))
        cond = np.linalg.cond(f.matrix)
        assert 0.5e6 < cond < 2e6
        assert_kept_inverse_matches_triangular_solves(f, 16 * np.finfo(float).eps * cond)

    def test_weighted_gram_is_the_symmetric_product(self):
        rng = np.random.default_rng(19)
        m = DenseMap(rng.standard_normal((9, 4)))
        w = rng.uniform(0.5, 2.0, 9)
        f = GramFactor(m, w)
        a = m.materialize()
        assert_allclose(f.matrix, (a * w) @ a.T, rtol=1e-13)
        np.testing.assert_array_equal(f.matrix, f.matrix.T)

    def test_weight_domain_errors(self):
        m = DenseMap(np.eye(3))
        with pytest.raises(DomainError):
            GramFactor(m, np.array([1.0, -1.0, 1.0]))
        with pytest.raises(DomainError):
            GramFactor(m, np.array([1.0, 0.0, 1.0]))
        with pytest.raises(DomainError):
            GramFactor(m, np.array([1.0, np.inf, 1.0]))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, 1e200])
    def test_non_finite_gram_is_not_positive_definite(self, bad):
        w = np.random.default_rng(3).standard_normal((6, 3))
        w[2, 1] = bad  # 1e200 overflows S
        with pytest.raises(SingularityError, match="layer 2: gram matrix is not positive definite"):
            GramFactor(DenseMap(w), label="layer 2")

    def test_singular_map_raises_with_label(self):
        w = np.zeros((4, 2))
        w[:, 0] = [1.0, 2.0, 0.0, 0.0]
        w[:, 1] = [2.0, 4.0, 0.0, 0.0]
        with pytest.raises(SingularityError, match="layer 3"):
            GramFactor(DenseMap(w), label="layer 3")
