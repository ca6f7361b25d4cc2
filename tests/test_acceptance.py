"""Acceptance gate: one test per numbered criterion, each ending in a
single printed PASS line, so `pytest -v tests/test_acceptance.py`
reports one pass/fail line per criterion.
"""

import os

import numpy as np
import pytest

from helpers import gaussian_chain_logpdf, sum_density_grid, sum_moments
from pbn import (
    Dataset,
    DenseMap,
    LayerSpec,
    Network,
    OutputPriorConfig,
    TrainConfig,
    build_network,
    get_prior,
    gradient,
    objective,
    pretrain_discriminative,
    reconstruct_from_layer,
    reconstruction_statistic,
    scaled_uniform_init,
    solve_saddle,
    train,
    wordpair_network,
    write_archive_text,
)
from pbn.cli import main as cli_main

PRIOR_KINDS = ("gaussian", "truncated_gaussian", "uniform")


def report(number, text):
    print(f"criterion {number:02d} PASS: {text}")


# -- criterion 1: adjoint identity on every architecture map ----------------


def test_criterion_01_adjoint_identity():
    rng = np.random.default_rng(101)
    net = wordpair_network(rng)
    worst = 0.0
    for spec in net.layers:
        m = spec.map
        for _ in range(100):
            x = rng.normal(size=m.n_in)
            h = rng.normal(size=m.n_out)
            gap = abs(float(m.forward(x) @ h) - float(x @ m.adjoint(h)))
            bound = 1e-10 * np.linalg.norm(x) * np.linalg.norm(h)
            assert gap <= bound
            worst = max(worst, gap / bound)
    report(1, f"5 maps x 100 pairs, worst gap at {worst:.2e} of the 1e-10 bound")


# -- criterion 2: activation calculus by central differences ----------------


def test_criterion_02_activation_calculus():
    grid = np.linspace(-30.0, 30.0, 241)
    wide = np.linspace(-700.0, 700.0, 57)
    for kind in PRIOR_KINDS:
        prior = get_prior(kind)
        for f, fprime in (
            (prior.cgf, prior.activation),
            (prior.activation, prior.activation_deriv),
        ):
            for a in grid:
                h = 6e-6 * max(1.0, abs(a))
                fd = (f(a + h) - f(a - h)) / (2 * h)
                exact = fprime(a)
                assert abs(fd - exact) <= 1e-6 * max(abs(exact), 1e-9)
        for op in (
            prior.cgf,
            prior.activation,
            prior.activation_deriv,
            prior.cgf_third_deriv,
        ):
            assert np.all(np.isfinite(op(wide)))
    report(2, "three priors, derivative chains < 1e-6 rel on [-30,30], finite on [-700,700]")


# -- criterion 3: saddle residuals on feasible instances --------------------


def test_criterion_03_saddle_residuals():
    rng = np.random.default_rng(103)
    for kind in PRIOR_KINDS:
        prior = get_prior(kind)
        for _ in range(1000):
            n = int(rng.integers(2, 7))
            m = int(rng.integers(1, n))
            w = DenseMap(rng.normal(size=(n, m)) * 0.7)
            x = prior.sample(rng, n)
            z_tilde = w.forward(x)
            sol = solve_saddle(w, prior, z_tilde[None])
            assert sol.errors == [None]
            assert sol.residual[0] <= 1e-9 * (1.0 + np.max(np.abs(z_tilde)))
        for _ in range(100):
            n = int(rng.integers(2, 6))
            w = DenseMap(rng.normal(size=(n, n)) + 2.0 * np.eye(n))
            x = prior.sample(rng, n)
            sol = solve_saddle(w, prior, w.forward(x)[None])
            assert sol.errors == [None]
            assert sol.residual[0] <= 1e-9 * (1.0 + np.max(np.abs(w.forward(x))))
    report(3, "3000 feasible + 300 square instances, zero failures, residuals in tolerance")


# -- criterion 4: all-linear chains match the closed-form Gaussian ----------


def test_criterion_04_gaussian_exactness():
    rng = np.random.default_rng(104)
    worst = 0.0
    for trial in range(20):
        dims = sorted(rng.integers(2, 9, size=4), reverse=True)
        layers = []
        for n, m in zip(dims[:-1], dims[1:]):
            w = DenseMap(rng.normal(size=(n, int(m))))
            layers.append(LayerSpec(w, rng.normal(size=int(m)) * 0.3, "gaussian", "linear"))
        standardize = None
        if trial % 2:
            standardize = (rng.normal(size=dims[0]), rng.uniform(0.5, 2.0, size=dims[0]))
        net = Network(layers, standardize=standardize)
        x = rng.normal(size=dims[0])
        got = net.log_likelihood(x).total
        want = gaussian_chain_logpdf(net, x)
        gap = abs(got - want) / max(1.0, abs(want))
        assert gap <= 1e-8
        worst = max(worst, gap)
    report(4, f"20 random 3-layer chains, worst relative gap {worst:.2e} <= 1e-8")


# -- criterion 5: saddle point density vs brute-force quadrature ------------


def test_criterion_05_spa_vs_quadrature():
    cases = (
        ("truncated_gaussian", np.array([0.9, 1.0, 1.1]), 40.0),
        ("truncated_gaussian", np.array([0.9, 1.0, 1.1, 1.2]), 40.0),
        ("uniform", np.array([0.9, 1.0, 1.1, 1.2]), 4.5),
    )
    for kind, weights, z_max in cases:
        grid, exact = sum_density_grid(kind, weights, z_max)
        mean, sd = sum_moments(kind, weights)
        prior = get_prior(kind)
        m = DenseMap(weights.reshape(-1, 1))
        for z in (mean - sd, mean, mean + sd):
            spa = float(np.exp(solve_saddle(m, prior, np.array([[z]])).log_density[0]))
            ref = float(np.interp(z, grid, exact))
            assert abs(spa - ref) <= 0.05 * ref
        lo, hi = mean - 5 * sd, mean + 5 * sd
        if kind == "uniform":
            lo, hi = max(lo, 0.02), min(hi, float(weights.sum()) - 0.02)
        else:
            lo = max(lo, 0.05)
        zs = np.linspace(lo, hi, 301)
        dens = np.exp(solve_saddle(m, prior, zs[:, None]).log_density)
        mass = float(np.trapezoid(dens, zs))
        assert 0.95 <= mass <= 1.05
    report(5, "N<=4, M=1 TG/uniform sums: density within 5%, mass within [0.95, 1.05]")


# -- criterion 6: full-parameter gradient gate -------------------------------


def _flatten(net):
    return np.concatenate(
        [spec.map.params.ravel() for spec in net.layers] + [spec.bias for spec in net.layers]
    )


def _rebuild(net, theta):
    weights, biases, pos = [], [], 0
    for spec in net.layers:
        size = spec.map.params.size
        weights.append(theta[pos : pos + size].reshape(spec.map.params.shape))
        pos += size
    for spec in net.layers:
        biases.append(theta[pos : pos + spec.bias.size])
        pos += spec.bias.size
    return net.with_layer_params(weights, biases)


def test_criterion_06_gradient_gate():
    rng = np.random.default_rng(106)
    dims = (8, 5, 3, 2)
    layers = []
    for i, (n, m) in enumerate(zip(dims[:-1], dims[1:])):
        w = DenseMap(scaled_uniform_init(rng, DenseMap(np.zeros((n, m)))))
        act = "shift" if i == len(dims) - 2 else "tg"
        layers.append(LayerSpec(w, np.zeros(m), "truncated_gaussian", act))
    net = Network(layers, output_prior=OutputPriorConfig(c=200.0, level=1.0, n_classes=2))
    data = Dataset(np.abs(rng.normal(size=(3, 8))) + 0.1, np.array([0, 1, 0]))

    analytic = None
    for i in range(len(data)):
        gw, gb, _ = gradient(net, data.x[i], label=int(data.labels[i]))
        flat = np.concatenate([g.ravel() for g in gw] + list(gb))
        analytic = flat if analytic is None else analytic + flat
    analytic /= len(data)

    theta = _flatten(net)
    fd = np.empty_like(theta)
    for j in range(theta.size):
        lo, hi = theta.copy(), theta.copy()
        lo[j] -= 1e-5
        hi[j] += 1e-5
        fd[j] = (
            objective(_rebuild(net, hi), data)[0] - objective(_rebuild(net, lo), data)[0]
        ) / 2e-5
    err = np.max(np.abs(fd - analytic)) / (1.0 + np.max(np.abs(analytic)))
    assert err < 1e-4
    report(6, f"all {theta.size} parameters, TG net with shift C=200: FD gap {err:.2e} < 1e-4")


# -- criterion 7: hidden-variable recovery ------------------------------------


def test_criterion_07_hidden_variable_recovery():
    # Layer sizes and seed are chosen so every backstep target is
    # structurally feasible: the last map is square (inverting it puts
    # no subspace restriction on the next target down) and each hidden
    # TG layer's weights admit a strictly positive null combination,
    # which makes its feature cone the whole space.
    rng = np.random.default_rng(109)
    net = build_network(
        12,
        [
            {"type": "dense", "units": 8, "activation": "tg"},
            {"type": "dense", "units": 4, "activation": "tg"},
            {"type": "dense", "units": 2, "activation": "tg"},
            {"type": "dense", "units": 2, "activation": "shift"},
        ],
        rng,
        output_prior=OutputPriorConfig(c=20.0, level=1.0, n_classes=2),
    )
    fit_data = Dataset(rng.normal(size=(40, 12)), rng.integers(0, 2, size=40))
    net = train(net, fit_data, TrainConfig(epochs=3, learning_rate=1e-4, seed=0)).network

    worst = 0.0
    for _ in range(100):
        x = rng.normal(size=12)
        zs = net.forward_pass(x)[1]
        for k in range(1, 5):
            (x_hat,), errors = reconstruct_from_layer(net, k, zs[k - 1][None])
            assert errors == [None]
            zs_hat = net.forward_pass(x_hat)[1]
            gap = np.max(np.abs(zs_hat[k - 1] - zs[k - 1])) / (
                1.0 + np.max(np.abs(zs[k - 1]))
            )
            assert gap <= 1e-6
            worst = max(worst, gap)
    report(7, f"k=1..4 over 100 samples, zero failures, worst z gap {worst:.2e} <= 1e-6")


# -- criterion 8: blobs end to end --------------------------------------------


def _blob_data(rng, n_per):
    xs, ys = [], []
    for label, center in enumerate(((2.0, 0.0), (-2.0, 0.0))):
        xs.append(rng.normal(center, 0.6, size=(n_per, 2)))
        ys.append(np.full(n_per, label))
    return Dataset(np.vstack(xs), np.concatenate(ys))


def test_criterion_08_toy_end_to_end():
    rng = np.random.default_rng(108)
    net = build_network(
        2,
        [
            {"type": "dense", "units": 2, "activation": "tg"},
            {"type": "dense", "units": 2, "activation": "shift"},
        ],
        rng,
        output_prior=OutputPriorConfig(c=20.0, level=1.0, n_classes=2),
    )
    data = _blob_data(np.random.default_rng(1080), 80)
    val = _blob_data(np.random.default_rng(1081), 30)

    pre = pretrain_discriminative(
        net,
        data,
        TrainConfig(epochs=30, learning_rate=5e-2, batch_size=8, optimizer="adam", seed=0),
        val_data=val,
    )
    pre_acc = pre.history[-1]["val_accuracy"]
    assert pre_acc >= 0.95

    result = train(
        pre.network,
        data,
        TrainConfig(epochs=50, learning_rate=1e-4, optimizer="sgd", seed=0),
        val_data=val,
    )
    objs = [row["objective"] for row in result.history]
    accs = [row["val_accuracy"] for row in result.history]
    assert len(objs) == 50
    moving = [np.mean(objs[t - 10 : t]) for t in range(10, 51)]
    assert all(b >= a - 1e-9 for a, b in zip(moving, moving[1:]))
    assert objs[-1] > objs[0]
    assert abs(accs[-1] - pre_acc) <= 0.05
    report(
        8,
        f"pretrain val {pre_acc:.3f} >= 0.95; PBN val {accs[-1]:.3f} within 0.05; "
        "objective 10-epoch MA non-decreasing over 50 epochs",
    )


# -- criterion 9: out-of-set separation ---------------------------------------


def _pair_data(rng, coord, n_per):
    """Two-class blobs separated along one coordinate; the pair for
    model A and the pair for model B live on different coordinates."""
    xs, ys = [], []
    for label, sign in enumerate((1.0, -1.0)):
        x = rng.normal(scale=0.3, size=(n_per, 8))
        x[:, coord] += sign * 2.0
        xs.append(x)
        ys.append(np.full(n_per, label))
    return Dataset(np.vstack(xs), np.concatenate(ys))


def _pair_net(rng):
    return build_network(
        8,
        [
            {"type": "dense", "units": 4, "activation": "tg"},
            {"type": "dense", "units": 2, "activation": "shift"},
        ],
        rng,
        output_prior=OutputPriorConfig(c=20.0, level=1.0, n_classes=2),
    )


def test_criterion_09_out_of_set_toy():
    rng = np.random.default_rng(109)
    data_a = _pair_data(rng, 0, 30)
    data_b = _pair_data(rng, 4, 30)
    pre_cfg = TrainConfig(epochs=30, learning_rate=3e-2, batch_size=8, optimizer="adam", seed=0)
    pbn_cfg = TrainConfig(epochs=10, learning_rate=1e-4, seed=0)
    nets = {}
    for tag, data in (("a", data_a), ("b", data_b)):
        net = _pair_net(rng)
        net = pretrain_discriminative(net, data, pre_cfg).network
        nets[tag] = train(net, data, pbn_cfg).network

    rng_test = np.random.default_rng(200)
    correct, total = 0, 0
    for data, own_is_a in ((_pair_data(rng_test, 0, 20), True),
                           (_pair_data(rng_test, 4, 20), False)):
        for i in range(len(data)):
            stat_a = reconstruction_statistic(nets["a"], data.x[i][None], 1)[0]
            stat_b = reconstruction_statistic(nets["b"], data.x[i][None], 1)[0]
            assert np.isfinite(stat_a) and np.isfinite(stat_b)  # no walk failed
            total += 1
            if (stat_a >= stat_b) == own_is_a:
                correct += 1
    accuracy = correct / total
    assert accuracy >= 0.85
    report(9, f"disjoint-pair models separate {accuracy:.3f} >= 0.85 by reconstruction statistic")


# -- criterion 10: combination sweep -------------------------------------------


def _zscore(v):
    return (v - v.mean()) / max(v.std(), 1e-12)


def test_criterion_10_combination_sweep(tmp_path, capsys):
    rng = np.random.default_rng(110)
    n = 40
    labels = np.arange(n) % 2
    margin = np.where(labels == 0, 1.0, -1.0)
    s_gen = 1.2 * margin + rng.normal(scale=1.0, size=n)
    s_ext = 0.9 * margin + rng.normal(scale=1.0, size=n)

    scores = tmp_path / "scores.csv"
    with open(scores, "w") as fh:
        fh.write("id,label,ll0,ll1,recon_stat\n")
        for i in range(n):
            fh.write(f"s{i:02d},{labels[i]},{s_gen[i]:.17g},0.0,1.0\n")
    external = tmp_path / "external.csv"
    with open(external, "w") as fh:
        fh.write("id,score\n")
        for i in range(n):
            fh.write(f"s{i:02d},{s_ext[i]:.17g}\n")
    out = tmp_path / "sweep.csv"
    rc = cli_main(
        ["combine", "--scores", str(scores), "--external", str(external),
         "--sweep", "20", "--out", str(out)]
    )
    capsys.readouterr()
    assert rc == 0
    rows = [
        ln.split(",")
        for ln in open(out).read().splitlines()
        if ln and not ln.startswith(("#", "weight"))
    ]
    table = {float(w): float(a) for w, a in rows}

    acc_gen = float(np.mean((_zscore(s_gen) > 0) == (labels == 0)))
    acc_ext = float(np.mean((_zscore(s_ext) > 0) == (labels == 0)))
    assert table[0.0] == pytest.approx(acc_gen)
    assert table[1.0] == pytest.approx(acc_ext)
    assert max(table.values()) >= max(acc_gen, acc_ext)
    report(
        10,
        f"endpoints reproduce component accuracies ({acc_gen:.3f}, {acc_ext:.3f}); "
        f"best of sweep {max(table.values()):.3f} dominates",
    )


# -- criterion 11: determinism across full reruns ------------------------------


def test_criterion_11_determinism(tmp_path, capsys, monkeypatch):
    rng = np.random.default_rng(111)
    rows, labels = [], []
    for label, center in enumerate((1.0, -1.0)):
        rows.append(rng.normal(center, 0.4, size=(10, 6)))
        labels.append(np.full(10, label))
    data = Dataset(np.vstack(rows), np.concatenate(labels),
                   [f"c{l}/s{i}" for l in (0, 1) for i in range(10)])
    config_text = (
        "arch=custom\ninput_shape=6\nlayers=dense:4:tg,dense:2:shift\n"
        "n_classes=2\nC=20\nepochs=2\npretrain_epochs=2\npretrain_learning_rate=0.01\n"
    )

    # The two passes run the byte-for-byte same command lines, each from
    # its own working directory.
    outputs = []
    for tag in ("one", "two"):
        base = tmp_path / tag
        base.mkdir()
        monkeypatch.chdir(base)
        write_archive_text("toy.csv", data)
        (base / "toy.cfg").write_text(config_text)
        assert cli_main(["train", "--features", "toy.csv", "--config", "toy.cfg",
                         "--out-model", "model.json", "--pretrain", "--seed", "5"]) == 0
        assert cli_main(["eval", "--model", "model.json", "--features", "toy.csv",
                         "--out-scores", "scores.csv", "--seed", "5"]) == 0
        assert cli_main(["reconstruct", "--model", "model.json", "--features", "toy.csv",
                         "--layer", "1", "--out-images", "images",
                         "--count", "3", "--seed", "5"]) == 0
        capsys.readouterr()
        blob = {}
        for name in ("model.json", "model_history.csv", "scores.csv"):
            blob[name] = open(base / name, "rb").read()
        for name in sorted(os.listdir(base / "images")):
            blob[f"images/{name}"] = open(base / "images" / name, "rb").read()
        outputs.append(blob)
    assert outputs[0].keys() == outputs[1].keys()
    for name in outputs[0]:
        assert outputs[0][name] == outputs[1][name], f"{name} differs between runs"
    report(11, f"{len(outputs[0])} files (model, history, scores, images) byte-identical")


# -- criterion 12: optional paper-scale reproduction ---------------------------


PAPER_PAIRS = {"three_tree": 0.886, "no_go": 0.863, "bird_bed": 0.960}


@pytest.mark.skipif(
    not os.environ.get("PBN_SPEECH_COMMANDS_DIR"),
    reason="optional paper-scale run; set PBN_SPEECH_COMMANDS_DIR to a directory "
    "with three_tree/, no_go/, bird_bed/ word-pair WAV trees",
)
def test_criterion_12_paper_scale(tmp_path, capsys):
    root = os.environ["PBN_SPEECH_COMMANDS_DIR"]
    for pair, target in PAPER_PAIRS.items():
        pair_dir = os.path.join(root, pair)
        archive = str(tmp_path / f"{pair}.pbnf")
        split = str(tmp_path / f"{pair}_split.csv")
        model = str(tmp_path / f"{pair}.json")
        scores = str(tmp_path / f"{pair}_scores.csv")
        config = tmp_path / f"{pair}.cfg"
        config.write_text(
            "arch=wordpair\nepochs=40\nlearning_rate=0.0001\nbatch_size=32\n"
            "pretrain_epochs=20\npretrain_learning_rate=0.001\npretrain_dropout=0.5\n"
        )
        assert cli_main(["extract", "--wav-dir", pair_dir, "--out", archive,
                         "--out-split", split, "--binary", "--seed", "0"]) == 0
        assert cli_main(["train", "--features", archive, "--config", str(config),
                         "--split", split, "--out-model", model,
                         "--pretrain", "--seed", "0"]) == 0
        assert cli_main(["eval", "--model", model, "--features", archive,
                         "--out-scores", scores, "--seed", "0"]) == 0
        out = capsys.readouterr().out
        accuracy = float(out.rsplit("accuracy=", 1)[1].split()[0])
        assert abs(accuracy - target) <= 0.03
    report(12, "paper-scale word pairs within 0.03 of the reference accuracies")
