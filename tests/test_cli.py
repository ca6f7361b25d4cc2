import json
import math
import os
import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.io import wavfile

from pbn import (
    Dataset,
    DenseMap,
    LayerSpec,
    Network,
    OutputPriorConfig,
    network,
    reconstruct,
    saddlepoint,
    save_model,
    wordpair_network,
)
from pbn.cli import _read_csv, _standardize_on, build_from_config, main, parse_config
from pbn.errors import ConfigError, PbnError
from pbn.features import extract_directory, read_archive, write_archive_binary, write_archive_text
from pbn.linops import ConvMap, GramStack
from pbn.network import WORDPAIR_INPUT_SHAPE, WORDPAIR_LAYERS
from helpers import examples, write_non_finite_archive


def damaged_model(where, value):
    """A valid model of the toy archive's six features with ``value`` at the path ``where``."""
    net = Network(
        [
            LayerSpec(DenseMap(np.eye(6)[:, :4]), np.zeros(4), "gaussian", "tg"),
            LayerSpec(DenseMap(np.eye(4)[:, :2]), np.zeros(2), "truncated_gaussian", "shift"),
        ],
        output_prior=OutputPriorConfig(c=20.0, level=1.0),
        standardize=(np.zeros(6), np.ones(6)),
    )
    doc = network.network_to_dict(net)
    *head, last = where
    node = doc
    for key in head:
        node = node[key]
    node[last] = value
    return json.dumps(doc)


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


@pytest.fixture
def wav_tree(tmp_path):
    rng = np.random.default_rng(100)
    root = tmp_path / "wavs"
    for cls in ("bird", "bed"):
        d = root / cls
        d.mkdir(parents=True)
        for i in range(8):
            samples = (rng.uniform(-0.5, 0.5, 8000) * 32767).astype(np.int16)
            wavfile.write(str(d / f"clip{i}.wav"), 16000, samples)
    return str(root)


@pytest.fixture
def toy_archive(tmp_path):
    rng = np.random.default_rng(200)
    rows, labels = [], []
    for label, center in enumerate((1.0, -1.0)):
        rows.append(rng.normal(center, 0.4, size=(12, 6)))
        labels.append(np.full(12, label))
    data = Dataset(
        np.vstack(rows), np.concatenate(labels), [f"c{l}/s{i:02d}" for l in (0, 1) for i in range(12)]
    )
    path = str(tmp_path / "toy.csv")
    write_archive_text(path, data)
    return path


@pytest.fixture
def toy_config(tmp_path):
    path = tmp_path / "toy.cfg"
    path.write_text(
        "input_shape=6\n"
        "layers=dense:4:tg,dense:2:shift\n"
        "C=20\n"
        "standardize=true\n"
        "epochs=2\n"
        "learning_rate=0.0001\n"
        "pretrain_epochs=2\n"
        "pretrain_learning_rate=0.01\n"
    )
    return str(path)


@pytest.fixture
def toy_model(tmp_path, toy_archive, toy_config, capsys):
    model = str(tmp_path / "toy_model.json")
    rc, _, _ = run(
        capsys,
        "train",
        "--features",
        toy_archive,
        "--config",
        toy_config,
        "--out-model",
        model,
        "--seed",
        "1",
    )
    assert rc == 0
    return model


class TestExtract:
    def test_archive_and_split(self, wav_tree, tmp_path, capsys):
        arch = str(tmp_path / "features.csv")
        rc, out, _ = run(
            capsys,
            "extract", "--wav-dir", wav_tree, "--out", arch,
            "--n-train", "4", "--n-val", "2", "--seed", "3",
        )
        assert rc == 0
        assert "16 samples, 2 classes" in out
        data = read_archive(arch)
        assert data.x.shape == (16, 900)
        assert data.ids[0].startswith("bed/")
        first = open(arch).readline()
        assert first.startswith("# pbn v") and "seed=3" in first and "config=" in first

        split_path = str(tmp_path / "features_split.csv")
        body = [
            ln for ln in open(split_path).read().splitlines() if not ln.startswith("#")
        ]
        assert body[0] == "id,label,split"
        names = [ln.split(",")[2] for ln in body[1:]]
        assert names.count("train") == 8
        assert names.count("val") == 4
        assert names.count("test") == 4

    def test_double_run_is_byte_identical(self, wav_tree, tmp_path, capsys):
        paths = []
        for tag in ("one", "two"):
            arch = str(tmp_path / f"{tag}.csv")
            rc, _, _ = run(
                capsys,
                "extract", "--wav-dir", wav_tree, "--out", arch,
                "--n-train", "4", "--n-val", "2", "--seed", "9",
            )
            assert rc == 0
            paths.append(arch)
        assert read_bytes(paths[0]) == read_bytes(paths[1])
        assert read_bytes(paths[0][:-4] + "_split.csv") == read_bytes(
            paths[1][:-4] + "_split.csv"
        )

    def test_text_archive_is_written_in_one_pass(self, wav_tree, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        arch = str(out / "features.csv")
        rc, _, _ = run(
            capsys,
            "extract", "--wav-dir", wav_tree, "--out", arch,
            "--n-train", "4", "--n-val", "2", "--seed", "3",
        )
        assert rc == 0
        lines = open(arch).read().splitlines()
        header = open(str(out / "features_split.csv")).readline().rstrip("\n")
        assert header.startswith("# pbn v")
        assert lines[0] == header
        assert lines[1].startswith("id,label,x000,")
        want, _ = extract_directory(wav_tree)
        back = read_archive(arch)
        np.testing.assert_array_equal(back.x, want.x)
        np.testing.assert_array_equal(back.labels, want.labels)
        assert back.ids == want.ids
        assert sorted(os.listdir(out)) == ["features.csv", "features_split.csv"]

    def test_binary_archive(self, wav_tree, tmp_path, capsys):
        arch = str(tmp_path / "features.pbnf")
        rc, _, _ = run(
            capsys,
            "extract", "--wav-dir", wav_tree, "--out", arch,
            "--n-train", "4", "--n-val", "2", "--binary",
        )
        assert rc == 0
        assert read_bytes(arch)[:7] == b"PBNFEAT"
        assert read_archive(arch).x.shape == (16, 900)

    def test_id_with_a_comma_exits_2(self, wav_tree, tmp_path, capsys):
        bed = os.path.join(wav_tree, "bed")
        os.rename(os.path.join(bed, "clip3.wav"), os.path.join(bed, "a,b.wav"))
        arch = tmp_path / "features.csv"
        rc, _, err = run(
            capsys,
            "extract", "--wav-dir", wav_tree, "--out", str(arch),
            "--n-train", "4", "--n-val", "2",
        )
        assert rc == 2
        assert err.startswith("error: id 'bed/a,b'")
        assert not arch.exists()

    @pytest.mark.parametrize("flag", ["--n-train", "--n-val"])
    def test_negative_split_size_exits_2(self, wav_tree, tmp_path, capsys, flag):
        arch = tmp_path / "features.csv"
        rc, out, err = run(capsys, "extract", "--wav-dir", wav_tree, "--out", str(arch), flag, "-1")
        assert (rc, out) == (2, "")
        assert err == f"error: {flag} must be at least 0\n"
        assert not arch.exists()

    def test_missing_dir_is_usage_error(self, tmp_path, capsys):
        rc, _, err = run(
            capsys, "extract", "--wav-dir", "/no/such/dir", "--out", str(tmp_path / "x.csv")
        )
        assert rc == 2
        assert "error:" in err


class TestTrain:
    def test_model_and_history(self, tmp_path, toy_archive, toy_config, capsys):
        model = str(tmp_path / "m.json")
        rc, out, _ = run(
            capsys,
            "train", "--features", toy_archive, "--config", toy_config,
            "--out-model", model, "--seed", "1",
        )
        assert rc == 0
        assert "trained 2 epochs" in out
        doc = json.loads(open(model).read())
        assert doc["meta"]["seed"] == 1
        assert doc["meta"]["config"]["C"] == "20"
        assert doc["meta"]["config_hash"] == doc["meta"]["config_hash"].lower()
        history = str(tmp_path / "m_history.csv")
        body = [ln for ln in open(history).read().splitlines() if not ln.startswith("#")]
        assert body[0] == "phase,epoch,objective,val_accuracy,efficiency"
        assert len(body) == 3
        assert all(ln.startswith("pbn,") for ln in body[1:])

    def test_custom_conv_architecture(self, tmp_path, capsys, monkeypatch):
        # the second conv layer has a tg prior, so its curvature is a GramStack
        rng = np.random.default_rng(300)
        x = np.vstack([rng.normal(center, 1.0, size=(6, 100)) for center in (0.5, -0.5)])
        ids = [f"c{l}/s{i:02d}" for l in (0, 1) for i in range(6)]
        features = str(tmp_path / "conv.csv")
        write_archive_text(features, Dataset(x, np.repeat([0, 1], 6), ids))
        cfg = tmp_path / "conv.cfg"
        cfg.write_text(
            "input_shape=1x10x10\n"
            "layers=conv:2:3x3:2x2:tg,conv:2:3x3:1x1:tg,dense:2:shift\n"
            "C=20\nstandardize=true\nepochs=1\nbatch_size=4\n"
        )
        stacked = []
        factor = GramStack.factor.__func__
        monkeypatch.setattr(
            GramStack, "factor", classmethod(lambda cls, m, w: stacked.append(m) or factor(cls, m, w))
        )
        model = tmp_path / "m.json"
        rc, out, _ = run(
            capsys,
            "train", "--features", features, "--config", str(cfg),
            "--out-model", str(model), "--seed", "1",
        )
        assert rc == 0
        assert "trained 1 epochs" in out
        doc = json.loads(model.read_text())
        assert [layer["map"]["type"] for layer in doc["layers"]] == ["conv", "conv", "dense"]
        body = [
            ln
            for ln in (tmp_path / "m_history.csv").read_text().splitlines()
            if not ln.startswith("#")
        ][1:]
        assert [ln.split(",")[:2] for ln in body] == [["pbn", "1"]]
        assert any(isinstance(m, ConvMap) for m in stacked)

    @pytest.mark.parametrize(
        "layers, reason",
        [
            pytest.param(
                "conv:1:0x3:1x1:linear,dense:2:shift",
                "conv kernel dimensions must be positive, got (1, 1, 0, 3)",
                id="0x3",
            ),
            pytest.param(
                "conv:1:3x0:1x1:linear,dense:2:shift",
                "conv kernel dimensions must be positive, got (1, 1, 3, 0)",
                id="3x0",
            ),
            ("dense:0:linear", "dense layer units must be positive, got 0"),
            ("dense:-1:linear", "dense layer units must be positive, got -1"),
            (
                "conv:-1:3x3:1x1:linear,dense:2:shift",
                "conv kernel dimensions must be positive, got (-1, 1, 3, 3)",
            ),
            (
                "conv:2:-1x3:1x1:linear,dense:2:shift",
                "conv kernel dimensions must be positive, got (2, 1, -1, 3)",
            ),
        ],
    )
    def test_empty_conv_kernel_exits_2(self, tmp_path, toy_archive, capsys, layers, reason):
        cfg = tmp_path / "conv.cfg"
        cfg.write_text(
            f"input_shape=1x2x3\nlayers={layers}\n"
            "C=20\nstandardize=true\nepochs=1\n"
        )
        model = tmp_path / "m.json"
        rc, out, err = run(
            capsys,
            "train", "--features", toy_archive, "--config", str(cfg),
            "--out-model", str(model), "--pretrain",
        )
        assert (rc, out) == (2, "")
        assert err == f"error: {reason}\n"
        assert not model.exists()

    def test_pretrain_phase_rows(self, tmp_path, toy_archive, toy_config, capsys):
        model = str(tmp_path / "mp.json")
        rc, _, _ = run(
            capsys,
            "train", "--features", toy_archive, "--config", toy_config,
            "--out-model", model, "--pretrain", "--seed", "1",
        )
        assert rc == 0
        body = [
            ln
            for ln in open(str(tmp_path / "mp_history.csv")).read().splitlines()
            if not ln.startswith("#")
        ][1:]
        phases = [ln.split(",")[0] for ln in body]
        assert phases == ["pretrain", "pretrain", "pbn", "pbn"]

    def test_double_run_is_byte_identical(self, tmp_path, toy_archive, toy_config, capsys):
        blobs = []
        for tag in ("a", "b"):
            model = str(tmp_path / f"m{tag}.json")
            rc, _, _ = run(
                capsys,
                "train", "--features", toy_archive, "--config", toy_config,
                "--out-model", model, "--pretrain", "--seed", "4",
            )
            assert rc == 0
            blobs.append(
                (read_bytes(model), read_bytes(str(tmp_path / f"m{tag}_history.csv")))
            )
        assert blobs[0][0] == blobs[1][0]
        hist_a = b"\n".join(blobs[0][1].splitlines())
        hist_b = b"\n".join(blobs[1][1].splitlines())
        assert hist_a == hist_b

    def test_unknown_config_key(self, tmp_path, toy_archive, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("C=20\nwhat=ever\n")
        rc, _, err = run(
            capsys,
            "train", "--features", toy_archive, "--config", str(cfg),
            "--out-model", str(tmp_path / "m.json"),
        )
        assert rc == 2
        assert "unknown config key" in err

    def test_non_utf8_config_exits_2(self, tmp_path, toy_archive, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"L=1\nC=\xff\n")
        rc, out, err = run(
            capsys,
            "train", "--features", toy_archive, "--config", str(cfg),
            "--out-model", str(tmp_path / "m.json"),
        )
        assert (rc, out) == (2, "")
        assert err.startswith(f"error: {cfg}: not UTF-8 text")
        assert not (tmp_path / "m.json").exists()

    def test_unreadable_config_exits_2(self, tmp_path, toy_archive, capsys):
        cfg = tmp_path / "missing.cfg"
        rc, out, err = run(
            capsys,
            "train", "--features", toy_archive, "--config", str(cfg),
            "--out-model", str(tmp_path / "m.json"),
        )
        assert (rc, out) == (2, "")
        assert err.startswith("error: cannot read config: ")
        assert str(cfg) in err
        assert not (tmp_path / "m.json").exists()

    def test_split_id_not_in_archive_exits_2(self, tmp_path, toy_archive, toy_config, capsys):
        split = tmp_path / "split.csv"
        split.write_text("id,label,split\nc0/s00,0,train\nnope,0,val\n")
        model = tmp_path / "m.json"
        rc, out, err = run(
            capsys,
            "train", "--features", toy_archive, "--config", toy_config,
            "--out-model", str(model), "--split", str(split),
        )
        assert (rc, out) == (2, "")
        assert err == "error: split val: 1 ids not in the feature archive\n"
        assert not model.exists()

    def test_split_manifest_selects_validation(self, tmp_path, toy_archive, toy_config, capsys):
        data = read_archive(toy_archive)
        split = tmp_path / "split.csv"
        lines = ["id,label,split"]
        for i, sample_id in enumerate(data.ids):
            part = "train" if i % 3 else "val"
            lines.append(f"{sample_id},{int(data.labels[i])},{part}")
        split.write_text("\n".join(lines) + "\n")
        model = str(tmp_path / "ms.json")
        rc, _, _ = run(
            capsys,
            "train", "--features", toy_archive, "--config", toy_config,
            "--out-model", model, "--split", str(split), "--seed", "2",
        )
        assert rc == 0
        body = [
            ln
            for ln in open(str(tmp_path / "ms_history.csv")).read().splitlines()
            if not ln.startswith("#")
        ][1:]
        assert all(ln.split(",")[3] != "" for ln in body)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverging_run_saves_checkpoint_and_exits_2(self, tmp_path, toy_archive, capsys):
        # a warm-start step of 1e30 saturates the net: all four epochs end
        # with a finite objective, and the likelihood phase then has no
        # defined sample in its first batch
        diverge = (
            "input_shape=6\nlayers=dense:4:tg,dense:2:shift\nC=20\n"
            "pretrain_epochs=4\npretrain_optimizer=sgd\npretrain_learning_rate=1e30\n"
        )
        docs = []
        for name, extra in (("d", ""), ("warm", "epochs=0\n")):
            cfg = tmp_path / f"{name}.cfg"
            cfg.write_text(diverge + extra)
            model = str(tmp_path / f"{name}.json")
            rc, out, err = run(
                capsys,
                "train", "--features", toy_archive, "--config", str(cfg),
                "--out-model", model, "--pretrain", "--seed", "2",
            )
            docs.append(json.loads(open(model).read()))
            if name == "d":
                assert (rc, out) == (2, "")
                assert err == (
                    "error: pbn phase aborted in epoch 1: no sample in the batch has a "
                    f"defined likelihood; saved the last good checkpoint to {model}\n"
                )
                body = [
                    ln
                    for ln in open(str(tmp_path / "d_history.csv")).read().splitlines()
                    if not ln.startswith("#")
                ][1:]
                assert [ln.split(",")[:2] for ln in body] == [
                    ["pretrain", str(e)] for e in range(1, 5)
                ]
            else:
                assert rc == 0
        # the saved checkpoint is the warm start itself
        assert docs[0]["layers"] == docs[1]["layers"]
        assert all(np.all(np.isfinite(layer["map"]["weights"])) for layer in docs[0]["layers"])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_warm_start_saves_checkpoint_and_exits_2(
        self, tmp_path, toy_archive, capsys
    ):
        cfg = tmp_path / "diverge.cfg"
        # one step this large overflows the second epoch's logits
        cfg.write_text(
            "input_shape=6\nlayers=dense:4:tg,dense:2:shift\nC=20\n"
            "pretrain_epochs=4\npretrain_optimizer=sgd\npretrain_learning_rate=1e200\n"
        )
        model = str(tmp_path / "d.json")
        rc, out, err = run(
            capsys,
            "train", "--features", toy_archive, "--config", str(cfg),
            "--out-model", model, "--pretrain", "--seed", "2",
        )
        assert rc == 2
        assert out == ""
        assert err.startswith("error: pretrain phase aborted in epoch ")
        epoch = int(err.split("epoch ")[1].split(":")[0])
        body = [
            ln
            for ln in open(str(tmp_path / "d_history.csv")).read().splitlines()
            if not ln.startswith("#")
        ][1:]
        assert [ln.split(",")[:2] for ln in body] == [
            ["pretrain", str(e)] for e in range(1, epoch)
        ]
        doc = json.loads(open(model).read())
        assert all(np.all(np.isfinite(layer["map"]["weights"])) for layer in doc["layers"])

    @pytest.mark.parametrize(
        "line, reason",
        [
            ("batch_size=-1", "batch_size must be positive"),
            ("epochs=-2", "epochs must be nonnegative"),
            ("pretrain_epochs=-1", "epochs must be nonnegative"),
            ("learning_rate=-1", "learning_rate must be finite and positive"),
            ("pretrain_learning_rate=0", "learning_rate must be finite and positive"),
            ("learning_rate=nan", "learning_rate must be finite and positive"),
            ("l2=-1", "l2 must be finite and nonnegative"),
            ("pretrain_l2=inf", "l2 must be finite and nonnegative"),
            ("C=abc", "config key C='abc' is not a number"),
            ("C=nan", "output prior c must be finite"),
            ("L=inf", "output prior level must be finite"),
            ("input_shape=6x6", "input_shape: expected N or CxHxW, got '6x6'"),
            ("input_shape=-6", "input shape sizes must be positive, got -6"),
            (
                "layers=pool:2",
                "layers: bad layer 'pool:2' (dense:units:act or conv:ch:KHxKW:SYxSX:act)",
            ),
            ("layers=,", "layers: a custom architecture needs at least one layer"),
            ("layers=dense:four:tg", "layers: expected an integer, got 'four'"),
            ("layers=conv:2:3x3:1:tg", "layers: expected AxB, got '1'"),
            ("input_shape=1x4xw", "input_shape: expected N or CxHxW, got '1x4xw'"),
            ("standardize=maybe", "config key standardize='maybe' is not a boolean"),
        ],
    )
    def test_out_of_range_training_config_exits_2(
        self, tmp_path, toy_archive, toy_config, capsys, line, reason
    ):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(open(toy_config).read() + line + "\n")
        model = tmp_path / "m.json"
        rc, out, err = run(
            capsys,
            "train", "--features", toy_archive, "--config", str(cfg),
            "--out-model", str(model), "--pretrain",
        )
        assert (rc, out) == (2, "")
        assert err == f"error: {reason}\n"
        assert not model.exists()

    def test_pretrain_on_more_classes_than_logits_exits_2(self, tmp_path, wav_tree, capsys):
        shutil.copytree(os.path.join(wav_tree, "bird"), os.path.join(wav_tree, "cat"))
        arch = str(tmp_path / "three.csv")
        rc, out, _ = run(
            capsys, "extract", "--wav-dir", wav_tree, "--out", arch, "--n-train", "4", "--n-val", "2"
        )
        assert rc == 0 and "3 classes" in out
        cfg = tmp_path / "two.cfg"
        cfg.write_text(
            "input_shape=900\nlayers=dense:2:shift\nC=20\n"
            "standardize=true\nepochs=1\npretrain_epochs=1\n"
        )
        model = tmp_path / "m.json"
        rc, out, err = run(
            capsys,
            "train", "--features", arch, "--config", str(cfg),
            "--out-model", str(model), "--pretrain",
        )
        assert (rc, out) == (2, "")
        assert err == "error: label 2 outside 0..1\n"
        assert not model.exists()

    def test_malformed_archive_exits_2(self, tmp_path, capsys):
        data = Dataset(np.zeros((2, 3)), np.array([0, 1]), ["a/0", "b/1"])
        path = str(tmp_path / "arch.pbnf")
        write_archive_binary(path, data)
        with open(path, "r+b") as fh:
            fh.truncate(22)
        rc, _, err = run(
            capsys, "train", "--features", path, "--out-model", str(tmp_path / "m.json")
        )
        assert rc == 2
        assert err.startswith("error: ")
        assert "malformed archive" in err

    @pytest.mark.filterwarnings("error")  # and no numpy warning on the way
    @pytest.mark.parametrize("binary", [False, True], ids=["text", "binary"])
    def test_non_finite_feature_exits_2_and_writes_no_model(
        self, tmp_path, toy_config, capsys, binary
    ):
        path = write_non_finite_archive(tmp_path, binary)
        model = tmp_path / "m.json"
        rc, out, err = run(
            capsys, "train", "--features", path, "--config", toy_config, "--out-model", str(model)
        )
        assert (rc, out) == (2, "")
        assert err == f"error: {path}: record 'cls/01' has a non-finite feature value\n"
        assert not model.exists()

    @pytest.mark.filterwarnings("error")  # and no numpy warning on the way
    @pytest.mark.parametrize("trigger", ["empty archive", "no train rows"])
    def test_empty_training_set_exits_2(self, tmp_path, toy_archive, toy_config, capsys, trigger):
        model = tmp_path / "m.json"
        argv = ["train", "--config", toy_config, "--out-model", str(model)]
        if trigger == "empty archive":
            features = str(tmp_path / "empty.csv")
            write_archive_text(features, Dataset(np.zeros((0, 6)), np.zeros(0, dtype=int), []))
        else:
            data = read_archive(toy_archive)
            split = tmp_path / "split.csv"
            rows = "".join(f"{s},{int(y)},val\n" for s, y in zip(data.ids, data.labels))
            split.write_text("id,label,split\n" + rows)
            features = toy_archive
            argv += ["--split", str(split)]
        rc, out, err = run(capsys, *argv, "--features", features)
        assert (rc, out) == (2, "")
        assert err == "error: the training set is empty\n"
        assert not model.exists()

    def test_config_defaults_resolve(self):
        text, values = parse_config(None)
        assert len(text) == len(values) == 15
        assert (text["input_shape"], text["layers"]) == (WORDPAIR_INPUT_SHAPE, WORDPAIR_LAYERS)
        assert (text["C"], text["L"], text["batch_size"]) == ("200", "1", "")
        assert (values["C"], values["L"], values["batch_size"]) == (200.0, 1.0, None)

    def test_default_config_builds_the_wordpair_network(self):
        x = np.random.default_rng(3).uniform(1.0, 2.0, (20, 900))
        net = build_from_config(parse_config(None)[1], np.random.default_rng(8), x)
        stock = wordpair_network(np.random.default_rng(8), standardize=net.standardize)
        assert json.dumps(network.network_to_dict(net)) == json.dumps(
            network.network_to_dict(stock)
        )

    @pytest.mark.parametrize(
        "line, reason",
        [
            pytest.param(line, reason, id=line)
            for line, reason in (
                ("arch=resnet", "{cfg}:1: unknown config key 'arch'"),
                ("arch=custom", "{cfg}:1: unknown config key 'arch'"),
                ("n_classes=3", "{cfg}:1: unknown config key 'n_classes'"),
                ("pretrain_learning_rate=abc", "config key pretrain_learning_rate='abc' is not a number"),
                ("pretrain_optimizer=nadam", "unknown optimizer 'nadam'"),
            )
        ],
    )
    def test_config_is_checked_before_the_archive(self, tmp_path, capsys, line, reason):
        # the archive does not exist: reading it would fail with another error;
        # the warm-start keys are checked although --pretrain is not given
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        model = tmp_path / "m.json"
        rc, out, err = run(
            capsys,
            "train", "--features", str(tmp_path / "missing.pbnf"), "--config", str(cfg),
            "--out-model", str(model),
        )
        assert (rc, out) == (2, "")
        assert err == f"error: {reason.format(cfg=cfg)}\n"
        assert not model.exists()

    def test_input_shape_the_default_layers_cannot_take_exits_2(
        self, tmp_path, toy_archive, capsys
    ):
        cfg = tmp_path / "flat.cfg"
        cfg.write_text("input_shape=7\n")
        rc, out, err = run(
            capsys,
            "train", "--features", toy_archive, "--config", str(cfg),
            "--out-model", str(tmp_path / "m.json"),
        )
        assert (rc, out) == (2, "")
        assert err == "error: conv layer after the spatial structure was flattened\n"

    def test_a_constant_training_column_keeps_unit_scale(self):
        # sigma = 1: the column adds nothing to log_standardize (a 1e-12
        # floor would add 27.6), and a held-out deviation keeps its size
        rng = np.random.default_rng(3)
        x = rng.uniform(1.0, 2.0, (20, 900))
        x[:, 7] = 0.1
        net = build_from_config(parse_config(None)[1], rng, x)
        mu, sigma = net.standardize
        assert sigma[7] == 1.0
        assert np.array_equal(np.delete(sigma, 7), np.delete(x.std(axis=0), 7))
        assert net.log_standardize == pytest.approx(-np.sum(np.log(np.delete(sigma, 7))), rel=1e-14)
        held_out = x[:1].copy()
        held_out[0, 7] = 0.6
        assert net.standardized(held_out)[0, 7] == pytest.approx(0.5, rel=1e-12)


class TestEval:
    def test_scores_table(self, tmp_path, toy_archive, toy_model, capsys):
        scores = str(tmp_path / "scores.csv")
        rc, out, _ = run(
            capsys,
            "eval", "--model", toy_model, "--features", toy_archive,
            "--out-scores", scores, "--seed", "1",
        )
        assert rc == 0
        assert "accuracy=" in out and "n=24" in out
        body = [ln for ln in open(scores).read().splitlines() if not ln.startswith("#")]
        assert body[0] == "id,label,ll0,ll1,recon_stat"
        assert len(body) == 25

    def test_double_run_is_byte_identical(self, tmp_path, toy_archive, toy_model, capsys):
        blobs = []
        for tag in ("a", "b"):
            scores = str(tmp_path / f"s{tag}.csv")
            rc, _, _ = run(
                capsys,
                "eval", "--model", toy_model, "--features", toy_archive,
                "--out-scores", scores, "--seed", "1",
            )
            assert rc == 0
            blobs.append(read_bytes(scores))
        assert blobs[0] == blobs[1]

    def test_the_same_run_from_two_directories_writes_the_same_bytes(
        self, tmp_path, toy_archive, toy_model, wav_tree, capsys
    ):
        # every path argument is hashed into the header by its base name only
        blobs = []
        for root, slash in ((tmp_path / "one", ""), (tmp_path / "two" / "deeper", "/")):
            shutil.copytree(wav_tree, root / "wavs")
            shutil.copy(toy_model, root / "model.json")
            for argv in (
                ["extract", "--wav-dir", f"{root / 'wavs'}{slash}", "--out", str(root / "f.csv"),
                 "--n-train", "4", "--n-val", "2"],
                ["eval", "--model", str(root / "model.json"), "--features", toy_archive,
                 "--out-scores", str(root / "scores.csv")],
            ):
                assert run(capsys, *argv, "--seed", "1")[0] == 0
            blobs.append([read_bytes(root / name) for name in ("f.csv", "f_split.csv", "scores.csv")])
        assert blobs[0] == blobs[1]

    def test_label_the_model_has_no_class_for_exits_2(self, tmp_path, toy_archive, toy_model, capsys):
        data = read_archive(toy_archive)
        data.labels[::3] = 2
        three = str(tmp_path / "three.csv")
        write_archive_text(three, data)
        scores = tmp_path / "s.csv"
        rc, out, err = run(
            capsys, "eval", "--model", toy_model, "--features", three, "--out-scores", str(scores)
        )
        assert (rc, out, err) == (2, "", "error: label 2 outside 0..1\n")
        assert not scores.exists()

    def test_bad_stat_layer(self, tmp_path, toy_archive, toy_model, capsys):
        rc, _, err = run(
            capsys,
            "eval", "--model", toy_model, "--features", toy_archive,
            "--out-scores", str(tmp_path / "s.csv"), "--stat-layer", "9",
        )
        assert rc == 2
        assert "stat-layer" in err

    def test_each_layer_1_saddle_is_solved_once(self, tmp_path, toy_archive, toy_model, capsys, monkeypatch):
        # The reconstruction statistic starts from the layer-1 conditional
        # means the class-score trace already holds.
        solved = []
        real = saddlepoint.solve_saddle

        def counting(map_, prior, z_tilde, **kwargs):
            if kwargs.get("label") == "layer 1":
                solved.append(len(np.atleast_2d(z_tilde)))
            return real(map_, prior, z_tilde, **kwargs)

        monkeypatch.setattr(network, "solve_saddle", counting)
        monkeypatch.setattr(reconstruct, "solve_saddle", counting)
        rc, out, _ = run(
            capsys,
            "eval", "--model", toy_model, "--features", toy_archive,
            "--out-scores", str(tmp_path / "s.csv"), "--stat-layer", "1",
        )
        assert rc == 0 and "undefined=0" in out
        assert sum(solved) == 24

    def test_a_bug_in_the_walk_propagates(self, tmp_path, toy_archive, toy_model, capsys, monkeypatch):
        # Only the walk's own failures become a NaN statistic; any other
        # exception is a bug and must surface.
        def broken(*args, **kwargs):
            raise ValueError("bug in the walk")

        monkeypatch.setattr(reconstruct, "_walk_down", broken)
        with pytest.raises(ValueError, match="bug in the walk"):
            main(
                [
                    "eval", "--model", toy_model, "--features", toy_archive,
                    "--out-scores", str(tmp_path / "s.csv"),
                ]
            )


    def test_older_model_file_with_its_class_count_loads(self, tmp_path, toy_archive, capsys):
        # files written before the class count became the output width state it too
        model = tmp_path / "older.json"
        model.write_text(damaged_model(("output_prior", "n_classes"), 2))
        doc = json.loads(model.read_text())
        del doc["output_prior"]["n_classes"]
        assert network.network_to_dict(network.load_model(str(model))) == doc
        rc, out, _ = run(
            capsys,
            "eval", "--model", str(model), "--features", toy_archive,
            "--out-scores", str(tmp_path / "s.csv"),
        )
        assert rc == 0 and "n=24" in out

    @pytest.mark.parametrize(
        "text,reason",
        [
            ("{not json", "JSONDecodeError"),
            ('{"format":"pbn-model"}', "KeyError: 'layers'"),
            ('{"format":"pbn-model","layers":[{"bias":[0.0]}]}', "KeyError: 'map'"),
            ('{"format":"pbn-model","layers":5}', "TypeError"),
            ("[]", "AttributeError"),
            (damaged_model(("layers", 1, "map", "weights", 2, 1), math.nan),
             "ConfigError: layer 2 weights must be finite"),
            (damaged_model(("layers", 0, "bias", 1), math.inf),
             "ConfigError: layer 1 bias must be finite"),
            (damaged_model(("standardize", "mu", 3), math.nan),
             "ConfigError: standardization mu must be finite"),
            (damaged_model(("standardize", "sigma", 0), -math.inf),
             "ConfigError: standardization sigma must be finite"),
            (damaged_model(("output_prior", "c"), math.nan),
             "ConfigError: output prior c must be finite"),
            (damaged_model(("output_prior", "level"), math.inf),
             "ConfigError: output prior level must be finite"),
            (damaged_model(("output_prior", "n_classes"), 3),
             "ConfigError: output prior has 3 classes, last layer emits 2"),
        ],
        ids=[
            "not-json", "no-layers", "layer-without-map", "layers-not-a-list", "not-an-object",
            "nan-weight", "inf-bias", "nan-mu", "inf-sigma", "nan-c", "inf-level",
            "class-count-off-width",
        ],
    )
    def test_damaged_model_exits_2(self, tmp_path, toy_archive, capsys, text, reason):
        model = tmp_path / "damaged.json"
        model.write_text(text)
        rc, out, err = run(
            capsys,
            "eval", "--model", str(model), "--features", toy_archive,
            "--out-scores", str(tmp_path / "s.csv"),
        )
        assert (rc, out) == (2, "")
        assert err.startswith(f"error: {model}: not a pbn model ({reason}")


class TestReconstruct:
    def identity_model(self, tmp_path):
        layers = [
            LayerSpec(DenseMap(np.eye(3)), np.zeros(3), "gaussian", "linear"),
            LayerSpec(DenseMap(np.eye(3)), np.zeros(3), "gaussian", "linear"),
        ]
        path = str(tmp_path / "ident.json")
        save_model(Network(layers), path)
        return path

    def identity_archive(self, tmp_path):
        rng = np.random.default_rng(7)
        data = Dataset(rng.normal(size=(3, 3)), np.zeros(3, dtype=int), ["a", "b", "c"])
        path = str(tmp_path / "id3.csv")
        write_archive_text(path, data)
        return path

    def test_identity_network_zero_mse(self, tmp_path, capsys):
        model = self.identity_model(tmp_path)
        arch = self.identity_archive(tmp_path)
        out_dir = str(tmp_path / "rec")
        rc, out, _ = run(
            capsys,
            "reconstruct", "--model", model, "--features", arch,
            "--layer", "1", "--out-images", out_dir,
        )
        assert rc == 0
        body = [
            ln
            for ln in open(os.path.join(out_dir, "mse.csv")).read().splitlines()
            if not ln.startswith("#")
        ][1:]
        for ln in body:
            assert float(ln.split(",")[1]) < 1e-12

    def test_emits_image_pairs_and_raw_values(self, tmp_path, toy_archive, toy_model, capsys):
        out_dir = str(tmp_path / "rec2")
        rc, _, _ = run(
            capsys,
            "reconstruct", "--model", toy_model, "--features", toy_archive,
            "--layer", "1", "--out-images", out_dir, "--count", "2",
        )
        assert rc == 0
        names = sorted(os.listdir(out_dir))
        pgms = [n for n in names if n.endswith(".pgm")]
        assert len(pgms) == 4
        for name in pgms:
            assert read_bytes(os.path.join(out_dir, name)).startswith(b"P5\n")
        raw = [
            ln
            for ln in open(os.path.join(out_dir, "raw_values.csv")).read().splitlines()
            if not ln.startswith("#")
        ]
        assert len(raw) == 5
        kinds = [ln.split(",")[1] for ln in raw[1:]]
        assert kinds == ["orig", "recon", "orig", "recon"]

    def test_bad_layer(self, tmp_path, toy_archive, toy_model, capsys):
        rc, _, err = run(
            capsys,
            "reconstruct", "--model", toy_model, "--features", toy_archive,
            "--layer", "7", "--out-images", str(tmp_path / "x"),
        )
        assert rc == 2
        assert "--layer" in err

    def test_negative_count_exits_2(self, tmp_path, toy_archive, toy_model, capsys):
        out_dir = tmp_path / "x"
        rc, out, err = run(
            capsys,
            "reconstruct", "--model", toy_model, "--features", toy_archive,
            "--layer", "1", "--out-images", str(out_dir), "--count", "-3",
        )
        assert (rc, out) == (2, "")
        assert err == "error: --count must be at least 0\n"
        assert not out_dir.exists()


class TestSynthesize:
    def linear_model(self, tmp_path):
        rng = np.random.default_rng(8)
        layers = [
            LayerSpec(DenseMap(rng.normal(size=(4, 3))), np.zeros(3), "gaussian", "linear"),
            LayerSpec(DenseMap(rng.normal(size=(3, 2))), np.zeros(2), "gaussian", "linear"),
        ]
        path = str(tmp_path / "lin.json")
        save_model(Network(layers), path)
        return path

    def test_count_and_determinism(self, tmp_path, capsys):
        model = self.linear_model(tmp_path)
        dirs = []
        for tag in ("a", "b"):
            out_dir = str(tmp_path / f"syn{tag}")
            rc, out, _ = run(
                capsys,
                "synthesize", "--model", model, "--count", "3",
                "--seed", "5", "--out-images", out_dir,
            )
            assert rc == 0
            assert "synthesized 3/3" in out
            dirs.append(out_dir)
        names = sorted(os.listdir(dirs[0]))
        assert names == sorted(os.listdir(dirs[1]))
        assert len([n for n in names if n.endswith(".pgm")]) == 3
        for name in names:
            assert read_bytes(os.path.join(dirs[0], name)) == read_bytes(
                os.path.join(dirs[1], name)
            )

    def test_rejected_seeds_are_listed_with_layer_and_reason(self, tmp_path, capsys):
        # a tg prior reaches only the open cone of positive combinations of
        # the rows of W; seeds 5 and 7 draw outputs outside it, seed 6 inside
        w = np.array([[1.0, 0.5], [0.5, 1.0], [1.0, 1.0], [0.2, 0.8]])
        model = str(tmp_path / "tg.json")
        save_model(Network([LayerSpec(DenseMap(w), np.zeros(2), "truncated_gaussian", "linear")]), model)
        out_dir = str(tmp_path / "syn")
        rc, out, _ = run(
            capsys,
            "synthesize", "--model", model, "--count", "3", "--seed", "5", "--out-images", out_dir,
        )
        assert rc == 0
        assert "synthesized 1/3" in out
        raw = [ln for ln in open(os.path.join(out_dir, "raw_values.csv")) if not ln.startswith("#")]
        assert [ln.split(",")[0] for ln in raw[1:]] == ["synth_000006"]
        rejects = open(os.path.join(out_dir, "rejects.csv")).read().splitlines()
        assert rejects[0].startswith("#")
        assert rejects[1:] == [
            "id,seed,layer,reason",
            "synth_000005,5,1,saddle point not reached in 200 iterations",
            "synth_000007,7,1,saddle point not reached in 200 iterations",
        ]

    def test_negative_count_exits_2(self, tmp_path, capsys):
        out_dir = tmp_path / "syn"
        rc, out, err = run(
            capsys,
            "synthesize", "--model", self.linear_model(tmp_path), "--count", "-2",
            "--out-images", str(out_dir),
        )
        assert (rc, out) == (2, "")
        assert err == "error: --count must be at least 0\n"
        assert not out_dir.exists()

    def test_seed_changes_output(self, tmp_path, capsys):
        model = self.linear_model(tmp_path)
        outs = []
        for seed in ("5", "6"):
            out_dir = str(tmp_path / f"seed{seed}")
            rc, _, _ = run(
                capsys,
                "synthesize", "--model", model, "--count", "1",
                "--seed", seed, "--out-images", out_dir,
            )
            assert rc == 0
            raw = os.path.join(out_dir, "raw_values.csv")
            outs.append([ln for ln in open(raw) if not ln.startswith("#")][1])
        assert outs[0].split(",")[1:] != outs[1].split(",")[1:]


class TestOutofset:
    def subspace_model(self, tmp_path, coords, tag):
        w1 = np.zeros((4, 2))
        w1[coords[0], 0] = 1.0
        w1[coords[1], 1] = 1.0
        layers = [
            LayerSpec(DenseMap(w1), np.zeros(2), "gaussian", "linear"),
            LayerSpec(DenseMap(np.eye(2)), np.zeros(2), "gaussian", "linear"),
        ]
        path = str(tmp_path / f"sub{tag}.json")
        save_model(Network(layers), path)
        return path

    def subspace_archive(self, tmp_path, coords, tag, n=10):
        rng = np.random.default_rng(40 + coords[0])
        x = rng.normal(scale=0.01, size=(n, 4))
        x[:, coords] += rng.normal(scale=2.0, size=(n, 2))
        data = Dataset(x, np.zeros(n, dtype=int), [f"{tag}{i}" for i in range(n)])
        path = str(tmp_path / f"arch{tag}.csv")
        write_archive_text(path, data)
        return path

    def test_separates_subspaces(self, tmp_path, capsys):
        model_a = self.subspace_model(tmp_path, (0, 1), "a")
        model_b = self.subspace_model(tmp_path, (2, 3), "b")
        arch_a = self.subspace_archive(tmp_path, (0, 1), "a")
        arch_b = self.subspace_archive(tmp_path, (2, 3), "b")
        out = str(tmp_path / "oos.csv")
        rc, text, _ = run(
            capsys,
            "outofset", "--model-a", model_a, "--model-b", model_b,
            "--features-a", arch_a, "--features-b", arch_b, "--out", out,
        )
        assert rc == 0
        accuracy = float(text.split("accuracy=")[1].split()[0])
        assert accuracy >= 0.85
        body = [ln for ln in open(out).read().splitlines() if not ln.startswith("#")]
        assert body[0] == "id,true_model,stat_a,stat_b,decision"
        assert len(body) == 21

    def test_single_archive_mode(self, tmp_path, capsys):
        model_a = self.subspace_model(tmp_path, (0, 1), "a")
        model_b = self.subspace_model(tmp_path, (2, 3), "b")
        arch = self.subspace_archive(tmp_path, (0, 1), "solo")
        out = str(tmp_path / "solo.csv")
        rc, text, _ = run(
            capsys,
            "outofset", "--model-a", model_a, "--model-b", model_b,
            "--features", arch, "--out", out,
        )
        assert rc == 0
        assert "decisions for 10" in text
        body = [ln for ln in open(out).read().splitlines() if not ln.startswith("#")][1:]
        assert all(ln.split(",")[4] == "a" for ln in body)

    def test_a_bug_in_the_walk_propagates(self, tmp_path, capsys, monkeypatch):
        model = self.subspace_model(tmp_path, (0, 1), "x")
        arch = self.subspace_archive(tmp_path, (0, 1), "x")

        def broken(*args, **kwargs):
            raise ValueError("bug in the walk")

        monkeypatch.setattr(reconstruct, "_walk_down", broken)
        with pytest.raises(ValueError, match="bug in the walk"):
            main(["outofset", "--model-a", model, "--model-b", model, "--features", arch,
                  "--out", str(tmp_path / "o.csv")])

    def test_requires_exactly_one_mode(self, tmp_path, capsys):
        model = self.subspace_model(tmp_path, (0, 1), "x")
        rc, _, err = run(
            capsys,
            "outofset", "--model-a", model, "--model-b", model, "--out", str(tmp_path / "o.csv"),
        )
        assert rc == 2
        assert "--features" in err


class TestCombine:
    def score_table(self, tmp_path, flips=2):
        rows = ["id,label,ll0,ll1,recon_stat"]
        rng = np.random.default_rng(70)
        for i in range(10):
            label = i % 2
            margin = 2.0 if i >= flips else -2.0
            ll0 = margin if label == 0 else -margin
            ll0 += rng.normal(scale=0.1)
            rows.append(f"s{i:02d},{label},{ll0:.6f},0.0,1.0")
        path = tmp_path / "scores.csv"
        path.write_text("\n".join(rows) + "\n")
        return str(path)

    def external_table(self, tmp_path, ids_labels):
        rows = ["id,score0,score1"]
        for sample_id, label in ids_labels:
            hi, lo = (3.0, 0.0) if label == 0 else (0.0, 3.0)
            rows.append(f"{sample_id},{hi},{lo}")
        path = tmp_path / "external.csv"
        path.write_text("\n".join(rows) + "\n")
        return str(path)

    def test_sweep_endpoints_and_dominance(self, tmp_path, capsys):
        scores = self.score_table(tmp_path)
        ids_labels = [(f"s{i:02d}", i % 2) for i in range(10)]
        external = self.external_table(tmp_path, ids_labels)
        out = str(tmp_path / "sweep.csv")
        rc, _, _ = run(
            capsys,
            "combine", "--scores", scores, "--external", external,
            "--sweep", "10", "--out", out,
        )
        assert rc == 0
        body = [ln for ln in open(out).read().splitlines() if not ln.startswith("#")][1:]
        table = {float(ln.split(",")[0]): float(ln.split(",")[1]) for ln in body}
        assert len(table) == 11
        assert table[1.0] == 1.0
        assert max(table.values()) >= max(table[0.0], table[1.0])

    def test_score_family_without_spread_moves_no_threshold(self, tmp_path, capsys):
        # Every ll0 - ll1 is 1234.567, whose mean does not round exactly.  A
        # family with no spread standardizes to 0 (sigma = 1), so from w > 0
        # on the external family alone decides, even its scores near 0.
        assert np.all(np.abs(_standardize_on(np.full(7, 1234.567), np.zeros(7, bool))) < 1e-12)
        ext = [0.05, -3.0, 0.1, -2.0, 3.0, -0.05, 2.0, -0.1, 1.0, -1.0]
        scores, external = tmp_path / "scores.csv", tmp_path / "external.csv"
        scores.write_text("id,label,ll0,ll1\n" + "".join(f"s{i},{i % 2},1234.567,0.0\n" for i in range(10)))
        external.write_text("id,score\n" + "".join(f"s{i},{v}\n" for i, v in enumerate(ext)))
        out = str(tmp_path / "sweep.csv")
        rc, _, _ = run(
            capsys,
            "combine", "--scores", str(scores), "--external", str(external),
            "--sweep", "10", "--out", out,
        )
        assert rc == 0
        body = [ln for ln in open(out).read().splitlines() if not ln.startswith("#")][1:]
        table = {float(ln.split(",")[0]): float(ln.split(",")[1]) for ln in body}
        assert all(acc == 1.0 for w, acc in table.items() if w > 0.0)

    @pytest.mark.parametrize("sweep", ["0", "-1"])
    def test_sweep_below_one_exits_2(self, tmp_path, capsys, sweep):
        scores = self.score_table(tmp_path)
        external = self.external_table(tmp_path, [(f"s{i:02d}", i % 2) for i in range(10)])
        out = tmp_path / "sweep.csv"
        rc, text, err = run(
            capsys,
            "combine", "--scores", scores, "--external", external,
            "--sweep", sweep, "--out", str(out),
        )
        assert (rc, text) == (2, "")
        assert err == "error: --sweep must be at least 1\n"
        assert not out.exists()

    def test_id_mismatch_raises(self, tmp_path, capsys):
        scores = self.score_table(tmp_path)
        external = self.external_table(tmp_path, [("nope", 0)])
        rc, _, err = run(
            capsys,
            "combine", "--scores", scores, "--external", external,
            "--out", str(tmp_path / "o.csv"),
        )
        assert rc == 2
        assert "mismatch" in err

    def test_val_ids_standardization_subset(self, tmp_path, capsys):
        scores = self.score_table(tmp_path)
        ids_labels = [(f"s{i:02d}", i % 2) for i in range(10)]
        external = self.external_table(tmp_path, ids_labels)
        val = tmp_path / "val.txt"
        val.write_text("s00\ns01\ns02\ns03\n")
        out = str(tmp_path / "sweep_val.csv")
        rc, _, _ = run(
            capsys,
            "combine", "--scores", scores, "--external", external,
            "--sweep", "4", "--out", out, "--val-ids", str(val),
        )
        assert rc == 0
        body = [ln for ln in open(out).read().splitlines() if not ln.startswith("#")]
        assert body[0] == "weight,accuracy"
        assert len(body) == 6

    def test_unknown_val_id_raises(self, tmp_path, capsys):
        scores = self.score_table(tmp_path)
        ids_labels = [(f"s{i:02d}", i % 2) for i in range(10)]
        external = self.external_table(tmp_path, ids_labels)
        val = tmp_path / "val.txt"
        val.write_text("missing-id\n")
        rc, _, err = run(
            capsys,
            "combine", "--scores", scores, "--external", external,
            "--out", str(tmp_path / "o.csv"), "--val-ids", str(val),
        )
        assert rc == 2

    def test_missing_input_file_exits_2(self, tmp_path, capsys):
        external = self.external_table(tmp_path, [("s00", 0)])
        rc, _, err = run(
            capsys,
            "combine", "--scores", str(tmp_path / "missing.csv"), "--external", external,
            "--out", str(tmp_path / "o.csv"),
        )
        assert rc == 2
        assert err.startswith("error: ")
        assert "missing.csv" in err

    @pytest.mark.parametrize(
        "which, old, new",
        [
            ("scores", b"s03,1,", b"s03,one,"),
            ("scores", b",0.0,1.0", b",0.0x,1.0"),
            ("scores", b"s00", b"\xff"),
            ("external", b"s04,3.0", b"s04,three"),
            ("external", b"s00", b"\xff"),
            ("val", b"s01", b"\xff"),
            ("scores", b"ll1", b"llx"),
            ("scores", b"s01,", b"s00,"),
            ("external", b"score0,score1", b"a,b"),
        ],
    )
    def test_damaged_table_exits_2(self, tmp_path, capsys, which, old, new):
        # a non-numeric label or score, a byte that is never UTF-8, a
        # missing column, or a repeated id
        scores = self.score_table(tmp_path)
        external = self.external_table(tmp_path, [(f"s{i:02d}", i % 2) for i in range(10)])
        val = tmp_path / "val.txt"
        val.write_text("s00\ns01\n")
        path = {"scores": scores, "external": external, "val": str(val)}[which]
        text = read_bytes(path)
        assert old in text
        with open(path, "wb") as fh:
            fh.write(text.replace(old, new, 1))
        rc, _, err = run(
            capsys,
            "combine", "--scores", scores, "--external", external,
            "--out", str(tmp_path / "o.csv"), "--val-ids", str(val),
        )
        assert rc == 2
        assert err.startswith("error: ")


    def test_no_finite_pair_exits_2(self, tmp_path, capsys):
        scores = self.score_table(tmp_path)
        external = tmp_path / "external.csv"
        external.write_text("id,score\n" + "".join(f"s{i:02d},nan\n" for i in range(10)))
        rc, out, err = run(
            capsys,
            "combine", "--scores", scores, "--external", str(external),
            "--out", str(tmp_path / "o.csv"),
        )
        assert (rc, out) == (2, "")
        assert err == "error: no sample has finite scores in both families\n"


@settings(max_examples=examples(200), deadline=None)
@given(raw=st.binary(max_size=200) | st.text(alphabet=",#\n\r0a\xff", max_size=40).map(str.encode))
def test_read_csv_raises_only_package_errors(tmp_path_factory, raw):
    path = tmp_path_factory.mktemp("csv") / "table.csv"
    path.write_bytes(raw)
    try:
        columns, rows = _read_csv(str(path))
    except PbnError:
        return
    assert all(len(r) == len(columns) for r in rows)


class TestParser:
    def test_missing_subcommand(self, capsys):
        with pytest.raises(SystemExit):
            main([])

    def test_config_file_with_comments(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("# a comment\n\nC=50\n")
        text, values = parse_config(str(cfg))
        assert (text["C"], values["C"]) == ("50", 50.0)

    def test_config_rejects_bare_words(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("justaword\n")
        with pytest.raises(ConfigError):
            parse_config(str(cfg))
