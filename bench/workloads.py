"""The three benchmark workloads: inputs, timed commands and output checks.

A workload sets up its inputs once per set-up (synthetic clips, and for
the later stages an archive and a model made by ``pbn`` itself), then
names the ``pbn`` commands of one round.  A round is the unit the
benchmark repeats; every round runs the same commands on the same inputs
and must write byte-identical outputs.

Each command carries the number of sample-operations it attempts (one
clip extracted, one sample-epoch of pretraining or likelihood training,
one validation sample evaluated, one sample scored or reconstructed,
one row combined) and reads from its own outputs how many of them
failed.
"""

import os
import re
from dataclasses import dataclass
from typing import Callable

import checks
import clips


@dataclass
class Command:
    name: str  # the pbn subcommand
    argv: list
    ops: int  # sample-operations attempted
    failed: Callable  # (ops, stdout, round dir) -> failed sample-operations, given exit status 0


def _made(pattern):
    def failed(ops, stdout, out):
        match = re.search(pattern, stdout)
        return ops - int(match.group(1)) if match else ops

    return failed


def _undefined(ops, stdout, out):
    match = re.search(r"n=(\d+) undefined=(\d+)", stdout)
    return int(match.group(2)) + ops - int(match.group(1)) if match else ops


def _config(path, **values):
    with open(path, "w") as fh:
        fh.writelines(f"{k}={v}\n" for k, v in values.items())
    return path


def _train_failed(n_train, n_val):
    """Sample-operations lost to undefined samples or to epochs that never ran."""

    def failed(ops, stdout, out):
        history_path = os.path.join(out, "model_history.csv")
        if not os.path.exists(history_path):
            return ops
        done = sum(float(h["efficiency"]) * n_train + n_val for h in checks.read_history(history_path))
        return ops - int(round(done))

    return failed


class Workload:
    name = ""
    pretrain_sample_epochs = 0  # per round, the base of training.pretrain_sample_ms

    def __init__(self, seed, quick):
        self.seed = seed
        self.size = self.QUICK if quick else self.FULL
        self.notes = {}  # figures a check measured, kept in the run record

    def setup(self, inputs, pbn):
        raise NotImplementedError

    def commands(self, inputs, out):
        """The pbn commands of one round; ``out`` is the round's output directory."""
        raise NotImplementedError

    def check(self, inputs, out, stdout):
        raise NotImplementedError


class IngestPretrain(Workload):
    """Features, archive I/O, start-up and the discriminative warm start; no saddle solves."""

    name = "ingest-pretrain"
    # small enough for about eight rounds in a 38-s run, not seven: the mean over more is steadier
    FULL = dict(per_class=80, n_train=50, n_val=15, pretrain_epochs=5, batch_size=20)
    QUICK = dict(per_class=16, n_train=8, n_val=4, pretrain_epochs=5, batch_size=4)

    def __init__(self, seed, quick):
        super().__init__(seed, quick)
        self.pretrain_sample_epochs = 2 * self.size["n_train"] * self.size["pretrain_epochs"]

    def setup(self, inputs, pbn):
        s = self.size
        clips.generate(os.path.join(inputs, "wav"), s["per_class"], self.seed)
        _config(
            os.path.join(inputs, "pretrain.cfg"),
            epochs=0,
            pretrain_epochs=s["pretrain_epochs"],
            batch_size=s["batch_size"],
        )

    def commands(self, inputs, out):
        s = self.size
        n = 2 * s["per_class"]
        wav = os.path.join(inputs, "wav")
        split = ["--n-train", str(s["n_train"]), "--n-val", str(s["n_val"]), "--seed", str(self.seed)]
        text, binary = os.path.join(out, "feats.txt"), os.path.join(out, "feats.pbnf")
        split_path = os.path.join(out, "split.csv")
        extracted = _made(r"extracted (\d+) samples")
        return [
            Command(
                "extract",
                ["extract", "--wav-dir", wav, "--out", text, "--out-split", os.path.join(out, "split_text.csv")]
                + split,
                n,
                extracted,
            ),
            Command(
                "extract",
                ["extract", "--wav-dir", wav, "--out", binary, "--binary", "--out-split", split_path] + split,
                n,
                extracted,
            ),
            Command(
                "train",
                [
                    "train", "--features", binary, "--split", split_path,
                    "--config", os.path.join(inputs, "pretrain.cfg"), "--pretrain",
                    "--out-model", os.path.join(out, "model.json"), "--seed", str(self.seed),
                ],
                2 * (s["n_train"] + s["n_val"]) * s["pretrain_epochs"],
                _train_failed(2 * s["n_train"], 2 * s["n_val"]),
            ),
        ]

    def check(self, inputs, out, stdout):
        s = self.size
        manifest = clips.load_manifest(os.path.join(inputs, "wav"))
        text = checks.read_text_archive(os.path.join(out, "feats.txt"))
        binary = checks.read_binary_archive(os.path.join(out, "feats.pbnf"))
        _, split_rows = checks.read_table(os.path.join(out, "split.csv"))
        history = checks.read_history(os.path.join(out, "model_history.csv"))
        model = checks.Model(os.path.join(out, "model.json"))
        return (
            checks.check_archives_identical(text, binary)
            + checks.check_peak_bands(binary, manifest)
            + checks.check_padding(binary, manifest)
            + checks.check_split(split_rows, manifest, s["n_train"], s["n_val"])
            + checks.check_logit_accuracy(model, binary, split_rows, history, minimum=0.9)
        )


class TrainGenerative(Workload):
    """Likelihood training: interior trace, Gram factors and the gradient backsweep."""

    name = "train-generative"
    FULL = dict(per_class=24, n_train=16, n_val=6, pretrain_epochs=10, epochs=2, batch_size=8)
    QUICK = dict(per_class=6, n_train=3, n_val=2, pretrain_epochs=3, epochs=1, batch_size=3)
    LEARNING_RATE = 1e-5  # 1e-4 diverges within the first epoch after the warm start
    GRADIENT_TOL = 1e-5

    def __init__(self, seed, quick):
        super().__init__(seed, quick)
        self.pretrain_sample_epochs = 2 * self.size["n_train"] * self.size["pretrain_epochs"]

    def setup(self, inputs, pbn):
        s = self.size
        clips.generate(os.path.join(inputs, "wav"), s["per_class"], self.seed)
        pbn(
            [
                "extract", "--wav-dir", os.path.join(inputs, "wav"),
                "--out", os.path.join(inputs, "feats.pbnf"), "--binary",
                "--n-train", str(s["n_train"]), "--n-val", str(s["n_val"]), "--seed", str(self.seed),
            ]
        )
        _config(
            os.path.join(inputs, "train.cfg"),
            epochs=s["epochs"],
            learning_rate=self.LEARNING_RATE,
            pretrain_epochs=s["pretrain_epochs"],
            batch_size=s["batch_size"],
        )

    def commands(self, inputs, out):
        s = self.size
        epochs = s["pretrain_epochs"] + s["epochs"]
        return [
            Command(
                "train",
                [
                    "train", "--features", os.path.join(inputs, "feats.pbnf"),
                    "--split", os.path.join(inputs, "feats_split.csv"),
                    "--config", os.path.join(inputs, "train.cfg"), "--pretrain",
                    "--out-model", os.path.join(out, "model.json"), "--seed", str(self.seed),
                ],
                2 * (s["n_train"] + s["n_val"]) * epochs,
                _train_failed(2 * s["n_train"], 2 * s["n_val"]),
            )
        ]

    def check(self, inputs, out, stdout):
        from pbn.features import read_archive
        from pbn.network import load_model
        from pbn.training import gradient

        s = self.size
        history = checks.read_history(os.path.join(out, "model_history.csv"))
        fails = checks.check_history(history, s["pretrain_epochs"], s["epochs"])
        data = read_archive(os.path.join(inputs, "feats.pbnf"))
        _, split_rows = checks.read_table(os.path.join(inputs, "feats_split.csv"))
        train_ids = [r[0] for r in split_rows if r[2] == "train"]
        rows = [data.ids.index(i) for i in (train_ids[0], train_ids[-1])]
        samples = [(data.x[i], int(data.labels[i])) for i in rows]
        net = load_model(os.path.join(out, "model.json"))
        errors = checks.gradient_errors(net, samples, gradient, self.seed)
        self.notes["gradient_max_rel_err"] = max(errors)
        return fails + checks.check_gradient(errors, self.GRADIENT_TOL)


class ScoreInvert(Workload):
    """Scoring and reconstruction with a model fixed at set-up; no backsweep.

    ``pbn synthesize`` is not timed here: on a warm-start-only model some
    seeds give layer-4 targets outside the feasible cone, so whether its
    samples succeed depends on the seed (see CHANGES.md).
    """

    name = "score-invert"
    FULL = dict(per_class=30, n_train=20, n_val=10, pretrain_epochs=10, batch_size=10,
                held_out=24, layer=4, reconstruct=24, sweep=10)
    QUICK = dict(per_class=6, n_train=4, n_val=2, pretrain_epochs=3, batch_size=4,
                 held_out=3, layer=4, reconstruct=3, sweep=4)

    def setup(self, inputs, pbn):
        s = self.size
        common = ["--seed", str(self.seed), "--binary"]
        clips.generate(os.path.join(inputs, "wav"), s["per_class"], self.seed)
        clips.generate(os.path.join(inputs, "held_out"), s["held_out"], [self.seed, 1])
        pbn(["extract", "--wav-dir", os.path.join(inputs, "wav"), "--out", os.path.join(inputs, "train.pbnf"),
             "--n-train", str(s["n_train"]), "--n-val", str(s["n_val"])] + common)
        pbn(["extract", "--wav-dir", os.path.join(inputs, "held_out"), "--out", os.path.join(inputs, "eval.pbnf"),
             "--n-train", "0", "--n-val", "0"] + common)
        cfg = _config(
            os.path.join(inputs, "pretrain.cfg"),
            epochs=0,
            pretrain_epochs=s["pretrain_epochs"],
            batch_size=s["batch_size"],
        )
        pbn(["train", "--features", os.path.join(inputs, "train.pbnf"), "--split",
             os.path.join(inputs, "train_split.csv"), "--config", cfg, "--pretrain",
             "--out-model", os.path.join(inputs, "model.json"), "--seed", str(self.seed)])
        write_external_scores(
            os.path.join(inputs, "train.pbnf"), os.path.join(inputs, "eval.pbnf"),
            os.path.join(inputs, "external.csv"),
        )

    def commands(self, inputs, out):
        s = self.size
        n_eval = 2 * s["held_out"]
        model, feats = os.path.join(inputs, "model.json"), os.path.join(inputs, "eval.pbnf")
        scores = os.path.join(out, "scores.csv")
        seed = str(self.seed)
        return [
            Command("eval", ["eval", "--model", model, "--features", feats, "--out-scores", scores, "--seed", seed],
                    n_eval, _undefined),
            Command(
                "reconstruct",
                ["reconstruct", "--model", model, "--features", feats, "--layer", str(s["layer"]),
                 "--count", str(s["reconstruct"]), "--out-images", os.path.join(out, "recon"), "--seed", seed],
                s["reconstruct"],
                _made(r"reconstructed (\d+)/"),
            ),
            Command(
                "combine",
                ["combine", "--scores", scores, "--external", os.path.join(inputs, "external.csv"),
                 "--sweep", str(s["sweep"]), "--out", os.path.join(out, "sweep.csv"), "--seed", seed],
                n_eval,
                _made(r"combine: n=(\d+)"),
            ),
        ]

    def check(self, inputs, out, stdout):
        s = self.size
        model = checks.Model(os.path.join(inputs, "model.json"))
        archive = checks.read_binary_archive(os.path.join(inputs, "eval.pbnf"))
        scores = checks.parse_scores(os.path.join(out, "scores.csv"))
        orig, recon = checks.raw_pairs(os.path.join(out, "recon", "raw_values.csv"))
        _, ext_rows = checks.read_table(os.path.join(inputs, "external.csv"))
        _, sweep = checks.read_table(os.path.join(out, "sweep.csv"))
        return (
            checks.check_eval_accuracy(stdout["eval"][0], scores)
            + checks.check_output_difference(model, archive, scores)
            + checks.check_recon_stat(model, archive, scores)
            + checks.check_layer_reconstruction(model, orig, recon, s["layer"])
            + checks.check_counts(stdout["reconstruct"][0], "reconstructed", s["reconstruct"])
            + checks.check_combine(sweep, scores, [(r[0], float(r[1])) for r in ext_rows])
        )


def write_external_scores(train_path, eval_path, out_path):
    """A nearest-class-mean score on the log-mel features, apart from pbn.

    Positive scores lean to class 0; the score is w'(x - c) with w the
    difference of the class means and c their midpoint.
    """
    train = checks.read_binary_archive(train_path)
    held = checks.read_binary_archive(eval_path)
    m0 = train["x"][train["labels"] == 0].mean(axis=0)
    m1 = train["x"][train["labels"] == 1].mean(axis=0)
    score = (held["x"] - 0.5 * (m0 + m1)) @ (m0 - m1)
    with open(out_path, "w") as fh:
        fh.write("id,score\n")
        fh.writelines(f"{i},{v:.17g}\n" for i, v in zip(held["ids"], score))


WORKLOADS = {w.name: w for w in (IngestPretrain, TrainGenerative, ScoreInvert)}
