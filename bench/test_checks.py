"""The benchmark's output checks pass on real outputs and fail on corrupted ones.

    python3 -m pytest bench/test_checks.py -q

Each workload is set up and run once at its quick size, in process; each
test then corrupts one output the way a fault would and asserts that the
check meant to catch it fails.
"""

import contextlib
import io
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import checks  # noqa: E402
import clips  # noqa: E402
import workloads  # noqa: E402
from pbn import cli  # noqa: E402
from pbn.network import load_model  # noqa: E402
from pbn.training import gradient  # noqa: E402

SEED = 1


def _pbn(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    assert rc == 0, f"pbn {' '.join(argv)} exited {rc}"
    return buf.getvalue()


def _run_quick(name, tmp_path_factory):
    """(workload, inputs dir, round dir, stdout by command) after one quick round."""
    workload = workloads.WORKLOADS[name](SEED, quick=True)
    base = tmp_path_factory.mktemp(name)
    inputs, out = str(base / "inputs"), str(base / "round0")
    os.makedirs(inputs)
    os.makedirs(out)
    workload.setup(inputs, _pbn)
    stdout = {}
    cwd = os.getcwd()
    os.chdir(out)
    try:
        for cmd in workload.commands(inputs, "."):
            stdout.setdefault(cmd.name, []).append(_pbn(cmd.argv))
    finally:
        os.chdir(cwd)
    return workload, inputs, out, stdout


@pytest.fixture(scope="module")
def ingest(tmp_path_factory):
    return _run_quick("ingest-pretrain", tmp_path_factory)


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    return _run_quick("train-generative", tmp_path_factory)


@pytest.fixture(scope="module")
def scored(tmp_path_factory):
    return _run_quick("score-invert", tmp_path_factory)


@pytest.mark.parametrize("fixture", ["ingest", "trained", "scored"])
def test_checks_pass_on_real_outputs(fixture, request):
    workload, inputs, out, stdout = request.getfixturevalue(fixture)
    assert workload.check(inputs, out, stdout) == []


# -- ingest-pretrain ----------------------------------------------------------


def _ingest(ran):
    _, inputs, out, _ = ran
    manifest = clips.load_manifest(os.path.join(inputs, "wav"))
    archive = checks.read_binary_archive(os.path.join(out, "feats.pbnf"))
    return inputs, out, manifest, archive


def test_archive_mismatch_fails(ingest):
    _, out, _, binary = _ingest(ingest)
    text = checks.read_text_archive(os.path.join(out, "feats.txt"))
    assert checks.check_archives_identical(text, binary) == []
    binary["x"][3, 17] = np.nextafter(binary["x"][3, 17], np.inf)
    assert checks.check_archives_identical(text, binary)


def test_band_order_reversed_fails(ingest):
    _, _, manifest, archive = _ingest(ingest)
    row = archive["ids"].index(manifest["clips"][1]["id"])
    archive["x"][row] = archive["x"][row].reshape(45, 20)[:, ::-1].ravel()
    assert checks.check_peak_bands(archive, manifest)


def test_padding_off_by_an_ulp_fails(ingest):
    _, _, manifest, archive = _ingest(ingest)
    short = next(c for c in manifest["clips"] if c["length"] < 12032)
    row = archive["ids"].index(short["id"])
    archive["x"][row, -1] = np.nextafter(archive["x"][row, -1], 0.0)
    assert checks.check_padding(archive, manifest)


def test_id_in_two_splits_fails(ingest):
    _, out, manifest, _ = _ingest(ingest)
    _, rows = checks.read_table(os.path.join(out, "split.csv"))
    size = ingest[0].size
    assert checks.check_split(rows, manifest, size["n_train"], size["n_val"]) == []
    moved = [list(r) for r in rows]
    moved[0][2] = "val" if moved[0][2] != "val" else "train"
    assert checks.check_split(moved, manifest, size["n_train"], size["n_val"])
    assert checks.check_split(rows + [rows[0][:2] + ["test"]], manifest, size["n_train"], size["n_val"])


def test_swapped_logit_columns_fail(ingest):
    _, out, _, archive = _ingest(ingest)
    _, rows = checks.read_table(os.path.join(out, "split.csv"))
    history = checks.read_history(os.path.join(out, "model_history.csv"))
    model = checks.Model(os.path.join(out, "model.json"))
    a, b, act = model.layers[-1]
    model.layers[-1] = (a[::-1], b[::-1], act)
    assert checks.check_logit_accuracy(model, archive, rows, history, minimum=0.9)


# -- train-generative ---------------------------------------------------------


def test_history_faults_fail(trained):
    workload, _, out, _ = trained
    size = workload.size
    history = checks.read_history(os.path.join(out, "model_history.csv"))
    assert checks.check_history(history, size["pretrain_epochs"], size["epochs"]) == []
    assert checks.check_history(history[:-1], size["pretrain_epochs"], size["epochs"])
    undefined = [dict(h) for h in history]
    undefined[-1]["efficiency"] = "0.75"
    assert checks.check_history(undefined, size["pretrain_epochs"], size["epochs"])
    diverged = [dict(h) for h in history]
    diverged[-1]["objective"] = "nan"
    assert checks.check_history(diverged, size["pretrain_epochs"], size["epochs"])


def test_gradient_with_one_sign_flipped_fails(trained):
    workload, inputs, out, _ = trained
    archive = checks.read_binary_archive(os.path.join(inputs, "feats.pbnf"))
    samples = [(archive["x"][i], int(archive["labels"][i])) for i in (0, len(archive["ids"]) - 1)]
    net = load_model(os.path.join(out, "model.json"))

    def flipped(net, x, label):
        grads_w, grads_b, ll = gradient(net, x, label=label)
        grads_w[2] = -grads_w[2]
        return grads_w, grads_b, ll

    assert checks.check_gradient(checks.gradient_errors(net, samples, gradient, SEED), workload.GRADIENT_TOL) == []
    assert checks.check_gradient(checks.gradient_errors(net, samples, flipped, SEED), workload.GRADIENT_TOL)


# -- score-invert ---------------------------------------------------------------


def _scored(ran):
    _, inputs, out, stdout = ran
    model = checks.Model(os.path.join(inputs, "model.json"))
    archive = checks.read_binary_archive(os.path.join(inputs, "eval.pbnf"))
    scores = checks.parse_scores(os.path.join(out, "scores.csv"))
    return inputs, out, stdout, model, archive, scores


def test_swapped_label_columns_fail(scored):
    _, _, stdout, model, archive, scores = _scored(scored)
    scores["ll"] = scores["ll"][:, ::-1]
    assert checks.check_eval_accuracy(stdout["eval"][0], scores)
    assert checks.check_output_difference(model, archive, scores)


def test_recon_stat_off_fails(scored):
    _, _, _, model, archive, scores = _scored(scored)
    scores["recon_stat"][0] *= 1.0 + 1e-6
    assert checks.check_recon_stat(model, archive, scores)


def test_perturbed_reconstruction_fails(scored):
    workload, out = scored[0], scored[2]
    _, _, _, model, _, _ = _scored(scored)
    orig, recon = checks.raw_pairs(os.path.join(out, "recon", "raw_values.csv"))
    layer = workload.size["layer"]
    assert checks.check_layer_reconstruction(model, orig, recon, layer) == []
    rng = np.random.default_rng(0)
    bumped = recon.copy()
    bumped[0] += 1e-3 * rng.standard_normal(recon.shape[1])
    assert checks.check_layer_reconstruction(model, orig, bumped, layer)


def test_combine_against_other_scores_fails(scored):
    inputs, out, _, _, _, scores = _scored(scored)
    _, sweep = checks.read_table(os.path.join(out, "sweep.csv"))
    _, ext_rows = checks.read_table(os.path.join(inputs, "external.csv"))
    external = [(r[0], float(r[1])) for r in ext_rows]
    assert checks.check_combine(sweep, scores, external) == []
    assert checks.check_combine(sweep, scores, [(i, -v) for i, v in external])
    assert checks.check_combine(sweep[:-1], scores, external)


def test_missing_reconstructions_fail(scored):
    workload, _, _, stdout = scored
    want = workload.size["reconstruct"]
    assert checks.check_counts(stdout["reconstruct"][0], "reconstructed", want) == []
    assert checks.check_counts(f"reconstructed {want - 1}/{want} through layer 4", "reconstructed", want)
