"""Output checks for the benchmark workloads.

Each check compares a ``pbn`` output with a computation made here, apart
from the program, or with a property the method must have; none compares
with a stored copy of an earlier output.  The readers, the convolution
matrices and the forward pass below are written from the file formats
and the model definition, not taken from ``pbn``.  The one check that
calls into ``pbn`` (the gradient) tests a property linking two of its
functions: the analytic gradient against finite differences of the
likelihood.

Every check returns a list of failure messages; an empty list passes.
"""

import json
import math
import re
import struct

import numpy as np
from scipy.special import erfcx, expit

from clips import RATE, instantaneous_hz

WINDOW, HOP, N_FRAMES, N_BANDS, FMAX = 768, 256, 45, 20, 8000.0
FLOOR = math.log(1e-10)
MSE_FLOOR = 1e-12


# ---------------------------------------------------------------------------
# readers


def read_table(path):
    """CSV with leading ``#`` comment lines: (columns, rows of strings)."""
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh if not ln.startswith("#")]
    return lines[0].split(","), [ln.split(",") for ln in lines[1:] if ln]


def read_text_archive(path):
    columns, rows = read_table(path)
    if columns[:2] != ["id", "label"]:
        raise ValueError(f"{path}: not a text archive")
    return {
        "ids": [r[0] for r in rows],
        "labels": np.array([int(r[1]) for r in rows]),
        "x": np.array([[float(v) for v in r[2:]] for r in rows]),
    }


def read_binary_archive(path):
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:8] != b"PBNFEAT\x00":
        raise ValueError(f"{path}: not a binary archive")
    _, count, dim = struct.unpack_from("<III", blob, 8)
    pos, ids, labels, rows = 20, [], [], []
    for _ in range(count):
        (n,) = struct.unpack_from("<H", blob, pos)
        ids.append(blob[pos + 2 : pos + 2 + n].decode("utf-8"))
        pos += 2 + n
        labels.append(struct.unpack_from("<i", blob, pos)[0])
        rows.append(np.frombuffer(blob, dtype="<f8", count=dim, offset=pos + 4))
        pos += 4 + 8 * dim
    return {"ids": ids, "labels": np.array(labels), "x": np.array(rows)}


def read_history(path):
    columns, rows = read_table(path)
    return [dict(zip(columns, r)) for r in rows]


# ---------------------------------------------------------------------------
# the model, computed from its JSON file


def conv_matrix(weights, in_shape, strides):
    """Dense matrix of a centered, zero-padded, strided 2-d cross-correlation."""
    k = np.asarray(weights, dtype=np.float64)
    c_out, c_in, kh, kw = k.shape
    _, h, w = in_shape
    sy, sx = strides
    h_out, w_out = h // sy, w // sx
    a = np.zeros((c_out, h_out, w_out, c_in, h, w))
    for ty in range(h_out):
        for tx in range(w_out):
            for dy in range(kh):
                iy = ty * sy + dy - (kh - 1) // 2
                if not 0 <= iy < h:
                    continue
                for dx in range(kw):
                    ix = tx * sx + dx - (kw - 1) // 2
                    if 0 <= ix < w:
                        a[:, ty, tx, :, iy, ix] += k[:, :, dy, dx]
    return a.reshape(c_out * h_out * w_out, c_in * h * w)


def tg_mean(a):
    """Mean of the exponentially tilted half-normal: a + N(a)/Phi(a)."""
    return a + math.sqrt(2.0 / math.pi) / erfcx(-a / math.sqrt(2.0))


ACTIVATIONS = {"linear": lambda z: z, "tg": tg_mean}


class Model:
    """Matrices, biases and activations read from a model JSON file."""

    def __init__(self, path):
        with open(path) as fh:
            doc = json.load(fh)
        self.layers = []
        for layer in doc["layers"]:
            m = layer["map"]
            if m["type"] == "conv":
                a = conv_matrix(m["weights"], m["in_shape"], m["strides"])
            else:
                a = np.asarray(m["weights"], dtype=np.float64).T
            self.layers.append((a, np.asarray(layer["bias"]), layer["activation"]))
        self.mu = np.asarray(doc["standardize"]["mu"])
        self.sigma = np.asarray(doc["standardize"]["sigma"])
        self.c = float(doc["output_prior"]["c"])
        self.level = float(doc["output_prior"]["level"])

    def forward(self, x_raw):
        """Preactivations z_1..z_L of each row of x_raw."""
        x = (np.atleast_2d(x_raw) - self.mu) / self.sigma
        zs = []
        for a, b, act in self.layers:
            z = x @ a.T + b
            zs.append(z)
            if act != "shift":
                x = ACTIVATIONS[act](z)
        return zs

    def shifted(self, z_last, label):
        """The output shift x = z + C(sigma(3z) - 1/2) - s (L + C/2)/L under a label."""
        s = np.full(z_last.shape[-1], -self.level)
        s[label] = self.level
        return z_last + self.c * (expit(3.0 * z_last) - 0.5) - s * (self.level + 0.5 * self.c) / self.level


# ---------------------------------------------------------------------------
# ingest-pretrain


def check_archives_identical(text, binary):
    fails = []
    if text["ids"] != binary["ids"]:
        fails.append("text and binary archives hold different ids")
    if not np.array_equal(text["labels"], binary["labels"]):
        fails.append("text and binary archives hold different labels")
    if text["x"].shape != binary["x"].shape or not np.array_equal(text["x"], binary["x"]):
        fails.append("text and binary archives hold different feature values")
    return fails


def _complete_frames(length):
    return min(N_FRAMES, max(0, 1 + (length - WINDOW) // HOP))


def _mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f) / 700.0)


def check_peak_bands(archive, manifest):
    """Each frame's loudest band holds the generator's frequency, within one band."""
    centers = _mel(FMAX) * np.arange(1, N_BANDS + 1) / (N_BANDS + 1)
    row_of = {s: i for i, s in enumerate(archive["ids"])}
    fails = []
    for clip in manifest["clips"]:
        feats = archive["x"][row_of[clip["id"]]].reshape(N_FRAMES, N_BANDS)
        n = _complete_frames(clip["length"])
        t_center = (np.arange(n) * HOP + WINDOW / 2) / RATE
        expected = np.argmin(np.abs(_mel(instantaneous_hz(clip, t_center))[:, None] - centers), axis=1)
        off = np.abs(np.argmax(feats[:n], axis=1) - expected)
        if np.any(off > 1):
            fails.append(f"{clip['id']}: {int(np.sum(off > 1))} frames peak away from the tone")
    return fails


def check_padding(archive, manifest):
    """Frames past a clip's last complete window equal log(1e-10) exactly."""
    row_of = {s: i for i, s in enumerate(archive["ids"])}
    fails, padded = [], 0
    for clip in manifest["clips"]:
        n = _complete_frames(clip["length"])
        if n == N_FRAMES:
            continue
        padded += 1
        feats = archive["x"][row_of[clip["id"]]].reshape(N_FRAMES, N_BANDS)
        if not np.all(feats[n:] == FLOOR):
            fails.append(f"{clip['id']}: padding frames are not log(1e-10)")
        if np.any(np.all(feats[:n] == FLOOR, axis=1)):
            fails.append(f"{clip['id']}: a complete frame reads as padding")
    if padded == 0:
        fails.append("no clip is short enough to need padding")
    return fails


def check_split(split_rows, manifest, n_train, n_val):
    """Split sizes per class match the request and no id is in two splits."""
    ids = [r[0] for r in split_rows]
    fails = []
    if len(set(ids)) != len(ids):
        fails.append("an id appears more than once in the split manifest")
    if set(ids) != {c["id"] for c in manifest["clips"]}:
        fails.append("split manifest ids differ from the generated clips")
    per_class = {}
    for c in manifest["clips"]:
        per_class[c["label"]] = per_class.get(c["label"], 0) + 1
    for label, total in per_class.items():
        got = {s: sum(1 for r in split_rows if r[1] == str(label) and r[2] == s) for s in ("train", "val", "test")}
        want = {"train": n_train, "val": n_val, "test": total - n_train - n_val}
        if got != want:
            fails.append(f"class {label}: split sizes {got}, requested {want}")
    return fails


def logit_accuracy(model, x, labels):
    return float(np.mean(np.argmax(model.forward(x)[-1], axis=1) == labels))


def check_logit_accuracy(model, archive, split_rows, history, minimum):
    """Validation accuracy of the logits is high and matches the training history."""
    val = {r[0] for r in split_rows if r[2] == "val"}
    rows = [i for i, s in enumerate(archive["ids"]) if s in val]
    acc = logit_accuracy(model, archive["x"][rows], archive["labels"][rows])
    best = max(float(h["val_accuracy"]) for h in history if h["phase"] == "pretrain")
    fails = []
    if acc < minimum:
        fails.append(f"validation accuracy on the logits {acc:.3f} < {minimum}")
    if abs(acc - best) > 1e-12:
        fails.append(f"recomputed validation accuracy {acc} != best in history {best}")
    return fails


# ---------------------------------------------------------------------------
# train-generative


def check_history(history, pretrain_epochs, epochs):
    """One row per epoch of each phase, finite objectives, efficiency 1."""
    want = [("pretrain", e) for e in range(1, pretrain_epochs + 1)] + [
        ("pbn", e) for e in range(1, epochs + 1)
    ]
    got = [(h["phase"], int(h["epoch"])) for h in history]
    fails = []
    if got != want:
        fails.append(f"history rows {got} != expected {want}")
    if not all(math.isfinite(float(h["objective"])) for h in history):
        fails.append("a history objective is not finite")
    if any(float(h["efficiency"]) != 1.0 for h in history):
        fails.append("efficiency below 1: some training samples were undefined")
    return fails


def gradient_errors(net, samples, grad_fn, seed, steps=(1e-3, 1e-4, 1e-5)):
    """Relative error of grad_fn against central differences of log_likelihood.

    One random unit direction per layer's weights, for each (x, label)
    sample; returns one relative error per direction, the smallest over
    the step sizes.  Truncation dominates at the largest step and
    rounding at the smallest, and the likelihood jumps by about 1e-9
    where a saddle solve needs one iteration more, which a single step
    can straddle: on the trained word-pair net one direction read
    3.7e-5 at step 1e-4 and 5e-8 at 1e-5.  A wrong gradient is wrong at
    every step.
    """
    rng = np.random.default_rng(seed)
    errors = []
    for x, label in samples:
        grads_w, _, _ = grad_fn(net, x, label=label)
        for l, spec in enumerate(net.layers):
            d = rng.standard_normal(spec.map.params.shape)
            d /= np.linalg.norm(d)

            def ll_at(t):
                params = [s.map.params + (t * d if k == l else 0.0) for k, s in enumerate(net.layers)]
                moved = net.with_layer_params(params, [s.bias for s in net.layers])
                return moved.log_likelihood(x, label=label).total

            an = float(np.sum(grads_w[l] * d))
            fds = [(ll_at(eps) - ll_at(-eps)) / (2.0 * eps) for eps in steps]
            errors.append(min(abs(fd - an) / max(abs(an), abs(fd), 1e-300) for fd in fds))
    return errors


def check_gradient(errors, tol):
    worst = max(errors)
    return [] if worst <= tol else [f"gradient disagrees with finite differences: rel err {worst:.3g} > {tol}"]


# ---------------------------------------------------------------------------
# score-invert


def parse_scores(path):
    columns, rows = read_table(path)
    col = {c: i for i, c in enumerate(columns)}
    return {
        "ids": [r[col["id"]] for r in rows],
        "labels": np.array([int(r[col["label"]]) for r in rows]),
        "ll": np.array([[float(r[col["ll0"]]), float(r[col["ll1"]])] for r in rows]),
        "recon_stat": np.array([float(r[col["recon_stat"]]) for r in rows]),
    }


def check_eval_accuracy(stdout, scores):
    """The printed accuracy equals argmax accuracy recomputed from the score table."""
    match = re.search(r"accuracy=([0-9.]+) n=(\d+) undefined=(\d+)", stdout)
    if not match:
        return ["eval printed no accuracy line"]
    acc = float(np.mean(np.argmax(scores["ll"], axis=1) == scores["labels"]))
    fails = []
    if match.group(1) != f"{acc:.4f}":
        fails.append(f"printed accuracy {match.group(1)} != recomputed {acc:.4f}")
    if int(match.group(2)) != len(scores["ids"]) or int(match.group(3)) != 0:
        fails.append(f"eval reports n={match.group(2)} undefined={match.group(3)}")
    return fails


def check_output_difference(model, archive, scores, tol=1e-8):
    """ll0 - ll1 is the output-stage difference, computed from the logits alone.

    The interior terms and the shift Jacobian do not depend on the
    label, so only the standard normal on the shifted output differs.
    """
    row_of = {s: i for i, s in enumerate(archive["ids"])}
    z = model.forward(archive["x"][[row_of[s] for s in scores["ids"]]])[-1]
    x0, x1 = model.shifted(z, 0), model.shifted(z, 1)
    want = 0.5 * (np.sum(x1 * x1, axis=1) - np.sum(x0 * x0, axis=1))
    got = scores["ll"][:, 0] - scores["ll"][:, 1]
    err = np.abs(got - want) / (1.0 + np.abs(scores["ll"][:, 0]))
    return [] if np.all(err <= tol) else [f"ll0 - ll1 off the output-stage difference by {err.max():.3g}"]


def check_recon_stat(model, archive, scores, tol=1e-8):
    """recon_stat at layer 1 is -log MSE of the minimum-norm preimage of z_1.

    Layer 1 has a Gaussian prior, so its conditional mean given
    A x = z is the least-squares minimum-norm solution.
    """
    a, _, _ = model.layers[0]
    row_of = {s: i for i, s in enumerate(archive["ids"])}
    x = archive["x"][[row_of[s] for s in scores["ids"]]]
    x1 = (x - model.mu) / model.sigma
    pre = np.linalg.lstsq(a, a @ x1.T, rcond=None)[0].T
    mse = np.mean((x - (pre * model.sigma + model.mu)) ** 2, axis=1)
    want = -np.log(np.maximum(mse, MSE_FLOOR))
    err = np.abs(scores["recon_stat"] - want) / np.abs(want)
    return [] if np.all(err <= tol) else [f"recon_stat off the least-squares preimage by {err.max():.3g}"]


def raw_pairs(path):
    """(orig, recon) value arrays from a reconstruct raw_values.csv."""
    _, rows = read_table(path)
    orig = np.array([[float(v) for v in r[2:]] for r in rows if r[1] == "orig"])
    recon = np.array([[float(v) for v in r[2:]] for r in rows if r[1] == "recon"])
    return orig, recon


def check_layer_reconstruction(model, orig, recon, layer, tol=1e-7):
    """The forward pass of each reconstruction reproduces z at its layer."""
    z_orig = model.forward(orig)[layer - 1]
    z_recon = model.forward(recon)[layer - 1]
    err = np.max(np.abs(z_recon - z_orig), axis=1) / (1.0 + np.max(np.abs(z_orig), axis=1))
    return [] if np.all(err <= tol) else [f"forward pass of a reconstruction misses z_{layer} by {err.max():.3g}"]


def threshold_accuracy(score, labels):
    """Accuracy of 'class 0 when the score is above its mean', as combine standardizes."""
    return float(np.mean(np.where(score > np.mean(score), 0, 1) == labels))


def check_combine(sweep_rows, scores, external):
    """The sweep's endpoints equal the generative and the external accuracy."""
    ext = dict(external)
    s_gen = scores["ll"][:, 0] - scores["ll"][:, 1]
    s_ext = np.array([ext[s] for s in scores["ids"]])
    want = (threshold_accuracy(s_gen, scores["labels"]), threshold_accuracy(s_ext, scores["labels"]))
    got = (float(sweep_rows[0][1]), float(sweep_rows[-1][1]))
    ends = (float(sweep_rows[0][0]), float(sweep_rows[-1][0]))
    fails = []
    if ends != (0.0, 1.0):
        fails.append(f"sweep runs from {ends[0]} to {ends[1]}, not 0 to 1")
    if got != want:
        fails.append(f"sweep endpoints {got} != generative and external accuracy {want}")
    return fails


def check_counts(stdout, pattern, want):
    """A 'made k/n' line reports every requested item made."""
    match = re.search(pattern + r" (\d+)/(\d+)", stdout)
    if not match:
        return [f"no '{pattern} k/n' line in the output"]
    made, asked = int(match.group(1)), int(match.group(2))
    return [] if made == asked == want else [f"{pattern} {made}/{asked}, expected {want}/{want}"]
