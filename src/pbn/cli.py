"""Command line harness: extract, train, eval, reconstruct, synthesize,
outofset, and combine.

Every command is deterministic for a fixed --seed, and every text
output starts with a comment line carrying the tool version, the seed,
and a hash of the resolved configuration, so reruns are byte-identical
and outputs are traceable.  Images are binary PGM (P5) with per-image
min-max normalization; the raw values are always co-emitted as CSV so
nothing is lost to normalization.
"""

import argparse
import hashlib
import os
import sys

import numpy as np

from . import __version__
from .errors import ConfigError, JoinError, PbnError, TrainingError
from .features import (
    extract_directory,
    format_row,
    read_archive,
    split_dataset,
    write_archive_binary,
    write_archive_text,
)
from .network import (
    WORDPAIR_INPUT_SHAPE,
    WORDPAIR_LAYERS,
    OutputPriorConfig,
    build_network,
    check_labels,
    load_model,
    parse_input_shape,
    parse_layers,
    row_chunks,
    save_model,
)
from .reconstruct import reconstruct_from_layer, reconstruction_statistic, synthesize
from .training import TrainConfig, TrainResult, pretrain_discriminative, train

# Every config key: its default text and the type its value parses to.
CONFIG_KEYS = {
    "input_shape": (WORDPAIR_INPUT_SHAPE, parse_input_shape),
    "layers": (WORDPAIR_LAYERS, parse_layers),
    "C": ("200", float),
    "L": ("1", float),
    "standardize": ("true", bool),
    "epochs": ("10", int),
    "learning_rate": ("0.0001", float),
    "batch_size": ("", int),  # empty: the whole training set is one batch
    "optimizer": ("sgd", str),
    "l2": ("0", float),
    "pretrain_epochs": ("10", int),
    "pretrain_learning_rate": ("0.001", float),
    "pretrain_optimizer": ("adam", str),
    "pretrain_dropout": ("0", float),
    "pretrain_l2": ("0", float),
}


# ---------------------------------------------------------------------------
# headers, config, small IO helpers


def _config_hash(mapping):
    text = "".join(f"{k}={mapping[k]}\n" for k in sorted(mapping))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _header(args, *names, config=None):
    """The comment line that opens every text output.

    It carries the version, the seed, and the hash of ``config``, or of
    the named arguments as strings when no config is given.  A path
    argument (every string one) counts by its base name, so the same run
    from two checkouts writes the same bytes.
    """
    if config is None:
        values = {name: getattr(args, name) for name in names}
        config = {
            name: os.path.basename(os.path.normpath(v)) if isinstance(v, str) else str(v)
            for name, v in values.items()
        }
    return f"# pbn v{__version__} seed={args.seed} config={_config_hash(config)}"


def _in_range(args, name, lo, hi=None):
    """Raise ConfigError unless the argument ``name`` lies in lo..hi (hi None: no cap)."""
    value = getattr(args, name)
    if value < lo or (hi is not None and value > hi):
        bounds = f"be at least {lo}" if hi is None else f"be in {lo}..{hi}"
        raise ConfigError(f"--{name.replace('_', '-')} must {bounds}")


_BOOLS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}
_KIND_NAMES = {bool: "a boolean", int: "an integer", float: "a number"}
# the TrainConfig fields a training phase reads from its own config keys
_PHASE_FIELDS = ("epochs", "learning_rate", "optimizer", "l2", "dropout")


def _typed(key, text):
    """The value of config key ``key`` from its ``text``, parsed by its CONFIG_KEYS type."""
    kind = CONFIG_KEYS[key][1]
    if kind not in _KIND_NAMES:
        return kind(text)  # str, or a network parser that names the key in its errors
    if key == "batch_size" and not text:
        return None
    try:
        return _BOOLS[text.lower()] if kind is bool else kind(text)
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"config key {key}={text!r} is not {_KIND_NAMES[kind]}") from exc


def parse_config(path):
    """The flat key=value file at ``path`` (None: none) over the defaults: (text, values).

    ``text`` maps every key to its resolved text, which the model file
    and the header hash record; ``values`` maps it to that text typed.
    An unknown key or a value that does not parse raises ConfigError.
    """
    text = {key: default for key, (default, _) in CONFIG_KEYS.items()}
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                lines = fh.read().splitlines()
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 text ({exc})") from exc
        for ln, line in enumerate(lines, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{ln}: expected key=value, got {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in CONFIG_KEYS:
                raise ConfigError(f"{path}:{ln}: unknown config key {key!r}")
            text[key] = value
    return text, {key: _typed(key, value) for key, value in text.items()}


def _train_config(values, prefix, seed):
    """The TrainConfig of the phase whose keys start with ``prefix``; batch_size is shared.

    Only the warm start has a dropout key.
    """
    fields = {name: values[prefix + name] for name in _PHASE_FIELDS if prefix + name in values}
    return TrainConfig(**fields, batch_size=values["batch_size"], seed=seed)


def _mean_and_spread(values, axis=None):
    """(mean, standard deviation) of ``values``, with sigma = 1 where there is no spread.

    A spread of at most 1e-12 |mean| is the mean's own rounding, so a
    constant column or score family standardizes to about 0.
    """
    mu, sd = values.mean(axis=axis), values.std(axis=axis)
    return mu, np.where(sd > 1e-12 * np.abs(mu), sd, 1.0)


def build_from_config(values, rng, x_train):
    """The untrained network of typed config ``values``, standardized on ``x_train`` if asked."""
    standardize = _mean_and_spread(x_train, axis=0) if values["standardize"] else None
    shift = values["layers"][-1]["activation"] == "shift"
    prior = OutputPriorConfig(c=values["C"], level=values["L"]) if shift else None
    return build_network(values["input_shape"], values["layers"], rng, prior, standardize)


def _write_csv(path, header_comment, columns, rows):
    """``header_comment`` (one or more # lines), the column names, then one line per row."""
    with open(path, "w") as fh:
        fh.write(header_comment + "\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(format_row(row) + "\n")


def _read_lines(path):
    """Lines of a UTF-8 text file; bytes that are not UTF-8 raise JoinError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return [ln.rstrip("\n") for ln in fh]
    except UnicodeDecodeError as exc:
        raise JoinError(f"{path}: not UTF-8 text ({exc})") from exc


def _read_csv(path):
    """(columns, rows of strings); leading # comment lines are skipped."""
    body = [ln for ln in _read_lines(path) if ln and not ln.startswith("#")]
    if not body:
        raise JoinError(f"{path}: empty table")
    columns = body[0].split(",")
    rows = [ln.split(",") for ln in body[1:]]
    for r in rows:
        if len(r) != len(columns):
            raise JoinError(f"{path}: row with {len(r)} fields, expected {len(columns)}")
    return columns, rows


def _read_table(path, needed):
    """{column: its values} of a CSV table; JoinError unless it has the ``needed`` columns."""
    columns, rows = _read_csv(path)
    if not set(needed) <= set(columns):
        raise JoinError(f"{path}: needs columns {', '.join(needed)}")
    first = {c: columns.index(c) for c in columns}  # a repeated name reads its first column
    return {c: [r[j] for r in rows] for c, j in first.items()}


def _numbers(path, values, kind=float):
    """The text ``values`` of a column of the table at ``path`` as an array of ``kind``."""
    try:
        return np.array([kind(v) for v in values])
    except ValueError as exc:
        raise JoinError(f"{path}: {exc}") from exc


class _ImageDir:
    """An output directory of PGM images, keeping each image's raw values as one row."""

    def __init__(self, path, header):
        os.makedirs(path, exist_ok=True)
        self.path, self.header, self.raw_rows = path, header, []

    def add(self, name, values, *key):
        """Write ``values`` as the image ``name``.pgm; keep ``key`` and the values as a raw row.

        900-value vectors render as 20 bands x 45 frames; others as one row.
        """
        image = values.reshape(45, 20).T if values.size == 900 else values.reshape(1, values.size)
        lo, hi = float(image.min()), float(image.max())
        if hi > lo:
            scaled = np.round((image - lo) / (hi - lo) * 255.0)
        else:
            scaled = np.zeros_like(image)
        h, w = image.shape
        with open(os.path.join(self.path, f"{name}.pgm"), "wb") as fh:
            fh.write(f"P5\n{self.header}\n{w} {h}\n255\n".encode("ascii"))
            fh.write(scaled.astype(np.uint8).tobytes())
        self.raw_rows.append((*key, *values.tolist()))

    def write_csv(self, name, columns, rows):
        _write_csv(os.path.join(self.path, name), self.header, columns, rows)

    def write_raw_values(self, key_columns, dim):
        columns = key_columns + [f"x{j:03d}" for j in range(dim)]
        self.write_csv("raw_values.csv", columns, self.raw_rows)


def _safe_name(sample_id):
    return "".join(ch if (ch.isalnum() or ch in "-_.") else "_" for ch in sample_id)


def _split_part(data, split, name):
    """The rows of ``data`` that the split manifest table ``split`` puts in part ``name``."""
    ids = [s for s, part in zip(split["id"], split["split"]) if part == name]
    index = {s: i for i, s in enumerate(data.ids)}
    missing = [s for s in ids if s not in index]
    if missing:
        raise JoinError(f"split {name}: {len(missing)} ids not in the feature archive")
    return data.subset([index[s] for s in ids])


# ---------------------------------------------------------------------------
# commands


def cmd_extract(args):
    _in_range(args, "n_train", 0)
    _in_range(args, "n_val", 0)
    data, classes = extract_directory(args.wav_dir)
    splits = split_dataset(data, args.seed, n_train=args.n_train, n_val=args.n_val)
    header = _header(args, "wav_dir", "n_train", "n_val", "binary")
    if args.binary:
        write_archive_binary(args.out, data)
    else:
        write_archive_text(args.out, data, header=header)
    split_of = {data.ids[i]: name for name, idx in splits.items() for i in idx}
    out_split = args.out_split or (os.path.splitext(args.out)[0] + "_split.csv")
    class_note = ";".join(f"{c}={i}" for i, c in enumerate(classes))
    rows = [(s, int(label), split_of[s]) for s, label in zip(data.ids, data.labels)]
    _write_csv(out_split, f"{header}\n# classes {class_note}", ["id", "label", "split"], rows)
    print(f"extracted {len(data)} samples, {len(classes)} classes -> {args.out}")
    return 0


def cmd_train(args):
    text, values = parse_config(args.config)
    phases = [("pretrain", "pretrain_", pretrain_discriminative)] if args.pretrain else []
    phases.append(("pbn", "", train))
    # both phases' settings are checked before the archive is read, whichever run
    configs = {prefix: _train_config(values, prefix, args.seed) for prefix in ("pretrain_", "")}
    data = read_archive(args.features)
    if args.split:
        split = _read_table(args.split, ["id", "split"])
        train_data, val_data = (_split_part(data, split, name) for name in ("train", "val"))
        val_data = val_data if len(val_data) else None
    else:
        train_data, val_data = data, None
    if not len(train_data):
        raise TrainingError("the training set is empty")
    net = build_from_config(values, np.random.default_rng(args.seed), train_data.x)

    columns = ["phase", "epoch", "objective", "val_accuracy", "efficiency"]
    history = []
    aborted = None
    for i, (phase, prefix, fit) in enumerate(phases):
        try:
            result = fit(net, train_data, configs[prefix], val_data=val_data)
        except TrainingError as exc:
            # the warm start left a network this phase cannot start from;
            # the warm-start model is the last good checkpoint
            if i == 0:
                raise
            result = TrainResult(network=net, aborted=True, reason=str(exc))
        net = result.network
        # a run without validation data has no validation accuracy
        history += [
            (phase, *("" if r[c] is None else r[c] for c in columns[1:])) for r in result.history
        ]
        if result.aborted:
            aborted = f"{phase} phase aborted in epoch {len(result.history) + 1}: {result.reason}"
            break

    meta = {
        "version": __version__,
        "seed": args.seed,
        "config_hash": _config_hash(text),
        "config": dict(sorted(text.items())),
    }
    save_model(net, args.out_model, meta=meta)

    out_history = args.out_history or (os.path.splitext(args.out_model)[0] + "_history.csv")
    _write_csv(out_history, _header(args, config=text), columns, history)
    if aborted is not None:
        note = f"saved the last good checkpoint to {args.out_model}"
        print(f"error: {aborted}; {note}", file=sys.stderr)
        return 2
    last = history[-1][2] if history else float("nan")
    print(f"trained {len(history)} epochs, final objective {last:.6g} -> {args.out_model}")
    return 0


def _load_models(args, names, layer, top):
    """The models the arguments ``names`` point to, with the argument ``layer`` checked.

    The layer must lie in 1..depth - top of the shallowest of them.
    """
    nets = [load_model(getattr(args, name)) for name in names]
    _in_range(args, layer, 1, min(net.depth for net in nets) - top)
    return nets


def cmd_eval(args):
    (net,) = _load_models(args, ["model"], "stat_layer", top=1)
    data = read_archive(args.features)
    check_labels(data.labels, net.n_classes)
    rows, correct, undefined = [], 0, 0
    for idx in row_chunks(len(data)):
        x, labels = data.x[idx], data.labels[idx]
        trace = net.interior_trace(x)
        scores = net.class_scores(x, trace=trace)
        stats = reconstruction_statistic(net, x, args.stat_layer, trace=trace)
        correct += int(np.sum((np.argmax(scores, axis=1) == labels) & trace.defined))
        undefined += int(np.sum(~trace.defined))
        for i, label, row, stat in zip(idx, labels, scores, stats):
            rows.append((data.ids[i], int(label), *[float(s) for s in row], float(stat)))
    columns = ["id", "label"] + [f"ll{k}" for k in range(net.n_classes)] + ["recon_stat"]
    _write_csv(args.out_scores, _header(args, "model", "stat_layer"), columns, rows)
    accuracy = correct / len(data) if len(data) else float("nan")
    print(f"accuracy={accuracy:.4f} n={len(data)} undefined={undefined}")
    return 0


def cmd_reconstruct(args):
    _in_range(args, "count", 0)
    (net,) = _load_models(args, ["model"], "layer", top=0)
    data = read_archive(args.features)
    images = _ImageDir(args.out_images, _header(args, "model", "layer", "count"))
    count = len(data) if args.count == 0 else min(args.count, len(data))
    mse_rows = []
    for idx in row_chunks(count):
        zs = net.forward_pass(data.x[idx])[1]
        x_hats, _ = reconstruct_from_layer(net, args.layer, zs[args.layer - 1])
        for i, x_hat in zip(idx, x_hats):
            sample_id = data.ids[i]
            mse = float(np.mean((data.x[i] - x_hat) ** 2))
            mse_rows.append((sample_id, mse))
            if np.isnan(mse):
                continue
            stem = f"{i:04d}_{_safe_name(sample_id)}"
            images.add(f"orig_{stem}", data.x[i], sample_id, "orig")
            images.add(f"recon_l{args.layer}_{stem}", x_hat, sample_id, "recon")
    images.write_raw_values(["id", "kind"], data.x.shape[1])
    images.write_csv("mse.csv", ["id", "mse"], mse_rows)
    finite = [m for _, m in mse_rows if np.isfinite(m)]
    mean_mse = float(np.mean(finite)) if finite else float("nan")
    print(f"reconstructed {len(finite)}/{count} through layer {args.layer}, mean mse {mean_mse:.6g}")
    return 0


def cmd_synthesize(args):
    _in_range(args, "count", 0)
    net = load_model(args.model)
    images = _ImageDir(args.out_images, _header(args, "model", "label", "count"))
    label = args.label if net.output_prior is not None else None
    rejects = []
    for idx in row_chunks(args.count):
        seeds = args.seed + idx
        for seed, x, err in zip(seeds, *synthesize(net, seeds, label=label)):
            name = f"synth_{seed:06d}"
            if err is not None:
                # every walk error starts with the label of its layer, "layer N: "
                layer, _, reason = str(err).partition(": ")
                rejects.append((name, int(seed), layer.removeprefix("layer "), reason))
                continue
            images.add(name, x, name)
    images.write_raw_values(["id"], net.n_in)
    images.write_csv("rejects.csv", ["id", "seed", "layer", "reason"], rejects)
    print(f"synthesized {len(images.raw_rows)}/{args.count} samples -> {args.out_images}")
    return 0


def _outofset_rows(net_a, net_b, data, layer, true_side):
    rows = []
    for idx in row_chunks(len(data)):
        stats_a = reconstruction_statistic(net_a, data.x[idx], layer)
        stats_b = reconstruction_statistic(net_b, data.x[idx], layer)
        for i, stat_a, stat_b in zip(idx, stats_a, stats_b):
            if np.isnan(stat_a) and np.isnan(stat_b):
                decision = ""
            else:
                pair = [-np.inf if np.isnan(s) else s for s in (stat_a, stat_b)]
                decision = "a" if pair[0] >= pair[1] else "b"
            rows.append((data.ids[i], true_side, float(stat_a), float(stat_b), decision))
    return rows


def cmd_outofset(args):
    single = args.features is not None
    both = args.features_a is not None and args.features_b is not None
    if single == both:
        raise ConfigError("pass either --features, or both --features-a and --features-b")
    net_a, net_b = _load_models(args, ["model_a", "model_b"], "stat_layer", top=1)
    archives = [(args.features, "")] if single else [(args.features_a, "a"), (args.features_b, "b")]
    rows = [
        row
        for path, side in archives
        for row in _outofset_rows(net_a, net_b, read_archive(path), args.stat_layer, side)
    ]
    _write_csv(
        args.out,
        _header(args, "model_a", "model_b", "stat_layer"),
        ["id", "true_model", "stat_a", "stat_b", "decision"],
        rows,
    )
    if both:
        correct = sum(1 for r in rows if r[1] == r[4])
        accuracy = correct / len(rows) if rows else float("nan")
        print(f"outofset accuracy={accuracy:.4f} n={len(rows)}")
    else:
        print(f"outofset decisions for {len(rows)} samples -> {args.out}")
    return 0


def _standardize_on(values, mask):
    mu, sigma = _mean_and_spread(values[mask] if mask.any() else values)
    return (values - mu) / sigma


def cmd_combine(args):
    _in_range(args, "sweep", 1)
    scores = _read_table(args.scores, ["id", "label", "ll0", "ll1"])
    ids = scores["id"]
    if len(set(ids)) != len(ids):
        raise JoinError(f"{args.scores}: duplicate ids")
    labels = _numbers(args.scores, scores["label"], int)
    s_gen = _numbers(args.scores, scores["ll0"]) - _numbers(args.scores, scores["ll1"])

    external = _read_table(args.external, ["id"])
    if "score0" in external and "score1" in external:
        score0, score1 = (_numbers(args.external, external[c]) for c in ("score0", "score1"))
        ext = score0 - score1
    elif "score" in external:
        ext = _numbers(args.external, external["score"])
    else:
        raise JoinError(f"{args.external}: needs score or score0/score1 columns")
    ext_map = dict(zip(external["id"], ext))
    missing = [s for s in ids if s not in ext_map]
    if missing or len(ext_map) != len(ids):
        raise JoinError(
            f"id mismatch: {len(missing)} scored ids missing externally, "
            f"{len(ext_map) - (len(ids) - len(missing))} extra external ids"
        )
    s_ext = np.array([ext_map[s] for s in ids], dtype=np.float64)

    keep = np.isfinite(s_gen) & np.isfinite(s_ext)
    if not keep.any():
        raise JoinError("no sample has finite scores in both families")
    val_mask = np.zeros(len(ids), dtype=bool)
    if args.val_ids:
        wanted = {
            ln.strip()
            for ln in _read_lines(args.val_ids)
            if ln.strip() and not ln.startswith("#")
        }
        unknown = wanted - set(ids)
        if unknown:
            raise JoinError(f"{args.val_ids}: {len(unknown)} ids not in the score table")
        val_mask = np.array([s in wanted for s in ids])
    z_gen = _standardize_on(s_gen[keep], val_mask[keep])
    z_ext = _standardize_on(s_ext[keep], val_mask[keep])
    kept_labels = labels[keep]

    out_rows = []
    for k in range(args.sweep + 1):
        w = k / args.sweep
        combined = (1.0 - w) * z_gen + w * z_ext
        pred = np.where(combined > 0.0, 0, 1)
        out_rows.append((w, float(np.mean(pred == kept_labels))))
    header = _header(args, "scores", "external", "sweep")
    _write_csv(args.out, header, ["weight", "accuracy"], out_rows)
    best = max(out_rows, key=lambda r: r[1])
    print(
        f"combine: n={int(keep.sum())} best accuracy {best[1]:.4f} at w={best[0]:.3f} -> {args.out}"
    )
    return 0


# ---------------------------------------------------------------------------
# argument wiring


def build_parser():
    parser = argparse.ArgumentParser(
        prog="pbn", description="Projected belief network toolkit"
    )
    parser.add_argument("--version", action="version", version=f"pbn {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(fn, summary):
        p = sub.add_parser(fn.__name__.removeprefix("cmd_"), help=summary)
        p.add_argument("--seed", type=int, default=0, help="determinism seed")
        p.set_defaults(fn=fn)
        return p

    p = command(cmd_extract, "WAV directory to feature archive + split manifest")
    p.add_argument("--wav-dir", required=True)
    p.add_argument("--out", required=True, help="feature archive path")
    p.add_argument("--out-split", default=None, help="split manifest path")
    p.add_argument("--n-train", type=int, default=500)
    p.add_argument("--n-val", type=int, default=150)
    p.add_argument("--binary", action="store_true", help="write the binary archive form")

    p = command(cmd_train, "fit a model on a feature archive")
    p.add_argument("--features", required=True)
    p.add_argument("--config", default=None, help="flat key=value config file")
    p.add_argument("--out-model", required=True)
    p.add_argument("--out-history", default=None)
    p.add_argument("--split", default=None, help="split manifest from extract")
    p.add_argument("--pretrain", action="store_true", help="run the discriminative phase first")

    p = command(cmd_eval, "score a feature archive under a model")
    p.add_argument("--model", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--out-scores", required=True)
    p.add_argument("--stat-layer", type=int, default=1)

    p = command(cmd_reconstruct, "reconstruct samples from a hidden layer")
    p.add_argument("--model", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--layer", type=int, required=True)
    p.add_argument("--out-images", required=True)
    p.add_argument("--count", type=int, default=0, help="how many samples (0 = all)")

    p = command(cmd_synthesize, "draw synthetic samples from a model")
    p.add_argument("--model", required=True)
    p.add_argument("--label", type=int, default=0)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--out-images", required=True)

    p = command(cmd_outofset, "assign samples to the better-reconstructing model")
    p.add_argument("--model-a", required=True)
    p.add_argument("--model-b", required=True)
    p.add_argument("--features", default=None, help="one archive, decisions only")
    p.add_argument("--features-a", default=None, help="archive known to belong to model A")
    p.add_argument("--features-b", default=None, help="archive known to belong to model B")
    p.add_argument("--out", required=True)
    p.add_argument("--stat-layer", type=int, default=1)

    p = command(cmd_combine, "sweep generative/external score combination")
    p.add_argument("--scores", required=True, help="score table from eval")
    p.add_argument("--external", required=True, help="CSV of external per-sample scores")
    p.add_argument("--sweep", type=int, default=20, help="grid has sweep+1 weights in [0,1]")
    p.add_argument("--out", required=True)
    p.add_argument("--val-ids", default=None, help="ids (one per line) for standardization")

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (PbnError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
