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
import ctypes
import hashlib
import json
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
    OutputPriorConfig,
    build_network,
    load_model,
    network_to_dict,
    row_chunks,
    wordpair_network,
)
from .reconstruct import reconstruct_from_layer, reconstruction_statistic, synthesize
from .training import Dataset, TrainConfig, evaluate, pretrain_discriminative, train

CONFIG_DEFAULTS = {
    "arch": "wordpair",
    "input_shape": "900",
    "layers": "",
    "n_classes": "2",
    "C": "200",
    "L": "1",
    "standardize": "true",
    "epochs": "10",
    "learning_rate": "0.0001",
    "batch_size": "",
    "optimizer": "sgd",
    "l2": "0",
    "pretrain_epochs": "10",
    "pretrain_learning_rate": "0.001",
    "pretrain_optimizer": "adam",
    "pretrain_dropout": "0",
    "pretrain_l2": "0",
}


# ---------------------------------------------------------------------------
# headers, config, small IO helpers


def _config_hash(mapping):
    text = "".join(f"{k}={mapping[k]}\n" for k in sorted(mapping))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _header(seed, mapping):
    return f"# pbn v{__version__} seed={seed} config={_config_hash(mapping)}"


def parse_config(path):
    """Flat key=value file onto the defaults; unknown keys are errors."""
    resolved = dict(CONFIG_DEFAULTS)
    if path is None:
        return resolved
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
        key, value = line.split("=", 1)
        key, value = key.strip(), value.strip()
        if key not in CONFIG_DEFAULTS:
            raise ConfigError(f"{path}:{ln}: unknown config key {key!r}")
        resolved[key] = value
    return resolved


def _as_bool(value, key):
    if value.lower() in ("true", "1", "yes"):
        return True
    if value.lower() in ("false", "0", "no"):
        return False
    raise ConfigError(f"config key {key}={value!r} is not a boolean")


def _as_int(value, key):
    try:
        return int(value)
    except ValueError as exc:
        raise ConfigError(f"config key {key}={value!r} is not an integer") from exc


def _as_float(value, key):
    try:
        return float(value)
    except ValueError as exc:
        raise ConfigError(f"config key {key}={value!r} is not a number") from exc


def _parse_pair(text, key):
    parts = text.split("x")
    if len(parts) != 2:
        raise ConfigError(f"{key}: expected AxB, got {text!r}")
    return tuple(_as_int(p, key) for p in parts)


def _parse_layers(text):
    cfgs = []
    for item in filter(None, (s.strip() for s in text.split(","))):
        parts = item.split(":")
        if parts[0] == "dense" and len(parts) == 3:
            cfgs.append(
                {"type": "dense", "units": _as_int(parts[1], "layers"), "activation": parts[2]}
            )
        elif parts[0] == "conv" and len(parts) == 5:
            cfgs.append(
                {
                    "type": "conv",
                    "channels": _as_int(parts[1], "layers"),
                    "kernel": _parse_pair(parts[2], "layers"),
                    "strides": _parse_pair(parts[3], "layers"),
                    "activation": parts[4],
                }
            )
        else:
            raise ConfigError(
                f"layers: bad layer {item!r} (dense:units:act or conv:ch:KHxKW:SYxSX:act)"
            )
    if not cfgs:
        raise ConfigError("layers: a custom architecture needs at least one layer")
    return cfgs


def build_from_config(cfg, rng, standardize=None):
    c = _as_float(cfg["C"], "C")
    level = _as_float(cfg["L"], "L")
    if cfg["arch"] == "wordpair":
        return wordpair_network(rng, c=c, level=level, standardize=standardize)
    if cfg["arch"] != "custom":
        raise ConfigError(f"arch must be wordpair or custom, got {cfg['arch']!r}")
    shape_parts = cfg["input_shape"].split("x")
    if len(shape_parts) == 1:
        input_shape = _as_int(shape_parts[0], "input_shape")
    elif len(shape_parts) == 3:
        input_shape = tuple(_as_int(p, "input_shape") for p in shape_parts)
    else:
        raise ConfigError(f"input_shape: expected N or CxHxW, got {cfg['input_shape']!r}")
    layer_cfgs = _parse_layers(cfg["layers"])
    output_prior = None
    if layer_cfgs[-1]["activation"] == "shift":
        output_prior = OutputPriorConfig(
            c=c, level=level, n_classes=_as_int(cfg["n_classes"], "n_classes")
        )
    return build_network(
        input_shape, layer_cfgs, rng, output_prior=output_prior, standardize=standardize
    )


def _write_csv(path, header_comment, columns, rows):
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


def _write_pgm(path, header_comment, image):
    image = np.asarray(image, dtype=np.float64)
    lo, hi = float(image.min()), float(image.max())
    if hi > lo:
        scaled = np.round((image - lo) / (hi - lo) * 255.0)
    else:
        scaled = np.zeros_like(image)
    data = scaled.astype(np.uint8)
    h, w = image.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{header_comment}\n{w} {h}\n255\n".encode("ascii"))
        fh.write(data.tobytes())


def _as_image(values):
    """900-value vectors render as 20 bands x 45 frames; others as one row."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 900:
        return values.reshape(45, 20).T
    return values.reshape(1, values.size)


def _safe_name(sample_id):
    return "".join(ch if (ch.isalnum() or ch in "-_.") else "_" for ch in sample_id)


def _load_split_column(path, name):
    columns, rows = _read_csv(path)
    try:
        id_col, split_col = columns.index("id"), columns.index("split")
    except ValueError as exc:
        raise JoinError(f"{path}: needs id and split columns") from exc
    return [r[id_col] for r in rows if r[split_col] == name]


def _subset_by_ids(data, ids, what):
    index = {s: i for i, s in enumerate(data.ids)}
    missing = [s for s in ids if s not in index]
    if missing:
        raise JoinError(f"{what}: {len(missing)} ids not in the feature archive")
    return data.subset([index[s] for s in ids])


# ---------------------------------------------------------------------------
# commands


def cmd_extract(args):
    data, classes = extract_directory(args.wav_dir)
    splits = split_dataset(data, args.seed, n_train=args.n_train, n_val=args.n_val)
    params = {
        "wav_dir": args.wav_dir,
        "n_train": str(args.n_train),
        "n_val": str(args.n_val),
        "binary": str(args.binary),
    }
    header = _header(args.seed, params)
    if args.binary:
        write_archive_binary(args.out, data)
    else:
        write_archive_text(args.out, data, header=header)
    split_of = {}
    for name, idx in splits.items():
        for i in idx:
            split_of[data.ids[i]] = name
    out_split = args.out_split or (os.path.splitext(args.out)[0] + "_split.csv")
    class_note = ";".join(f"{c}={i}" for i, c in enumerate(classes))
    with open(out_split, "w") as fh:
        fh.write(header + "\n")
        fh.write(f"# classes {class_note}\n")
        fh.write("id,label,split\n")
        for i, sample_id in enumerate(data.ids):
            fh.write(f"{sample_id},{int(data.labels[i])},{split_of[sample_id]}\n")
    print(f"extracted {len(data)} samples, {len(classes)} classes -> {args.out}")
    return 0


def cmd_train(args):
    cfg = parse_config(args.config)
    data = read_archive(args.features)
    if args.split:
        train_data = _subset_by_ids(data, _load_split_column(args.split, "train"), "split train")
        val_ids = _load_split_column(args.split, "val")
        val_data = _subset_by_ids(data, val_ids, "split val") if val_ids else None
    else:
        train_data, val_data = data, None

    standardize = None
    if _as_bool(cfg["standardize"], "standardize"):
        mu = train_data.x.mean(axis=0)
        sigma = train_data.x.std(axis=0)
        standardize = (mu, sigma)

    rng = np.random.default_rng(args.seed)
    net = build_from_config(cfg, rng, standardize=standardize)
    header = _header(args.seed, cfg)

    history_rows = []
    aborted = None
    if args.pretrain:
        pre_cfg = TrainConfig(
            epochs=_as_int(cfg["pretrain_epochs"], "pretrain_epochs"),
            learning_rate=_as_float(cfg["pretrain_learning_rate"], "pretrain_learning_rate"),
            batch_size=_as_int(cfg["batch_size"], "batch_size") if cfg["batch_size"] else None,
            optimizer=cfg["pretrain_optimizer"],
            l2=_as_float(cfg["pretrain_l2"], "pretrain_l2"),
            seed=args.seed,
            dropout=_as_float(cfg["pretrain_dropout"], "pretrain_dropout"),
        )
        result = pretrain_discriminative(net, train_data, pre_cfg, val_data=val_data)
        net = result.network
        history_rows += [("pretrain", r) for r in result.history]
        if result.aborted:
            aborted = ("pretrain", len(result.history) + 1, result.reason)

    epochs = _as_int(cfg["epochs"], "epochs")
    if epochs > 0 and aborted is None:
        pbn_cfg = TrainConfig(
            epochs=epochs,
            learning_rate=_as_float(cfg["learning_rate"], "learning_rate"),
            batch_size=_as_int(cfg["batch_size"], "batch_size") if cfg["batch_size"] else None,
            optimizer=cfg["optimizer"],
            l2=_as_float(cfg["l2"], "l2"),
            seed=args.seed,
        )
        try:
            result = train(net, train_data, pbn_cfg, val_data=val_data)
        except TrainingError as exc:
            # the warm start left a network this phase cannot start from;
            # the warm-start model is the last good checkpoint
            if not args.pretrain:
                raise
            aborted = ("pbn", 1, str(exc))
        else:
            net = result.network
            history_rows += [("pbn", r) for r in result.history]
            if result.aborted:
                aborted = ("pbn", len(result.history) + 1, result.reason)

    doc = network_to_dict(net)
    doc["meta"] = {
        "version": __version__,
        "seed": args.seed,
        "config_hash": _config_hash(cfg),
        "config": dict(sorted(cfg.items())),
    }
    with open(args.out_model, "w") as fh:
        fh.write(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")

    out_history = args.out_history or (os.path.splitext(args.out_model)[0] + "_history.csv")
    rows = [
        (
            phase,
            r["epoch"],
            r["objective"],
            "" if r["val_accuracy"] is None else r["val_accuracy"],
            r["efficiency"],
        )
        for phase, r in history_rows
    ]
    _write_csv(out_history, header, ["phase", "epoch", "objective", "val_accuracy", "efficiency"], rows)
    if aborted is not None:
        phase, epoch, reason = aborted
        print(
            f"error: {phase} phase aborted in epoch {epoch}: {reason}; "
            f"saved the last good checkpoint to {args.out_model}",
            file=sys.stderr,
        )
        return 2
    last = history_rows[-1][1]["objective"] if history_rows else float("nan")
    print(f"trained {len(history_rows)} epochs, final objective {last:.6g} -> {args.out_model}")
    return 0


def cmd_eval(args):
    net = load_model(args.model)
    data = read_archive(args.features)
    if not 1 <= args.stat_layer <= net.depth - 1:
        raise ConfigError(f"--stat-layer must be in 1..{net.depth - 1}")
    params = {"model": args.model, "stat_layer": str(args.stat_layer)}
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
    _write_csv(args.out_scores, _header(args.seed, params), columns, rows)
    accuracy = correct / len(data) if len(data) else float("nan")
    print(f"accuracy={accuracy:.4f} n={len(data)} undefined={undefined}")
    return 0


def cmd_reconstruct(args):
    net = load_model(args.model)
    data = read_archive(args.features)
    if not 1 <= args.layer <= net.depth:
        raise ConfigError(f"--layer must be in 1..{net.depth}")
    os.makedirs(args.out_images, exist_ok=True)
    params = {"model": args.model, "layer": str(args.layer), "count": str(args.count)}
    header = _header(args.seed, params)
    count = len(data) if args.count == 0 else min(args.count, len(data))
    mse_rows, raw_rows = [], []
    for idx in row_chunks(count):
        zs = net.forward_pass(data.x[idx])[1]
        x_hats = reconstruct_from_layer(net, args.layer, zs[args.layer - 1])
        for i, x_hat in zip(idx, x_hats):
            sample_id = data.ids[i]
            mse = float(np.mean((data.x[i] - x_hat) ** 2))
            mse_rows.append((sample_id, mse))
            if np.isnan(mse):
                continue
            stem = f"{i:04d}_{_safe_name(sample_id)}"
            _write_pgm(
                os.path.join(args.out_images, f"orig_{stem}.pgm"), header, _as_image(data.x[i])
            )
            _write_pgm(
                os.path.join(args.out_images, f"recon_l{args.layer}_{stem}.pgm"),
                header,
                _as_image(x_hat),
            )
            raw_rows.append((sample_id, "orig", *data.x[i].tolist()))
            raw_rows.append((sample_id, "recon", *x_hat.tolist()))
    dim = data.x.shape[1]
    _write_csv(
        os.path.join(args.out_images, "raw_values.csv"),
        header,
        ["id", "kind"] + [f"x{j:03d}" for j in range(dim)],
        raw_rows,
    )
    _write_csv(os.path.join(args.out_images, "mse.csv"), header, ["id", "mse"], mse_rows)
    finite = [m for _, m in mse_rows if np.isfinite(m)]
    mean_mse = float(np.mean(finite)) if finite else float("nan")
    print(f"reconstructed {len(finite)}/{count} through layer {args.layer}, mean mse {mean_mse:.6g}")
    return 0


def cmd_synthesize(args):
    net = load_model(args.model)
    os.makedirs(args.out_images, exist_ok=True)
    params = {"model": args.model, "label": str(args.label), "count": str(args.count)}
    header = _header(args.seed, params)
    label = args.label if net.output_prior is not None else None
    raw_rows, rejects = [], []
    for idx in row_chunks(args.count):
        seeds = args.seed + idx
        for seed, x, err in zip(seeds, *synthesize(net, seeds, label=label)):
            if err is not None:
                # every walk error starts with the label of its layer, "layer N: "
                layer, _, reason = str(err).partition(": ")
                rejects.append((f"synth_{seed:06d}", int(seed), layer.removeprefix("layer "), reason))
                continue
            _write_pgm(os.path.join(args.out_images, f"synth_{seed:06d}.pgm"), header, _as_image(x))
            raw_rows.append((f"synth_{seed:06d}", *[float(v) for v in x]))
    made = len(raw_rows)
    _write_csv(
        os.path.join(args.out_images, "raw_values.csv"),
        header,
        ["id"] + [f"x{j:03d}" for j in range(net.n_in)],
        raw_rows,
    )
    _write_csv(
        os.path.join(args.out_images, "rejects.csv"), header, ["id", "seed", "layer", "reason"], rejects
    )
    print(f"synthesized {made}/{args.count} samples -> {args.out_images}")
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
    net_a, net_b = load_model(args.model_a), load_model(args.model_b)
    top = min(net_a.depth, net_b.depth) - 1
    if not 1 <= args.stat_layer <= top:
        raise ConfigError(f"--stat-layer must be in 1..{top}")
    params = {
        "model_a": args.model_a,
        "model_b": args.model_b,
        "stat_layer": str(args.stat_layer),
    }
    if single:
        rows = _outofset_rows(net_a, net_b, read_archive(args.features), args.stat_layer, "")
    else:
        rows = _outofset_rows(
            net_a, net_b, read_archive(args.features_a), args.stat_layer, "a"
        ) + _outofset_rows(net_a, net_b, read_archive(args.features_b), args.stat_layer, "b")
    _write_csv(
        args.out,
        _header(args.seed, params),
        ["id", "true_model", "stat_a", "stat_b", "decision"],
        rows,
    )
    if both:
        decided = [r for r in rows if r[4]]
        correct = sum(1 for r in decided if r[1] == r[4])
        accuracy = correct / len(rows) if rows else float("nan")
        print(f"outofset accuracy={accuracy:.4f} n={len(rows)}")
    else:
        print(f"outofset decisions for {len(rows)} samples -> {args.out}")
    return 0


def _standardize_on(values, mask):
    pool = values[mask] if mask.any() else values
    mu = float(np.mean(pool))
    sigma = max(float(np.std(pool)), 1e-12)
    return (values - mu) / sigma


def cmd_combine(args):
    columns, rows = _read_csv(args.scores)
    needed = ["id", "label", "ll0", "ll1"]
    if any(c not in columns for c in needed):
        raise JoinError(f"{args.scores}: needs columns {', '.join(needed)}")
    col = {c: columns.index(c) for c in columns}
    ids = [r[col["id"]] for r in rows]
    if len(set(ids)) != len(ids):
        raise JoinError(f"{args.scores}: duplicate ids")
    try:
        labels = np.array([int(r[col["label"]]) for r in rows])
        s_gen = np.array(
            [float(r[col["ll0"]]) - float(r[col["ll1"]]) for r in rows], dtype=np.float64
        )
    except ValueError as exc:
        raise JoinError(f"{args.scores}: {exc}") from exc

    ext_columns, ext_rows = _read_csv(args.external)
    if "id" not in ext_columns:
        raise JoinError(f"{args.external}: needs an id column")
    ecol = {c: ext_columns.index(c) for c in ext_columns}
    try:
        if "score0" in ecol and "score1" in ecol:
            ext_map = {
                r[ecol["id"]]: float(r[ecol["score0"]]) - float(r[ecol["score1"]])
                for r in ext_rows
            }
        elif "score" in ecol:
            ext_map = {r[ecol["id"]]: float(r[ecol["score"]]) for r in ext_rows}
        else:
            raise JoinError(f"{args.external}: needs score or score0/score1 columns")
    except ValueError as exc:
        raise JoinError(f"{args.external}: {exc}") from exc
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

    params = {"scores": args.scores, "external": args.external, "sweep": str(args.sweep)}
    out_rows = []
    for k in range(args.sweep + 1):
        w = k / args.sweep
        combined = (1.0 - w) * z_gen + w * z_ext
        pred = np.where(combined > 0.0, 0, 1)
        out_rows.append((w, float(np.mean(pred == kept_labels))))
    _write_csv(args.out, _header(args.seed, params), ["weight", "accuracy"], out_rows)
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

    def common(p):
        p.add_argument("--seed", type=int, default=0, help="determinism seed")

    p = sub.add_parser("extract", help="WAV directory to feature archive + split manifest")
    p.add_argument("--wav-dir", required=True)
    p.add_argument("--out", required=True, help="feature archive path")
    p.add_argument("--out-split", default=None, help="split manifest path")
    p.add_argument("--n-train", type=int, default=500)
    p.add_argument("--n-val", type=int, default=150)
    p.add_argument("--binary", action="store_true", help="write the binary archive form")
    common(p)
    p.set_defaults(fn=cmd_extract)

    p = sub.add_parser("train", help="fit a model on a feature archive")
    p.add_argument("--features", required=True)
    p.add_argument("--config", default=None, help="flat key=value config file")
    p.add_argument("--out-model", required=True)
    p.add_argument("--out-history", default=None)
    p.add_argument("--split", default=None, help="split manifest from extract")
    p.add_argument("--pretrain", action="store_true", help="run the discriminative phase first")
    common(p)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="score a feature archive under a model")
    p.add_argument("--model", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--out-scores", required=True)
    p.add_argument("--stat-layer", type=int, default=1)
    common(p)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("reconstruct", help="reconstruct samples from a hidden layer")
    p.add_argument("--model", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--layer", type=int, required=True)
    p.add_argument("--out-images", required=True)
    p.add_argument("--count", type=int, default=0, help="how many samples (0 = all)")
    common(p)
    p.set_defaults(fn=cmd_reconstruct)

    p = sub.add_parser("synthesize", help="draw synthetic samples from a model")
    p.add_argument("--model", required=True)
    p.add_argument("--label", type=int, default=0)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--out-images", required=True)
    common(p)
    p.set_defaults(fn=cmd_synthesize)

    p = sub.add_parser("outofset", help="assign samples to the better-reconstructing model")
    p.add_argument("--model-a", required=True)
    p.add_argument("--model-b", required=True)
    p.add_argument("--features", default=None, help="one archive, decisions only")
    p.add_argument("--features-a", default=None, help="archive known to belong to model A")
    p.add_argument("--features-b", default=None, help="archive known to belong to model B")
    p.add_argument("--out", required=True)
    p.add_argument("--stat-layer", type=int, default=1)
    common(p)
    p.set_defaults(fn=cmd_outofset)

    p = sub.add_parser("combine", help="sweep generative/external score combination")
    p.add_argument("--scores", required=True, help="score table from eval")
    p.add_argument("--external", required=True, help="CSV of external per-sample scores")
    p.add_argument("--sweep", type=int, default=20, help="grid has sweep+1 weights in [0,1]")
    p.add_argument("--out", required=True)
    p.add_argument("--val-ids", default=None, help="ids (one per line) for standardization")
    common(p)
    p.set_defaults(fn=cmd_combine)

    return parser


# glibc's mallopt parameters (malloc.h) and the values the CLI sets:
# M_MMAP_THRESHOLD at the largest glibc accepts on 64-bit, M_TRIM_THRESHOLD
# above any working set of the stock network
_MALLOC_POLICY = ((-3, 32 * 1024 * 1024), (-1, 256 * 1024 * 1024))


def _keep_freed_memory():
    """Keep this process's freed heap pages for reuse; True if the policy was applied.

    Every training step allocates and frees multi-megabyte arrays (dense
    conv matrices, parameter gradients, Gram factors).  By default glibc
    serves blocks above a threshold set by the largest block freed so far
    from fresh mmaps, and trims the heap top once twice that is free, so
    each step faults the same pages in again.  Under this policy blocks
    under 32 MiB come from the heap and freed pages stay resident, for
    about 1-2% more peak memory.  Only ``main`` sets it, so importing the
    package changes nothing.  Other C libraries number mallopt's
    parameters differently or stub it, so anywhere but glibc this does
    nothing.
    """
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return False
    except (AttributeError, ValueError, OSError):
        return False
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    # a list, not a generator: set every parameter even if one is refused
    return all([mallopt(param, value) == 1 for param, value in _MALLOC_POLICY])


def main(argv=None):
    _keep_freed_memory()
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (PbnError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
