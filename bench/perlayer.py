"""Per-layer metrics from the spans of traced rounds.

Counts are per round and repeat exactly from round to round; totals in
seconds are per round, the median over traced rounds; per-call timings
pool every call of every traced round and report the median and a tail
(see ``per_call``).  Layers the workload never enters read 0.
"""

import numpy as np

from tracer import Spans

SHAPES = ("900x405", "405x144", "144x64", "64x24", "24x2")
COMMANDS = ("extract", "train", "eval", "reconstruct", "combine")
LAYERS = range(1, 6)
TAIL_PCTS = (99.9, 99.0, 95.0, 90.0, 75.0)

# per-call timing families: metric base name -> span name
PER_CALL = {
    "features.logmel": "features.logmel",
    "training.gradient": "training.gradient",
    "network.interior_trace": "network.interior_trace",
    "network.class_scores": "network.class_scores",
    "reconstruct.reconstruction_statistic": "reconstruct.reconstruction_statistic",
    "reconstruct.reconstruct_from_layer": "reconstruct.reconstruct_from_layer",
}
TOTALS = {
    "features.extract_s": "features.extract_directory",
    "features.archive_write_s": "features.write_archive",
    "features.archive_read_s": "features.read_archive",
    "linops.gram_factor_s": "linops.gram_factor",
    "linops.gram_solve_s": "linops.gram_solve",
    "priors.activation_inverse_s": "priors.activation_inverse",
}


def per_call(values):
    """(median, tail, tail percentile) of per-call times.

    The tail is the highest of TAIL_PCTS with at least ten calls beyond
    it; with fewer than forty calls it is the median itself.
    """
    v = np.asarray(values, dtype=np.float64)
    if v.size == 0:
        return 0.0, 0.0, 0.0
    med = float(np.median(v))
    for p in TAIL_PCTS:
        if v.size * (1.0 - p / 100.0) >= 10:
            return med, float(np.percentile(v, p)), p
    return med, med, 50.0


def _round(commands, span_paths):
    """Counts, totals, per-call samples and missing trace targets of one traced round."""
    counts, totals, missing = {}, {}, set()
    calls = {k: [] for k in list(PER_CALL) + ["training.backsweep", "saddlepoint.solve_saddle_self", "training.evaluate"]}

    def add(key, value):
        counts[key] = counts.get(key, 0) + value

    for cmd, path in zip(commands, span_paths):
        sp = Spans(path)
        missing.update(sp.missing)
        for base, span in PER_CALL.items():
            m = sp.mask(span)
            calls[base] += list(sp.dur[m])
            add(base + ".calls", int(m.sum()))
        for key, span in TOTALS.items():
            totals[key] = totals.get(key, 0.0) + float(sp.dur[sp.mask(span)].sum())
        totals["pretrain"] = totals.get("pretrain", 0.0) + float(sp.dur[sp.mask("training.pretrain_discriminative")].sum())

        grad = sp.mask("training.gradient")
        self_grad = sp.dur - sp.child_time_of(["network.interior_trace", "network.log_likelihood"])
        calls["training.backsweep"] += list(self_grad[grad])
        add("training.gradient.failed", int(sp.failed[grad].sum()))
        calls["training.evaluate"] += list(sp.dur[sp.mask("training.evaluate")])

        trace = sp.mask("network.interior_trace")
        for l in LAYERS:
            add(f"network.undefined.l{l}", int(np.sum(trace & sp.failed & (sp.a == l))))
        add("network.forward_pass.calls", int(sp.mask("network.forward_pass").sum()))

        solve = sp.mask("saddlepoint.solve_saddle")
        calls["saddlepoint.solve_saddle_self"] += list((sp.dur - sp.child_time)[solve])
        for l in LAYERS:
            at = solve & (sp.a == l)
            add(f"saddlepoint.solve_saddle.calls.l{l}", int(at.sum()))
            add(f"saddlepoint.iterations.l{l}", int(sp.b[at & (sp.b >= 0)].sum()))
        add("saddlepoint.failures", int(sp.failed[solve].sum()))

        gram = sp.mask("linops.gram_factor")
        for shape in SHAPES:
            n_in, n_out = (int(v) for v in shape.split("x"))
            hits = int(np.sum(gram & (sp.a == n_in) & (sp.b == n_out)))
            add(f"linops.gram_factor.calls.{shape}", hits)
            if shape == SHAPES[0] and cmd.name == "eval":
                add("eval.gram_factor.900x405", hits)
                add("eval.samples", cmd.ops)
        add("linops.gram_solve.calls", int(sp.mask("linops.gram_solve").sum()))
        add("priors.activation_inverse.calls", int(sp.mask("priors.activation_inverse").sum()))
        add("reconstruct.failures", int(sp.failed[sp.mask("reconstruct.reconstruct_from_layer")].sum()))
        add("ops", cmd.ops)
    return counts, totals, calls, missing


def metrics(traced, untraced, pretrain_sample_epochs, walls):
    """(per-layer metrics, run record) of one trace run.

    The record names the percentile behind each tail metric and any
    traced function the package no longer has.

    ``traced`` holds (commands, span paths) per traced round;
    ``untraced`` holds (commands, child reports, output bytes) per
    untraced round; ``walls`` is the (untraced, traced) wall time of a
    round, each the sum over commands of their median.
    """
    rounds = [_round(cmds, paths) for cmds, paths in traced]
    missing = sorted(set().union(*(r[3] for r in rounds)))
    counts = rounds[0][0]
    if any(r[0] != counts for r in rounds[1:]):
        raise RuntimeError("per-round counts differ between traced rounds of the same inputs")
    out = {}

    def total(key):
        return float(np.median([r[1][key] for r in rounds]))

    def pooled(key):
        return [v for r in rounds for v in r[2][key]]

    tails = {}
    for base in list(PER_CALL) + ["training.backsweep", "saddlepoint.solve_saddle_self"]:
        med, tail, tails[base + "_ms.tail"] = per_call(pooled(base))
        out[base + "_ms"], out[base + "_ms.tail"] = 1e3 * med, 1e3 * tail
        if base in PER_CALL:
            out[base + ".calls"] = counts[base + ".calls"]
    for key in TOTALS:
        out[key] = total(key)

    out["training.pretrain.sample_epochs"] = pretrain_sample_epochs
    out["training.pretrain_sample_ms"] = 1e3 * total("pretrain") / pretrain_sample_epochs if pretrain_sample_epochs else 0.0
    out["training.evaluate_s"] = per_call(pooled("training.evaluate"))[0]
    attempted = counts["training.gradient.calls"]
    out["training.efficiency"] = (attempted - counts["training.gradient.failed"]) / attempted if attempted else 0.0

    for key in ["network.forward_pass.calls", "saddlepoint.failures", "linops.gram_solve.calls",
                "priors.activation_inverse.calls", "reconstruct.failures"]:
        out[key] = counts[key]
    out["network.forward_pass.per_sample"] = counts["network.forward_pass.calls"] / counts["ops"]
    for l in LAYERS:
        for key in (f"network.undefined.l{l}", f"saddlepoint.solve_saddle.calls.l{l}", f"saddlepoint.iterations.l{l}"):
            out[key] = counts[key]
    for shape in SHAPES:
        out[f"linops.gram_factor.calls.{shape}"] = counts[f"linops.gram_factor.calls.{shape}"]
    eval_samples = counts.get("eval.samples", 0)
    out["linops.gram_factor.900x405.per_eval_sample"] = (
        counts.get("eval.gram_factor.900x405", 0) / eval_samples if eval_samples else 0.0
    )

    out["cli.import_s"] = float(np.median([r["import_s"] for _, reports, _ in untraced for r in reports]))
    for name in COMMANDS:
        for suffix, field in (("_s", "main_s"), (".cpu_s", "cpu_s")):
            out[f"cli.{name}{suffix}"] = float(
                np.median(
                    [
                        sum(r[field] for c, r in zip(cmds, reports) if c.name == name)
                        for cmds, reports, _ in untraced
                    ]
                )
            )
    out["cli.output_mb"] = float(np.median([b for *_, b in untraced])) / 1e6

    untraced_wall, traced_wall = walls
    out["trace.untraced_wall_s"] = untraced_wall
    out["trace.traced_wall_s"] = traced_wall
    out["trace.overhead_s"] = traced_wall - untraced_wall
    out["trace.overhead_pct"] = 100.0 * (traced_wall - untraced_wall) / untraced_wall
    return out, {"tail_percentiles": tails, "trace_missing": missing}
