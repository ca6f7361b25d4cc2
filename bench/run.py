"""Word-pair benchmark of the ``pbn`` command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--quick]

Run from the root of a source checkout.  The run sets up the workload's
inputs (three times or more; ``setup_s`` is the median), then repeats
rounds of the workload's ``pbn`` commands until the next round would end
after ``--seconds``.  Every command runs as a fresh process through
``child.py`` with the BLAS and OpenMP pools pinned to one thread, one
command at a time.  After the rounds the outputs of the first round are
checked and every later round must have written the same bytes.

With ``--trace 0`` the last line of standard output is a JSON object
with the end-to-end metrics, their times scaled to the reference host
speed by the reference job each process runs (``hostref.py``); with
``--trace 1`` the run alternates untraced and traced rounds and reports
the per-layer metrics instead.  The metric names and units come from
BENCHMARK.json.  The line before it records the machine, and
``bench/_work/<workload>/result.json`` keeps the whole record of the
run, the unscaled figures too.
"""

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import hostref  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
# Set up at least SETUP_REPEATS times, and until the set-ups have taken
# SETUP_SECONDS, but no more than SETUP_MAX times.  A set-up of a fifth
# of a second sits inside one fast or slow stretch of the host; twenty
# of them, over four seconds, span more than one.
SETUP_REPEATS, SETUP_SECONDS, SETUP_MAX = 3, 4.0, 20


class ChildFailed(RuntimeError):
    pass


def child_env():
    """The caller's environment with the thread pools pinned and src importable.

    Bytecode caching is switched on, as it is for an installed package, so
    every child imports from the cache the warm-up import fills.
    """
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    env["PYTHONPATH"] = SRC + os.pathsep + HERE
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_child(argv, report_path, trace, cwd=ROOT):
    """Run one pbn command in a fresh process: (wall seconds, report or None, stdout).

    The wall time leaves out the two runs of the reference job the
    process makes.
    """
    cmd = [sys.executable, CHILD, report_path, "1" if trace else "0", "--"] + argv
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, env=child_env(), capture_output=True, text=True, cwd=cwd)
    wall = time.perf_counter() - t0
    report = None
    if proc.returncode == 0 and os.path.exists(report_path):
        with open(report_path) as fh:
            report = json.load(fh)
        wall -= 2 * report["ref_s"]
    with open(report_path[: -len(".json")] + ".log", "w") as fh:
        fh.write(proc.stdout + proc.stderr)
    return wall, report, proc.stdout


def machine():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "python": sys.version.split()[0],
        "numpy": np.__version__,
    }


def tree_digest(path):
    h = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(path)):
        dirs.sort()
        for name in sorted(files):
            full = os.path.join(base, name)
            h.update(os.path.relpath(full, path).encode())
            with open(full, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def tree_bytes(path):
    return sum(os.path.getsize(os.path.join(b, f)) for b, _, files in os.walk(path) for f in files)


def command_medians(rounds, field):
    """For each command of a round, the median of one of its reported figures over the rounds."""
    return [statistics.median(r["reports"][k][field] for r in rounds) for k in range(len(rounds[0]["commands"]))]


def scaled_total(rounds, seconds):
    """Sum over the rounds' commands of ``seconds(round, k)``, each scaled to the reference host speed.

    Each time is scaled by ``hostref.REFERENCE_S`` over the reference
    job's time in the process it was taken in.
    """
    return sum(
        seconds(r, k) * hostref.REFERENCE_S / r["reports"][k]["ref_s"] for r in rounds for k in range(len(r["walls"]))
    )


def mean_round_wall(rounds):
    """Wall time of the rounds' commands, summed over the rounds, per round.

    A command's time spreads flat over a wide range from one launch to
    the next, and a run holds only five to ten rounds; for such a spread
    the mean of a few values is a steadier estimate than their median.
    """
    return sum(r["wall"] for r in rounds) / len(rounds)


def run_round(workload, inputs, out, trace):
    """One round: every command of the workload, in order, each in its own process.

    Commands run inside the round directory and name their outputs
    relative to it, so output headers, which echo the paths given, are
    the same in every round.
    """
    os.makedirs(out)
    commands = workload.commands(inputs, ".")
    walls, reports, stdouts, failed = [], [], [], 0
    for k, cmd in enumerate(commands):
        wall, report, stdout = run_child(cmd.argv, f"{out}.cmd{k}.json", trace, cwd=out)
        walls.append(wall)
        reports.append(report)
        stdouts.append(stdout)
        failed += cmd.ops if report is None or report["rc"] != 0 else cmd.failed(cmd.ops, stdout, out)
    return {
        "trace": trace,
        "commands": commands,
        "wall": sum(walls),
        "walls": walls,
        "reports": reports,
        "stdouts": stdouts,
        "spans": [f"{out}.cmd{k}.npz" for k in range(len(commands))],
        "ops": sum(c.ops for c in commands),
        "failed": failed,
        "complete": all(r is not None and r["rc"] == 0 for r in reports),
        "digest": tree_digest(out),
        "bytes": tree_bytes(out),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="small inputs, for smoke runs")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "pbn", "cli.py")):
        print(f"error: no pbn sources at {SRC}; run from the root of a source checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    import workloads

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload](args.seed, args.quick)

    work = os.path.join(HERE, "_work", workload.name)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    inputs = os.path.join(work, "inputs")
    record = {"machine": machine(), "workload": workload.name, "seed": args.seed, "quick": args.quick}
    print(json.dumps({"machine": record["machine"]}), flush=True)

    setup_refs = []  # reference job times of the set-up's processes, this one included

    def pbn(argv):
        _, report, _ = run_child(argv, os.path.join(work, "setup.json"), False)
        if report is None or report["rc"] != 0:
            raise ChildFailed(f"set-up command failed: pbn {' '.join(argv)}")
        setup_refs.append(report["ref_s"])

    # compile and cache the package once, so no timed process pays for it
    subprocess.run([sys.executable, "-c", "import pbn.cli"], env=child_env(), cwd=ROOT, check=True)
    setups = []
    while len(setups) < SETUP_REPEATS or (sum(setups) < SETUP_SECONDS and len(setups) < SETUP_MAX):
        shutil.rmtree(inputs, ignore_errors=True)
        os.makedirs(inputs)
        t0 = time.perf_counter()
        workload.setup(inputs, pbn)
        setups.append(time.perf_counter() - t0)
        setup_refs.append(hostref.run())

    rounds = []
    t_start = time.perf_counter()
    while True:
        trace = bool(args.trace) and len(rounds) % 2 == 1
        rounds.append(run_round(workload, inputs, os.path.join(work, f"round{len(rounds)}"), trace))
        if len(rounds) > 1:  # round0 stays for the checks; the others only need their digest
            shutil.rmtree(os.path.join(work, f"round{len(rounds) - 1}"))
        next_trace = bool(args.trace) and len(rounds) % 2 == 1
        same_kind = [r["wall"] for r in rounds if r["trace"] == next_trace] or [rounds[-1]["wall"]]
        enough = len(rounds) >= (2 if args.trace else 1)
        if enough and time.perf_counter() - t_start + same_kind[-1] > args.seconds:
            break

    first = rounds[0]
    failures = []
    if first["complete"]:
        stdout = {}
        for cmd, text in zip(first["commands"], first["stdouts"]):
            stdout.setdefault(cmd.name, []).append(text)
        try:
            failures += workload.check(inputs, os.path.join(work, "round0"), stdout)
        except Exception as exc:  # an output too broken to check is a failed check
            failures.append(f"checking raised {type(exc).__name__}: {exc}")
    else:
        failures.append("a command of the first round failed; see bench/_work logs")
    if any(r["digest"] != first["digest"] for r in rounds):
        failures.append("rounds on the same inputs wrote different output bytes")

    untraced = [r for r in rounds if not r["trace"] and r["complete"]]
    traced = [r for r in rounds if r["trace"] and r["complete"]]
    if not untraced or (args.trace and not traced):
        print("error: no round ran every command to its end; see bench/_work logs", file=sys.stderr)
        return 1
    if args.trace:
        import perlayer

        values, info = perlayer.metrics(
            [(r["commands"], r["spans"]) for r in traced],
            [(r["commands"], r["reports"], r["bytes"]) for r in untraced],
            workload.pretrain_sample_epochs,
            walls=(mean_round_wall(untraced), mean_round_wall(traced)),
        )
        wanted = spec["per_layer"]
        record.update(info)
        if info["trace_missing"]:
            print(f"trace: pbn no longer has {', '.join(info['trace_missing'])}; their metrics read 0", flush=True)
    else:
        ops = sum(r["ops"] for r in untraced)
        raw = {
            "setup_s": statistics.median(setups),
            "wall_s": mean_round_wall(untraced),
            "samples_per_s": ops / sum(sum(c["main_s"] for c in r["reports"]) for r in untraced),
        }
        # Times scaled to the reference host speed (README: "Host-speed scaling").
        values = {
            "setup_s": raw["setup_s"] * hostref.REFERENCE_S / statistics.median(setup_refs),
            "wall_s": scaled_total(untraced, lambda r, k: r["walls"][k]) / len(untraced),
            "samples_per_s": ops / scaled_total(untraced, lambda r, k: r["reports"][k]["main_s"]),
            "peak_rss_mb": max(command_medians(untraced, "peak_rss_mb")),
        }
        record.update(raw=raw, setup_refs=setup_refs)
        wanted = spec["end_to_end"]
    if set(values) != {m["name"] for m in wanted}:
        raise RuntimeError(f"metrics {sorted(set(values) ^ {m['name'] for m in wanted})} do not match BENCHMARK.json")

    result = {
        "correct": not failures,
        "attempted": sum(r["ops"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    record.update(
        setups=setups,
        rounds=[{k: r[k] for k in ("trace", "wall", "walls", "reports", "ops", "failed", "digest")} for r in rounds],
        check_failures=failures,
        check_notes=workload.notes,
        result=result,
    )
    with open(os.path.join(work, "result.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    for msg in failures:
        print(f"check failed: {msg}", flush=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
