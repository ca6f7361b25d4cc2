"""Run one ``pbn`` command in this process and report what it cost.

    python3 bench/child.py REPORT.json TRACE -- <pbn arguments>

The report holds the exit status, the time to import ``pbn.cli``, the
wall and CPU time inside ``pbn.cli.main``, this process's peak resident
set, and the time of the reference job ``hostref.run`` in this process:
the mean of one run just before ``main`` and one just after it, outside
every time the report gives for ``pbn``.  With
TRACE=1 the tracing wrappers are installed after the import and the
spans are written next to the report as ``.npz``.
The caller puts ``src`` on PYTHONPATH and pins the BLAS thread pools.
"""

import json
import resource
import sys
import time


def main():
    report_path, trace, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: child.py REPORT TRACE -- <pbn arguments>")
    t0 = time.perf_counter()
    import pbn.cli

    import_s = time.perf_counter() - t0
    tracer = None
    if trace == "1":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    import hostref

    ref_before = hostref.run()
    c0, t1 = time.process_time(), time.perf_counter()
    try:
        rc = pbn.cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        rc = exc.code if isinstance(exc.code, int) else 2
    main_s, cpu_s = time.perf_counter() - t1, time.process_time() - c0
    sys.stdout.flush()
    if tracer is not None:
        tracer.save(report_path[: -len(".json")] + ".npz")
    ref_after = hostref.run()
    report = {
        "rc": rc,
        "import_s": import_s,
        "main_s": main_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ref_s": (ref_before + ref_after) / 2,
    }
    with open(report_path, "w") as fh:
        json.dump(report, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
