"""A fixed reference job that measures how fast the host runs one process.

On a shared host, one process runs up to a third slower than the next,
and whole runs can fall into a slow stretch.  Within a process the speed
holds: the time a ``pbn`` command spends in ``main`` and the time the
same process takes for this job correlate at r = 0.8 to 0.9.  So every
command's process runs the job just before ``main`` and just after it,
and ``run.py`` scales the command's times by ``REFERENCE_S`` over the
mean of the two (README.md, "Host-speed scaling").

The job compiles and executes a fixed synthetic module of small
functions and classes: parser, compiler and allocator work, much like an
import, with no file I/O and nothing from ``pbn``, numpy or scipy, so no
change to the program moves it.
"""

import time

SOURCE = "\n".join(
    f"def f{i}(a, b=1):\n"
    f"    x = [a, b, {i}]\n"
    f"    return {{'k': x, 'v': (a + b) * {i}}}\n"
    f"class C{i}:\n"
    f"    y = {i}\n"
    f"    def m(self):\n"
    f"        return self.y"
    for i in range(400)
)

# The job's median time on the machine of the reference figures in
# README.md.  Fixed: changing it rescales every end-to-end time.
REFERENCE_S = 0.08


def run():
    """Seconds one compile and execution of SOURCE takes in this process."""
    t0 = time.perf_counter()
    exec(compile(SOURCE, "<hostref>", "exec"), {})
    return time.perf_counter() - t0
