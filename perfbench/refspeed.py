"""Reference seconds: timings freed from the machine's speed of the moment.

The machine the benchmark runs on is shared; its speed for pure-Python
work swings by up to 2x over phases of one to forty seconds.  So the
benchmark times a fixed reference loop next to the program, every
REFERENCE_EVERY_S, and reports a CPU time t that met a mean reference-loop
CPU time r as t * REFERENCE_S / r: the time t would have taken on a machine
that runs the loop in exactly REFERENCE_S.  Both are CPU times, so time
the process spends waiting for a core that another process holds counts
in neither.  The loop and REFERENCE_S never change, so reference seconds
compare across commits.  A 2-core x86 machine runs the loop in about
1.2 ms.
"""
from __future__ import annotations

import contextlib
import gc
import resource
import signal
import time

REFERENCE_S = 0.001
REFERENCE_EVERY_S = 0.05


def reference_loop() -> int:
    """Fixed work: integer arithmetic and dict reads and writes.  It makes
    no objects the garbage collector tracks, beyond one dict."""
    d = dict.fromkeys(range(512), 0)
    for j in range(4000):
        d[j & 511] = (j * j + d[(j * 7) & 511]) % 7919
    return d[0]


def cpu_s() -> float:
    """CPU seconds of this process, all threads, plus those of the child
    processes it has waited for, so that work moved into a child counts."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def time_reference(repeat: int = 1) -> float:
    """Mean CPU seconds of this thread over `repeat` reference loops, with
    collection off so that the program's heap cannot slow the loop."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.thread_time()
        for _ in range(repeat):
            reference_loop()
        return (time.thread_time() - start) / repeat
    finally:
        if enabled:
            gc.enable()


@contextlib.contextmanager
def sampling(samples: list):
    """Within the block, time the reference loop every REFERENCE_EVERY_S
    from a SIGALRM handler, which runs on the main thread between two
    steps of whatever Python code runs there, long program calls included.
    Appends [start, end, cpu, reference seconds] per handler run: its
    `time.perf_counter` readings, the CPU seconds (`cpu_s`) it took, and
    the loop's CPU time.  A CPU time that spans handler runs must leave
    their `cpu` out."""

    def handler(signum, frame):
        start, cpu = time.perf_counter(), cpu_s()
        seconds = time_reference()
        samples.append([start, time.perf_counter(), cpu_s() - cpu, seconds])

    previous = signal.signal(signal.SIGALRM, handler)
    signal.setitimer(signal.ITIMER_REAL, REFERENCE_EVERY_S, REFERENCE_EVERY_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
