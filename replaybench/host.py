"""Host measurements: CPU and memory accounting, and host-speed calibration.

The machines this benchmark runs on are shared, and their speed
drifts by tens of percent over minutes: a fixed pure-Python loop
measured 71-204 ms of wall time and 69-113 ms of CPU time across 60
back-to-back runs, and whole 20-second benchmark runs of the same
trace differed by 30% in replay time.  Timing more replays per run
cannot remove a drift that outlasts the run.  So the timed figures
are scaled to a reference host speed: a fixed kernel, written here
and independent of the program under test, is timed after set-up and
after every replay, and the run's median times are multiplied by
``REFERENCE_KERNEL_S / median kernel time`` (a median over the whole
run, because one ~40 ms kernel sample is itself moved by a stall).
A change to the program moves the scaled figures exactly as it moves
the raw ones; a change in host speed moves the kernel too and cancels
out.

The kernel runs in this process alone, also for a workload whose
replay keeps a worker process busy.  Running a second kernel at the
same time was tried: on a host whose two vCPUs are sometimes placed
on one core, the two-kernel time swung 40-100 ms while the parallel
replay moved only ~30%, so it over-corrected.
"""

from __future__ import annotations

import resource
import time

import numpy as np

#: Kernel time of the reference host, in seconds: scaled figures read
#: as if the kernel took exactly this long (about the median kernel
#: time on the machine the bounds were set on; see README.md).
REFERENCE_KERNEL_S = 0.040
#: Kernel repetitions per calibration; the median is taken.
KERNEL_REPEATS = 3


def _kernel_once() -> float:
    """Interpreter-bound object churn, NumPy sorts and gathers, then
    64-bit multiply-xor-shift hashing over batch-sized arrays (the
    shape of the replay's vectorised hashing)."""
    t0 = time.perf_counter()
    objs: dict = {}
    for i in range(40_000):
        k = (i * 2654435761) & 0xFFFF
        o = objs.get(k)
        if o is None:
            objs[k] = [i, k, float(i)]
        else:
            o[0] += 1
    a = (np.arange(200_000, dtype=np.int64) * 2654435761) & 0xFFFFF
    for _ in range(2):
        order = np.argsort(a, kind="stable")
        a = a[order] ^ 0x5BD1E995
    h = np.arange(8192, dtype=np.uint64)
    for _ in range(60):
        h = (h ^ (h >> np.uint64(29))) * np.uint64(0xBF58476D1CE4E5B9)
        h ^= h >> np.uint64(32)
    return time.perf_counter() - t0


def kernel_seconds() -> float:
    """Median time of the calibration kernel in this process, now."""
    times = sorted(_kernel_once() for _ in range(KERNEL_REPEATS))
    return times[len(times) // 2]


def cpu_seconds() -> float:
    """User + system CPU of this process and its reaped children."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest reaped child, MiB."""
    me = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (me + kids) / 1024.0

