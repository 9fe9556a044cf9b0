"""Host-speed calibration for the end-to-end timings.

On a shared host the same code runs up to 25 % slower for stretches of a
second to a minute, long enough to move a whole run.  The benchmark
therefore times a fixed pure-Python kernel between jobs, in the same
process, and scales each job's time by ``REFERENCE_S`` over the median
kernel time within ``WINDOW_S`` of the job.  The reported times read as they
would on a host where the kernel takes ``REFERENCE_S``.

The kernel fills a coin-counting table and scans it through a dict and a
generator, the same kinds of interpreter work as the package does, but it
calls no package code, so a change to the package
cannot change it.  A package change that slows the whole interpreter (a
trace hook, a busy thread) would slow the kernel as well and hide itself,
so ``sample`` refuses to run when either is present.
"""

from __future__ import annotations

import bisect
import statistics
import sys
import threading
from time import perf_counter

REFERENCE_S = 1e-3
WINDOW_S = 0.5


def kernel() -> int:
    counts = [0] * 2000
    counts[0] = 1
    for a in (3, 5, 7):
        for n in range(a, 2000):
            counts[n] += counts[n - a]
    member = {n: c % 3 == 0 for n, c in enumerate(counts)}
    return sum(1 for n in range(1, 2000) if member.get(n) and not member.get(n - 1))


def sample(samples: list[tuple[float, float]]) -> float:
    """Time one kernel run, append ``(end, seconds)`` to ``samples``, return the end."""
    if sys.gettrace() is not None or sys.getprofile() is not None:
        raise RuntimeError("a trace or profile hook is set; calibration would be skewed")
    if threading.active_count() != 1:
        raise RuntimeError("extra threads are running; calibration would be skewed")
    start = perf_counter()
    kernel()
    end = perf_counter()
    samples.append((end, end - start))
    return end


def scaled(ends, seconds, samples: list[tuple[float, float]]) -> list[float]:
    """Each job's ``seconds`` (it ended at ``ends``) as seconds at reference speed.

    ``samples`` must be in time order.  A job with no sample within
    ``WINDOW_S`` uses the nearest one.
    """
    times = [t for t, _ in samples]
    kernel_s = [s for _, s in samples]
    out = []
    for end, job_s in zip(ends, seconds):
        lo = bisect.bisect_left(times, end - WINDOW_S)
        hi = bisect.bisect_right(times, end + WINDOW_S)
        if lo == hi:
            nearest = min(range(len(times)), key=lambda i: abs(times[i] - end))
            lo, hi = nearest, nearest + 1
        local = statistics.median(kernel_s[lo:hi])
        out.append(job_s * REFERENCE_S / local)
    return out
