"""Host speed probe: how fast this host runs Python at a given moment.

Each vCPU of the 2-vCPU host the benchmark was built on switches between
two speed states every few seconds, without any steal time showing in
``/proc/stat``: the probe below takes about 3 ms in one state and 4.5 ms
in the other, and the two vCPUs often differ.  A 25 s window holds a
different mix of states from run to run, so raw op times of identical
runs were 14-29% apart (interquartile range over ten runs).  A probe
run right next to each op slows with it: ssta op time divided by the
adjacent probe time kept within 1% over 25 s slices that raw times put
32% apart.

So the library ops and every cold start are timed at one reference
speed: a duration measured while the probe took ``p`` seconds is
reported as ``duration * REFERENCE_S / p``.  (Served requests are not:
at the benchmark's light load their times did not follow the probe.)
The probe runs once on each CPU the process may use and reports the
mean, because the program's processes and threads run on either.  It
is benchmark code only, and it runs while the program is idle (between
library ops, after a cold start), so no change to the program can
speed it up or slow it down.
"""

from __future__ import annotations

import os
import statistics
import time
from typing import List, Sequence

#: Loop iterations of one probe.
PROBE_ITERATIONS = 15000
#: Seconds one probe takes at the reference speed (the faster state of
#: the host the benchmark was built on).
REFERENCE_S = 0.003
#: Probes behind the speed reading of one cold start.
SETUP_PROBES = 5


def loop_seconds() -> float:
    """Seconds one fixed pure-Python loop takes on the current CPU."""
    start = time.perf_counter()
    table: dict = {}
    acc = 0.0
    for i in range(PROBE_ITERATIONS):
        key = i & 1023
        table[key] = table.get(key, 0.0) + i * 0.5
        acc += (i % 7) * 1.5
    return time.perf_counter() - start


def probe() -> float:
    """Mean of :func:`loop_seconds` over the CPUs this thread may use,
    running on each in turn; the thread's CPU set is restored after."""
    if not hasattr(os, "sched_setaffinity"):
        return loop_seconds()
    allowed = os.sched_getaffinity(0)
    times = []
    try:
        for cpu in sorted(allowed):
            os.sched_setaffinity(0, {cpu})
            times.append(loop_seconds())
    finally:
        os.sched_setaffinity(0, allowed)
    return statistics.fmean(times)


def settled_probe(count: int = SETUP_PROBES) -> float:
    """Median of ``count`` back-to-back probes."""
    return statistics.median(probe() for _ in range(count))


def scaled(duration: float, probe_s: float) -> float:
    """``duration`` measured while a probe took ``probe_s``, at the
    reference speed."""
    return duration * REFERENCE_S / probe_s


def scaled_all(durations: Sequence[float],
               probes: Sequence[float]) -> List[float]:
    """Each duration scaled by the probe paired with it."""
    if len(durations) != len(probes):
        raise ValueError("need one probe per duration")
    return [scaled(d, p) for d, p in zip(durations, probes)]
