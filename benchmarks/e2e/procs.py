"""Process and shared-memory bookkeeping read from ``/proc`` and ``/dev/shm``.

Used for two things: the ``peak_rss_mb`` metric (the largest ``VmHWM``
over a workload's processes) and the leak/orphan gate (no process the
workload started and no ``/dev/shm`` segment it created may outlive it).
"""

from __future__ import annotations

import os
import time
from typing import Iterable, List, Set

from repro.parallel.shm import SEGMENT_PREFIX, active_segment_names

#: How long a stopped workload's descendants may take to exit.
EXIT_GRACE_S = 5.0


def children(pid: int) -> List[int]:
    """Direct children of ``pid`` (empty when it is gone)."""
    found: List[int] = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return found
    for tid in tasks:
        try:
            with open(f"/proc/{pid}/task/{tid}/children") as fh:
                found.extend(int(p) for p in fh.read().split())
        except OSError:
            continue
    return found


def descendants(pid: int) -> List[int]:
    """Every live descendant of ``pid``, depth first."""
    out: List[int] = []
    stack = children(pid)
    while stack:
        child = stack.pop()
        out.append(child)
        stack.extend(children(child))
    return out


def peak_rss_mb(pids: Iterable[int]) -> float:
    """Largest peak resident set (``VmHWM``) over ``pids``, in MiB."""
    peak_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        peak_kb = max(peak_kb, int(line.split()[1]))
                        break
        except OSError:
            continue
    return peak_kb / 1024.0


def alive(pid: int) -> bool:
    """Whether ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            stat = fh.read()
    except OSError:
        return False
    # The state letter follows the parenthesised command name.
    return stat.rsplit(")", 1)[1].split()[0] not in ("Z", "X")


def survivors(pids: Iterable[int]) -> List[int]:
    """The ``pids`` still alive after up to :data:`EXIT_GRACE_S`."""
    pending = list(pids)
    deadline = time.monotonic() + EXIT_GRACE_S
    while True:
        pending = [pid for pid in pending if alive(pid)]
        if not pending or time.monotonic() >= deadline:
            return pending
        time.sleep(0.05)


def shm_segments() -> Set[str]:
    """Names of library-owned segments currently in ``/dev/shm``."""
    return set(active_segment_names())


def segment_owner(name: str) -> str:
    """The creating pid of a library segment: the library names them
    ``<SEGMENT_PREFIX>_<pid>_...``."""
    return name[len(SEGMENT_PREFIX):].lstrip("_").split("_", 1)[0]


def leaked_segments(before: Set[str], pids: Iterable[int]) -> List[str]:
    """Segments created by one of ``pids`` since ``before`` that still
    exist."""
    owners = {str(pid) for pid in pids}
    return sorted(name for name in shm_segments() - before
                  if segment_owner(name) in owners)
