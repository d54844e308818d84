"""A long-lived warm worker pool: fork once, serve many sharded runs.

Every multi-worker run of :mod:`repro.parallel.executor` executes on
the :class:`WarmPool`, which keeps one fork-context
``ProcessPoolExecutor`` alive across calls so a run does not pay the
fork (and, on the first task, the import/page-in) cost again:

* the first run forks the workers (``parallel_pool_forks_total``);
* subsequent runs re-use them (``parallel_pool_reuses_total``), which is
  what lets the shm transport amortize its one-time publication — warm
  workers keep their attached zero-copy views between calls;
* a failed wave (dead worker, hung shard) **recycles** the pool
  (``parallel_pool_recycles_total``): the old workers are terminated
  without waiting and the next wave forks a clean set — a poisoned
  worker never serves another shard.

Lifecycle: one module-level pool, resized on demand when a run asks for
a different worker count, torn down by :func:`shutdown_warm_pool` (and
``atexit``).  Teardown terminates workers first so a hung shard cannot
block interpreter exit.

Concurrent runs are safe via **leases**: every run that executes on the
pool holds a lease (:func:`lease_warm_pool` /
:meth:`WarmPool.release_lease`).  A resize never yanks workers out from
under an in-flight run — the old pool is *retired* instead: it keeps
serving its lease holders, is tracked in an orphan registry, and is torn
down when its last lease releases (or by :func:`shutdown_warm_pool` /
``atexit``, which sweep orphans too).
"""

from __future__ import annotations

import atexit
import logging
import multiprocessing
import threading
from concurrent.futures import ProcessPoolExecutor
from typing import Optional

from repro.obs.metrics import counter as _counter
from repro.obs.metrics import gauge as _gauge

__all__ = [
    "WarmPool",
    "get_warm_pool",
    "lease_warm_pool",
    "shutdown_warm_pool",
]

logger = logging.getLogger(__name__)

_FORKS = _counter(
    "parallel_pool_forks_total",
    "Times the warm pool forked a fresh set of worker processes",
)
_REUSES = _counter(
    "parallel_pool_reuses_total",
    "Sharded runs served by already-forked warm-pool workers",
)
_RECYCLES = _counter(
    "parallel_pool_recycles_total",
    "Warm-pool recycles after a worker death, hang, or resize",
)
_POOL_WORKERS = _gauge(
    "parallel_pool_workers",
    "Worker processes the warm pool is currently sized for (0 = down)",
)


def _init_pool_worker(counter) -> None:
    """Pool initializer: claim the next worker index from the shared
    ``multiprocessing.Value`` and record it for obs payload attribution
    (:func:`repro.obs.aggregate.set_worker_id`).  Indices restart at 0
    on every fork/recycle — they identify a worker *within* the current
    pool generation; the payload's pid disambiguates across
    generations."""
    from repro.obs.aggregate import set_worker_id

    with counter.get_lock():
        worker_index = counter.value
        counter.value = worker_index + 1
    set_worker_id(worker_index)


#: Seconds :func:`_terminate_pool` waits for a pool's manager thread.
_TEARDOWN_JOIN_S = 5.0


def _terminate_pool(pool: Optional[ProcessPoolExecutor]) -> None:
    """Tear a pool down without waiting on hung or dead workers."""
    if pool is None:
        return
    # Terminate worker processes first: shutdown() alone would block
    # behind a shard that is hung in user code.  ``_processes`` is
    # private API, so guard it — worst case a stuck worker leaks until
    # process exit, and the run still makes progress on a fresh pool.
    try:
        processes = getattr(pool, "_processes", None) or {}
        for proc in list(processes.values()):
            proc.terminate()
    except Exception:  # pragma: no cover - defensive
        pass
    # shutdown() drops the executor's manager thread, so take it first.
    manager = getattr(pool, "_executor_manager_thread", None)
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:  # pragma: no cover - defensive
        pass
    # Let the manager thread finish its teardown.  Still running at
    # interpreter exit, it closes its wakeup pipe while concurrent.futures'
    # exit hook writes to it, which prints "Exception ignored ...
    # [Errno 9] Bad file descriptor".  The workers are already
    # terminated, so the join is short; the bound only guards a worker
    # that ignores SIGTERM.
    if manager is not None:
        manager.join(timeout=_TEARDOWN_JOIN_S)


class WarmPool:
    """A reusable fork-context process pool with recycle-on-failure."""

    def __init__(self, jobs: int) -> None:
        self.jobs = int(jobs)
        self._pool: Optional[ProcessPoolExecutor] = None
        self._lock = threading.Lock()
        self._leases = 0
        self._retired = False

    @property
    def is_warm(self) -> bool:
        """Whether workers are currently forked and serving."""
        return self._pool is not None

    @property
    def leases(self) -> int:
        """In-flight runs currently holding this pool."""
        with self._lock:
            return self._leases

    def lease(self) -> "WarmPool":
        """Register one in-flight run on this pool (returns ``self``).

        While any lease is held a resize cannot tear the pool down —
        :func:`get_warm_pool` retires it into the orphan registry
        instead, and the final :meth:`release_lease` performs the
        teardown.
        """
        with self._lock:
            self._leases += 1
        return self

    def release_lease(self) -> None:
        """Drop one lease; tears the pool down if it was retired and
        this was the last in-flight run (idempotent past zero)."""
        with self._lock:
            self._leases = max(self._leases - 1, 0)
            teardown = self._retired and self._leases == 0
        if teardown:
            self.shutdown()
            _forget_orphan(self)

    def retire(self) -> bool:
        """Mark this pool for teardown once its leases drain.

        Returns ``True`` when the pool is already idle (no leases) —
        the caller shuts it down immediately; ``False`` when in-flight
        runs still hold it and the last :meth:`release_lease` will do
        the teardown instead.
        """
        with self._lock:
            self._retired = True
            return self._leases == 0

    def executor(self) -> ProcessPoolExecutor:
        """The live pool, forking workers on first use.

        Raises whatever ``ProcessPoolExecutor`` raises when no start
        method works — the caller degrades to serial in that case.
        """
        with self._lock:
            if self._pool is None:
                from repro.resilience.faults import check as _fault_check

                if _fault_check("pool.fork") is not None:
                    raise RuntimeError("injected fault: pool.fork")
                methods = multiprocessing.get_all_start_methods()
                context = multiprocessing.get_context(
                    "fork" if "fork" in methods else None
                )
                self._pool = ProcessPoolExecutor(
                    max_workers=self.jobs, mp_context=context,
                    initializer=_init_pool_worker,
                    initargs=(context.Value("i", 0),),
                )
                _FORKS.inc()
                _POOL_WORKERS.set(self.jobs)
                logger.debug("warm pool forked %d workers", self.jobs)
            else:
                _REUSES.inc()
            return self._pool

    def recycle(self) -> None:
        """Terminate the current workers; the next wave forks fresh ones."""
        with self._lock:
            if self._pool is not None:
                _terminate_pool(self._pool)
                self._pool = None
                _RECYCLES.inc()
                logger.debug("warm pool recycled")

    def shutdown(self) -> None:
        """Tear the pool down for good (until the next ``executor()``)."""
        with self._lock:
            if self._pool is not None:
                _terminate_pool(self._pool)
                self._pool = None
            _POOL_WORKERS.set(0)


_WARM: Optional[WarmPool] = None
_WARM_LOCK = threading.Lock()
#: Retired pools whose lease holders are still running.  Tracked so
#: :func:`shutdown_warm_pool` / ``atexit`` can terminate them even if a
#: lease is never released (a crashed run must not leak workers until
#: interpreter exit).
_ORPHANS: "set[WarmPool]" = set()


def _forget_orphan(pool: WarmPool) -> None:
    with _WARM_LOCK:
        _ORPHANS.discard(pool)


def _current_pool_locked(jobs: int) -> WarmPool:
    """The global pool sized for ``jobs`` (``_WARM_LOCK`` held).

    Resizing retires the old pool: torn down immediately when idle,
    parked in the orphan registry (still serving its in-flight lease
    holders) otherwise.
    """
    global _WARM
    if _WARM is not None and _WARM.jobs != jobs:
        old = _WARM
        _WARM = None
        if old.retire():
            old.shutdown()
        else:
            logger.debug(
                "warm pool resized %d -> %d with %d run(s) in flight; "
                "retiring the old pool until its leases drain",
                old.jobs, jobs, old.leases,
            )
            _ORPHANS.add(old)
    if _WARM is None:
        _WARM = WarmPool(jobs)
    return _WARM


def get_warm_pool(jobs: int) -> WarmPool:
    """The process-global warm pool, resized to ``jobs`` workers.

    Resizing (asking for a different worker count than the live pool
    serves) retires the old pool — immediately torn down when no run
    holds a lease on it; kept serving its in-flight runs otherwise (see
    :func:`lease_warm_pool`).  Asking for the current size is a pure
    lookup.
    """
    with _WARM_LOCK:
        return _current_pool_locked(jobs)


def lease_warm_pool(jobs: int) -> WarmPool:
    """Atomically fetch the global pool for ``jobs`` **and** lease it.

    This is what a run must use (rather than :func:`get_warm_pool` +
    :meth:`WarmPool.lease`) so a concurrent resize cannot slip between
    the lookup and the lease and tear down the pool it just returned.
    The caller pairs it with :meth:`WarmPool.release_lease`.
    """
    with _WARM_LOCK:
        return _current_pool_locked(jobs).lease()


def shutdown_warm_pool() -> None:
    """Terminate the global warm pool's workers — and any retired pools
    still serving in-flight leases (idempotent)."""
    global _WARM
    with _WARM_LOCK:
        pools = list(_ORPHANS)
        _ORPHANS.clear()
        if _WARM is not None:
            pools.append(_WARM)
            _WARM = None
    for pool in pools:
        pool.retire()
        pool.shutdown()


atexit.register(shutdown_warm_pool)
