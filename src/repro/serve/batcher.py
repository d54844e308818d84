"""Request batching/coalescing queue for the HTTP service.

Concurrent requests against the same compiled topology (equal
:func:`~repro.serve.schemas.topology_key`) coalesce into **one** batched
sweep: the batcher groups pending requests per key, waits out a short
batch window so bursts pile up, stacks every request's parameter rows
into a single ``(B, N)`` matrix, and dispatches one evaluation to the
executor — the warm-pool-backed :class:`~repro.serve.engine.StatsEngine`
by default.  While a sweep is executing, newly arriving requests for
the same key accumulate and form the next batch, so coalescing emerges
under load even with a zero-length window.

Robustness contract (tested under fault injection):

* **bounded queue** — at most ``max_queue`` requests wait at once;
  excess submissions fail fast with :class:`QueueFullError` (HTTP 429);
* **deadlines** — a request whose deadline expires while queued is
  failed with :class:`DeadlineExpiredError` (504) and *dropped from the
  batch*; the surviving requests sweep normally.  In-flight expiry is
  the caller's ``asyncio.wait_for``: a cancelled waiter never poisons
  the batch because results are only delivered to still-pending
  futures;
* **failure isolation** — an evaluation failure fails exactly the
  requests of that batch (the sharded engine underneath already retried
  on a recycled pool and degraded to serial before letting the error
  through); other keys and later batches are untouched;
* **graceful drain** — :meth:`close` rejects new submissions
  (:class:`DrainingError`, 503), :meth:`drain` waits for in-flight
  batches to finish and fails whatever could not complete in time.
"""

from __future__ import annotations

import asyncio
import logging
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence

from repro._exceptions import ReproError
from repro.obs.metrics import counter as _counter
from repro.resilience.faults import check as _fault_check
from repro.serve import metrics as _metrics

__all__ = [
    "Batcher",
    "BatcherStats",
    "QueueFullError",
    "DeadlineExpiredError",
    "DrainingError",
    "StuckBatchError",
]

logger = logging.getLogger(__name__)

_WATCHDOG_FIRED = _counter(
    "resilience_watchdog_fired_total",
    "Batches the serve watchdog declared stuck and recycled",
)


class QueueFullError(ReproError):
    """The pending queue is at capacity; the caller should back off."""


class DeadlineExpiredError(ReproError):
    """The request's deadline passed before its batch was dispatched."""


class DrainingError(ReproError):
    """The server is shutting down and no longer accepts work."""


class StuckBatchError(ReproError):
    """The watchdog gave up on a batch that outlived its budget.

    The sweep thread it was running on may still be wedged — the
    ``on_stuck`` callback is expected to recycle the executor so the
    *next* batch gets a live thread; this batch's requests fail with a
    retryable 503."""


@dataclass
class _Pending:
    """One queued request plus its delivery future."""

    request: Any
    future: "asyncio.Future[Any]"
    deadline: Optional[float]  # absolute time.monotonic() budget

    def expired(self, now: float) -> bool:
        return self.deadline is not None and now >= self.deadline


@dataclass
class BatcherStats:
    """Counters the tests and ``/metrics`` cross-check."""

    submitted: int = 0
    batches: int = 0
    coalesced: int = 0
    rejected: int = 0
    expired: int = 0
    failed: int = 0
    stuck: int = 0
    max_batch_size: int = 0


class Batcher:
    """Coalesces same-key requests into batched executor dispatches.

    Parameters
    ----------
    evaluate:
        ``evaluate(key, requests) -> list_of_results`` (one result per
        request, in order); runs in ``executor``.  Raising fails the
        whole batch — per-request errors must be caught at validation
        time, before :meth:`submit`.
    executor:
        The ``concurrent.futures`` executor evaluations run on.  One
        worker thread serializes sweeps (and maximizes coalescing
        during bursts); more threads trade coalescing for overlap.
    window:
        Seconds a freshly opened batch waits for companions before
        dispatching.  ``0`` dispatches immediately — coalescing then
        comes only from requests arriving while a sweep is in flight.
    max_queue:
        Pending-request bound; beyond it :meth:`submit` raises
        :class:`QueueFullError`.
    coalesce:
        ``False`` dispatches every request as its own batch (the
        comparison baseline ``bench_serve.py`` measures against).
    watchdog_timeout:
        Seconds an in-flight evaluation may run before the watchdog
        declares the batch stuck: its requests fail with
        :class:`StuckBatchError` (503) and ``on_stuck`` is invoked to
        recycle the executor, instead of the wedged sweep thread
        silently serializing every later batch behind it.  ``None``
        (default) disables the watchdog.
    on_stuck:
        ``on_stuck(key)`` callback fired when the watchdog trips —
        the server uses it to swap in a fresh sweep executor and
        recycle the warm worker pool underneath.
    """

    def __init__(
        self,
        evaluate: Callable[[str, Sequence[Any]], List[Any]],
        executor,
        window: float = 0.002,
        max_queue: int = 256,
        coalesce: bool = True,
        watchdog_timeout: Optional[float] = None,
        on_stuck: Optional[Callable[[str], None]] = None,
    ) -> None:
        if window < 0:
            raise ReproError(f"window must be >= 0, got {window}")
        if max_queue < 1:
            raise ReproError(f"max_queue must be >= 1, got {max_queue}")
        if watchdog_timeout is not None and not watchdog_timeout > 0:
            raise ReproError(
                f"watchdog_timeout must be > 0, got {watchdog_timeout}"
            )
        self._evaluate = evaluate
        self._executor = executor
        self._window = float(window)
        self._max_queue = int(max_queue)
        self._coalesce = bool(coalesce)
        self._watchdog_timeout = (
            None if watchdog_timeout is None else float(watchdog_timeout)
        )
        self._on_stuck = on_stuck
        self._pending: Dict[str, Deque[_Pending]] = {}
        self._dispatchers: Dict[str, asyncio.Task] = {}
        self._single_tasks: "set[asyncio.Task]" = set()
        self._depth = 0
        self._closed = False
        self.stats = BatcherStats()

    def replace_executor(self, executor) -> None:
        """Swap the evaluation executor (watchdog recovery: the old one
        may have a wedged thread; later batches dispatch to this one)."""
        self._executor = executor

    # -- submission ----------------------------------------------------
    @property
    def depth(self) -> int:
        """Requests currently queued (not yet dispatched)."""
        return self._depth

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        return self._closed

    async def submit(
        self, key: str, request: Any, timeout: Optional[float] = None
    ) -> Any:
        """Queue ``request`` under ``key`` and await its result.

        Raises :class:`DrainingError` after :meth:`close`,
        :class:`QueueFullError` at capacity, and
        :class:`DeadlineExpiredError` when ``timeout`` (seconds) passes
        before the batch was dispatched.
        """
        if self._closed:
            _metrics.REJECTED.labels(reason="draining").inc()
            self.stats.rejected += 1
            raise DrainingError("server is draining; retry elsewhere")
        if self._depth >= self._max_queue:
            _metrics.REJECTED.labels(reason="queue_full").inc()
            self.stats.rejected += 1
            raise QueueFullError(
                f"request queue is full ({self._max_queue} pending)"
            )
        loop = asyncio.get_running_loop()
        deadline = None if timeout is None else time.monotonic() + timeout
        pending = _Pending(request, loop.create_future(), deadline)
        self.stats.submitted += 1
        self._depth += 1
        if self._coalesce:
            queue = self._pending.get(key)
            if queue is None:
                queue = self._pending[key] = deque()
            queue.append(pending)
            if key not in self._dispatchers:
                task = loop.create_task(self._run_key(key))
                self._dispatchers[key] = task
        else:
            task = loop.create_task(self._dispatch(key, [pending]))
            self._single_tasks.add(task)
            task.add_done_callback(self._single_tasks.discard)
        return await pending.future

    # -- per-key dispatch loop -----------------------------------------
    async def _run_key(self, key: str) -> None:
        """Drain one key's queue batch by batch until it runs dry.

        The emptiness check and the dispatcher-table cleanup happen
        with no ``await`` in between, so a submission racing the exit
        either sees the dispatcher still registered or registers a new
        one — a queued request is never stranded.
        """
        while True:
            queue = self._pending.get(key)
            if not queue:
                self._pending.pop(key, None)
                self._dispatchers.pop(key, None)
                return
            if self._window > 0 and not self._closed:
                await asyncio.sleep(self._window)
                queue = self._pending.get(key)
                if not queue:
                    continue
            batch = list(queue)
            queue.clear()
            await self._dispatch(key, batch)

    def _evaluate_batch(self, key: str, requests: List[Any]) -> List[Any]:
        """Executor-thread entry around ``evaluate``; the ``batch.stuck``
        fault point wedges the sweep here, exactly where a pathological
        workload would, so the watchdog's recovery is testable."""
        rule = _fault_check("batch.stuck")
        if rule is not None:
            time.sleep(rule.delay)
        return self._evaluate(key, requests)

    async def _dispatch(self, key: str, batch: List[_Pending]) -> None:
        """Sweep one batch: drop expired/cancelled members, evaluate
        the survivors in the executor, deliver results or the shared
        failure."""
        self._depth -= len(batch)
        now = time.monotonic()
        live: List[_Pending] = []
        for pending in batch:
            if pending.future.done():
                continue  # waiter gave up (wait_for cancelled it)
            if pending.expired(now):
                _metrics.DEADLINE_EXPIRED.inc()
                self.stats.expired += 1
                pending.future.set_exception(DeadlineExpiredError(
                    "deadline expired before the request was dispatched"
                ))
                continue
            live.append(pending)
        if not live:
            return
        _metrics.BATCHES.inc()
        _metrics.BATCH_SIZE.observe(len(live))
        _metrics.COALESCED.inc(len(live) - 1)
        self.stats.batches += 1
        self.stats.coalesced += len(live) - 1
        self.stats.max_batch_size = max(
            self.stats.max_batch_size, len(live)
        )
        loop = asyncio.get_running_loop()
        try:
            sweep = loop.run_in_executor(
                self._executor,
                self._evaluate_batch,
                key,
                [pending.request for pending in live],
            )
            if self._watchdog_timeout is not None:
                try:
                    results = await asyncio.wait_for(
                        asyncio.shield(sweep), self._watchdog_timeout
                    )
                except asyncio.TimeoutError:
                    # The sweep thread is wedged; there is no way to
                    # interrupt it, so abandon the batch (503) and let
                    # on_stuck swap in a fresh executor for later ones.
                    _WATCHDOG_FIRED.inc()
                    self.stats.stuck += len(live)
                    logger.warning(
                        "watchdog: batch of %d request(s) on %s stuck "
                        "for > %.3gs; recycling the sweep executor",
                        len(live), key, self._watchdog_timeout,
                    )
                    if self._on_stuck is not None:
                        self._on_stuck(key)
                    raise StuckBatchError(
                        "batch evaluation stuck beyond the watchdog "
                        f"budget ({self._watchdog_timeout:g}s); retry"
                    ) from None
            else:
                results = await sweep
            if len(results) != len(live):
                raise ReproError(
                    f"evaluator returned {len(results)} results for "
                    f"{len(live)} requests"
                )
        except BaseException as exc:  # delivered, never swallowed
            self.stats.failed += len(live)
            logger.warning(
                "batch of %d request(s) on %s failed: %s",
                len(live), key, exc,
            )
            cancelled = isinstance(exc, asyncio.CancelledError)
            delivered: BaseException = DrainingError(
                "server shut down before the request completed"
            ) if cancelled else exc
            for pending in live:
                if not pending.future.done():
                    pending.future.set_exception(delivered)
            if cancelled:
                raise  # keep the dispatcher task properly cancelled
            return
        for pending, result in zip(live, results):
            if not pending.future.done():
                pending.future.set_result(result)

    # -- shutdown ------------------------------------------------------
    def close(self) -> None:
        """Stop accepting new submissions (idempotent)."""
        self._closed = True

    async def drain(self, timeout: Optional[float] = None) -> bool:
        """Wait for queued/in-flight batches to finish.

        Returns ``True`` when everything completed; on timeout, fails
        every remaining future with :class:`DrainingError` and returns
        ``False``.  Call :meth:`close` first so the queue only shrinks.
        """
        tasks = list(self._dispatchers.values()) + list(self._single_tasks)
        if not tasks:
            return True
        done, pending_tasks = await asyncio.wait(
            tasks, timeout=timeout
        )
        if not pending_tasks:
            return True
        for task in pending_tasks:
            task.cancel()
        for queue in self._pending.values():
            while queue:
                entry = queue.popleft()
                self._depth -= 1
                if not entry.future.done():
                    entry.future.set_exception(DrainingError(
                        "server shut down before the request completed"
                    ))
        await asyncio.gather(*pending_tasks, return_exceptions=True)
        return False
