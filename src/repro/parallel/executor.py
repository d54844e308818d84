"""Sharded execution backends: serial and the warm shm pool.

:func:`run_sharded` evaluates one picklable task function over a list of
shard payloads and returns the results in payload order.  Backends
(selected with ``backend=``, defaulting to a jobs-based choice):

* **serial** (the default for ``jobs in (None, 0, 1)``) — runs every
  shard in-process under a ``parallel.shard`` span.  This is also the
  reference the pool is pinned against: both backends execute the
  *same* shard plan, so their reduced results are bit-identical.
* **shm** (the default for ``jobs >= 2``) — shards run on the
  long-lived :class:`~repro.parallel.pool.WarmPool` (forked once,
  reused across calls).  Workloads that publish their arrays through
  :mod:`repro.parallel.shm` hand workers compact descriptors instead of
  pickled payloads; object workloads ride the same warm workers with
  small pickled payloads (verification shards, and the STA's per-net
  routing inputs, from which workers build the RC trees themselves).

Robustness is built in rather than bolted on:

* a per-shard ``timeout`` (seconds) bounds how long the parent waits for
  any single shard;
* a shard whose worker dies (``BrokenProcessPool``) or times out is
  retried up to ``retries`` times on a **recycled pool** (the old
  workers are terminated, so a poisoned or hung worker never serves
  another shard);
* when retries are exhausted, or when the warm pool cannot fork at all
  (e.g. ``fork`` unavailable and ``spawn`` fails), the engine
  **degrades gracefully**: the remaining shards run serially in-process
  and the run still succeeds;
* exceptions raised *by the task itself* are genuine bugs and propagate
  on the **first** raise — they are never retried (they would fail
  identically on every attempt) and never trigger a pool rebuild.  Only
  ``BrokenProcessPool`` and timeouts count as infrastructure failures.

Observability (``docs/observability.md``): spans ``parallel.run`` /
``parallel.shard``, counters ``parallel_shards_total``,
``parallel_retries_total``, ``parallel_timeouts_total``,
``parallel_degraded_total``, the warm-pool ``parallel_pool_*`` family,
and the ``parallel_shard_seconds`` histogram of worker-measured shard
durations.  While the parent tracer is recording, workers additionally
capture their own spans and metric deltas per shard
(:mod:`repro.obs.aggregate`): each accepted shard result carries a
compact obs payload that the parent merges — span trees graft under
``parallel.run`` as ``parallel.worker`` subtrees, metric deltas fold
into the parent registry with ``worker`` labels.  Capture is decided at
submit time from the parent's tracer state, so the disabled path adds
one flag check per shard and results stay bit-identical.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import random
import time
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro._exceptions import ValidationError
from repro.obs import aggregate as _aggregate
from repro.obs.metrics import counter as _counter
from repro.obs.metrics import histogram as _histogram
from repro.obs.trace import get_tracer as _get_tracer
from repro.obs.trace import span as _span
from repro.parallel.pool import lease_warm_pool
from repro.resilience.faults import check as _fault_check

__all__ = ["run_sharded", "resolve_jobs", "available_backends", "BACKENDS"]

logger = logging.getLogger(__name__)

#: Backend names ``run_sharded`` accepts (``None`` = jobs-based auto).
BACKENDS = ("serial", "shm")

_SHARDS = _counter(
    "parallel_shards_total", "Shards evaluated by the sharded engine"
)
_RETRIES = _counter(
    "parallel_retries_total",
    "Shard attempts re-submitted after a worker death or timeout",
)
_TIMEOUTS = _counter(
    "parallel_timeouts_total", "Shards that exceeded their timeout budget"
)
_DEGRADED = _counter(
    "parallel_degraded_total",
    "Shards that fell back to in-process execution after retries "
    "were exhausted or the warm pool could not fork",
)
_SHARD_SECONDS = _histogram(
    "parallel_shard_seconds",
    "Worker-measured wall-clock duration per shard",
)
_MALFORMED = _counter(
    "parallel_malformed_results_total",
    "Shard results rejected because the worker returned a payload "
    "that is not the (value, elapsed, obs) triple",
)
_BACKOFF_SECONDS = _histogram(
    "parallel_retry_backoff_seconds",
    "Backoff slept between retry waves after a pool rebuild",
)


#: Base seconds of the exponential backoff slept between retry waves.
RETRY_BACKOFF = 0.05


class _MalformedResultError(Exception):
    """Internal: a worker handed back something other than the
    ``(value, elapsed, obs)`` triple.  Treated like an infrastructure
    failure (the shard retries on a recycled pool), never propagated."""


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalize a ``--jobs`` value: ``None``/``0``/``1`` mean serial."""
    if jobs is None:
        return 1
    if isinstance(jobs, bool) or not isinstance(jobs, int):
        raise ValidationError(f"jobs must be an integer >= 0, got {jobs!r}")
    if jobs < 0:
        raise ValidationError(f"jobs must be >= 0, got {jobs}")
    return max(jobs, 1)


def resolve_backend(backend: Optional[str]) -> Optional[str]:
    """Validate a ``backend`` selector (``None``/``"auto"`` = choose by
    jobs; otherwise one of :data:`BACKENDS`)."""
    if backend is None or backend == "auto":
        return None
    if backend not in BACKENDS:
        raise ValidationError(
            f"backend must be one of {('auto',) + BACKENDS}, "
            f"got {backend!r}"
        )
    return backend


def available_backends() -> List[str]:
    """Backends usable on this host (``serial`` always; ``shm`` when
    multiprocessing offers a start method and shared-memory segments
    can be created)."""
    backends = ["serial"]
    try:
        from repro.parallel.shm import shm_available

        if multiprocessing.get_all_start_methods() and shm_available():
            backends.append("shm")
    except Exception:  # pragma: no cover - exotic platforms
        pass
    return backends


def _worker_entry_faults() -> None:
    """Injectable fault points hit at worker shard entry (no-ops unless
    a fault schedule is armed — see :mod:`repro.resilience.faults`)."""
    if _fault_check("worker.kill") is not None:
        # A hard exit, not an exception: the parent must see the real
        # BrokenProcessPool recovery path, exactly as on an OOM kill.
        os._exit(42)
    rule = _fault_check("worker.hang")
    if rule is not None:
        time.sleep(rule.delay)
    rule = _fault_check("shard.slow")
    if rule is not None:
        time.sleep(rule.delay)


def _maybe_malform(result: Tuple[Any, float, Any]) -> Any:
    """``result.malformed`` fault point: corrupt the shard triple so the
    parent's acceptance validation has a real payload to reject."""
    if _fault_check("result.malformed") is not None:
        return ("injected-malformed-result",)
    return result


def _shard_result(out: Any) -> Tuple[Any, float, Any]:
    """Validate a worker-returned payload before accepting it.

    Every worker wraps its shard in :func:`_timed_task`, so anything
    other than a 3-tuple means the transport (or an injected fault)
    corrupted the result — rejected here rather than crashing the
    parent on unpack, and retried like any infrastructure failure.
    """
    if not (isinstance(out, tuple) and len(out) == 3):
        raise _MalformedResultError(
            f"expected a (value, elapsed, obs) triple, got {type(out).__name__}"
        )
    return out


def _timed_task(
    task: Callable[[Any], Any], payload: Any, capture: bool = False
) -> Any:
    """Worker-side wrapper: run the shard, measure its duration, and —
    when the parent requested ``capture`` — record the worker's own
    spans and metric deltas into an obs payload
    (:class:`repro.obs.aggregate.ShardObsCapture`).  Returns
    ``(value, elapsed, obs_payload_or_None)``."""
    _worker_entry_faults()
    if capture:
        with _aggregate.ShardObsCapture() as obs:
            start = time.perf_counter()
            value = task(payload)
            elapsed = time.perf_counter() - start
        return _maybe_malform((value, elapsed, obs.payload()))
    tracer = _get_tracer()
    if tracer.enabled:
        # A warm worker forked while the parent was tracing inherits an
        # enabled tracer; quietly recording spans nobody collects would
        # leak memory and skew shard timings, so restore the disabled
        # invariant before running.
        tracer.disable()
        tracer.reset()
    start = time.perf_counter()
    value = task(payload)
    return _maybe_malform((value, time.perf_counter() - start, None))


def _run_shard_inline(
    task: Callable[[Any], Any], payload: Any, index: int
) -> Any:
    """Evaluate one shard in the parent process, under a span."""
    rule = _fault_check("shard.slow")
    if rule is not None:
        time.sleep(rule.delay)
    with _span("parallel.shard", index=index, backend="serial"):
        start = time.perf_counter()
        value = task(payload)
    _SHARD_SECONDS.observe(time.perf_counter() - start)
    _SHARDS.inc()
    return value


def _retry_backoff_delay(base: float, wave: int, label: str) -> float:
    """Exponential backoff with deterministic jitter for retry waves.

    Doubling per wave with a jitter drawn from an RNG seeded by
    ``(label, wave)`` — reproducible run to run (no wall-clock or PID
    entropy), yet de-synchronized across concurrent runs with distinct
    labels.  Capped at 2 s so exhausted retries still degrade promptly.
    """
    rng = random.Random(f"{label}:backoff:{wave}")
    return min(base * (2.0 ** (wave - 1)) * (1.0 + rng.random()), 2.0)


def run_sharded(
    task: Callable[[Any], Any],
    payloads: Sequence[Any],
    jobs: Optional[int] = None,
    timeout: Optional[float] = None,
    retries: int = 1,
    label: str = "parallel.run",
    backend: Optional[str] = None,
    checkpoint: Any = None,
) -> List[Any]:
    """Evaluate ``task`` over ``payloads``; results in payload order.

    Parameters
    ----------
    task:
        Module-level (picklable) callable taking one payload.
    payloads:
        One picklable payload per shard.  The shard *plan* must already
        be deterministic (see :func:`repro.parallel.plan.plan_shards`);
        this function only chooses where each shard runs.
    jobs:
        ``None``/``0``/``1`` — serial backend; ``>= 2`` — that many
        worker processes (capped at the shard count).
    timeout:
        Per-shard seconds the parent waits before declaring the shard
        hung and recycling the pool (``None`` = wait forever).
    retries:
        How many times a dead/hung shard is re-submitted to a recycled
        pool before degrading to in-process execution.  Each retry wave
        waits an exponential backoff from :data:`RETRY_BACKOFF` seconds
        (deterministic jitter, see :func:`_retry_backoff_delay`).
    backend:
        ``None``/``"auto"`` — serial for one job, the warm pool
        otherwise; ``"serial"`` — force in-process execution;
        ``"shm"`` — the long-lived
        :class:`~repro.parallel.pool.WarmPool` (the transport the
        zero-copy shm workloads run on).  Both backends return the
        same bits for the same shard plan.
    checkpoint:
        Optional crash-safety journal (duck-typed; in practice a
        :class:`repro.resilience.checkpoint.ShardCheckpoint`).  Shards
        it already holds are restored instead of recomputed, and every
        newly accepted shard result is journaled at acceptance — so a
        killed run resumed from the journal is bit-identical to an
        uninterrupted one (the shard plan is deterministic; which
        process computed a shard never affects its bits).
    """
    jobs = resolve_jobs(jobs)
    backend = resolve_backend(backend)
    if timeout is not None and not timeout > 0.0:
        raise ValidationError(f"timeout must be > 0, got {timeout!r}")
    if retries < 0:
        raise ValidationError(f"retries must be >= 0, got {retries}")
    payloads = list(payloads)
    if not payloads:
        return []
    results: Dict[int, Any] = {} if checkpoint is None \
        else checkpoint.restore_results(len(payloads))
    todo = [index for index in range(len(payloads)) if index not in results]

    def accept(index: int, value: Any) -> None:
        results[index] = value
        if checkpoint is not None:
            checkpoint.record(index, value)

    effective_jobs = min(jobs, len(payloads))
    chosen = "serial" if backend == "serial" or effective_jobs == 1 else "shm"
    with _span(label, shards=len(payloads), jobs=effective_jobs,
               backend=chosen) as sp:
        if results:
            sp.set_attribute("resumed", len(results))
        if chosen == "shm" and todo:
            todo = _run_on_pool(
                task, payloads, todo, effective_jobs, timeout, retries,
                sp, accept, label,
            )
            if todo:
                sp.set_attribute("degraded", True)
                _DEGRADED.inc(len(todo))
        # The serial backend, and every shard the pool gave up on.
        for index in todo:
            accept(index, _run_shard_inline(task, payloads[index], index))
    return [results[index] for index in range(len(payloads))]


def _run_on_pool(
    task: Callable[[Any], Any],
    payloads: List[Any],
    todo: List[int],
    jobs: int,
    timeout: Optional[float],
    retries: int,
    run_span: Any,
    accept: Callable[[int, Any], None],
    label: str,
) -> List[int]:
    """Run the ``todo`` shards on the warm pool, handing each result to
    ``accept``; returns the shards it gave up on, for the caller to run
    in-process: all of them when no worker can fork, or those still
    failing once ``retries`` waves ran out."""
    # Decided once, parent-side: workers capture their own spans/metric
    # deltas only while the parent tracer is recording.  Shards that
    # later degrade to _run_shard_inline run *in* the parent, where the
    # live tracer/registry see them directly — no payload needed.
    capture = _aggregate.capture_enabled()
    # The lease keeps a concurrent resize from terminating these workers
    # mid-wave (the pool is retired instead; see repro.parallel.pool).
    warm = lease_warm_pool(jobs)
    try:
        # Only a failed wave's shards make the next one, so every shard
        # in wave ``attempt`` has failed ``attempt - 1`` times before.
        for attempt in range(1, retries + 2):
            try:
                pool = warm.executor()
            except Exception as exc:
                logger.warning(
                    "warm pool unavailable (%s); degrading %d "
                    "shards to the serial backend", exc, len(todo),
                )
                break
            todo = _submit_and_collect(
                task, payloads, todo, pool, timeout, accept, capture,
                run_span,
            )
            if not todo:
                break
            # The pool is suspect (a worker died or a shard hung in it):
            # recycle it so no poisoned worker serves the retries.
            warm.recycle()
            if attempt > retries:
                logger.warning(
                    "shards %s failed %d attempt(s) on the warm pool; "
                    "degrading them to in-process execution",
                    todo, attempt,
                )
                break
            _RETRIES.inc(len(todo))
            delay = _retry_backoff_delay(RETRY_BACKOFF, attempt, label)
            _BACKOFF_SECONDS.observe(delay)
            time.sleep(delay)
    finally:
        # Workers stay warm for the next run; a retired pool tears down
        # on its last lease release.
        warm.release_lease()
    return todo


def _submit_and_collect(
    task: Callable[[Any], Any],
    payloads: List[Any],
    todo: List[int],
    pool: ProcessPoolExecutor,
    timeout: Optional[float],
    accept: Callable[[int, Any], None],
    capture: bool,
    run_span: Any,
) -> List[int]:
    """One submission wave; returns the shard indices needing a retry.

    Only *infrastructure* failures (a worker death's
    ``BrokenProcessPool``, a shard timeout, a malformed result) mark
    shards for retry.  An exception raised by the task itself is
    deterministic — it would fail identically on every attempt — so it
    propagates immediately, from here, on the first raise.

    Worker obs payloads merge here and only here, at the moment a
    shard's result is accepted — so a killed or hung attempt whose
    retry succeeds contributes its deltas exactly once.

    The wave's round trip is attributed on ``run_span``: ``submit_ms``
    is the time to submit every shard (pickling the payloads), and
    ``first_result_ms`` the time from the first submit until the first
    good shard result comes back (a retry wave overwrites both).
    """
    futures: Dict[int, Future] = {}
    failed: List[int] = []
    start = time.perf_counter()
    for position, index in enumerate(todo):
        try:
            futures[index] = pool.submit(
                _timed_task, task, payloads[index], capture
            )
        except (BrokenProcessPool, RuntimeError):
            failed.extend(todo[position:])
            break
    run_span.set_attribute("submit_ms", (time.perf_counter() - start) * 1e3)
    first = True
    timed_out = False
    for index, future in futures.items():
        if timed_out and not future.done():
            # One hung shard poisons the wave's unfinished futures too
            # (the pool is about to be recycled); finished ones still
            # pass the checks below.
            failed.append(index)
            continue
        try:
            value, elapsed, obs = _shard_result(
                future.result(timeout=timeout)
            )
        except FuturesTimeoutError:
            logger.warning(
                "shard %d exceeded its %.3gs timeout", index, timeout
            )
            _TIMEOUTS.inc()
            timed_out = True
        except BrokenProcessPool:
            logger.warning("worker died while evaluating shard %d", index)
        except _MalformedResultError as exc:
            logger.warning(
                "shard %d returned a malformed result payload (%s); "
                "scheduling a retry", index, exc,
            )
            _MALFORMED.inc()
        else:
            if first:
                first = False
                run_span.set_attribute(
                    "first_result_ms", (time.perf_counter() - start) * 1e3)
            accept(index, value)
            _SHARD_SECONDS.observe(elapsed)
            _SHARDS.inc()
            if capture:
                _aggregate.merge_worker_payload(
                    obs, shard=index, run_span=run_span
                )
            continue
        failed.append(index)
    return failed
