"""Cross-process span/metric aggregation for the sharded engine.

The tracer and the metrics registry are process-global, so before this
module every span and counter recorded *inside* a pool worker was
silently dropped — a ``--trace`` of a ``--backend shm`` sweep showed one
opaque ``parallel.run`` span and none of the attach/compute/write
breakdown the workers actually measured.

The aggregation protocol has a worker half and a parent half:

* **Worker** (:class:`ShardObsCapture`, driven by
  ``repro.parallel.executor._timed_task``): around one shard, snapshot
  the worker's registry, reset + enable the worker's tracer, run the
  shard, then package the recorded span trees and the *registry delta*
  (counter increments, histogram bucket deltas, changed gauges) into a
  compact picklable payload.  The payload rides the existing result
  channel — the ``Future`` return value — never the shm output block,
  so the zero-copy data path is untouched.
* **Parent** (:func:`merge_worker_payload`, called at the single point
  a shard result is *accepted*): graft the worker's span trees under
  the live ``parallel.run`` span as a ``parallel.worker`` subtree
  tagged with ``pid``/``worker_id``/``shard`` (and the shard's
  ``queue_ms``, submit to task start), fold counter and
  histogram deltas into the same-named parent metrics (so traced
  parallel totals match a serial run), and mirror every delta into a
  ``worker``-labeled child series for per-worker attribution.

Exactly-once semantics fall out of the merge point: a payload is merged
only when its shard's result is accepted, so a killed or timed-out
attempt whose retry succeeds contributes exactly one delta — the
retry's.  Capture is requested per submission and only while the parent
tracer is enabled; with tracing disabled workers skip the snapshot
entirely and results stay bit-for-bit identical.

Worker identity: pool initializers call :func:`set_worker_id` with a
stable per-pool worker index (see ``repro.parallel.pool``); payloads
fall back to the pid when no index was assigned.
"""

from __future__ import annotations

import logging
import os
from typing import Any, Dict, Optional

from repro.obs.metrics import (
    MetricsRegistry,
    counter as _counter,
    get_registry,
)
from repro.obs.trace import Span, Tracer, get_tracer, iter_span_dicts

__all__ = [
    "ShardObsCapture",
    "capture_enabled",
    "merge_worker_payload",
    "registry_delta",
    "span_from_dict",
    "set_worker_id",
    "worker_id",
]

logger = logging.getLogger(__name__)

_PAYLOADS = _counter(
    "parallel_worker_payloads_total",
    "Worker observability payloads merged into the parent",
)
_WORKER_SPANS = _counter(
    "parallel_worker_spans_total",
    "Worker-recorded spans merged under parallel.run",
)
_MERGE_SKIPPED = _counter(
    "parallel_worker_merge_skipped_total",
    "Worker metric deltas dropped on merge (kind or bucket mismatch)",
)

#: Stable worker index assigned by the pool initializer (None in the
#: parent and in workers of pools predating the initializer).
_WORKER_ID: Optional[int] = None


def set_worker_id(value: int) -> None:
    """Record this process's pool worker index (pool initializer hook)."""
    global _WORKER_ID
    _WORKER_ID = int(value)


def worker_id() -> Optional[int]:
    """This process's pool worker index, or ``None`` outside a pool."""
    return _WORKER_ID


def capture_enabled() -> bool:
    """Whether shard submissions should request obs capture (i.e. the
    parent tracer is recording)."""
    return get_tracer().enabled


# ---------------------------------------------------------------------------
# Worker half

def registry_delta(
    before: Dict[str, Dict[str, Any]],
    after: Dict[str, Dict[str, Any]],
) -> Dict[str, Dict[str, Any]]:
    """The compact difference between two ``MetricsRegistry.to_dict``
    snapshots: counter increments, histogram bucket/count/sum deltas,
    and gauges whose value changed.  Unchanged metrics are omitted, so
    a shard that bumps three counters ships three entries.  Labeled
    child series are intentionally ignored — deltas describe the base
    metrics only (the parent re-labels them per worker on merge)."""
    counters: Dict[str, Any] = {}
    gauges: Dict[str, Any] = {}
    histograms: Dict[str, Any] = {}
    for name, state in after.items():
        kind = state.get("kind")
        prior = before.get(name)
        if prior is not None and prior.get("kind") != kind:
            prior = None
        if kind == "counter":
            delta = state.get("value", 0.0) - (
                prior.get("value", 0.0) if prior else 0.0
            )
            if delta > 0:
                counters[name] = {"help": state.get("help", ""),
                                  "delta": delta}
        elif kind == "gauge":
            value = state.get("value", 0.0)
            if prior is None or prior.get("value") != value:
                gauges[name] = {"help": state.get("help", ""),
                                "value": value}
        elif kind == "histogram":
            count_delta = state.get("count", 0) - (
                prior.get("count", 0) if prior else 0
            )
            if count_delta <= 0:
                continue
            prior_buckets = (prior or {}).get("bucket_counts") or []
            buckets = state.get("bucket_counts") or []
            histograms[name] = {
                "help": state.get("help", ""),
                "buckets": list(state.get("buckets") or []),
                "bucket_counts": [
                    n - (prior_buckets[k] if k < len(prior_buckets) else 0)
                    for k, n in enumerate(buckets)
                ],
                "count": count_delta,
                "sum": state.get("sum", 0.0) - (
                    (prior or {}).get("sum", 0.0) if prior else 0.0
                ),
                # Window min/max are approximated by the cumulative
                # extremes: exact when the window saw the extreme, and
                # never narrower than the truth.
                "min": state.get("min"),
                "max": state.get("max"),
            }
    return {"counters": counters, "gauges": gauges,
            "histograms": histograms}


class ShardObsCapture:
    """Worker-side capture scope around one shard.

    Enter: snapshot the registry, reset + enable the worker tracer.
    Exit: collect the span trees and the registry delta, then disable
    the tracer again so un-captured shards keep the near-zero disabled
    path.  :meth:`payload` returns the compact picklable result.
    """

    __slots__ = ("_before", "_payload")

    def __enter__(self) -> "ShardObsCapture":
        self._payload: Optional[Dict[str, Any]] = None
        self._before = get_registry().to_dict()
        tracer = get_tracer()
        tracer.reset()
        tracer.enable()
        return self

    def __exit__(self, *exc_info) -> bool:
        tracer = get_tracer()
        spans = tracer.to_dicts()
        tracer.disable()
        tracer.reset()
        payload = {
            "pid": os.getpid(),
            "worker_id": worker_id(),
            "spans": spans,
        }
        payload.update(registry_delta(self._before,
                                      get_registry().to_dict()))
        self._payload = payload
        return False

    def payload(self) -> Optional[Dict[str, Any]]:
        """The captured payload (``None`` before the scope exits)."""
        return self._payload


# ---------------------------------------------------------------------------
# Parent half

def span_from_dict(
    data: Dict[str, Any], tracer: Optional[Tracer] = None
) -> Span:
    """Reconstruct a :class:`Span` tree from its ``to_dict`` form.

    Start/end stay in the recording process's ``perf_counter`` domain —
    durations and self times are meaningful, absolute starts are only
    comparable within one process.  Reads both the ``/2`` span shape
    (with ``pid``/``seq``) and the older ``/1`` shape (without).
    """
    tracer = tracer if tracer is not None else get_tracer()
    span = Span(tracer, data.get("name", "?"),
                dict(data.get("attributes", {})))
    span.start = float(data.get("start", 0.0))
    span.end = span.start + float(data.get("duration", 0.0))
    if data.get("pid") is not None:
        span.pid = int(data["pid"])
    span.seq = data.get("seq")
    span.children = [
        span_from_dict(child, tracer)
        for child in data.get("children", [])
    ]
    return span


def _merge_metric_deltas(
    registry: MetricsRegistry, payload: Dict[str, Any], worker_label: str
) -> None:
    for name, entry in payload.get("counters", {}).items():
        try:
            base = registry.counter(name, entry.get("help", ""))
            base.inc(entry["delta"])
            base.labels(worker=worker_label).inc(entry["delta"])
        except Exception:
            _MERGE_SKIPPED.inc()
            logger.warning("cannot merge worker counter %r", name,
                           exc_info=True)
    for name, entry in payload.get("gauges", {}).items():
        try:
            # Gauges are last-written values, not additive: only the
            # worker-labeled child is set, the parent gauge keeps the
            # parent's own reading.
            registry.gauge(name, entry.get("help", "")).labels(
                worker=worker_label
            ).set(entry["value"])
        except Exception:
            _MERGE_SKIPPED.inc()
            logger.warning("cannot merge worker gauge %r", name,
                           exc_info=True)
    for name, entry in payload.get("histograms", {}).items():
        try:
            base = registry.histogram(
                name, entry.get("help", ""),
                buckets=entry.get("buckets") or None,
            )
            merged = base.merge_state(entry)
            merged &= base.labels(worker=worker_label).merge_state(entry)
            if not merged:
                _MERGE_SKIPPED.inc()
                logger.warning(
                    "worker histogram %r has different bucket bounds; "
                    "delta dropped", name,
                )
        except Exception:
            _MERGE_SKIPPED.inc()
            logger.warning("cannot merge worker histogram %r", name,
                           exc_info=True)


def merge_worker_payload(
    payload: Optional[Dict[str, Any]],
    shard: Optional[int] = None,
    run_span: Optional[Any] = None,
) -> None:
    """Fold one worker obs payload into the parent (exactly once).

    Called by the executor at the moment a shard result is accepted.
    Metric deltas always merge (into base metrics and ``worker``-labeled
    children); span trees graft under ``run_span`` — as a
    ``parallel.worker`` subtree tagged ``pid``/``worker_id``/``shard`` —
    only while that span is a live recorded one.
    """
    if not payload:
        return
    pid = payload.get("pid")
    wid = payload.get("worker_id")
    worker_label = str(wid) if wid is not None else f"pid-{pid}"
    _PAYLOADS.inc()
    _PAYLOADS.labels(worker=worker_label).inc()
    _merge_metric_deltas(get_registry(), payload, worker_label)

    spans = payload.get("spans") or []
    if not spans or not isinstance(run_span, Span):
        return
    tracer = get_tracer()
    children = [span_from_dict(entry, tracer) for entry in spans]
    attributes = {"pid": pid, "worker_id": wid, "shard": shard}
    if "queue_ms" in payload:
        attributes["queue_ms"] = payload["queue_ms"]
    wrapper = Span(tracer, "parallel.worker", attributes)
    if pid is not None:
        wrapper.pid = int(pid)
    wrapper.seq = next(tracer._seq)
    wrapper.start = min(child.start for child in children)
    wrapper.end = max(
        child.end if child.end is not None else child.start
        for child in children
    )
    wrapper.children = children
    run_span.children.append(wrapper)
    merged = sum(1 for _ in iter_span_dicts(spans))
    _WORKER_SPANS.inc(merged)
    _WORKER_SPANS.labels(worker=worker_label).inc(merged)
