"""Attribute traced wall time to the program's layers.

The traced run wraps every op in a ``bench.op`` span (library
workloads) or fetches the server's ``/spans`` (``serve-stats``); the
library's own spans then split that time by module.  Two rules keep the
split honest:

* **Self time is per process.**  Worker spans that ``repro.obs``
  grafts under ``parallel.run`` as ``parallel.worker`` subtrees ran
  concurrently with the parent's wait, so they are not subtracted from
  the parent's span: a parent span's self time is its duration minus its
  *parent-side* children, and worker subtrees are totalled separately.
* **Per-layer times are shares.**  Each layer's time per op is reported
  as a share of the traced op wall (``obs.traced_op_ms``), so a layer a
  workload never enters reads 0 rather than a time; multiply by
  ``obs.traced_op_ms`` for milliseconds.  Worker shares add both
  workers' time, so they can exceed 1/2 each but not 2 in total.

:data:`LAYER_MAP` records, for every per-layer metric, which end-to-end
metric it should move on which workload, and where it should stay flat.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Dict, Iterable, List, Tuple

WORKER_WRAPPER = "parallel.worker"
#: Spans whose ``B``/``N`` attributes give the computed bytes of a sweep
#: (``B * N`` float64 values over four arrays: R, C, work, result).
SWEEP_SPANS = ("batch.elmore_delays", "batch.transfer_moments")

ALL = ("mc-sweep", "sta", "ssta", "serve-stats")
LIB = ("mc-sweep", "sta", "ssta")

#: metric -> (end-to-end metric it should move, on workloads,
#: predicted flat on workloads).
LAYER_MAP: Dict[str, Tuple[str, Tuple[str, ...], Tuple[str, ...]]] = {
    "batch.level_sweeps_share": ("work_per_s", ("mc-sweep",), ("ssta",)),
    "batch.elmore_delays_share": ("work_per_s", ("mc-sweep",), ("ssta",)),
    "batch.computed_bytes_per_op": ("work_per_s", ("mc-sweep",), ("ssta",)),
    "batch.compile_forest_share": ("work_per_s", ("sta", "ssta"),
                                   ("mc-sweep",)),
    "batch.compile_share": ("work_per_s", ("sta", "ssta"), ("mc-sweep",)),
    "batch.moment_sweep_share": ("latency_p50_ms", ("serve-stats",),
                                 ("mc-sweep",)),
    "batch.rows_per_op": ("latency_p50_ms", ("serve-stats",), ("mc-sweep",)),
    "batch.sweeps_per_op": ("latency_p50_ms", ("serve-stats",),
                            ("mc-sweep",)),
    "batch.topology_cache_hit_ratio": ("latency_p50_ms", ("serve-stats",),
                                       ("mc-sweep",)),
    "variation.sharded_self_share": ("work_per_s", ("mc-sweep",), ("sta",)),
    "variation.parallel_run_wait_share": ("work_per_s", ("mc-sweep",),
                                          ("sta",)),
    "parallel.utilization": ("work_per_s", ("mc-sweep", "sta"),
                             ("serve-stats",)),
    "parallel.shards_per_op": ("work_per_s", ("mc-sweep", "sta"),
                               ("serve-stats",)),
    "parallel.shm_bytes_per_op": ("work_per_s", ("mc-sweep", "sta"),
                                  ("serve-stats",)),
    "parallel.shm_publish_skip_ratio": ("work_per_s", ("mc-sweep", "sta"),
                                        ("serve-stats",)),
    "shm.publish_share": ("work_per_s", ("mc-sweep", "sta"),
                          ("serve-stats",)),
    "shm.attach_share": ("work_per_s", ("mc-sweep", "sta"),
                         ("serve-stats",)),
    "parallel.retries": ("work_per_s", LIB, ("serve-stats",)),
    "parallel.degraded": ("work_per_s", LIB, ("serve-stats",)),
    "parallel.shm_fallbacks": ("work_per_s", LIB, ("serve-stats",)),
    "parallel.pool_forks": ("setup_s", LIB, ("serve-stats",)),
    "sta.forest_precompute_self_share": ("work_per_s", ("sta",),
                                         ("mc-sweep",)),
    "sta.parallel_run_wait_share": ("work_per_s", ("sta",), ("mc-sweep",)),
    "sta.analyze_self_share": ("work_per_s", ("sta",), ("mc-sweep",)),
    "ssta.analyze_self_share": ("work_per_s", ("ssta",), ("sta",)),
    "ssta.max_share": ("work_per_s", ("ssta",), ("sta",)),
    "ssta.extract_share": ("work_per_s", ("ssta",), ("sta",)),
    "ssta.max_ops_per_op": ("work_per_s", ("ssta",), ("sta",)),
    "ssta.forms_per_op": ("work_per_s", ("ssta",), ("sta",)),
    "serve.request_share": ("latency_p50_ms", ("serve-stats",), LIB),
    "serve.batch_share": ("latency_p50_ms", ("serve-stats",), LIB),
    "serve.outside_batch_share": ("latency_p50_ms", ("serve-stats",), LIB),
    "serve.client_overhead_share": ("latency_p50_ms", ("serve-stats",), LIB),
    "serve.requests_per_batch": ("latency_p50_ms", ("serve-stats",), LIB),
    "serve.rejected": ("work_per_s", ("serve-stats",), LIB),
    "serve.parse_share": ("latency_p50_ms", ("serve-stats",), ()),
    "serve.topology_key_share": ("latency_p50_ms", ("serve-stats",), ()),
    "serve.evaluate_share": ("latency_p50_ms", ("serve-stats",), ()),
    "serve.encode_share": ("latency_p50_ms", ("serve-stats",), ()),
    "obs.traced_op_ms": ("latency_p50_ms", ALL, ()),
    "obs.trace_overhead_frac": ("latency_p50_ms", ALL, ()),
    "trace.coverage_frac": ("latency_p50_ms", ALL, ()),
    "loadgen.late_p90_ms": ("latency_p50_ms", ("serve-stats",), ()),
    "loadgen.achieved_rps": ("work_per_s", ("serve-stats",), ()),
    "resilience.faults_injected": ("work_per_s", ALL, ()),
    "resilience.checkpoint_bytes": ("latency_p50_ms", ALL, ()),
}

#: Self-time shares: metric -> span names (parent and worker side).
SPAN_SHARES = {
    "batch.level_sweeps_share": ("batch.level_sweeps",),
    "batch.elmore_delays_share": ("batch.elmore_delays",),
    "batch.compile_forest_share": ("batch.compile_forest",),
    "batch.compile_share": ("batch.compile",),
    "batch.moment_sweep_share": ("batch.moment_sweep",),
    "variation.sharded_self_share": ("variation.monte_carlo_sharded",),
    "variation.parallel_run_wait_share": ("variation.parallel_run",),
    "shm.publish_share": ("shm.publish",),
    "shm.attach_share": ("shm.attach",),
    "sta.forest_precompute_self_share": ("sta.forest_precompute",),
    "sta.parallel_run_wait_share": ("sta.parallel_run",),
    "sta.analyze_self_share": ("sta.analyze",),
    "ssta.analyze_self_share": ("ssta.analyze",),
    "ssta.max_share": ("ssta.max",),
    "ssta.extract_share": ("ssta.extract",),
}

#: Counter-derived metrics: metric -> (counter, per op?).
COUNTERS = {
    "batch.rows_per_op": ("batch_rows_total", True),
    "batch.sweeps_per_op": ("batch_sweeps_total", True),
    "parallel.shards_per_op": ("parallel_shards_total", True),
    "parallel.shm_bytes_per_op": ("parallel_shm_bytes_total", True),
    "ssta.max_ops_per_op": ("ssta_max_operations_total", True),
    "ssta.forms_per_op": ("ssta_forms_total", True),
    "parallel.retries": ("parallel_retries_total", False),
    "parallel.degraded": ("parallel_degraded_total", False),
    "parallel.shm_fallbacks": ("parallel_shm_fallback_total", False),
    "serve.rejected": ("serve_rejected_total", False),
}

#: Measured only against a server; 0 on the library workloads.
SERVE_ONLY = (
    "serve.request_share", "serve.batch_share", "serve.outside_batch_share",
    "serve.client_overhead_share", "serve.requests_per_batch",
    "serve.parse_share", "serve.topology_key_share", "serve.evaluate_share",
    "serve.encode_share",
)

#: Counters read over the whole process life rather than the window.
LIFETIME_COUNTERS = {
    "parallel.pool_forks": "parallel_pool_forks_total",
    "resilience.faults_injected": "resilience_faults_injected_total",
    "resilience.checkpoint_bytes": "resilience_checkpoint_bytes_total",
}


class SpanTotals:
    """Self-time totals (seconds) per span name, parent and worker side
    kept apart, plus the computed bytes of every batched sweep."""

    def __init__(self) -> None:
        self.parent: Dict[str, float] = defaultdict(float)
        self.worker: Dict[str, float] = defaultdict(float)
        self.computed_bytes = 0.0

    def add(self, span: Dict[str, Any], worker: bool = False) -> None:
        """Fold one serialized span tree in."""
        children = span.get("children") or []
        own = [c for c in children if c["name"] != WORKER_WRAPPER]
        side = self.worker if worker else self.parent
        side[span["name"]] += span["duration"] - sum(
            c["duration"] for c in own)
        if span["name"] in SWEEP_SPANS:
            attrs = span.get("attributes") or {}
            self.computed_bytes += 32.0 * attrs.get("B", 0) * attrs.get("N", 0)
        for child in children:
            if child["name"] == WORKER_WRAPPER:
                for grafted in child.get("children") or []:
                    self.add(grafted, worker=True)
            else:
                self.add(child, worker)

    def take(self, tracer) -> List[float]:
        """Fold in every finished root span of ``tracer``, reset it, and
        return those roots' durations (one per traced op)."""
        roots = tracer.to_dicts()
        tracer.reset()
        for root in roots:
            self.add(root)
        return [root["duration"] for root in roots]

    def total(self, name: str) -> float:
        """Parent plus worker self time of ``name``."""
        return self.parent.get(name, 0.0) + self.worker.get(name, 0.0)

    def ms_per_op(self, ops: int) -> Dict[str, float]:
        """``{"parent:<span>" | "worker:<span>": ms per op}``."""
        out = {f"parent:{k}": 1e3 * v / ops for k, v in self.parent.items()}
        out.update({f"worker:{k}": 1e3 * v / ops
                    for k, v in self.worker.items()})
        return dict(sorted(out.items()))


def counter_delta(before: Dict[str, float], after: Dict[str, float],
                  name: str) -> float:
    """Increase of the unlabeled series ``name`` between two readings."""
    return after.get(name, 0.0) - before.get(name, 0.0)


def registry_values(registry_dict: Dict[str, Dict[str, Any]]
                    ) -> Dict[str, float]:
    """Flatten ``MetricsRegistry.to_dict`` into unlabeled values; a
    histogram contributes ``<name>_sum`` and ``<name>_count``."""
    out: Dict[str, float] = {}
    for name, state in registry_dict.items():
        if state.get("kind") == "histogram":
            out[f"{name}_sum"] = float(state.get("sum", 0.0))
            out[f"{name}_count"] = float(state.get("count", 0))
        else:
            out[name] = float(state.get("value", 0.0))
    return out


def prometheus_values(text: str) -> Dict[str, float]:
    """Unlabeled samples of a Prometheus text exposition."""
    out: Dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#") or "{" in line:
            continue
        name, _, value = line.partition(" ")
        try:
            out[name] = float(value)
        except ValueError:
            continue
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    names: Iterable[str],
    totals: SpanTotals,
    ops: int,
    op_wall: float,
    before: Dict[str, float],
    after: Dict[str, float],
    extra: Dict[str, float],
) -> Dict[str, float]:
    """Every per-layer metric in ``names``.

    ``op_wall`` is the mean traced op wall in seconds (the share
    denominator); ``before``/``after`` are flattened registry readings
    around the traced window; ``extra`` supplies the metrics only the
    caller can measure (coverage, overhead, load generator, serve split)
    and overrides the generic rules.
    """
    per_op = op_wall * ops
    skipped = counter_delta(before, after,
                            "parallel_shm_publish_skipped_total")
    published = counter_delta(before, after, "parallel_shm_publish_total")
    hits = counter_delta(before, after, "topology_cache_hits_total")
    misses = counter_delta(before, after, "topology_cache_misses_total")
    busy = counter_delta(before, after, "parallel_shard_seconds_sum")
    generic: Dict[str, float] = {
        "batch.computed_bytes_per_op": _ratio(totals.computed_bytes, ops),
        "batch.topology_cache_hit_ratio": _ratio(hits, hits + misses),
        "parallel.shm_publish_skip_ratio": _ratio(skipped,
                                                  skipped + published),
        "parallel.utilization": _ratio(busy, 2.0 * per_op),
        "obs.traced_op_ms": 1e3 * op_wall,
    }
    for metric, spans in SPAN_SHARES.items():
        generic[metric] = _ratio(sum(totals.total(s) for s in spans), per_op)
    for metric, (counter, scaled) in COUNTERS.items():
        delta = counter_delta(before, after, counter)
        generic[metric] = _ratio(delta, ops) if scaled else delta
    for metric, counter in LIFETIME_COUNTERS.items():
        generic[metric] = after.get(counter, 0.0)
    generic.update(dict.fromkeys(SERVE_ONLY, 0.0))
    generic.update(extra)
    missing = [name for name in names if name not in generic]
    if missing:
        raise KeyError(f"no rule computes per-layer metric(s) {missing}")
    return {name: float(generic[name]) for name in names}


def serve_span_summary(spans: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Server-side split of a traced serve window.

    Request spans are timed individually (their nesting is unreliable:
    concurrent requests share the event-loop thread's span stack), so
    only their durations are used; ``serve.batch`` spans run on the
    sweep thread and fold normally into :class:`SpanTotals`.
    """
    requests: List[float] = []
    batches: List[float] = []
    totals = SpanTotals()

    def walk(span: Dict[str, Any]) -> None:
        if span["name"] == "serve.request":
            if (span.get("attributes") or {}).get("endpoint") == "/v1/stats":
                requests.append(span["duration"])
        elif span["name"] == "serve.batch":
            batches.append(span["duration"])
            totals.add(span)
            return
        for child in span.get("children") or []:
            walk(child)

    for root in spans:
        walk(root)
    return {"requests": requests, "batches": batches, "totals": totals}
