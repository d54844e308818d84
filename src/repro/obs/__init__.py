"""Observability for the moment/Elmore pipeline: tracing, metrics, reports.

Small layers, all stdlib + NumPy only:

* :mod:`repro.obs.trace` — nestable spans over ``perf_counter`` with a
  near-zero-overhead disabled path (the default);
* :mod:`repro.obs.metrics` — always-on counters/gauges/histograms
  (optionally with label series) with JSON and Prometheus-text
  exporters;
* :mod:`repro.obs.report` — run reports (span tree + metrics +
  environment/seed) written atomically as JSON, plus the pretty-printer
  behind ``repro report``;
* :mod:`repro.obs.aggregate` — cross-process aggregation: pool workers
  capture their own spans/metric deltas per shard and the parent merges
  them under ``parallel.run`` with per-worker labels;
* :mod:`repro.obs.server` — the live localhost ``/metrics`` +
  ``/healthz`` + ``/spans`` endpoint behind ``--metrics-port``.

Span/metric naming conventions and how to read a report live in
``docs/observability.md``.  Quick start::

    from repro.obs import tracing, get_registry, collect_report

    with tracing():
        delays = batch_elmore_delays(topo, res, cap)   # instrumented
    report = collect_report(command="sweep", seed=11)
"""

from repro.obs.aggregate import (
    ShardObsCapture,
    merge_worker_payload,
    registry_delta,
    span_from_dict,
)
from repro.obs.logs import configure_logging, reset_logging
from repro.obs.metrics import (
    DEFAULT_SECONDS_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    counter,
    gauge,
    get_registry,
    histogram,
)
from repro.obs.report import (
    SCHEMA,
    atomic_write_text,
    collect_report,
    environment_info,
    format_seconds,
    load_report,
    render_report,
    render_span_tree,
    write_report,
)
from repro.obs.server import MetricsServer, start_metrics_server
from repro.obs.trace import (
    Span,
    Tracer,
    disable_tracing,
    enable_tracing,
    get_tracer,
    iter_span_dicts,
    span,
    traced,
    tracing,
    tracing_enabled,
)

__all__ = [
    # trace
    "Span",
    "Tracer",
    "get_tracer",
    "span",
    "traced",
    "tracing",
    "enable_tracing",
    "disable_tracing",
    "tracing_enabled",
    "iter_span_dicts",
    # metrics
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "counter",
    "gauge",
    "histogram",
    "DEFAULT_SECONDS_BUCKETS",
    # report
    "SCHEMA",
    "collect_report",
    "write_report",
    "load_report",
    "render_report",
    "render_span_tree",
    "format_seconds",
    "environment_info",
    "atomic_write_text",
    # aggregate
    "ShardObsCapture",
    "merge_worker_payload",
    "registry_delta",
    "span_from_dict",
    # server
    "MetricsServer",
    "start_metrics_server",
    # logs
    "configure_logging",
    "reset_logging",
]
