"""Structured run reports: span tree + metrics + environment, as JSON.

A run report is the machine-readable record of one run — what was
executed (command, seed), where the time went (the span tree from
:mod:`repro.obs.trace`), what was counted (the metrics registry), and on
what (Python/NumPy/platform).  The CLI writes one per ``--trace-out``
run; ``repro report FILE`` pretty-prints it back with cumulative and
self times per span.

Files are written atomically (temp file + ``os.replace``) so an
interrupted run never leaves a truncated report behind; the benchmark
harness reuses :func:`atomic_write_text` for the same guarantee.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional

import numpy as np

from repro._exceptions import ValidationError
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.obs.trace import Tracer, get_tracer

__all__ = [
    "SCHEMA",
    "environment_info",
    "collect_report",
    "write_report",
    "load_report",
    "render_span_tree",
    "render_report",
    "format_seconds",
    "atomic_write_text",
]

#: Schema tag stamped into every report (bump on breaking layout change).
#: ``/2`` added ``pid``/``seq`` to every span so merged multi-process
#: traces stay attributable and stably ordered; ``/1`` reports are still
#: readable (:func:`load_report` upgrades them in memory).
SCHEMA = "repro.run_report/2"

#: Older schema tags :func:`load_report` upgrades on read.
_COMPAT_SCHEMAS = ("repro.run_report/1",)


def atomic_write_text(path: str, text: str) -> str:
    """Write ``text`` to ``path`` atomically (temp file + ``os.replace``).

    The temp file lives in the target directory so the replace never
    crosses filesystems; on failure the temp file is removed and ``path``
    is left untouched.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path


def environment_info() -> Dict[str, Any]:
    """Versions and platform facts worth pinning to a measurement."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "pid": os.getpid(),
    }


def collect_report(
    command: Optional[str] = None,
    seed: Optional[int] = None,
    extra: Optional[Dict[str, Any]] = None,
    tracer: Optional[Tracer] = None,
    registry: Optional[MetricsRegistry] = None,
) -> Dict[str, Any]:
    """Assemble the run-report dict from the (global) tracer/registry."""
    tracer = tracer if tracer is not None else get_tracer()
    registry = registry if registry is not None else get_registry()
    return {
        "schema": SCHEMA,
        "command": command,
        "seed": seed,
        "generated_at": time.strftime(
            "%Y-%m-%dT%H:%M:%SZ", time.gmtime()
        ),
        "environment": environment_info(),
        "spans": tracer.to_dicts(),
        "metrics": registry.to_dict(),
        "extra": dict(extra or {}),
    }


def write_report(path: str, report: Optional[Dict[str, Any]] = None,
                 **collect_kwargs: Any) -> str:
    """Write ``report`` (or a freshly collected one) to ``path`` as JSON."""
    if report is None:
        report = collect_report(**collect_kwargs)
    atomic_write_text(
        path, json.dumps(report, indent=2, sort_keys=True) + "\n"
    )
    return path


def _upgrade_spans_v1(spans: List[Dict[str, Any]]) -> None:
    """In-place shim for ``/1`` span trees: ``pid`` (unknown → ``None``)
    and a depth-first ``seq`` so old reports sort the same way new ones
    do."""
    counter = iter(range(1 << 62))

    def walk(entry: Dict[str, Any]) -> None:
        entry.setdefault("pid", None)
        entry.setdefault("seq", next(counter))
        for child in entry.get("children", []):
            walk(child)

    for root in spans:
        walk(root)


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_spans(spans: Any, path: str) -> None:
    """Every span is a dict with a str ``name``, numeric ``duration`` and
    ``self``, a dict of ``attributes`` and a list of child spans."""
    if not isinstance(spans, list):
        raise ValidationError(f"{path}: 'spans' is not a list")
    for entry in spans:
        if not (isinstance(entry, dict)
                and isinstance(entry.get("name"), str)
                and _is_number(entry.get("duration"))
                and _is_number(entry.get("self", 0.0))
                and isinstance(entry.get("attributes", {}), dict)):
            raise ValidationError(
                f"{path}: span {entry!r:.60} needs a str 'name' and a "
                f"numeric 'duration'"
            )
        _check_spans(entry.get("children", []), path)


def _is_metric_state(state: Any) -> bool:
    """A metric (or labeled series) state as :func:`render_report`
    reads it: a str ``kind``, numeric ``value``/``count``/``sum``,
    optional ``max``, and labeled ``series`` of the same shape."""
    return (
        isinstance(state, dict)
        and isinstance(state.get("kind", ""), str)
        and all(_is_number(state.get(key, 0))
                for key in ("value", "count", "sum"))
        and (state.get("max") is None or _is_number(state["max"]))
        and isinstance(state.get("labels") or {}, dict)
        and isinstance(state.get("series") or [], list)
        and all(_is_metric_state(child)
                for child in state.get("series") or [])
    )


def load_report(path: str) -> Dict[str, Any]:
    """Read a run report back, checking the schema tag and the shape
    :func:`render_report` reads.

    ``repro.run_report/1`` files (written before spans carried
    ``pid``/``seq``) are upgraded in memory to the ``/2`` shape; the
    returned dict always matches the current :data:`SCHEMA`.  A file
    that is not UTF-8 JSON in that shape raises
    :class:`ValidationError`.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            report = json.load(handle)
    except (ValueError, RecursionError) as exc:
        # ValueError covers both undecodable bytes and malformed JSON.
        raise ValidationError(f"{path} is not UTF-8 JSON: {exc}") from exc
    if not isinstance(report, dict) or "spans" not in report:
        raise ValidationError(
            f"{path} is not a run report (no 'spans' key)"
        )
    schema = report.get("schema")
    if schema not in (SCHEMA,) + _COMPAT_SCHEMAS:
        raise ValidationError(
            f"{path} has schema {schema!r}, expected {SCHEMA!r}"
        )
    _check_spans(report["spans"], path)
    metrics = report.get("metrics", {})
    if not (isinstance(metrics, dict)
            and all(map(_is_metric_state, metrics.values()))):
        raise ValidationError(f"{path}: 'metrics' is not a metrics dict")
    if not isinstance(report.get("environment", {}), dict):
        raise ValidationError(f"{path}: 'environment' is not a dict")
    if schema in _COMPAT_SCHEMAS:
        _upgrade_spans_v1(report["spans"])
        report["schema"] = SCHEMA
    return report


def format_seconds(value: float) -> str:
    """Adaptive duration formatting: ``1.23 s`` / ``4.56 ms`` / ``7 us``."""
    mag = abs(value)
    if mag >= 1.0:
        return f"{value:.3g} s"
    if mag >= 1e-3:
        return f"{value * 1e3:.3g} ms"
    if mag >= 1e-6:
        return f"{value * 1e6:.3g} us"
    return f"{value * 1e9:.3g} ns"


def _format_attributes(attributes: Dict[str, Any]) -> str:
    return " ".join(f"{k}={v}" for k, v in attributes.items())


def render_span_tree(spans: List[Dict[str, Any]]) -> str:
    """Pretty-print serialized span trees with cum/self times.

    ``spans`` is the ``"spans"`` list of a run report (or
    ``Tracer.to_dicts()``).  Cumulative time is the span's full duration;
    self time excludes instrumented children.
    """
    width = 46
    lines = [f"{'span':<{width}} {'cum':>10} {'self':>10}  attributes"]
    lines.append("-" * (width + 24) + "-" * 12)

    def walk(entry: Dict[str, Any], depth: int) -> None:
        label = "  " * depth + entry["name"]
        if len(label) > width:
            label = label[: width - 1] + "…"
        lines.append(
            f"{label:<{width}} "
            f"{format_seconds(entry['duration']):>10} "
            f"{format_seconds(entry.get('self', entry['duration'])):>10}  "
            f"{_format_attributes(entry.get('attributes', {}))}".rstrip()
        )
        for child in entry.get("children", []):
            walk(child, depth + 1)

    for root in spans:
        walk(root, 0)
    if not spans:
        lines.append("(no spans recorded — was tracing enabled?)")
    return "\n".join(lines)


def _render_metrics(metrics: Dict[str, Dict[str, Any]]) -> str:
    lines = [f"{'metric':<40} {'kind':>9}  value"]
    lines.append("-" * 64)
    for name in sorted(metrics):
        state = metrics[name]
        kind = state.get("kind", "?")
        if kind == "histogram":
            count = state.get("count", 0)
            total = state.get("sum", 0.0)
            mean = total / count if count else 0.0
            value = (
                f"count={count} sum={format_seconds(total)} "
                f"mean={format_seconds(mean)}"
            )
            if state.get("max") is not None:
                value += f" max={format_seconds(state['max'])}"
        else:
            raw = state.get("value", 0.0)
            value = (str(int(raw)) if float(raw).is_integer()
                     else f"{raw:.6g}")
        lines.append(f"{name:<40} {kind:>9}  {value}")
    if not metrics:
        lines.append("(no metrics recorded)")
    return "\n".join(lines)


def _reason_summary(state: Dict[str, Any], label: str = "reason") -> str:
    """``"reason-a ×2, reason-b"`` from a counter's labeled series (or
    just the total when no per-``label`` breakdown was recorded)."""
    parts = []
    for series in state.get("series") or []:
        reason = (series.get("labels") or {}).get(label)
        if reason is None:
            continue
        count = series.get("value", 0.0)
        parts.append(f"{reason} ×{count:g}" if count != 1.0 else reason)
    return ", ".join(parts) if parts else f"×{state.get('value', 0):g}"


def _degradation_notices(metrics: Dict[str, Dict[str, Any]]) -> List[str]:
    """One-line warnings when the run did not execute the way it asked
    to (shm → serial fallback, shards degraded to in-process after
    retries, checkpoint resume, injected faults)."""
    notices: List[str] = []
    fallback = metrics.get("parallel_shm_fallback_total")
    if fallback and fallback.get("value", 0.0) > 0:
        notices.append(
            "degraded: shm→serial transport fallback "
            f"({_reason_summary(fallback)})"
        )
    degraded = metrics.get("parallel_degraded_total")
    if degraded and degraded.get("value", 0.0) > 0:
        notices.append(
            f"degraded: {degraded.get('value', 0):g} shard(s) fell back "
            "to in-process execution (worker deaths/timeouts exhausted "
            "retries, or the warm pool could not fork)"
        )
    resumed = metrics.get("resilience_checkpoint_shards_resumed_total")
    if resumed and resumed.get("value", 0.0) > 0:
        written = metrics.get(
            "resilience_checkpoint_shards_written_total", {}
        )
        total = resumed.get("value", 0.0) + written.get("value", 0.0)
        notices.append(
            f"resumed: {resumed.get('value', 0):g}/{total:g} shard(s) "
            "skipped from the checkpoint journal"
        )
    injected = metrics.get("resilience_faults_injected_total")
    if injected and injected.get("value", 0.0) > 0:
        notices.append(
            f"fault injection: {injected.get('value', 0):g} fault(s) "
            f"fired ({_reason_summary(injected, label='point')})"
        )
    return notices


def render_report(report: Dict[str, Any]) -> str:
    """Human-readable rendering of a run report (for ``repro report``)."""
    env = report.get("environment", {})
    head = [
        f"run report — command: {report.get('command') or '(unknown)'}",
        f"generated: {report.get('generated_at', '?')}   "
        f"seed: {report.get('seed')}   "
        f"python {env.get('python', '?')} / numpy {env.get('numpy', '?')} "
        f"on {env.get('machine', '?')}",
    ]
    head.extend(_degradation_notices(report.get("metrics", {})))
    head += [
        "",
        render_span_tree(report.get("spans", [])),
        "",
        _render_metrics(report.get("metrics", {})),
    ]
    extra = report.get("extra") or {}
    if extra:
        head.append("")
        head.append("extra: " + json.dumps(extra, sort_keys=True))
    return "\n".join(head)
