"""Nestable tracing spans over ``time.perf_counter``.

A *span* measures one phase of a run (a topology compile, a batched
level sweep, a verification sampling pass).  Spans nest: entering a span
while another is open links it as a child, so a whole run reconstructs
into a tree that :func:`repro.obs.report.render_span_tree` pretty-prints
with cumulative and self times.

The tracer is **disabled by default** and the disabled path is
near-zero-overhead: :func:`span` returns a shared no-op context manager
without allocating a :class:`Span`, and :func:`traced`-wrapped functions
call straight through.  Instrumented library code therefore never pays
more than one flag check per *call* (never per node) when tracing is
off — the invariant the differential tests in
``tests/obs/test_instrumentation.py`` pin down.

Usage::

    from repro.obs import span, traced, tracing

    with tracing():                     # enable for a scope
        with span("batch.sweep", B=1000, N=256):
            ...

    @traced(metric="batch_sweep_seconds")
    def hot_phase(...): ...

Passing ``metric="name"`` feeds the span's duration into the histogram
of that name in the global metrics registry on exit.
"""

from __future__ import annotations

import functools
import itertools
import logging
import os
import threading
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Union

from repro.obs.metrics import get_registry

__all__ = [
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
]

logger = logging.getLogger(__name__)


class _NullSpan:
    """Shared no-op stand-in returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set_attribute(self, key: str, value: Any) -> None:
        """Ignore the attribute (tracing is off)."""


_NULL_SPAN = _NullSpan()


class Span:
    """One timed phase, with attributes and child spans.

    Created through :meth:`Tracer.span` / :func:`span`; use as a context
    manager.  ``start``/``end`` are ``perf_counter`` readings, so only
    differences are meaningful.

    ``pid`` records the process that measured the span and ``seq`` is a
    per-tracer monotonic open order — together they keep merged
    multi-process traces (:mod:`repro.obs.aggregate`) attributable and
    stably ordered even though worker clocks are not comparable to the
    parent's.
    """

    __slots__ = ("name", "attributes", "start", "end", "children",
                 "pid", "seq", "_tracer", "_metric")

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        attributes: Dict[str, Any],
        metric: Optional[str] = None,
    ) -> None:
        self.name = name
        self.attributes = attributes
        self.start: float = 0.0
        self.end: Optional[float] = None
        self.children: List["Span"] = []
        self.pid: int = os.getpid()
        self.seq: Optional[int] = None
        self._tracer = tracer
        self._metric = metric

    def __enter__(self) -> "Span":
        self._tracer._open(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.end = time.perf_counter()
        self._tracer._close(self)
        if exc_type is not None:
            self.attributes.setdefault("error", exc_type.__name__)
        if self._metric is not None:
            get_registry().histogram(self._metric).observe(self.duration)
        if logger.isEnabledFor(logging.DEBUG):
            logger.debug(
                "span %s: %.3f ms %s",
                self.name, self.duration * 1e3, self.attributes,
            )
        return False

    def set_attribute(self, key: str, value: Any) -> None:
        """Attach/overwrite one attribute on the span."""
        self.attributes[key] = value

    @property
    def duration(self) -> float:
        """Wall-clock seconds between enter and exit (so far, if open)."""
        end = self.end if self.end is not None else time.perf_counter()
        return end - self.start

    @property
    def self_time(self) -> float:
        """Duration minus the children's durations (time spent *here*)."""
        return self.duration - sum(c.duration for c in self.children)

    def to_dict(self) -> Dict[str, Any]:
        """Serializable form: name, timings, pid/seq, attributes,
        children (the ``repro.run_report/2`` span shape)."""
        return {
            "name": self.name,
            "start": self.start,
            "duration": self.duration,
            "self": self.self_time,
            "pid": self.pid,
            "seq": self.seq,
            "attributes": dict(self.attributes),
            "children": [c.to_dict() for c in self.children],
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Span({self.name!r}, {self.duration * 1e3:.3f} ms, "
                f"{len(self.children)} children)")


class Tracer:
    """Collects spans into per-run trees.

    One process-global instance (:func:`get_tracer`) backs the module
    functions; independent instances may be created for tests.  The open
    span stack is thread-local, so worker threads build disjoint trees;
    finished root spans are accumulated under a lock.
    """

    def __init__(self) -> None:
        self.enabled = False
        self._roots: List[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._seq = itertools.count()

    # -- lifecycle -----------------------------------------------------
    def enable(self) -> None:
        """Start recording spans."""
        self.enabled = True

    def disable(self) -> None:
        """Stop recording spans (already-recorded trees are kept)."""
        self.enabled = False

    def reset(self) -> None:
        """Drop every recorded span and open stack; restart ``seq``."""
        with self._lock:
            self._roots = []
        self._local = threading.local()
        self._seq = itertools.count()

    # -- span creation -------------------------------------------------
    def span(
        self, name: str, metric: Optional[str] = None, **attributes: Any
    ) -> Union[Span, _NullSpan]:
        """Open a span (or the shared no-op when disabled)."""
        if not self.enabled:
            return _NULL_SPAN
        return Span(self, name, attributes, metric)

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _open(self, span_: Span) -> None:
        span_.seq = next(self._seq)
        stack = self._stack()
        if stack:
            stack[-1].children.append(span_)
        else:
            with self._lock:
                self._roots.append(span_)
        stack.append(span_)

    def _close(self, span_: Span) -> None:
        # Spans sharing a thread (event-loop requests) may close out of order.
        stack = self._stack()
        for k in range(len(stack) - 1, -1, -1):
            if stack[k] is span_:
                del stack[k]
                break

    # -- inspection ----------------------------------------------------
    @property
    def roots(self) -> List[Span]:
        """Snapshot of the recorded root spans."""
        with self._lock:
            return list(self._roots)

    def to_dicts(self) -> List[Dict[str, Any]]:
        """All recorded span trees in serializable form."""
        return [root.to_dict() for root in self.roots]

    def find(self, name: str) -> List[Span]:
        """Every recorded span named ``name``, depth-first."""
        found: List[Span] = []

        def walk(span_: Span) -> None:
            if span_.name == name:
                found.append(span_)
            for child in span_.children:
                walk(child)

        for root in self.roots:
            walk(root)
        return found


_TRACER = Tracer()


def get_tracer() -> Tracer:
    """The process-global tracer behind :func:`span` / :func:`traced`."""
    return _TRACER


def span(
    name: str, metric: Optional[str] = None, **attributes: Any
) -> Union[Span, _NullSpan]:
    """Open a span on the global tracer (no-op while disabled)."""
    if not _TRACER.enabled:
        return _NULL_SPAN
    return Span(_TRACER, name, attributes, metric)


def traced(
    name: Optional[str] = None,
    metric: Optional[str] = None,
    **attributes: Any,
) -> Callable:
    """Decorator form of :func:`span` (span name defaults to the
    qualified function name)."""

    def decorate(fn: Callable) -> Callable:
        span_name = name or f"{fn.__module__}.{fn.__qualname__}"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not _TRACER.enabled:
                return fn(*args, **kwargs)
            with Span(_TRACER, span_name, dict(attributes), metric):
                return fn(*args, **kwargs)

        return wrapper

    return decorate


def enable_tracing() -> None:
    """Enable the global tracer."""
    _TRACER.enable()


def disable_tracing() -> None:
    """Disable the global tracer (recorded spans are kept)."""
    _TRACER.disable()


def tracing_enabled() -> bool:
    """Whether the global tracer is currently recording."""
    return _TRACER.enabled


class tracing:
    """Scope that records spans: resets, enables, then restores.

    ::

        with tracing() as tracer:
            ...instrumented calls...
        tree = tracer.to_dicts()
    """

    def __init__(self, reset: bool = True) -> None:
        self._reset = reset
        self._was = False

    def __enter__(self) -> Tracer:
        self._was = _TRACER.enabled
        if self._reset:
            _TRACER.reset()
        _TRACER.enable()
        return _TRACER

    def __exit__(self, *exc) -> bool:
        _TRACER.enabled = self._was
        return False


def iter_span_dicts(spans: List[Dict[str, Any]]) -> Iterator[Dict[str, Any]]:
    """Depth-first iterator over serialized span trees."""
    for entry in spans:
        yield entry
        yield from iter_span_dicts(entry.get("children", []))
