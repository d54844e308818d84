"""A stdlib-only live observability endpoint.

The first concrete slice of the ROADMAP's ``repro serve`` front door: a
tiny threaded HTTP server that exposes the process-global obs state
while a run is in flight —

* ``GET /metrics`` — the metrics registry in Prometheus text exposition
  format (via :meth:`~repro.obs.metrics.MetricsRegistry.to_prometheus_text`),
  including the ``worker``-labeled series merged from pool workers;
* ``GET /healthz`` — liveness probe, ``200 ok``;
* ``GET /spans`` — the tracer's recorded span trees as JSON (empty list
  while tracing is disabled).

Start it programmatically::

    from repro.obs.server import start_metrics_server

    with start_metrics_server(port=9109) as server:
        ...long sweep...   # meanwhile: curl localhost:9109/metrics

or from any CLI command with ``--metrics-port 9109`` (port ``0`` picks
a free port and logs it).  The server runs daemon threads only, so it
never blocks interpreter exit; scraping is read-only and lock-free
apart from the registry's own per-metric locks.
"""

from __future__ import annotations

import json
import logging
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional

from repro.obs.metrics import get_registry
from repro.obs.trace import get_tracer

__all__ = [
    "MetricsServer",
    "start_metrics_server",
    "healthz_body",
    "metrics_body",
    "spans_body",
    "OBS_ROUTES",
]

logger = logging.getLogger(__name__)

#: Content type mandated by the Prometheus text exposition format.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def healthz_body() -> bytes:
    """The liveness-probe payload."""
    return b"ok\n"


def metrics_body() -> bytes:
    """The metrics registry in Prometheus text exposition format."""
    return get_registry().to_prometheus_text().encode("utf-8")


def spans_body() -> bytes:
    """The tracer's recorded span trees as a JSON document."""
    payload = {
        "tracing": get_tracer().enabled,
        "spans": get_tracer().to_dicts(),
    }
    return json.dumps(payload, indent=2).encode("utf-8")


_TEXT_TYPE = "text/plain; charset=utf-8"

#: ``{path: (body builder, content type)}`` of the read-only obs routes,
#: served by this endpoint and by ``repro serve`` alike.
OBS_ROUTES = {
    "/healthz": (healthz_body, _TEXT_TYPE),
    "/metrics": (metrics_body, PROMETHEUS_CONTENT_TYPE),
    "/spans": (spans_body, "application/json; charset=utf-8"),
}


class _ObsRequestHandler(BaseHTTPRequestHandler):
    """Routes :data:`OBS_ROUTES`; 404 elsewhere."""

    server_version = "repro-obs/1"

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        route = OBS_ROUTES.get(self.path.split("?", 1)[0])
        if route is None:
            self._reply(404, _TEXT_TYPE, b"not found\n")
        else:
            body, content_type = route
            self._reply(200, content_type, body())

    def _reply(self, status: int, content_type: str, body: bytes) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, fmt: str, *args) -> None:
        # http.server writes access lines to stderr by default; route
        # them through logging so normal runs stay quiet.
        logger.debug("metrics server: " + fmt, *args)


class MetricsServer:
    """A running observability endpoint; stop with :meth:`stop` or use
    as a context manager."""

    def __init__(self, host: str, port: int) -> None:
        self._httpd = ThreadingHTTPServer((host, port), _ObsRequestHandler)
        self._httpd.daemon_threads = True
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-metrics-server",
            daemon=True,
        )
        self._thread.start()

    @property
    def host(self) -> str:
        """The bound interface."""
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        """The bound port (the OS's pick when started with port 0)."""
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        """Base URL of the endpoint."""
        return f"http://{self.host}:{self.port}"

    def stop(self) -> None:
        """Shut the listener down and join the serving thread
        (idempotent)."""
        self._httpd.shutdown()
        self._httpd.server_close()
        self._thread.join(timeout=5.0)

    def __enter__(self) -> "MetricsServer":
        return self

    def __exit__(self, *exc_info) -> bool:
        self.stop()
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MetricsServer({self.url})"


def start_metrics_server(
    port: int = 0, host: str = "127.0.0.1"
) -> Optional[MetricsServer]:
    """Start the live endpoint on ``host:port`` (``0`` = any free port).

    Returns the running :class:`MetricsServer`, or ``None`` when the
    socket cannot be bound (port taken, privileged port, no loopback) —
    observability must never take the run down with it.
    """
    try:
        server = MetricsServer(host, int(port))
    except OSError as exc:
        logger.warning(
            "cannot start metrics server on %s:%s (%s); continuing "
            "without live metrics", host, port, exc,
        )
        return None
    logger.info("metrics server listening on %s", server.url)
    return server
