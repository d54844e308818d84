"""The asyncio HTTP front door: ``repro serve``.

A stdlib-only HTTP/1.1 JSON service that turns the library into a
long-lived system:

* ``POST /v1/stats``  — delay bounds + moments for a tree or named
  workload; concurrent same-topology requests coalesce into one
  ``(B, N)`` sweep (:mod:`repro.serve.batcher`);
* ``POST /v1/verify`` — theorem-check a tree against the transient
  oracle;
* ``POST /v1/sta``    — netlist timing via :func:`repro.sta.timing.analyze`;
* ``POST /v1/ssta``   — statistical netlist timing via
  :func:`repro.sta.ssta.analyze_ssta` (canonical first-order forms);
* ``GET /healthz`` / ``/metrics`` / ``/spans`` — the same payloads the
  :mod:`repro.obs.server` side endpoint exposes, rendered by the shared
  helpers there.

The verify, sta and ssta routes are generated from the operation
registry (:mod:`repro.ops`) and share one bounded side executor.

Error contract: validation failures are 400 JSON payloads (never a
traceback), queue pressure is 429, expired deadlines are 504, draining
is 503, internal failures are a logged 500 with a generic body.

Lifecycle: SIGTERM/SIGINT trigger a graceful drain — the listener
closes, queued/in-flight requests finish (or fail 503 after
``drain_timeout``), and the warm worker pool plus its shared-memory
segments are torn down via :func:`repro.parallel.shutdown` — a
terminated service leaks neither workers nor ``/dev/shm`` blocks.
"""

from __future__ import annotations

import asyncio
import json
import logging
import signal as _signal
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro._exceptions import ReproError, ValidationError
from repro.obs.server import OBS_ROUTES
from repro.obs.trace import span as _span
from repro.ops import OPS, Context
from repro.serve import metrics as _metrics
from repro.serve.batcher import (
    Batcher,
    DeadlineExpiredError,
    DrainingError,
    QueueFullError,
    StuckBatchError,
)
from repro.serve.engine import StatsEngine
from repro.serve.schemas import parse_stats_request

# A library counter registers when its module loads.  These modules'
# series (``verify_*``, ``incremental_*``) are listed from the first
# scrape of ``/metrics``; ``sta_*`` and ``ssta_*`` appear at the first
# such op.
import repro.core.incremental  # noqa: F401
import repro.core.verification  # noqa: F401

__all__ = ["ServeConfig", "ReproServer", "ServerThread", "run_server"]

logger = logging.getLogger(__name__)

_STATUS_REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 408: "Request Timeout",
    413: "Payload Too Large", 429: "Too Many Requests",
    431: "Request Header Fields Too Large", 500: "Internal Server Error",
    501: "Not Implemented", 503: "Service Unavailable",
    504: "Gateway Timeout",
}

_JSON_TYPE = "application/json; charset=utf-8"

#: ``POST /v1/<op>`` for every registry op (:mod:`repro.ops`).
_OP_ROUTES = {f"/v1/{name}": op for name, op in OPS.items()}

#: The served route set; anything else is labeled ``unknown`` in
#: metrics/spans so scanner traffic cannot grow label cardinality.
_ENDPOINTS = frozenset(
    {*OBS_ROUTES, "/v1/stats", *_OP_ROUTES}
)


class _HttpError(Exception):
    """Internal: aborts request handling with a status + message."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


@dataclass
class ServeConfig:
    """Tunables for one :class:`ReproServer` instance."""

    host: str = "127.0.0.1"
    port: int = 8080
    #: Worker processes for the sweeps underneath (None/1 = in-process).
    jobs: Optional[int] = None
    #: Sharded-engine transport (``shm``/``serial``/None=auto).
    backend: Optional[str] = None
    #: Seconds a fresh batch waits for companions before dispatching.
    batch_window: float = 0.002
    #: Pending-request bound; beyond it requests get 429.
    max_queue: int = 256
    #: Default + maximum per-request deadline (seconds); requests may
    #: ask for less via ``timeout_ms``, never for more.
    deadline: float = 30.0
    #: Seconds shutdown waits for in-flight work before failing it 503.
    drain_timeout: float = 10.0
    #: ``False`` dispatches each request alone (the bench baseline).
    coalesce: bool = True
    #: Threads for the registry-op endpoints (verify/sta/ssta).
    aux_threads: int = 2
    #: Verify/sta/ssta pending bound (queued + executing, including work
    #: abandoned at its deadline); beyond it requests get 429.
    aux_max_queue: int = 16
    #: Largest accepted request body.
    max_body: int = 8 << 20
    #: Per-connection idle/read timeout (seconds).
    io_timeout: float = 60.0
    #: Whether shutdown also tears down the process-global warm pool.
    manage_pool: bool = True
    #: Seconds an in-flight sweep may run before the watchdog declares
    #: the batch stuck, fails it 503, and recycles the sweep executor
    #: plus the warm pool underneath (None = no watchdog).
    watchdog: Optional[float] = None


class ReproServer:
    """One service instance; drive it with :func:`run_server`, embed it
    with :meth:`start`/:meth:`shutdown`, or wrap it in a
    :class:`ServerThread` from synchronous code."""

    def __init__(self, config: Optional[ServeConfig] = None) -> None:
        self.config = config or ServeConfig()
        self.engine = StatsEngine(
            jobs=self.config.jobs, backend=self.config.backend
        )
        # One sweep thread: sweeps serialize (maximizing coalescing
        # under load) and the GIL never runs two NumPy batches anyway.
        self._sweep_executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve-sweep"
        )
        self._aux_executor = ThreadPoolExecutor(
            max_workers=max(1, self.config.aux_threads),
            thread_name_prefix="repro-serve-aux",
        )
        self.batcher = Batcher(
            self.engine.evaluate,
            executor=self._sweep_executor,
            window=self.config.batch_window,
            max_queue=self.config.max_queue,
            coalesce=self.config.coalesce,
            watchdog_timeout=self.config.watchdog,
            on_stuck=self._recycle_stuck_batch,
        )
        self._inflight = _metrics.InflightGauge()
        # Registry-op backpressure: the aux executor's own work queue is
        # unbounded, so the bound lives here.  Slots are released from
        # worker threads (a done callback), hence the lock.
        self._aux_lock = threading.Lock()
        self._aux_pending = 0
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: "set[asyncio.Task]" = set()
        self._shutdown_event = asyncio.Event()
        self._finished = False

    # -- lifecycle -----------------------------------------------------
    @property
    def port(self) -> int:
        """The bound port (the OS's pick when configured with 0)."""
        if self._server is None or not self._server.sockets:
            raise ReproError("server is not listening")
        return int(self._server.sockets[0].getsockname()[1])

    @property
    def url(self) -> str:
        """Base URL of the running service."""
        return f"http://{self.config.host}:{self.port}"

    async def start(self) -> None:
        """Bind the listener (raises ``OSError`` when the port is taken)."""
        self._server = await asyncio.start_server(
            self._on_connection, self.config.host, self.config.port
        )
        _metrics.DRAINING.set(0)
        logger.info("repro serve listening on %s", self.url)

    def install_signal_handlers(self) -> bool:
        """Route SIGTERM/SIGINT to a graceful drain.

        Returns ``False`` on platforms/threads where asyncio signal
        handlers are unavailable (e.g. a :class:`ServerThread`) — the
        embedding code stops the server explicitly there.
        """
        loop = asyncio.get_running_loop()
        try:
            for signum in (_signal.SIGTERM, _signal.SIGINT):
                loop.add_signal_handler(
                    signum, self.request_shutdown, signum
                )
        except (NotImplementedError, RuntimeError, ValueError):
            logger.debug("asyncio signal handlers unavailable; relying "
                         "on explicit shutdown")
            return False
        return True

    def request_shutdown(self, signum: Optional[int] = None) -> None:
        """Trigger a graceful drain (callable from a signal handler)."""
        if signum is not None:
            logger.info("received signal %s; draining", signum)
        self._shutdown_event.set()

    async def serve_forever(self) -> None:
        """Serve until :meth:`request_shutdown` (or a signal) fires,
        then drain and tear down."""
        await self._shutdown_event.wait()
        await self.shutdown()

    def _recycle_stuck_batch(self, key: str) -> None:
        """Watchdog recovery: the sweep thread may be wedged inside a
        native call, so replace it — swap in a fresh single-thread
        executor, point the batcher at it, abandon the old one without
        waiting, and recycle the warm pool in case the wedge lives in a
        worker process rather than the thread itself.  The engine drops
        its compiled topologies too, so no later batch shares a shm
        workspace with the abandoned sweep."""
        logger.warning(
            "recycling stuck sweep executor (topology key %s)", key
        )
        old = self._sweep_executor
        self._sweep_executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve-sweep"
        )
        self.batcher.replace_executor(self._sweep_executor)
        old.shutdown(wait=False, cancel_futures=True)
        self.engine.drop_topologies()
        from repro.parallel.pool import shutdown_warm_pool

        shutdown_warm_pool()

    async def shutdown(self) -> None:
        """Graceful drain: stop accepting, finish in-flight work (or
        fail it 503 after ``drain_timeout``), tear down executors and —
        when ``manage_pool`` — the warm pool + shm segments."""
        if self._finished:
            return
        self._finished = True
        _metrics.DRAINING.set(1)
        self.batcher.close()
        if self._server is not None:
            await self._close_listener()
        completed = await self.batcher.drain(self.config.drain_timeout)
        if not completed:
            logger.warning(
                "drain timed out after %.3gs; remaining requests got 503",
                self.config.drain_timeout,
            )
        # The last accepted sockets reach _on_connection one loop step
        # after their transports are built; wait for them too.
        await asyncio.sleep(0)
        if self._connections:
            await asyncio.wait(
                list(self._connections), timeout=self.config.io_timeout
            )
        self._sweep_executor.shutdown(wait=True, cancel_futures=True)
        self._aux_executor.shutdown(wait=True, cancel_futures=True)
        # Any checkpoint journal a drained verify/sta/MC run left open
        # must hit disk before teardown: a SIGTERM'd service restarted
        # with --resume picks up exactly where the drain stopped it.
        from repro.resilience.checkpoint import close_open_journals

        close_open_journals()
        if self.config.manage_pool:
            import repro.parallel

            repro.parallel.shutdown()
        logger.info("repro serve shut down cleanly")

    async def _close_listener(self) -> None:
        """Stop accepting, then close the listening sockets.

        asyncio accepts a socket in one loop step and builds its
        transport in a later one.  A transport built after
        ``Server.close()`` fails to attach and leaves the accepted socket
        open with nobody reading it, so its client hangs until its own
        timeout.  Removing the listener's reader first, and yielding one
        step, lets every accepted socket get its transport (and later a
        503 or EOF) before the server closes; connections the kernel
        still queues are reset when the listener closes.
        """
        loop = asyncio.get_running_loop()
        for sock in self._server.sockets:
            try:
                loop.remove_reader(sock.fileno())
            except NotImplementedError:  # a loop without readers
                break
        await asyncio.sleep(0)
        self._server.close()
        await self._server.wait_closed()

    # -- connection handling -------------------------------------------
    def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.get_running_loop().create_task(
            self._serve_connection(reader, writer)
        )
        self._connections.add(task)
        task.add_done_callback(self._connections.discard)

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except _HttpError as exc:
                    await self._write_error(writer, exc.status, str(exc),
                                            keep_alive=False)
                    return
                if request is None:
                    return  # client closed / went silent
                method, path, headers, body = request
                keep_alive = headers.get(
                    "connection", "keep-alive"
                ).lower() != "close" and not self._finished
                status, payload = await self._route(method, path, body)
                await self._write_response(writer, status, payload,
                                           keep_alive=keep_alive)
                if not keep_alive:
                    return
        except (ConnectionResetError, BrokenPipeError,
                asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _read_request(self, reader: asyncio.StreamReader):
        """Parse one HTTP/1.1 request; ``None`` on clean EOF/idle."""
        try:
            header_block = await asyncio.wait_for(
                reader.readuntil(b"\r\n\r\n"), self.config.io_timeout
            )
        except (asyncio.TimeoutError, asyncio.IncompleteReadError,
                ConnectionResetError):
            return None
        except asyncio.LimitOverrunError:
            raise _HttpError(431, "request headers too large") from None
        try:
            head, *header_lines = header_block.decode(
                "latin-1"
            ).rstrip("\r\n").split("\r\n")
            method, path, _version = head.split(" ", 2)
        except ValueError:
            raise _HttpError(400, "malformed request line") from None
        headers: Dict[str, str] = {}
        for line in header_lines:
            name, sep, value = line.partition(":")
            if sep:
                headers[name.strip().lower()] = value.strip()
        if "chunked" in headers.get("transfer-encoding", "").lower():
            raise _HttpError(
                501, "chunked request bodies are not supported"
            )
        length_text = headers.get("content-length", "0")
        try:
            length = int(length_text)
        except ValueError:
            raise _HttpError(
                400, f"invalid Content-Length {length_text!r}"
            ) from None
        if length < 0:
            raise _HttpError(400, "negative Content-Length")
        if length > self.config.max_body:
            raise _HttpError(
                413,
                f"request body of {length} bytes exceeds the "
                f"{self.config.max_body}-byte limit",
            )
        body = b""
        if length:
            try:
                body = await asyncio.wait_for(
                    reader.readexactly(length), self.config.io_timeout
                )
            except (asyncio.TimeoutError, asyncio.IncompleteReadError):
                raise _HttpError(408, "request body read timed out") \
                    from None
        return method.upper(), path.split("?", 1)[0], headers, body

    # -- routing -------------------------------------------------------
    async def _route(
        self, method: str, path: str, body: bytes
    ) -> Tuple[int, Tuple[bytes, str]]:
        endpoint = path if path in _ENDPOINTS else "unknown"
        with self._inflight, _span("serve.request", endpoint=endpoint,
                                   method=method):
            status, payload = await self._dispatch_route(
                method, path, body
            )
        _metrics.REQUESTS.labels(
            endpoint=endpoint, status=str(status)
        ).inc()
        return status, payload

    async def _dispatch_route(
        self, method: str, path: str, body: bytes
    ) -> Tuple[int, Tuple[bytes, str]]:
        try:
            route = OBS_ROUTES.get(path)
            if route is not None:
                self._require(method, "GET")
                body_of, content_type = route
                return 200, (body_of(), content_type)
            if path == "/v1/stats":
                self._require(method, "POST")
                return 200, self._json(await self._handle_stats(body))
            op = _OP_ROUTES.get(path)
            if op is not None:
                self._require(method, "POST")
                request = op.parse_json(self._parse_body(body))
                # Requests never journal: the context has no checkpoint.
                return 200, self._json(await self._handle_aux(
                    lambda params, jobs, backend: op.run(
                        params, Context(jobs=jobs, backend=backend)),
                    request,
                ))
            return self._error(404, f"no such endpoint {path!r}")
        except _HttpError as exc:
            return self._error(exc.status, str(exc))
        except QueueFullError as exc:
            return self._error(429, str(exc))
        except DrainingError as exc:
            return self._error(503, str(exc))
        except StuckBatchError as exc:
            # The sweep wedged and the watchdog already recycled the
            # executor; the request is safe to retry immediately.
            return self._error(503, str(exc))
        except DeadlineExpiredError as exc:
            return self._error(504, str(exc))
        except ValidationError as exc:
            return self._error(400, str(exc))
        except ReproError:
            # Only the subclasses caught above are client mistakes;
            # any other ReproError is a server-side fault (engine,
            # batcher bookkeeping) and must not read as a 400.
            logger.exception("internal error handling %s %s", method,
                             path)
            return self._error(500, "internal server error")
        except asyncio.CancelledError:
            raise
        except Exception:
            logger.exception("internal error handling %s %s", method, path)
            return self._error(500, "internal server error")

    @staticmethod
    def _require(method: str, expected: str) -> None:
        if method != expected:
            raise _HttpError(405, f"use {expected} for this endpoint")

    @staticmethod
    def _parse_body(body: bytes) -> Any:
        if not body:
            raise ValidationError("request body must be a JSON object")
        try:
            return json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ValidationError(f"request body is not valid JSON: {exc}") \
                from None

    def _effective_timeout(self, requested: Optional[float]) -> float:
        if requested is None:
            return self.config.deadline
        return min(requested, self.config.deadline)

    # -- endpoint handlers ---------------------------------------------
    @staticmethod
    async def _within_deadline(awaitable, timeout: float) -> Any:
        try:
            return await asyncio.wait_for(awaitable, timeout)
        except asyncio.TimeoutError:
            _metrics.DEADLINE_EXPIRED.inc()
            raise DeadlineExpiredError(
                f"request exceeded its {timeout:.3g}s deadline"
            ) from None

    async def _handle_stats(self, body: bytes) -> Dict[str, Any]:
        request = parse_stats_request(self._parse_body(body))
        timeout = self._effective_timeout(request.timeout_s)
        return await self._within_deadline(
            self.batcher.submit(request.key, request, timeout=timeout),
            timeout,
        )

    async def _handle_aux(self, evaluate, request) -> Dict[str, Any]:
        if self.batcher.closed:
            _metrics.REJECTED.labels(reason="draining").inc()
            raise DrainingError("server is draining; retry elsewhere")
        with self._aux_lock:
            if self._aux_pending >= self.config.aux_max_queue:
                _metrics.REJECTED.labels(reason="queue_full").inc()
                raise QueueFullError(
                    f"{'/'.join(OPS)} queue is full "
                    f"({self.config.aux_max_queue} pending)"
                )
            self._aux_pending += 1
        timeout = self._effective_timeout(request.timeout_s)
        # Submit the concurrent future directly: a request abandoned at
        # its deadline (504) keeps executing on its thread, and only the
        # work's completion — not the waiter's timeout — frees the slot,
        # so abandoned work still counts against the bound.
        future = self._aux_executor.submit(
            evaluate, request, self.config.jobs, self.config.backend
        )
        future.add_done_callback(self._release_aux_slot)
        return await self._within_deadline(
            asyncio.wrap_future(future), timeout
        )

    def _release_aux_slot(self, _future) -> None:
        with self._aux_lock:
            self._aux_pending = max(self._aux_pending - 1, 0)

    @property
    def aux_pending(self) -> int:
        """Registry-op requests queued or executing (incl. abandoned)."""
        with self._aux_lock:
            return self._aux_pending

    # -- response writing ----------------------------------------------
    @staticmethod
    def _json(payload: Any) -> Tuple[bytes, str]:
        return (json.dumps(payload).encode("utf-8"), _JSON_TYPE)

    @staticmethod
    def _error(status: int, message: str) -> Tuple[int, Tuple[bytes, str]]:
        body = json.dumps(
            {"error": {"status": status, "message": message}}
        ).encode("utf-8")
        return status, (body, _JSON_TYPE)

    async def _write_response(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: Tuple[bytes, str],
        keep_alive: bool,
    ) -> None:
        body, content_type = payload
        reason = _STATUS_REASONS.get(status, "Unknown")
        connection = "keep-alive" if keep_alive else "close"
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {connection}\r\n"
        )
        if status in (429, 503):
            # 429: back off the full queue.  503: draining or a
            # watchdog-recycled batch — either way the client's right
            # move is the same bounded retry.
            head += "Retry-After: 1\r\n"
        writer.write(head.encode("latin-1") + b"\r\n" + body)
        await writer.drain()

    async def _write_error(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        message: str,
        keep_alive: bool,
    ) -> None:
        _status, payload = self._error(status, message)
        await self._write_response(writer, status, payload, keep_alive)


async def _serve_async(config: ServeConfig, announce) -> int:
    server = ReproServer(config)
    try:
        await server.start()
    except OSError as exc:
        print(f"error: cannot bind {config.host}:{config.port}: "
              f"{exc.strerror or exc}", flush=True)
        return 1
    server.install_signal_handlers()
    if announce is not None:
        announce(server)
    try:
        await server.serve_forever()
    finally:
        await server.shutdown()
    return 0


def _default_announce(server: ReproServer) -> None:
    # The port lands on stdout (flushed) so scripts launching
    # ``repro serve --port 0`` can discover the OS's pick.
    print(f"serving on {server.url}", flush=True)


def run_server(
    config: Optional[ServeConfig] = None, announce=_default_announce
) -> int:
    """Run the service until SIGTERM/SIGINT; returns the exit code.

    Binds before announcing, so a taken port is a clean one-line error
    (exit 1), not a traceback.
    """
    return asyncio.run(_serve_async(config or ServeConfig(), announce))


class ServerThread:
    """Run a :class:`ReproServer` on a background thread (tests/benchs).

    Usage::

        with ServerThread(ServeConfig(port=0)) as server:
            urllib.request.urlopen(server.url + "/healthz")
    """

    def __init__(self, config: Optional[ServeConfig] = None) -> None:
        self.config = config or ServeConfig(port=0)
        self.server: Optional[ReproServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._ready = threading.Event()
        self._error: Optional[BaseException] = None
        self._thread = threading.Thread(
            target=self._run, name="repro-serve", daemon=True
        )

    def _run(self) -> None:
        async def main() -> None:
            self.server = ReproServer(self.config)
            self._loop = asyncio.get_running_loop()
            try:
                await self.server.start()
            except BaseException as exc:
                self._error = exc
                self._ready.set()
                return
            self.port = self.server.port
            self._ready.set()
            await self.server.serve_forever()

        asyncio.run(main())

    def start(self) -> "ServerThread":
        """Start the thread and block until the listener is bound."""
        self._thread.start()
        if not self._ready.wait(timeout=30.0):
            raise ReproError("server thread failed to start in time")
        if self._error is not None:
            raise ReproError(f"server failed to start: {self._error}")
        return self

    @property
    def url(self) -> str:
        """Base URL of the running service."""
        return f"http://{self.config.host}:{self.port}"

    def stop(self, timeout: float = 30.0) -> None:
        """Trigger a graceful drain and join the thread (idempotent)."""
        if self._loop is not None and self.server is not None \
                and self._thread.is_alive():
            self._loop.call_soon_threadsafe(self.server.request_shutdown)
        self._thread.join(timeout=timeout)

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc_info) -> bool:
        self.stop()
        return False
