"""``repro serve`` — the HTTP JSON front door over the library.

The serving subsystem in one picture::

    POST /v1/stats ──► schemas (validate, topology key)
                        │
                        ▼
                    batcher (coalesce same-key requests, deadlines,
                        │    bounded queue, 429/503/504 back-pressure)
                        ▼
                    engine  (one (B, N) batched sweep per batch, warm
                        │    pool via run_sharded when jobs >= 2)
                        ▼
                    app     (asyncio HTTP/1.1, graceful SIGTERM drain)

``POST /v1/verify``, ``/v1/sta`` and ``/v1/ssta`` are generated from the
operation registry (:mod:`repro.ops`) and run on a small side executor;
``GET /healthz`` / ``/metrics`` / ``/spans`` reuse the
:mod:`repro.obs.server` renderers.  Start it from the CLI::

    repro serve --port 8080 --jobs 8 --backend shm

or in-process (tests, benchmarks) via :class:`ServerThread`.
"""

from repro.serve.app import ReproServer, ServeConfig, ServerThread, \
    run_server
from repro.serve.batcher import Batcher, BatcherStats, \
    DeadlineExpiredError, DrainingError, QueueFullError
from repro.serve.engine import StatsEngine
from repro.serve.schemas import (
    StatsRequest,
    parse_stats_request,
    resolve_workload,
    topology_key,
    tree_from_spec,
)

__all__ = [
    "ReproServer",
    "ServeConfig",
    "ServerThread",
    "run_server",
    "Batcher",
    "BatcherStats",
    "QueueFullError",
    "DeadlineExpiredError",
    "DrainingError",
    "StatsEngine",
    "StatsRequest",
    "parse_stats_request",
    "resolve_workload",
    "tree_from_spec",
    "topology_key",
]
