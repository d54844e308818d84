"""HTTP service: coalesced vs unbatched throughput and tail latency.

The serving tentpole's claim: under concurrent same-topology load, the
batcher coalesces requests into shared ``(B, N)`` sweeps, so the
service sustains **higher throughput** (and a flatter tail) than the
same server dispatching every request as its own sweep.  Measured here
end-to-end over real HTTP against an in-process :class:`ServerThread`:

* ``batched`` — the default coalescing path (``serve_batch_size`` > 1
  under load);
* ``unbatched`` — the same server with ``coalesce=False`` (the
  one-sweep-per-request baseline).

At concurrency 1 the two modes are equivalent (every batch has one
request); the table shows both as a sanity anchor.  The batched row at
the highest concurrency is asserted to beat the unbatched row on
throughput, and every response is checked bit-identical across modes —
coalescing is a scheduling optimization, never a numeric one.

Quick mode (``REPRO_BENCH_QUICK=1``) shrinks the request count so the
CI smoke job finishes in seconds.
"""

import json
import os
import time
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.serve import ServeConfig, ServerThread

from benchmarks._helpers import report

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")
#: Requests each client thread sends, per (mode, concurrency) cell.
REQUESTS_PER_CLIENT = 4 if QUICK else 12
CONCURRENCIES = (1, 8)
#: Parameter rows per request: enough work per sweep that coalescing
#: amortizes real compute, not just HTTP overhead.
ROWS = 16 if QUICK else 32
WORKLOAD = "balanced:9x2"  # ~511-node clock tree

PAYLOAD = json.dumps({
    "workload": WORKLOAD,
    "rscale": list(np.linspace(0.9, 1.1, ROWS)),
    "nodes": ["t"],  # the balanced tree's root node
}).encode("utf-8")


def _one_request(url):
    request = urllib.request.Request(url + "/v1/stats", data=PAYLOAD)
    start = time.perf_counter()
    with urllib.request.urlopen(request, timeout=120.0) as response:
        body = json.loads(response.read())
    return time.perf_counter() - start, body


def _drive(url, concurrency):
    """``concurrency`` clients, each sending its requests back to back.

    Returns (throughput rps, p50 s, p99 s, one response body).
    """
    def client(_k):
        return [_one_request(url) for _ in range(REQUESTS_PER_CLIENT)]

    start = time.perf_counter()
    with ThreadPoolExecutor(max_workers=concurrency) as pool:
        per_client = list(pool.map(client, range(concurrency)))
    elapsed = time.perf_counter() - start
    latencies = sorted(t for timings in per_client
                       for t, _body in timings)
    total = concurrency * REQUESTS_PER_CLIENT
    return (
        total / elapsed,
        float(np.quantile(latencies, 0.50)),
        float(np.quantile(latencies, 0.99)),
        per_client[0][0][1],
    )


def _batch_stats(thread):
    stats = thread.server.batcher.stats
    return stats.batches, stats.max_batch_size


def test_serve_throughput(benchmark):
    results = {}
    reference_nodes = None
    for mode, coalesce in (("batched", True), ("unbatched", False)):
        with ServerThread(ServeConfig(
            port=0, coalesce=coalesce, batch_window=0.002,
            manage_pool=False,
        )) as thread:
            # Warm the topology cache out of the measurement.
            _one_request(thread.url)
            for concurrency in CONCURRENCIES:
                rps, p50, p99, body = _drive(thread.url, concurrency)
                results[mode, concurrency] = (rps, p50, p99)
                # Coalescing must never change the numbers.
                if reference_nodes is None:
                    reference_nodes = body["nodes"]
                assert body["nodes"] == reference_nodes
            batches, max_batch = _batch_stats(thread)
            results[mode, "batches"] = (batches, max_batch)
            if mode == "batched":
                benchmark(_one_request, thread.url)

    top = CONCURRENCIES[-1]
    total = top * REQUESTS_PER_CLIENT
    # The tentpole claim: coalescing wins under concurrent load.
    assert results["batched", top][0] > results["unbatched", top][0], (
        f"batched {results['batched', top][0]:.1f} rps did not beat "
        f"unbatched {results['unbatched', top][0]:.1f} rps at "
        f"concurrency {top}"
    )
    # And it actually coalesced: fewer sweeps than requests.
    batched_sweeps = results["batched", "batches"][0]
    assert batched_sweeps < 2 * total  # 2 concurrency levels + warmups

    rows = []
    for mode in ("batched", "unbatched"):
        for concurrency in CONCURRENCIES:
            rps, p50, p99 = results[mode, concurrency]
            rows.append([
                mode,
                str(concurrency),
                str(REQUESTS_PER_CLIENT * concurrency),
                str(ROWS),
                f"{rps:.1f} rps",
                f"{p50 * 1e3:.1f} ms",
                f"{p99 * 1e3:.1f} ms",
            ])
    speedup = results["batched", top][0] / results["unbatched", top][0]
    report(
        "serve",
        f"HTTP service throughput, coalesced vs unbatched "
        f"({WORKLOAD}, {ROWS} rows/request)",
        ["mode", "clients", "requests", "rows/req", "throughput",
         "p50", "p99"],
        rows,
        extra={
            "speedup_batched_vs_unbatched": round(speedup, 3),
            "concurrency": top,
            "batched_sweeps": results["batched", "batches"][0],
            "batched_max_batch": results["batched", "batches"][1],
            "unbatched_sweeps": results["unbatched", "batches"][0],
        },
    )
