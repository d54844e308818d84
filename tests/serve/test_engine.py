"""The stats engine's sharded sweep: the shared zero-copy row sweep.

A coalesced batch big enough to shard must answer with exactly the
bytes of the in-process sweep on every backend and worker count, ride
the shm transport when asked to, and plan its shards from the row count
alone.  A batch too small for the pool stays in process (the shared
rule of ``repro.parallel.use_pool``), and the segments a server
publishes stay bounded whatever topologies its clients send.  The tests
of the sharded path pin the rule's threshold to 0 (``pool_always``).
"""

import json
import os

import numpy as np
import pytest

import repro.parallel.executor as executor
from repro.obs.metrics import counter
from repro.obs.trace import tracing
from repro.parallel.shm import MAX_PUBLISHED_WORKSPACES, \
    active_segment_names
from repro.resilience.faults import clear_faults, install_faults
from repro.serve import ServeConfig
from repro.serve.app import ReproServer
from repro.serve.engine import StatsEngine
from repro.serve.schemas import parse_stats_request, resolve_workload

#: Blocks in one published stats workspace: the topology's index,
#: bounds and values, plus ``res``, ``cap`` and ``out``.
WORKSPACE_BLOCKS = 6


def _batch(workload="balanced:10x2", rows=(470, 50)):
    """Two coalesced requests on one topology (by default 470 + 50 rows
    of a 1023-node tree), each reporting three nodes."""
    nodes = list(resolve_workload(workload).node_names)[-3:]
    return [
        parse_stats_request({
            "workload": workload, "signal": "ramp:2ns", "nodes": nodes,
            "rscale": np.linspace(0.5, 1.5, rows[0]).tolist(),
        }),
        parse_stats_request({
            "workload": workload, "nodes": nodes,
            "cscale": np.linspace(0.7, 1.2, rows[1]).tolist(),
        }),
    ]


def _own_segments():
    prefix = f"repro_shm_{os.getpid()}_"
    return [name for name in active_segment_names()
            if name.startswith(prefix)]


def _dump(responses):
    return json.dumps(responses, sort_keys=True)


@pytest.fixture(scope="module")
def reference():
    requests = _batch()
    return _dump(StatsEngine().evaluate(requests[0].key, requests))


@pytest.mark.parametrize("jobs, backend", [
    (2, "shm"), (3, None), (2, "serial"),
])
@pytest.mark.usefixtures("pool_always")
def test_sharded_sweep_matches_in_process(reference, jobs, backend):
    requests = _batch()
    engine = StatsEngine(jobs=jobs, backend=backend)
    assert _dump(engine.evaluate(requests[0].key, requests)) == reference


@pytest.mark.usefixtures("pool_always")
def test_shm_sweep_publishes_through_the_workspace():
    requests = _batch()
    published = counter("parallel_shm_publish_total").value
    fellback = counter("parallel_shm_fallback_total").value
    StatsEngine(jobs=2, backend="shm").evaluate(requests[0].key, requests)
    assert counter("parallel_shm_publish_total").value > published
    assert counter("parallel_shm_fallback_total").value == fellback


def test_small_batch_stays_in_process():
    requests = _batch("tree25", rows=(300, 50))
    published = counter("parallel_shm_publish_total").value
    kept = counter("parallel_in_process_total").labels(run="serve.sweep")
    before = kept.value
    with tracing() as tracer:
        responses = StatsEngine(jobs=2, backend="shm").evaluate(
            requests[0].key, requests)
        assert tracer.find("serve.sweep") == []
        (batch,) = tracer.find("serve.batch")
    assert batch.attributes["pool"] is False
    assert 0.0 < batch.attributes["estimate_ms"] < executor._POOL_MIN_MS
    assert kept.value == before + 1
    assert counter("parallel_shm_publish_total").value == published
    assert _dump(responses) == _dump(
        StatsEngine().evaluate(requests[0].key, requests))


@pytest.mark.usefixtures("pool_always")
def test_shard_plan_reads_the_row_count_alone():
    requests = _batch()
    shards = {}
    for jobs in (2, 3):
        with tracing() as tracer:
            StatsEngine(jobs=jobs).evaluate(requests[0].key, requests)
            (sweep,) = tracer.find("serve.sweep")
        shards[jobs] = sweep.attributes["shards"]
    assert shards[2] == shards[3] > 1


@pytest.mark.usefixtures("pool_always")
def test_recycled_sweep_retires_the_engine_topologies():
    server = ReproServer(ServeConfig(port=0, jobs=2, backend="shm"))
    try:
        requests = _batch()
        key = requests[0].key
        server.engine.evaluate(key, requests)
        before = list(server.engine._topologies.values())
        assert before
        server._recycle_stuck_batch(key)
        assert not server.engine._topologies
        server.engine.evaluate(key, requests)
        after = list(server.engine._topologies.values())
        assert after
        assert not {id(t) for t in before} & {id(t) for t in after}
    finally:
        server._sweep_executor.shutdown(wait=True)
        server._aux_executor.shutdown(wait=True)


@pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="no /dev/shm")
@pytest.mark.usefixtures("pool_always")
def test_published_segments_stay_bounded():
    """A 2000-level chain publishes as many blocks as a shallow tree,
    and only the newest few topologies stay published."""
    requests = _batch("balanced:2000x1", rows=(250, 20))
    engine = StatsEngine(jobs=2, backend="shm")
    engine.evaluate("chain", requests)
    assert len(_own_segments()) == WORKSPACE_BLOCKS
    for k in range(MAX_PUBLISHED_WORKSPACES + 2):
        # A new key compiles a new topology, and with it a new workspace.
        engine.evaluate(f"chain-{k}", requests)
        assert len(_own_segments()) <= \
            MAX_PUBLISHED_WORKSPACES * WORKSPACE_BLOCKS


@pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="no /dev/shm")
@pytest.mark.usefixtures("pool_always")
def test_failed_topology_publication_leaves_no_segment():
    requests = _batch("balanced:2000x1", rows=(250, 20))
    reference = _dump(StatsEngine().evaluate("chain", requests))
    fellback = counter("parallel_shm_fallback_total").value
    # The topology's second block fails after its first was created.
    install_faults("shm.publish:after=1")
    try:
        responses = StatsEngine(jobs=2, backend="shm").evaluate(
            "chain", requests)
    finally:
        clear_faults()
    assert _own_segments() == []
    assert counter("parallel_shm_fallback_total").value == fellback + 1
    assert _dump(responses) == reference
