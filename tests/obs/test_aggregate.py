"""Cross-process span/metric aggregation (repro.obs.aggregate).

The fault-path tests reuse the fork-inheritance idiom from
``tests/parallel/test_executor``: a module-level ``_PARENT`` pid lets a
task die or hang only inside a pool worker, and a filesystem sentinel
makes the *first* attempt fail while the retry succeeds — which is what
the exactly-once merge contract is about.
"""

import os
import time

import numpy as np
import pytest

from repro.obs.aggregate import (
    ShardObsCapture,
    merge_worker_payload,
    registry_delta,
    span_from_dict,
)
from repro.obs.metrics import MetricsRegistry, counter, get_registry
from repro.obs.trace import Span, get_tracer, span, tracing
from repro.parallel import available_backends, run_sharded

_PARENT = os.getpid()

needs_shm = pytest.mark.skipif(
    "shm" not in available_backends(),
    reason="warm shm pool unavailable on this host",
)


# ---------------------------------------------------------------------------
# Module-level tasks (the warm pool pickles them by reference).

def _traced_increment(payload):
    """Inc a counter by the payload and record a span around it."""
    with span("aggtest.work", payload=payload):
        counter("aggtest_units_total", "units processed").inc(payload)
    return payload * 10


def _die_once_then_increment(payload):
    """First worker attempt: inc, then kill the worker (the delta must
    die with it).  Retry (and the parent): inc and return."""
    sentinel, amount = payload
    counter("aggtest_units_total", "units processed").inc(amount)
    if os.getpid() != _PARENT and not os.path.exists(sentinel):
        with open(sentinel, "w", encoding="utf-8") as handle:
            handle.write("died")
        os._exit(1)
    return amount


def _hang_once_then_increment(payload):
    """First worker attempt: inc, then hang past the test timeout."""
    sentinel, amount = payload
    counter("aggtest_units_total", "units processed").inc(amount)
    if os.getpid() != _PARENT and not os.path.exists(sentinel):
        with open(sentinel, "w", encoding="utf-8") as handle:
            handle.write("hung")
        time.sleep(60.0)
    return amount


# ---------------------------------------------------------------------------
# Worker half, in-process.

class TestShardObsCapture:
    def test_payload_shape_and_span_collection(self):
        with ShardObsCapture() as cap:
            with span("unit.outer", k=1):
                with span("unit.inner"):
                    pass
            counter("aggtest_capture_total", "t").inc(3)
        payload = cap.payload()
        assert payload["pid"] == os.getpid()
        names = [entry["name"] for entry in payload["spans"]]
        assert names == ["unit.outer"]
        assert payload["spans"][0]["children"][0]["name"] == "unit.inner"
        assert payload["counters"]["aggtest_capture_total"]["delta"] == 3.0

    def test_capture_disables_tracer_on_exit(self):
        tracer = get_tracer()
        tracer.disable()
        with ShardObsCapture():
            assert tracer.enabled
        assert not tracer.enabled
        assert tracer.to_dicts() == []

    def test_delta_ignores_preexisting_values(self):
        counter("aggtest_base_total", "t").inc(7)
        with ShardObsCapture() as cap:
            counter("aggtest_base_total", "t").inc(2)
        assert cap.payload()["counters"]["aggtest_base_total"]["delta"] \
            == 2.0


class TestRegistryDelta:
    def test_counter_gauge_histogram_deltas(self):
        reg = MetricsRegistry()
        c = reg.counter("d_total", "t")
        g = reg.gauge("d_gauge", "t")
        h = reg.histogram("d_seconds", "t", buckets=(1.0, 2.0))
        c.inc(2)
        g.set(5)
        h.observe(0.5)
        before = reg.to_dict()
        c.inc(3)
        g.set(9)
        h.observe(1.5)
        delta = registry_delta(before, reg.to_dict())
        assert delta["counters"]["d_total"]["delta"] == 3.0
        assert delta["gauges"]["d_gauge"]["value"] == 9.0
        hist = delta["histograms"]["d_seconds"]
        assert hist["count"] == 1
        assert hist["sum"] == pytest.approx(1.5)
        assert hist["bucket_counts"] == [0, 1, 0]

    def test_unchanged_metrics_are_omitted(self):
        reg = MetricsRegistry()
        reg.counter("d_total", "t").inc(2)
        reg.gauge("d_gauge", "t").set(1)
        snap = reg.to_dict()
        delta = registry_delta(snap, reg.to_dict())
        assert delta == {"counters": {}, "gauges": {}, "histograms": {}}


class TestSpanFromDict:
    def test_round_trip_tree(self):
        tracer = get_tracer()
        with tracing():
            with span("rt.root", a=1):
                with span("rt.child"):
                    pass
            dumped = tracer.to_dicts()
        rebuilt = span_from_dict(dumped[0])
        assert isinstance(rebuilt, Span)
        assert rebuilt.name == "rt.root"
        assert rebuilt.pid == os.getpid()
        assert rebuilt.attributes == {"a": 1}
        assert rebuilt.duration == pytest.approx(dumped[0]["duration"])
        assert rebuilt.children[0].name == "rt.child"
        assert rebuilt.children[0].seq == dumped[0]["children"][0]["seq"]


class TestMergeWorkerPayload:
    def test_merges_into_base_and_labeled_series(self):
        reg = get_registry()
        base_before = reg.counter("aggtest_merge_total", "t").value
        payload = {
            "pid": 4242, "worker_id": 9,
            "spans": [],
            "counters": {"aggtest_merge_total": {"help": "t",
                                                 "delta": 5.0}},
            "gauges": {}, "histograms": {},
        }
        merge_worker_payload(payload, shard=0, run_span=None)
        base = reg.counter("aggtest_merge_total", "t")
        assert base.value - base_before == 5.0
        labeled = {key: child.value
                   for key, child in base.label_series()}
        assert labeled[(("worker", "9"),)] >= 5.0

    def test_grafts_worker_subtree_under_run_span(self):
        tracer = get_tracer()
        with tracing():
            with span("merge.run") as run_span:
                payload = {
                    "pid": 777, "worker_id": 2,
                    "spans": [{"name": "w.work", "start": 10.0,
                               "duration": 0.5, "pid": 777, "seq": 0,
                               "attributes": {}, "children": []}],
                    "counters": {}, "gauges": {}, "histograms": {},
                }
                merge_worker_payload(payload, shard=3, run_span=run_span)
        workers = tracer.find("parallel.worker")
        assert len(workers) == 1
        wrapper = workers[0]
        assert wrapper.attributes == {"pid": 777, "worker_id": 2,
                                      "shard": 3}
        assert wrapper.pid == 777
        assert wrapper.children[0].name == "w.work"

    def test_none_payload_is_a_no_op(self):
        before = get_registry().counter(
            "parallel_worker_payloads_total").value
        merge_worker_payload(None, shard=0, run_span=None)
        after = get_registry().counter(
            "parallel_worker_payloads_total").value
        assert after == before


# ---------------------------------------------------------------------------
# End to end through the sharded engine.

@needs_shm
@pytest.mark.usefixtures("pool_always")
class TestSharded:
    def test_traced_run_merges_spans_and_counter_sums(self):
        reg = get_registry()
        tracer = get_tracer()
        payloads = [1, 2, 3, 4]
        base_before = reg.counter("aggtest_units_total").value
        with tracing():
            out = run_sharded(_traced_increment, payloads, jobs=2,
                              backend="shm")
        assert out == [10, 20, 30, 40]
        # Parent-side merged counter equals the sum of worker deltas.
        base = reg.counter("aggtest_units_total")
        assert base.value - base_before == float(sum(payloads))
        per_worker = sum(child.value
                         for _key, child in base.label_series())
        assert per_worker >= float(sum(payloads))
        # Worker span trees landed under parallel.run as tagged
        # parallel.worker subtrees.
        workers = tracer.find("parallel.worker")
        assert len(workers) == len(payloads)
        for wrapper in workers:
            assert wrapper.attributes["pid"] != os.getpid()
            assert wrapper.attributes["worker_id"] is not None
            assert wrapper.attributes["shard"] in range(len(payloads))
            assert [c.name for c in wrapper.children] == ["aggtest.work"]
        run_root = tracer.find("parallel.run")[0]
        assert all(w in run_root.children for w in workers)
        # The pool round trip is attributed on the run span: submitting
        # every shard, then waiting for the first result, within its wall;
        # the parent's blocked wait; each shard's submit-to-start queueing.
        wall = run_root.duration * 1e3
        submit = run_root.attributes["submit_ms"]
        first = run_root.attributes["first_result_ms"]
        assert 0.0 <= submit <= first <= wall
        assert 0.0 <= run_root.attributes["wait_ms"] <= wall
        for wrapper in workers:
            assert 0.0 <= wrapper.attributes["queue_ms"] <= wall

    def test_disabled_tracing_ships_no_payloads(self):
        reg = get_registry()
        get_tracer().disable()
        merged_before = reg.counter("parallel_worker_payloads_total").value
        out = run_sharded(_square_like, [3, 5], jobs=2, backend="shm")
        assert out == [9, 25]
        assert reg.counter("parallel_worker_payloads_total").value \
            == merged_before

    def test_disabled_path_stays_bit_identical(self):
        from repro.circuit import rc_line
        from repro.core.variation import (
            VariationModel,
            monte_carlo_delay_matrix,
        )

        get_tracer().disable()
        tree = rc_line(32, 1e-3, 1e-15)
        model = VariationModel(resistance_sigma=0.1,
                               capacitance_sigma=0.05)
        serial = monte_carlo_delay_matrix(
            tree, model, 600, seed=11, jobs=1, shard_size=150
        )
        pooled = monte_carlo_delay_matrix(
            tree, model, 600, seed=11, jobs=2, shard_size=150,
            backend="shm",
        )
        assert np.array_equal(serial, pooled)
        with tracing():
            traced = monte_carlo_delay_matrix(
                tree, model, 600, seed=11, jobs=2, shard_size=150,
                backend="shm",
            )
        assert np.array_equal(serial, traced)

    # Two payloads, so min(jobs, shards) == 2 and the run really goes
    # to the pool: one payload would collapse to the serial backend and
    # never reach a worker.
    def test_killed_worker_retry_merges_exactly_once(self, tmp_path):
        reg = get_registry()
        base_before = reg.counter("aggtest_units_total").value
        retries_before = reg.counter("parallel_retries_total").value
        sentinel = tmp_path / "died-once"
        with tracing():
            out = run_sharded(
                _die_once_then_increment,
                [(str(sentinel), 4), (str(sentinel), 3)], jobs=2,
                backend="shm", retries=2,
            )
        assert out == [4, 3]
        assert sentinel.exists()
        assert reg.counter("parallel_retries_total").value > retries_before
        # The first attempt inc'd and died before shipping a payload;
        # only accepted attempts merge: exactly one delta per shard.
        assert reg.counter("aggtest_units_total").value \
            - base_before == 7.0

    def test_hung_worker_retry_merges_exactly_once(self, tmp_path):
        reg = get_registry()
        base_before = reg.counter("aggtest_units_total").value
        retries_before = reg.counter("parallel_retries_total").value
        sentinel = tmp_path / "hung-once"
        with tracing():
            out = run_sharded(
                _hang_once_then_increment,
                [(str(sentinel), 7), (str(sentinel), 5)], jobs=2,
                backend="shm", timeout=2.0, retries=2,
            )
        assert out == [7, 5]
        assert sentinel.exists()
        assert reg.counter("parallel_retries_total").value > retries_before
        assert reg.counter("aggtest_units_total").value \
            - base_before == 12.0


def _square_like(x):
    return x * x
