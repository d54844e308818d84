"""The coalescing queue: batching, back-pressure, deadlines, faults.

The batcher is asyncio code; each test runs its scenario to completion
through ``asyncio.run`` so the suite stays free of event-loop plugins.
"""

import asyncio
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.serve.batcher import (
    Batcher,
    DeadlineExpiredError,
    DrainingError,
    QueueFullError,
)


_PARENT = os.getpid()


def _die_in_worker(x):
    """Kill the hosting pool worker; behave when run in the parent
    (the ``_PARENT`` pid trick from ``tests/parallel``)."""
    if os.getpid() != _PARENT:
        os._exit(1)
    return x + 100


class RecordingEvaluator:
    """Counts batches; optionally blocks or fails on command."""

    def __init__(self, delay=0.0, gate=None):
        self.batches = []
        self.delay = delay
        self.gate = gate  # threading.Event the evaluation waits on
        self.fail_keys = set()

    def __call__(self, key, requests):
        self.batches.append((key, list(requests)))
        if self.gate is not None:
            assert self.gate.wait(timeout=10.0)
        if self.delay:
            time.sleep(self.delay)
        if key in self.fail_keys:
            raise RuntimeError(f"injected failure for {key}")
        return [f"{key}:{request}" for request in requests]


def run_batcher(coro_factory, **batcher_kwargs):
    """Drive one batcher scenario to completion on a fresh loop."""

    async def main():
        evaluator = batcher_kwargs.pop("evaluator", RecordingEvaluator())
        with ThreadPoolExecutor(max_workers=1) as executor:
            batcher = Batcher(evaluator, executor=executor,
                              **batcher_kwargs)
            try:
                return await coro_factory(batcher, evaluator)
            finally:
                batcher.close()
                await batcher.drain(timeout=10.0)

    return asyncio.run(main())


class TestCoalescing:
    def test_concurrent_same_key_requests_share_one_batch(self):
        async def scenario(batcher, evaluator):
            results = await asyncio.gather(*[
                batcher.submit("k", f"r{i}") for i in range(6)
            ])
            assert results == [f"k:r{i}" for i in range(6)]
            return batcher.stats

        stats = run_batcher(scenario, window=0.02)
        assert stats.submitted == 6
        assert stats.batches == 1
        assert stats.max_batch_size == 6
        assert stats.coalesced == 5

    def test_different_keys_never_share_a_batch(self):
        async def scenario(batcher, evaluator):
            await asyncio.gather(
                batcher.submit("a", "r0"), batcher.submit("b", "r1")
            )
            return evaluator.batches

        batches = run_batcher(scenario, window=0.02)
        assert sorted(key for key, _ in batches) == ["a", "b"]

    def test_requests_arriving_mid_sweep_form_the_next_batch(self):
        gate = threading.Event()

        async def scenario(batcher, evaluator):
            first = asyncio.ensure_future(batcher.submit("k", "r0"))
            while not evaluator.batches:  # sweep 1 is now blocked
                await asyncio.sleep(0.005)
            laters = [
                asyncio.ensure_future(batcher.submit("k", f"r{i}"))
                for i in (1, 2, 3)
            ]
            await asyncio.sleep(0.02)
            gate.set()
            await asyncio.gather(first, *laters)
            return evaluator.batches

        batches = run_batcher(
            scenario, window=0.0,
            evaluator=RecordingEvaluator(gate=gate),
        )
        assert [len(requests) for _, requests in batches] == [1, 3]

    def test_coalesce_off_dispatches_singleton_batches(self):
        async def scenario(batcher, evaluator):
            await asyncio.gather(*[
                batcher.submit("k", f"r{i}") for i in range(4)
            ])
            return batcher.stats

        stats = run_batcher(scenario, window=0.02, coalesce=False)
        assert stats.batches == 4
        assert stats.coalesced == 0
        assert stats.max_batch_size == 1

    def test_results_keep_request_order_within_a_batch(self):
        async def scenario(batcher, evaluator):
            results = await asyncio.gather(*[
                batcher.submit("k", i) for i in range(10)
            ])
            assert results == [f"k:{i}" for i in range(10)]

        run_batcher(scenario, window=0.02)


class TestBackpressure:
    def test_queue_full_raises_429_error(self):
        gate = threading.Event()

        async def scenario(batcher, evaluator):
            blocker = asyncio.ensure_future(batcher.submit("k", "r0"))
            while not evaluator.batches:
                await asyncio.sleep(0.005)
            fillers = [
                asyncio.ensure_future(batcher.submit("k", f"r{i}"))
                for i in (1, 2)
            ]
            await asyncio.sleep(0)
            with pytest.raises(QueueFullError):
                await batcher.submit("k", "overflow")
            gate.set()
            await asyncio.gather(blocker, *fillers)
            return batcher.stats

        stats = run_batcher(
            scenario, window=0.0, max_queue=2,
            evaluator=RecordingEvaluator(gate=gate),
        )
        assert stats.rejected == 1

    def test_closed_batcher_rejects_with_draining_error(self):
        async def scenario(batcher, evaluator):
            batcher.close()
            with pytest.raises(DrainingError):
                await batcher.submit("k", "r0")

        run_batcher(scenario)


class TestDeadlines:
    def test_expired_request_fails_without_poisoning_the_batch(self):
        gate = threading.Event()

        async def scenario(batcher, evaluator):
            blocker = asyncio.ensure_future(batcher.submit("k", "r0"))
            while not evaluator.batches:
                await asyncio.sleep(0.005)
            # Queued behind the in-flight sweep with a deadline that
            # expires before the sweep finishes ...
            doomed = asyncio.ensure_future(
                batcher.submit("k", "doomed", timeout=0.01)
            )
            # ... while a patient companion shares the same batch.
            patient = asyncio.ensure_future(
                batcher.submit("k", "patient", timeout=30.0)
            )
            await asyncio.sleep(0.05)
            gate.set()
            with pytest.raises(DeadlineExpiredError):
                await doomed
            assert await patient == "k:patient"
            assert await blocker == "k:r0"
            return batcher.stats

        stats = run_batcher(
            scenario, window=0.0,
            evaluator=RecordingEvaluator(gate=gate),
        )
        assert stats.expired == 1
        # The doomed request never reached an evaluation batch.
        assert stats.batches == 2
        assert stats.max_batch_size == 1

    def test_cancelled_waiter_does_not_poison_the_batch(self):
        gate = threading.Event()

        async def scenario(batcher, evaluator):
            blocker = asyncio.ensure_future(batcher.submit("k", "r0"))
            while not evaluator.batches:
                await asyncio.sleep(0.005)
            quitter = asyncio.ensure_future(batcher.submit("k", "quit"))
            survivor = asyncio.ensure_future(batcher.submit("k", "ok"))
            await asyncio.sleep(0)
            quitter.cancel()
            gate.set()
            assert await survivor == "k:ok"
            assert await blocker == "k:r0"
            with pytest.raises(asyncio.CancelledError):
                await quitter

        run_batcher(
            scenario, window=0.0,
            evaluator=RecordingEvaluator(gate=gate),
        )


class TestFaultInjection:
    def test_evaluator_failure_fails_only_that_batch(self):
        async def scenario(batcher, evaluator):
            evaluator.fail_keys.add("bad")
            good, bad = await asyncio.gather(
                batcher.submit("good", "r0"),
                batcher.submit("bad", "r1"),
                return_exceptions=True,
            )
            assert good == "good:r0"
            assert isinstance(bad, RuntimeError)
            # The failed key recovers: the next batch sweeps normally.
            evaluator.fail_keys.clear()
            assert await batcher.submit("bad", "r2") == "bad:r2"
            return batcher.stats

        stats = run_batcher(scenario, window=0.01)
        assert stats.failed == 1

    def test_result_count_mismatch_is_an_error(self):
        def broken(key, requests):
            return ["only-one"]  # regardless of the batch size

        async def main():
            with ThreadPoolExecutor(max_workers=1) as executor:
                batcher = Batcher(broken, executor=executor,
                                  window=0.02)
                results = await asyncio.gather(
                    batcher.submit("k", "r0"),
                    batcher.submit("k", "r1"),
                    return_exceptions=True,
                )
                assert all("results" in str(r) for r in results)
                batcher.close()
                await batcher.drain(timeout=5.0)

        asyncio.run(main())

    def test_worker_kill_mid_batch_recycles_pool_batch_survives(self):
        """Kill a warm-pool worker mid-sweep: the sharded engine under
        the evaluator recycles the pool and degrades the affected
        shards to in-process execution, so the batch's requests all
        complete correctly — no other request is ever touched — and
        the next batch gets a fresh pool."""
        from repro.obs.metrics import counter
        from repro.parallel import run_sharded, shm_available

        if not shm_available():
            pytest.skip("no shared-memory support on this host")

        def sweeping_evaluate(key, requests):
            values = run_sharded(
                _die_in_worker, list(requests), jobs=2, retries=1,
                backend="shm",
            )
            return [f"{key}:{value}" for value in values]

        recycles_before = counter("parallel_pool_recycles_total").value

        async def main():
            with ThreadPoolExecutor(max_workers=1) as executor:
                batcher = Batcher(sweeping_evaluate, executor=executor,
                                  window=0.02)
                results = await asyncio.gather(
                    batcher.submit("k", 1), batcher.submit("k", 2),
                )
                assert results == ["k:101", "k:102"]
                batcher.close()
                assert await batcher.drain(timeout=10.0)
                return batcher.stats

        stats = asyncio.run(main())
        assert stats.failed == 0
        assert counter("parallel_pool_recycles_total").value > \
            recycles_before
        # Follow-up traffic sweeps normally on the recycled pool.
        assert run_sharded(_die_in_worker, [7], jobs=2, retries=1,
                           backend="shm") == [107]


class TestDrain:
    def test_drain_completes_inflight_work(self):
        async def scenario(batcher, evaluator):
            results = asyncio.gather(*[
                batcher.submit("k", f"r{i}") for i in range(3)
            ])
            await asyncio.sleep(0)  # let the submissions enqueue
            batcher.close()
            assert await batcher.drain(timeout=10.0)
            assert await results == [f"k:r{i}" for i in range(3)]

        run_batcher(scenario, window=0.01,
                    evaluator=RecordingEvaluator(delay=0.02))

    def test_drain_timeout_fails_stragglers(self):
        gate = threading.Event()

        async def scenario(batcher, evaluator):
            blocker = asyncio.ensure_future(batcher.submit("k", "r0"))
            while not evaluator.batches:
                await asyncio.sleep(0.005)
            queued = asyncio.ensure_future(batcher.submit("k", "late"))
            await asyncio.sleep(0)
            batcher.close()
            completed = await batcher.drain(timeout=0.01)
            assert not completed
            gate.set()
            # Both the queued and the interrupted in-flight request
            # surface the shutdown as DrainingError (HTTP 503), never
            # a bare cancellation.
            with pytest.raises(DrainingError):
                await queued
            with pytest.raises(DrainingError):
                await blocker

        run_batcher(
            scenario, window=0.0,
            evaluator=RecordingEvaluator(gate=gate),
        )
