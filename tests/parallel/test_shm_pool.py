"""Fault injection for the warm pool and the shm backend.

Each scenario exercises one failure the transport must survive without
failing the run or leaking a segment:

* a worker killed mid-call — the wave retries on recycled workers and
  degrades to in-process execution when retries run out;
* a shard hung past its timeout — counted, recycled, degraded;
* a segment unlinked under the workers — the attach raises
  :class:`ShmError` in the worker, the workload layer reruns the sweep
  serially, and the results are still bit-identical.

The ``_PARENT`` pid trick mirrors ``test_executor.py``: fork-context
workers inherit this module's globals, so a task can misbehave only
when it runs in a pool worker and succeed when run inline.
"""

import os
import time

import numpy as np
import pytest

from repro.circuit import balanced_tree
from repro.core import variation
from repro.core.variation import VariationModel, monte_carlo_delay_matrix
from repro.obs.metrics import counter
from repro.parallel import (
    WarmPool,
    get_warm_pool,
    lease_warm_pool,
    run_sharded,
    shm_available,
    shutdown_warm_pool,
)
from repro.parallel.shm import active_segment_names

pytestmark = pytest.mark.skipif(
    not shm_available(), reason="no shared-memory support on this host"
)

_PARENT = os.getpid()


def _square(x):
    return x * x


def _die_in_worker(x):
    if os.getpid() != _PARENT:
        os._exit(1)
    return x + 100


def _hang_in_worker(payload):
    duration, value = payload
    if os.getpid() != _PARENT:
        time.sleep(duration)
    return value


#: The genuine shard task, captured before any test patches the module
#: global (the wrappers below must not recurse into themselves when a
#: forked child inherits the patched module state).
_REAL_MC_TASK = variation._mc_shard_task


def _dying_mc_task(payload):
    """Kill the hosting worker; run the real shard task in the parent."""
    if os.getpid() != _PARENT:
        os._exit(1)
    return _REAL_MC_TASK(payload)


def _hanging_mc_task(payload):
    """Hang in a worker; run the real shard task in the parent."""
    if os.getpid() != _PARENT:
        time.sleep(30.0)
    return _REAL_MC_TASK(payload)


def _tree():
    return balanced_tree(4, 2, 25.0, 8e-15, driver_resistance=120.0,
                         leaf_load=4e-15)


MODEL = VariationModel(resistance_sigma=0.1, capacitance_sigma=0.08)


class TestWarmPool:
    def test_fork_once_then_reuse(self):
        forks_before = counter("parallel_pool_forks_total").value
        reuses_before = counter("parallel_pool_reuses_total").value
        out1 = run_sharded(_square, [1, 2, 3, 4], jobs=2, backend="shm")
        out2 = run_sharded(_square, [5, 6, 7, 8], jobs=2, backend="shm")
        assert out1 == [1, 4, 9, 16]
        assert out2 == [25, 36, 49, 64]
        assert counter("parallel_pool_forks_total").value == \
            forks_before + 1
        assert counter("parallel_pool_reuses_total").value > reuses_before

    def test_resize_recycles_workers(self):
        pool2 = get_warm_pool(2)
        pool2.executor()
        assert pool2.is_warm
        pool3 = get_warm_pool(3)
        assert pool3 is not pool2
        assert not pool2.is_warm  # old workers were torn down
        shutdown_warm_pool()

    def test_shutdown_is_idempotent(self):
        pool = WarmPool(jobs=2)
        pool.executor()
        pool.shutdown()
        pool.shutdown()
        assert not pool.is_warm

    def test_killed_worker_recycles_then_degrades(self):
        recycles_before = counter("parallel_pool_recycles_total").value
        degraded_before = counter("parallel_degraded_total").value
        out = run_sharded(
            _die_in_worker, [1, 2, 3], jobs=2, retries=1, backend="shm"
        )
        assert out == [101, 102, 103]
        assert counter("parallel_pool_recycles_total").value > \
            recycles_before
        assert counter("parallel_degraded_total").value >= \
            degraded_before + 3

    def test_hung_worker_times_out_recycles_then_degrades(self):
        timeouts_before = counter("parallel_timeouts_total").value
        recycles_before = counter("parallel_pool_recycles_total").value
        start = time.perf_counter()
        out = run_sharded(
            _hang_in_worker, [(30.0, "a"), (30.0, "b")],
            jobs=2, timeout=0.5, retries=1, backend="shm",
        )
        assert out == ["a", "b"]
        assert time.perf_counter() - start < 20.0
        assert counter("parallel_timeouts_total").value > timeouts_before
        assert counter("parallel_pool_recycles_total").value > \
            recycles_before

    def test_next_run_after_failure_forks_fresh_workers(self):
        run_sharded(_die_in_worker, [1, 2], jobs=2, retries=0,
                    backend="shm")
        forks_before = counter("parallel_pool_forks_total").value
        assert run_sharded(_square, [2, 3], jobs=2, backend="shm") == \
            [4, 9]
        assert counter("parallel_pool_forks_total").value == \
            forks_before + 1

    def test_resize_with_lease_in_flight_keeps_old_pool_serving(self):
        """A resize must never yank workers from under a running wave:
        the leased pool keeps serving, and its last lease release (not
        the resize) performs the teardown."""
        pool2 = lease_warm_pool(2)
        pool2.executor()
        assert pool2.is_warm and pool2.leases == 1
        pool3 = get_warm_pool(3)  # concurrent run asks for a resize
        assert pool3 is not pool2
        assert pool2.is_warm  # in-flight run still has its workers
        # The old pool still *works* while leased-and-retired.
        assert pool2.executor().submit(_square, 5).result() == 25
        pool2.release_lease()  # last lease -> deferred teardown fires
        assert not pool2.is_warm
        shutdown_warm_pool()

    def test_shutdown_warm_pool_sweeps_leased_orphans(self):
        """shutdown_warm_pool (and hence atexit) must terminate retired
        pools whose leases were never released — no leaked workers."""
        pool2 = lease_warm_pool(2)
        pool2.executor()
        get_warm_pool(3)  # orphans pool2 (lease still held)
        shutdown_warm_pool()
        assert not pool2.is_warm
        pool2.release_lease()  # late release on a swept pool is benign
        assert not pool2.is_warm


class TestShmWorkloadFaults:
    def test_kill_worker_mid_call_still_bit_identical(self):
        """Workers dying under the shm Monte-Carlo sweep degrade the
        shards to in-process execution without changing a bit."""
        tree = _tree()
        serial = monte_carlo_delay_matrix(tree, MODEL, 60, seed=3)
        degraded_before = counter("parallel_degraded_total").value

        variation._mc_shard_task = _dying_mc_task
        try:
            out = monte_carlo_delay_matrix(
                tree, MODEL, 60, seed=3, jobs=2, retries=0,
                backend="shm",
            )
        finally:
            variation._mc_shard_task = _REAL_MC_TASK
        np.testing.assert_array_equal(out, serial)
        assert counter("parallel_degraded_total").value > degraded_before

    def test_unlink_under_worker_falls_back_to_serial(self):
        """Yanking the segments between publish and evaluation makes
        fresh workers raise ShmError on attach; the workload layer
        counts a fallback, reruns serially, and the result stays
        bit-identical."""
        tree = _tree()
        serial = monte_carlo_delay_matrix(tree, MODEL, 60, seed=5)
        out1 = monte_carlo_delay_matrix(
            tree, MODEL, 60, seed=5, jobs=2, backend="shm"
        )
        np.testing.assert_array_equal(out1, serial)

        # Cold workers (the warm attachments die with the old pool),
        # then unlink every published segment behind the workspace's
        # back — exactly what a hostile tmpwatch / namespace teardown
        # would do.
        shutdown_warm_pool()
        for name in active_segment_names():
            os.unlink(os.path.join("/dev/shm", name))
        fallbacks_before = counter("parallel_shm_fallback_total").value

        out2 = monte_carlo_delay_matrix(
            tree, MODEL, 60, seed=5, jobs=2, backend="shm"
        )
        np.testing.assert_array_equal(out2, serial)
        assert counter("parallel_shm_fallback_total").value == \
            fallbacks_before + 1

    def test_timeout_under_shm_sweep_still_bit_identical(self):
        tree = _tree()
        serial = monte_carlo_delay_matrix(tree, MODEL, 60, seed=9)
        timeouts_before = counter("parallel_timeouts_total").value

        variation._mc_shard_task = _hanging_mc_task
        try:
            out = monte_carlo_delay_matrix(
                tree, MODEL, 60, seed=9, jobs=2, timeout=0.5,
                retries=0, backend="shm",
            )
        finally:
            variation._mc_shard_task = _REAL_MC_TASK
        np.testing.assert_array_equal(out, serial)
        assert counter("parallel_timeouts_total").value > timeouts_before


class TestWarmRepublication:
    """Repeat shm sweeps on the *same* warm workers and workspace.

    Regression for the stale-attachment bug: changing ``samples``
    between calls resizes the shared ``out`` block; a warm worker (or
    the parent's own inline attach cache at ``jobs=1``) holding views
    of the old segment must re-attach, not silently write into a dead
    mapping while the parent reads the fresh uninitialized one.
    """

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_second_sweep_with_different_samples_stays_bit_identical(
        self, jobs
    ):
        tree = _tree()
        serial_small = monte_carlo_delay_matrix(tree, MODEL, 40, seed=11)
        serial_big = monte_carlo_delay_matrix(tree, MODEL, 90, seed=11)

        grown = monte_carlo_delay_matrix(
            tree, MODEL, 40, seed=11, jobs=jobs, backend="shm"
        )
        np.testing.assert_array_equal(grown, serial_small)
        # Same workspace, same warm workers, resized output block.
        regrown = monte_carlo_delay_matrix(
            tree, MODEL, 90, seed=11, jobs=jobs, backend="shm"
        )
        np.testing.assert_array_equal(regrown, serial_big)
        # And shrinking back reuses the warm path just as safely.
        shrunk = monte_carlo_delay_matrix(
            tree, MODEL, 40, seed=11, jobs=jobs, backend="shm"
        )
        np.testing.assert_array_equal(shrunk, serial_small)
