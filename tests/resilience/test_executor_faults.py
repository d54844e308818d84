"""Every injectable fault point drives its recovery path.

Worker-side faults (kill/hang/malformed) exploit fork inheritance: each
freshly forked worker inherits the armed schedule's *unfired* state, so
a ``times=1`` rule re-fires in every new worker, retries exhaust, and
degrade-to-serial is the deterministic recovery rung these tests pin.
Whatever the injected failure, the results must equal the serial
reference bit for bit.
"""

import numpy as np
import pytest

from repro.circuit.rctree import RCTree
from repro.core.variation import VariationModel, monte_carlo_delay_matrix
from repro.obs.metrics import counter, histogram
from repro.parallel import available_backends, run_sharded
from repro.parallel.executor import _retry_backoff_delay
from repro.resilience.faults import install_faults

needs_shm = pytest.mark.skipif(
    "shm" not in available_backends(),
    reason="no shared-memory backend on this host",
)


def _double(x):
    return 2 * x


def chain_tree(n=6):
    tree = RCTree("n0")
    for i in range(1, n):
        tree.add_node(f"n{i}", f"n{i - 1}", 1.0, 1.0)
    return tree


PAYLOADS = list(range(4))
EXPECTED = [_double(x) for x in PAYLOADS]


class TestWorkerFaults:
    @needs_shm
    def test_worker_kill_degrades_to_serial_with_correct_results(self):
        degraded = counter("parallel_degraded_total")
        backoff = histogram("parallel_retry_backoff_seconds")
        d0, b0 = degraded.value, backoff.count
        install_faults("worker.kill")
        out = run_sharded(_double, PAYLOADS, jobs=2, backend="shm",
                          retries=1)
        assert out == EXPECTED
        assert degraded.value >= d0 + len(PAYLOADS)
        # A retry wave ran, so the deterministic backoff was observed.
        assert backoff.count > b0

    @needs_shm
    def test_worker_hang_times_out_then_degrades(self):
        timeouts = counter("parallel_timeouts_total")
        t0 = timeouts.value
        install_faults("worker.hang:delay=5")
        out = run_sharded(_double, PAYLOADS, jobs=2, backend="shm",
                          timeout=0.3, retries=0)
        assert out == EXPECTED
        assert timeouts.value > t0

    @needs_shm
    def test_malformed_result_rejected_then_degrades(self):
        malformed = counter("parallel_malformed_results_total")
        m0 = malformed.value
        install_faults("result.malformed:times=inf")
        out = run_sharded(_double, PAYLOADS, jobs=2, backend="shm",
                          retries=0)
        assert out == EXPECTED
        assert malformed.value >= m0 + len(PAYLOADS)

    @needs_shm
    def test_pool_fork_refusal_degrades_every_shard(self):
        degraded = counter("parallel_degraded_total")
        injected = counter("resilience_faults_injected_total")
        d0, i0 = degraded.value, injected.value
        install_faults("pool.fork")
        out = run_sharded(_double, PAYLOADS, jobs=2, backend="shm",
                          retries=1)
        assert out == EXPECTED
        assert degraded.value == d0 + len(PAYLOADS)
        assert injected.value > i0  # fired parent-side, so visible here

    def test_shard_slow_on_serial_backend_changes_nothing(self):
        schedule = install_faults("shard.slow:times=inf,delay=0")
        out = run_sharded(_double, PAYLOADS, backend="serial")
        assert out == EXPECTED
        assert schedule.fired("shard.slow") == len(PAYLOADS)


class TestShmFaults:
    """shm transport faults make the Monte-Carlo path fall back
    (shm -> serial) and still return the same bits."""

    def _mc(self, **kwargs):
        return monte_carlo_delay_matrix(
            chain_tree(), VariationModel(0.1, 0.1), samples=40, seed=3,
            **kwargs,
        )

    @pytest.fixture()
    def reference(self):
        return self._mc(backend="serial")

    @needs_shm
    @pytest.mark.parametrize("point", ["shm.publish", "shm.attach",
                                       "shm.unlink"])
    def test_shm_fault_falls_back_bit_identically(self, point, reference):
        fallback = counter("parallel_shm_fallback_total")
        f0 = fallback.value
        install_faults(point)
        out = self._mc(backend="shm")
        assert fallback.value > f0
        assert np.array_equal(out, reference)

    @needs_shm
    def test_shm_without_faults_matches_serial(self, reference):
        out = self._mc(backend="shm")
        assert np.array_equal(out, reference)


class TestRetryBackoff:
    def test_backoff_is_deterministic(self):
        a = _retry_backoff_delay(0.05, 1, "verify.parallel_run")
        b = _retry_backoff_delay(0.05, 1, "verify.parallel_run")
        assert a == b

    def test_backoff_doubles_per_wave_with_bounded_jitter(self):
        for wave in (1, 2, 3):
            delay = _retry_backoff_delay(0.05, wave, "label")
            base = 0.05 * 2.0 ** (wave - 1)
            assert base <= delay <= 2.0 * base

    def test_backoff_caps_at_two_seconds(self):
        assert _retry_backoff_delay(0.05, 50, "label") == 2.0

    def test_labels_desynchronize(self):
        assert _retry_backoff_delay(0.05, 1, "a") != \
            _retry_backoff_delay(0.05, 1, "b")
