"""Executor semantics: ordering, validation, robustness, metrics.

The worker-failure tests use the fork start method's property that a
child inherits this module's ``_PARENT`` pid: a task can behave
differently in a pool worker (die / hang) than in the parent process,
which is exactly what the retry-then-degrade ladder must survive.
"""

import os
import time

import pytest

from repro._exceptions import ValidationError
from repro.obs.metrics import counter
from repro.parallel import (
    BACKENDS,
    available_backends,
    resolve_jobs,
    run_sharded,
)

_PARENT = os.getpid()


# ---------------------------------------------------------------------------
# Module-level tasks (the warm pool pickles them by reference).

def _square(x):
    return x * x


def _raise_value_error(x):
    raise ValueError(f"task bug on payload {x!r}")


def _die_in_worker(x):
    """Kill the hosting worker process; succeed in the parent."""
    if os.getpid() != _PARENT:
        os._exit(1)
    return x + 100


def _hang_in_worker(payload):
    """Sleep far past the test timeout in a worker; instant in parent."""
    duration, value = payload
    if os.getpid() != _PARENT:
        time.sleep(duration)
    return value


# ---------------------------------------------------------------------------

class TestResolveJobs:
    def test_serial_aliases(self):
        assert resolve_jobs(None) == 1
        assert resolve_jobs(0) == 1
        assert resolve_jobs(1) == 1

    def test_parallel_values_pass_through(self):
        assert resolve_jobs(2) == 2
        assert resolve_jobs(16) == 16

    def test_validation(self):
        for bad in (-1, 2.5, "4", True):
            with pytest.raises(ValidationError):
                resolve_jobs(bad)


def test_available_backends_always_has_serial():
    backends = available_backends()
    assert "serial" in backends
    # Linux CI always offers fork and /dev/shm.
    assert backends == ["serial", "shm"]


def test_removed_process_backend_is_rejected():
    assert BACKENDS == ("serial", "shm")
    with pytest.raises(ValidationError, match="'process'"):
        run_sharded(_square, [1, 2], jobs=2, backend="process")


class TestSerialBackend:
    def test_results_in_payload_order(self):
        assert run_sharded(_square, [3, 1, 2]) == [9, 1, 4]

    def test_empty_payloads(self):
        assert run_sharded(_square, []) == []

    def test_task_exception_propagates(self):
        with pytest.raises(ValueError, match="task bug"):
            run_sharded(_raise_value_error, [1])

    def test_counts_shards(self):
        before = counter("parallel_shards_total").value
        run_sharded(_square, [1, 2, 3], jobs=1)
        assert counter("parallel_shards_total").value == before + 3

    def test_validation(self):
        with pytest.raises(ValidationError):
            run_sharded(_square, [1], timeout=0.0)
        with pytest.raises(ValidationError):
            run_sharded(_square, [1], retries=-1)


class TestProcessBackend:
    """``jobs >= 2`` with the default backend runs on the warm pool."""

    def test_results_in_payload_order(self):
        assert run_sharded(_square, list(range(8)), jobs=2) == \
            [x * x for x in range(8)]

    def test_single_payload_collapses_to_serial(self):
        # min(jobs, len(payloads)) == 1 -> no pool is ever created, so
        # the task runs in the parent (where _die_in_worker succeeds).
        assert run_sharded(_die_in_worker, [1], jobs=4) == [101]

    def test_task_exception_propagates(self):
        # A genuine task bug fails the run; it is not retried into
        # oblivion or silently degraded away.
        with pytest.raises(ValueError, match="task bug"):
            run_sharded(_raise_value_error, [1, 2], jobs=2)

    def test_killed_worker_retries_then_degrades(self):
        """A shard whose worker dies is retried on a recycled pool, and
        once attempts are exhausted it degrades to in-process execution
        -- the run still succeeds, with results in order."""
        retries_before = counter("parallel_retries_total").value
        degraded_before = counter("parallel_degraded_total").value

        out = run_sharded(_die_in_worker, [1, 2, 3], jobs=2, retries=1)

        assert out == [101, 102, 103]
        assert counter("parallel_retries_total").value > retries_before
        assert counter("parallel_degraded_total").value >= \
            degraded_before + 3

    def test_hung_worker_times_out_then_degrades(self):
        """A shard hung in a worker trips the per-shard timeout, the
        pool is recycled, and after retries the shard completes
        in-process."""
        timeouts_before = counter("parallel_timeouts_total").value

        start = time.perf_counter()
        out = run_sharded(
            _hang_in_worker,
            [(30.0, "a"), (30.0, "b")],
            jobs=2, timeout=0.5, retries=1,
        )
        elapsed = time.perf_counter() - start

        assert out == ["a", "b"]
        assert counter("parallel_timeouts_total").value > timeouts_before
        # Two attempt waves at <= ~0.5 s each plus inline completion;
        # nowhere near the 30 s worker sleep.
        assert elapsed < 20.0

    def test_finished_sibling_is_accepted_after_a_timeout(self):
        """Once a shard times out, a sibling that already finished in
        its worker is accepted from there, not degraded and rerun."""
        run_sharded(_square, [1, 2], jobs=2)  # fork the warm pool first
        timeouts_before = counter("parallel_timeouts_total").value
        degraded_before = counter("parallel_degraded_total").value

        out = run_sharded(
            _hang_or_raise,
            [("hang", 30.0, "a"), ("ok", 0.0, "b")],
            jobs=2, timeout=0.5, retries=0,
        )

        assert out == ["a", "b"]
        assert counter("parallel_timeouts_total").value == \
            timeouts_before + 1
        assert counter("parallel_degraded_total").value == \
            degraded_before + 1

    def test_zero_retries_degrades_immediately(self):
        degraded_before = counter("parallel_degraded_total").value
        out = run_sharded(_die_in_worker, [5, 6], jobs=2, retries=0)
        assert out == [105, 106]
        assert counter("parallel_degraded_total").value == \
            degraded_before + 2

    def test_shard_histogram_records_durations(self):
        from repro.obs.metrics import histogram
        hist = histogram("parallel_shard_seconds")
        before = hist.count
        run_sharded(_square, list(range(4)), jobs=2)
        assert hist.count == before + 4


def _hang_or_raise(payload):
    """Hang in a worker for 'hang' payloads; raise for 'raise' ones."""
    kind, duration, value = payload
    if kind == "raise":
        raise ValueError(f"task bug on payload {value!r}")
    if os.getpid() != _PARENT:
        time.sleep(duration)
    return value


class TestTaskErrorsNeverRetry:
    """Deterministic task exceptions propagate on the FIRST raise.

    Regression for the retry path: only infrastructure failures
    (``BrokenProcessPool``, timeouts) may consume retry attempts; a bug
    in the task itself would fail identically on every attempt, so
    re-running it just multiplies the wasted work and buries the
    traceback under retry noise.
    """

    def test_task_error_not_retried(self):
        retries_before = counter("parallel_retries_total").value
        with pytest.raises(ValueError, match="task bug"):
            run_sharded(_raise_value_error, [1, 2, 3, 4], jobs=2,
                        retries=3)
        assert counter("parallel_retries_total").value == retries_before

    def test_task_error_beats_timeout_sweep(self):
        """A shard that hangs must not mask a sibling's genuine bug:
        the post-timeout sweep still propagates the task exception
        instead of retrying (and eventually degrading) it."""
        retries_before = counter("parallel_retries_total").value
        with pytest.raises(ValueError, match="task bug"):
            run_sharded(
                _hang_or_raise,
                [("hang", 30.0, "a"), ("raise", 0.0, "b")],
                jobs=2, timeout=0.5, retries=3,
            )
        assert counter("parallel_retries_total").value == retries_before

    def test_task_error_on_warm_pool_not_retried(self):
        retries_before = counter("parallel_retries_total").value
        with pytest.raises(ValueError, match="task bug"):
            run_sharded(_raise_value_error, [1, 2], jobs=2, retries=3,
                        backend="shm")
        assert counter("parallel_retries_total").value == retries_before
