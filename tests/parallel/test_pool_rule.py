"""The one in-process-or-pool rule of the sharded ops
(``repro.parallel.use_pool``).

An op whose estimated in-process work is below the measured threshold
runs its shard task in process whatever ``jobs`` allows, and says so on
its span and in ``parallel_in_process_total``; a bigger op fans out on
the warm pool as before, and ``backend="serial"`` is unchanged.  The
rule moves no output bit.
"""

import numpy as np
import pytest

import repro.parallel.executor as executor
from repro.circuit import balanced_tree
from repro.core.variation import VariationModel, monte_carlo_delay_matrix
from repro.obs.metrics import counter
from repro.obs.trace import tracing
from repro.parallel import use_pool
from repro.parallel.shm import shm_available
from repro.sta import DELAY_MODELS, analyze, timing
from repro.sta.ssta import ProcessModel, analyze_ssta
from repro.workloads import random_design

needs_shm = pytest.mark.skipif(
    not shm_available(), reason="no shared-memory support on this host"
)

SHM2 = {"jobs": 2, "backend": "shm"}


class _Span:
    """Records the attributes the rule sets."""

    def __init__(self):
        self.attributes = {}

    def set_attribute(self, key, value):
        self.attributes[key] = value


def _kept(label):
    return counter("parallel_in_process_total").labels(run=label).value


def _state(label):
    """Shards run, pool forks and ops the rule kept in process."""
    return (counter("parallel_shards_total").value,
            counter("parallel_pool_forks_total").value, _kept(label))


def _same_timing(a, b):
    assert a.arrival == b.arrival
    assert a.slew == b.slew
    assert a.wire_delay == b.wire_delay
    assert a.critical_delay == b.critical_delay


class TestRule:
    @pytest.mark.parametrize("jobs, backend, shards", [
        (None, None, 6), (1, "shm", 6), (2, "serial", 6), (2, "shm", 1),
    ])
    def test_jobs_and_backend_decide_first(self, jobs, backend, shards):
        span, before = _Span(), _kept("test.run")
        assert use_pool("test.run", 0.0, jobs, backend, shards,
                        span) is None
        assert span.attributes == {}
        assert _kept("test.run") == before

    def test_small_estimate_stays_in_process(self):
        span, before = _Span(), _kept("test.run")
        total = counter("parallel_in_process_total").value
        estimate = executor._POOL_MIN_MS / 2
        assert use_pool("test.run", estimate, 2, None, 6, span) is False
        assert span.attributes == {"pool": False, "estimate_ms": estimate}
        assert _kept("test.run") == before + 1
        assert counter("parallel_in_process_total").value == total + 1

    def test_big_estimate_uses_the_pool(self):
        span, before = _Span(), _kept("test.run")
        estimate = executor._POOL_MIN_MS
        assert use_pool("test.run", estimate, 3, "shm", 6, span) is True
        assert span.attributes == {"pool": True, "estimate_ms": estimate}
        assert _kept("test.run") == before

    def test_every_delay_model_has_a_cost(self):
        assert set(timing._SINK_US) == set(DELAY_MODELS)


@needs_shm
class TestOps:
    def test_small_elmore_analyze_stays_in_process(self):
        design = random_design(20, 50, seed=1)
        before = _state("sta.parallel_run")
        with tracing() as tracer:
            result = analyze(design, **SHM2)
        shards, forks, kept = _state("sta.parallel_run")
        assert (shards, forks) == before[:2]
        assert kept == before[2] + 1
        (precompute,) = tracer.find("sta.forest_precompute")
        assert precompute.attributes["pool"] is False
        assert 0.0 < precompute.attributes["estimate_ms"] \
            < executor._POOL_MIN_MS
        assert tracer.find("sta.parallel_run") == []
        _same_timing(result, analyze(random_design(20, 50, seed=1)))
        # Warm, the design's cached forest is swept in process again.
        _same_timing(analyze(design, **SHM2), result)
        assert _state("sta.parallel_run")[:2] == before[:2]

    def test_exact_at_the_same_size_shards(self):
        design = random_design(20, 50, seed=1)
        before = _state("sta.parallel_run")
        result = analyze(design, "exact", **SHM2)
        shards, forks, kept = _state("sta.parallel_run")
        assert shards - before[0] >= 2
        assert forks > before[1]
        assert kept == before[2]
        assert result.critical_delay == \
            analyze(random_design(20, 50, seed=1), "exact").critical_delay

    def test_e2e_monte_carlo_op_shards(self):
        tree = balanced_tree(10, 2, 25.0, 8e-15, driver_resistance=120.0,
                             leaf_load=4e-15)
        model = VariationModel(0.1, 0.1)
        before = _state("variation.parallel_run")
        pooled = monte_carlo_delay_matrix(tree, model, 2000, seed=3,
                                          **SHM2)
        shards, forks, kept = _state("variation.parallel_run")
        assert shards - before[0] >= 2
        assert forks > before[1]
        assert kept == before[2]
        np.testing.assert_array_equal(
            pooled, monte_carlo_delay_matrix(tree, model, 2000, seed=3))

    def test_serial_backend_is_unchanged(self):
        design = random_design(20, 50, seed=1)
        before = _state("sta.parallel_run")
        result = analyze(design, jobs=2, backend="serial")
        shards, forks, kept = _state("sta.parallel_run")
        assert shards - before[0] == len(timing._net_plan(len(design.nets)))
        assert (forks, kept) == before[1:]
        _same_timing(result, analyze(design))

    def test_journaled_run_keeps_its_plan_in_process(self, tmp_path):
        design = random_design(20, 50, seed=1)
        before = _state("sta.parallel_run")
        result = analyze(design, checkpoint_path=str(tmp_path / "j"),
                         **SHM2)
        shards, forks, kept = _state("sta.parallel_run")
        assert shards - before[0] == len(timing._net_plan(len(design.nets)))
        assert forks == before[1]
        assert kept == before[2] + 1
        _same_timing(result, analyze(design))

    def test_small_ssta_stays_in_process(self):
        model = ProcessModel(VariationModel(0.08, 0.08), rho_r=0.5,
                             rho_c=0.5, cell_sigma=0.05, rho_cell=0.5)
        design = random_design(8, 40, seed=1)
        before = _state("sta.parallel_run")
        report = analyze_ssta(design, model, **SHM2)
        assert _state("sta.parallel_run") == \
            (before[0], before[1], before[2] + 1)
        reference = analyze_ssta(random_design(8, 40, seed=1), model)
        assert (report.critical.mu, report.critical.sigma) == \
            (reference.critical.mu, reference.critical.sigma)
