"""Determinism gates: sharded results are bit-identical to serial.

The contract under test (docs/api.md, "Parallel backend"): the shard
plan is a pure function of the workload — never of the worker count —
and per-shard randomness comes from ``SeedSequence.spawn`` children, so
``jobs=1`` (serial backend) and any ``jobs>=2`` (warm pool) reduce to
the **same bits**, not merely statistically equivalent output.
"""

import numpy as np
import pytest

from repro.core.variation import (
    VariationModel,
    monte_carlo_delay_matrix,
    monte_carlo_elmore,
)
from repro.core.verification import verify_corpus, verify_tree
from repro.sta import analyze
from repro.workloads import fig1_tree, mixed_corpus, random_design

# Each test pins the pool against the serial reference, so small ops
# stay on the pool rather than in process.
pytestmark = pytest.mark.usefixtures("pool_always")

MODEL = VariationModel(resistance_sigma=0.1, capacitance_sigma=0.08)


class TestMonteCarloBitIdentity:
    def test_matrix_serial_vs_two_shards(self, fig1):
        a = monte_carlo_delay_matrix(fig1, MODEL, 257, seed=11, jobs=1)
        b = monte_carlo_delay_matrix(fig1, MODEL, 257, seed=11, jobs=2)
        assert a.shape == b.shape == (257, fig1.num_nodes)
        # Bitwise, not approximate: exact array equality.
        np.testing.assert_array_equal(a, b)

    def test_matrix_more_workers_than_shards(self, fig1):
        a = monte_carlo_delay_matrix(fig1, MODEL, 64, seed=3, jobs=1)
        b = monte_carlo_delay_matrix(fig1, MODEL, 64, seed=3, jobs=4)
        np.testing.assert_array_equal(a, b)

    def test_matrix_explicit_shard_size(self, fig1):
        # Same shard_size => same plan => same bits, for any jobs.
        a = monte_carlo_delay_matrix(
            fig1, MODEL, 100, seed=5, jobs=1, shard_size=17
        )
        b = monte_carlo_delay_matrix(
            fig1, MODEL, 100, seed=5, jobs=3, shard_size=17
        )
        np.testing.assert_array_equal(a, b)

    def test_method_parallel_single_node(self, fig1):
        node = fig1.node_names[-1]
        a = monte_carlo_elmore(
            fig1, node, MODEL, samples=123, seed=9, jobs=1,
        )
        b = monte_carlo_elmore(
            fig1, node, MODEL, samples=123, seed=9, jobs=2,
        )
        np.testing.assert_array_equal(a, b)


class TestVerificationEquality:
    def test_verify_tree_jobs_invariant(self, fig1):
        legacy = verify_tree(fig1, samples=801)
        serial = verify_tree(fig1, samples=801, jobs=1)
        sharded = verify_tree(fig1, samples=801, jobs=2)
        assert legacy == serial == sharded
        assert sharded.all_hold

    def test_verify_corpus_jobs_invariant(self):
        corpus = mixed_corpus(seed=7)[:4]
        serial = verify_corpus(corpus, samples=601, jobs=1)
        sharded = verify_corpus(corpus, samples=601, jobs=2)
        assert serial == sharded
        assert all(v.all_hold for v in serial)


class TestStaEquality:
    def test_arrival_and_slew_equal(self):
        design = random_design(layers=3, width=5, seed=3)
        whole = analyze(design)
        sharded = analyze(design, jobs=2)
        # Dict equality is float equality per pin — bitwise arrival and
        # slew agreement between the whole-forest batched sweep and the
        # sharded sub-forest sweeps.
        assert whole.arrival == sharded.arrival
        assert whole.slew == sharded.slew
        assert whole.critical_delay == sharded.critical_delay
        assert whole.critical_output == sharded.critical_output


class TestShmBackendBitIdentity:
    """The shm transport is pinned to the same bits as the serial
    backend — for the zero-copy Monte-Carlo workload and for the
    pickled-payload workloads that merely ride the warm pool."""

    def test_matrix_shm_vs_serial(self, fig1):
        serial = monte_carlo_delay_matrix(fig1, MODEL, 257, seed=11)
        shm = monte_carlo_delay_matrix(
            fig1, MODEL, 257, seed=11, jobs=2, backend="shm"
        )
        np.testing.assert_array_equal(serial, shm)

    def test_matrix_shm_serial_inline(self, fig1):
        # jobs=1 routes the shm shard task through the serial backend:
        # the parent attaches its own segments and fills the out block
        # in-process, still bit-identical.
        serial = monte_carlo_delay_matrix(fig1, MODEL, 64, seed=3)
        shm = monte_carlo_delay_matrix(
            fig1, MODEL, 64, seed=3, jobs=1, backend="shm"
        )
        np.testing.assert_array_equal(serial, shm)

    def test_verify_tree_backend_invariant(self, fig1):
        serial = verify_tree(fig1, samples=801, jobs=1)
        shm = verify_tree(fig1, samples=801, jobs=2, backend="shm")
        assert serial == shm

    def test_sta_backend_invariant(self):
        design = random_design(layers=3, width=5, seed=3)
        whole = analyze(design)
        shm = analyze(design, jobs=2, backend="shm")
        assert whole.arrival == shm.arrival
        assert whole.slew == shm.slew
        assert whole.critical_delay == shm.critical_delay
