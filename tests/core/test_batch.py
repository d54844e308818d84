"""Differential tests: the batched engine is pinned to the scalar path.

Every quantity the batched engine produces — Elmore delays, transfer
coefficients up to order 3, central moments, skewness, the paper's bound
pair — must match the per-node scalar recursions
(:func:`repro.core.moments.transfer_moments`,
:func:`repro.core.elmore.elmore_delays`) to 1e-9 relative tolerance on
random trees, including the degenerate shapes (single node, deep line)
where level sweeps have the least parallelism.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro._exceptions import ValidationError
from repro.circuit import RCTree, balanced_tree, rc_line
from repro.core.batch import (
    batch_delay_bounds,
    batch_elmore_delays,
    batch_transfer_moments,
    compile_forest,
    compile_topology,
)
from repro.core.elmore import elmore_delays
from repro.core.incremental import IncrementalElmore
from repro.core.moments import transfer_moments
from repro.core.variation import (
    VariationModel,
    monte_carlo_elmore,
    sample_parameter_batch,
)

from tests.properties.strategies import rc_trees

COMMON = dict(deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])

RTOL = 1e-9


def rebuild_with(tree, res_row, cap_row):
    """A fresh tree with the same wiring and one batch row's elements."""
    clone = RCTree(tree.input_node)
    for i, name in enumerate(tree.node_names):
        view = tree.node(name)
        clone.add_node(name, view.parent, float(res_row[i]),
                       float(cap_row[i]))
    return clone


def perturbed_batch(tree, batch, seed=0):
    """Deterministic strictly-positive (B, N) parameter matrices."""
    rng = np.random.default_rng(seed)
    n = tree.num_nodes
    r = tree.resistances * (0.5 + rng.random((batch, n)))
    c = tree.capacitances * (0.5 + rng.random((batch, n)))
    return r, c


class TestNominalAgreement:
    """B=1 with the tree's own values reproduces the scalar path."""

    @given(tree=rc_trees())
    @settings(max_examples=60, **COMMON)
    def test_moments_match_scalar(self, tree):
        scalar = transfer_moments(tree, 3).coefficients
        batched = batch_transfer_moments(tree, 3).coefficients
        assert batched.shape == (4, 1, tree.num_nodes)
        np.testing.assert_allclose(batched[:, 0, :], scalar, rtol=RTOL,
                                   atol=0.0)

    @given(tree=rc_trees())
    @settings(max_examples=60, **COMMON)
    def test_elmore_matches_scalar(self, tree):
        np.testing.assert_allclose(
            batch_elmore_delays(tree)[0], elmore_delays(tree), rtol=RTOL
        )

    @given(tree=rc_trees())
    @settings(max_examples=40, **COMMON)
    def test_derived_statistics_match_scalar(self, tree):
        scalar = transfer_moments(tree, 3)
        batched = batch_transfer_moments(tree, 3)
        for i, name in enumerate(tree.node_names):
            assert batched.variance()[0, i] == pytest.approx(
                scalar.variance(name), rel=RTOL, abs=1e-300
            )
            assert batched.sigma()[0, i] == pytest.approx(
                scalar.sigma(name), rel=RTOL, abs=1e-300
            )
            assert batched.third_central_moment()[0, i] == pytest.approx(
                scalar.third_central_moment(name), rel=RTOL, abs=1e-300
            )
            assert batched.skewness()[0, i] == pytest.approx(
                scalar.skewness(name), rel=1e-7, abs=1e-12
            )

    @given(tree=rc_trees())
    @settings(max_examples=40, **COMMON)
    def test_bounds_match_scalar(self, tree):
        lower, upper = batch_delay_bounds(tree)
        scalar = transfer_moments(tree, 2)
        for i, name in enumerate(tree.node_names):
            assert upper[0, i] == pytest.approx(scalar.mean(name), rel=RTOL)
            expected = max(scalar.mean(name) - scalar.sigma(name), 0.0)
            assert lower[0, i] == pytest.approx(expected, rel=1e-7,
                                                abs=1e-300)

    @given(tree=rc_trees())
    @settings(max_examples=30, **COMMON)
    def test_raw_moments_match_scalar(self, tree):
        scalar = transfer_moments(tree, 3)
        raw = batch_transfer_moments(tree, 3).raw_moments()
        for i, name in enumerate(tree.node_names):
            np.testing.assert_allclose(
                raw[:, 0, i], scalar.raw_moments(name), rtol=RTOL, atol=0.0
            )


class TestBatchedAgreement:
    """Every batch row equals a scalar run on a rebuilt tree."""

    @given(tree=rc_trees(), batch=st.integers(min_value=1, max_value=7),
           seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=40, **COMMON)
    def test_rows_match_rebuilt_trees(self, tree, batch, seed):
        res, cap = perturbed_batch(tree, batch, seed=seed)
        batched = batch_transfer_moments(tree, 3, res, cap).coefficients
        for b in range(batch):
            scalar = transfer_moments(
                rebuild_with(tree, res[b], cap[b]), 3
            ).coefficients
            np.testing.assert_allclose(batched[:, b, :], scalar, rtol=RTOL,
                                       atol=0.0)

    @given(tree=rc_trees(), batch=st.integers(min_value=1, max_value=7),
           seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=40, **COMMON)
    def test_elmore_rows_match_rebuilt_trees(self, tree, batch, seed):
        res, cap = perturbed_batch(tree, batch, seed=seed)
        batched = batch_elmore_delays(tree, res, cap)
        assert batched.shape == (batch, tree.num_nodes)
        for b in range(batch):
            np.testing.assert_allclose(
                batched[b], elmore_delays(rebuild_with(tree, res[b], cap[b])),
                rtol=RTOL,
            )

    def test_broadcast_single_r_row_against_c_batch(self):
        tree = rc_line(6, 120.0, 0.3e-12)
        _, cap = perturbed_batch(tree, 5, seed=9)
        batched = batch_elmore_delays(tree, tree.resistances, cap)
        assert batched.shape == (5, 6)
        for b in range(5):
            np.testing.assert_allclose(
                batched[b],
                elmore_delays(rebuild_with(tree, tree.resistances, cap[b])),
                rtol=RTOL,
            )


class TestEdgeTopologies:
    def test_single_node(self):
        tree = RCTree("in")
        tree.add_node("out", "in", 1000.0, 1e-12)
        batched = batch_transfer_moments(tree, 3)
        scalar = transfer_moments(tree, 3)
        np.testing.assert_allclose(
            batched.coefficients[:, 0, :], scalar.coefficients, rtol=RTOL
        )
        assert batched.elmore_delays()[0, 0] == pytest.approx(1e-9)

    def test_deep_line(self):
        tree = rc_line(80, 35.0, 40e-15, driver_resistance=200.0)
        res, cap = perturbed_batch(tree, 3, seed=4)
        batched = batch_transfer_moments(tree, 3, res, cap).coefficients
        for b in range(3):
            scalar = transfer_moments(
                rebuild_with(tree, res[b], cap[b]), 3
            ).coefficients
            np.testing.assert_allclose(batched[:, b, :], scalar, rtol=RTOL,
                                       atol=0.0)

    def test_wide_star(self):
        tree = RCTree("in")
        tree.add_node("hub", "in", 100.0, 50e-15)
        for k in range(30):
            tree.add_node(f"leaf{k}", "hub", 60.0 + k, (k + 1) * 1e-15)
        np.testing.assert_allclose(
            batch_elmore_delays(tree)[0], elmore_delays(tree), rtol=RTOL
        )

    def test_zero_capacitance_nodes(self):
        """Steiner points (C = 0) are legal as long as the tree has C."""
        tree = RCTree("in")
        tree.add_node("s1", "in", 100.0, 0.0)
        tree.add_node("a", "s1", 50.0, 1e-13)
        tree.add_node("b", "s1", 70.0, 2e-13)
        np.testing.assert_allclose(
            batch_transfer_moments(tree, 3).coefficients[:, 0, :],
            transfer_moments(tree, 3).coefficients,
            rtol=RTOL, atol=0.0,
        )


class TestForest:
    def test_forest_matches_per_tree_scalar(self):
        trees = [
            rc_line(5, 100.0, 1e-12),
            balanced_tree(3, 2, 40.0, 30e-15, driver_resistance=150.0),
            RCTree("in"),
        ]
        trees[2].add_node("out", "in", 500.0, 2e-12)
        topology, offsets = compile_forest(trees)
        moments = batch_transfer_moments(topology, 3)
        for k, tree in enumerate(trees):
            scalar = transfer_moments(tree, 3).coefficients
            span = slice(offsets[k], offsets[k] + tree.num_nodes)
            np.testing.assert_allclose(
                moments.coefficients[:, 0, span], scalar, rtol=RTOL,
                atol=0.0,
            )

    def test_forest_names_qualified(self):
        trees = [rc_line(2, 10.0, 1e-13), rc_line(2, 20.0, 2e-13)]
        topology, offsets = compile_forest(trees)
        assert topology.index_of("0/n1") == 0
        assert topology.index_of("1/n1") == offsets[1]

    def test_forest_names_built_on_first_lookup(self):
        trees = [rc_line(2, 10.0, 1e-13), rc_line(3, 20.0, 2e-13)]
        topology, offsets = compile_forest(trees)
        batch_transfer_moments(topology, 2)  # sweeps read no name
        assert topology.node_names._names is None
        assert not topology._index
        assert len(topology.node_names) == 5
        assert topology.index_of("1/n3") == 4
        assert tuple(topology.node_names) == (
            "0/n1", "0/n2", "1/n1", "1/n2", "1/n3")
        with pytest.raises(ValidationError, match="unknown node"):
            topology.index_of("n1")

    def test_empty_forest_rejected(self):
        with pytest.raises(ValidationError):
            compile_forest([])


class TestTopologyCache:
    def test_compile_is_cached(self):
        tree = rc_line(4, 100.0, 1e-12)
        assert compile_topology(tree) is compile_topology(tree)

    def test_mutation_invalidates_cache(self):
        tree = rc_line(4, 100.0, 1e-12)
        first = compile_topology(tree)
        tree.add_node("n5", "n4", 100.0, 1e-12)
        second = compile_topology(tree)
        assert second is not first
        assert second.num_nodes == 5
        # The old handle still evaluates its own 4-node world.
        assert batch_elmore_delays(first).shape == (1, 4)

    def test_parameter_edit_recompiles_but_matches(self):
        tree = rc_line(4, 100.0, 1e-12)
        compile_topology(tree)
        tree.set_capacitance("n2", 3e-12)
        np.testing.assert_allclose(
            batch_elmore_delays(tree)[0], elmore_delays(tree), rtol=RTOL
        )


class TestValidation:
    @pytest.fixture
    def tree(self):
        return rc_line(4, 100.0, 1e-12)

    def test_order_validation(self, tree):
        with pytest.raises(ValidationError):
            batch_transfer_moments(tree, 0)
        with pytest.raises(ValidationError):
            batch_transfer_moments(tree, -2)
        with pytest.raises(ValidationError):
            batch_transfer_moments(tree, 2.5)

    def test_shape_validation(self, tree):
        with pytest.raises(ValidationError):
            batch_elmore_delays(tree, np.ones((2, 9)))
        with pytest.raises(ValidationError):
            batch_elmore_delays(tree, np.ones((3, 3, 4)))

    def test_row_count_mismatch(self, tree):
        with pytest.raises(ValidationError):
            batch_elmore_delays(tree, np.ones((2, 4)),
                                np.ones((3, 4)) * 1e-12)

    def test_nonpositive_resistance_rejected(self, tree):
        res = np.broadcast_to(tree.resistances, (2, 4)).copy()
        res[1, 2] = 0.0
        with pytest.raises(ValidationError):
            batch_elmore_delays(tree, res)

    def test_negative_capacitance_rejected(self, tree):
        cap = np.broadcast_to(tree.capacitances, (2, 4)).copy()
        cap[0, 1] = -1e-15
        with pytest.raises(ValidationError):
            batch_elmore_delays(tree, capacitances=cap)

    def test_capacitance_free_row_rejected(self, tree):
        cap = np.broadcast_to(tree.capacitances, (2, 4)).copy()
        cap[1, :] = 0.0
        with pytest.raises(ValidationError):
            batch_elmore_delays(tree, capacitances=cap)

    def test_unknown_node_name(self, tree):
        with pytest.raises(ValidationError):
            batch_transfer_moments(tree, 1).mean("nope")


class TestConsumers:
    def test_monte_carlo_batch_equals_loop(self, branched_tree):
        """The first 50 sampled rows, rebuilt as trees and walked by the
        scalar engine, reproduce ``monte_carlo_elmore``'s samples."""
        model = VariationModel(resistance_sigma=0.12,
                               capacitance_sigma=0.07)
        batched = monte_carlo_elmore(branched_tree, "a2", model,
                                     samples=200, seed=5)
        res, cap = sample_parameter_batch(branched_tree, model, 200,
                                          seed=5)
        target = branched_tree.index_of("a2")
        looped = [
            elmore_delays(rebuild_with(branched_tree, res[b], cap[b]))[
                target]
            for b in range(50)
        ]
        np.testing.assert_allclose(batched[:50], looped, rtol=RTOL)

    def test_incremental_sweep_matches_delays(self, branched_tree):
        inc = IncrementalElmore(branched_tree)
        inc.add_capacitance("a1", 0.3e-12)
        inc.set_resistance("trunk", 140.0)
        snapshot = inc.delays()
        swept = inc.sweep()
        names = branched_tree.node_names
        np.testing.assert_allclose(
            swept[0], [snapshot[name] for name in names], rtol=RTOL
        )
        # And a batched what-if over the same cached topology.
        res, cap = perturbed_batch(branched_tree, 4, seed=1)
        swept = inc.sweep(res, cap)
        for b in range(4):
            np.testing.assert_allclose(
                swept[b],
                elmore_delays(rebuild_with(branched_tree, res[b], cap[b])),
                rtol=RTOL,
            )
