"""Tests for statistical Elmore analysis under process variation."""

import numpy as np
import pytest

from repro._exceptions import AnalysisError, ValidationError
from repro.circuit import rc_line
from repro.core import elmore_delay
from repro.core.batch import batch_elmore_delays, compile_topology
from repro.core.variation import (
    DelayStatistics,
    VariationModel,
    elmore_statistics,
    monte_carlo_delay_matrix,
    monte_carlo_elmore,
    sample_parameter_batch,
)


class TestClosedForms:
    def test_zero_variation_zero_std(self, branched_tree):
        stats = elmore_statistics(branched_tree, "a2", VariationModel())
        assert stats.std == 0.0
        assert stats.mean == pytest.approx(
            elmore_delay(branched_tree, "a2")
        )

    def test_mean_is_nominal(self, branched_tree):
        model = VariationModel(resistance_sigma=0.15,
                               capacitance_sigma=0.10)
        stats = elmore_statistics(branched_tree, "a2", model)
        assert stats.mean == pytest.approx(
            elmore_delay(branched_tree, "a2")
        )

    def test_std_scales_linearly_for_single_source(self, branched_tree):
        """With only R varying (no cross term), std is linear in sigma."""
        s1 = elmore_statistics(
            branched_tree, "a2", VariationModel(resistance_sigma=0.05)
        )
        s2 = elmore_statistics(
            branched_tree, "a2", VariationModel(resistance_sigma=0.10)
        )
        assert s2.std == pytest.approx(2.0 * s1.std, rel=1e-12)
        assert s1.std == pytest.approx(s1.std_first_order)

    def test_cross_term_increases_std(self, branched_tree):
        model = VariationModel(resistance_sigma=0.2,
                               capacitance_sigma=0.2)
        stats = elmore_statistics(branched_tree, "a2", model)
        assert stats.std > stats.std_first_order

    def test_single_rc_hand_computed(self, single_rc):
        """One R, one C: T_D = RC(1+x)(1+y);
        Var = (RC)^2 (sr^2 + sc^2 + sr^2 sc^2)."""
        sr, sc = 0.1, 0.2
        model = VariationModel(resistance_sigma=sr, capacitance_sigma=sc)
        stats = elmore_statistics(single_rc, "out", model)
        rc = 1e-6 * 1e-3
        expected = rc * np.sqrt(sr**2 + sc**2 + sr**2 * sc**2)
        assert stats.std == pytest.approx(expected, rel=1e-12)

    def test_per_element_overrides(self, branched_tree):
        base = elmore_statistics(
            branched_tree, "a2",
            VariationModel(resistance_sigma=0.1),
        )
        # Zeroing an off-path edge's sigma changes nothing.
        off_path = elmore_statistics(
            branched_tree, "a2",
            VariationModel(resistance_sigma=0.1,
                           resistance_sigmas={"b1": 0.0}),
        )
        assert off_path.std == pytest.approx(base.std, rel=1e-12)
        # Zeroing an on-path edge's sigma reduces the variance.
        on_path = elmore_statistics(
            branched_tree, "a2",
            VariationModel(resistance_sigma=0.1,
                           resistance_sigmas={"trunk": 0.0}),
        )
        assert on_path.std < base.std

    def test_quantile_bound(self, single_rc):
        model = VariationModel(resistance_sigma=0.1)
        stats = elmore_statistics(single_rc, "out", model)
        assert stats.quantile_bound(3.0) == pytest.approx(
            stats.mean + 3 * stats.std
        )

    def test_validation(self):
        with pytest.raises(ValidationError):
            VariationModel(resistance_sigma=-0.1)
        with pytest.raises(ValidationError):
            VariationModel(capacitance_sigmas={"a": -0.5})


class TestMonteCarloAgreement:
    @pytest.mark.parametrize("sr,sc", [(0.1, 0.0), (0.0, 0.15), (0.1, 0.1)])
    def test_mean_and_std_match(self, sr, sc):
        tree = rc_line(6, 200.0, 0.5e-12, driver_resistance=350.0)
        model = VariationModel(resistance_sigma=sr, capacitance_sigma=sc)
        stats = elmore_statistics(tree, "n6", model)
        samples = monte_carlo_elmore(tree, "n6", model, samples=6000,
                                     seed=3)
        assert np.mean(samples) == pytest.approx(stats.mean, rel=5e-3)
        assert np.std(samples) == pytest.approx(stats.std, rel=5e-2)

    def test_branched_topology(self, branched_tree):
        model = VariationModel(resistance_sigma=0.12,
                               capacitance_sigma=0.08)
        stats = elmore_statistics(branched_tree, "a2", model)
        samples = monte_carlo_elmore(branched_tree, "a2", model,
                                     samples=8000, seed=11)
        assert np.mean(samples) == pytest.approx(stats.mean, rel=5e-3)
        assert np.std(samples) == pytest.approx(stats.std, rel=5e-2)

    def test_deterministic_given_seed(self, branched_tree):
        model = VariationModel(resistance_sigma=0.1)
        a = monte_carlo_elmore(branched_tree, "a2", model, samples=50,
                               seed=7)
        b = monte_carlo_elmore(branched_tree, "a2", model, samples=50,
                               seed=7)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("samples", [1, 7, 257, 2000])
    def test_one_stream(self, fig1, samples):
        """The sampled rows, the sharded matrix and one node's samples
        are the same stream, bit for bit."""
        model = VariationModel(resistance_sigma=0.1,
                               capacitance_sigma=0.08)
        matrix = monte_carlo_delay_matrix(fig1, model, samples, seed=4)
        res, cap = sample_parameter_batch(fig1, model, samples, seed=4)
        np.testing.assert_array_equal(
            matrix, batch_elmore_delays(compile_topology(fig1), res, cap)
        )
        node = fig1.node_names[-1]
        np.testing.assert_array_equal(
            monte_carlo_elmore(fig1, node, model, samples=samples,
                               seed=4),
            matrix[:, fig1.index_of(node)],
        )

    def test_sample_count_validated(self, branched_tree):
        with pytest.raises(AnalysisError):
            monte_carlo_elmore(branched_tree, "a2", VariationModel(),
                               samples=0)

    def test_sampled_bound_property(self):
        """Every variation sample's Elmore value still upper-bounds that
        sample's true delay (the Theorem holds pointwise in process
        space)."""
        from repro.analysis import measure_delay
        from repro.circuit import RCTree
        tree = rc_line(4, 150.0, 0.3e-12)
        model = VariationModel(resistance_sigma=0.2,
                               capacitance_sigma=0.2)
        rng = np.random.default_rng(5)
        for _ in range(5):
            perturbed = RCTree("in")
            parent = "in"
            for name in tree.node_names:
                view = tree.node(name)
                r = view.resistance * (1 + rng.normal(0, 0.2))
                c = view.capacitance * (1 + rng.normal(0, 0.2))
                perturbed.add_node(name, parent, max(r, 1.0),
                                   max(c, 1e-15))
                parent = name
            td = elmore_delay(perturbed, "n4")
            actual = measure_delay(perturbed, "n4")
            assert actual <= td * (1 + 1e-9)
