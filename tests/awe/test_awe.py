"""Unit tests for the AWE / moment-matching reduced-order models."""

import math

import numpy as np
import pytest

from repro import RCTree
from repro._exceptions import AnalysisError
from repro.analysis import ExactAnalysis, measure_delay
from repro.awe import (
    LN2,
    awe_approximation,
    awe_delay,
    dominant_time_constant,
    one_pole_delay,
    one_pole_model,
    pade_from_moments,
    two_pole_delay,
    two_pole_model,
)
from repro.core.moments import transfer_moments


class TestOnePole:
    def test_recovers_true_single_pole(self, single_rc):
        model = one_pole_model(single_rc, "out")
        assert model.poles[0] == pytest.approx(1e9)
        assert model.dc_gain == pytest.approx(1.0)

    def test_delay_is_ln2_elmore(self, fig1):
        assert one_pole_delay(fig1, "n5") == pytest.approx(
            LN2 * 1.2e-9, rel=1e-3
        )

    def test_custom_threshold(self, single_rc):
        assert one_pole_delay(single_rc, "out", threshold=0.9) == \
            pytest.approx(1e-9 * math.log(10), rel=1e-12)

    def test_threshold_validation(self, single_rc):
        with pytest.raises(AnalysisError):
            one_pole_delay(single_rc, "out", threshold=1.0)

    def test_dominant_time_constant_is_elmore(self, fig1):
        from repro.core import elmore_delay
        assert dominant_time_constant(fig1, "n7") == pytest.approx(
            elmore_delay(fig1, "n7")
        )


class TestTwoPole:
    def test_exact_on_true_two_pole_circuit(self):
        tree = RCTree("in")
        tree.add_node("a", "in", 100.0, 1e-12)
        tree.add_node("b", "a", 400.0, 2e-12)
        exact = ExactAnalysis(tree)
        rates = two_pole_model(tree, "b").transfer.poles
        np.testing.assert_allclose(sorted(rates), exact.poles, rtol=1e-9)

    def test_delay_on_true_two_pole_is_exact(self):
        tree = RCTree("in")
        tree.add_node("a", "in", 100.0, 1e-12)
        tree.add_node("b", "a", 400.0, 2e-12)
        assert two_pole_delay(tree, "b") == pytest.approx(
            measure_delay(tree, "b"), rel=1e-6
        )

    def test_moment_guards(self):
        # The two-pole model is the Pade fit at q = 2: it needs m_0..m_3.
        with pytest.raises(AnalysisError):
            pade_from_moments(np.array([1.0, -1.0]), q=2)
        # A true single-pole moment sequence is degenerate at q = 2 and
        # falls back to its one pole.
        tau = 1e-9
        m = np.array([1.0, -tau, tau**2, -tau**3])
        np.testing.assert_allclose(
            pade_from_moments(m, q=2).transfer.poles, [1.0 / tau],
            rtol=1e-12)

    def test_more_accurate_than_one_pole(self, fig1):
        actual = measure_delay(fig1, "n5")
        err1 = abs(one_pole_delay(fig1, "n5") - actual)
        err2 = abs(two_pole_delay(fig1, "n5") - actual)
        assert err2 < err1


class TestPade:
    def test_recovers_exact_poles_when_order_suffices(self):
        """q = N poles from 2N moments recovers the true spectrum (small N;
        large-N Hankel systems are famously ill-conditioned in float64)."""
        tree = RCTree("in")
        tree.add_node("a", "in", 100.0, 1e-12)
        tree.add_node("b", "a", 150.0, 2e-12)
        tree.add_node("c", "b", 200.0, 0.5e-12)
        moments = transfer_moments(tree, 6)
        approx = pade_from_moments(moments.at("c"), q=3)
        exact = ExactAnalysis(tree)
        np.testing.assert_allclose(
            approx.transfer.poles, exact.poles, rtol=1e-6
        )

    def test_dominant_poles_survive_high_order_fit(self, fig1):
        """On the 7-node tree a high-order fit keeps at least the slow
        (delay-controlling) poles accurate even where conditioning bites."""
        n = fig1.num_nodes
        moments = transfer_moments(fig1, 2 * n)
        approx = pade_from_moments(moments.at("n5"), q=n)
        exact = ExactAnalysis(fig1).transfer("n5")
        k = min(3, approx.order)
        np.testing.assert_allclose(
            approx.transfer.poles[:k], exact.poles[:k], rtol=1e-4
        )

    def test_delay_accuracy_improves_with_order(self, fig1):
        actual = measure_delay(fig1, "n5")
        errors = [
            abs(awe_delay(fig1, "n5", q=q) - actual) for q in (1, 2, 3)
        ]
        assert errors[2] < errors[0]
        assert errors[2] / actual < 1e-3

    def test_dc_gain_preserved(self, fig1):
        for q in (1, 2, 3):
            approx = awe_approximation(fig1, "n5", q=q)
            assert approx.transfer.dc_gain == pytest.approx(1.0, rel=1e-9)

    def test_moment_matching_property(self, fig1):
        """The q-pole model reproduces the first 2q moments."""
        q = 3
        moments = transfer_moments(fig1, 2 * q)
        approx = pade_from_moments(moments.at("n5"), q=q)
        target = moments.at("n5")
        for j in range(2 * q):
            assert approx.transfer.transfer_coefficient(j) == pytest.approx(
                target[j], rel=1e-6
            )

    def test_insufficient_moments_rejected(self):
        with pytest.raises(AnalysisError):
            pade_from_moments(np.array([1.0, -1e-9]), q=2)
        with pytest.raises(AnalysisError):
            pade_from_moments(np.array([1.0, -1e-9]), q=0)

    def test_requested_order_metadata(self, fig1):
        approx = awe_approximation(fig1, "n5", q=2)
        assert approx.requested_order == 2
        assert approx.order <= 2

    def test_moment_object_order_guard(self, fig1):
        moments = transfer_moments(fig1, 2)
        with pytest.raises(AnalysisError):
            awe_approximation(moments, "n5", q=3)

    def test_overfitting_single_pole_degrades_gracefully(self, single_rc):
        """Asking for 2 poles from a true 1-pole response either raises
        (singular Hankel) or still yields the correct delay (the spurious
        pole carries negligible residue)."""
        moments = transfer_moments(single_rc, 4)
        try:
            approx = pade_from_moments(moments.at("out"), q=2)
        except AnalysisError:
            return
        assert approx.delay() == pytest.approx(1e-9 * math.log(2), rel=1e-6)

    def test_delay_threshold_validation(self, fig1):
        approx = awe_approximation(fig1, "n5", q=2)
        with pytest.raises(AnalysisError):
            approx.delay(threshold=0.0)


class TestStability:
    def test_fig1_fits_are_stable(self, fig1):
        for node in ("n1", "n5", "n7"):
            for q in (1, 2, 3):
                assert awe_approximation(fig1, node, q=q).stable

    def test_corpus_fits_mostly_succeed(self, corpus):
        ok = 0
        total = 0
        for tree in corpus:
            for node in tree.leaves():
                total += 1
                try:
                    awe_delay(tree, node, q=2)
                    ok += 1
                except AnalysisError:
                    pass
        assert ok >= total * 0.8
