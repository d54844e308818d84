"""Unit tests for the delay-metric zoo."""

import math

import numpy as np
import pytest

from repro._exceptions import MetricError
from repro.analysis import ExactAnalysis, measure_delay
from repro.core.metrics import (
    METRICS,
    MetricReport,
    d2m_metric,
    elmore_metric,
    evaluate_metrics,
    lognormal_metric,
    lower_bound_metric,
    scaled_elmore_metric,
    two_pole_metric,
)
from repro.core.moments import transfer_moments


class TestIndividualMetrics:
    def test_elmore_on_single_rc(self, single_rc):
        assert elmore_metric(single_rc, "out") == pytest.approx(1e-9)

    def test_scaled_elmore(self, single_rc):
        assert scaled_elmore_metric(single_rc, "out") == pytest.approx(
            math.log(2) * 1e-9
        )

    def test_single_pole_scaled_elmore_is_exact(self, single_rc):
        """For a true one-pole circuit ln2*T_D IS the 50% delay."""
        actual = measure_delay(single_rc, "out")
        assert scaled_elmore_metric(single_rc, "out") == pytest.approx(
            actual, rel=1e-9
        )

    def test_lognormal_below_elmore(self, corpus):
        """M2 >= M1^2 implies lognormal median <= Elmore."""
        for tree in corpus:
            moments = transfer_moments(tree, 2)
            for node in tree.node_names:
                assert lognormal_metric(moments, node) <= (
                    elmore_metric(moments, node) * (1 + 1e-12)
                )

    def test_d2m_single_pole_is_ln2_tau(self, single_rc):
        # One pole: M1 = tau, and the s^2 coefficient of H(s) is tau^2.
        assert d2m_metric(single_rc, "out") == pytest.approx(
            math.log(2) * 1e-9, rel=1e-12
        )

    def test_lower_bound_metric_clips(self, fig1):
        assert lower_bound_metric(fig1, "n1") == 0.0
        assert lower_bound_metric(fig1, "n5") > 0.0

    def test_two_pole_closer_than_one_pole_far_from_driver(self, fig1):
        actual = measure_delay(fig1, "n5")
        err2 = abs(two_pole_metric(fig1, "n5") - actual)
        err1 = abs(scaled_elmore_metric(fig1, "n5") - actual)
        assert err2 < err1

    def test_awe4_nearly_exact(self, fig1):
        actual = measure_delay(fig1, "n5")
        estimate = METRICS["awe4"](fig1, "n5")
        assert estimate == pytest.approx(actual, rel=1e-3)

    def test_moment_reuse(self, fig1):
        moments = transfer_moments(fig1, 4)
        assert elmore_metric(moments, "n5") == elmore_metric(fig1, "n5")

    def test_insufficient_order_rejected(self, fig1):
        moments = transfer_moments(fig1, 1)
        with pytest.raises(MetricError):
            d2m_metric(moments, "n5")


class TestBoundOrdering:
    def test_elmore_always_upper_bounds(self, corpus):
        for tree in corpus:
            analysis = ExactAnalysis(tree)
            moments = transfer_moments(tree, 2)
            for node in tree.node_names:
                actual = measure_delay(analysis, node)
                assert elmore_metric(moments, node) >= actual * (1 - 1e-9)
                assert lower_bound_metric(moments, node) <= actual * (1 + 1e-9)

    def test_ln2_elmore_not_a_bound(self, fig1):
        """The paper's Sec. II-D point: ln2*T_D is optimistic at n5 but
        pessimistic at n1 in the same tree."""
        analysis = ExactAnalysis(fig1)
        a1 = measure_delay(analysis, "n1")
        a5 = measure_delay(analysis, "n5")
        assert scaled_elmore_metric(fig1, "n1") > a1   # pessimistic
        assert scaled_elmore_metric(fig1, "n5") < a5   # optimistic


class TestEvaluateMetrics:
    def test_full_sweep(self, fig1):
        analysis = ExactAnalysis(fig1)
        refs = {
            n: measure_delay(analysis, n) for n in ("n1", "n5", "n7")
        }
        reports = evaluate_metrics(fig1, ["n1", "n5", "n7"], references=refs)
        names = {r.metric for r in reports}
        assert names == set(METRICS)
        for r in reports:
            assert r.reference is not None
            assert r.relative_error is not None

    def test_metric_subset(self, fig1):
        reports = evaluate_metrics(fig1, ["n5"], metrics=["elmore", "d2m"])
        assert {r.metric for r in reports} == {"elmore", "d2m"}

    def test_unknown_metric_rejected(self, fig1):
        with pytest.raises(MetricError):
            evaluate_metrics(fig1, ["n5"], metrics=["nope"])

    def test_report_without_reference(self):
        r = MetricReport(metric="elmore", node="x", estimate=1.0)
        assert r.relative_error is None

    def test_relative_error_sign_convention(self):
        # (reference - estimate) / reference.
        r = MetricReport(metric="m", node="x", estimate=0.8, reference=1.0)
        assert r.relative_error == pytest.approx(0.2)
