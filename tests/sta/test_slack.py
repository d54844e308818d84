"""Tests for backward required-time propagation and slack."""

import pytest

from repro._exceptions import TimingGraphError
from repro.sta import Design, Pin, analyze, default_library
from repro.sta.slack import compute_slacks


@pytest.fixture
def lib():
    return default_library()


@pytest.fixture
def chain(lib):
    d = Design("chain", lib)
    d.add_input("a")
    d.add_output("z")
    d.add_instance("u1", "INV")
    d.add_instance("u2", "INV")
    d.connect("na", ("@port", "a"), [("u1", "a")])
    d.connect("n1", ("u1", "y"), [("u2", "a")])
    d.connect("nz", ("u2", "y"), [("@port", "z")])
    return d


@pytest.fixture
def fanout(lib):
    d = Design("fan", lib)
    d.add_input("a")
    d.add_output("fast")
    d.add_output("slow")
    d.add_instance("drv", "BUF")
    d.add_instance("s1", "INV")
    d.add_instance("s2", "INV")
    d.connect("na", ("@port", "a"), [("drv", "a")])
    d.connect("nd", ("drv", "y"), [("s1", "a")])
    d.connect("n1", ("s1", "y"), [("s2", "a"), ("@port", "fast")])
    d.connect("n2", ("s2", "y"), [("@port", "slow")])
    return d


class TestChainSlack:
    def test_zero_slack_at_exact_requirement(self, chain):
        result = analyze(chain)
        report = compute_slacks(chain, result, result.critical_delay)
        assert report.worst_slack == pytest.approx(0.0, abs=1e-18)

    def test_positive_margin_everywhere(self, chain):
        result = analyze(chain)
        report = compute_slacks(
            chain, result, result.critical_delay + 50e-12
        )
        assert report.worst_slack == pytest.approx(50e-12, rel=1e-9)
        assert all(s >= report.worst_slack - 1e-18
                   for s in report.slack.values())

    def test_chain_slack_uniform(self, chain):
        """On a single path every pin carries the same slack."""
        result = analyze(chain)
        report = compute_slacks(chain, result, 1e-9)
        values = set(round(s / 1e-15) for s in report.slack.values())
        assert len(values) == 1

    def test_required_decreases_upstream(self, chain):
        result = analyze(chain)
        report = compute_slacks(chain, result, 1e-9)
        req_in = report.required[Pin(Pin.PORT, "a")]
        req_out = report.required[Pin(Pin.PORT, "z")]
        assert req_in < req_out


class TestFanoutSlack:
    def test_tightest_branch_dominates(self, fanout):
        result = analyze(fanout)
        # Tight requirement on the slow output only.
        report = compute_slacks(fanout, result, {
            "fast": 1e-9,
            "slow": result.arrival_at_output("slow"),
        })
        assert report.worst_slack == pytest.approx(0.0, abs=1e-18)
        # The fast endpoint keeps its generous slack.
        assert report.slack[Pin(Pin.PORT, "fast")] > 0.5e-9

    def test_shared_prefix_gets_min_requirement(self, fanout):
        result = analyze(fanout)
        report = compute_slacks(fanout, result, {
            "fast": 0.2e-9, "slow": 10e-9,
        })
        # The driver's slack is set by the fast (tight) branch.
        assert report.slack[Pin("drv", "y")] == pytest.approx(
            report.slack[Pin(Pin.PORT, "fast")], rel=1e-9
        )

    def test_critical_pins_listing(self, fanout):
        result = analyze(fanout)
        report = compute_slacks(fanout, result, result.critical_delay)
        pins = report.critical_pins(margin=1e-15)
        assert Pin(Pin.PORT, result.critical_output) in pins

    def test_slack_at_accessor(self, fanout):
        result = analyze(fanout)
        report = compute_slacks(fanout, result, 1e-9)
        assert report.slack_at("drv", "y") == report.slack[Pin("drv", "y")]
        with pytest.raises(TimingGraphError):
            report.slack_at("ghost", "y")

    def test_missing_required_rejected(self, fanout):
        result = analyze(fanout)
        with pytest.raises(TimingGraphError):
            compute_slacks(fanout, result, {"fast": 1e-9})


class TestDictRequired:
    def test_missing_output_error_names_the_outputs(self, fanout):
        result = analyze(fanout)
        with pytest.raises(TimingGraphError,
                           match=r"required times missing for outputs: "
                                 r"\['slow'\]"):
            compute_slacks(fanout, result, {"fast": 1e-9})
        # Unknown extra keys don't mask the missing ones.
        with pytest.raises(TimingGraphError, match="missing"):
            compute_slacks(fanout, result, {"fast": 1e-9, "ghost": 1e-9})

    def test_per_output_map_tighter_than_scalar(self, fanout):
        result = analyze(fanout)
        scalar = compute_slacks(fanout, result, 1e-9)
        mapped = compute_slacks(
            fanout, result, {"fast": 1e-9, "slow": 0.3e-9}
        )
        # Tightening one output can only shrink slacks, and must shrink
        # that output's own endpoint slack by exactly the delta.
        assert mapped.worst_slack <= scalar.worst_slack
        for pin, s in mapped.slack.items():
            assert s <= scalar.slack[pin] + 1e-18
        delta = 1e-9 - 0.3e-9
        assert mapped.slack[Pin(Pin.PORT, "slow")] == pytest.approx(
            scalar.slack[Pin(Pin.PORT, "slow")] - delta, rel=1e-12
        )
        # The untouched disjoint endpoint keeps its scalar slack.
        assert mapped.slack[Pin(Pin.PORT, "fast")] == pytest.approx(
            scalar.slack[Pin(Pin.PORT, "fast")], rel=1e-12
        )

    def test_equal_map_matches_scalar_exactly(self, fanout):
        result = analyze(fanout)
        scalar = compute_slacks(fanout, result, 1e-9)
        mapped = compute_slacks(
            fanout, result, {"fast": 1e-9, "slow": 1e-9}
        )
        assert mapped.slack == scalar.slack
        assert mapped.worst_pin == scalar.worst_pin


class TestCriticalPinsMargin:
    def test_zero_margin_keeps_ties(self, chain):
        # A single path carries one uniform slack: margin=0 must return
        # every pin, not just the arbitrary worst_pin tie-break winner.
        result = analyze(chain)
        report = compute_slacks(chain, result, 1e-9)
        pins = report.critical_pins(margin=0.0)
        assert set(pins) == set(report.slack)
        assert report.worst_pin in pins

    def test_margin_widens_monotonically(self, fanout):
        result = analyze(fanout)
        report = compute_slacks(
            fanout, result, {"fast": 0.2e-9, "slow": 10e-9}
        )
        tight = set(report.critical_pins(margin=0.0))
        sorted_slacks = sorted(report.slack.values())
        widest = sorted_slacks[-1] - report.worst_slack
        wide = set(report.critical_pins(margin=widest))
        assert tight <= wide
        assert wide == set(report.slack)
        # The slack-10ns branch endpoint is not critical at zero margin.
        assert Pin(Pin.PORT, "slow") not in tight


class TestConsistencyWithForward:
    def test_output_slack_matches_result_slack(self, chain):
        result = analyze(chain)
        report = compute_slacks(chain, result, 1e-9)
        assert report.slack[Pin(Pin.PORT, "z")] == pytest.approx(
            result.slack(1e-9, "z"), rel=1e-12
        )

    def test_elmore_slack_is_conservative(self, fanout):
        """Elmore-model slack <= exact-model slack at every pin (positive
        certified slack can only improve under the true delays)."""
        elmore = analyze(fanout, delay_model="elmore")
        exact = analyze(fanout, delay_model="exact")
        r_elmore = compute_slacks(fanout, elmore, 1e-9)
        r_exact = compute_slacks(fanout, exact, 1e-9)
        for pin, s in r_elmore.slack.items():
            assert s <= r_exact.slack[pin] + 1e-15


class TestWalkOrder:
    def test_backward_pass_reuses_the_forward_order(self, monkeypatch):
        """``compute_slacks`` walks the levels ``analyze`` compiled: no
        second ``timing_order()``, and their nets are in the design's
        order."""
        from repro.workloads import random_design

        design = random_design(4, 6, seed=5)
        result = analyze(design)
        assert [name for name, _ in result.levels.nets] == [
            name for kind, name in design.timing_order() if kind == "net"]
        calls = []
        real = Design.timing_order

        def counting(self):
            calls.append(1)
            return real(self)

        monkeypatch.setattr(Design, "timing_order", counting)
        report = compute_slacks(design, result, 1e-9)
        assert calls == []
        assert report.worst_slack == min(report.slack.values())
