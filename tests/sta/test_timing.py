"""Unit and integration tests for the STA engine."""

import pytest

from repro._exceptions import TimingGraphError
from repro.circuit import RCTree
from repro.sta import (
    Design,
    Pin,
    WireLoadModel,
    analyze,
    default_library,
)


@pytest.fixture
def lib():
    return default_library()


def build_chain(lib, length=3):
    d = Design("chain", lib)
    d.add_input("a")
    d.add_output("z")
    previous = ("@port", "a")
    for k in range(length):
        name = f"u{k}"
        d.add_instance(name, "INV")
        d.connect(f"n{k}", previous, [(name, "a")])
        previous = (name, "y")
    d.connect("nz", previous, [("@port", "z")])
    return d


@pytest.fixture
def chain(lib):
    return build_chain(lib)


@pytest.fixture
def fanout_design(lib):
    """One driver, two reconvergent paths of different depth."""
    d = Design("fan", lib)
    d.add_input("a")
    d.add_output("z")
    d.add_instance("drv", "BUF")
    d.add_instance("fast", "INV")
    d.add_instance("slow1", "INV")
    d.add_instance("slow2", "INV")
    d.add_instance("merge", "NAND2")
    d.connect("na", ("@port", "a"), [("drv", "a")])
    d.connect("nd", ("drv", "y"), [("fast", "a"), ("slow1", "a")])
    d.connect("ns1", ("slow1", "y"), [("slow2", "a")])
    d.connect("nf", ("fast", "y"), [("merge", "a")])
    d.connect("ns2", ("slow2", "y"), [("merge", "b")])
    d.connect("nz", ("merge", "y"), [("@port", "z")])
    return d


class TestBasicAnalysis:
    def test_chain_delay_accumulates(self, lib):
        short = analyze(build_chain(lib, 2)).critical_delay
        long = analyze(build_chain(lib, 5)).critical_delay
        assert long > short

    def test_arrival_monotone_along_chain(self, chain):
        result = analyze(chain)
        a0 = result.arrival[Pin("u0", "y")]
        a1 = result.arrival[Pin("u1", "y")]
        a2 = result.arrival[Pin("u2", "y")]
        assert a0 < a1 < a2 < result.critical_delay

    def test_input_arrivals_shift_output(self, chain):
        base = analyze(chain).critical_delay
        shifted = analyze(chain, input_arrivals={"a": 1e-9}).critical_delay
        assert shifted == pytest.approx(base + 1e-9, rel=1e-9)

    def test_slack(self, chain):
        result = analyze(chain)
        assert result.slack(result.critical_delay) == pytest.approx(0.0)
        assert result.slack(result.critical_delay + 1e-12) > 0

    def test_unknown_model_rejected(self, chain):
        with pytest.raises(TimingGraphError):
            analyze(chain, delay_model="psychic")

    def test_unknown_output_port(self, chain):
        result = analyze(chain)
        with pytest.raises(TimingGraphError):
            result.arrival_at_output("nope")


class TestCriticalPath:
    def test_path_through_slow_branch(self, fanout_design):
        result = analyze(fanout_design)
        names = [e.name for e in result.critical_path()]
        assert "slow1" in names and "slow2" in names
        assert "fast" not in names

    def test_path_structure_alternates(self, chain):
        result = analyze(chain)
        path = result.critical_path()
        kinds = [e.kind for e in path]
        assert kinds[0] == "net"
        assert kinds[-1] == "net"
        assert "gate" in kinds

    def test_path_delays_sum_to_arrival(self, fanout_design):
        result = analyze(fanout_design)
        path = result.critical_path()
        assert sum(e.delay for e in path) == pytest.approx(
            result.critical_delay, rel=1e-9
        )

    def test_path_arrivals_increase(self, fanout_design):
        path = analyze(fanout_design).critical_path()
        arrivals = [e.arrival for e in path]
        assert all(a <= b for a, b in zip(arrivals, arrivals[1:]))


class TestDelayModels:
    def test_elmore_upper_bounds_exact(self, fanout_design):
        """The paper's theorem lifts to whole-path certification."""
        elmore = analyze(fanout_design, delay_model="elmore")
        exact = analyze(fanout_design, delay_model="exact")
        assert elmore.critical_delay >= exact.critical_delay
        # Per-pin containment too.
        for pin, t in exact.arrival.items():
            assert elmore.arrival[pin] >= t * (1 - 1e-12)

    def test_lower_bound_model_below_exact(self, fanout_design):
        lower = analyze(fanout_design, delay_model="lower_bound")
        exact = analyze(fanout_design, delay_model="exact")
        assert lower.critical_delay <= exact.critical_delay

    def test_metric_models_run(self, chain):
        for model in ("d2m", "lognormal", "two_pole", "ln2_elmore"):
            result = analyze(chain, delay_model=model)
            assert result.critical_delay > 0

    def test_fit_failure_falls_back_to_elmore_and_is_counted(
            self, chain, monkeypatch):
        from repro._exceptions import MetricError
        from repro.obs.metrics import get_registry
        from repro.sta import timing
        from tests.sta.net_model_oracle import design_delays

        def failing_fit(moments, node):
            raise MetricError("forced fit failure")

        monkeypatch.setitem(timing.METRICS, "d2m", failing_fit)
        fallbacks = get_registry().get("sta_metric_fallbacks_total")
        before = (fallbacks.value, fallbacks.labels(metric="d2m").value)
        result = analyze(chain, delay_model="d2m")
        sinks = sum(len(net.sinks) for net in chain.nets.values())
        assert fallbacks.value - before[0] == sinks
        assert fallbacks.labels(metric="d2m").value - before[1] == sinks
        # The per-tree oracle falls back the same way.
        wire, _, failed = design_delays(chain, "d2m")
        assert failed == sinks
        for pin, delay in wire.items():
            assert result.wire_delay[pin] == pytest.approx(delay, rel=1e-12)

    def test_wire_load_scaling(self, chain):
        light = analyze(chain, wire_load=WireLoadModel(10.0, 1e-15))
        heavy = analyze(chain, wire_load=WireLoadModel(500.0, 50e-15))
        assert heavy.critical_delay > light.critical_delay


class TestNetOverrides:
    def test_override_changes_delay(self, chain):
        # Replace n1 with a long RC line (driver R included).
        tree = RCTree("in")
        tree.add_node("drv", "in", 400.0, 0.0)
        parent = "drv"
        for k in range(10):
            tree.add_node(f"w{k}", parent, 200.0, 0.2e-12)
            parent = f"w{k}"
        override = {"n1": (tree, {Pin("u1", "a"): parent})}
        base = analyze(chain).critical_delay
        slow = analyze(chain, net_overrides=override).critical_delay
        assert slow > base * 2

    def test_override_must_cover_sinks(self, chain):
        tree = RCTree("in")
        tree.add_node("drv", "in", 400.0, 1e-15)
        override = {"n1": (tree, {})}
        with pytest.raises(TimingGraphError):
            analyze(chain, net_overrides=override)


class TestGeometryRouting:
    def test_positions_trigger_routed_nets(self, lib):
        d = Design("placed", lib)
        d.add_input("a")
        d.add_output("z")
        d.add_instance("u1", "INV", position=(0.0, 0.0))
        d.add_instance("u2", "INV", position=(300e-6, 200e-6))
        d.connect("na", ("@port", "a"), [("u1", "a")])
        d.connect("n1", ("u1", "y"), [("u2", "a")])
        d.connect("nz", ("u2", "y"), [("@port", "z")])
        result = analyze(d)
        # The routed net carries real wire capacitance.
        routed = result.nets["n1"]
        assert routed.tree.total_capacitance() > 10e-15

    def test_farther_placement_is_slower(self, lib):
        def placed(distance):
            d = Design("placed", lib)
            d.add_input("a")
            d.add_output("z")
            d.add_instance("u1", "INV", position=(0.0, 0.0))
            d.add_instance("u2", "INV", position=(distance, 0.0))
            d.connect("na", ("@port", "a"), [("u1", "a")])
            d.connect("n1", ("u1", "y"), [("u2", "a")])
            d.connect("nz", ("u2", "y"), [("@port", "z")])
            return analyze(d).critical_delay

        assert placed(2000e-6) > placed(100e-6)


class TestAllMetricModels:
    def test_every_registered_model_runs(self, fanout_design):
        """Every DELAY_MODELS key completes an analysis; moment-fit
        failures fall back to Elmore instead of aborting."""
        from repro.sta.timing import DELAY_MODELS
        exact = analyze(fanout_design, delay_model="exact").critical_delay
        for model in DELAY_MODELS:
            result = analyze(fanout_design, delay_model=model)
            assert result.critical_delay > 0
            # No metric should be wildly off the exact answer.
            assert 0.2 * exact < result.critical_delay < 5.0 * exact
