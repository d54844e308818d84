"""The level walks of ``analyze`` and ``compute_slacks`` against the
Pin-dict walks they replaced (``tests/sta/sta_oracle.py``).

Arrivals, slews, predecessors, required times and slacks must agree
bit for bit under every delay model, with given input arrivals and
slews, a pin listed twice on a net, an override net and equal-arrival
fan-in ties.  The compiled levels must equal a one-step-at-a-time replay
of the timing order, the timing graph must be ordered and compiled once
per design version, and a result must refuse another design.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.sta.timing as timing
from repro._exceptions import TimingGraphError
from repro.core.variation import VariationModel
from repro.sta import DELAY_MODELS, Design, analyze, compute_slacks
from repro.sta.levels import levelize
from repro.sta.ssta import (
    ProcessModel, analyze_ssta, monte_carlo_arrivals,
    validate_against_monte_carlo,
)
from repro.workloads import random_design
from tests.sta.sta_oracle import backward_walk, nominal_walk, replayed_levels
from tests.sta.test_geometry import mixed_design, overrides
from tests.sta.test_ssta_levels import tie_design

MODEL = ProcessModel(
    VariationModel(resistance_sigma=0.08, capacitance_sigma=0.08),
    rho_r=0.5, rho_c=0.5, cell_sigma=0.05, rho_cell=0.5,
)

DESIGNS = st.one_of(
    st.builds(lambda layers, width, seed:
              (random_design(layers, width, seed=seed), {}),
              st.integers(1, 4), st.integers(1, 5), st.integers(0, 2**16)),
    # Both inputs of u1 (and of u3) on one net: with the unplaced
    # wire-load stars their arrivals and slews are equal.
    st.builds(lambda placed: (tie_design(placed), {}), st.booleans()),
    # Pins listed twice on a routed and on a wire-load net.
    st.builds(lambda override: (mixed_design(), {"net_overrides":
                                                 overrides()}
                                if override else {}), st.booleans()),
)


def bits(values):
    return {pin: float(value).hex() for pin, value in values.items()}


def predecessors(result):
    """``pin -> (prev pin, kind, name, delay)`` from the result's rows."""
    levels, rows = result.levels, result._rows
    found = {}
    for row in np.flatnonzero(rows.pred >= 0).tolist():
        net = levels.net[row]
        kind, name = ("net", levels.nets[net][0]) if net >= 0 else \
            ("gate", levels.pins[row].instance)
        found[levels.pins[row]] = (levels.pins[rows.pred[row]], kind, name,
                                   float(rows.delay[row]).hex())
    return found


def assert_levels_equal(got, want):
    assert got.pins == want.pins
    assert got.index == want.index
    assert got.nets == want.nets
    for name in ("ports", "outputs", "driver", "net"):
        assert getattr(got, name).tolist() == getattr(want, name).tolist()
    assert len(got.levels) == len(want.levels)
    for mine, theirs in zip(got.levels, want.levels):
        assert mine.gates == theirs.gates
        for name in ("outputs", "output_slew", "starts", "fanin", "inputs",
                     "owner", "intrinsic", "slew_impact", "sinks",
                     "drivers"):
            assert getattr(mine, name).tobytes() == \
                getattr(theirs, name).tobytes(), name


class TestAgainstDictWalk:
    @settings(max_examples=40, deadline=None)
    @given(case=DESIGNS, delay_model=st.sampled_from(sorted(DELAY_MODELS)),
           arrival=st.floats(-5e-11, 5e-11), slew=st.floats(0.0, 2e-11),
           margin=st.floats(0.5, 1.5), per_output=st.booleans())
    def test_bit_identical(self, case, delay_model, arrival, slew, margin,
                           per_output):
        design, kwargs = case
        port = design.inputs[0]
        kwargs = dict(kwargs, input_arrivals={port: arrival},
                      input_slews={port: slew})
        result = analyze(design, delay_model, **kwargs)
        want = nominal_walk(design, delay_model, **kwargs)
        assert list(result.arrival) == list(want.arrival)
        assert bits(result.arrival) == bits(want.arrival)
        assert bits(result.slew) == bits(want.slew)
        assert predecessors(result) == {
            pin: (prev, kind, name, float(delay).hex())
            for pin, (prev, kind, name, delay) in want.predecessor.items()}
        assert result.critical_output == want.critical_output
        assert result.critical_delay == want.critical_delay

        required = margin * result.critical_delay
        if per_output:
            required = {p: required * (1 + k / 10)
                        for k, p in enumerate(design.outputs)}
        report = compute_slacks(design, result, required)
        expected = backward_walk(design, want, required)
        assert bits(report.required) == bits(expected.required)
        assert bits(report.slack) == bits(expected.slack)
        assert report.worst_slack == expected.worst_slack
        ties = [pin for pin, s in expected.slack.items()
                if s == expected.worst_slack]
        assert report.worst_pin == max(ties, key=result.levels.index.get)

    @settings(max_examples=30, deadline=None)
    @example(case=(random_design(20, 50, seed=1), {}))
    @example(case=(random_design(8, 40, seed=3), {}))
    @given(case=st.one_of(DESIGNS, st.builds(
        lambda layers, width, seed: (random_design(layers, width, seed=seed),
                                     {}),
        st.integers(5, 12), st.integers(1, 8), st.integers(0, 2**16))))
    def test_levels_equal_the_replayed_order(self, case):
        design, _ = case
        assert_levels_equal(levelize(design), replayed_levels(design))


def test_one_order_and_one_compile_per_design(monkeypatch):
    """Per design version: one ``timing_order``, one ``levelize`` and
    one read of the net geometries, whichever analyses run on it."""
    design = random_design(4, 6, seed=3)
    orders, compiles, reads = [], [], []
    real_order, real_compile = Design.timing_order, timing.levelize
    real_read = timing._net_geometries

    def order(self):
        orders.append(self.name)
        return real_order(self)

    def compile_(d):
        compiles.append(d.name)
        return real_compile(d)

    def read(d, wire_load, net_overrides):
        reads.append(d.name)
        return real_read(d, wire_load, net_overrides)

    def counts():
        return len(orders), len(compiles), len(reads)

    monkeypatch.setattr(Design, "timing_order", order)
    monkeypatch.setattr(timing, "levelize", compile_)
    monkeypatch.setattr(timing, "_net_geometries", read)
    result = analyze(design)
    analyze_ssta(design, MODEL, nominal=result)
    monte_carlo_arrivals(design, MODEL, 8, nominal=result)
    compute_slacks(design, result, 1e-9)
    assert counts() == (1, 1, 1)
    analyze_ssta(design, MODEL)
    analyze(design, "d2m", jobs=1)
    monte_carlo_arrivals(design, MODEL, 8)
    validate_against_monte_carlo(design, MODEL, samples=8)
    assert counts() == (1, 1, 1)
    gate = design.instances["g0_0"]
    assert gate.cell.name == "OR2"
    gate.cell = design.library.get("AND2")  # the same pins
    analyze(design)
    analyze_ssta(design, MODEL)
    assert counts() == (2, 2, 2)


@pytest.mark.parametrize("walk", [
    lambda d, r: compute_slacks(d, r, 1e-9),
    lambda d, r: analyze_ssta(d, MODEL, nominal=r),
    lambda d, r: monte_carlo_arrivals(d, MODEL, 10, nominal=r),
], ids=["compute_slacks", "analyze_ssta", "monte_carlo_arrivals"])
def test_a_result_refuses_another_design(walk):
    result = analyze(random_design(4, 6, seed=3))
    other = random_design(5, 8, seed=2)
    lacks = next(pin for pin in other._pin_to_net
                 if pin not in result.arrival)
    with pytest.raises(TimingGraphError,
                       match=f"another design .*: it has no pin {lacks}$"):
        walk(other, result)
