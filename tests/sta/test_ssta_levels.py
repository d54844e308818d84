"""The levelised SSTA and Monte-Carlo walks against the scalar oracle.

``analyze_ssta`` folds whole levels of gates at once over dense label
blocks; ``tests/sta/ssta_oracle.py`` keeps the dict walk it replaced.
Every arrival's mean and sigma, every label coefficient of the lazily
built forms, the critical form and every criticality must agree to
1e-9 relative, and the Monte-Carlo walk must agree bit for bit.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.circuit import rc_line
from repro.core.sensitivity import (
    elmore_sensitivity,
    elmore_sensitivity_arrays,
)
from repro.core.variation import VariationModel
from repro.sta import Design, Pin, default_library
from repro.sta.ssta import ProcessModel, analyze_ssta, monte_carlo_arrivals
from repro.workloads import random_design
from tests.sta.ssta_oracle import monte_carlo_walk, ssta_walk
from tests.sta.test_geometry import mixed_design, overrides

MODEL = ProcessModel(
    VariationModel(resistance_sigma=0.08, capacitance_sigma=0.08),
    rho_r=0.5, rho_c=0.5, cell_sigma=0.05, rho_cell=0.5,
)
REL = 1e-9
#: A Clark residual minted from a deficit at the rounding level of the
#: variance (``var - var_linear`` of order 1e-14 var) exists in one walk
#: and not the other, or differs in size: its sign and size are rounding.
#: Such a label is held to its variance share instead, to 1e-12, plus
#: the rounding of Clark's variance itself: ``second - mean * mean``
#: cancels ``second`` ~ ``mu**2 + sigma**2`` down to ``sigma**2``, so the
#: two walks' variances (and squared residuals) may differ by a few ulps
#: of ``mu**2 + sigma**2``, which above mu/sigma ~ 70 exceeds 1e-12 of
#: ``sigma**2``.
ROUNDING_SHARE = 1e-12
CLARK_ULPS = 4 * np.finfo(np.float64).eps


def assert_forms_match(got, want):
    assert got.mu == pytest.approx(want.mu, rel=REL)
    assert got.sigma == pytest.approx(want.sigma, rel=REL, abs=1e-30)
    scale = max(want.sigma, 1e-300)
    np.testing.assert_allclose(got.a, want.a, rtol=0.0, atol=REL * scale)
    for label in set(got.resid) | set(want.resid):
        g = got.resid.get(label, 0.0)
        w = want.resid.get(label, 0.0)
        if abs(g - w) <= REL * scale:
            continue
        assert label.startswith("max"), label
        rounding = (ROUNDING_SHARE * scale * scale
                    + CLARK_ULPS * (want.mu * want.mu + scale * scale))
        assert abs(g * g - w * w) <= rounding, label


def assert_reports_match(got, want):
    assert list(got.arrival) == list(want.arrival)
    for pin, form in want.arrival.items():
        assert_forms_match(got.arrival[pin], form)
    assert got.outputs.keys() == want.outputs.keys()
    assert_forms_match(got.critical, want.critical)
    assert got.criticality.keys() == want.criticality.keys()
    for port, value in want.criticality.items():
        assert got.criticality[port] == pytest.approx(value, rel=REL,
                                                      abs=REL)
    assert got.pin_criticality.keys() == want.pin_criticality.keys()
    for pin, value in want.pin_criticality.items():
        assert got.pin_criticality[pin] == pytest.approx(value, rel=REL,
                                                         abs=REL)


def tie_design(positioned: bool) -> Design:
    """Gates whose two inputs sit on one net: with the wire variation
    fully shared their candidates are equal, so Clark's max is a tie."""
    d = Design("tie", default_library())
    for port in ("a", "b"):
        d.add_input(port)
    d.add_output("z")
    d.add_output("w")
    at = (lambda x, y: (x * 1e-6, y * 1e-6)) if positioned else \
        (lambda x, y: None)
    d.add_instance("u1", "NAND2", position=at(40, 0))
    d.add_instance("u2", "NOR2", position=at(80, 10))
    d.add_instance("u3", "AND2", position=at(80, -10))
    d.connect("na", ("@port", "a"), [("u1", "a"), ("u1", "b")])
    d.connect("n1", ("u1", "y"), [("u2", "a"), ("u3", "a"), ("u3", "b")])
    d.connect("nb", ("@port", "b"), [("u2", "b")])
    d.connect("nz", ("u2", "y"), [("@port", "z")])
    d.connect("nw", ("u3", "y"), [("@port", "w")])
    return d


class TestAgainstScalarWalk:
    @pytest.mark.parametrize("layers, width, seed",
                             [(8, 40, 1), (8, 40, 2), (20, 50, 1)])
    def test_random_designs(self, layers, width, seed):
        design = random_design(layers, width, seed=seed)
        assert_reports_match(analyze_ssta(design, MODEL),
                             ssta_walk(design, MODEL))

    def test_duplicate_sinks_and_override_net(self):
        design = mixed_design()
        got = analyze_ssta(design, MODEL, net_overrides=overrides())
        want = ssta_walk(design, MODEL, net_overrides=overrides())
        assert_reports_match(got, want)

    @pytest.mark.parametrize("positioned", [False, True])
    def test_forced_tie(self, positioned):
        design = tie_design(positioned)
        model = ProcessModel(MODEL.variation, rho_r=1.0, rho_c=1.0,
                             cell_sigma=0.05, rho_cell=0.5)
        got = analyze_ssta(design, model)
        assert_reports_match(got, ssta_walk(design, model))
        # The tie keeps the first operand whole: no Clark label, and
        # the second input gets none of the criticality.
        assert not any(label.startswith("max:u1")
                       for label in got.arrival[Pin("u1", "y")].resid)
        assert got.pin_criticality[Pin("u1", "b")] == 0.0
        assert got.pin_criticality[Pin("u1", "a")] > 0.0

    @settings(max_examples=25, deadline=None)
    # Clark residuals off by 0.6-0.8 ulps of mu**2 at mu/sigma of 47-87.
    @example(design=random_design(2, 3, seed=587), cell_sigma=0.0, rho=0.3,
             arrival=1.1749879017625256e-12)
    @example(design=random_design(4, 5, seed=55819), cell_sigma=0.0,
             rho=0.0, arrival=7.186160476612308e-12)
    @given(design=st.one_of(
               st.builds(random_design, st.integers(1, 4),
                         st.integers(1, 5), seed=st.integers(0, 2**16)),
               st.builds(tie_design, st.booleans())),
           cell_sigma=st.sampled_from([0.0, 0.05]),
           rho=st.sampled_from([0.0, 0.3, 1.0]),
           arrival=st.floats(0.0, 5e-11))
    def test_small_designs(self, design, cell_sigma, rho, arrival):
        # Random designs put outputs on several levels; the tie design
        # with rho = 1 forces Clark ties.
        model = ProcessModel(MODEL.variation, rho_r=rho, rho_c=rho,
                             cell_sigma=cell_sigma, rho_cell=rho)
        arrivals = {design.inputs[0]: arrival}
        got = analyze_ssta(design, model, input_arrivals=arrivals)
        assert_reports_match(
            got, ssta_walk(design, model, input_arrivals=arrivals))
        if rho == 1.0:  # every source shared: no residual columns
            assert all(not label.startswith(("net:", "cell:"))
                       for form in got.arrival.values()
                       for label in form.resid)


class TestLabelNamespaces:
    @staticmethod
    def design(cell_net: str, q0: str, outputs: str) -> Design:
        """A net and an instance whose names once minted the same
        label, and an instance whose Clark label once equalled the
        output fold's."""
        d = Design("names", default_library())
        d.add_input("a")
        d.add_input("b")
        d.add_output("z1")
        d.add_output("z2")
        d.add_instance(q0, "INV", position=(40e-6, 0.0))
        d.add_instance(outputs, "NAND2", position=(80e-6, 5e-6))
        d.add_instance("g1", "INV", position=(120e-6, 0.0))
        d.add_instance("g2", "BUF", position=(120e-6, 20e-6))
        d.connect(cell_net, ("@port", "a"), [(q0, "a")])
        d.connect("nq", (q0, "y"), [(outputs, "a")])
        d.connect("nb", ("@port", "b"), [(outputs, "b")])
        d.connect("no", (outputs, "y"), [("g1", "a"), ("g2", "a")])
        d.connect("n1", ("g1", "y"), [("@port", "z1")])
        d.connect("n2", ("g2", "y"), [("@port", "z2")])
        return d

    def test_renaming_moves_nothing(self):
        model = ProcessModel(MODEL.variation, rho_r=0.3, rho_c=0.3,
                             cell_sigma=0.08, rho_cell=0.3)
        names = {"cell": "wire", "q0": "inv", "outputs": "nand"}
        clash = analyze_ssta(self.design("cell", "q0", "outputs"), model)
        clean = analyze_ssta(self.design(*names.values()), model)
        # The clash design really holds both would-be duplicates.
        labels = set(clash.critical.resid)
        assert {"net:cell.q0", "cell:q0", "max:outputs#1",
                "max.outputs#1"} <= labels
        for pin, form in clash.arrival.items():
            other = clean.arrival[Pin(names.get(pin.instance, pin.instance),
                                      pin.pin)]
            assert form.mu == pytest.approx(other.mu, rel=1e-12)
            assert form.sigma == pytest.approx(other.sigma, rel=1e-12)
        for attr in ("mu", "sigma"):
            assert getattr(clash.critical, attr) == pytest.approx(
                getattr(clean.critical, attr), rel=1e-12)
        required = clean.critical.quantile(0.9)
        assert clash.fail_probability(required) == pytest.approx(
            clean.fail_probability(required), rel=1e-12)


class TestMonteCarloWalk:
    @pytest.mark.parametrize("design, kwargs", [
        (random_design(4, 6, seed=3), {}),
        (random_design(6, 10, seed=5), {"input_arrivals": {"i0": 2e-11}}),
        (mixed_design(), {}),
    ])
    def test_bit_identical_to_the_dict_walk(self, design, kwargs):
        ports, got = monte_carlo_arrivals(design, MODEL, 300, seed=17,
                                          **kwargs)
        want_ports, want = monte_carlo_walk(design, MODEL, 300, seed=17,
                                            **kwargs)
        assert ports == want_ports
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_sensitivities_of_a_long_line_need_no_square_matrix():
    tree = rc_line(10_000, 2.0, 1e-16)
    sinks = [tree.num_nodes - 1, 4_999, 17]
    tracemalloc.start()
    try:
        d_r, d_c = elmore_sensitivity_arrays(
            tree.parents.tolist(), tree.resistances, tree.capacitances,
            sinks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # N^2 booleans would be 100 MB; three rows and the O(N) path
    # arrays take about 2 MB.
    assert peak < tree.num_nodes ** 2 / 20
    for row, node in enumerate(sinks):
        ref = elmore_sensitivity(tree, tree.name_of(node))
        np.testing.assert_allclose(d_r[row], ref.dR, rtol=1e-12)
        np.testing.assert_allclose(d_c[row], ref.dC, rtol=1e-12)
    assert math.isclose(d_c[0, -1], float(tree.resistances.sum()),
                        rel_tol=1e-12)
