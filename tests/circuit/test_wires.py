"""Unit tests for the geometric wire model."""

import math
import random

import numpy as np
import pytest

from repro._exceptions import TopologyError, ValidationError
from repro.circuit import RCTree
from repro.circuit.wires import (
    DEFAULT_TECHNOLOGY,
    WireSegment,
    WireTechnology,
    layout_segments,
    tree_from_segments,
    wire_rc,
)
from repro.core import elmore_delay
from repro.resilience.checkpoint import tree_fingerprint


class TestWireTechnology:
    def test_resistance_scales_with_squares(self):
        tech = WireTechnology(0.1, 0.0, 0.0)
        # 100 um long, 1 um wide = 100 squares.
        assert tech.segment_resistance(100e-6, 1e-6) == pytest.approx(10.0)

    def test_capacitance_area_plus_fringe(self):
        tech = WireTechnology(0.1, area_capacitance=1e-4,
                              fringe_capacitance=1e-10)
        c = tech.segment_capacitance(10e-6, 2e-6)
        assert c == pytest.approx(1e-4 * 10e-6 * 2e-6 + 2 * 1e-10 * 10e-6)

    def test_min_width_enforced(self):
        tech = WireTechnology(0.1, 0.0, 0.0, min_width=1e-6)
        with pytest.raises(ValidationError):
            tech.segment_resistance(10e-6, 0.5e-6)

    def test_bad_geometry_rejected(self):
        with pytest.raises(ValidationError):
            DEFAULT_TECHNOLOGY.segment_resistance(0.0, 1e-6)
        with pytest.raises(ValidationError):
            DEFAULT_TECHNOLOGY.segment_capacitance(1e-6, -1e-6)

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValidationError):
            WireTechnology(0.0, 1e-4, 1e-10)
        with pytest.raises(ValidationError):
            WireTechnology(0.1, -1e-4, 1e-10)

    def test_wire_rc_helper(self):
        r, c = wire_rc(100e-6, 1e-6)
        assert r > 0 and c > 0


class TestTreeFromSegments:
    def _segments(self):
        return [
            WireSegment("drv", "mid", 100e-6, 1e-6),
            WireSegment("mid", "s1", 50e-6, 1e-6),
            WireSegment("mid", "s2", 80e-6, 1e-6),
        ]

    def test_builds_tree_with_driver(self):
        tree = tree_from_segments(self._segments(), driver_resistance=200.0)
        assert "drv" in tree
        assert "s1" in tree and "s2" in tree
        assert tree.node("drv").resistance == 200.0
        tree.validate()

    def test_total_capacitance_conserved(self):
        segs = self._segments()
        expected = sum(s.capacitance() for s in segs)
        tree = tree_from_segments(segs, driver_resistance=200.0)
        assert tree.total_capacitance() == pytest.approx(expected)

    def test_total_capacitance_conserved_multisection(self):
        segs = self._segments()
        expected = sum(s.capacitance() for s in segs)
        tree = tree_from_segments(segs, driver_resistance=200.0,
                                  sections_per_segment=4)
        assert tree.total_capacitance() == pytest.approx(expected)

    def test_pi_sections_preserve_far_end_elmore(self):
        """Pi-splitting preserves the far-end Elmore delay exactly at any
        section count: T_D = R_drv * C_wire + R_wire * C_wire / 2 (the
        distributed-wire value)."""
        seg = WireSegment("drv", "s1", 1000e-6, 1e-6)
        r_wire, c_wire = seg.resistance(), seg.capacitance()
        expected = 100.0 * c_wire + r_wire * c_wire / 2.0
        for n in (1, 2, 8, 32):
            tree = tree_from_segments([seg], 100.0, sections_per_segment=n)
            assert elmore_delay(tree, "s1") == pytest.approx(expected)

    def test_more_sections_refine_higher_moments(self):
        """The second moment (variance of h) does move with sectioning and
        converges toward the distributed limit."""
        from repro.core import transfer_moments
        seg = WireSegment("drv", "s1", 1000e-6, 1e-6)
        sigmas = []
        for n in (1, 4, 16, 64):
            tree = tree_from_segments([seg], 100.0, sections_per_segment=n)
            sigmas.append(transfer_moments(tree, 2).sigma("s1"))
        jumps = [abs(b - a) for a, b in zip(sigmas, sigmas[1:])]
        assert jumps[-1] < jumps[0]

    def test_pin_loads_added(self):
        tree = tree_from_segments(
            self._segments(), 200.0, pin_loads={"s1": 10e-15}
        )
        bare = tree_from_segments(self._segments(), 200.0)
        assert tree.node("s1").capacitance == pytest.approx(
            bare.node("s1").capacitance + 10e-15
        )

    def test_rejects_cycles(self):
        segs = self._segments() + [WireSegment("s1", "s2", 10e-6, 1e-6)]
        with pytest.raises(ValidationError):
            tree_from_segments(segs, 200.0)

    def test_rejects_unreachable(self):
        segs = [WireSegment("ghost", "s1", 10e-6, 1e-6)]
        with pytest.raises(ValidationError):
            tree_from_segments(segs, 200.0)

    def test_rejects_bad_args(self):
        with pytest.raises(ValidationError):
            tree_from_segments([], 200.0)
        with pytest.raises(ValidationError):
            tree_from_segments(self._segments(), 0.0)
        with pytest.raises(ValidationError):
            tree_from_segments(self._segments(), 200.0,
                               sections_per_segment=0)


class TestNonFiniteParameters:
    @pytest.mark.parametrize("length,width", [
        (math.nan, 1e-6), (math.inf, 1e-6), (1e-6, math.nan),
        (1e-6, math.inf), (-math.inf, 1e-6),
    ])
    def test_wire_rc_rejects(self, length, width):
        with pytest.raises(ValidationError, match="finite"):
            wire_rc(length, width)

    @pytest.mark.parametrize("kwargs", [
        dict(sheet_resistance=math.nan),
        dict(sheet_resistance=math.inf),
        dict(area_capacitance=math.nan),
        dict(area_capacitance=math.inf),
        dict(fringe_capacitance=math.nan),
        dict(fringe_capacitance=math.inf),
        dict(min_width=math.nan),
        dict(min_width=math.inf),
    ], ids=lambda kw: "-".join(f"{k}={v}" for k, v in kw.items()))
    def test_technology_rejects(self, kwargs):
        params = dict(sheet_resistance=0.04, area_capacitance=3e-5,
                      fringe_capacitance=4e-11, min_width=0.5e-6)
        params.update(kwargs)
        with pytest.raises(ValidationError, match="finite"):
            WireTechnology(**params)

    def test_finite_technology_still_accepted(self):
        tech = WireTechnology(0.04, 0.0, 0.0, min_width=0.0)
        assert tech.segment_resistance(1e-6, 1e-6) == pytest.approx(0.04)


class TestSectionsPerSegment:
    SEGS = [WireSegment("drv", "s1", 50e-6, 1e-6)]

    @pytest.mark.parametrize("bad", [1.5, 2.0, True, False, "2", None, 0,
                                     -1])
    def test_rejects_non_int(self, bad):
        with pytest.raises(ValidationError, match="sections_per_segment"):
            tree_from_segments(self.SEGS, 100.0, sections_per_segment=bad)
        with pytest.raises(ValidationError, match="sections_per_segment"):
            layout_segments(self.SEGS, 100.0, sections_per_segment=bad)

    def test_numpy_int_accepted(self):
        ref = tree_from_segments(self.SEGS, 100.0, sections_per_segment=3)
        got = tree_from_segments(self.SEGS, 100.0,
                                 sections_per_segment=np.int64(3))
        assert tree_fingerprint(got) == tree_fingerprint(ref)


def reference_tree(segments, driver_resistance, pin_loads=None,
                   input_node="in", driver_node="drv",
                   sections_per_segment=1):
    """The node-by-node ``add_node``/``add_load`` layout the array emitter
    must reproduce bit for bit."""
    by_parent = {}
    for seg in segments:
        by_parent.setdefault(seg.parent, []).append(seg)
    tree = RCTree(input_node)
    tree.add_node(driver_node, input_node, driver_resistance, 0.0)
    stack = [driver_node]
    while stack:
        parent = stack.pop()
        for seg in by_parent.get(parent, ()):
            r_total, c_total = seg.resistance(), seg.capacitance()
            n = sections_per_segment
            attach = parent
            for k in range(1, n + 1):
                name = seg.child if k == n else f"{seg.child}.s{k}"
                tree.add_node(name, attach, r_total / n, c_total / (2 * n))
                tree.add_load(attach, c_total / (2 * n))
                attach = name
            stack.append(seg.child)
    for node, load in (pin_loads or {}).items():
        tree.add_load(node, load)
    return tree


def random_segments(rng, count):
    segments = []
    for k in range(1, count + 1):
        parent = "drv" if k == 1 else f"n{rng.randrange(1, k)}"
        segments.append(WireSegment(
            parent, f"n{k}", rng.uniform(1e-7, 1e-3),
            rng.uniform(0.5e-6, 3e-6),
        ))
    rng.shuffle(segments)
    return segments


class TestLayoutSegments:
    @pytest.mark.parametrize("seed", range(12))
    def test_bit_identical_to_add_node_layout(self, seed):
        rng = random.Random(seed)
        segments = random_segments(rng, rng.randrange(1, 25))
        sections = rng.randrange(1, 5)
        children = [s.child for s in segments]
        loads = {node: rng.uniform(0.0, 20e-15)
                 for node in rng.sample(children, len(children) // 2)}
        ref = reference_tree(segments, 321.0, loads,
                             sections_per_segment=sections)
        got = tree_from_segments(segments, 321.0, loads,
                                 sections_per_segment=sections)
        assert tree_fingerprint(got) == tree_fingerprint(ref)
        layout = layout_segments(segments, 321.0, loads,
                                 sections_per_segment=sections)
        assert layout.names == list(ref.node_names)
        assert layout.index == {n: i for i, n in enumerate(layout.names)}
        assert tree_fingerprint(
            RCTree.from_arrays("in", *layout[:4])) == tree_fingerprint(ref)

    def test_duplicate_section_name_is_a_topology_error(self):
        segs = [WireSegment("drv", "a", 10e-6, 1e-6),
                WireSegment("a", "b.s1", 10e-6, 1e-6),
                WireSegment("a", "b", 10e-6, 1e-6)]
        with pytest.raises(TopologyError):
            tree_from_segments(segs, 100.0, sections_per_segment=2)

    def test_child_named_like_input_node(self):
        with pytest.raises(TopologyError):
            tree_from_segments([WireSegment("drv", "in", 10e-6, 1e-6)],
                               100.0)

    @pytest.mark.parametrize("load", [-1e-15, math.nan, math.inf])
    def test_bad_pin_load(self, load):
        with pytest.raises(ValidationError, match="finite"):
            tree_from_segments(branch_segments(), 100.0, {"s1": load})

    def test_pin_load_on_unknown_node(self):
        with pytest.raises(TopologyError):
            tree_from_segments(branch_segments(), 100.0, {"ghost": 1e-15})

    def test_overflowing_wire_rc_rejected_by_the_tree(self):
        seg = WireSegment("drv", "s1", 1e300, 1e-300,
                          WireTechnology(1e10, 0.0, 0.0))
        with pytest.raises(ValidationError, match="non-finite R"):
            tree_from_segments([seg], 100.0)


def branch_segments():
    return [
        WireSegment("drv", "mid", 100e-6, 1e-6),
        WireSegment("mid", "s1", 50e-6, 1e-6),
        WireSegment("mid", "s2", 80e-6, 1e-6),
    ]
