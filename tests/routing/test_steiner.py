"""Unit tests for the rectilinear routing substrate."""

import numpy as np
import pytest

from repro._exceptions import RoutingError, ValidationError
from repro.circuit import tree_from_segments
from repro.core import elmore_delay
from repro.resilience.checkpoint import tree_fingerprint
from repro.routing import (
    manhattan,
    one_steiner_refinement,
    rectilinear_mst,
    route_net,
    route_segments,
    total_wire_length,
)


class TestManhattanAndMST:
    def test_manhattan(self):
        assert manhattan((0, 0), (3, 4)) == 7.0
        assert manhattan((1, 1), (1, 1)) == 0.0

    def test_mst_is_spanning_tree(self):
        points = [(0, 0), (1, 0), (1, 2), (4, 2), (0, 3)]
        tree = rectilinear_mst(points)
        assert tree.number_of_nodes() == 5
        assert tree.number_of_edges() == 4

    def test_mst_collinear_chain(self):
        points = [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (3.0, 0.0)]
        tree = rectilinear_mst(points)
        assert total_wire_length(tree) == pytest.approx(3.0)

    def test_mst_needs_two_points(self):
        with pytest.raises(RoutingError):
            rectilinear_mst([(0, 0)])


class TestSteinerRefinement:
    def test_classic_three_pin_improvement(self):
        """Three corner pins: the Hanan point saves wirelength."""
        points = [(0.0, 0.0), (2.0, 0.0), (0.0, 2.0), (2.0, 2.0)]
        base = total_wire_length(rectilinear_mst(points))
        refined_points, refined = one_steiner_refinement(points)
        assert total_wire_length(refined) <= base

    def test_l_shaped_pins_gain(self):
        points = [(0.0, 0.0), (10.0, 1.0), (1.0, 10.0)]
        base = total_wire_length(rectilinear_mst(points))
        _, refined = one_steiner_refinement(points)
        assert total_wire_length(refined) < base

    def test_no_gain_on_collinear(self):
        points = [(0.0, 0.0), (5.0, 0.0), (9.0, 0.0)]
        refined_points, refined = one_steiner_refinement(points)
        assert len(refined_points) == 3  # nothing added

    def test_originals_preserved_in_order(self):
        points = [(0.0, 0.0), (10.0, 1.0), (1.0, 10.0)]
        refined_points, _ = one_steiner_refinement(points)
        assert refined_points[:3] == points


class TestRouteNet:
    def test_basic_routing(self):
        tree, sinks = route_net(
            driver_position=(0.0, 0.0),
            sink_positions=[(500e-6, 0.0), (0.0, 300e-6)],
            driver_resistance=200.0,
        )
        tree.validate()
        assert len(sinks) == 2
        for node in sinks:
            assert node in tree

    def test_closer_sink_has_smaller_elmore(self):
        tree, sinks = route_net(
            driver_position=(0.0, 0.0),
            sink_positions=[(100e-6, 0.0), (2000e-6, 0.0)],
            driver_resistance=200.0,
        )
        assert elmore_delay(tree, sinks[0]) < elmore_delay(tree, sinks[1])

    def test_pin_loads_slow_the_net(self):
        kwargs = dict(
            driver_position=(0.0, 0.0),
            sink_positions=[(500e-6, 0.0)],
            driver_resistance=200.0,
        )
        bare, s_bare = route_net(**kwargs)
        loaded, s_loaded = route_net(pin_loads=[50e-15], **kwargs)
        assert elmore_delay(loaded, s_loaded[0]) > \
            elmore_delay(bare, s_bare[0])

    def test_steiner_routing_runs(self):
        tree, sinks = route_net(
            driver_position=(0.0, 0.0),
            sink_positions=[(10e-6, 500e-6), (500e-6, 10e-6),
                            (500e-6, 500e-6)],
            driver_resistance=150.0,
            use_steiner=True,
        )
        tree.validate()
        assert len(sinks) == 3

    def test_coincident_pins_handled(self):
        tree, sinks = route_net(
            driver_position=(0.0, 0.0),
            sink_positions=[(0.0, 0.0)],  # sink on top of the driver
            driver_resistance=100.0,
        )
        tree.validate()
        assert sinks[0] in tree

    def test_validation(self):
        with pytest.raises(RoutingError):
            route_net((0, 0), [], 100.0)
        with pytest.raises(RoutingError):
            route_net((0, 0), [(1e-6, 0)], 100.0, pin_loads=[1e-15, 2e-15])

    @pytest.mark.parametrize("bad", [1.5, True, 0, "2"])
    def test_sections_per_segment_must_be_an_int(self, bad):
        with pytest.raises(ValidationError, match="sections_per_segment"):
            route_net((0.0, 0.0), [(100e-6, 0.0)], 100.0,
                      sections_per_segment=bad)

    def test_pin_loads_may_be_an_array(self):
        kwargs = dict(driver_position=(0.0, 0.0),
                      sink_positions=[(500e-6, 0.0), (0.0, 300e-6)],
                      driver_resistance=200.0)
        listed, _ = route_net(pin_loads=[5e-15, 0.0], **kwargs)
        arrayed, _ = route_net(pin_loads=np.array([5e-15, 0.0]), **kwargs)
        assert tree_fingerprint(arrayed) == tree_fingerprint(listed)

    @pytest.mark.parametrize("use_steiner", [False, True])
    def test_route_segments_lay_out_to_route_net(self, use_steiner):
        driver = (0.0, 0.0)
        sinks = [(10e-6, 500e-6), (500e-6, 10e-6), (500e-6, 500e-6),
                 (10e-6, 500e-6)]
        loads = [3e-15, 0.0, 7e-15, 1e-15]
        tree, nodes = route_net(driver, sinks, 150.0,
                                use_steiner=use_steiner, pin_loads=loads)
        segments, seg_nodes = route_segments(driver, sinks,
                                             use_steiner=use_steiner)
        assert seg_nodes == nodes == ["p1", "p2", "p3", "p4"]
        layout = tree_from_segments(
            segments, 150.0, {n: l for n, l in zip(nodes, loads) if l},
            sections_per_segment=2,
        )
        assert tree_fingerprint(layout) == tree_fingerprint(tree)

    def test_wire_width_tradeoff(self):
        """Wider wire: less resistance, more capacitance. For a long net
        behind a weak driver the capacitance term wins; behind a strong
        driver the resistance term wins."""
        common = dict(
            driver_position=(0.0, 0.0),
            sink_positions=[(3000e-6, 0.0)],
        )
        weak_narrow, s = route_net(
            driver_resistance=5000.0, wire_width=0.6e-6, **common
        )
        weak_wide, _ = route_net(
            driver_resistance=5000.0, wire_width=4e-6, **common
        )
        # Weak driver: wide wire's extra cap dominates -> slower.
        assert elmore_delay(weak_wide, s[0]) > elmore_delay(weak_narrow, s[0])
        strong_narrow, _ = route_net(
            driver_resistance=20.0, wire_width=0.6e-6, **common
        )
        strong_wide, _ = route_net(
            driver_resistance=20.0, wire_width=4e-6, **common
        )
        assert elmore_delay(strong_wide, s[0]) < \
            elmore_delay(strong_narrow, s[0])
