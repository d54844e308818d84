"""Routing order differential suite: the plain-Python Kruskal/BFS route
against networkx.

Routed trees feed STA, SSTA and the HTTP service, whose outputs are pinned
bit for bit, so the spanning tree *and* the order its nodes are inserted
into the RC tree must match what ``nx.minimum_spanning_tree`` and
``nx.bfs_tree`` produce -- including how ties between equal-length pairs
and coincident pins are broken.
"""

import itertools
from unittest import mock

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._exceptions import RoutingError
from repro.circuit.wires import WireSegment, tree_from_segments
from repro.routing import steiner
from repro.routing.steiner import (
    _MIN_SEGMENT,
    manhattan,
    one_steiner_refinement,
    rectilinear_mst,
    route_net,
)
from tests.test_imports import imported_packages

_free = st.tuples(
    st.floats(-1e-3, 1e-3, allow_nan=False),
    st.floats(-1e-3, 1e-3, allow_nan=False),
)
# A 4x4 grid of 1 um pitch: many equal-length pairs and coincident pins.
_grid = st.tuples(st.integers(0, 3), st.integers(0, 3)).map(
    lambda p: (p[0] * 1e-6, p[1] * 1e-6)
)
_point = st.one_of(_free, _grid)


def _nets(max_pins):
    return st.one_of(
        st.lists(_point, min_size=2, max_size=max_pins),
        st.lists(_grid, min_size=2, max_size=max_pins),
    )


def reference_mst(points):
    """The networkx construction routing used before the Kruskal helper."""
    graph = nx.Graph()
    graph.add_nodes_from(range(len(points)))
    for i, j in itertools.combinations(range(len(points)), 2):
        graph.add_edge(i, j, weight=manhattan(points[i], points[j]))
    return nx.minimum_spanning_tree(graph)


def reference_route(points, use_steiner, pin_loads):
    """``route_net`` rebuilt on ``nx.minimum_spanning_tree`` +
    ``nx.bfs_tree``."""
    num_pins = len(points)
    if use_steiner and num_pins >= 4:
        with mock.patch.object(steiner, "rectilinear_mst", reference_mst):
            points, span = one_steiner_refinement(points)
    else:
        span = reference_mst(points)

    def node_name(index):
        if index == 0:
            return "drv"
        if index < num_pins:
            return f"p{index}"
        return f"st{index - num_pins}"

    segments = [
        WireSegment(
            parent=node_name(parent), child=node_name(child),
            length=max(manhattan(points[parent], points[child]),
                       _MIN_SEGMENT),
            width=1e-6, technology=steiner.DEFAULT_TECHNOLOGY,
        )
        for parent, child in nx.bfs_tree(span, 0).edges()
    ]
    loads = {node_name(k + 1): load
             for k, load in enumerate(pin_loads) if load}
    tree = tree_from_segments(segments, driver_resistance=150.0,
                              pin_loads=loads or None, driver_node="drv",
                              sections_per_segment=2)
    return tree, [node_name(k + 1) for k in range(num_pins - 1)]


def rows(tree):
    """The ``(name, parent, R, C)`` insertion sequence of an RC tree."""
    return [
        (v.name, v.parent, v.resistance, v.capacitance)
        for v in map(tree.node, tree.node_names)
    ]


def adjacency(graph):
    return [(n, list(graph.adj[n])) for n in graph]


class TestMSTMatchesNetworkx:
    @settings(max_examples=300, deadline=None)
    @given(_nets(9))
    def test_edges_weights_and_adjacency_order(self, points):
        ours, ref = rectilinear_mst(points), reference_mst(points)
        assert list(ours.nodes) == list(ref.nodes)
        assert list(ours.edges(data="weight")) == \
            list(ref.edges(data="weight"))
        assert adjacency(ours) == adjacency(ref)

    def test_equal_lengths_break_ties_by_pair_order(self):
        # Unit square: the four sides tie at 1 and are taken in pair
        # order (0,1),(0,2),(1,3); (2,3) would close a cycle.
        points = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]
        assert list(rectilinear_mst(points).edges()) == \
            [(0, 1), (0, 2), (1, 3)]

    def test_nan_pin_is_a_routing_error(self):
        with pytest.raises(RoutingError):
            rectilinear_mst([(0.0, 0.0), (float("nan"), 1.0)])


class TestRouteNetMatchesNetworkx:
    @settings(max_examples=200, deadline=None)
    @given(_nets(8), st.data())
    def test_mst_route(self, points, data):
        loads = data.draw(st.lists(
            st.sampled_from([0.0, 5e-15, 12e-15]),
            min_size=len(points) - 1, max_size=len(points) - 1))
        tree, sinks = route_net(points[0], points[1:], 150.0,
                                pin_loads=loads)
        ref_tree, ref_sinks = reference_route(points, False, loads)
        assert sinks == ref_sinks
        assert rows(tree) == rows(ref_tree)

    @settings(max_examples=40, deadline=None)
    @given(_nets(6))
    def test_steiner_route(self, points):
        loads = [4e-15] * (len(points) - 1)
        tree, sinks = route_net(points[0], points[1:], 150.0,
                                use_steiner=True, pin_loads=loads)
        ref_tree, ref_sinks = reference_route(points, True, loads)
        assert sinks == ref_sinks
        assert rows(tree) == rows(ref_tree)


def test_mst_route_makes_no_networkx_call():
    """An MST route in a fresh interpreter never even imports networkx."""
    assert "networkx" not in imported_packages("-c", """
from repro.routing.steiner import route_net
tree, sinks = route_net((0.0, 0.0), [(2e-4, 0.0), (0.0, 2e-4),
                                     (2e-4, 2e-4), (0.0, 0.0)], 150.0)
tree.validate()
assert sinks == ["p1", "p2", "p3", "p4"]
""")
