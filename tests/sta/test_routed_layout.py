"""The one net layout against its slower references.

:func:`~repro.sta.interconnect.net_arrays` lays a routed net out straight
from its MST's index edges.  It must give the arrays of
``route_segments`` + ``layout_segments(sections_per_segment=2)`` (the
general Steiner/N-section path behind ``route_net``) bit for bit,
including Kruskal's ``(weight, i, j)`` tie order, coincident pins
(``_MIN_SEGMENT``) and pins listed twice, and raise the same exception
type on bad input.  A wire-load net must give the star the node-by-node
``RCTree.add_node``/``add_load`` construction builds, bit for bit.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._exceptions import ReproError
from repro.circuit import RCTree
from repro.circuit.wires import DEFAULT_TECHNOLOGY, layout_segments
from repro.routing.steiner import route_segments
from repro.sta import NetArrays, NetGeometry, Pin, WireLoadModel, net_arrays

_free = st.tuples(
    st.floats(-1e-3, 1e-3, allow_nan=False),
    st.floats(-1e-3, 1e-3, allow_nan=False),
)
# A 4x4 grid of 1 um pitch: many equal-length pairs and coincident pins.
_grid = st.tuples(st.integers(0, 3), st.integers(0, 3)).map(
    lambda p: (p[0] * 1e-6, p[1] * 1e-6)
)
_point = st.one_of(_free, _grid)
_load = st.sampled_from([0.0, 5e-15, 9e-15, 12e-15])
_width = st.sampled_from([0.5e-6, 1e-6, 2.5e-6])

#: Faults the two paths must reject with the same exception type.
_FAULTS = {
    "coordinate": lambda g: g._replace(
        sink_positions=g.sink_positions[:-1]
        + ((g.sink_positions[-1][0], math.nan),)),
    "infinite": lambda g: g._replace(driver_position=(math.inf, 0.0)),
    "resistance": lambda g: g._replace(driver_resistance=0.0),
    "negative resistance": lambda g: g._replace(driver_resistance=-50.0),
    "width": lambda g: g._replace(wire_width=0.1e-6),
    # The last listed sink is always kept, so its load is always read.
    "load": lambda g: g._replace(sink_loads=g.sink_loads[:-1] + (-1e-15,)),
    "nan load": lambda g: g._replace(sink_loads=g.sink_loads[:-1]
                                     + (math.nan,)),
    "infinite load": lambda g: g._replace(sink_loads=g.sink_loads[:-1]
                                          + (math.inf,)),
}


@st.composite
def routed_geometries(draw):
    """A routed net of 1-8 listed sinks; a pin may be listed twice (at
    its one position), and distinct pins may share a position."""
    pins = draw(st.lists(st.integers(0, 5), min_size=1, max_size=8))
    where = {pin: draw(_point) for pin in dict.fromkeys(pins)}
    return NetGeometry(
        net="n",
        sinks=tuple(Pin(f"u{pin}", "a") for pin in pins),
        driver_resistance=draw(st.floats(1.0, 5e3)),
        driver_position=draw(_point),
        sink_positions=tuple(where[pin] for pin in pins),
        sink_loads=tuple(draw(_load) for _ in pins),
        technology=DEFAULT_TECHNOLOGY,
        wire_width=draw(_width),
    )


@st.composite
def star_geometries(draw):
    """A wire-load net of 1-8 listed sinks; a pin may be listed twice."""
    pins = draw(st.lists(st.integers(0, 5), min_size=1, max_size=8))
    return NetGeometry(
        net="n",
        sinks=tuple(Pin(f"u{pin}", "a") for pin in pins),
        driver_resistance=draw(st.floats(1.0, 5e3)),
        sink_loads=tuple(draw(_load) for _ in pins),
        wire_load=WireLoadModel(draw(st.floats(1.0, 500.0)),
                                draw(st.sampled_from([0.0, 1e-15, 5e-15]))),
    )


def reference_arrays(geometry):
    """Any net by its slower reference: a routed net by
    :func:`reference_routed`, a wire-load net by :func:`reference_star`,
    an override net as its own tree."""
    if geometry.override is not None:
        tree, mapping = geometry.override
        return NetArrays(tree.input_node, *tree.to_arrays(),
                         [tree.index_of(node) for node in mapping.values()])
    if geometry.driver_position is None:
        return reference_star(geometry)
    return reference_routed(geometry)


def reference_star(geometry):
    """The star node by node: each sink's ``add_node`` off ``drv``, then
    half its wire capacitance added at ``drv``, then the pin loads."""
    model = geometry.wire_load
    tree = RCTree("in")
    tree.add_node("drv", "in", geometry.driver_resistance, 0.0)
    nodes = []
    for k in range(len(geometry.sinks)):
        tree.add_node(f"s{k}", "drv", model.resistance_per_sink,
                      model.capacitance_per_sink / 2.0)
        tree.add_load("drv", model.capacitance_per_sink / 2.0)
        nodes.append(f"s{k}")
    mapping = dict(zip(geometry.sinks, nodes))
    load_of = dict(zip(geometry.sinks, geometry.sink_loads))
    for sink, node in mapping.items():
        tree.add_load(node, load_of[sink])
    return NetArrays("in", *tree.to_arrays(),
                     [tree.index_of(node) for node in mapping.values()])


def reference_routed(geometry):
    """The general path: wire segments, then the name-keyed layout."""
    segments, nodes = route_segments(
        geometry.driver_position, geometry.sink_positions,
        geometry.technology, geometry.wire_width,
    )
    sinks = geometry.sinks
    kept = dict(zip(sinks, range(len(sinks)))).values()
    layout = layout_segments(
        segments, geometry.driver_resistance,
        {nodes[k]: geometry.sink_loads[k] for k in kept},
        sections_per_segment=2,
    )
    return NetArrays("in", *layout[:4], [layout.index[nodes[k]]
                                         for k in kept])


def outcome(layout, geometry):
    """The arrays, or the type of the library error raised."""
    try:
        return layout(geometry)
    except ReproError as exc:
        return type(exc)


def assert_bit_identical(got, want):
    assert got.input_node == want.input_node
    assert list(got.node_names) == list(want.node_names)
    assert list(got.parents) == list(want.parents)
    for field in ("resistances", "capacitances"):
        assert np.asarray(getattr(got, field)).tobytes() == \
            np.asarray(getattr(want, field)).tobytes(), field
    assert list(got.sinks) == list(want.sinks)


class TestDirectLayout:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(routed_geometries(), star_geometries()))
    def test_bit_identical_to_the_general_route(self, geometry):
        assert_bit_identical(net_arrays(geometry),
                             reference_arrays(geometry))

    @settings(max_examples=150, deadline=None)
    @given(routed_geometries(), st.sampled_from(sorted(_FAULTS)))
    def test_same_exception_type(self, geometry, fault):
        bad = _FAULTS[fault](geometry)
        got = outcome(net_arrays, bad)
        want = outcome(reference_routed, bad)
        assert isinstance(want, type), f"{fault} was not rejected"
        assert got is want

    def test_coincident_pins_get_the_minimum_segment(self):
        geometry = NetGeometry(
            net="n", sinks=(Pin("u1", "a"), Pin("u2", "a")),
            driver_resistance=100.0, driver_position=(0.0, 0.0),
            sink_positions=((0.0, 0.0), (0.0, 0.0)),
            sink_loads=(1e-15, 2e-15),
        )
        got = net_arrays(geometry)
        assert_bit_identical(got, reference_routed(geometry))
        assert got.node_names == ["drv", "p1.s1", "p1", "p2.s1", "p2"]
        assert got.resistances[1] > 0.0
