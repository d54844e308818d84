"""One flat forest per shard against the per-net references.

:func:`~repro.sta.interconnect.net_forest` appends every
:func:`~repro.sta.interconnect.net_record` of a shard straight to
shard-wide parent/R/C lists.  It must give what building each net by
its slower reference and compiling the nets side by side gives: a
routed net through ``route_segments`` + ``layout_segments`` (two
sections per segment), a wire-load net as the node-by-node ``add_node``
star, an override net as its own tree, all through ``compile_forest``.
That is the same parents, R, C, node names, offsets, sink indices and
levels, bit for bit, whatever the mix of kinds, technologies and
widths.  On bad records it must raise the same exception type and
message: the first error raised while a net is laid out (routing, wire
width, a routed net's driver, a pin load), else the first bad R or C in
forest order, else a capacitance-free net's.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._exceptions import ReproError, ValidationError
from repro.circuit import RCTree
from repro.circuit.wires import DEFAULT_TECHNOLOGY, WireTechnology
from repro.core.batch import compile_forest
from repro.sta import NetGeometry, Pin
from repro.sta.interconnect import WireLoadModel, net_forest, net_record
from tests.sta.test_routed_layout import reference_arrays

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
_driver = st.floats(1.0, 5e3)
#: Two layers; the second rejects widths below 0.8 um.
_TECHNOLOGIES = [
    DEFAULT_TECHNOLOGY,
    WireTechnology(sheet_resistance=0.07, area_capacitance=2e-5,
                   fringe_capacitance=6e-11, min_width=0.8e-6,
                   name="thin"),
]
# No wire capacitance at all: with zero loads the net carries none.
_BARE = WireTechnology(sheet_resistance=0.04, area_capacitance=0.0,
                       fringe_capacitance=0.0, name="bare")


def listed_pins(draw, most=8):
    """1-``most`` listed sink pins; a pin may be listed twice."""
    return [Pin(f"u{k}", "a") for k in
            draw(st.lists(st.integers(0, 5), min_size=1, max_size=most))]


@st.composite
def routed(draw):
    pins = listed_pins(draw)
    where = {pin: draw(_point) for pin in dict.fromkeys(pins)}
    return NetGeometry(
        net="n", sinks=tuple(pins), driver_resistance=draw(_driver),
        driver_position=draw(_point),
        sink_positions=tuple(where[pin] for pin in pins),
        sink_loads=tuple(draw(_load) for _ in pins),
        technology=draw(st.sampled_from(_TECHNOLOGIES)),
        wire_width=draw(st.sampled_from([1e-6, 2.5e-6])),
    )


@st.composite
def star(draw):
    pins = listed_pins(draw)
    return NetGeometry(
        net="n", sinks=tuple(pins), driver_resistance=draw(_driver),
        sink_loads=tuple(draw(_load) for _ in pins),
        wire_load=WireLoadModel(draw(st.floats(1.0, 500.0)),
                                draw(st.sampled_from([1e-15, 5e-15]))),
    )


@st.composite
def override(draw):
    """A caller's tree of 1-5 nodes, any of them a root, with 1-7 sink
    pins, several of which may sit on one node."""
    n = draw(st.integers(1, 5))
    parents = [-1] + [draw(st.integers(-1, i - 1)) for i in range(1, n)]
    names = ["drv"] + [f"n{i}" for i in range(1, n)]
    caps = [draw(st.sampled_from([0.0, 1e-15, 7e-15])) for _ in range(n)]
    caps[draw(st.integers(0, n - 1))] = 3e-15  # some capacitance
    tree = RCTree.from_arrays(
        "in", names, parents,
        [draw(st.floats(1.0, 1e4)) for _ in range(n)], caps)
    nodes = draw(st.lists(st.sampled_from(names), min_size=1, max_size=7))
    mapping = {Pin(f"u{k}", "a"): node for k, node in enumerate(nodes)}
    return NetGeometry(net="n", sinks=tuple(mapping),
                       override=(tree, mapping))


def _last_load(geometry, value):
    # The last listed sink is always kept, so its load is always read.
    return geometry._replace(sink_loads=geometry.sink_loads[:-1] + (value,))


#: Faults of a routed or star net; each draws its own value, so the
#: first bad net's message tells it apart from a later one's.
_FAULTS = {
    "nan coordinate": lambda g, k: g._replace(
        sink_positions=g.sink_positions[:-1]
        + ((g.sink_positions[-1][0], math.nan),)) if g.sink_positions
    else g,
    # On a star net this gives a routed net with no sink positions.
    "infinite coordinate": lambda g, k: g._replace(
        driver_position=(math.inf, 0.0)),
    "zero driver": lambda g, k: g._replace(driver_resistance=0.0),
    "negative driver": lambda g, k: g._replace(driver_resistance=-k),
    "nan driver": lambda g, k: g._replace(driver_resistance=math.nan),
    "thin wire": lambda g, k: g._replace(technology=_TECHNOLOGIES[1],
                                         wire_width=k * 1e-7),
    "negative load": lambda g, k: _last_load(g, -k * 1e-15),
    "nan load": lambda g, k: _last_load(g, math.nan),
    "no capacitance": lambda g, k: g._replace(
        sink_loads=(0.0,) * len(g.sinks), technology=_BARE,
        wire_load=WireLoadModel(g.wire_load.resistance_per_sink, 0.0)),
}


@st.composite
def faulty(draw):
    """A routed or star net with one fault (a star net keeps no
    coordinate to make NaN, and ignores the wire technology)."""
    geometry = draw(st.one_of(routed(), star()))
    fault = draw(st.sampled_from(sorted(_FAULTS)))
    return _FAULTS[fault](geometry, draw(st.integers(1, 7)))


def outcome(lay_out):
    try:
        return lay_out()
    except ReproError as exc:
        return type(exc), str(exc)


#: How an R or C element error begins (``RCTree.add_node``'s checks).
_ELEMENT_ERRORS = ("edge into node ", "node ")


def reference(geometries):
    """Each net built by its reference, the nets compiled side by side.

    The ``add_node`` star checks its edges as it builds them; such an
    error is held back to its net's place among the R/C checks."""
    nets = []
    for geometry in geometries:
        try:
            nets.append(reference_arrays(geometry))
        except ValidationError as exc:
            if not str(exc).startswith(_ELEMENT_ERRORS):
                raise
            nets.append(exc)
    for net in nets:
        if isinstance(net, Exception):
            raise net
        RCTree.from_arrays(*net[:5])  # the first bad R or C
    topology, offsets = compile_forest(nets)
    sinks = [offset + sink for net, offset in zip(nets, offsets)
             for sink in net.sinks]
    return topology, offsets, sinks, [len(net.sinks) for net in nets]


def check(geometries):
    records = [net_record(g) for g in geometries]
    want = outcome(lambda: reference(geometries))
    got = outcome(lambda: net_forest(records))
    if isinstance(want, tuple) and isinstance(want[0], type):
        assert got == want
        return
    topology, offsets, sinks, counts = want
    assert got.offsets == offsets
    assert got.sinks.tolist() == sinks and got.counts == counts
    have = got.topology
    for field in ("parents", "resistances", "capacitances"):
        assert getattr(have, field).tobytes() == \
            getattr(topology, field).tobytes(), field
    for mine, theirs in ((have.levels, topology.levels),
                         (have.level_parents, topology.level_parents)):
        assert [a.tobytes() for a in mine] == [a.tobytes() for a in theirs]
    assert tuple(have.node_names) == tuple(topology.node_names)


_nets = st.lists(st.one_of(routed(), star(), override()),
                 min_size=1, max_size=6)


@settings(max_examples=300, deadline=None)
@given(geometries=_nets)
def test_one_pass_forest_matches_the_per_net_layout(geometries):
    check(geometries)


@settings(max_examples=300, deadline=None)
@given(geometries=_nets, bad=st.lists(faulty(), min_size=1, max_size=3),
       where=st.lists(st.integers(0, 8), min_size=3, max_size=3))
def test_bad_records_raise_the_first_bad_nets_error(geometries, bad,
                                                    where):
    for geometry, at in zip(bad, where):
        geometries.insert(min(at, len(geometries)), geometry)
    check(geometries)


def test_the_sweep_reads_sinks_by_forest_index():
    # Two routed nets of one sink each, then a star of two.
    geometries = [
        NetGeometry(net="n", sinks=(Pin("u1", "a"),), driver_resistance=50.0,
                    driver_position=(0.0, 0.0), sink_positions=((1e-6, 0.0),),
                    sink_loads=(5e-15,))
        for _ in range(2)
    ] + [NetGeometry(net="s", sinks=(Pin("u1", "a"), Pin("u2", "a")),
                     driver_resistance=80.0, sink_loads=(5e-15, 9e-15))]
    forest = net_forest([net_record(g) for g in geometries])
    assert forest.offsets == (0, 3, 6)
    assert forest.sinks.tolist() == [2, 5, 7, 8]
    assert forest.counts == [1, 1, 2]
    np.testing.assert_array_equal(forest.topology.parents,
                                  [-1, 0, 1, -1, 3, 4, -1, 6, 6])
