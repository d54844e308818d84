"""Net-to-RC-tree elaboration for the miniature STA.

Each net is turned into an :class:`~repro.circuit.rctree.RCTree` rooted at
the driving gate's internal source:

* the first resistor is the driver's linearized output resistance (the
  paper's Fig. 1/2 model);
* wire RC comes from one of three sources, in priority order:
  an explicit per-net tree override, routed geometry (instance positions +
  the routing substrate), or a fanout-based wire-load model;
* every sink pin's input capacitance is added as a load at its tree node.

The returned mapping ``sink pin -> tree node name`` lets the timing engine
query per-sink delays.

Elaboration is two steps: :func:`net_geometry` reads a net's routing
inputs off the design into a :class:`NetGeometry`, and :func:`net_arrays`
lays that record out as flat parent/R/C arrays (:class:`NetArrays`); a
routed net goes straight from its rectilinear MST's index edges to the
arrays, with no wire segments or name-keyed maps.  :func:`build_net` is
the tree over those arrays (:meth:`RCTree.from_arrays`).  The STA
reads each net as the plain :func:`net_record` tuple of what its layout
reads and lays each shard into one flat forest with :func:`net_forest`,
once per design version (a pool worker, once per attachment of the
version's published records).  One appender per kind of net (routed, wire-load
star, override) is the only code that lays a record out: ``net_forest``
runs it for every net of a shard, and :func:`record_arrays` runs it for
one net and names the nodes afterwards, so shard tasks and the parent's
trees see identical nets.  The tests hold that layout to its slower
references: :func:`~repro.routing.steiner.route_segments` +
:func:`~repro.circuit.wires.layout_segments` for a routed net and the
node-by-node :meth:`RCTree.add_node` star for a wire-load net.
"""

from __future__ import annotations

import math
from collections.abc import Sequence as _SequenceABC
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro._exceptions import RoutingError, TimingGraphError, ValidationError
from repro.circuit.rctree import RCTree, checked_load
from repro.circuit.wires import DEFAULT_TECHNOLOGY, WireTechnology
from repro.core.batch import TreeTopology, _checked_forest
from repro.obs.trace import span as _span
from repro.routing.steiner import _MIN_SEGMENT, _mst_edges
from repro.sta.netlist import Design, Net, Pin

__all__ = [
    "WireLoadModel", "ElaboratedNet", "NetGeometry", "NetArrays",
    "NetForest", "net_geometry", "net_arrays", "net_record",
    "record_arrays", "net_forest", "build_net", "elaborate_net",
]


@dataclass(frozen=True)
class WireLoadModel:
    """Fanout-based statistical wire model (used when no geometry exists).

    Each sink is reached through ``resistance_per_sink`` ohms carrying
    ``capacitance_per_sink`` farads of wire capacitance (split half at the
    driver, half at the sink) — a star topology.
    """

    resistance_per_sink: float = 50.0
    capacitance_per_sink: float = 5e-15

    def __post_init__(self) -> None:
        if not 0.0 < self.resistance_per_sink < math.inf:
            raise TimingGraphError(
                "wire-load resistance must be finite and > 0, got "
                f"{self.resistance_per_sink!r}"
            )
        if not 0.0 <= self.capacitance_per_sink < math.inf:
            raise TimingGraphError(
                "wire-load capacitance must be finite and >= 0, got "
                f"{self.capacitance_per_sink!r}"
            )


@dataclass(frozen=True)
class ElaboratedNet:
    """A net's RC tree plus the sink-pin to tree-node mapping."""

    net: str
    tree: RCTree
    sink_nodes: Dict[Pin, str]
    driver_node: str


Point = Tuple[float, float]

_DEFAULT_WIRE_LOAD = WireLoadModel()


class NetGeometry(NamedTuple):
    """Everything :func:`build_net` needs to build one net's RC tree.

    A plain record, cheap to build; the STA ships the leaner
    :func:`net_record` of it to its shard tasks.  A routed net has a
    ``driver_position`` and one ``sink_positions`` entry per sink, and
    is routed with ``technology`` and ``wire_width``; a net without geometry
    (``driver_position`` is ``None``) becomes a ``wire_load`` star.
    ``sink_loads`` holds each sink pin's load capacitance, in ``sinks``
    order.  An override net carries the caller's own
    ``(tree, sink_node_map)`` and nothing else.
    """

    net: str
    sinks: Tuple[Pin, ...]
    driver_resistance: float = 0.0
    driver_position: Optional[Point] = None
    sink_positions: Tuple[Point, ...] = ()
    sink_loads: Tuple[float, ...] = ()
    wire_load: WireLoadModel = _DEFAULT_WIRE_LOAD
    technology: WireTechnology = DEFAULT_TECHNOLOGY
    wire_width: float = 1e-6
    override: Optional[Tuple[RCTree, Dict[Pin, str]]] = None

    def sink_pins(self) -> List[Pin]:
        """The keys of :func:`build_net`'s sink-node map, in its order."""
        if self.override is not None:
            return list(self.override[1])
        return list(dict.fromkeys(self.sinks))


def net_geometry(
    design: Design,
    net: Net,
    wire_load: Optional[WireLoadModel] = None,
    technology: WireTechnology = DEFAULT_TECHNOLOGY,
    wire_width: float = 1e-6,
    port_driver_resistance: float = 50.0,
    port_load_capacitance: float = 20e-15,
    override: Optional[Tuple[RCTree, Dict[Pin, str]]] = None,
) -> NetGeometry:
    """The routing inputs of one net (see :func:`elaborate_net`)."""
    if override is not None:
        tree, mapping = override
        missing = [str(p) for p in net.sinks if p not in mapping]
        foreign = [str(p) for p in mapping if p not in net.sinks]
        if missing or foreign:
            raise TimingGraphError(
                f"override for net {net.name!r}: its sink-node map lacks "
                f"{missing} and names non-sinks {foreign}"
            )
        return NetGeometry(net=net.name, sinks=tuple(net.sinks),
                           override=(tree, dict(mapping)))

    instances = design.instances
    driver = None if net.driver.is_port else instances[net.driver.instance]
    drive_res = (port_driver_resistance if driver is None
                 else driver.cell.driver_resistance)
    # Route from positions only when the driver and every sink have one.
    positions: Optional[List[Point]] = (
        None if driver is None or driver.position is None else []
    )
    loads = []
    for sink in net.sinks:
        if sink.is_port:
            loads.append(port_load_capacitance)
            positions = None
            continue
        inst = instances[sink.instance]
        loads.append(inst.cell.input_capacitance)
        if positions is not None:
            if inst.position is None:
                positions = None
            else:
                positions.append(inst.position)
    if positions is None:
        return NetGeometry(
            net=net.name, sinks=tuple(net.sinks),
            driver_resistance=drive_res, sink_loads=tuple(loads),
            wire_load=wire_load if wire_load is not None
            else _DEFAULT_WIRE_LOAD,
        )
    return NetGeometry(
        net=net.name, sinks=tuple(net.sinks), driver_resistance=drive_res,
        driver_position=driver.position, sink_positions=tuple(positions),
        sink_loads=tuple(loads), technology=technology,
        wire_width=wire_width,
    )


class NetArrays(NamedTuple):
    """One net laid out as flat parent-pointer arrays (:func:`net_arrays`).

    The first five fields are :meth:`RCTree.from_arrays`'s arguments;
    :func:`repro.core.batch.compile_forest` takes the record as it is.
    ``sinks`` holds the node index of each of the geometry's
    ``sink_pins()``, in that order.
    """

    input_node: str
    node_names: Sequence[str]
    parents: Sequence[int]
    resistances: Sequence[float]
    capacitances: Sequence[float]
    sinks: List[int]


def net_arrays(geometry: NetGeometry) -> NetArrays:
    """Lay one net out as flat arrays, without building an RC tree.

    A routed net is laid out straight from its rectilinear MST; a
    wire-load net becomes a star of ``s{k}`` nodes off ``drv``; an
    override net is its tree's own arrays.  Each sink pin's load is
    added at its node.  A pin listed twice keeps one node (its last) and
    one load.  R and C are checked by the consumer
    (:meth:`RCTree.from_arrays` or
    :func:`~repro.core.batch.compile_forest`), node names here.
    """
    return record_arrays(net_record(geometry))


def net_record(geometry: NetGeometry) -> tuple:
    """The plain tuple :func:`record_arrays` lays out, for shipping.

    It holds only what the layout reads, in one of three shapes:

    * routed: ``(driver_resistance, points, sink_loads, kept,
      technology, wire_width)``, ``points`` being the driver position
      followed by every sink position;
    * wire-load star: ``(driver_resistance, None, sink_loads, kept,
      wire_load)``;
    * override: ``(tree, sink_nodes)``.

    ``kept`` lists the position in ``sinks`` of each of
    ``sink_pins()`` (the last time the pin is listed).  No
    :class:`~repro.sta.netlist.Pin`, net name or :class:`NetGeometry`
    is kept; the technology and wire-load objects are the geometry's
    own, so a pickle of many records stores each one once.
    """
    if geometry.override is not None:
        tree, mapping = geometry.override
        return (tree, tuple(mapping.values()))
    sinks = geometry.sinks
    kept = tuple(dict(zip(sinks, range(len(sinks)))).values())
    if geometry.driver_position is None:
        return (geometry.driver_resistance, None, geometry.sink_loads, kept,
                geometry.wire_load)
    return (geometry.driver_resistance,
            (geometry.driver_position, *geometry.sink_positions),
            geometry.sink_loads, kept, geometry.technology,
            geometry.wire_width)


def record_arrays(record: tuple) -> NetArrays:
    """:func:`net_arrays` of one :func:`net_record` tuple.

    The record goes through the appender :func:`net_forest` runs for its
    kind, into fresh lists at offset 0, so a net alone and the same net
    in a shard's forest are laid out by one piece of code.  Names are
    given after the layout: a routed net's pin ``k`` is node ``p{k}``
    and the section before it ``p{k}.s1``; a star's sink ``k`` is
    ``s{k}``; an override net keeps its tree's own names.
    """
    parents: List[int] = []
    res: List[float] = []
    cap: List[float] = []
    sinks: List[int] = []
    if len(record) == 2:
        names = _append_tree(*record, parents, res, cap, sinks)
        return NetArrays(record[0].input_node, names, parents, res, cap,
                         sinks)
    if record[1] is None:
        _append_star(*record, parents, res, cap, sinks)
        names = ["drv"] + [f"s{k}" for k in range(len(record[2]))]
    else:
        node = _append_routed(*record, parents, res, cap, sinks)
        names = ["drv"] * len(res)
        for k in range(1, len(node)):
            names[node[k] - 1] = f"p{k}.s1"
            names[node[k]] = f"p{k}"
    return NetArrays("in", names, parents, res, cap, sinks)


class NetForest(NamedTuple):
    """A shard's nets side by side in one compiled forest
    (:func:`net_forest`).

    Net ``k``'s nodes are forest nodes ``offsets[k]`` onwards.
    ``sinks`` holds the forest index of each net's ``sink_pins()``
    nodes, net by net, and ``counts`` how many each net has.  ``nets``
    lays net ``k`` out again as :class:`NetArrays` when item ``k`` is
    read: for node names (error messages, per-name sigma overrides) and
    the ``"exact"`` model's per-net trees.
    """

    topology: TreeTopology
    offsets: Tuple[int, ...]
    sinks: np.ndarray
    counts: List[int]
    nets: Sequence[NetArrays]

    def sigma_arrays(self, variation) -> Tuple[np.ndarray, np.ndarray]:
        """Per-node ``(sr, sc)`` over the whole forest: each net's
        :meth:`~repro.core.variation.VariationModel.sigma_arrays`,
        read off node names only when ``variation`` has per-name
        overrides."""
        if variation.resistance_sigmas or variation.capacitance_sigmas:
            pairs = [variation.sigma_arrays(net.node_names)
                     for net in self.nets]
            return (np.concatenate([r for r, _ in pairs]),
                    np.concatenate([c for _, c in pairs]))
        n = self.topology.num_nodes
        return (np.full(n, variation.resistance_sigma),
                np.full(n, variation.capacitance_sigma))


class _RecordNets(_SequenceABC):
    """:func:`record_arrays` of each record, laid out on read."""

    def __init__(self, records: Sequence[tuple]) -> None:
        self._records = records

    def __getitem__(self, k: int) -> NetArrays:
        return record_arrays(self._records[k])

    def __len__(self) -> int:
        return len(self._records)


def net_forest(records: Sequence[tuple]) -> NetForest:
    """Lay :func:`net_record` tuples out side by side and compile them.

    One pass appends every net straight to shard-wide flat parent/R/C
    lists, with forest parent indices, keeping each net's offset and
    sink indices: the arrays of
    ``compile_forest([record_arrays(r) for r in records])``, bit for
    bit, with the same checks raising the same errors: the first error
    raised while a net is laid out, else the first bad R or C in forest
    order, else a capacitance-free net's.  No :class:`NetArrays` is
    built and no node name formatted (see :attr:`NetForest.nets` for
    when they are).
    """
    if not records:
        raise ValidationError("net_forest needs at least one net")
    with _span("batch.compile_forest", trees=len(records)):
        parents: List[int] = []
        res: List[float] = []
        cap: List[float] = []
        sinks: List[int] = []
        offsets: List[int] = []
        counts: List[int] = []
        for record in records:
            offsets.append(len(res))
            listed = len(sinks)
            if len(record) == 2:
                _append_tree(*record, parents, res, cap, sinks)
            elif record[1] is None:
                _append_star(*record, parents, res, cap, sinks)
            else:
                _append_routed(*record, parents, res, cap, sinks)
            counts.append(len(sinks) - listed)
        nets = _RecordNets(records)
        if not np.diff([*offsets, len(res)]).all():
            raise ValidationError("RC tree has no nodes")
        topology = _checked_forest(
            nets, np.array(parents, dtype=np.int64), np.array(res),
            np.array(cap), offsets)
    return NetForest(topology, tuple(offsets),
                     np.array(sinks, dtype=np.intp), counts, nets)


def _append_tree(tree: RCTree, nodes, parents, res, cap,
                 sinks) -> List[str]:
    """Append an override net: its tree's own arrays, with ``nodes``
    (sink node names) as its sinks.  Returns the tree's node names."""
    at = len(res)
    names, up, r, c = tree.to_arrays()
    sinks += [at + tree.index_of(node) for node in nodes]
    parents += [p + at if p >= 0 else p for p in up]
    res += r
    cap += c
    return names


def _append_star(driver_resistance, _, loads, kept, model: WireLoadModel,
                 parents, res, cap, sinks) -> None:
    """Append a wire-load star: sink ``k`` hangs off the driver node as
    the net's node ``k + 1`` (``s{k}``), through the model's resistance,
    with half its wire capacitance there and half at the driver."""
    at = len(res)
    count = len(loads)
    half = model.capacitance_per_sink / 2.0
    drive = 0.0
    for _ in range(count):  # summed one sink at a time, not half * count
        drive += half
    parents += [-1] + [at] * count
    res += [driver_resistance] + [model.resistance_per_sink] * count
    cap += [drive] + [half] * count
    for k in kept:
        load = loads[k]
        if not 0.0 <= load < math.inf:
            checked_load(f"s{k}", load)
        cap[at + k + 1] += float(load)
    sinks += [at + k + 1 for k in kept]


def _append_routed(driver_resistance, points, loads, kept,
                   technology: WireTechnology, width: float,
                   parents, res, cap, sinks) -> List[int]:
    """Append a routed net, straight from its MST's index edges.

    The same arrays, bit for bit, and the same checks in the same order
    as :func:`~repro.routing.steiner.route_segments` followed by
    :func:`~repro.circuit.wires.layout_segments` with two sections per
    segment (``route_net``'s default): the MST edge into pin ``k``
    (``0`` the driver) is two pi sections, the second ending at pin
    ``k``'s node.  Edges are placed as ``layout_segments`` places them:
    a pin's child edges together, in the order Kruskal accepted them,
    then the subtree of its last child first.  Returns each pin's
    forest index.
    """
    if len(points) < 2:
        raise RoutingError("net has no sinks")
    adjacency: List[List[Tuple[int, float]]] = [[] for _ in points]
    for i, j, length in _mst_edges(points):
        adjacency[i].append((j, length))
        adjacency[j].append((i, length))
    if driver_resistance <= 0:
        raise ValidationError("driver_resistance must be > 0")
    node = [0] * len(points)  # each pin's forest index
    node[0] = len(res)
    parents.append(-1)
    res.append(driver_resistance)
    cap.append(0.0)
    stack = [0]
    while stack:
        pin = stack.pop()
        at = node[pin]
        for child, length in adjacency[pin]:
            if child == 0 or node[child]:  # its parent, the one placed
                continue
            r_total, c_total = technology.segment_rc(
                max(length, _MIN_SEGMENT), width)
            r = r_total / 2  # n = 2 sections: r_total / n, c_total / 2n
            c = c_total / 4
            mid = len(res)
            parents += (at, mid)
            res += (r, r)
            cap += (c, c)
            cap[at] += c
            cap[mid] += c
            node[child] = mid + 1
            stack.append(child)
    for k in kept:
        load = loads[k]
        if not 0.0 <= load < math.inf:
            checked_load(f"p{k + 1}", load)
        cap[node[k + 1]] += float(load)
    sinks += [node[k + 1] for k in kept]
    return node


def build_net(geometry: NetGeometry) -> ElaboratedNet:
    """Build the RC tree of one net from its :class:`NetGeometry`.

    The tree is :meth:`RCTree.from_arrays` over :func:`net_arrays`; an
    override net returns the caller's own tree.  A pin listed twice on
    one net keeps one tree node (its last) and one load.
    """
    if geometry.override is not None:
        tree, mapping = geometry.override
        return ElaboratedNet(
            net=geometry.net, tree=tree, sink_nodes=dict(mapping),
            driver_node=tree.children_of(tree.input_node)[0],
        )
    arrays = net_arrays(geometry)
    names = arrays.node_names
    return ElaboratedNet(
        net=geometry.net, tree=RCTree.from_arrays(*arrays[:5]),
        sink_nodes={pin: names[i] for pin, i in
                    zip(geometry.sink_pins(), arrays.sinks)},
        driver_node="drv",
    )


def elaborate_net(
    design: Design,
    net: Net,
    wire_load: Optional[WireLoadModel] = None,
    technology: WireTechnology = DEFAULT_TECHNOLOGY,
    wire_width: float = 1e-6,
    port_driver_resistance: float = 50.0,
    port_load_capacitance: float = 20e-15,
    override: Optional[Tuple[RCTree, Dict[Pin, str]]] = None,
) -> ElaboratedNet:
    """Build the RC tree for one net: ``build_net(net_geometry(...))``.

    Parameters
    ----------
    design:
        The owning design (for cell data and positions).
    net:
        The net to elaborate.
    wire_load:
        Fanout-based fallback model (defaults to :class:`WireLoadModel`).
    technology, wire_width:
        Wire parameters used when routing from instance positions.
    port_driver_resistance:
        Output resistance assumed for primary-input drivers.
    port_load_capacitance:
        Capacitance assumed for primary-output pins.
    override:
        Explicit ``(tree, sink_node_map)`` for the net; the tree must
        already include driver resistance and sink loads, and the map
        must name every sink of the net and no other pin.
    """
    return build_net(net_geometry(
        design, net, wire_load=wire_load, technology=technology,
        wire_width=wire_width,
        port_driver_resistance=port_driver_resistance,
        port_load_capacitance=port_load_capacitance, override=override,
    ))

