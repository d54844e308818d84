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
inputs off the design into a plain picklable :class:`NetGeometry`, and
:func:`build_net` turns that record into the tree.  The STA ships
geometries to its worker processes, so workers and the parent build
identical trees by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro._exceptions import TimingGraphError
from repro.circuit.rctree import RCTree
from repro.circuit.wires import DEFAULT_TECHNOLOGY, WireTechnology
from repro.routing.steiner import route_net
from repro.sta.netlist import Design, Net, Pin

__all__ = [
    "WireLoadModel", "ElaboratedNet", "NetGeometry", "net_geometry",
    "build_net", "elaborate_net",
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
        if self.resistance_per_sink <= 0.0:
            raise TimingGraphError("wire-load resistance must be > 0")
        if self.capacitance_per_sink < 0.0:
            raise TimingGraphError("wire-load capacitance must be >= 0")


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

    A plain picklable record, cheap to build and to ship to worker
    processes.  A routed net has a ``driver_position`` and one
    ``sink_positions`` entry per sink, and is routed with
    ``technology`` and ``wire_width``; a net without geometry
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
        missing = [s for s in net.sinks if s not in mapping]
        if missing:
            raise TimingGraphError(
                f"override for net {net.name!r} lacks sink nodes for "
                f"{[str(p) for p in missing]}"
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


def build_net(geometry: NetGeometry) -> ElaboratedNet:
    """Build the RC tree of one net from its :class:`NetGeometry`.

    A pin listed twice on one net keeps one tree node (its last) and
    one load.
    """
    if geometry.override is not None:
        tree, mapping = geometry.override
        return ElaboratedNet(
            net=geometry.net, tree=tree, sink_nodes=dict(mapping),
            driver_node=tree.children_of(tree.input_node)[0],
        )

    if geometry.driver_position is not None:
        tree, nodes = route_net(
            driver_position=geometry.driver_position,
            sink_positions=geometry.sink_positions,
            driver_resistance=geometry.driver_resistance,
            technology=geometry.technology,
            wire_width=geometry.wire_width,
        )
    else:
        model = geometry.wire_load
        tree = RCTree("in")
        tree.add_node("drv", "in", geometry.driver_resistance, 0.0)
        nodes = []
        for k in range(len(geometry.sinks)):
            node = f"s{k}"
            tree.add_node(
                node, "drv", model.resistance_per_sink,
                model.capacitance_per_sink / 2.0,
            )
            tree.add_load("drv", model.capacitance_per_sink / 2.0)
            nodes.append(node)
    mapping = dict(zip(geometry.sinks, nodes))
    load_of = dict(zip(geometry.sinks, geometry.sink_loads))
    for sink, node in mapping.items():
        tree.add_load(node, load_of[sink])
    return ElaboratedNet(
        net=geometry.net, tree=tree, sink_nodes=mapping, driver_node="drv",
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
        already include driver resistance and sink loads.
    """
    return build_net(net_geometry(
        design, net, wire_load=wire_load, technology=technology,
        wire_width=wire_width,
        port_driver_resistance=port_driver_resistance,
        port_load_capacitance=port_load_capacitance, override=override,
    ))

