"""Circuit substrate: RC-tree model, builders, wire geometry, SPICE I/O."""

from repro.circuit.builders import (
    balanced_tree,
    random_tree,
    rc_line,
    rc_line_segments,
    star_tree,
)
from repro.circuit.elements import GROUND, Capacitor, Resistor, VoltageSource
from repro.circuit.rctree import NodeView, RCTree
from repro.circuit.spice import (
    Netlist,
    format_value,
    parse_netlist,
    parse_rc_tree,
    parse_value,
    read_rc_tree,
    tree_to_netlist,
    write_rc_tree,
)
from repro.circuit.wires import (
    DEFAULT_TECHNOLOGY,
    WireLayout,
    WireSegment,
    WireTechnology,
    layout_segments,
    tree_from_segments,
    wire_rc,
)

__all__ = [
    "RCTree",
    "NodeView",
    "Resistor",
    "Capacitor",
    "VoltageSource",
    "GROUND",
    "rc_line",
    "rc_line_segments",
    "balanced_tree",
    "star_tree",
    "random_tree",
    "WireTechnology",
    "WireSegment",
    "DEFAULT_TECHNOLOGY",
    "wire_rc",
    "WireLayout",
    "layout_segments",
    "tree_from_segments",
    "Netlist",
    "parse_netlist",
    "parse_rc_tree",
    "read_rc_tree",
    "tree_to_netlist",
    "write_rc_tree",
    "parse_value",
    "format_value",
]
