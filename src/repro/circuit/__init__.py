"""Circuit substrate: RC-tree model, builders, wire geometry, SPICE I/O."""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.circuit.builders": [
        "balanced_tree", "random_tree", "rc_line", "rc_line_segments",
        "star_tree",
    ],
    "repro.circuit.elements": [
        "GROUND", "Capacitor", "Resistor", "VoltageSource",
    ],
    "repro.circuit.rctree": ["NodeView", "RCTree"],
    "repro.circuit.spice": [
        "Netlist", "format_value", "parse_netlist", "parse_rc_tree",
        "parse_value", "read_rc_tree", "tree_to_netlist", "write_rc_tree",
    ],
    "repro.circuit.wires": [
        "DEFAULT_TECHNOLOGY", "WireLayout", "WireSegment", "WireTechnology",
        "layout_segments", "tree_from_segments", "wire_rc",
    ],
})

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
