"""SPICE-subset netlist reader and writer for RC trees.

The dialect understood here is the subset sufficient for RC-tree
interchange with real tools:

* ``R<name> <node> <node> <value>`` resistor cards,
* ``C<name> <node> <node> <value>`` capacitor cards,
* ``V<name> <node+> <node-> [DC] <value>`` source cards,
* engineering suffixes (``f p n u m k meg g t``) and plain exponents,
* ``*`` full-line comments, ``$``/``;`` trailing comments,
* ``+`` line continuations,
* a leading title line (ignored) when the file starts with one, and
* ``.end`` / other dot-cards (ignored except ``.end`` which stops parsing).

Parsing returns either the raw element lists or, via
:func:`parse_rc_tree`, a validated :class:`~repro.circuit.rctree.RCTree`
rooted at the voltage source's positive node.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro._exceptions import NetlistError, TopologyError, ValidationError
from repro.circuit.elements import GROUND, Capacitor, Resistor, VoltageSource
from repro.circuit.rctree import RCTree

__all__ = [
    "parse_value",
    "format_value",
    "Netlist",
    "parse_netlist",
    "parse_rc_tree",
    "read_rc_tree",
    "tree_to_netlist",
    "write_rc_tree",
]

_SUFFIXES = {
    "t": 1e12,
    "g": 1e9,
    "meg": 1e6,
    "k": 1e3,
    "m": 1e-3,
    "u": 1e-6,
    "n": 1e-9,
    "p": 1e-12,
    "f": 1e-15,
    "a": 1e-18,
}

_VALUE_RE = re.compile(
    r"^([+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)([a-zA-Z]*)$"
)


def parse_value(token: str) -> float:
    """Parse a SPICE numeric token such as ``1.2k``, ``100f`` or ``3e-12``.

    Trailing unit letters after the scale suffix are ignored, as in SPICE
    (``100pF`` == ``100p``).  ``meg`` is the only multi-letter suffix.
    """
    m = _VALUE_RE.match(token.strip())
    if not m:
        raise NetlistError(f"cannot parse numeric value {token!r}")
    mantissa = float(m.group(1))
    suffix = m.group(2).lower()
    if not suffix:
        return mantissa
    if suffix.startswith("meg"):
        return mantissa * 1e6
    scale = _SUFFIXES.get(suffix[0])
    if scale is None:
        raise NetlistError(f"unknown scale suffix in value {token!r}")
    return mantissa * scale


def format_value(value: float) -> str:
    """Format a value with an engineering suffix when one fits cleanly."""
    if value == 0.0:
        return "0"
    for suffix, scale in (
        ("t", 1e12), ("meg", 1e6), ("k", 1e3),
        ("m", 1e-3), ("u", 1e-6), ("n", 1e-9), ("p", 1e-12), ("f", 1e-15),
    ):
        scaled = value / scale
        if 1.0 <= abs(scaled) < 1000.0:
            return f"{scaled:.6g}{suffix}"
    return f"{value:.6g}"


@dataclass
class Netlist:
    """Raw parse result: element lists plus the title line, if any."""

    title: str = ""
    resistors: List[Resistor] = field(default_factory=list)
    capacitors: List[Capacitor] = field(default_factory=list)
    sources: List[VoltageSource] = field(default_factory=list)

    def node_names(self) -> List[str]:
        """All node names appearing in the netlist, ground excluded."""
        names = []
        seen = set()
        for element in (*self.resistors, *self.capacitors):
            for node in (element.node_a, element.node_b):
                if node != GROUND and node not in seen:
                    seen.add(node)
                    names.append(node)
        for src in self.sources:
            for node in (src.node_pos, src.node_neg):
                if node != GROUND and node not in seen:
                    seen.add(node)
                    names.append(node)
        return names


def _logical_lines(text: str) -> List[str]:
    """Split netlist text into logical lines, folding ``+`` continuations
    and stripping comments."""
    physical = text.splitlines()
    logical: List[str] = []
    for raw in physical:
        line = raw.split("$", 1)[0].split(";", 1)[0].rstrip()
        if not line.strip():
            continue
        if line.lstrip().startswith("*"):
            continue
        if line.startswith("+"):
            if not logical:
                raise NetlistError("continuation line with nothing to continue")
            logical[-1] += " " + line[1:].strip()
        else:
            logical.append(line.strip())
    return logical


def parse_netlist(text: str, first_line_is_title: Optional[bool] = None) -> Netlist:
    """Parse SPICE-subset text into a :class:`Netlist`.

    Parameters
    ----------
    text:
        Netlist source.
    first_line_is_title:
        SPICE decks conventionally begin with a title line.  ``True`` always
        treats the first logical line as a title; ``False`` never does;
        ``None`` (default) auto-detects: the first line is a title when it
        does not look like an element or dot card.
    """
    lines = _logical_lines(text)
    netlist = Netlist()
    if not lines:
        return netlist

    def looks_like_card(line: str) -> bool:
        head = line.split()[0]
        return head[0].upper() in "RCV." or head[0] == "."

    start = 0
    if first_line_is_title is True or (
        first_line_is_title is None and not looks_like_card(lines[0])
    ):
        netlist.title = lines[0]
        start = 1

    for line in lines[start:]:
        tokens = line.split()
        head = tokens[0]
        kind = head[0].upper()
        if kind == ".":
            if head.lower() == ".end":
                break
            continue  # ignore other dot-cards (.tran, .print, ...)
        if kind == "R":
            if len(tokens) < 4:
                raise NetlistError(f"malformed resistor card: {line!r}")
            try:
                netlist.resistors.append(
                    Resistor(head, tokens[1], tokens[2], parse_value(tokens[3]))
                )
            except ValidationError as exc:
                raise NetlistError(str(exc)) from exc
        elif kind == "C":
            if len(tokens) < 4:
                raise NetlistError(f"malformed capacitor card: {line!r}")
            try:
                netlist.capacitors.append(
                    Capacitor(head, tokens[1], tokens[2], parse_value(tokens[3]))
                )
            except ValidationError as exc:
                raise NetlistError(str(exc)) from exc
        elif kind == "V":
            if len(tokens) < 4:
                raise NetlistError(f"malformed source card: {line!r}")
            value_tokens = [t for t in tokens[3:] if t.upper() != "DC"]
            value = parse_value(value_tokens[0]) if value_tokens else 0.0
            try:
                netlist.sources.append(
                    VoltageSource(head, tokens[1], tokens[2], value)
                )
            except ValidationError as exc:
                raise NetlistError(str(exc)) from exc
        else:
            raise NetlistError(
                f"unsupported element {head!r} (only R/C/V are understood)"
            )
    return netlist


def parse_rc_tree(text: str) -> Tuple[RCTree, float]:
    """Parse a netlist and assemble it into a validated RC tree.

    Returns
    -------
    (tree, amplitude):
        The RC tree rooted at the source's positive node, and the source
        amplitude (final input value in volts).

    Raises
    ------
    NetlistError
        If the netlist violates RC-tree structure: no/multiple sources,
        resistors to ground, floating capacitors, resistor loops, or nodes
        unreachable from the source.
    """
    netlist = parse_netlist(text)
    if len(netlist.sources) != 1:
        raise NetlistError(
            f"an RC tree needs exactly one voltage source, "
            f"found {len(netlist.sources)}"
        )
    source = netlist.sources[0]
    if source.node_neg != GROUND:
        raise NetlistError("the voltage source must be referenced to ground")
    root = source.node_pos

    # Grounded capacitance per node.
    caps: Dict[str, float] = {}
    for cap in netlist.capacitors:
        if not cap.grounded:
            raise NetlistError(
                f"capacitor {cap.name!r} is floating; RC trees only allow "
                "grounded capacitors"
            )
        node = cap.signal_node
        caps[node] = caps.get(node, 0.0) + cap.capacitance

    # Resistor adjacency; RC trees allow no grounded resistors.
    adjacency: Dict[str, List[Tuple[str, float, str]]] = {}
    for res in netlist.resistors:
        if GROUND in (res.node_a, res.node_b):
            raise NetlistError(
                f"resistor {res.name!r} connects to ground; not an RC tree"
            )
        adjacency.setdefault(res.node_a, []).append((res.node_b, res.resistance, res.name))
        adjacency.setdefault(res.node_b, []).append((res.node_a, res.resistance, res.name))

    if root not in adjacency:
        raise NetlistError(
            f"the source node {root!r} drives no resistor"
        )

    tree = RCTree(root)
    visited = {root}
    stack = [root]
    used_edges = 0
    while stack:
        here = stack.pop()
        for other, resistance, rname in adjacency.get(here, ()):
            if other in visited:
                continue
            try:
                tree.add_node(other, here, resistance, caps.get(other, 0.0))
            except (TopologyError, ValidationError) as exc:
                raise NetlistError(str(exc)) from exc
            visited.add(other)
            stack.append(other)
            used_edges += 1

    if used_edges != len(netlist.resistors):
        raise NetlistError(
            "resistors form a loop or a disconnected component; "
            "not an RC tree"
        )
    for node in caps:
        if node != root and node not in visited:
            raise NetlistError(
                f"capacitor node {node!r} unreachable from the source"
            )
    try:
        tree.validate()
    except ValidationError as exc:
        raise NetlistError(str(exc)) from exc
    return tree, source.value


def read_rc_tree(path: str) -> Tuple[RCTree, float]:
    """:func:`parse_rc_tree` of the netlist file at ``path``.

    Raises :class:`ValidationError` when the file is not UTF-8 text;
    ``OSError`` (missing file, a directory, no permission) propagates.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path} is not UTF-8 text") from exc
    return parse_rc_tree(text)


def tree_to_netlist(
    tree: RCTree,
    title: str = "rc tree",
    amplitude: float = 1.0,
    source_name: str = "VIN",
) -> str:
    """Render an RC tree as SPICE-subset text (inverse of
    :func:`parse_rc_tree` up to element naming)."""
    lines = [f"* {title}"]
    lines.append(
        f"{source_name} {tree.input_node} {GROUND} DC {format_value(amplitude)}"
    )
    for k, name in enumerate(tree.node_names, start=1):
        view = tree.node(name)
        lines.append(
            f"R{k} {view.parent} {name} {format_value(view.resistance)}"
        )
        if view.capacitance > 0.0:
            lines.append(
                f"C{k} {name} {GROUND} {format_value(view.capacitance)}"
            )
    lines.append(".end")
    return "\n".join(lines) + "\n"


def write_rc_tree(tree: RCTree, path: str, **kwargs) -> None:
    """Write :func:`tree_to_netlist` output to ``path``."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(tree_to_netlist(tree, **kwargs))
