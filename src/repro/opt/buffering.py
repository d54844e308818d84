"""Van Ginneken buffer insertion on RC trees under the Elmore model.

The most celebrated Elmore-powered optimization: given a routed net and a
library of buffer types, choose buffer locations (and a type for each)
that maximize the worst-sink slack (equivalently minimize the worst
Elmore delay for uniform required times).  Van Ginneken's dynamic program
walks the tree bottom-up carrying ``(load capacitance, required arrival
time)`` options, pruning dominated pairs; at every candidate node one
buffered option is generated per type (the Lillis extension).  It is
optimal under the Elmore model, whose bound property (this paper's
Theorem) certifies that the optimized objective still upper-bounds the
true delay of the final buffered net.  :func:`insert_buffers` is the DP
over a one-type library.

Wire representation matches :class:`~repro.circuit.rctree.RCTree`: each
edge carries a resistance and the edge's wire capacitance is lumped at its
child node, so the Elmore delay across an edge is ``R_e * Cdown(e)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro._exceptions import AnalysisError, ValidationError
from repro.circuit.rctree import RCTree
from repro.core.elmore import elmore_delays

__all__ = [
    "BufferType",
    "BufferSink",
    "BufferingResult",
    "MultiBufferingResult",
    "insert_buffers",
    "insert_buffers_multi",
    "buffered_stage_delays",
    "assigned_stage_delays",
]


@dataclass(frozen=True)
class BufferType:
    """A repeater cell for insertion.

    Parameters
    ----------
    name:
        Type name.
    input_capacitance:
        Load presented upstream when inserted (farads, > 0).
    output_resistance:
        Linearized drive resistance (ohms, > 0).
    intrinsic_delay:
        Fixed cell delay (seconds, >= 0).
    """

    name: str
    input_capacitance: float
    output_resistance: float
    intrinsic_delay: float = 0.0

    def __post_init__(self) -> None:
        if self.input_capacitance <= 0 or self.output_resistance <= 0:
            raise ValidationError(
                "buffer needs positive input capacitance and output "
                "resistance"
            )
        if self.intrinsic_delay < 0:
            raise ValidationError("buffer intrinsic delay must be >= 0")

    def stage_delay(self, load: float) -> float:
        """Delay added by this buffer when driving ``load`` farads."""
        return self.intrinsic_delay + self.output_resistance * load


@dataclass(frozen=True)
class BufferSink:
    """A receiving pin on the net.

    ``required_time`` is the latest acceptable arrival (seconds); with
    uniform required times, maximizing slack minimizes the worst delay.
    """

    node: str
    capacitance: float
    required_time: float = 0.0

    def __post_init__(self) -> None:
        if self.capacitance < 0:
            raise ValidationError("sink capacitance must be >= 0")


@dataclass(frozen=True)
class _Option:
    """One Pareto point of the DP: load seen upstream vs required time."""

    capacitance: float
    required: float
    assignments: FrozenSet[Tuple[str, str]]  # (node, type name)


@dataclass(frozen=True)
class BufferingResult:
    """Outcome of :func:`insert_buffers`.

    Attributes
    ----------
    buffer_nodes:
        Chosen insertion locations (names of tree nodes; the buffer is
        placed at the node, driving that node's subtree).
    required_at_driver:
        Optimized worst-case required time seen at the driver's output,
        *after* subtracting the driver-stage Elmore delay.  With uniform
        zero required times this equals minus the minimized worst delay.
    unbuffered_required:
        Same quantity with no buffers, for comparison.
    options_kept:
        Size of the surviving Pareto frontier at the root (a diagnostic
        of how much pruning did).
    """

    buffer_nodes: Tuple[str, ...]
    required_at_driver: float
    unbuffered_required: float
    options_kept: int

    @property
    def improvement(self) -> float:
        """Worst-delay reduction achieved by the insertion (seconds)."""
        return self.required_at_driver - self.unbuffered_required


@dataclass(frozen=True)
class MultiBufferingResult:
    """Outcome of :func:`insert_buffers_multi`.

    Attributes
    ----------
    assignments:
        ``{node: BufferType}`` for every chosen insertion.
    required_at_driver:
        Optimized worst slack at the driver output.
    unbuffered_required:
        The no-insertion slack, for comparison.
    options_kept:
        Surviving root Pareto-frontier size.
    """

    assignments: Dict[str, BufferType]
    required_at_driver: float
    unbuffered_required: float
    options_kept: int

    @property
    def improvement(self) -> float:
        """Worst-slack gain over the unbuffered net (seconds)."""
        return self.required_at_driver - self.unbuffered_required


def _prune(options: List[_Option]) -> List[_Option]:
    """Keep the Pareto frontier: increasing capacitance must buy strictly
    increasing required time."""
    options.sort(key=lambda o: (o.capacitance, -o.required))
    kept: List[_Option] = []
    best_required = float("-inf")
    for option in options:
        if option.required > best_required:
            kept.append(option)
            best_required = option.required
    return kept


def _join(
    tree: RCTree,
    parent: str,
    node_options: Dict[str, List[_Option]],
    max_options: float,
) -> List[_Option]:
    """Merge the frontiers of ``parent``'s children, each carried across
    its edge (required time pays ``R_edge * C_downstream``)."""
    merged = [_Option(0.0, float("inf"), frozenset())]
    for child in tree.children_of(parent):
        edge_r = tree.node(child).resistance
        arrived = [
            _Option(o.capacitance, o.required - edge_r * o.capacitance,
                    o.assignments)
            for o in node_options.pop(child)
        ]
        merged = _prune([
            _Option(m.capacitance + a.capacitance,
                    min(m.required, a.required),
                    m.assignments | a.assignments)
            for m in merged
            for a in arrived
        ])
        if len(merged) > max_options:
            raise AnalysisError(
                "Pareto frontier exceeded max_options; raise the cap "
                "or restrict candidates"
            )
    return merged


def _sink_map(
    tree: RCTree,
    sinks: Sequence[BufferSink],
    buffer_nodes: Iterable[str] = (),
) -> Dict[str, BufferSink]:
    """Sinks by node; there must be a sink, every sink and buffer node
    must be in ``tree`` and no node may be listed as a sink twice."""
    if not sinks:
        raise ValidationError("net has no sinks")
    for name in buffer_nodes:
        if name not in tree:
            raise ValidationError(f"buffer node {name!r} not in tree")
    sink_map: Dict[str, BufferSink] = {}
    for sink in sinks:
        if sink.node not in tree:
            raise ValidationError(f"sink node {sink.node!r} not in tree")
        if sink.node in sink_map:
            raise ValidationError(f"duplicate sink at {sink.node!r}")
        sink_map[sink.node] = sink
    return sink_map


def insert_buffers(
    tree: RCTree,
    sinks: Sequence[BufferSink],
    buffer: BufferType,
    driver_resistance: float,
    candidates: Optional[Sequence[str]] = None,
    max_options: int = 4096,
) -> BufferingResult:
    """Optimal single-buffer-type insertion under the Elmore model.

    :func:`insert_buffers_multi` over the library ``[buffer]``.

    Parameters
    ----------
    tree:
        The *wire* topology: an RC tree rooted at the driver output (its
        input node is the driver's ideal source; the first edge usually
        models the driver landing pad).  Node capacitances are the lumped
        wire caps.
    sinks:
        Receiving pins; every sink node must exist in the tree.
    buffer:
        The repeater type available.
    driver_resistance:
        Drive resistance of the net's source gate.
    candidates:
        Nodes where insertion is permitted (default: every tree node).
    max_options:
        Safety cap on the per-node Pareto frontier.

    Returns
    -------
    BufferingResult
        Chosen buffer nodes and the achieved/unbuffered required times.
    """
    result = insert_buffers_multi(tree, sinks, [buffer], driver_resistance,
                                  candidates, max_options)
    return BufferingResult(
        buffer_nodes=tuple(sorted(result.assignments)),
        required_at_driver=result.required_at_driver,
        unbuffered_required=result.unbuffered_required,
        options_kept=result.options_kept,
    )


def insert_buffers_multi(
    tree: RCTree,
    sinks: Sequence[BufferSink],
    buffers: Sequence[BufferType],
    driver_resistance: float,
    candidates: Optional[Sequence[str]] = None,
    max_options: int = 8192,
) -> MultiBufferingResult:
    """Optimal insertion from a library of buffer types.

    Same conventions as :func:`insert_buffers`; at each candidate node
    every type in ``buffers`` is considered.
    """
    if driver_resistance <= 0:
        raise ValidationError("driver_resistance must be > 0")
    if not buffers:
        raise ValidationError("buffer library is empty")
    names = [b.name for b in buffers]
    if len(set(names)) != len(names):
        raise ValidationError("buffer type names must be unique")
    by_name = {b.name: b for b in buffers}
    sink_map = _sink_map(tree, sinks)
    allowed = set(candidates) if candidates is not None \
        else set(tree.node_names)
    for name in allowed:
        if name not in tree:
            raise ValidationError(f"candidate {name!r} not in tree")

    # Bottom-up DP over nodes in reverse topological order (children are
    # processed before their parents, iteratively — deep wires exceed the
    # interpreter's recursion limit otherwise).
    #
    # Convention: a buffer at node ``v`` drives ``v``'s children subtrees
    # only — the node's own wire cap and any sink pin at the node stay on
    # the buffer's *input* net (matching :func:`assigned_stage_delays`).
    node_options: Dict[str, List[_Option]] = {}
    for name in reversed(tree.node_names):
        # 1) Combine the children (what a buffer at this node would drive).
        merged = _join(tree, name, node_options, max_options)
        # 2) Optional buffer of each type at this node, decoupling the
        # children.
        if name in allowed:
            merged = _prune(merged + [
                _Option(
                    buffer.input_capacitance,
                    o.required - buffer.stage_delay(o.capacitance),
                    o.assignments | {(name, buffer.name)},
                )
                for o in merged
                for buffer in buffers
            ])
        # 3) Add the node's own wire cap and sink pin (upstream of any
        # buffer placed here).
        base_cap = tree.node(name).capacitance
        base_req = float("inf")
        sink = sink_map.get(name)
        if sink is not None:
            base_cap += sink.capacitance
            base_req = sink.required_time
        node_options[name] = _prune([
            _Option(o.capacitance + base_cap, min(o.required, base_req),
                    o.assignments)
            for o in merged
        ])
    # The root frontier is not capped.
    root_options = _join(tree, tree.input_node, node_options, math.inf)

    best = max(
        root_options,
        key=lambda o: o.required - driver_resistance * o.capacitance,
    )
    loaded = tree.copy()
    for sink in sink_map.values():
        loaded.add_load(sink.node, sink.capacitance)
    delays = elmore_delays(loaded)
    total_cap = loaded.total_capacitance()
    unbuffered = min(
        sink.required_time
        - (delays[loaded.index_of(sink.node)]
           + driver_resistance * total_cap)
        for sink in sink_map.values()
    )
    return MultiBufferingResult(
        assignments={node: by_name[type_name]
                     for node, type_name in best.assignments},
        required_at_driver=(
            best.required - driver_resistance * best.capacitance
        ),
        unbuffered_required=unbuffered,
        options_kept=len(root_options),
    )


def _stage(
    tree: RCTree,
    root: Optional[str],
    sink_map: Dict[str, BufferSink],
    assignments: Dict[str, BufferType],
    drive_r: Optional[float] = None,
) -> Tuple[RCTree, List[str], List[str], Dict[str, str]]:
    """The stage driven from ``root`` (``None``: the net driver).

    A buffer at node ``b`` ends the stage: its input capacitance loads
    ``b`` and the subtree below ``b`` is ``b``'s own stage.  With
    ``drive_r`` the driving resistance is the stage's series node
    ``drv#`` (it is shared by every root child).  Returns the stage tree,
    its sink and buffer nodes in walk order, and each node's stage parent.
    """
    stage = RCTree("in")
    top = "in"
    if drive_r is not None:
        stage.add_node("drv#", "in", drive_r, 0.0)
        top = "drv#"
    stage_sinks: List[str] = []
    stage_buffers: List[str] = []
    parent_of: Dict[str, str] = {}
    start = tree.input_node if root is None else root
    stack = [(child, top) for child in tree.children_of(start)]
    while stack:
        name, parent = stack.pop()
        view = tree.node(name)
        stage.add_node(name, parent, view.resistance, view.capacitance)
        parent_of[name] = parent
        sink = sink_map.get(name)
        if sink is not None:
            stage.add_load(name, sink.capacitance)
            stage_sinks.append(name)
        buffer = assignments.get(name)
        if buffer is not None:
            stage.add_load(name, buffer.input_capacitance)
            stage_buffers.append(name)
            continue  # downstream of a buffer is another stage
        stack.extend((c, name) for c in tree.children_of(name))
    return stage, stage_sinks, stage_buffers, parent_of


def buffered_stage_delays(
    tree: RCTree,
    sinks: Sequence[BufferSink],
    buffer: BufferType,
    driver_resistance: float,
    buffer_nodes: Sequence[str],
) -> Dict[str, float]:
    """Evaluate a buffered net: Elmore arrival delay at every sink.

    :func:`assigned_stage_delays` with ``buffer`` at every node of
    ``buffer_nodes``.
    """
    return assigned_stage_delays(
        tree, sinks, dict.fromkeys(buffer_nodes, buffer), driver_resistance
    )


def assigned_stage_delays(
    tree: RCTree,
    sinks: Sequence[BufferSink],
    assignments: Dict[str, BufferType],
    driver_resistance: float,
) -> Dict[str, float]:
    """Elmore arrival at every sink for a typed buffer assignment.

    Splits the tree into stages at the assigned nodes (a buffer at node
    ``b`` drives the subtree below ``b``; its input becomes a sink load on
    the upstream stage), evaluates each stage's Elmore delays, and chains
    them.  Returns ``{sink node: total delay}`` — the quantity the DP's
    required time is measured against (up to sign/required offsets).
    """
    sink_map = _sink_map(tree, sinks, assignments)
    arrival: Dict[str, float] = {}
    # (stage root, input arrival, drive resistance); stages are walked in
    # preorder with an explicit stack, so buffer chains of any depth work.
    work = [(None, 0.0, driver_resistance)]
    while work:
        root, t0, drive_r = work.pop()
        stage, stage_sinks, stage_buffers, _ = _stage(
            tree, root, sink_map, assignments
        )
        if stage.num_nodes == 0:
            continue
        delays = elmore_delays(stage)
        base = t0 + drive_r * stage.total_capacitance()
        for name in stage_sinks:
            arrival[name] = base + delays[stage.index_of(name)]
        for name in reversed(stage_buffers):
            buffer = assignments[name]
            t_in = base + delays[stage.index_of(name)]
            work.append((name, t_in + buffer.intrinsic_delay,
                         buffer.output_resistance))
    return arrival
