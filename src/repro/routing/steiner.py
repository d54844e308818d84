"""Rectilinear net routing: pin positions -> spanning/Steiner tree -> RC tree.

The paper motivates the Elmore metric through performance-driven placement
and routing, where delay must be evaluated directly from net topology and
geometry.  This module supplies that flow:

1. build the complete Manhattan-distance graph over the driver and sink
   pins,
2. extract a rectilinear minimum spanning tree (RMST), optionally improved
   toward a Steiner tree with the classic 1-Steiner heuristic over Hanan
   grid candidates,
3. orient the tree away from the driver and emit wire segments, and
4. lump the segments into an :class:`~repro.circuit.rctree.RCTree` through
   the geometric wire model.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, List, Optional, Sequence, Tuple

import networkx as nx

from repro._exceptions import RoutingError
from repro.circuit.rctree import RCTree
from repro.circuit.wires import DEFAULT_TECHNOLOGY, WireSegment, WireTechnology, \
    tree_from_segments

__all__ = [
    "manhattan",
    "rectilinear_mst",
    "one_steiner_refinement",
    "total_wire_length",
    "route_net",
]

Point = Tuple[float, float]

#: Minimum electrical segment length (meters) used for coincident pins.
_MIN_SEGMENT = 1e-9


def manhattan(a: Point, b: Point) -> float:
    """Rectilinear (L1) distance between two points."""
    return abs(a[0] - b[0]) + abs(a[1] - b[1])


def _mst_edges(points: Sequence[Point]) -> List[Tuple[int, int, float]]:
    """Kruskal over the complete Manhattan graph on ``points``.

    Pairs are sorted by ``(weight, i, j)``: by weight, ties kept in
    ``itertools.combinations`` order (a stable sort).  Returns the accepted
    ``(i, j, weight)`` edges (``i < j``) in the order
    ``nx.minimum_spanning_tree`` accepts them.
    """
    if len(points) < 2:
        raise RoutingError("routing needs at least two pins")
    pairs = sorted(
        (manhattan(points[i], points[j]), i, j)
        for i, j in itertools.combinations(range(len(points)), 2)
    )
    if not all(math.isfinite(weight) for weight, _, _ in pairs):
        raise RoutingError("pin coordinates must be finite")
    component = list(range(len(points)))
    edges: List[Tuple[int, int, float]] = []
    for weight, i, j in pairs:
        ci, cj = component[i], component[j]
        if ci != cj:
            edges.append((i, j, weight))
            component = [ci if c == cj else c for c in component]
    return edges


def _bfs_edges(adjacency) -> List[Tuple[int, int]]:
    """``(parent, child)`` tree edges breadth-first from the driver (node
    0), each node's neighbours in ``adjacency`` order (as ``nx.bfs_tree``
    does)."""
    seen = {0}
    queue = [0]
    edges: List[Tuple[int, int]] = []
    for parent in queue:
        for child in adjacency[parent]:
            if child not in seen:
                seen.add(child)
                queue.append(child)
                edges.append((parent, child))
    return edges


def rectilinear_mst(points: Sequence[Point]) -> "nx.Graph":
    """Minimum spanning tree of the complete Manhattan graph over
    ``points``.  Nodes are point indices; edges carry ``weight``."""
    graph = nx.Graph()
    graph.add_nodes_from(range(len(points)))
    graph.add_weighted_edges_from(_mst_edges(points))
    return graph


def total_wire_length(tree: "nx.Graph") -> float:
    """Sum of edge weights of a routing tree."""
    return float(sum(data["weight"] for _, _, data in tree.edges(data=True)))


def _hanan_points(points: Sequence[Point]) -> List[Point]:
    xs = sorted({p[0] for p in points})
    ys = sorted({p[1] for p in points})
    existing = set(points)
    return [
        (x, y) for x in xs for y in ys if (x, y) not in existing
    ]


def one_steiner_refinement(
    points: Sequence[Point], max_added: int = 8
) -> Tuple[List[Point], "nx.Graph"]:
    """Greedy 1-Steiner heuristic over Hanan grid candidates.

    Repeatedly adds the Hanan point that most reduces the RMST length,
    stopping when no candidate helps or ``max_added`` points were added.
    Returns the augmented point list (originals first, in order) and the
    final spanning tree over it.  Intended for small nets (the candidate
    scan is quadratic in pin count per iteration).
    """
    current = list(points)
    best_tree = rectilinear_mst(current)
    best_len = total_wire_length(best_tree)
    for _ in range(max_added):
        improved = False
        for candidate in _hanan_points(current):
            trial_points = current + [candidate]
            trial_tree = rectilinear_mst(trial_points)
            # Only count the candidate if it is actually used (degree >= 3
            # makes it a true Steiner point; degree <= 1 is useless).
            if trial_tree.degree(len(trial_points) - 1) < 3:
                continue
            trial_len = total_wire_length(trial_tree)
            if trial_len < best_len - 1e-15:
                current = trial_points
                best_tree = trial_tree
                best_len = trial_len
                improved = True
                break
        if not improved:
            break
    return current, best_tree


def route_net(
    driver_position: Point,
    sink_positions: Sequence[Point],
    driver_resistance: float,
    technology: WireTechnology = DEFAULT_TECHNOLOGY,
    wire_width: float = 1e-6,
    use_steiner: bool = False,
    sections_per_segment: int = 2,
    pin_loads: Optional[Sequence[float]] = None,
) -> Tuple[RCTree, List[str]]:
    """Route a net and return its RC tree.

    Parameters
    ----------
    driver_position:
        Location of the driving pin.
    sink_positions:
        Locations of the receiving pins (>= 1).
    driver_resistance:
        Linearized driver output resistance (ohms).
    technology, wire_width:
        Wire electrical model.
    use_steiner:
        Apply the 1-Steiner refinement before building the RC tree.
    sections_per_segment:
        RC sections per routed edge (distributed-wire fidelity).
    pin_loads:
        Optional per-sink capacitive loads (same order as
        ``sink_positions``).

    Returns
    -------
    (tree, sink_nodes):
        The RC tree and, for each sink (in input order), the name of its
        node in the tree.
    """
    if not sink_positions:
        raise RoutingError("net has no sinks")
    if pin_loads is not None and len(pin_loads) != len(sink_positions):
        raise RoutingError("pin_loads length must match sink_positions")

    points: List[Point] = [tuple(driver_position)]
    points.extend(tuple(p) for p in sink_positions)
    num_pins = len(points)

    if use_steiner and num_pins >= 4:
        points, span = one_steiner_refinement(points)
        adjacency = span.adj
    else:
        adjacency = [[] for _ in points]
        for i, j, _ in _mst_edges(points):
            adjacency[i].append(j)
            adjacency[j].append(i)

    def node_name(index: int) -> str:
        if index == 0:
            return "drv"
        if index < num_pins:
            return f"p{index}"
        return f"st{index - num_pins}"

    segments: List[WireSegment] = []
    for parent, child in _bfs_edges(adjacency):
        length = max(manhattan(points[parent], points[child]), _MIN_SEGMENT)
        segments.append(
            WireSegment(
                parent=node_name(parent),
                child=node_name(child),
                length=length,
                width=wire_width,
                technology=technology,
            )
        )

    loads: Dict[str, float] = {}
    if pin_loads is not None:
        for k, load in enumerate(pin_loads):
            if load:
                name = node_name(k + 1)
                loads[name] = loads.get(name, 0.0) + float(load)

    tree = tree_from_segments(
        segments,
        driver_resistance=driver_resistance,
        pin_loads=loads or None,
        driver_node="drv",
        sections_per_segment=sections_per_segment,
    )
    sink_nodes = [node_name(k + 1) for k in range(len(sink_positions))]
    return tree, sink_nodes
