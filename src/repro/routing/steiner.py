"""Rectilinear net routing: pin positions -> spanning/Steiner tree -> RC tree.

The paper motivates the Elmore metric through performance-driven placement
and routing, where delay must be evaluated directly from net topology and
geometry.  This module supplies that flow:

1. build the complete Manhattan-distance graph over the driver and sink
   pins,
2. extract a rectilinear minimum spanning tree (RMST), optionally improved
   toward a Steiner tree with the classic 1-Steiner heuristic over Hanan
   grid candidates,
3. orient the tree away from the driver and emit wire segments
   (:func:`route_segments`), and
4. lump the segments into an :class:`~repro.circuit.rctree.RCTree` through
   the geometric wire model (:func:`route_net`).  The STA lays its MST
   nets out as flat parent/R/C arrays straight from :func:`_mst_edges`
   instead (:func:`repro.sta.interconnect.net_arrays`, the same arrays
   as :func:`~repro.circuit.wires.layout_segments` gives here).
"""

from __future__ import annotations

import itertools
import math
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

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
    "route_segments",
]

if TYPE_CHECKING:
    import networkx as nx

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
    n = len(points)
    if n < 2:
        raise RoutingError("routing needs at least two pins")
    pairs = sorted([
        (abs(a[0] - b[0]) + abs(a[1] - b[1]), i, j)  # manhattan(a, b)
        for (i, a), (j, b) in itertools.combinations(enumerate(points), 2)
    ])
    if not all(math.isfinite(weight) for weight, _, _ in pairs):
        raise RoutingError("pin coordinates must be finite")
    if n <= 3:  # any n - 1 of these pairs form a tree: no cycle to skip
        return [(i, j, weight) for weight, i, j in pairs[:n - 1]]
    component = list(range(n))
    edges: List[Tuple[int, int, float]] = []
    for weight, i, j in pairs:
        ci, cj = component[i], component[j]
        if ci != cj:
            edges.append((i, j, weight))
            if len(edges) == n - 1:
                break
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
    import networkx as nx

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

    Raises
    ------
    RoutingError
        No sinks, a ``pin_loads`` length mismatch, or non-finite pins.
    ValidationError
        ``sections_per_segment`` is not an int >= 1.
    """
    if pin_loads is not None and len(pin_loads) != len(sink_positions):
        raise RoutingError("pin_loads length must match sink_positions")
    segments, sink_nodes = route_segments(
        driver_position, sink_positions, technology, wire_width, use_steiner,
    )
    loads = {node: float(load) for node, load in
             zip(sink_nodes, () if pin_loads is None else pin_loads) if load}
    tree = tree_from_segments(
        segments,
        driver_resistance=driver_resistance,
        pin_loads=loads or None,
        driver_node="drv",
        sections_per_segment=sections_per_segment,
    )
    return tree, sink_nodes


def route_segments(
    driver_position: Point,
    sink_positions: Sequence[Point],
    technology: WireTechnology = DEFAULT_TECHNOLOGY,
    wire_width: float = 1e-6,
    use_steiner: bool = False,
) -> Tuple[List[WireSegment], List[str]]:
    """Route a net into wire segments, without building its RC tree.

    Returns the segments oriented breadth-first away from the driver
    node ``"drv"`` and, for each sink (in input order), the name of its
    node (``"p1"``, ``"p2"``, ...; Steiner points are ``"st0"``, ...).
    :func:`route_net` lays these out with
    :func:`~repro.circuit.wires.tree_from_segments`.
    """
    if not sink_positions:
        raise RoutingError("net has no sinks")

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

    names = ["drv"] + [f"p{k}" for k in range(1, num_pins)] + [
        f"st{k}" for k in range(len(points) - num_pins)
    ]
    segments = [
        WireSegment(
            parent=names[parent],
            child=names[child],
            length=max(manhattan(points[parent], points[child]),
                       _MIN_SEGMENT),
            width=wire_width,
            technology=technology,
        )
        for parent, child in _bfs_edges(adjacency)
    ]
    return segments, names[1:num_pins]
