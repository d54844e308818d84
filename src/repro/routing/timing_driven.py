"""Timing-driven net routing: optimize Elmore delay, not wirelength.

Wirelength-driven routing (RMST / Steiner) minimizes capacitance, but the
paper's Sec. I point is that the Elmore metric itself is cheap enough to
*drive* layout.  This module implements that: the same 1-Steiner candidate
machinery as :mod:`repro.routing.steiner`, but scored by a
criticality-weighted Elmore objective evaluated on the actual RC tree —
trading wire on non-critical branches for speed on critical ones.

Two moves are explored greedily until no candidate improves the objective:

* adding a Hanan-grid Steiner point (re-shapes the tree), and
* re-parenting a sink onto a different tree node (direct source routing
  for critical sinks — the classic "shallowness vs lightness" trade).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro._exceptions import RoutingError
from repro.circuit.rctree import RCTree
from repro.circuit.wires import DEFAULT_TECHNOLOGY, WireTechnology
from repro.core.elmore import elmore_delays
from repro.routing.steiner import (
    Point,
    _MIN_SEGMENT,
    _hanan_points,
    manhattan,
    rectilinear_mst,
)
from repro.circuit.wires import WireSegment, tree_from_segments

__all__ = ["TimingDrivenResult", "route_net_timing_driven"]


class TimingDrivenResult:
    """Outcome of :func:`route_net_timing_driven`.

    Attributes
    ----------
    tree:
        The final RC tree.
    sink_nodes:
        Tree node per sink, in input order.
    objective:
        Final criticality-weighted Elmore objective.
    wirelength_objective:
        The objective of the plain wirelength-driven (RMST) route, for
        comparison.
    moves:
        Number of accepted improvement moves.
    """

    def __init__(self, tree, sink_nodes, objective,
                 wirelength_objective, moves):
        self.tree = tree
        self.sink_nodes = sink_nodes
        self.objective = objective
        self.wirelength_objective = wirelength_objective
        self.moves = moves

    @property
    def improvement(self) -> float:
        """Fractional objective reduction vs the wirelength-driven route."""
        if self.wirelength_objective <= 0:
            return 0.0
        return 1.0 - self.objective / self.wirelength_objective


def _build_tree(
    points: Sequence[Point],
    edges: Sequence[Tuple[int, int]],
    driver_resistance: float,
    technology: WireTechnology,
    wire_width: float,
    pin_loads: Optional[Sequence[float]],
    num_sinks: int,
    sections_per_segment: int,
) -> Tuple[RCTree, List[str]]:
    import networkx as nx

    def node_name(index: int) -> str:
        if index == 0:
            return "drv"
        if index <= num_sinks:
            return f"p{index}"
        return f"st{index - num_sinks - 1}"

    graph = nx.Graph()
    graph.add_nodes_from(range(len(points)))
    graph.add_edges_from(edges)
    if not nx.is_connected(graph) or graph.number_of_edges() != \
            len(points) - 1:
        raise RoutingError("candidate edge set is not a spanning tree")

    segments = []
    order = nx.bfs_tree(graph, 0)
    for parent, child in order.edges():
        length = max(manhattan(points[parent], points[child]), _MIN_SEGMENT)
        segments.append(WireSegment(
            parent=node_name(parent), child=node_name(child),
            length=length, width=wire_width, technology=technology,
        ))
    loads: Dict[str, float] = {}
    if pin_loads is not None:
        for k, load in enumerate(pin_loads):
            if load:
                name = node_name(k + 1)
                loads[name] = loads.get(name, 0.0) + float(load)
    tree = tree_from_segments(
        segments, driver_resistance=driver_resistance,
        pin_loads=loads or None, driver_node="drv",
        sections_per_segment=sections_per_segment,
    )
    sink_nodes = [node_name(k + 1) for k in range(num_sinks)]
    return tree, sink_nodes


def _objective(tree, sink_nodes, weights) -> float:
    delays = elmore_delays(tree)
    return float(sum(
        w * delays[tree.index_of(node)]
        for node, w in zip(sink_nodes, weights)
    ))


def route_net_timing_driven(
    driver_position: Point,
    sink_positions: Sequence[Point],
    driver_resistance: float,
    sink_criticalities: Optional[Sequence[float]] = None,
    technology: WireTechnology = DEFAULT_TECHNOLOGY,
    wire_width: float = 1e-6,
    pin_loads: Optional[Sequence[float]] = None,
    sections_per_segment: int = 2,
    max_moves: int = 20,
) -> TimingDrivenResult:
    """Route a net minimizing a criticality-weighted Elmore objective.

    Parameters
    ----------
    driver_position, sink_positions, driver_resistance:
        As in :func:`repro.routing.steiner.route_net`.
    sink_criticalities:
        Nonnegative weight per sink (default: all 1.0).  The objective is
        ``sum_k w_k * T_D(sink_k)``.
    max_moves:
        Cap on accepted improvement moves.

    Returns
    -------
    TimingDrivenResult
        Final route plus the wirelength-driven baseline objective.
    """
    import networkx as nx

    if not sink_positions:
        raise RoutingError("net has no sinks")
    num_sinks = len(sink_positions)
    if sink_criticalities is None:
        weights = [1.0] * num_sinks
    else:
        weights = [float(w) for w in sink_criticalities]
        if len(weights) != num_sinks:
            raise RoutingError("criticalities length must match sinks")
        if any(w < 0 for w in weights):
            raise RoutingError("criticalities must be >= 0")
    if pin_loads is not None and len(pin_loads) != num_sinks:
        raise RoutingError("pin_loads length must match sinks")

    points: List[Point] = [tuple(driver_position)]
    points.extend(tuple(p) for p in sink_positions)

    def build(pts, edges):
        return _build_tree(
            pts, edges, driver_resistance, technology, wire_width,
            pin_loads, num_sinks, sections_per_segment,
        )

    # Baseline: wirelength-driven RMST.
    mst = rectilinear_mst(points)
    edges = list(mst.edges())
    tree, sink_nodes = build(points, edges)
    baseline = _objective(tree, sink_nodes, weights)

    current_points = list(points)
    current_edges = edges
    best = baseline
    moves = 0
    improved = True
    while improved and moves < max_moves:
        improved = False
        # Move 1: re-parent one sink edge to any other node.
        for sink_idx in range(1, num_sinks + 1):
            adjacent = [e for e in current_edges if sink_idx in e]
            if len(adjacent) != 1:
                continue  # sink is a through-point; re-parenting would split
            old_edge = adjacent[0]
            for target in range(len(current_points)):
                if target == sink_idx or (min(old_edge), max(old_edge)) == \
                        (min(sink_idx, target), max(sink_idx, target)):
                    continue
                trial_edges = [e for e in current_edges if e != old_edge]
                trial_edges.append((target, sink_idx))
                graph = nx.Graph(trial_edges)
                graph.add_nodes_from(range(len(current_points)))
                if not nx.is_connected(graph):
                    continue
                try:
                    t_tree, t_sinks = build(current_points, trial_edges)
                except RoutingError:
                    continue
                value = _objective(t_tree, t_sinks, weights)
                if value < best * (1 - 1e-12):
                    current_edges = trial_edges
                    tree, sink_nodes, best = t_tree, t_sinks, value
                    moves += 1
                    improved = True
                    break
            if improved:
                break
        if improved:
            continue
        # Move 2: add a Hanan Steiner point and rebuild the MST over the
        # augmented point set (keeping any improvement).
        for candidate in _hanan_points(current_points):
            trial_points = current_points + [candidate]
            trial_mst = rectilinear_mst(trial_points)
            if trial_mst.degree(len(trial_points) - 1) < 3:
                continue
            trial_edges = list(trial_mst.edges())
            t_tree, t_sinks = build(trial_points, trial_edges)
            value = _objective(t_tree, t_sinks, weights)
            if value < best * (1 - 1e-12):
                current_points = trial_points
                current_edges = trial_edges
                tree, sink_nodes, best = t_tree, t_sinks, value
                moves += 1
                improved = True
                break

    return TimingDrivenResult(
        tree=tree,
        sink_nodes=sink_nodes,
        objective=best,
        wirelength_objective=baseline,
        moves=moves,
    )
