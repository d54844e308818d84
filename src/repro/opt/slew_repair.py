"""Slew (transition-time) repair by repeater insertion.

Signoff flows impose a maximum transition time at every pin; long
resistive nets violate it.  Using the paper's Sec. III-B measure — the
standard deviation ``sigma = sqrt(mu_2(h))`` of the stage's impulse
response, which adds in quadrature with the input transition (eq. 41) —
this module walks a net top-down and inserts repeaters greedily so that
the predicted ``sigma`` at every sink (and every repeater input) stays
within a limit.

Greedy top-down is the textbook approach for slew repair (unlike delay
buffering, the constraint is local): descend from the driver, and as soon
as a node's accumulated ``sigma`` exceeds the limit, place a repeater at
its parent (the last legal point) and restart accumulation from the
repeater's regenerated edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence, Set, Tuple

import numpy as np

from repro._exceptions import AnalysisError, ValidationError
from repro.circuit.rctree import RCTree
from repro.core.moments import transfer_moments
from repro.opt.buffering import BufferSink, BufferType, _sink_map, _stage

__all__ = ["SlewRepairResult", "repair_slews", "stage_sigmas"]


@dataclass(frozen=True)
class SlewRepairResult:
    """Outcome of :func:`repair_slews`.

    Attributes
    ----------
    buffer_nodes:
        Repeater locations (each drives its node's children subtrees).
    sink_sigmas:
        Predicted transition sigma at every sink after repair.
    worst_sigma:
        Largest predicted sigma over the sinks (repeater inputs are
        within the limit by construction: insertion happens at the last
        node before the first violation).
    iterations:
        Top-down passes performed (> 1 when a freshly placed repeater's
        own stage still violates).
    """

    buffer_nodes: Tuple[str, ...]
    sink_sigmas: Dict[str, float]
    worst_sigma: float
    iterations: int


def _sigma_stages(
    tree: RCTree,
    sink_map: Dict[str, BufferSink],
    assignments: Dict[str, BufferType],
    driver_resistance: float,
    input_sigma: float,
) -> Iterator[Tuple[RCTree, List[str], Dict[str, str], float]]:
    """Each non-empty stage of the buffered net in preorder, with its
    sinks, stage parents and input sigma (``input_sigma`` at the driver,
    0 after each repeater, which regenerates an ideal edge)."""
    # An explicit stack, so buffer chains of any depth work.
    work = [(None, input_sigma, driver_resistance)]
    while work:
        root, sigma_in, drive_r = work.pop()
        stage, stage_sinks, stage_buffers, parent_of = _stage(
            tree, root, sink_map, assignments, drive_r
        )
        if stage.num_nodes > 1:  # more than the driver node
            yield stage, stage_sinks, parent_of, sigma_in
        work.extend((name, 0.0, assignments[name].output_resistance)
                    for name in reversed(stage_buffers))


def stage_sigmas(
    tree: RCTree,
    sinks: Sequence[BufferSink],
    buffer: BufferType,
    driver_resistance: float,
    buffer_nodes: Sequence[str],
    input_sigma: float = 0.0,
) -> Dict[str, float]:
    """Predicted transition sigma at each sink of a buffered net.

    Stages are split at ``buffer_nodes`` exactly as in
    :func:`repro.opt.buffering.buffered_stage_delays`; within a stage the
    sigma is ``sqrt(sigma_in^2 + mu_2(h_stage))`` and each repeater
    regenerates to ``buffer.output`` sigma 0 (ideal edge) before its own
    stage dispersion.
    """
    sink_map = _sink_map(tree, sinks, buffer_nodes)
    out: Dict[str, float] = {}
    for stage, stage_sinks, _, sigma_in in _sigma_stages(
        tree, sink_map, dict.fromkeys(buffer_nodes, buffer),
        driver_resistance, input_sigma,
    ):
        moments = transfer_moments(stage, 2)
        for name in stage_sinks:
            mu2 = max(moments.variance(name), 0.0)
            out[name] = float(np.sqrt(sigma_in**2 + mu2))
    return out


def repair_slews(
    tree: RCTree,
    sinks: Sequence[BufferSink],
    buffer: BufferType,
    driver_resistance: float,
    sigma_limit: float,
    input_sigma: float = 0.0,
    max_iterations: int = 50,
) -> SlewRepairResult:
    """Insert repeaters until every sink's predicted sigma is in budget.

    Parameters
    ----------
    tree:
        Wire topology (as in :func:`repro.opt.buffering.insert_buffers`).
    sinks:
        Receiving pins.
    buffer:
        Repeater type.
    driver_resistance:
        Source drive resistance.
    sigma_limit:
        Maximum allowed transition sigma at any sink (> 0).
    input_sigma:
        Transition sigma of the net's input edge.
    max_iterations:
        Safety cap on repair passes.

    Raises
    ------
    AnalysisError
        If the limit is unachievable (a single wire segment plus the
        repeater's own drive already exceeds it) — detected when an
        iteration adds no repeater yet violations remain.
    """
    if sigma_limit <= 0.0:
        raise ValidationError("sigma_limit must be > 0")
    if input_sigma < 0.0:
        raise ValidationError("input_sigma must be >= 0")
    _sink_map(tree, sinks)

    buffers: Set[str] = set()
    iterations = 0
    while iterations < max_iterations:
        iterations += 1
        sigmas = stage_sigmas(
            tree, sinks, buffer, driver_resistance, sorted(buffers),
            input_sigma,
        )
        worst = max(sigmas.values())
        if worst <= sigma_limit:
            return SlewRepairResult(
                buffer_nodes=tuple(sorted(buffers)),
                sink_sigmas=sigmas,
                worst_sigma=worst,
                iterations=iterations,
            )
        added = self_heal_pass(
            tree, sinks, buffer, driver_resistance, sigma_limit,
            input_sigma, buffers,
        )
        if not added:
            raise AnalysisError(
                f"slew limit {sigma_limit:g}s unachievable: worst "
                f"predicted sigma {worst:g}s with no legal insertion left"
            )
    raise AnalysisError("slew repair did not converge")


def self_heal_pass(
    tree: RCTree,
    sinks: Sequence[BufferSink],
    buffer: BufferType,
    driver_resistance: float,
    sigma_limit: float,
    input_sigma: float,
    buffers: Set[str],
) -> bool:
    """One greedy top-down pass; returns True when a repeater was added.

    Walks each current stage from its root accumulating ``mu_2`` via the
    stage's moments; at the first node whose sigma breaks the limit, a
    repeater is placed at that node's parent (or at the node itself when
    the parent is the stage root).
    """
    sink_map = _sink_map(tree, sinks, buffers)
    sigma_budget2 = sigma_limit**2
    for stage, _, parent_of, sigma_in in _sigma_stages(
        tree, sink_map, dict.fromkeys(buffers, buffer), driver_resistance,
        input_sigma,
    ):
        moments = transfer_moments(stage, 2)
        # Scan in topological (insertion-compatible) order, after the
        # driver node, so the first violation is the shallowest one.
        for name in stage.node_names[1:]:
            mu2 = max(moments.variance(name), 0.0)
            if sigma_in**2 + mu2 > sigma_budget2 * (1 + 1e-12):
                parent = parent_of[name]
                placement = name if parent == "drv#" else parent
                if placement in buffers:
                    break  # already buffered: unachievable in this stage
                buffers.add(placement)
                return True
    return False
