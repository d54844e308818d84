"""Geometric wire model: routed net geometry -> lumped RC tree.

The paper motivates the Elmore delay as "the only delay metric which is
easily measured in terms of net widths and lengths" (Sec. I).  This module
supplies that measurement path: a simple per-layer technology description
(sheet resistance, area and fringe capacitance) converts wire segments of
given length/width into RC sections, :func:`layout_segments` lays the
sections out as flat parent/R/C arrays, and :func:`tree_from_segments`
builds the :class:`~repro.circuit.rctree.RCTree` over those arrays.

Units are SI throughout: lengths in meters, resistance in ohms, capacitance
in farads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro._exceptions import TopologyError, ValidationError
from repro.circuit.rctree import RCTree, checked_load

__all__ = [
    "WireTechnology", "WireSegment", "WireLayout", "wire_rc",
    "layout_segments", "tree_from_segments",
]


@dataclass(frozen=True)
class WireTechnology:
    """Per-layer electrical parameters of a routing layer.

    Parameters
    ----------
    sheet_resistance:
        Ohms per square of the layer.
    area_capacitance:
        Farads per square meter of wire area (parallel-plate component).
    fringe_capacitance:
        Farads per meter of wire edge (two edges are counted per segment).
    min_width:
        Minimum legal wire width (meters), used for validation.
    name:
        Layer name (informational).
    """

    sheet_resistance: float
    area_capacitance: float
    fringe_capacitance: float
    min_width: float = 0.0
    name: str = "metal"

    def __post_init__(self) -> None:
        if not 0 < self.sheet_resistance < math.inf:
            raise ValidationError(
                "sheet_resistance must be finite and > 0, got "
                f"{self.sheet_resistance!r}"
            )
        if not (0 <= self.area_capacitance < math.inf
                and 0 <= self.fringe_capacitance < math.inf):
            raise ValidationError(
                "capacitance coefficients must be finite and >= 0, got "
                f"{self.area_capacitance!r} and {self.fringe_capacitance!r}"
            )
        if not 0 <= self.min_width < math.inf:
            raise ValidationError(
                f"min_width must be finite and >= 0, got {self.min_width!r}"
            )

    def segment_resistance(self, length: float, width: float) -> float:
        """Resistance of a ``length x width`` rectangle of this layer."""
        return self.segment_rc(length, width)[0]

    def segment_capacitance(self, length: float, width: float) -> float:
        """Total grounded capacitance of a wire rectangle (area + fringe)."""
        return self.segment_rc(length, width)[1]

    def segment_rc(self, length: float, width: float) -> Tuple[float, float]:
        """``(R, C)`` of a ``length x width`` rectangle of this layer."""
        self._check_geometry(length, width)
        return (
            self.sheet_resistance * length / width,
            self.area_capacitance * length * width
            + 2.0 * self.fringe_capacitance * length,
        )

    def _check_geometry(self, length: float, width: float) -> None:
        if not 0 < length < math.inf:
            raise ValidationError(
                f"wire length must be finite and > 0, got {length!r}"
            )
        if not 0 < width < math.inf:
            raise ValidationError(
                f"wire width must be finite and > 0, got {width!r}"
            )
        if self.min_width and width < self.min_width:
            raise ValidationError(
                f"wire width {width:g} below layer minimum {self.min_width:g}"
            )


#: A reasonable mid-1990s aluminum layer, matching the technology era of the
#: paper: 40 mohm/sq sheet resistance, ~30 aF/um^2 area cap, ~40 aF/um
#: fringe cap.  Exposed so examples have a one-line starting point.
DEFAULT_TECHNOLOGY = WireTechnology(
    sheet_resistance=0.04,
    area_capacitance=3e-5,
    fringe_capacitance=4e-11,
    min_width=0.5e-6,
    name="M2-al",
)

__all__.append("DEFAULT_TECHNOLOGY")


@dataclass(frozen=True)
class WireSegment:
    """One routed wire piece between two topological nodes of a net.

    Parameters
    ----------
    parent, child:
        Node names; ``parent`` is electrically closer to the driver.
    length, width:
        Segment geometry in meters.
    technology:
        Layer the segment is routed on.
    """

    parent: str
    child: str
    length: float
    width: float
    technology: WireTechnology = DEFAULT_TECHNOLOGY

    def resistance(self) -> float:
        """Lumped resistance of this segment."""
        return self.technology.segment_resistance(self.length, self.width)

    def capacitance(self) -> float:
        """Lumped grounded capacitance of this segment."""
        return self.technology.segment_capacitance(self.length, self.width)


def wire_rc(
    length: float,
    width: float,
    technology: WireTechnology = DEFAULT_TECHNOLOGY,
) -> Tuple[float, float]:
    """Return ``(R, C)`` of a wire rectangle on ``technology``."""
    return technology.segment_rc(length, width)


class WireLayout(NamedTuple):
    """A routed net laid out as flat parent-pointer arrays.

    Node ``i`` is ``names[i]``, hangs off node ``parents[i]`` (``-1`` =
    the input node) through ``resistances[i]`` ohms and carries
    ``capacitances[i]`` farads; ``index`` maps each name back to ``i``.
    ``RCTree.from_arrays(input_node, *layout[:4])`` is the tree.
    """

    names: List[str]
    parents: List[int]
    resistances: List[float]
    capacitances: List[float]
    index: Dict[str, int]


def layout_segments(
    segments: Sequence[WireSegment],
    driver_resistance: float,
    pin_loads: Optional[Dict[str, float]] = None,
    input_node: str = "in",
    driver_node: str = "drv",
    sections_per_segment: int = 1,
) -> WireLayout:
    """Lay a routed net out as flat arrays (see :func:`tree_from_segments`).

    The driver node comes first; segments are then placed depth-first
    from it, each split into ``sections_per_segment`` pi sections.  Node
    names are checked here; R and C are checked by whoever consumes the
    arrays (:meth:`RCTree.from_arrays` or
    :func:`repro.core.batch.compile_forest`).
    """
    n = sections_per_segment
    if (type(n) is not int
            and (isinstance(n, bool) or not isinstance(n, Integral))) \
            or n < 1:
        raise ValidationError(
            f"sections_per_segment must be an int >= 1, got {n!r}"
        )
    if driver_resistance <= 0:
        raise ValidationError("driver_resistance must be > 0")
    if not segments:
        raise ValidationError("net has no wire segments")

    # Order segments topologically from the driver.
    by_parent: Dict[str, List[WireSegment]] = {}
    for seg in segments:
        by_parent.setdefault(seg.parent, []).append(seg)

    names = [driver_node]
    parents = [-1]
    resistances = [driver_resistance]
    capacitances = [0.0]
    index = {driver_node: 0}
    visited = {driver_node}
    stack = [driver_node]
    placed = 0
    while stack:
        parent = stack.pop()
        for seg in by_parent.get(parent, ()):
            if seg.child in visited:
                raise ValidationError(
                    f"net geometry is not a tree: node {seg.child!r} "
                    "reached twice"
                )
            r_total, c_total = seg.technology.segment_rc(seg.length,
                                                          seg.width)
            r = r_total / n
            c = c_total / (2 * n)
            attach = index[parent]
            for k in range(1, n + 1):
                name = seg.child if k == n else f"{seg.child}.s{k}"
                if name == input_node or name in index:
                    raise TopologyError(
                        f"node {name!r} already exists in the tree"
                    )
                # Split each section's capacitance half at each end (pi
                # sections); ``attach`` is never the input node because the
                # driver node is always interposed first.
                node = index[name] = len(names)
                names.append(name)
                parents.append(attach)
                resistances.append(r)
                capacitances.append(c)
                capacitances[attach] += c
                attach = node
            visited.add(seg.child)
            stack.append(seg.child)
            placed += 1
    if placed != len(segments):
        unreached = [s.child for s in segments if s.child not in visited]
        raise ValidationError(
            f"segments unreachable from driver {driver_node!r}: {unreached}"
        )

    for node, load in (pin_loads or {}).items():
        load = checked_load(node, load)
        if node not in index:
            raise TopologyError(f"unknown node {node!r}")
        capacitances[index[node]] += load
    return WireLayout(names, parents, resistances, capacitances, index)


def tree_from_segments(
    segments: Sequence[WireSegment],
    driver_resistance: float,
    pin_loads: Optional[Dict[str, float]] = None,
    input_node: str = "in",
    driver_node: str = "drv",
    sections_per_segment: int = 1,
) -> RCTree:
    """Build an RC tree for a routed net.

    The driver is modelled as a linear resistance ``driver_resistance`` from
    the input node to ``driver_node`` (the net's source pin), per the
    linearization of Fig. 1/2 in the paper.  Each wire segment becomes
    ``sections_per_segment`` lumped RC sections using the pi-like split:
    half of each section's capacitance at each end, which converges to the
    distributed-line behaviour as sections increase.

    Parameters
    ----------
    segments:
        Wire pieces; their parent/child names must form a tree rooted at
        ``driver_node``.
    driver_resistance:
        Linearized driving-gate output resistance (ohms).
    pin_loads:
        Optional map from node name to receiver input capacitance.
    sections_per_segment:
        Number of RC sections per wire segment (an int >= 1; anything
        else is a :class:`ValidationError`); more sections model the
        distributed wire more faithfully.
    """
    return RCTree.from_arrays(input_node, *layout_segments(
        segments, driver_resistance, pin_loads, input_node, driver_node,
        sections_per_segment,
    )[:4])
