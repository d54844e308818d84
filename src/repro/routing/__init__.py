"""Net routing substrate: rectilinear spanning/Steiner trees -> RC trees."""

from repro.routing.steiner import (
    manhattan,
    one_steiner_refinement,
    rectilinear_mst,
    route_net,
    route_segments,
    total_wire_length,
)
from repro.routing.timing_driven import (
    TimingDrivenResult,
    route_net_timing_driven,
)

__all__ = [
    "manhattan",
    "rectilinear_mst",
    "one_steiner_refinement",
    "total_wire_length",
    "route_net",
    "route_segments",
    "route_net_timing_driven",
    "TimingDrivenResult",
]
