"""Net routing substrate: rectilinear spanning/Steiner trees -> RC trees."""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.routing.steiner": [
        "manhattan", "one_steiner_refinement", "rectilinear_mst", "route_net",
        "route_segments", "total_wire_length",
    ],
    "repro.routing.timing_driven": [
        "TimingDrivenResult", "route_net_timing_driven",
    ],
})

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
