"""Miniature static timing analyzer built on the Elmore bound."""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.sta.characterize": [
        "CharacterizationResult", "characterize_driver",
        "lumped_load_delay_oracle",
    ],
    "repro.sta.interconnect": [
        "ElaboratedNet", "NetArrays", "NetGeometry", "WireLoadModel",
        "build_net", "elaborate_net", "net_arrays", "net_geometry",
    ],
    "repro.sta.library": ["Cell", "CellLibrary", "default_library"],
    "repro.sta.netlist": ["Design", "Instance", "Net", "Pin"],
    "repro.sta.slack": ["SlackReport", "compute_slacks"],
    "repro.sta.ssta": [
        "ProcessModel", "SSTAReport", "SSTAValidation", "analyze_ssta",
        "monte_carlo_arrivals", "validate_against_monte_carlo",
    ],
    "repro.sta.timing": [
        "DELAY_MODELS", "PathElement", "TimingResult", "analyze",
    ],
})

__all__ = [
    "Cell",
    "CellLibrary",
    "default_library",
    "Design",
    "Instance",
    "Net",
    "Pin",
    "WireLoadModel",
    "ElaboratedNet",
    "elaborate_net",
    "NetGeometry",
    "net_geometry",
    "NetArrays",
    "net_arrays",
    "build_net",
    "analyze",
    "TimingResult",
    "PathElement",
    "DELAY_MODELS",
    "SlackReport",
    "compute_slacks",
    "ProcessModel",
    "SSTAReport",
    "SSTAValidation",
    "analyze_ssta",
    "monte_carlo_arrivals",
    "validate_against_monte_carlo",
    "CharacterizationResult",
    "characterize_driver",
    "lumped_load_delay_oracle",
]
