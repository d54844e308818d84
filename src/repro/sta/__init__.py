"""Miniature static timing analyzer built on the Elmore bound."""

from repro.sta.characterize import (
    CharacterizationResult,
    characterize_driver,
    lumped_load_delay_oracle,
)
from repro.sta.interconnect import (
    ElaboratedNet,
    NetGeometry,
    WireLoadModel,
    build_net,
    elaborate_net,
    net_geometry,
)
from repro.sta.library import Cell, CellLibrary, default_library
from repro.sta.netlist import Design, Instance, Net, Pin
from repro.sta.slack import SlackReport, compute_slacks
from repro.sta.ssta import (
    ProcessModel,
    SSTAReport,
    SSTAValidation,
    analyze_ssta,
    monte_carlo_arrivals,
    validate_against_monte_carlo,
)
from repro.sta.timing import DELAY_MODELS, PathElement, TimingResult, analyze

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
