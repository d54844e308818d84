"""repro — reproduction of "The Elmore Delay as a Bound for RC Trees with
Generalized Input Signals" (Gupta, Tutuianu, Pileggi; DAC'95 / TCAD'97).

The package proves-by-construction the paper's results on real circuits:

* :mod:`repro.circuit` — RC-tree model, builders, wire geometry, SPICE I/O;
* :mod:`repro.core` — moments, the Elmore upper bound and ``mu - sigma``
  lower bound, Penfield–Rubinstein bounds, delay metrics, verification;
* :mod:`repro.analysis` — exact pole/residue analysis ("the SPICE"),
  transient simulation, pi-models;
* :mod:`repro.awe` — single/two/q-pole moment-matching baselines;
* :mod:`repro.signals` — step, ramps, exponential, PWL input waveforms;
* :mod:`repro.sta` — a miniature static timing analyzer on top of the
  Elmore metric;
* :mod:`repro.routing` — pin-to-tree rectilinear routing substrate;
* :mod:`repro.workloads` — the paper's circuits and benchmark generators.

Quick start::

    from repro import RCTree, elmore_delay, delay_bounds, actual_delay

    tree = RCTree("in")
    tree.add_node("n1", "in", resistance=100.0, capacitance=50e-15)
    tree.add_node("n2", "n1", resistance=200.0, capacitance=80e-15)

    td = elmore_delay(tree, "n2")          # the Elmore upper bound
    b = delay_bounds(tree, "n2")           # upper + lower bound pair
    d = actual_delay(tree, "n2").delay     # exact 50% delay
    assert b.lower <= d <= b.upper
"""

import logging as _logging

from repro._exceptions import (
    AnalysisError,
    ConvergenceError,
    MetricError,
    NetlistError,
    ReproError,
    RoutingError,
    SignalError,
    TimingGraphError,
    TopologyError,
    ValidationError,
)
from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.analysis.admittance": ["pi_model"],
    "repro.analysis.responses": [
        "actual_delay", "measure_delay", "output_rise_time",
        "sample_waveform", "threshold_crossing",
    ],
    "repro.analysis.state_space": ["ExactAnalysis", "PoleResidueTransfer"],
    "repro.analysis.transient": ["simulate", "simulate_step_response"],
    "repro.awe.onepole": ["one_pole_delay"],
    "repro.awe.pade": ["awe_delay", "two_pole_delay"],
    "repro.circuit.builders": [
        "balanced_tree", "random_tree", "rc_line", "star_tree",
    ],
    "repro.circuit.rctree": ["RCTree"],
    "repro.circuit.spice": ["parse_rc_tree", "tree_to_netlist"],
    "repro.core.bounds": [
        "DelayBounds", "delay_bounds", "delay_lower_bound",
        "delay_upper_bound", "rise_time_estimate",
    ],
    "repro.core.elmore": ["elmore_delay", "elmore_delays"],
    "repro.core.metrics": ["METRICS", "evaluate_metrics"],
    "repro.core.moments": ["transfer_moments"],
    "repro.core.penfield_rubinstein": [
        "PRHBounds", "prh_bounds", "prh_delay_interval",
    ],
    "repro.core.sensitivity": ["elmore_sensitivity"],
    "repro.core.verification": ["verify_tree"],
    "repro.opt.buffering": ["BufferSink", "BufferType", "insert_buffers"],
    "repro.opt.sizing": ["SizableSegment", "SizingProblem", "size_wires"],
    "repro.signals.exponential": ["ExponentialInput"],
    "repro.signals.pwl": ["PWLSignal"],
    "repro.signals.ramp": ["SaturatedRamp"],
    "repro.signals.smooth": ["RaisedCosineRamp", "SmoothstepRamp"],
    "repro.signals.step": ["StepInput"],
})

# Library logging contract: quiet by default.  Applications opt in with
# ``repro.obs.configure_logging`` (the CLI's ``-v``) or their own handler.
_logging.getLogger(__name__).addHandler(_logging.NullHandler())

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # circuit
    "RCTree",
    "rc_line",
    "balanced_tree",
    "star_tree",
    "random_tree",
    "parse_rc_tree",
    "tree_to_netlist",
    # core
    "transfer_moments",
    "elmore_delay",
    "elmore_delays",
    "delay_bounds",
    "DelayBounds",
    "delay_upper_bound",
    "delay_lower_bound",
    "rise_time_estimate",
    "prh_bounds",
    "PRHBounds",
    "prh_delay_interval",
    "METRICS",
    "evaluate_metrics",
    "verify_tree",
    # analysis
    "ExactAnalysis",
    "PoleResidueTransfer",
    "actual_delay",
    "measure_delay",
    "threshold_crossing",
    "output_rise_time",
    "sample_waveform",
    "simulate",
    "simulate_step_response",
    "pi_model",
    # awe
    "one_pole_delay",
    "two_pole_delay",
    "awe_delay",
    # optimization
    "elmore_sensitivity",
    "insert_buffers",
    "BufferType",
    "BufferSink",
    "size_wires",
    "SizingProblem",
    "SizableSegment",
    # signals
    "StepInput",
    "SaturatedRamp",
    "RaisedCosineRamp",
    "SmoothstepRamp",
    "ExponentialInput",
    "PWLSignal",
    # exceptions
    "ReproError",
    "TopologyError",
    "ValidationError",
    "NetlistError",
    "AnalysisError",
    "ConvergenceError",
    "SignalError",
    "MetricError",
    "TimingGraphError",
    "RoutingError",
]
