"""Exact/numerical analysis substrate: MNA, pole/residue, transient, pi-model."""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.analysis.admittance": [
        "PiModel", "pi_model", "pi_model_from_moments",
        "stage_central_moments", "subtree_admittance_moments",
    ],
    "repro.analysis.distributed": ["DistributedLine"],
    "repro.analysis.general": ["GeneralAnalysis", "GeneralRCNetwork"],
    "repro.analysis.mna": ["MNASystem", "build_mna", "mna_transfer_moments"],
    "repro.analysis.reduction": ["collapse_subtree", "reduce_tree"],
    "repro.analysis.responses": [
        "DelayMeasurement", "actual_delay", "measure_delay",
        "output_rise_time", "sample_waveform", "threshold_crossing",
    ],
    "repro.analysis.state_space": ["ExactAnalysis", "PoleResidueTransfer"],
    "repro.analysis.transient": [
        "TransientResult", "simulate", "simulate_adaptive",
        "simulate_step_response",
    ],
})

__all__ = [
    "DistributedLine",
    "MNASystem",
    "build_mna",
    "mna_transfer_moments",
    "ExactAnalysis",
    "PoleResidueTransfer",
    "TransientResult",
    "simulate",
    "simulate_adaptive",
    "simulate_step_response",
    "DelayMeasurement",
    "actual_delay",
    "measure_delay",
    "output_rise_time",
    "sample_waveform",
    "threshold_crossing",
    "PiModel",
    "pi_model",
    "pi_model_from_moments",
    "stage_central_moments",
    "subtree_admittance_moments",
    "collapse_subtree",
    "reduce_tree",
    "GeneralRCNetwork",
    "GeneralAnalysis",
]
