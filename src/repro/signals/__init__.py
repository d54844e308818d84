"""Input-signal library for generalized-input delay analysis (Sec. IV)."""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.signals.base": ["DerivativeMoments", "Signal", "exp_convolve_pwl"],
    "repro.signals.exponential": ["ExponentialInput"],
    "repro.signals.fitted": [
        "DelayedSignal", "fitted_ramp", "stage_output_model",
    ],
    "repro.signals.pwl": ["PWLSignal"],
    "repro.signals.ramp": ["SaturatedRamp"],
    "repro.signals.smooth": ["RaisedCosineRamp", "SmoothstepRamp"],
    "repro.signals.step": ["StepInput"],
})

__all__ = [
    "Signal",
    "DerivativeMoments",
    "exp_convolve_pwl",
    "StepInput",
    "SaturatedRamp",
    "RaisedCosineRamp",
    "SmoothstepRamp",
    "ExponentialInput",
    "PWLSignal",
    "DelayedSignal",
    "fitted_ramp",
    "stage_output_model",
]
