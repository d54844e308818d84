"""Moment matching / AWE reduced-order models (Sec. II-D/E baselines)."""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.awe.onepole": [
        "LN2", "dominant_time_constant", "one_pole_delay", "one_pole_model",
    ],
    "repro.awe.pade": [
        "PadeApproximant", "awe_approximation", "awe_delay",
        "pade_from_moments", "two_pole_delay", "two_pole_model",
    ],
})

__all__ = [
    "LN2",
    "dominant_time_constant",
    "one_pole_model",
    "one_pole_delay",
    "PadeApproximant",
    "pade_from_moments",
    "awe_approximation",
    "awe_delay",
    "two_pole_model",
    "two_pole_delay",
]
