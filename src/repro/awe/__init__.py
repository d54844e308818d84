"""Moment matching / AWE reduced-order models (Sec. II-D/E baselines)."""

from repro.awe.onepole import (
    LN2,
    dominant_time_constant,
    one_pole_delay,
    one_pole_model,
)
from repro.awe.pade import (
    PadeApproximant,
    awe_approximation,
    awe_delay,
    pade_from_moments,
    two_pole_delay,
    two_pole_model,
)

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
