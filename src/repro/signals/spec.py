"""Parse compact textual signal/time specs shared by the CLI and server.

A spec is ``kind[:param]`` — ``step``, ``ramp:2ns``, ``cosine:1ns``,
``smoothstep:1ns``, ``exp:500ps``.  Both the command line (``--signal``)
and the HTTP service (``"signal"`` request field) accept exactly this
grammar, so a curl request and a shell invocation describe inputs the
same way.

Errors are raised as :class:`~repro._exceptions.ValidationError` (or the
constructor's own :class:`~repro._exceptions.SignalError`) with readable
messages; the CLI converts them to argparse usage errors, the server to
HTTP 400 payloads — never a traceback.
"""

from __future__ import annotations

import math

from repro._exceptions import ValidationError
from repro.signals.base import Signal
from repro.signals.exponential import ExponentialInput
from repro.signals.ramp import SaturatedRamp
from repro.signals.smooth import RaisedCosineRamp, SmoothstepRamp
from repro.signals.step import StepInput

__all__ = ["parse_time_spec", "signal_from_spec", "SIGNAL_KINDS"]

_TIME_SUFFIXES = {"s": 1.0, "ms": 1e-3, "us": 1e-6, "ns": 1e-9,
                  "ps": 1e-12, "fs": 1e-15}

#: Signal kinds the spec grammar accepts, for help/error messages.
SIGNAL_KINDS = ("step", "ramp", "cosine", "smoothstep", "exp")


def parse_time_spec(token: str) -> float:
    """Parse a time like ``2ns``/``500ps``/``1e-9`` into seconds.

    Raises :class:`ValidationError` with a readable message on garbage,
    non-positive or non-finite values.
    """
    text = str(token).strip().lower()
    scale = 1.0
    for suffix in sorted(_TIME_SUFFIXES, key=len, reverse=True):
        if text.endswith(suffix):
            scale = _TIME_SUFFIXES[suffix]
            text = text[: -len(suffix)]
            break
    try:
        value = float(text) * scale
    except ValueError:
        raise ValidationError(
            f"cannot parse time {token!r}: expected a number with an "
            "optional unit suffix (s, ms, us, ns, ps, fs), e.g. '2ns'"
        ) from None
    if not value > 0.0:
        raise ValidationError(
            f"time {token!r} must be > 0 (a signal cannot rise in "
            "zero or negative time)"
        )
    if not math.isfinite(value):
        raise ValidationError(f"time {token!r} must be finite")
    return value


def signal_from_spec(spec: str) -> Signal:
    """Build a :class:`Signal` from a ``kind[:param]`` spec string.

    Kinds: ``step``, ``ramp`` (saturated), ``cosine`` (raised cosine),
    ``smoothstep``, ``exp`` (exponential; the parameter is ``tau``).
    """
    if not isinstance(spec, str):
        raise ValidationError(
            f"signal spec must be a string like 'ramp:2ns', got {spec!r}"
        )
    kind, _, param = spec.partition(":")
    kind = kind.strip().lower()
    if kind == "step":
        return StepInput()
    if kind not in SIGNAL_KINDS:
        raise ValidationError(
            f"unknown signal kind {kind!r}; expected one of "
            f"{', '.join(SIGNAL_KINDS)}"
        )
    if not param:
        raise ValidationError(
            f"signal {kind!r} needs a time parameter, e.g. '{kind}:2ns'"
        )
    value = parse_time_spec(param)
    if kind == "ramp":
        return SaturatedRamp(value)
    if kind == "cosine":
        return RaisedCosineRamp(value)
    if kind == "smoothstep":
        return SmoothstepRamp(value)
    return ExponentialInput(value)
