"""Backward required-time propagation and per-pin slack.

Completes the classic STA pair: the forward pass (:func:`~repro.sta.timing.analyze`)
computes arrivals; this module walks the design *backward* from the
primary outputs' required times, through nets (required at the driver is
the tightest sink requirement minus that sink's wire delay) and gates
(required at an input is the output requirement minus that input's stage
delay, including its slew-dependent term), yielding

    slack(pin) = required(pin) - arrival(pin)

at every timing point.  Under the Elmore interconnect model all arrivals
are certified upper bounds, so every *positive* slack is certified too —
a real signoff statement.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from typing import Dict, List, Union

import numpy as np

from repro._exceptions import TimingGraphError
from repro.sta.netlist import Design, Pin
from repro.sta.timing import TimingResult, _PinValues

__all__ = ["SlackReport", "compute_slacks"]


@dataclass(frozen=True)
class SlackReport:
    """Required times and slacks at every timing point.

    Attributes
    ----------
    required:
        Required arrival time per pin, a read-only mapping over the
        backward pass's row array (equal to the plain dict of the same
        items), in the levels' row order.
    slack:
        ``required - arrival`` per pin, likewise.
    worst_slack:
        Minimum slack over all pins.
    worst_pin:
        A pin achieving it: of equal slacks, the one last in timing
        order.
    """

    required: Mapping[Pin, float]
    slack: Mapping[Pin, float]
    worst_slack: float
    worst_pin: Pin

    def critical_pins(self, margin: float = 0.0) -> List[Pin]:
        """Pins whose slack is within ``margin`` of the worst."""
        threshold = self.worst_slack + margin
        return [p for p, s in self.slack.items() if s <= threshold]

    def slack_at(self, instance: str, pin: str) -> float:
        """Slack at a named pin (ports via ``Pin.PORT``)."""
        key = Pin(instance, pin)
        if key not in self.slack:
            raise TimingGraphError(f"no slack recorded at {key}")
        return self.slack[key]


def output_requirements(outputs: List[str],
                        required: Union[float, Dict[str, float]]
                        ) -> List[float]:
    """``required`` (one time for all, or a map by port) at each of
    ``outputs``; a map missing one raises :class:`TimingGraphError`."""
    if not isinstance(required, dict):
        return [float(required)] * len(outputs)
    missing = [port for port in outputs if port not in required]
    if missing:
        raise TimingGraphError(
            f"required times missing for outputs: {missing}"
        )
    return [float(required[port]) for port in outputs]


def compute_slacks(
    design: Design,
    result: TimingResult,
    required: Union[float, Dict[str, float]],
) -> SlackReport:
    """Backward pass over a completed forward analysis.

    Parameters
    ----------
    design:
        The analyzed design
        (:meth:`~repro.sta.levels.TimingLevels.check`).
    result:
        Forward analysis result, whose levels are walked in reverse, a
        level's nets before its gates, with its slews and wire delays.
    required:
        A single required time applied to every primary output, or a map
        from output port name to required time.
    """
    levels = result.levels
    levels.check(design)
    rows = result._rows
    times = np.full(len(levels.pins), np.inf)
    times[levels.outputs] = output_requirements(
        [levels.pins[row].pin for row in levels.outputs], required)
    for level in reversed(levels.levels):
        sinks, inputs = level.sinks, level.inputs
        np.minimum.at(times, level.drivers, times[sinks] - rows.delay[sinks])
        stage = level.intrinsic + level.slew_impact * rows.slew[inputs]
        times[inputs] = times[level.outputs][level.owner] - stage
    slacks = times - rows.arrival
    worst = len(slacks) - 1 - int(np.argmin(slacks[::-1]))
    pins = levels.pins
    return SlackReport(
        required=_PinValues(pins, levels.index, times),
        slack=_PinValues(pins, levels.index, slacks),
        worst_slack=float(slacks[worst]),
        worst_pin=pins[worst],
    )
