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

from dataclasses import dataclass
from typing import Dict, List, Union

from repro._exceptions import TimingGraphError
from repro.sta.netlist import Design, Pin
from repro.sta.timing import TimingResult

__all__ = ["SlackReport", "compute_slacks"]


@dataclass(frozen=True)
class SlackReport:
    """Required times and slacks at every timing point.

    Attributes
    ----------
    required:
        Required arrival time per pin.
    slack:
        ``required - arrival`` per pin.
    worst_slack:
        Minimum slack over all pins.
    worst_pin:
        A pin achieving it (ties broken arbitrarily).
    """

    required: Dict[Pin, float]
    slack: Dict[Pin, float]
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


def compute_slacks(
    design: Design,
    result: TimingResult,
    required: Union[float, Dict[str, float]],
) -> SlackReport:
    """Backward pass over a completed forward analysis.

    Parameters
    ----------
    design:
        The analyzed design (the one the result came from: its sink
        pins index the result's ``wire_delay``, and the backward pass
        walks the timing order the forward pass recorded).
    result:
        Forward analysis result (supplies arrivals, slews, and the
        per-sink ``wire_delay`` of whatever delay model was used).
    required:
        A single required time applied to every primary output, or a map
        from output port name to required time.
    """
    if isinstance(required, dict):
        missing = [p for p in design.outputs if p not in required]
        if missing:
            raise TimingGraphError(
                f"required times missing for outputs: {missing}"
            )
        req_out = dict(required)
    else:
        req_out = {port: float(required) for port in design.outputs}

    # The forward pass's own walk; another design is ordered (and so
    # validated) afresh.
    order = result._order if result._design is design \
        else design.timing_order()
    required_times: Dict[Pin, float] = {}
    for port, value in req_out.items():
        required_times[Pin(Pin.PORT, port)] = value

    # Walk the forward order reversed: every sink of a net (a gate input
    # or an output port) has its requirement before the net, and every
    # gate's output net before the gate.  A net's driver needs the
    # tightest sink requirement minus that sink's wire delay; a gate
    # input needs the output requirement minus its stage delay.
    for kind, name in reversed(order):
        if kind == "net":
            net = design.nets[name]
            required_times[net.driver] = min(
                required_times[sink] - result.wire_delay[sink]
                for sink in net.sinks
            )
            continue
        cell = design.instances[name].cell
        out_required = required_times[Pin(name, cell.output)]
        for pin_name in cell.inputs:
            pin = Pin(name, pin_name)
            stage = cell.intrinsic_delay + \
                cell.slew_impact * result.slew[pin]
            required_times[pin] = out_required - stage

    slack = {
        pin: required_times[pin] - result.arrival[pin]
        for pin in required_times
        if pin in result.arrival
    }
    if not slack:
        raise TimingGraphError("no common pins between passes")
    worst_pin = min(slack, key=slack.get)
    return SlackReport(
        required=required_times,
        slack=slack,
        worst_slack=slack[worst_pin],
        worst_pin=worst_pin,
    )
