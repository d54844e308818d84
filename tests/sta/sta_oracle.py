"""Pin-dict reference walks for :mod:`repro.sta.timing` and
:mod:`repro.sta.slack`.

``analyze`` and ``compute_slacks`` walk the levelised timing graph
(:mod:`repro.sta.levels`) over per-pin row arrays.  This module keeps
what they replaced, one gate or net at a time through dicts keyed by
:class:`~repro.sta.netlist.Pin` in ``design.timing_order()``, as the
oracle the differential tests compare against:

* :func:`nominal_walk` — arrivals, slews and predecessors from the
  per-sink wire delays and variances of the same forest sweep;
* :func:`backward_walk` — required times and slacks;
* :func:`replayed_levels` — the levels compiled by replaying the order
  one gate or net at a time.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Dict, List, Optional, Tuple

import numpy as np

import repro.sta.timing as timing
from repro.sta.levels import GateLevel, TimingLevels, levelize
from repro.sta.netlist import Pin


def nominal_walk(design, delay_model: str = "elmore",
                 input_arrivals: Optional[Dict[str, float]] = None,
                 input_slews: Optional[Dict[str, float]] = None,
                 wire_load=None, net_overrides=None) -> SimpleNamespace:
    """The dict arrival walk.  Returns ``arrival``, ``slew``,
    ``predecessor`` (``pin -> (prev pin, kind, name, delay)``),
    ``critical_delay``, ``critical_output`` and ``wire_delay``."""
    order = design.timing_order()
    # A fresh compile, not the design's cached one.
    nets, wire_delay, values, _, _, _ = timing._precompute_nets(
        design, timing._Compiled([], levelize(design)), delay_model,
        wire_load, net_overrides)
    pins = [pin for g in nets.geometries.values() for pin in g.sink_pins()]
    dispersion = dict(zip(pins, values[1].tolist()))

    arrivals: Dict[Pin, float] = {}
    slews: Dict[Pin, float] = {}
    predecessor: Dict[Pin, Tuple[Pin, str, str, float]] = {}
    for port in design.inputs:
        pin = Pin(Pin.PORT, port)
        arrivals[pin] = (input_arrivals or {}).get(port, 0.0)
        slews[pin] = (input_slews or {}).get(port, 0.0)
    for kind, name in order:
        if kind == "net":
            net = design.nets[name]
            driver = net.driver
            base = arrivals[driver]
            base_var = slews[driver] ** 2
            for sink in net.sinks:
                delay = wire_delay[sink]
                arrivals[sink] = base + delay
                slews[sink] = (base_var + dispersion[sink]) ** 0.5
                predecessor[sink] = (driver, "net", name, delay)
            continue
        cell = design.instances[name].cell
        worst: Optional[Tuple[float, float, str]] = None
        for pin_name in cell.inputs:
            pin = Pin(name, pin_name)
            stage = cell.intrinsic_delay + cell.slew_impact * slews[pin]
            t = arrivals[pin] + stage
            if worst is None or t > worst[0]:
                worst = (t, stage, pin_name)
        out_pin = Pin(name, cell.output)
        arrivals[out_pin] = worst[0]
        slews[out_pin] = cell.output_slew
        predecessor[out_pin] = (Pin(name, worst[2]), "gate", name, worst[1])
    critical_output = max(design.outputs,
                          key=lambda p: arrivals[Pin(Pin.PORT, p)])
    return SimpleNamespace(
        arrival=arrivals, slew=slews, predecessor=predecessor,
        critical_delay=arrivals[Pin(Pin.PORT, critical_output)],
        critical_output=critical_output, wire_delay=wire_delay,
    )


def backward_walk(design, walk: SimpleNamespace, required
                  ) -> SimpleNamespace:
    """The dict required-time walk over ``reversed(timing_order())``
    from a :func:`nominal_walk`.  Returns ``required``, ``slack`` and
    ``worst_slack``."""
    if isinstance(required, dict):
        req_out = dict(required)
    else:
        req_out = {port: float(required) for port in design.outputs}
    times: Dict[Pin, float] = {
        Pin(Pin.PORT, port): value for port, value in req_out.items()}
    for kind, name in reversed(design.timing_order()):
        if kind == "net":
            net = design.nets[name]
            times[net.driver] = min(times[sink] - walk.wire_delay[sink]
                                    for sink in net.sinks)
            continue
        cell = design.instances[name].cell
        out_required = times[Pin(name, cell.output)]
        for pin_name in cell.inputs:
            pin = Pin(name, pin_name)
            stage = cell.intrinsic_delay + cell.slew_impact * walk.slew[pin]
            times[pin] = out_required - stage
    slack = {pin: times[pin] - walk.arrival[pin] for pin in times}
    return SimpleNamespace(required=times, slack=slack,
                           worst_slack=min(slack.values()))


def replayed_levels(design) -> TimingLevels:
    """:func:`~repro.sta.levels.levelize` by replaying the timing order
    one gate or net at a time."""
    pins = [Pin(Pin.PORT, port) for port in design.inputs]
    index = {pin: row for row, pin in enumerate(pins)}
    driver: List[int] = [-1] * len(pins)
    net_of: List[int] = [-1] * len(pins)
    level_of: List[int] = [0] * len(pins)
    gates: List[List[tuple]] = [[]]
    entries: List[List[Tuple[int, int]]] = [[]]
    nets: List[Tuple[str, int]] = []
    for kind, name in design.timing_order():
        if kind == "net":
            net = design.nets[name]
            d = index[net.driver]
            level = level_of[d]
            for sink in net.sinks:
                if sink not in index:  # else listed twice: one row
                    index[sink] = len(pins)
                    pins.append(sink)
                    driver.append(d)
                    net_of.append(len(nets))
                    level_of.append(level)
                entries[level].append((index[sink], d))
            nets.append((name, level))
            continue
        cell = design.instances[name].cell
        inputs = [index[Pin(name, pin)] for pin in cell.inputs]
        level = 1 + max(level_of[r] for r in inputs)
        out = Pin(name, cell.output)
        index[out] = len(pins)
        pins.append(out)
        driver.append(-1)
        net_of.append(-1)
        level_of.append(level)
        if level == len(gates):
            gates.append([])
            entries.append([])
        gates[level].append((name, cell, inputs, index[out]))
    levels = []
    for level_gates, level_entries in zip(gates, entries):
        level_gates = sorted(level_gates, key=lambda gate: -len(gate[2]))
        fanin = np.array([len(g[2]) for g in level_gates], dtype=np.intp)
        cells = [g[1] for g in level_gates]
        levels.append(GateLevel(
            gates=[g[0] for g in level_gates],
            outputs=np.array([g[3] for g in level_gates], dtype=np.intp),
            output_slew=np.array([c.output_slew for c in cells]),
            starts=np.cumsum(fanin) - fanin,
            fanin=fanin,
            inputs=np.array([r for g in level_gates for r in g[2]],
                            dtype=np.intp),
            owner=np.repeat(np.arange(len(level_gates)), fanin),
            intrinsic=np.repeat([c.intrinsic_delay for c in cells], fanin),
            slew_impact=np.repeat([c.slew_impact for c in cells], fanin),
            sinks=np.array([e[0] for e in level_entries], dtype=np.intp),
            drivers=np.array([e[1] for e in level_entries], dtype=np.intp),
        ))
    return TimingLevels(
        pins=pins, index=index,
        ports=np.arange(len(design.inputs), dtype=np.intp),
        outputs=np.array([index[Pin(Pin.PORT, p)] for p in design.outputs],
                         dtype=np.intp),
        driver=np.array(driver, dtype=np.intp),
        net=np.array(net_of, dtype=np.intp),
        nets=nets, levels=levels,
    )
