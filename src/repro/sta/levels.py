"""The timing graph as a levelised integer form.

:meth:`~repro.sta.netlist.Design.timing_order` walks one gate or net at
a time.  :func:`levelize` compiles that order into integer arrays so a
walk can treat a whole *level* at once:

* every pin gets a row (input ports first, then each net's sinks and
  each gate's output in walk order, so iterating rows replays the
  order's first visits);
* level 0 holds the nets the input ports drive; level ``k >= 1`` holds
  the gates whose deepest fan-in driver sits on level ``k - 1``, then
  the nets those gates drive;
* a level's gates are sorted by fan-in, largest first, so fan-in slot
  ``i`` of the level is a prefix of its gates; their input pins are
  stored gate-major (``inputs[starts[g] + i]``);
* a level's nets are stored as sink rows with their driver rows, one
  entry per listed sink (a pin listed twice on a net appears twice).

The statistical walk (:func:`repro.sta.ssta.analyze_ssta`) and its
Monte-Carlo oracle (:func:`repro.sta.ssta.monte_carlo_arrivals`) both
run on this form: per level, one gather-and-add for the nets and a max
over each gate's inputs (Clark's, folded per fan-in slot, for SSTA).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.sta.netlist import Design, Pin

__all__ = ["GateLevel", "TimingLevels", "levelize"]


@dataclass(frozen=True)
class GateLevel:
    """The gates of one level and the nets they drive.

    Attributes
    ----------
    gates:
        Instance names, largest fan-in first (stable within a fan-in).
    outputs:
        ``(G,)`` output pin row of each gate.
    starts:
        ``(G,)`` first entry of each gate in ``inputs``.
    fanin:
        ``(G,)`` input count of each gate (non-increasing).
    inputs:
        ``(K,)`` input pin rows, gate-major.
    owner:
        ``(K,)`` the gate (position in ``gates``) of each input.
    intrinsic, slew_impact:
        ``(K,)`` the cell's intrinsic delay and slew sensitivity for each
        input, so the stage delay of input ``k`` is
        ``intrinsic[k] + slew_impact[k] * slew[inputs[k]]``.
    sinks, drivers:
        ``(M,)`` sink pin rows of the level's nets and each one's
        driver row.
    """

    gates: List[str]
    outputs: np.ndarray
    starts: np.ndarray
    fanin: np.ndarray
    inputs: np.ndarray
    owner: np.ndarray
    intrinsic: np.ndarray
    slew_impact: np.ndarray
    sinks: np.ndarray
    drivers: np.ndarray


@dataclass(frozen=True)
class TimingLevels:
    """A design's timing order compiled to per-level integer arrays.

    Attributes
    ----------
    pins:
        Every pin, by row.
    index:
        ``pin -> row``.
    ports:
        ``(I,)`` rows of the primary inputs, in ``design.inputs`` order.
    outputs:
        ``(O,)`` rows of the primary outputs, in ``design.outputs`` order.
    driver:
        ``(P,)`` the driver row of each net sink's net, ``-1`` for the
        pins that drive (input ports and gate outputs).
    nets:
        ``(net name, level)`` of every net, in walk order.
    levels:
        The :class:`GateLevel` of level 0 (no gates, the input ports'
        nets) and of every later level, in order.
    """

    pins: List[Pin]
    index: Dict[Pin, int]
    ports: np.ndarray
    outputs: np.ndarray
    driver: np.ndarray
    nets: List[tuple]
    levels: List[GateLevel]


def levelize(design: Design) -> TimingLevels:
    """Compile ``design.timing_order()`` into :class:`TimingLevels`.

    Raises what :meth:`~repro.sta.netlist.Design.timing_order` raises
    on an unconnected pin or a combinational loop.
    """
    return _levelize(design, design.timing_order())


def _levelize(design: Design, order: List[Tuple[str, str]]) -> TimingLevels:
    """:func:`levelize` over an order the caller already has (the
    nominal pass's ``TimingResult._order``)."""
    pins = [Pin(Pin.PORT, port) for port in design.inputs]
    # Rows by name (str keys hash once): a port's, a gate's output, and
    # each net sink's by (instance, pin).
    port_row = {port: r for r, port in enumerate(design.inputs)}
    out_row: Dict[str, int] = {}
    sink_row: Dict[str, Dict[str, int]] = {}
    driver: List[int] = [-1] * len(pins)
    # level_of[row]: the level of a driver / of the net a sink is on.
    level_of: List[int] = [0] * len(pins)
    gates: List[List[tuple]] = [[]]
    net_rows: List[List[tuple]] = [[]]
    nets: List[tuple] = []
    for kind, name in order:
        if kind == "net":
            net = design.nets[name]
            src = net.driver
            d = port_row[src.pin] if src.is_port else out_row[src.instance]
            level = level_of[d]
            entries = net_rows[level]
            for sink in net.sinks:
                rows = sink_row.setdefault(sink.instance, {})
                s = rows.get(sink.pin)
                if s is None:  # else listed twice: one row, two entries
                    s = rows[sink.pin] = len(pins)
                    pins.append(sink)
                    driver.append(d)
                    level_of.append(level)
                entries.append((s, d))
            nets.append((name, level))
            continue
        cell = design.instances[name].cell
        rows = sink_row[name]
        inputs = [rows[pin] for pin in cell.inputs]
        level = 1 + max([level_of[r] for r in inputs])
        out_row[name] = len(pins)
        pins.append(Pin(name, cell.output))
        driver.append(-1)
        level_of.append(level)
        if level == len(gates):
            gates.append([])
            net_rows.append([])
        gates[level].append((name, cell, inputs, out_row[name]))
    outputs = [sink_row[Pin.PORT][port] for port in design.outputs]
    return TimingLevels(
        pins=pins,
        index=dict(zip(pins, range(len(pins)))),
        ports=np.arange(len(design.inputs), dtype=np.intp),
        outputs=np.array(outputs, dtype=np.intp),
        driver=np.array(driver, dtype=np.intp),
        nets=nets,
        levels=[_gate_level(g, n) for g, n in zip(gates, net_rows)],
    )


def _gate_level(gates: List[tuple], net_rows: List[tuple]) -> GateLevel:
    gates = sorted(gates, key=lambda gate: -len(gate[2]))
    fanin = np.array([len(gate[2]) for gate in gates], dtype=np.intp)
    intrinsic: List[float] = []
    slew_impact: List[float] = []
    for _, cell, inputs, _ in gates:
        intrinsic += [cell.intrinsic_delay] * len(inputs)
        slew_impact += [cell.slew_impact] * len(inputs)
    return GateLevel(
        gates=[gate[0] for gate in gates],
        outputs=np.array([gate[3] for gate in gates], dtype=np.intp),
        starts=np.cumsum(fanin) - fanin,
        fanin=fanin,
        inputs=np.array([r for gate in gates for r in gate[2]],
                        dtype=np.intp),
        owner=np.repeat(np.arange(len(gates)), fanin),
        intrinsic=np.array(intrinsic, dtype=np.float64),
        slew_impact=np.array(slew_impact, dtype=np.float64),
        sinks=np.array([e[0] for e in net_rows], dtype=np.intp),
        drivers=np.array([e[1] for e in net_rows], dtype=np.intp),
    )
