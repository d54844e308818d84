"""The timing graph as a levelised integer form, the one every walk runs on.

:func:`levelize` compiles :meth:`~repro.sta.netlist.Design.timing_order`
into integer arrays so a walk treats a whole *level* at once.  The
timing engine compiles a design once per design version: it caches the
levels on the design (``repro.sta.timing._version``) and every analysis
reuses them until a :class:`~repro.sta.netlist.Design` mutator runs or
an instance's cell or position is reassigned.  Every result of one
version shares the same levels, so their arrays are read-only (a walk
that writes into them raises).  The form:

* every pin gets a row (input ports first, then each net's sinks and
  each gate's output in walk order, so iterating rows replays the
  order's first visits);
* level 0 holds the nets the input ports drive; level ``k >= 1`` holds
  the gates whose deepest fan-in driver sits on level ``k - 1``, then
  the nets those gates drive;
* a level's gates are sorted by fan-in, largest first, so fan-in slot
  ``i`` of the level is a prefix of its gates; their input pins are
  stored gate-major, in cell-pin order (``inputs[starts[g] + i]``);
* a level's nets are stored as sink rows with their driver rows, one
  entry per listed sink (a pin listed twice on a net appears twice).

The nominal walk (:func:`repro.sta.timing.analyze`), the slack pass
(:func:`repro.sta.slack.compute_slacks`), SSTA and its Monte-Carlo
oracle (:mod:`repro.sta.ssta`) all walk the nominal result's levels:
per level, one gather-and-add for the nets and a max over each gate's
inputs (Clark's for SSTA), folded per fan-in slot, or the reverse.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Dict, List, Tuple

import numpy as np

from repro._exceptions import TimingGraphError
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
    output_slew:
        ``(G,)`` the cell's output slew of each gate.
    starts:
        ``(G,)`` first entry of each gate in ``inputs``.
    fanin:
        ``(G,)`` input count of each gate (non-increasing).
    inputs:
        ``(K,)`` input pin rows, gate-major, in cell-pin order.
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
    output_slew: np.ndarray
    starts: np.ndarray
    fanin: np.ndarray
    inputs: np.ndarray
    owner: np.ndarray
    intrinsic: np.ndarray
    slew_impact: np.ndarray
    sinks: np.ndarray
    drivers: np.ndarray

    def __post_init__(self) -> None:
        _read_only(self)


def _read_only(record) -> None:
    """Mark every array field of a frozen ``record`` non-writeable."""
    for value in vars(record).values():
        if isinstance(value, np.ndarray):
            value.setflags(write=False)


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
    driver, net:
        ``(P,)`` the driver row and the position in ``nets`` of each net
        sink's net; ``-1`` for the pins that drive (ports, gate outputs).
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
    net: np.ndarray
    nets: List[Tuple[str, int]]
    levels: List[GateLevel]

    def __post_init__(self) -> None:
        _read_only(self)

    def check(self, design: Design) -> None:
        """Refuse a ``design`` (another one, or this one grown since)
        without exactly the ports, instances and connected pins these
        levels came from: with what its own
        :meth:`~repro.sta.netlist.Design.timing_order` raises, else a
        :class:`TimingGraphError` naming the first pin they lack."""
        connected = design._pin_to_net
        gates = sum(len(level.gates) for level in self.levels)
        if ((len(design.inputs), len(design.outputs), len(design.instances),
             len(connected)) == (len(self.ports), len(self.outputs), gates,
                                 len(self.index))
                and self.index.keys() >= connected.keys()):
            return
        design.timing_order()
        lacks = [f": it has no pin {pin}" for pin in connected
                 if pin not in self.index]
        raise TimingGraphError(
            "the timing result was analysed on another design than "
            f"{design.name!r}{lacks[0] if lacks else ''}")


def levelize(design: Design) -> TimingLevels:
    """Validate ``design`` and compile its timing order into
    :class:`TimingLevels`; raises what
    :meth:`~repro.sta.netlist.Design.timing_order` raises.

    The order lists the input ports' nets, then each gate followed by
    its net, the gates in non-decreasing level (Kahn's algorithm with a
    FIFO queue), so each level is a run of it: the compile is bulk
    lookups and array operations, with no Python step per gate.
    """
    order = design.timing_order()
    walk = [design.nets[name] for kind, name in order if kind == "net"]
    names = [name for kind, name in order if kind == "gate"]
    num_ports = len(design.inputs)
    pins = [Pin(Pin.PORT, port) for port in design.inputs]
    for k, net in enumerate(walk):
        pins += net.sinks if k < num_ports else (net.driver, *net.sinks)
    index = dict(zip(pins, range(len(pins))))
    if len(index) < len(pins):  # a pin listed twice keeps its first row
        pins = list(dict.fromkeys(pins))
        index = dict(zip(pins, range(len(pins))))
    row = index.__getitem__
    count = np.fromiter(map(len, [net.sinks for net in walk]), np.intp)
    sinks = np.fromiter(
        map(row, chain.from_iterable(net.sinks for net in walk)), np.intp)
    net_driver = np.fromiter(map(row, [net.driver for net in walk]),
                             np.intp)
    drivers = np.repeat(net_driver, count)
    driver, net_of = np.full((2, len(pins)), -1, dtype=np.intp)
    driver[sinks] = drivers
    net_of[sinks] = np.repeat(np.arange(len(walk)), count)
    cells = [design.instances[name].cell for name in names]
    inputs = np.fromiter(map(row, [(name, pin) for name, cell in
                                   zip(names, cells) for pin in cell.inputs]),
                         np.intp)
    fanin = np.fromiter(map(len, [cell.inputs for cell in cells]), np.intp)
    starts = np.cumsum(fanin) - fanin
    # A gate's level is one more than that of the latest gate (in walk
    # order) driving one of its inputs: level k + 1 starts at the first
    # gate fed by level k.  The ports' nets are level 0.
    outputs = net_driver[num_ports:]
    gate_of = np.full(len(pins), -1, dtype=np.intp)
    gate_of[outputs] = np.arange(len(names))
    fed_by = np.maximum.accumulate(
        np.maximum.reduceat(gate_of[driver[inputs]], starts))
    ends = [0]
    while ends[-1] < len(names):
        ends.append(int(np.searchsorted(fed_by, ends[-1])))
    net_level = np.repeat(np.arange(len(ends)), [num_ports, *np.diff(ends)])
    net_ends = np.searchsorted(np.repeat(net_level, count),
                               np.arange(len(ends) + 1))

    # The gates by level, then by fan-in, largest first, their inputs
    # gate-major; each level is a slice of these.
    by_level = np.lexsort((-fanin, net_level[num_ports:]))
    fanin = fanin[by_level]
    owner = np.repeat(np.arange(len(names)), fanin)
    first = np.cumsum(fanin) - fanin
    inputs = inputs[np.repeat(starts[by_level] - first, fanin)
                    + np.arange(len(inputs))]
    outputs = outputs[by_level]
    gates = [names[g] for g in by_level.tolist()]
    cells = [cells[g] for g in by_level.tolist()]
    output_slew = np.array([cell.output_slew for cell in cells])
    intrinsic = np.array([cell.intrinsic_delay for cell in cells])[owner]
    slew_impact = np.array([cell.slew_impact for cell in cells])[owner]
    gate_ends = [0, *ends]
    input_ends = np.append(first, len(inputs))[gate_ends].tolist()
    levels = []
    for k in range(len(ends)):
        g = slice(gate_ends[k], gate_ends[k + 1])
        e = slice(input_ends[k], input_ends[k + 1])
        n = slice(net_ends[k], net_ends[k + 1])
        levels.append(GateLevel(
            gates[g], outputs[g], output_slew[g], first[g] - e.start,
            fanin[g], inputs[e], owner[e] - g.start, intrinsic[e],
            slew_impact[e], sinks[n], drivers[n]))
    outputs = [index[Pin.PORT, port] for port in design.outputs]
    return TimingLevels(
        pins, index, np.arange(num_ports, dtype=np.intp),
        np.array(outputs, dtype=np.intp), driver, net_of,
        list(zip([net.name for net in walk], net_level.tolist())), levels)
