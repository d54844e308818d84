"""Gate-level design container for the miniature STA.

A :class:`Design` holds cell instances, nets connecting one driver pin to
any number of sink pins, and primary inputs/outputs.  Net wiring can be
annotated with per-net RC descriptions; unannotated nets fall back to a
simple wire-load model at timing time.
"""

from __future__ import annotations

import math
import numbers
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, NamedTuple, Optional, Tuple

from repro._exceptions import TimingGraphError, ValidationError
from repro.sta.library import Cell, CellLibrary

__all__ = ["Instance", "Net", "Design", "Pin"]


class Pin(NamedTuple):
    """A pin reference: ``(instance_name, pin_name)``.

    Primary ports use the reserved instance name ``"@port"``.  A pin is
    a tuple (built, hashed and compared in C, which the timing walks do
    for every pin), so it equals the plain ``(instance, pin)`` tuple.
    """

    instance: str
    pin: str

    PORT = "@port"

    @property
    def is_port(self) -> bool:
        """True for primary-input/output pins."""
        return self.instance == Pin.PORT

    def __str__(self) -> str:
        return f"{self.instance}.{self.pin}" if not self.is_port else self.pin


@dataclass
class Instance:
    """One placed cell instance.

    ``position`` is an optional ``(x, y)`` in meters, used by the routing
    substrate to build net RC trees from geometry.
    """

    name: str
    cell: Cell
    position: Optional[Tuple[float, float]] = None


@dataclass
class Net:
    """A signal net: one driver pin, one or more sink pins."""

    name: str
    driver: Pin
    sinks: List[Pin] = field(default_factory=list)


def _checked_position(name: str, position) -> Optional[Tuple[float, float]]:
    """``position`` as a float ``(x, y)``; anything but ``None`` or two
    finite reals raises :class:`TimingGraphError`."""
    if position is None:
        return None
    try:
        coords = tuple(position)
    except TypeError:
        coords = ()
    if len(coords) != 2 or not all(
        isinstance(c, numbers.Real) and not isinstance(c, bool)
        and math.isfinite(c) for c in coords
    ):
        raise TimingGraphError(
            f"instance {name!r}: position must be None or two finite "
            f"real coordinates, got {position!r}"
        )
    return float(coords[0]), float(coords[1])


class Design:
    """A gate-level netlist over a cell library.

    The timing engine compiles a design once per design version and
    caches the compiled form on it (see :func:`repro.sta.analyze`).  The
    mutators below drop that form, and a reassigned
    :attr:`Instance.cell` or :attr:`Instance.position` is seen at the
    next analysis; edits made in place to ``nets``, ``instances`` or a
    net's sinks, past these methods, are not.

    Examples
    --------
    A two-inverter chain from input ``a`` to output ``z``::

        lib = default_library()
        d = Design("chain", lib)
        d.add_input("a")
        d.add_instance("u1", "INV")
        d.add_instance("u2", "INV")
        d.connect("n_a", driver=("@port", "a"), sinks=[("u1", "a")])
        d.connect("n_1", driver=("u1", "y"), sinks=[("u2", "a")])
        d.add_output("z")
        d.connect("n_z", driver=("u2", "y"), sinks=[("@port", "z")])
    """

    def __init__(self, name: str, library: CellLibrary) -> None:
        self.name = name
        self.library = library
        self.instances: Dict[str, Instance] = {}
        self.nets: Dict[str, Net] = {}
        self.inputs: List[str] = []
        self.outputs: List[str] = []
        self._pin_to_net: Dict[Pin, str] = {}
        # Filled by repro.sta.timing._version; every mutator drops it.
        self._compiled = None

    # ------------------------------------------------------------------
    def add_instance(
        self,
        name: str,
        cell_name: str,
        position: Optional[Tuple[float, float]] = None,
    ) -> Instance:
        """Place a cell instance.

        ``position`` is ``None`` (no geometry: the instance's nets use
        the wire-load model) or two finite real coordinates in meters.
        """
        if name in self.instances or name == Pin.PORT:
            raise TimingGraphError(f"instance {name!r} already exists")
        inst = Instance(name=name, cell=self.library.get(cell_name),
                        position=_checked_position(name, position))
        self.instances[name] = inst
        self._drop_compiled()
        return inst

    def add_input(self, port: str) -> None:
        """Declare a primary input."""
        if port in self.inputs or port in self.outputs:
            raise TimingGraphError(f"port {port!r} already declared")
        self.inputs.append(port)
        self._drop_compiled()

    def add_output(self, port: str) -> None:
        """Declare a primary output."""
        if port in self.inputs or port in self.outputs:
            raise TimingGraphError(f"port {port!r} already declared")
        self.outputs.append(port)
        self._drop_compiled()

    def connect(
        self,
        net_name: str,
        driver: Tuple[str, str],
        sinks: List[Tuple[str, str]],
    ) -> Net:
        """Create a net from ``driver`` pin to ``sinks`` pins.

        Pins are ``(instance, pin)`` tuples; primary ports use
        ``("@port", port_name)``.
        """
        if net_name in self.nets:
            raise TimingGraphError(f"net {net_name!r} already exists")
        if not sinks:
            raise TimingGraphError(f"net {net_name!r} has no sinks")
        driver_pin = self._resolve(driver, driving=True)
        sink_pins = [self._resolve(s, driving=False) for s in sinks]
        for pin in (driver_pin, *sink_pins):
            if pin in self._pin_to_net:
                raise TimingGraphError(
                    f"pin {pin} is already connected to net "
                    f"{self._pin_to_net[pin]!r}"
                )
        net = Net(name=net_name, driver=driver_pin, sinks=sink_pins)
        self.nets[net_name] = net
        for pin in (driver_pin, *sink_pins):
            self._pin_to_net[pin] = net_name
        self._drop_compiled()
        return net

    def _drop_compiled(self) -> None:
        """Drop the compiled form and unlink its published net records,
        which results of the old version may still hold."""
        if self._compiled is not None:
            from repro.sta.timing import _PUBLISHED

            _PUBLISHED.discard(self._compiled)
            self._compiled = None

    def _resolve(self, ref: Tuple[str, str], driving: bool) -> Pin:
        instance, pin = ref
        if instance == Pin.PORT:
            if driving and pin not in self.inputs:
                raise TimingGraphError(
                    f"port {pin!r} drives a net but is not a declared input"
                )
            if not driving and pin not in self.outputs:
                raise TimingGraphError(
                    f"port {pin!r} is a net sink but is not a declared output"
                )
            return Pin(Pin.PORT, pin)
        inst = self.instances.get(instance)
        if inst is None:
            raise TimingGraphError(f"unknown instance {instance!r}")
        cell = inst.cell
        if driving:
            if pin != cell.output:
                raise TimingGraphError(
                    f"pin {instance}.{pin} is not the output of {cell.name}"
                )
        else:
            if pin not in cell.inputs:
                raise TimingGraphError(
                    f"pin {instance}.{pin} is not an input of {cell.name}"
                )
        return Pin(instance, pin)

    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check that the design is fully connected and acyclic."""
        self.timing_order()

    def timing_order(self) -> List[Tuple[str, str]]:
        """The forward timing walk: ``("net", name)`` / ``("gate", name)``.

        Nets driven by primary inputs come first; Kahn's algorithm over
        the instances then emits each gate once every input pin's net is
        placed, followed by the net its output drives; its FIFO queue puts
        the gates in non-decreasing level (what
        :func:`~repro.sta.levels.levelize` relies on).  Every net thus
        comes after its driver and before its sinks: walk the list for
        arrivals and ``reversed`` for required times.  Raises
        :class:`TimingGraphError` on an unconnected pin, then an
        unconnected port, then a combinational loop: the first
        unconnected instance pin in instance and cell-pin order wins,
        then the first unconnected input or output port.  Pins are
        looked up as the plain ``(instance, pin)`` tuples a :class:`Pin`
        equals and hashes as.
        """
        connected = self._pin_to_net
        port = Pin.PORT
        for name, inst in self.instances.items():
            for pin in inst.cell.pin_names:
                if (name, pin) not in connected:
                    raise TimingGraphError(
                        f"pin {name}.{pin} is unconnected"
                    )
        for name in (*self.inputs, *self.outputs):
            if (port, name) not in connected:
                raise TimingGraphError(f"port {name!r} is unconnected")
        nets = self.nets
        waiting = {
            name: len(inst.cell.inputs)
            for name, inst in self.instances.items()
        }
        ready: Deque[str] = deque()
        order: List[Tuple[str, str]] = []

        def place(net_name: str) -> None:
            order.append(("net", net_name))
            # A pin listed twice on one net still counts once.
            for instance, _ in dict.fromkeys(nets[net_name].sinks):
                if instance != port:
                    waiting[instance] -= 1
                    if not waiting[instance]:
                        ready.append(instance)

        for name in self.inputs:
            place(connected[port, name])
        while ready:
            name = ready.popleft()
            order.append(("gate", name))
            place(connected[name, self.instances[name].cell.output])
        stuck = [name for name, count in waiting.items() if count]
        if stuck:
            raise TimingGraphError(
                f"combinational loop detected: instances {stuck} sit on "
                "or behind it"
            )
        return order

    def net_of(self, instance: str, pin: str) -> str:
        """Name of the net attached to ``instance.pin``."""
        key = Pin(instance, pin)
        try:
            return self._pin_to_net[key]
        except KeyError:
            raise TimingGraphError(f"pin {key} is unconnected") from None
