"""Static timing analysis over the Elmore metric (or any other).

Arrival times propagate through the gate-level design in
:meth:`~repro.sta.netlist.Design.timing_order`.  Each net's interconnect
delay is evaluated per sink on the net's RC tree with a pluggable delay
model:

* ``"elmore"`` — the paper's bound (guaranteed pessimistic: safe STA);
* ``"exact"`` — the pole/residue engine's measured 50% delay (reference);
* any key of :data:`repro.core.metrics.METRICS` (``"d2m"``,
  ``"two_pole"``, ...) for ablation studies.

Because the Elmore delay upper-bounds the true delay at every sink
(the paper's Theorem), an Elmore-based STA's critical-path report is a
certified upper bound on the design's true critical delay — the property
that makes the metric safe for signoff-style pessimism.

Transition times ("slews") are propagated alongside arrivals using the
paper's Sec. III-B measure: the standard deviation ``sigma`` of the signal
derivative.  Central moments add under convolution (eq. 41), so a net
disperses a slew exactly as ``sigma_out^2 = sigma_in^2 + mu_2(h)``; gates
contribute ``slew_impact * sigma_in`` of extra delay and regenerate the
edge to their ``output_slew``.
"""

from __future__ import annotations

import logging
import math
from collections.abc import Mapping
from dataclasses import astuple, dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro._exceptions import AnalysisError, MetricError, TimingGraphError
from repro.obs.metrics import counter as _counter
from repro.obs.trace import span as _span

logger = logging.getLogger(__name__)

_NETS_EVALUATED = _counter(
    "sta_nets_total", "Nets whose interconnect delays were evaluated"
)
_METRIC_FALLBACKS = _counter(
    "sta_metric_fallbacks_total",
    "Sinks whose moment-metric fit failed and fell back to Elmore",
)
from repro.analysis.responses import measure_delay
from repro.analysis.state_space import ExactAnalysis
from repro.core.batch import (
    batch_transfer_moments,
    compile_forest,
    compile_topology,
)
from repro.core.metrics import METRICS
from repro.core.moments import transfer_moments
from repro.parallel import DEFAULT_MAX_SHARDS, plan_shards, run_sharded

from repro.sta.interconnect import (
    ElaboratedNet,
    NetArrays,
    NetGeometry,
    WireLoadModel,
    build_net,
    net_arrays,
    net_geometry,
)
from repro.sta.netlist import Design, Pin


#: Fewest nets one STA/SSTA shard holds.  Every shard pays its own
#: forest compile, order-2 sweep and pool round trip, so a design of a
#: few hundred nets runs in a handful of shards; past
#: ``NET_SHARD_FLOOR * DEFAULT_MAX_SHARDS`` nets the plan is the usual
#: ``DEFAULT_MAX_SHARDS`` near-equal shards.
NET_SHARD_FLOOR = 64


def _net_plan(total: int):
    """The net shard plan: a function of the net count alone, never of
    ``jobs``, so results and journals do not depend on the workers."""
    return plan_shards(total, shard_size=max(
        math.ceil(total / DEFAULT_MAX_SHARDS), NET_SHARD_FLOOR))


def _net_dispersion(net: ElaboratedNet) -> Dict["Pin", float]:
    """Per-sink variance ``mu_2(h)`` of the net's impulse response."""
    moments = batch_transfer_moments(compile_topology(net.tree), 2)
    mu2 = np.maximum(moments.variance()[0], 0.0)
    return {
        sink: float(mu2[net.tree.index_of(node)])
        for sink, node in net.sink_nodes.items()
    }

__all__ = ["TimingResult", "PathElement", "analyze", "DELAY_MODELS"]


def _elmore_model(net: ElaboratedNet) -> Dict[Pin, float]:
    delays = batch_transfer_moments(
        compile_topology(net.tree), 1
    ).elmore_delays()[0]
    return {
        sink: float(delays[net.tree.index_of(node)])
        for sink, node in net.sink_nodes.items()
    }


def _sweep_nets(nets: List[NetArrays]) -> np.ndarray:
    """Elmore delay and ``mu2`` of every sink through one forest sweep.

    The nets' flat arrays (:class:`NetArrays`) are compiled side by side
    into one forest topology and swept once at order 2.  Returns a
    ``(2, sinks)`` float64 array: row 0 the Elmore delay and row 1 the
    impulse-response variance ``mu2`` of every sink, net by net, each
    net's sinks in ``sink_pins()`` order.  Every per-node quantity of
    the batched sweeps depends only on that node's own tree (subtree
    folds and root-path prefixes never cross tree roots), so a
    sub-forest reproduces the whole-forest results bit for bit.
    """
    topology, offsets = compile_forest(nets)
    moments = batch_transfer_moments(topology, 2)
    index = [
        offset + sink
        for net, offset in zip(nets, offsets)
        for sink in net.sinks
    ]
    return np.stack([
        moments.elmore_delays()[0][index],
        np.maximum(moments.variance()[0][index], 0.0),
    ])


def _sta_shard_task(geometries: List[NetGeometry]) -> np.ndarray:
    """Lay out and sweep one shard's nets (picklable task).

    The payload is a list of :class:`NetGeometry` records.  Each net is
    routed straight to flat parent/R/C arrays with :func:`net_arrays`
    and the shard's arrays are swept as one forest (:func:`_sweep_nets`),
    so no :class:`~repro.circuit.rctree.RCTree` is ever built here: only
    geometry goes in and one ``(2, sinks)`` array comes back.
    """
    return _sweep_nets([net_arrays(geometry) for geometry in geometries])


def _ssta_shard_task(payload) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`_sta_shard_task` plus the nets' SSTA coefficients.

    The payload is ``(geometries, process)`` with ``process`` a
    :class:`~repro.sta.ssta.ProcessModel`.  Returns the ``(2, sinks)``
    sweep and ``process.net_columns`` over the same arrays: each net's
    global coefficients and compressed residual factor, computed net by
    net so they do not depend on which shard holds the net.
    """
    geometries, process = payload
    nets = [net_arrays(geometry) for geometry in geometries]
    return (_sweep_nets(nets), *process.net_columns(nets))


class _LazyNets(Mapping):
    """Read-only ``net name -> ElaboratedNet`` over recorded geometries.

    Each net's tree is built with :func:`build_net` on first access and
    cached, so an Elmore run whose trees were built in worker processes
    pays for parent-side trees only when a consumer reads them.
    """

    def __init__(self, geometries: Dict[str, NetGeometry]) -> None:
        self._geometries = geometries
        self._built: Dict[str, ElaboratedNet] = {}

    def __getitem__(self, name: str) -> ElaboratedNet:
        net = self._built.get(name)
        if net is None:
            net = self._built[name] = build_net(self._geometries[name])
        return net

    def __contains__(self, name: object) -> bool:
        return name in self._geometries

    def __iter__(self) -> Iterator[str]:
        return iter(self._geometries)

    def __len__(self) -> int:
        return len(self._geometries)

    def __repr__(self) -> str:
        return f"<{len(self)} nets, {len(self._built)} built>"


def _net_geometries(design: Design, wire_load, net_overrides
                    ) -> Dict[str, NetGeometry]:
    """Every net's routing inputs, in design order."""
    overrides = net_overrides or {}
    return {
        name: net_geometry(design, net, wire_load=wire_load,
                           override=overrides.get(name))
        for name, net in design.nets.items()
    }


def _journal_key(geometry: NetGeometry) -> list:
    """A net's geometry as a checkpoint-fingerprint ingredient."""
    from repro.resilience.checkpoint import tree_fingerprint

    override = None
    if geometry.override is not None:
        tree, mapping = geometry.override
        override = [tree_fingerprint(tree),
                    sorted((str(pin), node) for pin, node in mapping.items())]
    return [
        geometry.net,
        [tuple(pin) for pin in geometry.sinks],
        geometry.driver_resistance,
        geometry.driver_position,
        geometry.sink_positions,
        geometry.sink_loads,
        astuple(geometry.wire_load),
        astuple(geometry.technology),
        geometry.wire_width,
        override,
    ]


def _precompute_elmore_batched(
    design: Design,
    wire_load,
    net_overrides,
    jobs: Optional[int] = None,
    backend: Optional[str] = None,
    checkpoint_path: Optional[str] = None,
    resume: bool = False,
    process=None,
) -> Tuple[_LazyNets, Dict[Pin, float], Dict[Pin, float], Optional[tuple]]:
    """Evaluate every net of the design through batched forest sweeps.

    The parent reads each net's routing inputs into a
    :class:`NetGeometry`.  :func:`_sweep_nets` compiles the nets' flat
    parent/R/C arrays (:class:`NetArrays`) side by side into one forest
    topology and runs an order-2 :func:`batch_transfer_moments` sweep
    that yields every sink's Elmore delay (arrival propagation) and
    impulse-response variance (slew propagation) at once.  With ``jobs``
    unset this is ONE in-process sweep over the whole net list: the
    trees are built (:func:`build_net`) and stay cached in the returned
    nets, and the sweep reads their arrays.  With ``jobs`` given, the
    geometry list is split into deterministic shards fanned out through
    :mod:`repro.parallel` (``1`` = serial backend, ``>= 2`` = worker
    processes) with bit-identical results.  Each :func:`_sta_shard_task`
    lays its nets out with :func:`net_arrays` and builds no RC tree, so
    only the pickled geometries and one ``(2, sinks)`` array per shard
    cross the process boundary, and the parent builds a tree only when
    ``nets`` is read.  Returns the nets and the per-sink delay and
    variance maps; a non-finite delay or variance raises
    :class:`AnalysisError` naming the first net that produced one.

    With a ``process`` (a :class:`~repro.sta.ssta.ProcessModel`) the
    same pass also returns every net's SSTA coefficients as
    ``(net_sinks, a, l)``: ``net_sinks`` lists ``(net, sink pins)`` in
    design order and ``a``/``l`` are ``process.net_columns`` over the
    nets' arrays, computed in the shard task next to the sweep
    (:func:`_ssta_shard_task`) or, in-process, over the same arrays.
    Without one the fourth item is ``None`` and the shards run
    :func:`_sta_shard_task` unchanged.
    """
    with _span("sta.forest_precompute", nets=len(design.nets)) as sp:
        geometries = _net_geometries(design, wire_load, net_overrides)
        payload = list(geometries.values())
        nets = _LazyNets(geometries)
        if not payload:
            return nets, {}, {}, None
        _NETS_EVALUATED.inc(len(payload))
        if jobs is None and backend is None and checkpoint_path is None:
            # In-process: build through ``nets`` so the trees are kept.
            arrays = [net.arrays() for net in nets.values()]
            chunks = [_sweep_nets(arrays)]
            if process is not None:
                columns = [process.net_columns(arrays)]
        else:
            shards = _net_plan(len(payload))
            sp.set_attribute("shards", len(shards))
            parts = [payload[shard.start:shard.stop] for shard in shards]
            kind, task = "sta.analyze", _sta_shard_task
            extra = {}
            if process is not None:
                kind, task = "ssta.analyze", _ssta_shard_task
                parts = [(part, process) for part in parts]
                extra = {"process": astuple(process)}
            checkpoint = None
            if checkpoint_path is not None:
                from repro.resilience.checkpoint import (
                    open_checkpoint, run_fingerprint,
                )

                checkpoint = open_checkpoint(
                    checkpoint_path,
                    run_fingerprint(
                        kind,
                        nets=[_journal_key(g) for g in payload],
                        plan=[shard.size for shard in shards],
                        **extra,
                    ),
                    len(shards),
                    meta={"kind": kind, "nets": len(payload)},
                    resume=resume,
                )
            try:
                chunks = run_sharded(
                    task,
                    parts,
                    jobs=jobs,
                    label="sta.parallel_run",
                    backend=backend,
                    checkpoint=checkpoint,
                )
            finally:
                if checkpoint is not None:
                    checkpoint.close()
            if process is not None:
                columns = [chunk[1:] for chunk in chunks]
                chunks = [chunk[0] for chunk in chunks]
        values = np.concatenate(chunks, axis=1)
        pins = [pin for geometry in payload for pin in geometry.sink_pins()]
        finite = np.isfinite(values).all(axis=0)
        if not finite.all():
            first = int(np.argmin(finite))
            ends = np.cumsum([len(g.sink_pins()) for g in payload])
            net = payload[int(np.searchsorted(ends, first, side="right"))]
            raise AnalysisError(
                f"net {net.net!r} has a non-finite Elmore delay or variance "
                f"at sink {pins[first]} (delay {float(values[0, first])!r}, "
                f"mu2 {float(values[1, first])!r}); check its instance "
                "positions and wire parameters"
            )
        coefficients = None
        if process is not None:
            coefficients = (
                [(g.net, g.sink_pins()) for g in payload],
                np.concatenate([c[0] for c in columns]),
                np.concatenate([c[1] for c in columns]),
            )
        return (nets, dict(zip(pins, values[0].tolist())),
                dict(zip(pins, values[1].tolist())), coefficients)


def _evaluate_per_net(
    design: Design, model, wire_load, net_overrides
) -> Tuple[_LazyNets, Dict[Pin, float], Dict[Pin, float]]:
    """Non-batched models: evaluate each elaborated net on its own."""
    nets = _LazyNets(_net_geometries(design, wire_load, net_overrides))
    wire_delay: Dict[Pin, float] = {}
    dispersion: Dict[Pin, float] = {}
    for net_name, elaborated in nets.items():
        _NETS_EVALUATED.inc()
        with _span("sta.net", net=net_name,
                   nodes=elaborated.tree.num_nodes):
            wire_delay.update(model(elaborated))
        with _span("sta.net_dispersion", net=net_name):
            dispersion.update(_net_dispersion(elaborated))
    return nets, wire_delay, dispersion


def _exact_model(net: ElaboratedNet) -> Dict[Pin, float]:
    analysis = ExactAnalysis(net.tree)
    return {
        sink: measure_delay(analysis, node)
        for sink, node in net.sink_nodes.items()
    }


def _metric_model(metric: str) -> Callable[[ElaboratedNet], Dict[Pin, float]]:
    fn = METRICS[metric]
    order = 8 if metric == "awe4" else 4

    def model(net: ElaboratedNet) -> Dict[Pin, float]:
        moments = transfer_moments(net.tree, order)
        out: Dict[Pin, float] = {}
        for sink, node in net.sink_nodes.items():
            try:
                out[sink] = fn(moments, node)
            except (AnalysisError, MetricError):
                # Higher-order fits can fail on degenerate nets (complex
                # or unstable fitted poles); fall back to the certified
                # Elmore value rather than aborting the STA run.
                _METRIC_FALLBACKS.labels(metric=metric).inc()
                out[sink] = moments.mean(node)
        return out

    return model


#: Available interconnect delay models for :func:`analyze`.
DELAY_MODELS: Dict[str, Callable[[ElaboratedNet], Dict[Pin, float]]] = {
    "elmore": _elmore_model,
    "exact": _exact_model,
    **{name: _metric_model(name) for name in METRICS},
}


@dataclass(frozen=True)
class PathElement:
    """One hop of a timing path: a gate stage or a wire stage."""

    kind: str              # "gate" or "net"
    name: str              # instance or net name
    delay: float
    arrival: float         # arrival time at the element's output endpoint


@dataclass
class TimingResult:
    """Output of :func:`analyze`.

    Attributes
    ----------
    arrival:
        Arrival time at every timing point.  Keys are pins (as
        :class:`~repro.sta.netlist.Pin`), including port pins.
    slew:
        Transition sigma (Sec. III-B measure, seconds) at every timing
        point.
    critical_delay:
        Largest primary-output arrival time.
    critical_output:
        The primary output achieving it.
    nets:
        The elaborated per-net RC trees (for inspection/plotting), a
        read-only mapping that builds each net's tree from the geometry
        recorded at analysis time on first access and caches it.
    delay_model:
        Name of the interconnect delay model used.
    wire_delay:
        Interconnect delay from each net's driver to every sink pin under
        that model (the backward slack pass and SSTA extraction reuse it).
    """

    arrival: Dict[Pin, float]
    slew: Dict[Pin, float]
    critical_delay: float
    critical_output: str
    nets: Mapping[str, ElaboratedNet]
    delay_model: str
    wire_delay: Dict[Pin, float]
    _predecessor: Dict[Pin, Tuple[Optional[Pin], str, str, float]] = field(
        default_factory=dict, repr=False
    )
    # The design's timing order this result was walked in, so SSTA
    # levelises the same walk without a second ``timing_order()``.
    _order: List[Tuple[str, str]] = field(
        default_factory=list, repr=False, compare=False
    )

    def arrival_at_output(self, port: str) -> float:
        """Arrival time at a primary output."""
        key = Pin(Pin.PORT, port)
        if key not in self.arrival:
            raise TimingGraphError(f"unknown output port {port!r}")
        return self.arrival[key]

    def slew_at_output(self, port: str) -> float:
        """Transition sigma at a primary output."""
        key = Pin(Pin.PORT, port)
        if key not in self.slew:
            raise TimingGraphError(f"unknown output port {port!r}")
        return self.slew[key]

    def slack(self, required: float, port: Optional[str] = None) -> float:
        """``required - arrival`` at ``port`` (or the critical output)."""
        if port is None:
            return required - self.critical_delay
        return required - self.arrival_at_output(port)

    def critical_path(self) -> List[PathElement]:
        """Walk the critical path back from the critical output."""
        return self.path_to(self.critical_output)

    def path_to(self, port: str) -> List[PathElement]:
        """The worst path ending at primary output ``port``."""
        key = Pin(Pin.PORT, port)
        if key not in self.arrival:
            raise TimingGraphError(f"unknown output port {port!r}")
        elements: List[PathElement] = []
        cursor: Optional[Pin] = key
        while cursor is not None and cursor in self._predecessor:
            prev, kind, name, delay = self._predecessor[cursor]
            elements.append(
                PathElement(
                    kind=kind, name=name, delay=delay,
                    arrival=self.arrival[cursor],
                )
            )
            cursor = prev
        elements.reverse()
        return elements


def analyze(
    design: Design,
    delay_model: str = "elmore",
    input_arrivals: Optional[Dict[str, float]] = None,
    input_slews: Optional[Dict[str, float]] = None,
    wire_load: Optional[WireLoadModel] = None,
    net_overrides: Optional[Dict[str, Tuple]] = None,
    jobs: Optional[int] = None,
    backend: Optional[str] = None,
    checkpoint_path: Optional[str] = None,
    resume: bool = False,
) -> TimingResult:
    """Run static timing analysis on ``design``.

    Parameters
    ----------
    design:
        The gate-level design, validated here through
        :meth:`~repro.sta.netlist.Design.timing_order`.
    delay_model:
        Key of :data:`DELAY_MODELS`.
    input_arrivals:
        Arrival time per primary input (default 0.0).
    input_slews:
        Transition sigma per primary input (default 0.0 = ideal step).
    wire_load:
        Fallback wire model for nets without geometry.
    net_overrides:
        Optional per-net ``(tree, sink_node_map)`` overrides.
    jobs:
        Only meaningful for the ``"elmore"`` model: fan the per-net
        interconnect evaluation out through the sharded engine
        (:mod:`repro.parallel`; ``1`` = serial backend, ``>= 2`` =
        worker processes).  Arrival/slew results are bit-identical to
        the default single-forest path.
    backend:
        Execution backend for the sharded path (``"serial"`` or
        ``"shm"``; default auto).  ``"shm"`` selects the warm worker
        pool: each shard ships its nets' pickled routing inputs
        (:class:`~repro.sta.interconnect.NetGeometry`), the worker
        routes them straight to flat parent/R/C arrays
        (:func:`~repro.sta.interconnect.net_arrays`) and sweeps them
        without building RC trees, and one ``(2, sinks)`` delay /
        variance array comes back.  Results stay bit-identical either
        way.
    checkpoint_path, resume:
        Crash-safe journaling of the forest fan-out's per-shard results
        (``"elmore"`` model only; see
        :mod:`repro.resilience.checkpoint`).  ``resume=True`` skips
        shards an interrupted run already journaled.
    """
    return _analyze_traced(design, delay_model, input_arrivals,
                           input_slews, wire_load, net_overrides, jobs,
                           backend, checkpoint_path, resume)[0]


def _analyze_traced(
    design: Design,
    delay_model: str,
    input_arrivals: Optional[Dict[str, float]],
    input_slews: Optional[Dict[str, float]],
    wire_load: Optional[WireLoadModel],
    net_overrides: Optional[Dict[str, Tuple]],
    jobs: Optional[int],
    backend: Optional[str],
    checkpoint_path: Optional[str],
    resume: bool,
    process=None,
) -> Tuple[TimingResult, Optional[tuple]]:
    """:func:`analyze` plus, with a ``process``, the SSTA coefficients
    :func:`_precompute_elmore_batched` computes in the same pass."""
    if delay_model not in DELAY_MODELS:
        raise TimingGraphError(
            f"unknown delay model {delay_model!r}; "
            f"choose from {sorted(DELAY_MODELS)}"
        )
    if (jobs is not None or backend is not None
            or checkpoint_path is not None) and delay_model != "elmore":
        raise TimingGraphError(
            "jobs/backend/checkpoint are only supported with the "
            "'elmore' delay model (the other models evaluate nets "
            "one at a time)"
        )
    with _span("sta.analyze", model=delay_model) as sp:
        result, coefficients = _analyze(
            design, delay_model, input_arrivals, input_slews, wire_load,
            net_overrides, jobs, backend, checkpoint_path, resume, process,
        )
        sp.set_attribute("nets", len(result.nets))
        return result, coefficients


def _analyze(
    design: Design,
    delay_model: str,
    input_arrivals: Optional[Dict[str, float]],
    input_slews: Optional[Dict[str, float]],
    wire_load: Optional[WireLoadModel],
    net_overrides: Optional[Dict[str, Tuple]],
    jobs: Optional[int] = None,
    backend: Optional[str] = None,
    checkpoint_path: Optional[str] = None,
    resume: bool = False,
    process=None,
) -> Tuple[TimingResult, Optional[tuple]]:
    order = design.timing_order()
    if not design.outputs:
        raise TimingGraphError("design has no primary outputs")
    if delay_model == "elmore":
        # Delay and dispersion don't depend on arrivals, so the whole
        # netlist's interconnect is evaluated in batched forest sweeps
        # (one call, or sharded across workers when jobs is given)
        # before arrival propagation begins.
        nets, wire_delay, dispersion, coefficients = \
            _precompute_elmore_batched(
                design, wire_load, net_overrides, jobs=jobs,
                backend=backend, checkpoint_path=checkpoint_path,
                resume=resume, process=process,
            )
    else:
        nets, wire_delay, dispersion = _evaluate_per_net(
            design, DELAY_MODELS[delay_model], wire_load, net_overrides
        )
        coefficients = None

    arrivals: Dict[Pin, float] = {}
    slews: Dict[Pin, float] = {}
    predecessor: Dict[Pin, Tuple[Optional[Pin], str, str, float]] = {}
    for port in design.inputs:
        pin = Pin(Pin.PORT, port)
        arrivals[pin] = (input_arrivals or {}).get(port, 0.0)
        slews[pin] = (input_slews or {}).get(port, 0.0)

    for kind, name in order:
        if kind == "net":
            net = design.nets[name]
            driver = net.driver
            base = arrivals[driver]
            base_slew = slews[driver]
            for sink in net.sinks:
                delay = wire_delay[sink]
                arrivals[sink] = base + delay
                # mu_2 adds under convolution: sigma_out^2 = sigma_in^2 + mu_2.
                slews[sink] = (base_slew**2 + dispersion[sink]) ** 0.5
                predecessor[sink] = (driver, "net", name, delay)
            continue
        cell = design.instances[name].cell
        worst: Optional[Tuple[float, float, Pin]] = None
        for pin_name in cell.inputs:
            pin = Pin(name, pin_name)
            # Slew-dependent gate delay (Sec. III-B's sigma measure).
            stage = cell.intrinsic_delay + cell.slew_impact * slews[pin]
            t = arrivals[pin] + stage
            if worst is None or t > worst[0]:
                worst = (t, stage, pin)
        assert worst is not None
        out_pin = Pin(name, cell.output)
        arrivals[out_pin] = worst[0]
        slews[out_pin] = cell.output_slew  # the gate regenerates the edge
        predecessor[out_pin] = (worst[2], "gate", name, worst[1])

    critical_output = max(
        design.outputs, key=lambda p: arrivals[Pin(Pin.PORT, p)]
    )
    return TimingResult(
        arrival=arrivals,
        slew=slews,
        critical_delay=arrivals[Pin(Pin.PORT, critical_output)],
        critical_output=critical_output,
        nets=nets,
        delay_model=delay_model,
        wire_delay=wire_delay,
        _predecessor=predecessor,
        _order=order,
    ), coefficients
