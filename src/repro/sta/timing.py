"""Static timing analysis over the Elmore metric (or any other).

Arrival times propagate through the gate-level design in topological
order.  Each net's interconnect delay is evaluated per sink on the net's
RC tree with a pluggable delay model:

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
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import networkx as nx
import numpy as np

from repro._exceptions import TimingGraphError
from repro.obs.metrics import counter as _counter
from repro.obs.trace import span as _span

logger = logging.getLogger(__name__)

_NETS_EVALUATED = _counter(
    "sta_nets_total", "Nets whose interconnect delays were evaluated"
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
from repro.parallel import plan_shards, run_sharded

from repro.sta.interconnect import ElaboratedNet, WireLoadModel, elaborate_net
from repro.sta.netlist import Design, Pin


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


def _sta_shard_task(payload) -> Dict[str, Tuple[Dict, Dict]]:
    """Evaluate one shard's nets through a sub-forest (picklable task).

    The payload is a list of ``(net_name, tree, sink_nodes)`` triples;
    the return maps each net name to its per-sink ``(delays, mu2)``
    dicts.  Every per-node quantity of the batched sweeps depends only
    on that node's own tree (subtree folds and root-path prefixes never
    cross tree roots), so a sub-forest reproduces the whole-forest
    results bit for bit.
    """
    topology, offsets = compile_forest([tree for _, tree, _ in payload])
    moments = batch_transfer_moments(topology, 2)
    delays = moments.elmore_delays()[0]
    mu2 = np.maximum(moments.variance()[0], 0.0)
    out: Dict[str, Tuple[Dict, Dict]] = {}
    for (net_name, tree, sink_nodes), offset in zip(payload, offsets):
        sink_index = {
            sink: offset + tree.index_of(node)
            for sink, node in sink_nodes.items()
        }
        out[net_name] = (
            {sink: float(delays[i]) for sink, i in sink_index.items()},
            {sink: float(mu2[i]) for sink, i in sink_index.items()},
        )
    return out


def _precompute_elmore_batched(
    design: Design,
    nets: Dict[str, ElaboratedNet],
    wire_load,
    net_overrides,
    jobs: Optional[int] = None,
    backend: Optional[str] = None,
    checkpoint_path: Optional[str] = None,
    resume: bool = False,
) -> None:
    """Evaluate every net of the design through batched forest sweeps.

    All nets are elaborated up front and their RC trees are compiled
    side by side into forest topologies whose order-2
    :func:`batch_transfer_moments` sweeps yield every sink's Elmore
    delay (arrival propagation) and impulse-response variance (slew
    propagation) at once.  With ``jobs`` unset this is ONE batched call;
    with ``jobs`` given, the net list is split into deterministic shards
    fanned out through :mod:`repro.parallel` (``1`` = serial backend,
    ``>= 2`` = worker processes) with bit-identical results.  Either
    way the per-net results land in the same caches the lazy per-net
    path uses, so :func:`_propagate_net_to` finds them already
    populated.
    """
    with _span("sta.forest_precompute", nets=len(design.nets)) as sp:
        order: List[str] = []
        for net_name, net in design.nets.items():
            if net_name not in nets:
                override = (net_overrides or {}).get(net_name)
                nets[net_name] = elaborate_net(
                    design, net, wire_load=wire_load, override=override
                )
            order.append(net_name)
        if not order:
            return
        _NETS_EVALUATED.inc(len(order))
        if jobs is not None or backend is not None \
                or checkpoint_path is not None:
            shards = plan_shards(len(order))
            sp.set_attribute("shards", len(shards))
            checkpoint = None
            if checkpoint_path is not None:
                from repro.resilience.checkpoint import (
                    open_checkpoint, run_fingerprint, tree_fingerprint,
                )

                checkpoint = open_checkpoint(
                    checkpoint_path,
                    run_fingerprint(
                        "sta.analyze",
                        nets=[
                            (name, tree_fingerprint(nets[name].tree),
                             sorted((str(pin), node) for pin, node
                                    in nets[name].sink_nodes.items()))
                            for name in order
                        ],
                        plan=[shard.size for shard in shards],
                    ),
                    len(shards),
                    meta={"kind": "sta.analyze", "nets": len(order)},
                    resume=resume,
                )
            try:
                chunks = run_sharded(
                    _sta_shard_task,
                    [
                        [
                            (name, nets[name].tree, nets[name].sink_nodes)
                            for name in order[shard.start:shard.stop]
                        ]
                        for shard in shards
                    ],
                    jobs=jobs,
                    label="sta.parallel_run",
                    backend=backend,
                    checkpoint=checkpoint,
                )
            finally:
                if checkpoint is not None:
                    checkpoint.close()
            for chunk in chunks:
                for net_name, (delays, mu2) in chunk.items():
                    cache = _delay_cache_of(nets[net_name])
                    cache[net_name] = delays
                    cache[("dispersion", net_name)] = mu2
            return
        topology, offsets = compile_forest([nets[n].tree for n in order])
        sp.set_attribute("forest_nodes", topology.num_nodes)
        logger.debug(
            "forest precompute: %d nets, %d nodes in one batched call",
            len(order), topology.num_nodes,
        )
        moments = batch_transfer_moments(topology, 2)
        delays = moments.elmore_delays()[0]
        mu2 = np.maximum(moments.variance()[0], 0.0)
        for net_name, offset in zip(order, offsets):
            elaborated = nets[net_name]
            cache = _delay_cache_of(elaborated)
            sink_index = {
                sink: offset + elaborated.tree.index_of(node)
                for sink, node in elaborated.sink_nodes.items()
            }
            cache[net_name] = {
                sink: float(delays[i]) for sink, i in sink_index.items()
            }
            cache[("dispersion", net_name)] = {
                sink: float(mu2[i]) for sink, i in sink_index.items()
            }


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
        from repro._exceptions import AnalysisError, MetricError

        moments = transfer_moments(net.tree, order)
        out: Dict[Pin, float] = {}
        for sink, node in net.sink_nodes.items():
            try:
                out[sink] = fn(moments, node)
            except (AnalysisError, MetricError):
                # Higher-order fits can fail on degenerate nets (complex
                # or unstable fitted poles); fall back to the certified
                # Elmore value rather than aborting the STA run.
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
        The elaborated per-net RC trees (for inspection/plotting).
    delay_model:
        Name of the interconnect delay model used.
    """

    arrival: Dict[Pin, float]
    slew: Dict[Pin, float]
    critical_delay: float
    critical_output: str
    nets: Dict[str, ElaboratedNet]
    delay_model: str
    _predecessor: Dict[Pin, Tuple[Optional[Pin], str, str, float]] = field(
        default_factory=dict, repr=False
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
        The gate-level design (validated here).
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
        pool; net payloads are object tuples and still travel pickled.
        Results stay bit-identical either way.
    checkpoint_path, resume:
        Crash-safe journaling of the forest fan-out's per-shard results
        (``"elmore"`` model only; see
        :mod:`repro.resilience.checkpoint`).  ``resume=True`` skips
        shards an interrupted run already journaled.
    """
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
            "lazily per arrival)"
        )
    with _span("sta.analyze", model=delay_model) as sp:
        result = _analyze(design, delay_model, input_arrivals,
                          input_slews, wire_load, net_overrides, jobs,
                          backend, checkpoint_path, resume)
        sp.set_attribute("nets", len(result.nets))
        return result


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
) -> TimingResult:
    model = DELAY_MODELS[delay_model]
    arrivals: Dict[Pin, float] = {}
    slews: Dict[Pin, float] = {}
    predecessor: Dict[Pin, Tuple[Optional[Pin], str, str, float]] = {}
    nets: Dict[str, ElaboratedNet] = {}
    if delay_model == "elmore":
        # Delay and dispersion don't depend on arrivals, so the whole
        # netlist's interconnect is evaluated in batched forest sweeps
        # (one call, or sharded across workers when jobs is given)
        # before arrival propagation begins.
        _precompute_elmore_batched(design, nets, wire_load, net_overrides,
                                   jobs=jobs, backend=backend,
                                   checkpoint_path=checkpoint_path,
                                   resume=resume)

    for port in design.inputs:
        pin = Pin(Pin.PORT, port)
        arrivals[pin] = (input_arrivals or {}).get(port, 0.0)
        slews[pin] = (input_slews or {}).get(port, 0.0)

    graph = design.instance_graph()
    for node in nx.topological_sort(graph):
        if node.startswith("in:") or node.startswith("out:"):
            continue
        inst = design.instances[node]
        cell = inst.cell
        worst: Optional[Tuple[float, float, Pin]] = None
        for pin_name in cell.inputs:
            pin = Pin(node, pin_name)
            _propagate_net_to(design, pin, model, arrivals, slews,
                              predecessor, nets, wire_load, net_overrides)
            # Slew-dependent gate delay (Sec. III-B's sigma measure).
            stage = cell.intrinsic_delay + cell.slew_impact * slews[pin]
            t = arrivals[pin] + stage
            if worst is None or t > worst[0]:
                worst = (t, stage, pin)
        assert worst is not None
        out_pin = Pin(node, cell.output)
        arrivals[out_pin] = worst[0]
        slews[out_pin] = cell.output_slew  # the gate regenerates the edge
        predecessor[out_pin] = (worst[2], "gate", node, worst[1])

    # Primary outputs: pull their nets.
    for port in design.outputs:
        pin = Pin(Pin.PORT, port)
        _propagate_net_to(design, pin, model, arrivals, slews,
                          predecessor, nets, wire_load, net_overrides)

    if not design.outputs:
        raise TimingGraphError("design has no primary outputs")
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
        _predecessor=predecessor,
    )


def _propagate_net_to(
    design: Design,
    sink: Pin,
    model,
    arrivals: Dict[Pin, float],
    slews: Dict[Pin, float],
    predecessor: Dict,
    nets: Dict[str, ElaboratedNet],
    wire_load,
    net_overrides,
) -> None:
    """Ensure ``sink``'s arrival and slew are computed from its net."""
    if sink in arrivals:
        return
    net_name = design.net_of(sink.instance, sink.pin)
    net = design.nets[net_name]
    if net_name not in nets:
        override = (net_overrides or {}).get(net_name)
        nets[net_name] = elaborate_net(
            design, net, wire_load=wire_load, override=override
        )
    elaborated = nets[net_name]
    cache = _delay_cache_of(elaborated)
    if net_name not in cache:
        _NETS_EVALUATED.inc()
        with _span("sta.net", net=net_name,
                   nodes=elaborated.tree.num_nodes):
            cache[net_name] = model(elaborated)
    if ("dispersion", net_name) not in cache:
        with _span("sta.net_dispersion", net=net_name):
            cache[("dispersion", net_name)] = _net_dispersion(elaborated)
    delays = cache[net_name]
    dispersion = cache[("dispersion", net_name)]
    driver = net.driver
    if driver not in arrivals:
        raise TimingGraphError(
            f"net {net_name!r} driver {driver} has no arrival time "
            "(disconnected from inputs?)"
        )
    base = arrivals[driver]
    base_slew = slews[driver]
    for s in net.sinks:
        t = base + delays[s]
        if s not in arrivals or t > arrivals[s]:
            arrivals[s] = t
            # mu_2 adds under convolution: sigma_out^2 = sigma_in^2 + mu_2.
            slews[s] = (base_slew**2 + dispersion[s]) ** 0.5
            predecessor[s] = (driver, "net", net_name, delays[s])


def _delay_cache_of(elaborated: ElaboratedNet) -> Dict:
    cache = getattr(elaborated, "_delay_cache", None)
    if cache is None:
        cache = {}
        object.__setattr__(elaborated, "_delay_cache", cache)
    return cache
