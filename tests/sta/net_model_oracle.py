"""Per-tree reference evaluation for :mod:`repro.sta.timing`'s delay models.

``analyze`` evaluates every delay model from one batched forest sweep of
the nets' flat arrays (``timing._sweep_nets``), in process or in shard
tasks.  This module keeps the per-net evaluation it replaced, one
elaborated net (:class:`~repro.sta.interconnect.ElaboratedNet`) at a
time, as the oracle the differential tests compare against:

* ``"elmore"``: the net's own order-1 batched sweep;
* ``"exact"``: :class:`~repro.analysis.state_space.ExactAnalysis` on
  ``net.tree`` and the measured 50% step delay;
* a :data:`~repro.core.metrics.METRICS` key: the scalar
  :func:`~repro.core.moments.transfer_moments` walk (order 8 for
  ``"awe4"``, else 4) and the metric, falling back to the Elmore delay
  where the fit fails;
* the slew dispersion ``mu2``: the net's own order-2 batched sweep.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro._exceptions import AnalysisError, MetricError
from repro.analysis.responses import measure_delay
from repro.analysis.state_space import ExactAnalysis
from repro.core.batch import batch_transfer_moments, compile_topology
from repro.core.metrics import METRICS
from repro.core.moments import transfer_moments
from repro.sta import Design, Pin, elaborate_net
from repro.sta.interconnect import ElaboratedNet


def net_delays(net: ElaboratedNet, delay_model: str
               ) -> Tuple[Dict[Pin, float], int]:
    """Wire delay of every sink of one net, and how many sinks fell back
    from a failed metric fit to the Elmore delay."""
    if delay_model == "elmore":
        delays = batch_transfer_moments(
            compile_topology(net.tree), 1).elmore_delays()[0]
        return {sink: float(delays[net.tree.index_of(node)])
                for sink, node in net.sink_nodes.items()}, 0
    if delay_model == "exact":
        analysis = ExactAnalysis(net.tree)
        return {sink: measure_delay(analysis, node)
                for sink, node in net.sink_nodes.items()}, 0
    metric = METRICS[delay_model]
    moments = transfer_moments(net.tree, 8 if delay_model == "awe4" else 4)
    out: Dict[Pin, float] = {}
    fallbacks = 0
    for sink, node in net.sink_nodes.items():
        try:
            out[sink] = metric(moments, node)
        except (AnalysisError, MetricError):
            fallbacks += 1
            out[sink] = moments.mean(node)
    return out, fallbacks


def net_dispersion(net: ElaboratedNet) -> Dict[Pin, float]:
    """Per-sink variance ``mu2`` of the net's impulse response."""
    moments = batch_transfer_moments(compile_topology(net.tree), 2)
    mu2 = np.maximum(moments.variance()[0], 0.0)
    return {sink: float(mu2[net.tree.index_of(node)])
            for sink, node in net.sink_nodes.items()}


def design_delays(design: Design, delay_model: str, net_overrides=None
                  ) -> Tuple[Dict[Pin, float], Dict[Pin, float], int]:
    """``(wire_delay, dispersion, fallbacks)`` over every net of the
    design, each net elaborated and evaluated on its own."""
    overrides = net_overrides or {}
    wire_delay: Dict[Pin, float] = {}
    dispersion: Dict[Pin, float] = {}
    fallbacks = 0
    for name, net in design.nets.items():
        elaborated = elaborate_net(design, net, override=overrides.get(name))
        delays, failed = net_delays(elaborated, delay_model)
        wire_delay.update(delays)
        dispersion.update(net_dispersion(elaborated))
        fallbacks += failed
    return wire_delay, dispersion, fallbacks
