"""Scalar reference walks for :mod:`repro.sta.ssta`.

``analyze_ssta`` and ``monte_carlo_arrivals`` walk the levelised timing
graph (:mod:`repro.sta.levels`) with dense per-level blocks.  This
module keeps the plain walks they replaced, one pin at a time through
dicts keyed by :class:`~repro.sta.netlist.Pin`, as the oracle the
differential tests compare against:

* :func:`ssta_walk` adds :class:`~repro.core.canonical.CanonicalForm`
  dicts and folds fan-in with
  :func:`~repro.core.canonical.canonical_max_many`;
* :func:`wire_forms` builds the compressed per-net wire forms and
  :func:`net_delay_forms` the per-element ones (one residual label per
  RC element);
* :func:`monte_carlo_walk` is the per-pin Monte-Carlo arrival walk;
* :func:`net_coefficients` is one net's SSTA coefficients from its
  flat arrays, the per-net reference of the shard-wide
  :meth:`~repro.sta.ssta.ProcessModel.net_columns`.

Labels use the engine's namespaces: ``net:{net}.q{j}`` (or
``net:{net}.r{i}`` / ``net:{net}.c{i}`` per element), ``cell:{gate}``,
``max:{gate}#{i}`` and ``max.outputs#{j}``.
"""

from __future__ import annotations

import math
from types import SimpleNamespace
from typing import Dict, List, Optional, Tuple

import numpy as np

import repro.sta.timing as timing
from repro.core.batch import batch_elmore_delays, compile_forest
from repro.core.canonical import (
    CanonicalForm,
    canonical_constant,
    canonical_max_many,
)
from scipy.linalg import lapack

from repro.core.sensitivity import (
    elmore_sensitivity,
    elmore_sensitivity_arrays,
)
from repro.sta import Pin, analyze
from repro.sta.interconnect import NetArrays
from repro.sta.ssta import PROCESS_VARIABLES, ProcessModel


def net_coefficients(
    arrays: NetArrays, model: ProcessModel
) -> Tuple[np.ndarray, np.ndarray]:
    """One net's SSTA coefficients ``(a, l)`` from its flat arrays.

    ``gr = dT/dR * R * sr`` and ``gc = dT/dC * C * sc`` by
    :func:`elmore_sensitivity_arrays`; ``a`` is ``sqrt(rho)`` times
    their row sums and ``l`` the packed rows of the ``S x S`` factor
    ``L`` of ``G = [sqrt(1 - rho_r) gr, sqrt(1 - rho_c) gc] = L Q``
    (the QR of ``G^T``, zero-padded when the net has more sinks than
    ``G`` has columns).  ``net_columns`` must match it bit for bit.
    """
    res = np.asarray(arrays.resistances, dtype=np.float64)
    cap = np.asarray(arrays.capacitances, dtype=np.float64)
    d_r, d_c = elmore_sensitivity_arrays(arrays.parents, res, cap,
                                         arrays.sinks)
    sr, sc = model.variation.sigma_arrays(arrays.node_names)
    gr = d_r * res * sr
    gc = d_c * cap * sc
    size = len(arrays.sinks)
    a = np.zeros((size, len(PROCESS_VARIABLES)))
    a[:, 0] = math.sqrt(model.rho_r) * gr.sum(axis=1)
    a[:, 1] = math.sqrt(model.rho_c) * gc.sum(axis=1)
    g_t = np.concatenate([math.sqrt(1.0 - model.rho_r) * gr,
                          math.sqrt(1.0 - model.rho_c) * gc], axis=1).T
    if g_t.shape[0] < size:  # more sinks than labels: pad G with zeros
        g_t = np.vstack([g_t, np.zeros((size - g_t.shape[0], size))])
    r = lapack.dgeqrf(g_t)[0]  # R = L^T in the upper triangle
    return a, r.T[np.tril_indices(size)]


def net_columns(nets, model: ProcessModel
                ) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`net_coefficients` net by net, concatenated as
    :meth:`~repro.sta.ssta.ProcessModel.net_columns` returns them."""
    parts = [net_coefficients(arrays, model) for arrays in nets]
    return (np.concatenate([a for a, _ in parts]),
            np.concatenate([l for _, l in parts]))


def wire_forms(net_sinks, coefficients: tuple,
               nominal_delays: Dict[Pin, float]
               ) -> Dict[Pin, CanonicalForm]:
    """Canonical delay form of every net sink from packed coefficients
    ``(a, l)`` over ``net_sinks`` (``(net, sink pins)`` in order): sink
    ``s`` of net ``n`` carries the labels ``net:{n}.q0 .. net:{n}.q{s}``;
    exact zeros are left out."""
    a, l = coefficients
    coeffs = l.tolist()
    forms: Dict[Pin, CanonicalForm] = {}
    row = pos = 0
    for net_name, pins in net_sinks:
        labels = [f"net:{net_name}.q{j}" for j in range(len(pins))]
        for s, pin in enumerate(pins):
            resid = {
                label: value
                for label, value in zip(labels, coeffs[pos:pos + s + 1])
                if value != 0.0
            }
            forms[pin] = CanonicalForm(nominal_delays[pin], a[row], resid)
            row += 1
            pos += s + 1
    return forms


def net_delay_forms(net_name: str, elaborated, model: ProcessModel,
                    nominal_delays: Dict[Pin, float]
                    ) -> Dict[Pin, CanonicalForm]:
    """Canonical delay form per sink of one elaborated net, one residual
    label per RC element, from the per-node tree sensitivities."""
    tree = elaborated.tree
    sr, sc = model.variation.sigma_arrays(tree)
    res = tree.resistances
    cap = tree.capacitances
    root_r = math.sqrt(model.rho_r)
    root_c = math.sqrt(model.rho_c)
    resid_r = math.sqrt(1.0 - model.rho_r)
    resid_c = math.sqrt(1.0 - model.rho_c)
    forms: Dict[Pin, CanonicalForm] = {}
    for sink, node in elaborated.sink_nodes.items():
        sens = elmore_sensitivity(tree, node)
        gr = sens.dR * res * sr
        gc = sens.dC * cap * sc
        a = np.array([root_r * float(gr.sum()),
                      root_c * float(gc.sum()), 0.0])
        resid: Dict[str, float] = {}
        if resid_r > 0.0:
            for i in np.flatnonzero(gr):
                resid[f"net:{net_name}.r{i}"] = resid_r * float(gr[i])
        if resid_c > 0.0:
            for i in np.flatnonzero(gc):
                resid[f"net:{net_name}.c{i}"] = resid_c * float(gc[i])
        forms[sink] = CanonicalForm(nominal_delays[sink], a, resid)
    return forms


def stage_form(model: ProcessModel, instance: str,
               stage_nominal: float) -> CanonicalForm:
    """Canonical form of one gate stage delay (label per instance)."""
    if model.cell_sigma <= 0.0 or stage_nominal == 0.0:
        return canonical_constant(stage_nominal, len(PROCESS_VARIABLES))
    scale = model.cell_sigma * stage_nominal
    a = np.array([0.0, 0.0, math.sqrt(model.rho_cell) * scale])
    resid: Dict[str, float] = {}
    if model.rho_cell < 1.0:
        resid[f"cell:{instance}"] = math.sqrt(1.0 - model.rho_cell) * scale
    return CanonicalForm(stage_nominal, a, resid)


def compressed_forms(design, model: ProcessModel, **kwargs):
    """``(nominal, wire forms)`` from the nominal pass's coefficients
    (or those the design version kept for ``model``)."""
    nominal, coefficients = timing._analyze_traced(
        design, "elmore", kwargs.get("input_arrivals"),
        kwargs.get("input_slews"), kwargs.get("wire_load"),
        kwargs.get("net_overrides"), None, None, None, False,
        process=model,
    )
    version = nominal._version
    if coefficients is None:
        coefficients = version.kept(model).coefficients
    net_sinks = [(g.net, g.sink_pins()) for g in version.geometries]
    return nominal, wire_forms(net_sinks, coefficients, nominal.wire_delay)


def per_element_forms(design, model: ProcessModel, **kwargs):
    """``(nominal, wire forms)`` with one label per RC element."""
    nominal = analyze(design, "elmore", **kwargs)
    forms: Dict[Pin, CanonicalForm] = {}
    for name, net in nominal.nets.items():
        forms.update(net_delay_forms(name, net, model, nominal.wire_delay))
    return nominal, forms


def ssta_walk(design, model: ProcessModel, per_element: bool = False,
              input_arrivals: Optional[Dict[str, float]] = None, **kwargs):
    """The dict-based statistical walk.

    Returns a namespace with ``arrival``, ``outputs``, ``critical``,
    ``criticality``, ``pin_criticality`` and ``nominal``, as
    :class:`~repro.sta.ssta.SSTAReport` has them.
    """
    extract = per_element_forms if per_element else compressed_forms
    nominal, wires = extract(design, model, input_arrivals=input_arrivals,
                             **kwargs)
    order = design.timing_order()
    arrival: Dict[Pin, CanonicalForm] = {}
    gate_fanin: Dict[str, Tuple[List[Pin], List[float]]] = {}
    for port in design.inputs:
        arrival[Pin(Pin.PORT, port)] = canonical_constant(
            (input_arrivals or {}).get(port, 0.0), len(PROCESS_VARIABLES))
    for kind, name in order:
        if kind == "net":
            net = design.nets[name]
            base = arrival[net.driver]
            for sink in net.sinks:
                arrival[sink] = base + wires[sink]
            continue
        cell = design.instances[name].cell
        pins: List[Pin] = []
        candidates: List[CanonicalForm] = []
        for pin_name in cell.inputs:
            pin = Pin(name, pin_name)
            stage = cell.intrinsic_delay + cell.slew_impact * nominal.slew[pin]
            candidates.append(arrival[pin] + stage_form(model, name, stage))
            pins.append(pin)
        out_form, weights = canonical_max_many(candidates,
                                               label=f"max:{name}")
        arrival[Pin(name, cell.output)] = out_form
        gate_fanin[name] = (pins, weights)

    outputs = {port: arrival[Pin(Pin.PORT, port)] for port in design.outputs}
    critical, out_weights = canonical_max_many(list(outputs.values()),
                                               label="max.outputs")
    criticality = dict(zip(outputs, out_weights))
    pin_criticality: Dict[Pin, float] = {}
    for port, weight in criticality.items():
        pin_criticality[Pin(Pin.PORT, port)] = weight
    for kind, name in reversed(order):
        if kind == "gate":
            out_pin = Pin(name, design.instances[name].cell.output)
            out_crit = pin_criticality.get(out_pin, 0.0)
            pins, weights = gate_fanin[name]
            for pin, weight in zip(pins, weights):
                pin_criticality[pin] = (pin_criticality.get(pin, 0.0)
                                        + out_crit * weight)
        else:
            net = design.nets[name]
            total = sum(pin_criticality.get(s, 0.0) for s in net.sinks)
            pin_criticality[net.driver] = (
                pin_criticality.get(net.driver, 0.0) + total)
    return SimpleNamespace(
        arrival=arrival, outputs=outputs, critical=critical,
        criticality=criticality, pin_criticality=pin_criticality,
        nominal=nominal,
    )


def monte_carlo_walk(design, model: ProcessModel, samples: int,
                     seed: int = 0, clip: float = 0.99,
                     input_arrivals: Optional[Dict[str, float]] = None,
                     nominal=None) -> Tuple[List[str], np.ndarray]:
    """The per-pin Monte-Carlo arrival walk, in process (no sharding),
    with the engine's draw order."""
    order = design.timing_order()
    if nominal is None:
        nominal = analyze(design, "elmore", input_arrivals=input_arrivals)
    net_order = [n for n in design.nets if n in nominal.nets]
    trees = [nominal.nets[n].tree for n in net_order]
    topology, offsets = compile_forest(trees)
    n_forest = int(topology.num_nodes)
    sr_all = np.empty(n_forest)
    sc_all = np.empty(n_forest)
    for offset, tree in zip(offsets, trees):
        sr, sc = model.variation.sigma_arrays(tree)
        sr_all[offset:offset + tree.num_nodes] = sr
        sc_all[offset:offset + tree.num_nodes] = sc

    instances = list(design.instances)
    rng = np.random.default_rng(seed)
    z = rng.normal(0.0, 1.0, (samples, 3))
    eps = rng.normal(0.0, 1.0, (samples, 2, n_forest))
    eps_cell = rng.normal(0.0, 1.0, (samples, len(instances)))
    xr = sr_all * (math.sqrt(model.rho_r) * z[:, 0:1]
                   + math.sqrt(1.0 - model.rho_r) * eps[:, 0, :])
    xc = sc_all * (math.sqrt(model.rho_c) * z[:, 1:2]
                   + math.sqrt(1.0 - model.rho_c) * eps[:, 1, :])
    res_rows = topology.resistances * (1.0 + np.clip(xr, -clip, clip))
    cap_rows = topology.capacitances * (1.0 + np.clip(xc, -clip, clip))
    delays = batch_elmore_delays(topology, res_rows, cap_rows)

    sink_delays: Dict[Pin, np.ndarray] = {}
    for net_name, offset in zip(net_order, offsets):
        elaborated = nominal.nets[net_name]
        for sink, node in elaborated.sink_nodes.items():
            sink_delays[sink] = delays[:, offset
                                       + elaborated.tree.index_of(node)]
    xg = model.cell_sigma * (math.sqrt(model.rho_cell) * z[:, 2:3]
                             + math.sqrt(1.0 - model.rho_cell) * eps_cell)
    gate_factor = 1.0 + np.clip(xg, -clip, clip)
    gate_index = {name: i for i, name in enumerate(instances)}

    arrivals: Dict[Pin, np.ndarray] = {}
    for port in design.inputs:
        arrivals[Pin(Pin.PORT, port)] = np.full(
            samples, (input_arrivals or {}).get(port, 0.0))
    for kind, name in order:
        if kind == "net":
            net = design.nets[name]
            base = arrivals[net.driver]
            for sink in net.sinks:
                arrivals[sink] = base + sink_delays[sink]
            continue
        cell = design.instances[name].cell
        factor = gate_factor[:, gate_index[name]]
        best: Optional[np.ndarray] = None
        for pin_name in cell.inputs:
            pin = Pin(name, pin_name)
            stage = cell.intrinsic_delay + cell.slew_impact * nominal.slew[pin]
            t = arrivals[pin] + stage * factor
            best = t if best is None else np.maximum(best, t)
        arrivals[Pin(name, cell.output)] = best
    matrix = np.stack([arrivals[Pin(Pin.PORT, port)]
                       for port in design.outputs], axis=1)
    return list(design.outputs), matrix
