"""Statistical static timing analysis (SSTA) over canonical forms.

Where :func:`repro.sta.timing.analyze` propagates one corner *scalar* per
timing point, this engine propagates a full first-order **distribution**
(:class:`repro.core.canonical.CanonicalForm`) per pin, following the
gate-level SSTA formulation surveyed in arXiv:2401.03588:

* **Process model** — every RC element's relative variation splits into a
  globally shared component (one chip-wide standard normal per category:
  resistance, capacitance, cell speed) and an element-private residual:
  ``x_e = sigma_e * (sqrt(rho) * Z + sqrt(1 - rho) * eps_e)``.  The same
  :class:`~repro.core.variation.VariationModel` sigma grid drives both
  the canonical propagation and the Monte-Carlo oracle, so the two
  engines describe *the same* random design.

* **Sensitivity extraction** — the Elmore delay is bilinear in (R, C),
  so :func:`repro.core.sensitivity.elmore_sensitivity_arrays` gives
  exact first-order coefficients for every sink of a net at once, from
  the net's flat arrays; gate stages scale their nominal delay by the
  cell-speed variation.

* **Exact label compression** — a net's per-element residuals form an
  ``S x K`` matrix ``G`` (sinks by RC elements).  Every later form holds
  them only as ``v^T G``, so the ``S x S`` factor ``L`` of ``G = L Q``
  replaces them with the same covariances: sink ``s`` of net ``n``
  carries the private labels ``n.q0 .. n.qs`` (:func:`_net_coefficients`).
  The nominal STA shard task computes these coefficients next to its
  sweep, so a sharded run builds no RC tree in the parent.

* **Propagation** — the nominal forest walk of :mod:`repro.sta.timing`
  runs first (batched forest sweeps, sharded/warm-pool capable); the
  statistical walk then loops over the same
  :meth:`~repro.sta.netlist.Design.timing_order`, reusing its per-sink
  ``wire_delay`` as the form means, with exact Gaussian ``add`` and
  Clark moment-matched ``max``.  Residual coefficients stay *labeled*
  per net/gate, so reconvergent fanout keeps its common-path
  correlation exactly.

* **Validation** — :func:`monte_carlo_arrivals` replays the identical
  correlated draws through the batched Elmore engine ((B, N) forest
  sweeps, shm warm pool capable) and full vectorized max/add arrival
  propagation; :func:`validate_against_monte_carlo` reports per-output
  mean/sigma errors.  The repo gates mean within 1% and sigma within 5%
  of the oracle on its test designs.

The per-pin/per-path criticality probabilities, yield curve and sigma
corners are surfaced through :class:`SSTAReport`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np
from scipy.linalg import lapack

from repro._exceptions import AnalysisError, TimingGraphError
from repro.core.batch import batch_elmore_delays, compile_forest
from repro.core.canonical import (
    CanonicalForm,
    canonical_constant,
    canonical_max_many,
)
from repro.core.sensitivity import (
    elmore_sensitivity,
    elmore_sensitivity_arrays,
)
from repro.core.variation import (
    VariationModel,
    _attached_topology,
    _sweep_on_workspace,
)
from repro.obs.metrics import counter as _counter
from repro.obs.trace import span as _span
from repro.parallel import plan_shards, resolve_backend
from repro.sta.interconnect import NetArrays
from repro.sta.netlist import Design, Pin
from repro.sta.timing import TimingResult, _analyze_traced, analyze

__all__ = [
    "ProcessModel",
    "SSTAReport",
    "SSTAValidation",
    "analyze_ssta",
    "monte_carlo_arrivals",
    "validate_against_monte_carlo",
]

#: Order of the shared (chip-wide) process variables in every
#: canonical form this engine produces.
PROCESS_VARIABLES: Tuple[str, ...] = ("R", "C", "CELL")

_ANALYSES = _counter(
    "ssta_analyses_total", "Completed statistical timing analyses"
)
_MAX_OPS = _counter(
    "ssta_max_operations_total", "Clark statistical-max operations"
)
_FORMS = _counter(
    "ssta_forms_total", "Canonical delay forms extracted from nets/gates"
)
_MC_SAMPLES = _counter(
    "ssta_mc_samples_total", "Monte-Carlo oracle samples evaluated"
)


@dataclass(frozen=True)
class ProcessModel:
    """Correlated process-variation model for SSTA.

    Attributes
    ----------
    variation:
        The per-element relative-sigma grid (same object the Monte-Carlo
        machinery consumes).
    rho_r, rho_c:
        Fraction of each R/C element's variance carried by the shared
        chip-wide variable (1.0 = fully correlated, 0.0 = independent).
    cell_sigma:
        Relative sigma of every gate stage delay (0 disables cell
        variation).
    rho_cell:
        Shared fraction of the cell-speed variance.
    """

    variation: VariationModel
    rho_r: float = 0.5
    rho_c: float = 0.5
    cell_sigma: float = 0.0
    rho_cell: float = 0.5

    def __post_init__(self) -> None:
        for name in ("rho_r", "rho_c", "rho_cell"):
            value = getattr(self, name)
            if not (isinstance(value, (int, float))
                    and math.isfinite(value) and 0.0 <= value <= 1.0):
                raise AnalysisError(
                    f"{name} must be a correlation fraction in [0, 1]: "
                    f"{value!r}"
                )
        if not (isinstance(self.cell_sigma, (int, float))
                and math.isfinite(self.cell_sigma)
                and self.cell_sigma >= 0.0):
            raise AnalysisError(
                f"cell_sigma must be a nonnegative finite relative "
                f"sigma: {self.cell_sigma!r}"
            )

    def net_columns(
        self, nets: Sequence[NetArrays]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """SSTA coefficients of every sink of ``nets``, net by net.

        Returns ``(a, l)``: ``a`` stacks each net's ``(S, 3)`` global
        coefficients and ``l`` concatenates each net's packed residual
        factor (:func:`_net_coefficients`).  Each net's part depends on
        that net alone.
        """
        parts = [_net_coefficients(arrays, self) for arrays in nets]
        return (np.concatenate([a for a, _ in parts]),
                np.concatenate([l for _, l in parts]))


# ---------------------------------------------------------------------------
# Canonical form extraction
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _lower_triangle(size: int) -> Tuple[np.ndarray, np.ndarray]:
    return np.tril_indices(size)


def _net_coefficients(
    arrays: NetArrays, model: ProcessModel
) -> Tuple[np.ndarray, np.ndarray]:
    """One net's SSTA coefficients from its flat arrays.

    With ``S`` sinks and ``N`` elements, the first-order delay change of
    sink ``s`` is ``sum_e gr[s, e] x_e + sum_k gc[s, k] y_k`` over the
    elements' relative R and C variations, where ``gr = dT/dR * R * sr``
    and ``gc = dT/dC * C * sc`` (:func:`elmore_sensitivity_arrays`).
    Each variation splits by ``rho`` into the shared variable and a
    private residual, which gives the ``(S, 3)`` global coefficients
    ``a`` and the ``(S, 2N)`` residual matrix
    ``G = [sqrt(1 - rho_r) gr, sqrt(1 - rho_c) gc]``.

    Every later form holds this net's residuals only as ``v^T G`` (adds
    pass them through, Clark's max interpolates them), so ``G`` can be
    replaced by the ``S x S`` lower-triangular ``L`` of ``G = L Q``
    (``Q`` with orthonormal rows, from the QR of ``G^T``): every
    covariance ``v^T G G^T w = v^T L L^T w`` is unchanged.  Returns
    ``(a, l)`` with ``l`` the rows of ``L`` packed, row ``s`` holding
    its ``s + 1`` coefficients on the net's labels ``q0 .. qs``.
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
    return a, r.T[_lower_triangle(size)]


def _wire_forms(
    coefficients: tuple, nominal_delays: Dict[Pin, float]
) -> Dict[Pin, CanonicalForm]:
    """Canonical delay form of every net sink from packed coefficients.

    ``coefficients`` is ``(net_sinks, a, l)`` as the nominal pass
    returns it (:func:`_net_coefficients`, net by net in ``net_sinks``
    order).  Sink ``s`` of net ``n`` carries the residual labels
    ``"{n}.q0" .. "{n}.q{s}"``, private to the net; exact zeros are
    left out.
    """
    net_sinks, a, l = coefficients
    coeffs = l.tolist()
    forms: Dict[Pin, CanonicalForm] = {}
    row = pos = 0
    for net_name, pins in net_sinks:
        labels = [f"{net_name}.q{j}" for j in range(len(pins))]
        for s, pin in enumerate(pins):
            resid = {
                label: value
                for label, value in zip(labels, coeffs[pos:pos + s + 1])
                if value != 0.0
            }
            forms[pin] = CanonicalForm(nominal_delays[pin], a[row], resid)
            row += 1
            pos += s + 1
    _FORMS.inc(len(forms))
    return forms


def _net_delay_forms(
    net_name: str,
    elaborated,
    model: ProcessModel,
    nominal_delays: Dict[Pin, float],
) -> Dict[Pin, CanonicalForm]:
    """Canonical delay form per sink of one elaborated net, one residual
    label per RC element (the test oracle of :func:`_wire_forms`).

    The form's mean is the batched nominal Elmore delay; the linear
    coefficients come from the exact bilinear sensitivities.  Residual
    labels are per *element*, shared between sinks of the same net, so
    sink-to-sink (and reconvergent-path) correlation is exact.
    """
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
                resid[f"{net_name}.r{i}"] = resid_r * float(gr[i])
        if resid_c > 0.0:
            for i in np.flatnonzero(gc):
                resid[f"{net_name}.c{i}"] = resid_c * float(gc[i])
        forms[sink] = CanonicalForm(nominal_delays[sink], a, resid)
    _FORMS.inc(len(forms))
    return forms


def _stage_form(
    model: ProcessModel, instance: str, stage_nominal: float
) -> CanonicalForm:
    """Canonical form of one gate stage delay.

    The whole stage (intrinsic + slew-dependent part, both proportional
    to the cell's speed) scales with the cell-speed variation; the
    residual label is per *instance*, so the same gate's stages through
    different input pins stay perfectly correlated.
    """
    if model.cell_sigma <= 0.0 or stage_nominal == 0.0:
        return canonical_constant(stage_nominal, len(PROCESS_VARIABLES))
    scale = model.cell_sigma * stage_nominal
    a = np.array([0.0, 0.0, math.sqrt(model.rho_cell) * scale])
    resid: Dict[str, float] = {}
    if model.rho_cell < 1.0:
        resid[f"cell.{instance}"] = (
            math.sqrt(1.0 - model.rho_cell) * scale
        )
    _FORMS.inc()
    return CanonicalForm(stage_nominal, a, resid)


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------


@dataclass
class SSTAReport:
    """Output of :func:`analyze_ssta` — arrivals as distributions.

    Attributes
    ----------
    arrival:
        Canonical arrival form at every timing point (pins, incl. ports).
    outputs:
        Arrival form per primary output port.
    critical:
        Clark max over all primary-output arrivals — the design's delay
        distribution (yield curve = its CDF).
    criticality:
        Per primary output: probability that it is the critical one.
    pin_criticality:
        Per pin: probability that the pin lies on the critical path
        (input-port criticalities sum to ~1).
    nominal:
        The deterministic :class:`~repro.sta.timing.TimingResult` the
        statistical walk mirrored (means shift only through ``max``).
    model:
        The :class:`ProcessModel` analyzed.
    """

    arrival: Dict[Pin, CanonicalForm]
    outputs: Dict[str, CanonicalForm]
    critical: CanonicalForm
    criticality: Dict[str, float]
    pin_criticality: Dict[Pin, float]
    nominal: TimingResult
    model: ProcessModel = field(repr=False)

    def arrival_at_output(self, port: str) -> CanonicalForm:
        """Arrival distribution at a primary output."""
        if port not in self.outputs:
            raise TimingGraphError(f"unknown output port {port!r}")
        return self.outputs[port]

    def yield_at(self, required: float) -> float:
        """``P(critical delay <= required)`` — parametric timing yield."""
        return self.critical.cdf(required)

    def yield_curve(
        self, times: Sequence[float]
    ) -> List[Tuple[float, float]]:
        """``(t, yield(t))`` sampled along ``times``."""
        return [(float(t), self.yield_at(float(t))) for t in times]

    def sigma_corners(
        self, levels: Sequence[float] = (1.0, 2.0, 3.0)
    ) -> Dict[float, float]:
        """``mu + k*sigma`` corner delays of the critical distribution."""
        return {
            float(k): self.critical.sigma_corner(float(k)) for k in levels
        }

    def _required_map(
        self, required: Union[float, Dict[str, float]]
    ) -> Dict[str, float]:
        if isinstance(required, dict):
            missing = sorted(set(self.outputs) - set(required))
            if missing:
                raise TimingGraphError(
                    f"required times missing for outputs: {missing}"
                )
            return {port: float(required[port]) for port in self.outputs}
        return {port: float(required) for port in self.outputs}

    def prob_slack_negative(
        self, required: Union[float, Dict[str, float]]
    ) -> Dict[str, float]:
        """Per output: ``P(arrival > required)`` (= P(slack < 0))."""
        reqs = self._required_map(required)
        return {
            port: self.outputs[port].prob_gt(reqs[port])
            for port in self.outputs
        }

    def fail_probability(
        self, required: Union[float, Dict[str, float]]
    ) -> float:
        """``P(any output misses its required time)``.

        Computed through the statistical max of the ``arrival - required``
        forms, so inter-output correlation is honored (a plain product of
        per-output yields would be wrong for correlated paths).
        """
        reqs = self._required_map(required)
        shifted = [
            self.outputs[port].shifted(-reqs[port]) for port in self.outputs
        ]
        worst, _ = canonical_max_many(shifted, label="max.slack")
        return worst.prob_gt(0.0)


# ---------------------------------------------------------------------------
# The statistical walk
# ---------------------------------------------------------------------------


def analyze_ssta(
    design: Design,
    model: ProcessModel,
    input_arrivals: Optional[Dict[str, float]] = None,
    input_slews: Optional[Dict[str, float]] = None,
    wire_load=None,
    net_overrides: Optional[Dict[str, Tuple]] = None,
    jobs: Optional[int] = None,
    backend: Optional[str] = None,
    checkpoint_path: Optional[str] = None,
    resume: bool = False,
    nominal: Optional[TimingResult] = None,
) -> SSTAReport:
    """Run statistical STA on ``design`` under ``model``.

    The deterministic Elmore analysis runs first (reusing its batched
    forest sweeps; ``jobs``/``backend``/``checkpoint_path``/``resume``
    are forwarded to it, so the heavy interconnect evaluation shards
    across workers / the shm warm pool and journals exactly like
    ``repro sta``), and the same pass returns every net's SSTA
    coefficients (computed in the shard task when sharded).  The
    statistical walk then mirrors the deterministic one: gate-input
    stages use the *nominal* slews (slew dispersion is a second-order
    effect on the stage delay), interconnect delays carry the full
    first-order variation, and every fan-in competes through Clark's
    max.  Pass a precomputed ``nominal`` result (``"elmore"`` model) to
    skip the deterministic pass; the coefficients then come from its
    ``nets`` through the same per-net function.
    """
    if not isinstance(model, ProcessModel):
        raise AnalysisError(
            "analyze_ssta needs a ProcessModel (wrap your VariationModel)"
        )
    with _span("ssta.analyze", nets=len(design.nets)) as sp:
        order = design.timing_order()
        if not design.outputs:
            raise TimingGraphError("design has no primary outputs")
        if nominal is None:
            nominal, coefficients = _analyze_traced(
                design, "elmore", input_arrivals, input_slews, wire_load,
                net_overrides, jobs, backend, checkpoint_path, resume,
                process=model,
            )
        elif nominal.delay_model != "elmore":
            raise TimingGraphError(
                "analyze_ssta requires an 'elmore' nominal result "
                f"(got {nominal.delay_model!r})"
            )
        else:
            nets = nominal.nets
            coefficients = (
                [(name, list(net.sink_nodes)) for name, net in nets.items()],
                *model.net_columns([net.arrays() for net in nets.values()]),
            )
        num_vars = len(PROCESS_VARIABLES)

        with _span("ssta.extract", nets=len(nominal.nets)):
            wire_forms = _wire_forms(coefficients, nominal.wire_delay)

        arrival: Dict[Pin, CanonicalForm] = {}
        gate_fanin: Dict[str, Tuple[List[Pin], List[float]]] = {}
        for port in design.inputs:
            pin = Pin(Pin.PORT, port)
            arrival[pin] = canonical_constant(
                (input_arrivals or {}).get(port, 0.0), num_vars
            )

        for kind, name in order:
            if kind == "net":
                net = design.nets[name]
                base = arrival[net.driver]
                for sink in net.sinks:
                    arrival[sink] = base + wire_forms[sink]
                continue
            cell = design.instances[name].cell
            pins: List[Pin] = []
            candidates: List[CanonicalForm] = []
            for pin_name in cell.inputs:
                pin = Pin(name, pin_name)
                stage_nominal = (
                    cell.intrinsic_delay
                    + cell.slew_impact * nominal.slew[pin]
                )
                candidates.append(
                    arrival[pin] + _stage_form(model, name, stage_nominal)
                )
                pins.append(pin)
            out_form, weights = canonical_max_many(
                candidates, label=f"max.{name}"
            )
            if len(candidates) > 1:
                _MAX_OPS.inc(len(candidates) - 1)
            arrival[Pin(name, cell.output)] = out_form
            gate_fanin[name] = (pins, weights)

        outputs = {
            port: arrival[Pin(Pin.PORT, port)] for port in design.outputs
        }
        with _span("ssta.max", outputs=len(outputs)):
            critical, out_weights = canonical_max_many(
                list(outputs.values()), label="max.outputs"
            )
            if len(outputs) > 1:
                _MAX_OPS.inc(len(outputs) - 1)
        criticality = dict(zip(outputs, out_weights))

        # Backward criticality pass: walk the forward order reversed;
        # a gate splits its output-pin criticality over its fan-in by
        # the Clark tightness weights, a net funnels its sinks' back to
        # the driver.  Disjoint-event approximation (Visweswariah).
        pin_criticality: Dict[Pin, float] = {}
        for port, weight in criticality.items():
            pin_criticality[Pin(Pin.PORT, port)] = weight
        for kind, name in reversed(order):
            if kind == "gate":
                out_pin = Pin(name, design.instances[name].cell.output)
                out_crit = pin_criticality.get(out_pin, 0.0)
                pins, weights = gate_fanin[name]
                for pin, weight in zip(pins, weights):
                    pin_criticality[pin] = (
                        pin_criticality.get(pin, 0.0) + out_crit * weight
                    )
            else:
                net = design.nets[name]
                total = sum(
                    pin_criticality.get(s, 0.0) for s in net.sinks
                )
                pin_criticality[net.driver] = (
                    pin_criticality.get(net.driver, 0.0) + total
                )

        _ANALYSES.inc()
        sp.set_attribute("outputs", len(outputs))
        sp.set_attribute("critical_mu", critical.mu)
        sp.set_attribute("critical_sigma", critical.sigma)
        return SSTAReport(
            arrival=arrival,
            outputs=outputs,
            critical=critical,
            criticality=criticality,
            pin_criticality=pin_criticality,
            nominal=nominal,
            model=model,
        )


# ---------------------------------------------------------------------------
# Monte-Carlo oracle
# ---------------------------------------------------------------------------


def _rows_shard_task(payload) -> int:
    """Sweep one shard's pre-drawn parameter rows: attach the forest and
    the ``res``/``cap`` blocks, write the delay rows into ``out``."""
    descriptor, start, stop = payload
    ws, topology = _attached_topology(descriptor)
    ws.arrays["out"][start:stop] = batch_elmore_delays(
        topology, ws.arrays["res"][start:stop], ws.arrays["cap"][start:stop]
    )
    return stop - start


def _sweep_rows(
    topology,
    res: np.ndarray,
    cap: np.ndarray,
    jobs: Optional[int],
    backend: Optional[str],
) -> np.ndarray:
    """Batched Elmore delays for explicit (B, N) parameter rows.

    One in-process call by default; with ``jobs``/``backend`` the rows
    shard across the parallel engine — on the warm pool the compiled
    forest and both parameter blocks are published as shm blocks and
    workers write into a shared output block (zero pickled arrays).
    """
    if jobs is None and resolve_backend(backend) is None:
        return batch_elmore_delays(topology, res, cap)
    return _sweep_on_workspace(
        _rows_shard_task,
        topology,
        {"res": res, "cap": cap},
        plan_shards(res.shape[0]),
        jobs=jobs,
        backend=backend,
        label="ssta.parallel_run",
    )


def monte_carlo_arrivals(
    design: Design,
    model: ProcessModel,
    samples: int,
    seed: int = 0,
    clip: float = 0.99,
    input_arrivals: Optional[Dict[str, float]] = None,
    input_slews: Optional[Dict[str, float]] = None,
    wire_load=None,
    net_overrides: Optional[Dict[str, Tuple]] = None,
    jobs: Optional[int] = None,
    backend: Optional[str] = None,
    nominal: Optional[TimingResult] = None,
) -> Tuple[List[str], np.ndarray]:
    """Monte-Carlo oracle for :func:`analyze_ssta`.

    Draws ``samples`` realizations of the *same* correlated process
    space the canonical engine models (shared chip-wide normals per
    category + per-element/per-gate residuals, identical sigma grid from
    ``model.variation``), sweeps every net's Elmore delays through one
    batched (B, N) forest evaluation (sharded / shm warm pool when
    ``jobs``/``backend`` are given), and propagates per-sample arrivals
    with vectorized max/add using the nominal slews — exactly the
    semantics the canonical walk linearizes.

    Returns ``(output_ports, matrix)`` with ``matrix[b, j]`` the sample
    ``b`` arrival at output ``j``.
    """
    if samples < 1:
        raise AnalysisError("need at least one sample")
    if not isinstance(model, ProcessModel):
        raise AnalysisError(
            "monte_carlo_arrivals needs a ProcessModel"
        )
    with _span("ssta.monte_carlo", samples=samples) as sp:
        order = design.timing_order()
        if nominal is None:
            nominal = analyze(
                design, "elmore", input_arrivals=input_arrivals,
                input_slews=input_slews, wire_load=wire_load,
                net_overrides=net_overrides,
            )
        net_order = [n for n in design.nets if n in nominal.nets]
        trees = [nominal.nets[n].tree for n in net_order]
        topology, offsets = compile_forest(trees)
        n_forest = int(topology.num_nodes)
        sp.set_attribute("forest_nodes", n_forest)
        sr_all = np.empty(n_forest)
        sc_all = np.empty(n_forest)
        for net_name, offset, tree in zip(net_order, offsets, trees):
            sr, sc = model.variation.sigma_arrays(tree)
            sr_all[offset:offset + tree.num_nodes] = sr
            sc_all[offset:offset + tree.num_nodes] = sc

        instances = list(design.instances)
        rng = np.random.default_rng(seed)
        # Draw order (stable contract): shared Z block, then the R/C
        # element residuals, then the per-gate residuals.
        z = rng.normal(0.0, 1.0, (samples, 3))
        eps = rng.normal(0.0, 1.0, (samples, 2, n_forest))
        eps_cell = rng.normal(0.0, 1.0, (samples, len(instances)))
        _MC_SAMPLES.inc(samples)

        xr = sr_all * (
            math.sqrt(model.rho_r) * z[:, 0:1]
            + math.sqrt(1.0 - model.rho_r) * eps[:, 0, :]
        )
        xc = sc_all * (
            math.sqrt(model.rho_c) * z[:, 1:2]
            + math.sqrt(1.0 - model.rho_c) * eps[:, 1, :]
        )
        res_rows = topology.resistances * (1.0 + np.clip(xr, -clip, clip))
        cap_rows = topology.capacitances * (1.0 + np.clip(xc, -clip, clip))
        delays = _sweep_rows(topology, res_rows, cap_rows, jobs, backend)

        sink_delays: Dict[Pin, np.ndarray] = {}
        for net_name, offset in zip(net_order, offsets):
            elaborated = nominal.nets[net_name]
            for sink, node in elaborated.sink_nodes.items():
                sink_delays[sink] = delays[
                    :, offset + elaborated.tree.index_of(node)
                ]

        xg = model.cell_sigma * (
            math.sqrt(model.rho_cell) * z[:, 2:3]
            + math.sqrt(1.0 - model.rho_cell) * eps_cell
        )
        gate_factor = 1.0 + np.clip(xg, -clip, clip)
        gate_index = {name: i for i, name in enumerate(instances)}

        arrivals: Dict[Pin, np.ndarray] = {}
        for port in design.inputs:
            arrivals[Pin(Pin.PORT, port)] = np.full(
                samples, (input_arrivals or {}).get(port, 0.0)
            )
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
                stage_nominal = (
                    cell.intrinsic_delay
                    + cell.slew_impact * nominal.slew[pin]
                )
                t = arrivals[pin] + stage_nominal * factor
                best = t if best is None else np.maximum(best, t)
            arrivals[Pin(name, cell.output)] = best

        matrix = np.stack(
            [arrivals[Pin(Pin.PORT, port)] for port in design.outputs],
            axis=1,
        )
        return list(design.outputs), matrix


@dataclass(frozen=True)
class SSTAValidation:
    """Canonical-vs-Monte-Carlo cross-check of one design.

    ``outputs`` maps each primary output to
    ``(ssta_mean, ssta_sigma, mc_mean, mc_sigma)``; the ``max_*`` fields
    are the worst relative errors over all outputs.
    """

    outputs: Dict[str, Tuple[float, float, float, float]]
    max_mean_rel_err: float
    max_sigma_rel_err: float
    samples: int

    def within(self, mean_tol: float, sigma_tol: float) -> bool:
        """True when every output matches the oracle within tolerance."""
        return (self.max_mean_rel_err <= mean_tol
                and self.max_sigma_rel_err <= sigma_tol)


def validate_against_monte_carlo(
    design: Design,
    model: ProcessModel,
    report: Optional[SSTAReport] = None,
    samples: int = 4000,
    seed: int = 0,
    jobs: Optional[int] = None,
    backend: Optional[str] = None,
    **analyze_kwargs,
) -> SSTAValidation:
    """Cross-check :func:`analyze_ssta` against the Monte-Carlo oracle.

    The repo's gates hold the canonical mean within 1% and sigma within
    5% of the oracle on the test designs (see ``tests/sta/test_ssta.py``
    and ``benchmarks/bench_ssta.py``).
    """
    if report is None:
        report = analyze_ssta(design, model, **analyze_kwargs)
    oracle_kwargs = {
        key: value for key, value in analyze_kwargs.items()
        if key in ("input_arrivals", "input_slews", "wire_load",
                   "net_overrides")
    }
    ports, matrix = monte_carlo_arrivals(
        design, model, samples, seed=seed, jobs=jobs, backend=backend,
        nominal=report.nominal, **oracle_kwargs,
    )
    outputs: Dict[str, Tuple[float, float, float, float]] = {}
    worst_mean = 0.0
    worst_sigma = 0.0
    for j, port in enumerate(ports):
        form = report.outputs[port]
        mc_mean = float(matrix[:, j].mean())
        mc_sigma = float(matrix[:, j].std())
        outputs[port] = (form.mu, form.sigma, mc_mean, mc_sigma)
        mean_err = abs(form.mu - mc_mean) / max(abs(mc_mean), 1e-300)
        scale = mc_sigma if mc_sigma > 0.0 else max(abs(mc_mean), 1e-300)
        sigma_err = abs(form.sigma - mc_sigma) / scale
        worst_mean = max(worst_mean, mean_err)
        worst_sigma = max(worst_sigma, sigma_err)
    return SSTAValidation(
        outputs=outputs,
        max_mean_rel_err=worst_mean,
        max_sigma_rel_err=worst_sigma,
        samples=samples,
    )
