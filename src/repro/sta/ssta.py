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
  so its gradients (``dT/dR_k = Cdown(k)`` on the sink's root path,
  ``dT/dC_k`` the path resistance the sink and ``k`` share) are exact
  first-order coefficients; :meth:`ProcessModel.net_columns` computes
  them for every sink of a whole shard of nets at once, over flat
  per-node arrays of the shard's compiled forest, each net's bits
  independent of the shard; gate stages scale their nominal delay by
  the cell-speed variation.

* **Exact label compression** — a net's per-element residuals form an
  ``S x K`` matrix ``G`` (sinks by RC elements).  Every later form holds
  them only as ``v^T G``, so the ``S x S`` factor ``L`` of ``G = L Q``
  replaces them with the same covariances: sink ``s`` of net ``n``
  carries the private labels ``net:n.q0 .. net:n.qs``
  (:func:`_forest_coefficients`).  The nominal STA shard task computes
  these coefficients next to its sweep, over the shard forest it
  sweeps, so no run builds an RC tree for them.  A design version keeps
  them, with the walk's label columns and wire rows (:class:`_Inputs`),
  for the last process model analysed on it
  (:class:`~repro.sta.timing._Version`); an analysis under an equal
  model reuses them and its shard task computes none.

* **Propagation** — the nominal forest walk of :mod:`repro.sta.timing`
  runs first (batched forest sweeps, sharded/warm-pool capable) and
  gives every sink's ``wire_delay`` (the form means) and nominal slew.
  The statistical walk then runs on the levelised timing graph
  (:func:`repro.sta.levels.levelize`).  Every residual source is an
  integer column, allocated level by level, with one label namespace
  per source kind (:class:`_Columns`), so reconvergent fanout keeps its
  common-path correlation exactly and no two sources can share a label.
  Per level, the candidates ``arrival + stage`` of every gate input are
  one dense block over the columns their rows hold; Clark's
  moment-matched max is folded once per fan-in slot for all the
  level's gates at once (:func:`_clark_fold`, the same tie, deficit and
  rescale rules as :func:`~repro.core.canonical.canonical_max`); the
  gate outputs keep only their nonzero entries (:class:`_RowStore`,
  sized once per walk from a bound on the compiled levels); and the
  level's net sinks are driver + wire in one gather and add.
  The outputs are folded left to right in ``design.outputs`` order.
  ``SSTAReport.arrival`` builds each pin's
  :class:`~repro.core.canonical.CanonicalForm` on first access, and
  ``SSTAReport.outputs`` reads the output ports' forms from it.

* **Validation** — :func:`monte_carlo_arrivals` replays the identical
  correlated draws through the batched Elmore engine ((B, N) forest
  sweeps, shm warm pool capable) and propagates arrivals on the same
  levelised graph, one add and one max per level over a (pins, B)
  matrix; :func:`validate_against_monte_carlo` reports per-output
  mean/sigma errors.  The repo gates mean within 1% and sigma within 5%
  of the oracle on its test designs.

The per-pin/per-path criticality probabilities, yield curve and sigma
corners are surfaced through :class:`SSTAReport`.
"""

from __future__ import annotations

import copy
import functools
import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from repro._exceptions import AnalysisError, TimingGraphError
from repro.core.batch import batch_elmore_delays
from repro.core.canonical import (
    TIE_EPSILON,
    CanonicalForm,
    canonical_max_many,
    clark_moments,
)
from repro.core.variation import (
    VariationModel,
    _attached_topology,
    _sweep_on_workspace,
)
from repro.obs.metrics import counter as _counter
from repro.obs.trace import span as _span
from repro.parallel import plan_shards, resolve_backend, use_pool
from repro.sta.interconnect import NetForest
from repro.sta.levels import TimingLevels
from repro.sta.netlist import Design, Pin
from repro.sta.slack import output_requirements
from repro.sta.timing import TimingResult, _analyze_traced, _RowView, analyze

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

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

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

#: In-process nanoseconds per row and node of a batched Elmore sweep of
#: pre-drawn rows, the unit of :func:`_sweep_rows`' pool estimate
#: (``benchmarks/results/parallel.txt``).
_ROWS_NS = 20.0


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

    def net_columns(self, forest: NetForest) -> Tuple[np.ndarray, np.ndarray]:
        """SSTA coefficients of every sink of ``forest``, in one pass.

        ``forest`` is a shard's
        :func:`~repro.sta.interconnect.net_forest` (the shard task
        sweeps it and reads it for this).  Returns ``(a, l)``:
        ``a`` stacks each net's ``(S, 3)`` global coefficients and ``l``
        concatenates each net's packed residual factor
        (:func:`_forest_coefficients`).  Each net's part depends on that
        net alone, bit for bit, whatever else the forest holds.
        """
        with _span("ssta.coefficients", nets=len(forest.offsets)):
            return _forest_coefficients(forest, self)


# ---------------------------------------------------------------------------
# Canonical form extraction
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _lower_triangle(size: int) -> Tuple[np.ndarray, np.ndarray]:
    return np.tril_indices(size)


def _forest_coefficients(
    forest: NetForest, model: ProcessModel,
) -> Tuple[np.ndarray, np.ndarray]:
    """Every net's SSTA coefficients from the nets' compiled forest.

    For a net with ``S`` sinks and ``N`` elements, the first-order delay
    change of sink ``s`` is ``sum_e gr[s, e] x_e + sum_k gc[s, k] y_k``
    over the elements' relative R and C variations.  These are the
    gradients of the Elmore delay: ``gr = dT/dR * R * sr`` with
    ``dT/dR_e = Cdown(e)`` on the sink's root path (0 off it), and
    ``gc = dT/dC * C * sc`` with ``dT/dC_k`` the path resistance the
    sink and ``k`` share.  Each variation splits by ``rho`` into the
    shared variable and a private residual, which gives the ``(S, 3)``
    global coefficients ``a`` and the ``(S, 2N)`` residual matrix
    ``G = [sqrt(1 - rho_r) gr, sqrt(1 - rho_c) gc]``.

    Every later form holds a net's residuals only as ``v^T G`` (adds
    pass them through, Clark's max interpolates them), so ``G`` can be
    replaced by the ``S x S`` lower-triangular ``L`` of ``G = L Q``
    (``Q`` with orthonormal rows, from the QR of ``G^T``): every
    covariance ``v^T G G^T w = v^T L L^T w`` is unchanged.  Returns
    ``(a, l)`` with ``l`` the rows of each ``L`` packed, row ``s``
    holding its ``s + 1`` coefficients on the net's labels ``q0 .. qs``.

    All nets are handled at once over flat arrays: the forest's nodes,
    and every net's ``(sink, node)`` pairs laid out row by row.  Each
    value takes the same operations in the same order as a one-net
    walk, so a net's bits do not depend on the other nets: path
    resistance is one add per node (the forest's root-path sweep),
    ``Cdown`` adds each node's children in decreasing index (one
    unbuffered ``np.add.at`` per depth level, deepest first), the
    root-path mask and the shared resistance (a max over the node's
    ancestors) are exact, each row of ``gr``/``gc`` is summed on its
    own, and the QR runs once per net.
    """
    from scipy.linalg import lapack

    topology, offsets = forest.topology, forest.offsets
    parents = topology.parents
    res = topology.resistances
    cap = topology.capacitances
    path_res = topology.rootpath_sums(res)
    cdown = cap.copy()
    for level, above in zip(topology.levels[:0:-1],
                            topology.level_parents[:0:-1]):
        np.add.at(cdown, above[::-1], cdown[level[::-1]])

    # One row per sink, one pair per (sink, node of its net): pair
    # ``base[row] + node`` for the node's forest index.
    sinks = forest.counts
    sizes = np.diff([*offsets, topology.num_nodes]).tolist()
    sink_node = forest.sinks
    width = np.repeat(np.array(sizes, dtype=np.intp), sinks)
    row_start = np.cumsum(width) - width
    total = int(width.sum())
    base = row_start - np.repeat(np.array(offsets, dtype=np.intp), sinks)
    node = np.arange(total) - np.repeat(base, width)
    on_path = np.zeros(total, dtype=bool)
    at, up = base, sink_node
    while len(up):
        on_path[at + up] = True
        up = parents[up]
        keep = up >= 0
        at, up = at[keep], up[keep]
    # dT/dC: the largest masked path resistance over the node and its
    # ancestors, by pointer doubling (``hop`` jumps to the pair of an
    # ancestor; a root's jumps land on the 0.0 sentinel at ``total``).
    d_c = np.append(on_path * path_res[node], 0.0)
    above = parents[node]
    hop = np.append(np.where(above >= 0, np.arange(total) + above - node,
                             total), total)
    reach = 1
    while reach < topology.depth:
        np.maximum(d_c, d_c[hop], out=d_c)
        hop = hop[hop]
        reach *= 2
    d_c = d_c[:total]

    sr, sc = forest.sigma_arrays(model.variation)
    sr, sc = sr[node], sc[node]
    gr = on_path * cdown[node] * res[node] * sr
    gc = d_c * cap[node] * sc

    a = np.zeros((len(width), len(PROCESS_VARIABLES)))
    for size in set(sizes):
        rows = np.flatnonzero(width == size)
        cells = (row_start[rows, None] + np.arange(size)).ravel()
        a[rows, 0] = gr[cells].reshape(-1, size).sum(axis=1)
        a[rows, 1] = gc[cells].reshape(-1, size).sum(axis=1)
    a[:, 0] *= math.sqrt(model.rho_r)
    a[:, 1] *= math.sqrt(model.rho_c)

    # Each row of G is [its gr row, its gc row].
    g = np.empty(2 * total)
    spot = np.arange(total) + np.repeat(row_start, width)
    g[spot] = math.sqrt(1.0 - model.rho_r) * gr
    g[spot + np.repeat(width, width)] = math.sqrt(1.0 - model.rho_c) * gc
    packed = []
    start = 0
    for size, n in zip(sinks, sizes):
        stop = start + 2 * n * size
        g_t = g[start:stop].reshape(size, 2 * n).T
        start = stop
        if 2 * n < size:  # more sinks than labels: pad G with zeros
            g_t = np.vstack([g_t, np.zeros((size - 2 * n, size))])
        r = lapack.dgeqrf(g_t)[0]  # R = L^T in the upper triangle
        packed.append(r.T[_lower_triangle(size)])
    return a, np.concatenate(packed)


class _RowStore:
    """Every pin's residual coefficients, stored compactly.

    A pin's own entries (a gate output's interpolated row, or a net
    sink's wire labels) are one slice of the ``cols``/``vals`` buffers,
    exact zeros left out.  A net sink's full residual is its driver's
    entries followed by its own, so a driver's row is stored once
    however many sinks read it.  A store starts as a copy of the
    version's wire entries (:class:`_Inputs`), with room for
    ``capacity`` entries in all, sized once for the whole walk.
    """

    def __init__(self, inputs: "_Inputs", driver: np.ndarray) -> None:
        self.driver = driver
        self.start = inputs.start.copy()
        self.count = inputs.count.copy()
        self.size = len(inputs.cols)
        # np.empty: the tail the walk never writes is never touched.
        self.cols = np.empty(inputs.capacity, dtype=np.intp)
        self.vals = np.empty(inputs.capacity)
        self.cols[:self.size] = inputs.cols
        self.vals[:self.size] = inputs.vals

    def put(self, rows: np.ndarray, counts: np.ndarray, cols: np.ndarray,
            vals: np.ndarray) -> None:
        """Append the entries of ``rows`` (``counts[i]`` each, in row
        order) as those pins' own entries."""
        end = self.size + len(cols)
        self.cols[self.size:end] = cols
        self.vals[self.size:end] = vals
        self.start[rows] = self.size + np.cumsum(counts) - counts
        self.count[rows] = counts
        self.size = end

    def trim(self) -> None:
        """Release the buffers' unused tail once the walk is done, in
        place (no view of them is held yet)."""
        self.cols.resize(self.size, refcheck=False)
        self.vals.resize(self.size, refcheck=False)

    def gather(self, pins: np.ndarray
               ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(owner, cols, vals)``: the own entries of ``pins``,
        ``owner[e]`` the position in ``pins`` entry ``e`` belongs to."""
        counts = self.count[pins]
        index = np.arange(counts.sum()) + np.repeat(
            self.start[pins] - np.cumsum(counts) + counts, counts)
        return (np.repeat(np.arange(len(pins)), counts), self.cols[index],
                self.vals[index])

    def entries(self, pin: int) -> Tuple[np.ndarray, np.ndarray]:
        """One pin's residual ``(cols, vals)``: driver's, then own."""
        parts = [pin] if self.driver[pin] < 0 else [self.driver[pin], pin]
        spans = [slice(self.start[p], self.start[p] + self.count[p])
                 for p in parts]
        return (np.concatenate([self.cols[s] for s in spans]),
                np.concatenate([self.vals[s] for s in spans]))


def _drivers(driver: np.ndarray, pins: np.ndarray
             ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """``(drivers, pick)`` of net sinks ``pins``: their distinct driver
    rows, and the position in ``drivers`` of each pin's driver; when no
    two pins share a driver, every pin's driver in order and ``None``
    (a :class:`_Block` then reads each driver's entries into its pin's
    own row, with no copy of the rows)."""
    held, pick = np.unique(driver[pins], return_inverse=True)
    if len(held) == len(pins):
        return driver[pins], None
    return held, pick


@dataclass(frozen=True)
class _Columns:
    """The integer column of every residual source of one walk.

    Columns 0-2 are the shared variables (:data:`PROCESS_VARIABLES`);
    the rest are allocated level by level: each level's cell labels,
    then its Clark labels, then the wire labels of the nets it drives,
    and last the output fold's Clark labels.  ``labels[c]`` names column
    ``c``.  Each source kind has its own namespace, so no two sources
    share a label whatever the net and instance names:

    * ``net:{net}.q{j}`` — wire residual ``j`` of a net;
    * ``cell:{instance}`` — a gate's cell-speed residual;
    * ``max:{instance}#{i}`` — the Clark step folding a gate's input
      ``i``;
    * ``max.outputs#{j}`` — the Clark step folding output ``j``.
    """

    labels: np.ndarray
    net_q0: Dict[str, int]
    level_tail: List[int]
    outputs_tail: int


def _columns(levels: TimingLevels, net_sizes: Dict[str, int],
             cell_resid: bool) -> _Columns:
    labels: List[Optional[str]] = [None] * len(PROCESS_VARIABLES)
    net_q0: Dict[str, int] = {}
    level_tail: List[int] = []
    by_level: List[List[str]] = [[] for _ in levels.levels]
    for name, level in levels.nets:
        by_level[level].append(name)
    for level, nets in zip(levels.levels, by_level):
        level_tail.append(len(labels))
        if cell_resid:
            labels += [f"cell:{name}" for name in level.gates]
        labels += [f"max:{name}#{i}"
                   for name, fanin in zip(level.gates, level.fanin.tolist())
                   for i in range(1, fanin)]
        for name in nets:
            net_q0[name] = len(labels)
            labels += [f"net:{name}.q{j}" for j in range(net_sizes[name])]
    outputs_tail = len(labels)
    labels += [f"max.outputs#{j}" for j in range(1, len(levels.outputs))]
    return _Columns(np.array(labels, dtype=object), net_q0, level_tail,
                    outputs_tail)


class _LevelIndex(NamedTuple):
    """Index arrays of one gate level that depend on the compiled
    levels alone: the :func:`_drivers` of its gate inputs, and each
    input's fan-in slot in its gate."""

    drivers: np.ndarray
    pick: Optional[np.ndarray]
    slot: np.ndarray


@dataclass(frozen=True)
class _Inputs:
    """A design version's SSTA inputs under one process model.

    ``coefficients`` is every net's ``(a, l)``
    (:meth:`ProcessModel.net_columns`), ``columns`` the walk's label
    columns, ``start``/``count``/``cols``/``vals`` the wire entries of
    a :class:`_RowStore` (net sinks only) and ``wire_a`` the wire
    globals, both by pin row.  ``capacity`` bounds the entries a walk
    stores (:func:`_capacity`); ``index`` holds each level's
    :class:`_LevelIndex` (``None`` for a level without gates) and
    ``outputs`` the outputs' :func:`_drivers`.  The design version
    (:class:`~repro.sta.timing._Version`) shares them between
    reports, so every array is read-only; each report stores its rows
    in a :class:`_RowStore` of its own.
    """

    coefficients: Tuple[np.ndarray, np.ndarray]
    columns: _Columns
    start: np.ndarray
    count: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    wire_a: np.ndarray
    capacity: int
    index: List[Optional[_LevelIndex]]
    outputs: Tuple[np.ndarray, Optional[np.ndarray]]

    def __post_init__(self) -> None:
        arrays = [*self.coefficients, self.columns.labels, self.start,
                  self.count, self.cols, self.vals, self.wire_a,
                  *self.outputs]
        for index in self.index:
            arrays += index or ()
        for array in arrays:
            if array is not None:
                array.setflags(write=False)


def _inputs(nominal: TimingResult, coefficients: tuple,
            model: ProcessModel) -> _Inputs:
    """Columns, wire rows and index arrays of one walk.

    ``coefficients`` is ``(a, l)`` (:meth:`ProcessModel.net_columns`)
    over the nominal result's evaluated sinks, net by net in its
    version's ``rows`` order.  Sink ``s`` of net ``n`` carries residual
    columns ``net_q0[n] + 0 .. s`` with the packed row ``s`` of the net's
    ``L``; its globals are ``wire_a``, by pin row.  The wire means are
    the nominal walk's own ``_rows.delay``, not an input.
    """
    a, l = coefficients
    levels = nominal.levels
    version = nominal._version
    pins, counts, names = version.rows, version.counts, list(version.names)
    cell_resid = model.cell_sigma > 0.0 and model.rho_cell < 1.0
    columns = _columns(levels, dict(zip(names, counts.tolist())),
                       cell_resid)
    num_pins = len(levels.pins)
    width = np.arange(len(pins)) + 1 - np.repeat(np.cumsum(counts) - counts,
                                                 counts)
    q0 = np.repeat([columns.net_q0[name] for name in names], counts)
    first = np.cumsum(width) - width
    cols = np.arange(len(l)) + np.repeat(q0 - first, width)
    keep = l != 0.0
    own = np.add.reduceat(keep, first, dtype=np.intp)
    start = np.zeros(num_pins, dtype=np.intp)
    count = np.zeros(num_pins, dtype=np.intp)
    start[pins] = np.cumsum(own) - own
    count[pins] = own
    wire_a = np.zeros((num_pins, len(PROCESS_VARIABLES)))
    wire_a[pins] = a
    index = [
        _LevelIndex(*_drivers(levels.driver, level.inputs),
                    np.arange(len(level.inputs))
                    - level.starts[level.owner])
        if level.gates else None for level in levels.levels
    ]
    return _Inputs(
        coefficients, columns, start, count, cols[keep], l[keep], wire_a,
        int(keep.sum()) + _capacity(levels, columns, count, cell_resid),
        index,
        _drivers(levels.driver, levels.outputs),
    )


def _capacity(levels: TimingLevels, columns: _Columns, count: np.ndarray,
              cell_resid: bool) -> int:
    """An upper bound on the entries one walk stores for gate outputs,
    from the compiled levels and each net sink's wire entry ``count``.

    A gate output's row holds at most the residual columns of its
    inputs' rows, none allocated from its level's first
    (``level_tail``) on, plus its own cell and Clark labels; a net
    sink's full row is its driver's plus its own wire entries.
    """
    full = np.zeros(len(count), dtype=np.intp)
    total = 0
    for level, tail0 in zip(levels.levels, columns.level_tail):
        if level.gates:
            held = np.add.reduceat(full[level.inputs], level.starts)
            own = np.minimum(held, tail0 - len(PROCESS_VARIABLES)) \
                + level.fanin - 1 + int(cell_resid)
            full[level.outputs] = own
            total += int(own.sum())
        full[level.sinks] = full[level.drivers] + count[level.sinks]
    return total


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------


@dataclass
class SSTAReport:
    """Output of :func:`analyze_ssta` — arrivals as distributions.

    Attributes
    ----------
    arrival:
        Canonical arrival form at every timing point (pins, incl.
        ports): a read-only mapping that builds each form on first
        access.
    outputs:
        Arrival form per primary output port: a read-only mapping over
        ``arrival``, in ``design.outputs`` order.
    critical:
        Clark max over all primary-output arrivals — the design's delay
        distribution (yield curve = its CDF).
    criticality:
        Per primary output: probability that it is the critical one.
    pin_criticality:
        Per pin: probability that the pin lies on the critical path
        (input-port criticalities sum to ~1).  A read-only mapping over
        the backward walk's row array, in the levels' row order, equal
        to the plain dict of the same items.
    nominal:
        The deterministic :class:`~repro.sta.timing.TimingResult` the
        statistical walk mirrored (means shift only through ``max``).
    model:
        The :class:`ProcessModel` analyzed.
    """

    arrival: Mapping[Pin, CanonicalForm]
    outputs: Mapping[str, CanonicalForm]
    critical: CanonicalForm
    criticality: Dict[str, float]
    pin_criticality: Mapping[Pin, float]
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
        return dict(zip(self.outputs, output_requirements(
            list(self.outputs), required)))

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


def _clark(mu_x, var_x, mu_y, var_y, cov, ndtr):
    """:func:`~repro.core.canonical.canonical_max`'s moments, row-wise.

    Returns ``(tightness, mean, var, tie)``.  Tie rows (``X - Y``
    deterministic up to :data:`TIE_EPSILON`) get tightness 1 or 0, so
    interpolating with it picks the larger-mean operand exactly.
    ``ndtr`` is :func:`scipy.special.ndtr`, which the caller binds once
    per walk.
    """
    theta = np.sqrt(np.maximum(var_x + var_y - 2.0 * cov, 0.0))
    tie = theta <= TIE_EPSILON * np.sqrt(np.maximum(var_x, var_y))
    alpha = (mu_x - mu_y) / np.where(tie, 1.0, theta)
    t = np.where(tie, (mu_x >= mu_y).astype(np.float64), ndtr(alpha))
    pdf = np.where(tie, 0.0, _INV_SQRT_2PI * np.exp(-0.5 * alpha * alpha))
    mean = mu_x * t + mu_y * (1.0 - t) + theta * pdf
    second = ((mu_x * mu_x + var_x) * t + (mu_y * mu_y + var_y) * (1.0 - t)
              + (mu_x + mu_y) * theta * pdf)
    return t, mean, np.maximum(second - mean * mean, 0.0), tie


def _rowdot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", x, y)


def _clark_fold(block: np.ndarray, mu: np.ndarray, starts: np.ndarray,
                fanin: np.ndarray, fresh: int, ndtr
                ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Left-fold Clark max of each group of rows, all groups at once.

    Group ``g`` is rows ``starts[g] .. starts[g] + fanin[g] - 1`` of
    ``block`` (dense coefficients) and ``mu``; ``fanin`` must be
    non-increasing, so slot ``i`` is a prefix of the groups.  The fresh
    label of group ``g``'s step ``i`` is column
    ``fresh + starts[g] - g + i - 1``.  Returns ``(rows, mu, weights)``:
    each group's max and its tightness-chain weights (row ``g``, columns
    ``0 .. fanin[g] - 1``), normalised as in
    :func:`~repro.core.canonical.canonical_max_many`.  ``ndtr`` is
    passed on to :func:`_clark`.
    """
    out = block[starts]
    out_mu = mu[starts]
    weights = np.zeros((len(starts), int(fanin[0])))
    weights[:, 0] = 1.0
    for i in range(1, weights.shape[1]):
        n = int(np.count_nonzero(fanin > i))
        x = out[:n]
        y = block[starts[:n] + i]
        mu_y = mu[starts[:n] + i]
        t, mean, var, tie = _clark(out_mu[:n], _rowdot(x, x), mu_y,
                                   _rowdot(y, y), _rowdot(x, y), ndtr)
        x *= t[:, None]
        x += (1.0 - t)[:, None] * y
        var_linear = _rowdot(x, x)
        deficit = var - var_linear
        grow = np.flatnonzero(~tie & (deficit > 0.0))
        x[grow, fresh + starts[grow] - grow + i - 1] = np.sqrt(deficit[grow])
        # Rare: the interpolated linear part overshoots Clark's
        # variance; rescale it so the total still matches exactly.
        shrink = ~tie & (deficit < 0.0) & (var_linear > 0.0)
        if shrink.any():
            x[shrink] *= np.sqrt(var[shrink] / var_linear[shrink])[:, None]
        out_mu[:n] = mean
        weights[:n, :i] *= t[:, None]
        weights[:n, i] = 1.0 - t
    total = weights.sum(axis=1)
    np.divide(weights, total[:, None], out=weights,
              where=total[:, None] > 0.0)
    return out, out_mu, weights


class _Block:
    """Dense coefficients of some net sinks over the columns they use.

    Columns are the shared variables, then the residual columns any of
    the rows holds (ascending), then ``tail`` columns ``tail0 ..``
    private to the caller (cell and Clark labels), which no row holds
    yet; ``self.tail`` is the first of those.  ``drivers`` is the
    sinks' :func:`_drivers`: each distinct driver's entries are read
    and placed once, and each sink's row is its driver's plus its own
    wire entries, whose columns no driver holds.
    """

    def __init__(self, rows: _RowStore, a: np.ndarray, pins: np.ndarray,
                 drivers: Tuple[np.ndarray, Optional[np.ndarray]],
                 tail0: int, tail: int, scratch: np.ndarray) -> None:
        held, pick = drivers
        held_owner, held_cols, held_vals = rows.gather(held)
        owner, cols, vals = rows.gather(pins)
        scratch[held_cols] = 1
        scratch[cols] = 1
        used = np.flatnonzero(scratch)
        self.tail = len(PROCESS_VARIABLES) + len(used)
        scratch[used] = np.arange(len(PROCESS_VARIABLES), self.tail)
        dense = np.zeros((len(held), self.tail + tail))
        dense[held_owner, scratch[held_cols]] = held_vals
        self.coef = dense if pick is None else dense[pick]
        self.coef[:, :len(PROCESS_VARIABLES)] = a[pins]
        self.coef[owner, scratch[cols]] = vals
        scratch[used] = 0
        self.columns = np.concatenate([used, np.arange(tail0, tail0 + tail)])

    def compact(self, rows: np.ndarray
                ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(counts, cols, vals)``: the nonzero residual entries of the
        dense ``rows``, row by row, as global columns."""
        resid = rows[:, len(PROCESS_VARIABLES):]
        keep = resid != 0.0
        flat = keep.ravel()
        return (np.count_nonzero(keep, axis=1),
                np.compress(flat, np.broadcast_to(self.columns, keep.shape)),
                np.compress(flat, resid))


def _walk(model: ProcessModel, nominal: TimingResult,
          input_arrivals: Optional[Dict[str, float]], inputs: _Inputs,
          rows: _RowStore
          ) -> Tuple[np.ndarray, np.ndarray, List[Optional[np.ndarray]]]:
    """The forward statistical walk, one level at a time.

    Per level: every gate input's candidate ``arrival + stage`` as one
    dense block (span ``ssta.gather``), Clark's max folded per fan-in
    slot across the level (:func:`_clark_fold`, span ``ssta.fold``), the
    gate outputs stored compactly (``ssta.store``), then the level's
    net sinks as driver + wire in one gather and add (``ssta.sinks``),
    on the nominal result's levels with its wire delays and slews.
    Returns ``(mu, a, weights)``: every pin's mean and shared
    coefficients, and each level's fan-in weights (row per gate, in the
    level's order; ``None`` for level 0, which has no gates).
    """
    from scipy.special import ndtr

    levels = nominal.levels
    columns, wire_a = inputs.columns, inputs.wire_a
    wire_mu, slew = nominal._rows.delay, nominal._rows.slew
    num_pins = len(levels.pins)
    mu = np.zeros(num_pins)
    a = np.zeros((num_pins, len(PROCESS_VARIABLES)))
    arrivals = input_arrivals or {}
    mu[levels.ports] = [arrivals.get(levels.pins[p].pin, 0.0)
                        for p in levels.ports]
    scratch = np.zeros(len(columns.labels), dtype=np.intp)
    cell_sigma = model.cell_sigma
    cell_resid = cell_sigma > 0.0 and model.rho_cell < 1.0
    all_weights: List[Optional[np.ndarray]] = []
    for k, (level, tail0, index) in enumerate(zip(
            levels.levels, columns.level_tail, inputs.index)):
        weights = None
        if level.gates:
            gate_inputs = level.inputs
            gates = len(level.gates)
            with _span("ssta.gather", level=k, inputs=len(gate_inputs)):
                stage = level.intrinsic + level.slew_impact * slew[
                    gate_inputs]
                cells = gates if cell_resid else 0
                block = _Block(rows, a, gate_inputs,
                               (index.drivers, index.pick), tail0,
                               cells + len(gate_inputs) - gates, scratch)
                coef = block.coef
                if cell_sigma > 0.0:
                    scale = cell_sigma * stage
                    _FORMS.inc(int(np.count_nonzero(scale)))
                    coef[:, 2] += math.sqrt(model.rho_cell) * scale
                    if cell_resid:
                        coef[np.arange(len(gate_inputs)),
                             block.tail + level.owner] = (
                            math.sqrt(1.0 - model.rho_cell) * scale)
            with _span("ssta.fold", level=k, gates=gates):
                out, out_mu, weights = _clark_fold(
                    coef, mu[gate_inputs] + stage, level.starts,
                    level.fanin, block.tail + cells, ndtr)
            _MAX_OPS.inc(len(gate_inputs) - gates)
            with _span("ssta.store", level=k, gates=gates):
                mu[level.outputs] = out_mu
                a[level.outputs] = out[:, :len(PROCESS_VARIABLES)]
                rows.put(level.outputs, *block.compact(out))
        all_weights.append(weights)
        with _span("ssta.sinks", level=k, sinks=len(level.sinks)):
            mu[level.sinks] = mu[level.drivers] + wire_mu[level.sinks]
            a[level.sinks] = a[level.drivers] + wire_a[level.sinks]
    return mu, a, all_weights


def _output_fold(levels: TimingLevels, inputs: _Inputs, rows: _RowStore,
                 mu: np.ndarray, a: np.ndarray
                 ) -> Tuple[CanonicalForm, List[float]]:
    """Clark max over the outputs with each output's criticality.

    A left fold in ``design.outputs`` order (Clark's max is not
    associative), so one running row against one output row per step,
    with the scalar :func:`~repro.core.canonical.clark_moments`.
    """
    outputs, columns = levels.outputs, inputs.columns
    block = _Block(rows, a, outputs, inputs.outputs, columns.outputs_tail,
                   len(outputs) - 1,
                   np.zeros(len(columns.labels), dtype=np.intp))
    coef = block.coef
    out_mu = mu[outputs].tolist()
    out_var = _rowdot(coef, coef).tolist()
    row = coef[0].copy()
    row_mu = out_mu[0]
    weights = np.zeros(len(outputs))
    weights[0] = 1.0
    for j in range(1, len(outputs)):
        y = coef[j]
        t, row_mu, var, tie = clark_moments(
            row_mu, float(row @ row), out_mu[j], out_var[j], float(row @ y))
        if tie:
            if t == 0.0:
                row = y.copy()
        else:
            row *= t
            row += (1.0 - t) * y
            var_linear = float(row @ row)
            deficit = var - var_linear
            if deficit > 0.0:
                row[block.tail + j - 1] = math.sqrt(deficit)
            elif var_linear > 0.0 and deficit < 0.0:
                row *= math.sqrt(var / var_linear) if var > 0.0 else 0.0
        weights[:j] *= t
        weights[j] = 1.0 - t
    if len(outputs) > 1:
        _MAX_OPS.inc(len(outputs) - 1)
    total = weights.sum()
    if total > 0.0:
        weights /= total
    _, cols, vals = block.compact(row[None, :])
    critical = CanonicalForm(
        row_mu, row[:len(PROCESS_VARIABLES)].copy(),
        dict(zip(columns.labels[cols].tolist(), vals.tolist())),
    )
    return critical, weights.tolist()


def _form(mu: np.ndarray, a: np.ndarray, rows: _RowStore,
          labels: np.ndarray, row: int) -> CanonicalForm:
    """Pin ``row``'s arrival form, with its labels (see
    :func:`_columns`)."""
    cols, vals = rows.entries(row)
    return CanonicalForm(float(mu[row]), a[row].copy(),
                         dict(zip(labels[cols].tolist(), vals.tolist())))


def _backward(levels: TimingLevels, inputs: _Inputs,
              out_weights: List[float],
              weights: List[Optional[np.ndarray]]) -> np.ndarray:
    """Pin criticality: walk the levels in reverse; a net funnels its
    sinks' criticality back to its driver, a gate splits its output
    pin's over its fan-in by the Clark tightness weights.
    Disjoint-event approximation (Visweswariah)."""
    crit = np.zeros(len(levels.pins))
    crit[levels.outputs] = out_weights
    for level, index, w in zip(reversed(levels.levels),
                               reversed(inputs.index), reversed(weights)):
        np.add.at(crit, level.drivers, crit[level.sinks])
        if level.gates:
            owner = level.owner
            crit[level.inputs] = crit[level.outputs][owner] * w[owner,
                                                                index.slot]
    return crit


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
    are forwarded to it, so the interconnect evaluation shards across
    workers / the shm warm pool and journals exactly like ``repro sta``:
    ``jobs`` is an upper bound, and a design whose estimated shard work
    with the coefficients is too small for the pool
    (:func:`~repro.parallel.use_pool`) is evaluated in process), and
    the same pass returns every net's SSTA
    coefficients (computed in the shard task, next to its sweep).  The
    statistical walk then mirrors the deterministic one, a level of the
    timing graph at a time (see the module docstring): gate-input
    stages use the *nominal* slews (slew dispersion is a second-order
    effect on the stage delay), interconnect delays carry the full
    first-order variation, and every fan-in competes through Clark's
    max.  ``report.arrival`` builds each pin's form on first access.
    Pass a precomputed ``nominal`` result (``"elmore"`` model) of
    ``design`` to skip the deterministic pass: the walk runs on its
    levels (:meth:`~repro.sta.levels.TimingLevels.check`), and the
    coefficients come from the design version's forest of every net
    (laid out once per version), fed to the same
    :meth:`ProcessModel.net_columns`, so no RC tree is built and the
    report is bit-identical.

    A design version keeps the SSTA inputs of the last process model it
    was analysed under: the coefficients, the label columns and the
    wire rows.  A later call on the same version with an equal
    ``model`` (compared with ``==`` against a deep copy, so a per-name
    sigma dict mutated in place is another model) reuses them, and its
    nominal pass runs without the coefficients; ``nominal=`` reuses the
    inputs its result's version kept.  They go with the version (a
    :class:`~repro.sta.netlist.Design` mutator, a reassigned instance
    ``cell`` or ``position``, another ``wire_load``) and are replaced by
    the next model's.  Calls with ``net_overrides`` or a
    ``checkpoint_path`` neither read nor keep them, so a journal's bytes
    and its resume do not depend on earlier calls.  The kept arrays are
    shared by every report, hence read-only; each report stores its
    rows in buffers of its own.
    """
    if not isinstance(model, ProcessModel):
        raise AnalysisError(
            "analyze_ssta needs a ProcessModel (wrap your VariationModel)"
        )
    with _span("ssta.analyze", nets=len(design.nets)) as sp:
        if not design.outputs:
            raise TimingGraphError("design has no primary outputs")
        coefficients = None
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
            nominal.levels.check(design)

        levels, version = nominal.levels, nominal._version
        inputs = version.kept(model) if checkpoint_path is None else None
        if inputs is None and coefficients is None:
            coefficients = model.net_columns(version.forest())
        with _span("ssta.extract", nets=len(nominal.nets),
                   cached=inputs is not None):
            if inputs is None:
                inputs = _inputs(nominal, coefficients, model)
                if checkpoint_path is None and not version.overrides:
                    version.process = (copy.deepcopy(model), inputs)
            rows = _RowStore(inputs, levels.driver)
        _FORMS.inc(len(version.rows))
        with _span("ssta.walk", levels=len(levels.levels)):
            mu, a, weights = _walk(model, nominal, input_arrivals, inputs,
                                   rows)
        with _span("ssta.max", outputs=len(levels.outputs)):
            critical, out_weights = _output_fold(levels, inputs, rows,
                                                 mu, a)
        rows.trim()
        arrival = _RowView(levels.index, functools.partial(
            _form, mu, a, rows, inputs.columns.labels), memo=True)
        pins = [levels.pins[row] for row in levels.outputs]
        outputs = _RowView({pin.pin: pin for pin in pins},
                           arrival.__getitem__)
        criticality = dict(zip(outputs, out_weights))
        pin_criticality = _RowView(
            levels.index, _backward(levels, inputs, out_weights, weights))

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
    span,
) -> np.ndarray:
    """Batched Elmore delays for explicit (B, N) parameter rows.

    One in-process call by default; with ``jobs``/``backend`` the rows
    shard across the parallel engine — on the warm pool, when the rule
    of :func:`~repro.parallel.use_pool` gives it ``B x N`` (recorded on
    ``span``), the compiled forest and both parameter blocks are
    published as shm blocks and workers write into a shared output
    block (zero pickled arrays); otherwise the same shards run in
    process.
    """
    if jobs is None and resolve_backend(backend) is None:
        return batch_elmore_delays(topology, res, cap)
    shards = plan_shards(res.shape[0])
    label = "ssta.parallel_run"
    pool = use_pool(label, res.size * _ROWS_NS * 1e-6, jobs, backend,
                    len(shards), span)
    return _sweep_on_workspace(
        _rows_shard_task,
        topology,
        {"res": res, "cap": cap},
        shards,
        pool,
        jobs=jobs,
        backend=backend,
        label=label,
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
    ``jobs``/``backend`` are given) over the design version's forest of
    every net (laid out once per version; no RC tree is built), and
    propagates per-sample arrivals with vectorized max/add using the
    nominal slews — exactly the semantics the canonical walk
    linearizes.

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
        if nominal is None:
            nominal = analyze(
                design, "elmore", input_arrivals=input_arrivals,
                input_slews=input_slews, wire_load=wire_load,
                net_overrides=net_overrides,
            )
        levels = nominal.levels
        levels.check(design)
        forest = nominal._version.forest()
        topology = forest.topology
        n_forest = int(topology.num_nodes)
        sp.set_attribute("forest_nodes", n_forest)
        sr_all, sc_all = forest.sigma_arrays(model.variation)

        instances = list(design.instances)
        rng = np.random.default_rng(seed)
        # Draw order (stable contract): shared Z block, then the R/C
        # element residuals, then the per-gate residuals.
        z = rng.standard_normal((samples, 3))
        eps = rng.standard_normal((samples, 2, n_forest))
        eps_cell = rng.standard_normal((samples, len(instances)))
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
        delays = _sweep_rows(topology, res_rows, cap_rows, jobs, backend,
                             sp)

        # Pin-major (pins, B) arrivals, one level at a time.
        wire = delays.T
        wire_row = np.zeros(len(levels.pins), dtype=np.intp)
        wire_row[nominal._version.rows] = forest.sinks

        xg = model.cell_sigma * (
            math.sqrt(model.rho_cell) * z[:, 2:3]
            + math.sqrt(1.0 - model.rho_cell) * eps_cell
        )
        gate_factor = (1.0 + np.clip(xg, -clip, clip)).T
        gate_index = {name: i for i, name in enumerate(instances)}
        slew = nominal._rows.slew

        arrivals = np.empty((len(levels.pins), samples))
        for p in levels.ports:
            arrivals[p] = (input_arrivals or {}).get(levels.pins[p].pin,
                                                     0.0)
        for level in levels.levels:
            if level.gates:
                stage = level.intrinsic + level.slew_impact * slew[
                    level.inputs]
                factor = gate_factor[[gate_index[g] for g in level.gates]]
                t = arrivals[level.inputs] + (stage[:, None]
                                              * factor[level.owner])
                arrivals[level.outputs] = np.maximum.reduceat(
                    t, level.starts, axis=0)
            arrivals[level.sinks] = (arrivals[level.drivers]
                                     + wire[wire_row[level.sinks]])
        matrix = np.ascontiguousarray(arrivals[levels.outputs].T)
        return [levels.pins[row].pin for row in levels.outputs], matrix


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
