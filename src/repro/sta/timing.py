"""Static timing analysis over the Elmore metric (or any other).

Arrival times propagate level by level through the design's compiled
timing graph (:func:`~repro.sta.levels.levelize`, which the result keeps
for the slack pass and SSTA, and the design keeps for its next analysis
until it changes; see :func:`_compile`).  Each net's interconnect delay is
evaluated per sink from one batched forest sweep of the nets' RC trees
(sharded across workers on request) with a pluggable delay model:

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

import copy
import logging
import pickle
from collections.abc import ItemsView, Mapping, ValuesView
from dataclasses import astuple, dataclass, field
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro._exceptions import AnalysisError, MetricError, TimingGraphError
from repro.obs.metrics import counter as _counter
from repro.obs.trace import span as _span

_NETS_EVALUATED = _counter(
    "sta_nets_total", "Nets whose interconnect delays were evaluated"
)
_METRIC_FALLBACKS = _counter(
    "sta_metric_fallbacks_total",
    "Sinks whose moment-metric fit failed and fell back to Elmore",
)
from repro.circuit.rctree import RCTree
from repro.core.batch import batch_transfer_moments
from repro.parallel import (
    DEFAULT_MAX_SHARDS,
    LocalWorkspace,
    Shard,
    ShmError,
    ShmWorkspace,
    WorkspaceRegistry,
    attach_workspace,
    run_sharded,
    use_pool,
)
from repro.parallel.shm import publish_workspace, record_fallback
from repro.resilience.checkpoint import journal, tree_fingerprint

from repro.sta.interconnect import (
    ElaboratedNet,
    NetArrays,
    NetForest,
    NetGeometry,
    WireLoadModel,
    build_net,
    net_forest,
    net_geometry,
    net_record,
)
from repro.sta.levels import TimingLevels, levelize
from repro.sta.netlist import Design, Pin


logger = logging.getLogger(__name__)

#: Fewest nets one STA/SSTA shard holds.  Every shard pays its own
#: moment sweep (over its forest, laid out once per design version, or
#: on the pool once per worker attachment) and pool round trip, so a
#: design of ``total`` nets runs in ``total // NET_SHARD_FLOOR`` shards
#: (at least one, at most ``DEFAULT_MAX_SHARDS``) whose sizes differ by
#: one at most.
NET_SHARD_FLOOR = 160


def _net_plan(total: int) -> List[Shard]:
    """The net shard plan: a function of the net count alone, never of
    ``jobs``, so results and journals do not depend on the workers."""
    if not total:
        return []
    count = min(max(total // NET_SHARD_FLOOR, 1), DEFAULT_MAX_SHARDS)
    size, extra = divmod(total, count)  # the first ``extra`` get one more
    stops = [k * size + min(k, extra) for k in range(count + 1)]
    return [Shard(k, stops[k], stops[k + 1]) for k in range(count)]


__all__ = ["TimingResult", "PathElement", "analyze", "DELAY_MODELS"]


#: Available interconnect delay models for :func:`analyze`, each mapped
#: to the moment order its forest sweep runs at: 2 gives ``m1`` and the
#: slew dispersion ``mu2`` every model needs, the two-pole fit reads
#: ``m0..m3`` and the four-pole AWE fit ``m0..m7``.
DELAY_MODELS: Dict[str, int] = {
    "elmore": 2,
    "exact": 2,
    "ln2_elmore": 2,
    "lower_bound": 2,
    "lognormal": 2,
    "d2m": 2,
    "two_pole": 4,
    "awe4": 8,
}


#: In-process microseconds per evaluated sink of each delay model's
#: shard task (the forest sweep and the model's delay), the unit of the
#: STA/SSTA pool estimate (:func:`_estimate_ms`); when the task computes
#: SSTA coefficients each sink adds :data:`_COEFFICIENT_US`, and on a
#: design version's first analysis :data:`_LAYOUT_US` of net layout
#: (``benchmarks/results/parallel.txt``).
_SINK_US: Dict[str, float] = {
    "elmore": 0.3,
    "exact": 270.0,
    "ln2_elmore": 1.0,
    "lower_bound": 2.0,
    "lognormal": 9.0,
    "d2m": 9.0,
    "two_pole": 800.0,
    "awe4": 800.0,
}
_COEFFICIENT_US = 2.5
_LAYOUT_US = 5.0


def _estimate_ms(sinks: int, delay_model: str, process,
                 laid_out: bool) -> float:
    """Estimated in-process milliseconds of the net shard task over
    ``sinks`` sinks: the model's sweep, the coefficients when the task
    gets a ``process`` (not when the version's are cached, see
    :class:`_ProcessSlot`), and the layout unless the version is
    ``laid_out``."""
    per_sink = _SINK_US[delay_model]
    if process is not None:
        per_sink += _COEFFICIENT_US
    if not laid_out:
        per_sink += _LAYOUT_US
    return sinks * per_sink * 1e-3


def _exact_delays(net: NetArrays) -> List[float]:
    """The measured 50% step delay at each of the net's sinks."""
    from repro.analysis.responses import measure_delay
    from repro.analysis.state_space import ExactAnalysis

    analysis = ExactAnalysis(RCTree.from_arrays(*net[:5]))
    return [measure_delay(analysis, net.node_names[sink])
            for sink in net.sinks]


def _sweep_nets(forest: NetForest, delay_model: str) -> np.ndarray:
    """Wire delay, ``mu2`` and fit fallback of every sink through one
    forest sweep.

    ``forest`` is a shard's :func:`~repro.sta.interconnect.net_forest`,
    swept once at the moment order ``DELAY_MODELS[delay_model]``.
    Returns a ``(3, sinks)`` float64 array, net by net, each net's
    sinks in ``sink_pins()`` order:

    * row 0, the wire delay: the Elmore delay ``-m1``; for ``"exact"``
      the measured 50% delay of the net's pole/residue response; for a
      :data:`~repro.core.metrics.METRICS` key the metric over the sink's
      coefficient column;
    * row 1, the impulse-response variance ``mu2``;
    * row 2, ``1.0`` where the metric's fit failed and the sink kept
      its Elmore delay, else ``0.0``.

    Every per-node quantity of the batched sweeps depends only on that
    node's own tree (subtree folds and root-path prefixes never cross
    tree roots), so a sub-forest reproduces the whole-forest results
    bit for bit.
    """
    moments = batch_transfer_moments(forest.topology,
                                     DELAY_MODELS[delay_model])
    coefficients = moments.coefficients[:, 0, forest.sinks]
    m1 = coefficients[1]
    out = np.zeros((3, len(forest.sinks)))
    out[0] = -m1
    out[1] = np.maximum(2.0 * coefficients[2] - m1 * m1, 0.0)
    if delay_model == "exact":
        with _span("sta.exact_delays", nets=len(forest.offsets)):
            out[0] = [delay for net in forest.nets
                      for delay in _exact_delays(net)]
    elif delay_model != "elmore":
        from repro.core.metrics import METRICS
        from repro.core.moments import TransferMoments

        metric = METRICS[delay_model]
        columns = TransferMoments(None, coefficients)
        for j in range(len(forest.sinks)):
            try:
                out[0, j] = metric(columns, j)
            except (AnalysisError, MetricError):
                # Higher-order fits can fail on degenerate nets (complex
                # or unstable fitted poles); keep the certified Elmore
                # value rather than aborting the STA run.
                out[2, j] = 1.0
    return out


def _net_shard_task(payload):
    """Sweep one shard's laid-out forest (picklable task).

    The payload is ``(descriptor, index, delay_model, process)``: the
    workspace of the design version's net records, the shard's index, a
    key of :data:`DELAY_MODELS` and a
    :class:`~repro.sta.ssta.ProcessModel` or ``None``.  A worker lays
    shard ``index`` out from its pickled
    :func:`~repro.sta.interconnect.net_record` tuples (:func:`_publish`)
    with :func:`~repro.sta.interconnect.net_forest` once per attachment
    and keeps the forest in ``ws.cache``; a
    :class:`~repro.parallel.LocalWorkspace` arrives with every forest
    in its cache, laid out once per design version in the parent.
    :func:`_sweep_nets` sweeps the forest, and with a process
    ``process.net_columns`` reads the same forest.  So a descriptor goes
    in and the ``(3, sinks)`` array (with a process, also the nets' SSTA
    coefficients, each net's bits independent of which shard holds it)
    comes back.  No :class:`~repro.circuit.rctree.RCTree` is built
    except by the ``"exact"`` model, whose pole/residue analysis needs
    one per net.
    """
    descriptor, index, delay_model, process = payload
    ws = attach_workspace(descriptor)
    key = f"forest/{index}"
    forest = ws.cache.get(key)
    if forest is None:
        start, stop = ws.meta["bounds"][index:index + 2]
        forest = ws.cache[key] = net_forest(
            pickle.loads(ws.arrays["records"][start:stop]))
    values = _sweep_nets(forest, delay_model)
    if process is None:
        return values
    return (values, *process.net_columns(forest))


class _LazyNets(Mapping):
    """Read-only ``net name -> ElaboratedNet`` over recorded geometries.

    Each net's tree is built with :func:`build_net` on first access and
    cached; the shard task sweeps flat arrays, so a run pays for trees
    only when a consumer reads them.  ``geometries`` holds the recorded
    :class:`NetGeometry` per net, in design order, shared by every
    result of one design version (:class:`_NetPart`), as is
    :attr:`forest`; the trees are this result's own.
    """

    def __init__(self, part: "_NetPart") -> None:
        # Not the part itself: its published records go with it.
        self.geometries = part.geometries
        self._records = part.records
        self._forests = part.forests
        #: The part's :class:`_ProcessSlot`, which
        #: ``analyze_ssta(nominal=)`` reads and fills.
        self.process_slot = part.process_slot
        self._built: Dict[str, ElaboratedNet] = {}

    @property
    def forest(self) -> NetForest:
        """One forest of every net, the in-process analysis' own: laid
        out once per design version, and swept again by the ``nominal=``
        paths of :mod:`repro.sta.ssta`."""
        whole = [Shard(0, 0, len(self._records))]
        return _shard_forests(self._records, self._forests, whole)[0][0]

    def __getitem__(self, name: str) -> ElaboratedNet:
        net = self._built.get(name)
        if net is None:
            net = self._built[name] = build_net(self.geometries[name])
        return net

    def __contains__(self, name: object) -> bool:
        return name in self.geometries

    def __iter__(self) -> Iterator[str]:
        return iter(self.geometries)

    def __len__(self) -> int:
        return len(self.geometries)

    def __repr__(self) -> str:
        return f"<{len(self)} nets, {len(self._built)} built>"


class _PinValues(Mapping):
    """Read-only ``pin -> float`` over one row array of a result.

    ``pins`` are the keys in order, ``index`` maps each to its entry of
    ``values``.  Reads give the floats a ``dict(zip(pins,
    values.tolist()))`` holds, and the view equals that dict, without
    hashing every pin to build it; an unknown pin raises ``KeyError``.
    """

    def __init__(self, pins: Sequence[Pin], index: Dict[Pin, int],
                 values: np.ndarray) -> None:
        self._pins = pins
        self._index = index
        self._values = values

    def __getitem__(self, pin: Pin) -> float:
        return float(self._values[self._index[pin]])

    def __contains__(self, pin: object) -> bool:
        return pin in self._index

    def __iter__(self) -> Iterator[Pin]:
        return iter(self._pins)

    def __len__(self) -> int:
        return len(self._pins)

    def items(self) -> "_PinItems":
        return _PinItems(self)

    def values(self) -> "_PinFloats":
        return _PinFloats(self)

    def __repr__(self) -> str:
        return repr(dict(self.items()))


class _PinItems(ItemsView):
    """``(pin, float)`` pairs in one pass over the array."""

    def __iter__(self):
        view = self._mapping
        return zip(view._pins, view._values.tolist())


class _PinFloats(ValuesView):
    """The floats in one pass over the array."""

    def __iter__(self):
        return iter(self._mapping._values.tolist())


def _net_geometries(design: Design, wire_load, net_overrides
                    ) -> Dict[str, NetGeometry]:
    """Every net's routing inputs, in design order."""
    overrides = net_overrides or {}
    return {
        name: net_geometry(design, net, wire_load=wire_load,
                           override=overrides.get(name))
        for name, net in design.nets.items()
    }


class _ProcessSlot:
    """A design version's SSTA inputs under the last process model
    analysed on it.

    :func:`~repro.sta.ssta.analyze_ssta` keeps the inputs it derives
    from a :class:`~repro.sta.ssta.ProcessModel` here (:meth:`keep`)
    and reads them back for an equal model (:meth:`get`), so a warm
    analysis runs the nominal shard task without a ``process``.  The
    model is kept as a deep copy: a per-name sigma dict the caller
    mutates in place afterwards compares unequal and misses.  One slot
    per :class:`_NetPart` (none for ``net_overrides``), dropped with it.
    """

    __slots__ = ("_held",)

    def __init__(self) -> None:
        self._held: Optional[tuple] = None

    def get(self, model):
        """The inputs kept for a model equal to ``model``, or ``None``."""
        held = self._held
        if held is not None and held[0] == model:
            return held[1]
        return None

    def keep(self, model, inputs) -> None:
        """Hold ``inputs`` for ``model`` in place of what was held."""
        self._held = (copy.deepcopy(model), inputs)


class _ProcessPass(NamedTuple):
    """What the nominal pass gives the SSTA walk: the version's
    ``slot`` (``None`` when the call may not use it), the inputs it
    ``kept`` for the process model, and, when it kept none, the
    ``coefficients`` the shard tasks computed."""

    slot: Optional[_ProcessSlot]
    kept: object
    coefficients: Optional[tuple]


@dataclass(eq=False)
class _NetPart:
    """The net half of a compiled design, for one ``wire_load``.

    ``geometries`` is every net's :class:`NetGeometry` (in design
    order; shared, so never written to), ``records`` their
    :func:`~repro.sta.interconnect.net_record` tuples, ``pins`` every
    evaluated sink pin net by net (each net's ``sink_pins()``),
    ``index`` each pin's position in ``pins``, ``counts`` each net's
    sink count and ``rows`` the pins' rows in the design's levels.
    ``forests`` maps a shard count to each shard's
    :func:`~repro.sta.interconnect.net_forest`, laid out on the part's
    first in-process or serial analysis with that plan
    (:func:`_shard_forests`); the worker pool lays out the records the
    part publishes instead (:func:`_publish`).  ``process_slot`` holds
    the SSTA inputs of the last process model (``None`` on a part of a
    ``net_overrides`` call, which keeps none).
    """

    wire_load: Optional[WireLoadModel]
    geometries: Dict[str, NetGeometry]
    records: Tuple[tuple, ...]
    pins: Tuple[Pin, ...]
    index: Dict[Pin, int]
    counts: np.ndarray
    rows: np.ndarray
    forests: Dict[int, Tuple[NetForest, ...]] = field(default_factory=dict)
    process_slot: Optional[_ProcessSlot] = None


class _Compiled:
    """A design's compiled form, cached on it as ``design._compiled``.

    ``levels`` is the design's :func:`~repro.sta.levels.levelize` and
    ``nets`` the :class:`_NetPart` of the last ``wire_load`` analysed
    without ``net_overrides`` (``None`` until one is).  ``state`` is
    every instance's ``(cell, position)`` when ``levels`` was compiled.
    :func:`_compile` reuses the form while the design's mutators leave
    it in place (each of them drops it) and ``state`` still equals the
    design's.  Its part's published records are unlinked when the part
    is dropped with it or replaced (:func:`_publish`).
    """

    __slots__ = ("state", "levels", "nets")

    def __init__(self, state: list, levels: TimingLevels) -> None:
        self.state = state
        self.levels = levels
        self.nets: Optional[_NetPart] = None


def _compile(design: Design) -> Tuple[_Compiled, bool]:
    """The design's cached :class:`_Compiled` form and ``True``, or a
    fresh one (validated and levelised, cached on the design) and
    ``False``.  An instance's ``cell`` or ``position`` reassigned since
    the compile is seen here, by comparing every instance's pair."""
    state = [(inst.cell, inst.position)
             for inst in design.instances.values()]
    compiled = design._compiled
    if compiled is not None and compiled.state == state:
        return compiled, True
    compiled = _Compiled(state, levelize(design))
    design._compiled = compiled
    return compiled, False


def _net_part(design: Design, compiled: _Compiled, wire_load,
              net_overrides) -> Tuple[_NetPart, bool]:
    """The design's :class:`_NetPart` for ``wire_load`` and ``True``
    when ``compiled`` holds it, else a fresh one and ``False``.  A fresh
    part is kept on ``compiled`` unless ``net_overrides`` were given:
    their trees are the caller's, and may change between calls."""
    part = compiled.nets
    if not net_overrides and part is not None \
            and part.wire_load == wire_load:
        return part, True
    geometries = _net_geometries(design, wire_load, net_overrides)
    payload = list(geometries.values())
    records = tuple(net_record(geometry) for geometry in payload)
    sinks = [geometry.sink_pins() for geometry in payload]
    pins = tuple(pin for listed in sinks for pin in listed)
    counts = np.fromiter(map(len, sinks), np.intp, len(sinks))
    rows = np.fromiter(map(compiled.levels.index.__getitem__, pins),
                       np.intp, len(pins))
    counts.setflags(write=False)
    rows.setflags(write=False)
    part = _NetPart(wire_load, geometries, records, pins,
                    dict(zip(pins, range(len(pins)))), counts, rows)
    if not net_overrides:
        part.process_slot = _ProcessSlot()
        compiled.nets = part
    return part, False


def _shard_forests(records: Sequence[tuple],
                   cache: Dict[int, Tuple[NetForest, ...]],
                   shards: List[Shard]
                   ) -> Tuple[Tuple[NetForest, ...], bool]:
    """The forest of ``records`` in each of ``shards``, and ``True``
    when this call laid them out (once per ``cache``, a part's
    ``forests``, and shard count).  A net that cannot be laid out raises
    here, in the parent, the error its shard's
    :func:`~repro.sta.interconnect.net_forest` raises."""
    forests = cache.get(len(shards))
    if forests is not None:
        return forests, False
    forests = cache[len(shards)] = tuple(
        net_forest(records[shard.start:shard.stop]) for shard in shards)
    return forests, True


#: Each design version's published net records, by its :class:`_NetPart`.
_PUBLISHED = WorkspaceRegistry("sta")


def _publish(part: _NetPart, shards: List[Shard],
             keep: bool) -> Tuple[ShmWorkspace, bool]:
    """The shm workspace of ``part``'s records for the pool, and whether
    this call published it.

    The workspace holds the one block of :func:`_pickled_records`
    whatever the shard count.  With ``keep`` it is the part's, kept in
    :data:`_PUBLISHED` while the part lives; otherwise the caller
    closes it.  A failed publish leaves no segment and raises
    :class:`~repro.parallel.ShmError`.
    """
    def build():
        return _pickled_records(part.records, shards)

    if keep:
        return _PUBLISHED.workspace(part, build)
    return publish_workspace("sta", *build()), True


def _pickled_records(records: Sequence[tuple], shards: List[Shard]
                     ) -> Tuple[Dict[str, np.ndarray], Dict[str, list]]:
    """``records`` as the workspace :func:`_net_shard_task` lays shards
    out from: one ``records`` block, each shard's tuples pickled back to
    back, and the shards' byte offsets into it as ``bounds`` meta."""
    blobs = [pickle.dumps(records[shard.start:shard.stop],
                          protocol=pickle.HIGHEST_PROTOCOL)
             for shard in shards]
    bounds = np.cumsum([0] + [len(blob) for blob in blobs]).tolist()
    return {"records": np.frombuffer(b"".join(blobs), np.uint8)}, \
        {"bounds": bounds}


def _shm_fallback(part: _NetPart, exc: ShmError) -> None:
    """Count and log one shm-to-serial fallback; drop ``part``'s
    published records (a later analysis publishes them afresh)."""
    _PUBLISHED.discard(part)
    record_fallback("shm-unavailable")
    logger.warning("shm transport unavailable (%s); rerunning the net "
                   "shards serially", exc)


def _run_shards(part: _NetPart, shards: List[Shard],
                forests: Optional[Tuple[NetForest, ...]],
                workspace: Optional[ShmWorkspace], delay_model: str,
                process, sharded: bool, jobs, backend, checkpoint) -> list:
    """Every shard's :func:`_net_shard_task` result, in plan order.

    With a ``workspace`` (``part``'s published records) the tasks run on
    the pool; otherwise, or when the shm transport raises
    :class:`~repro.parallel.ShmError`, in process on a
    :class:`~repro.parallel.LocalWorkspace` holding the shards'
    ``forests`` (laid out here if not given), through
    :func:`~repro.parallel.run_sharded` when ``sharded``, else called
    directly.
    """
    def run(descriptor, run_backend):
        payloads = [(descriptor, k, delay_model, process)
                    for k in range(len(shards))]
        if not sharded:
            return [_net_shard_task(payload) for payload in payloads]
        return run_sharded(_net_shard_task, payloads, jobs=jobs,
                           label="sta.parallel_run", backend=run_backend,
                           checkpoint=checkpoint)

    if workspace is not None:
        try:
            return run(workspace.descriptor(), "shm")
        except ShmError as exc:
            _shm_fallback(part, exc)
    if forests is None:
        forests = _shard_forests(part.records, part.forests, shards)[0]
    local = LocalWorkspace()
    local.cache.update((f"forest/{k}", forest)
                       for k, forest in enumerate(forests))
    return run(local, "serial")


def _journal_key(geometry: NetGeometry) -> list:
    """A net's geometry as a checkpoint-fingerprint ingredient."""
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


def _precompute_nets(
    design: Design,
    compiled: _Compiled,
    delay_model: str,
    wire_load,
    net_overrides,
    jobs: Optional[int] = None,
    backend: Optional[str] = None,
    checkpoint_path: Optional[str] = None,
    resume: bool = False,
    process=None,
) -> Tuple[_LazyNets, Mapping[Pin, float], np.ndarray, np.ndarray,
           np.ndarray, Optional[_ProcessPass]]:
    """Evaluate every net of the design through batched forest sweeps.

    The parent reads each net's routing inputs into a
    :class:`NetGeometry` and its plain
    :func:`~repro.sta.interconnect.net_record`; each shard's records are
    laid out into one compiled forest
    (:func:`~repro.sta.interconnect.net_forest`) that
    :func:`_net_shard_task` sweeps.  All of it is the design's
    :class:`_NetPart`, cached on ``compiled`` and reused while the
    design and ``wire_load`` stay the same (see :func:`_net_part`).
    Calls with ``net_overrides`` lay their nets out afresh and keep
    nothing.  With ``jobs``, ``backend`` and ``checkpoint_path`` unset,
    or when :func:`~repro.parallel.use_pool` finds the estimated work
    (:func:`_estimate_ms`) too small for the pool and no journal is
    kept, the task runs in process on one shard of every net.
    Otherwise the nets split into the deterministic :func:`_net_plan`
    shards, fanned out through :mod:`repro.parallel` (``1`` = serial
    backend, ``>= 2`` = worker processes; a journaled run the rule keeps
    in process runs them on the serial backend) with bit-identical
    results.  In the parent the
    forests are laid out once per design version.  On the pool the
    records are published once per design version as one shared-memory
    block (an overrides call's for that call only), so only a
    descriptor and the shard index go to a worker, which lays its shard
    out once per attachment, and one ``(3, sinks)`` array per shard
    comes back.  Either way the parent builds a tree only when ``nets``
    is read.  Sinks whose metric fit
    fell back to Elmore are counted here, in the parent, under
    ``sta_metric_fallbacks_total``.  Returns
    ``(nets, wire_delay, values, sinks, counts, coefficients)``: the
    nets, the per-sink delay map, the :func:`_sweep_nets` rows of every
    sink (net by net in design order), their pin rows in the design's
    levels and each net's sink count.  A non-finite delay or variance
    raises :class:`AnalysisError` naming the first net that produced
    one.

    With a ``process`` (a :class:`~repro.sta.ssta.ProcessModel`) the
    last item is a :class:`_ProcessPass`.  When the part's
    :class:`_ProcessSlot` holds inputs for an equal model, the task
    runs without the ``process`` and the pass carries them; otherwise
    the same pass computes every net's SSTA coefficients as ``(a, l)``,
    ``process.net_columns`` over each shard's forest in the sinks'
    order, next to the sweep (:func:`_net_shard_task`).  A journaled
    call (``checkpoint_path``) or one with ``net_overrides`` neither
    reads nor fills the slot, so its pass has none.  Without a
    ``process`` the last item is ``None``.
    """
    with _span("sta.forest_precompute", nets=len(design.nets)) as sp:
        part, cached = _net_part(design, compiled, wire_load, net_overrides)
        sp.set_attribute("cached", cached)
        slot = part.process_slot if checkpoint_path is None else None
        kept = None
        if process is not None and slot is not None:
            kept = slot.get(process)
        # With the version's inputs kept, the task computes no
        # coefficients.
        task_process = process if kept is None else None
        geometries = part.geometries
        total = len(part.records)
        _NETS_EVALUATED.inc(total)
        sharded = not (jobs is None and backend is None
                       and checkpoint_path is None)
        shards, pool = _net_plan(total), None
        if sharded:
            pool = use_pool("sta.parallel_run",
                            _estimate_ms(len(part.pins), delay_model,
                                         task_process, cached),
                            jobs, backend, len(shards), sp)
            # Too small for the pool: a journal keeps its plan on the
            # serial backend, anything else runs as if ``jobs`` unset.
            sharded = not (pool is False and checkpoint_path is None)
        if sharded:
            sp.set_attribute("shards", len(shards))
        else:
            # In process, one shard of every net: one sweep of one forest.
            shards = [Shard(0, 0, total)]
        keep = not net_overrides
        workspace = forests = None
        with _span("sta.forest_publish", shards=len(shards)) as fp:
            if pool:
                try:
                    workspace, fresh = _publish(part, shards, keep)
                except ShmError as exc:
                    _shm_fallback(part, exc)
            if workspace is None:
                forests, fresh = _shard_forests(part.records, part.forests,
                                                shards)
            fp.set_attribute("cached", not fresh)
            published = 0
            if workspace is not None:
                specs = workspace.descriptor().arrays.values()
                fp.set_attribute("segments", len(specs))
                if fresh:
                    published = sum(spec.nbytes for spec in specs)
            fp.set_attribute("bytes", published)
        nets = _LazyNets(part)
        try:
            if not sharded:
                chunks = _run_shards(part, shards, forests, None,
                                     delay_model, task_process, False,
                                     jobs, backend, None)
            else:
                kind, extra = "sta.analyze", {}
                if process is not None:
                    kind, extra = "ssta.analyze", \
                        {"process": astuple(process)}
                with journal(
                    checkpoint_path, kind, shards, resume,
                    {"nets": total},
                    lambda: {"nets": [_journal_key(g)
                                      for g in geometries.values()],
                             "delay_model": delay_model, **extra},
                ) as checkpoint:
                    chunks = _run_shards(part, shards, forests, workspace,
                                         delay_model, task_process, True,
                                         jobs, backend, checkpoint)
        finally:
            if workspace is not None and not keep:
                workspace.close()
        if task_process is not None:
            columns = [chunk[1:] for chunk in chunks]
            chunks = [chunk[0] for chunk in chunks]
        values = np.concatenate(chunks, axis=1)
        fallbacks = int(values[2].sum())
        if fallbacks:
            # Counted here, not in the shard task: worker metric deltas
            # carry base series only, and the base series is the total.
            _METRIC_FALLBACKS.inc(fallbacks)
            _METRIC_FALLBACKS.labels(metric=delay_model).inc(fallbacks)
        pins, counts = part.pins, part.counts
        finite = np.isfinite(values).all(axis=0)
        if not finite.all():
            first = int(np.argmin(finite))
            net = list(geometries)[int(np.searchsorted(
                np.cumsum(counts), first, side="right"))]
            raise AnalysisError(
                f"net {net!r} has a non-finite {delay_model} delay or "
                f"variance at sink {pins[first]} (delay "
                f"{float(values[0, first])!r}, mu2 "
                f"{float(values[1, first])!r}); check its instance "
                "positions and wire parameters"
            )
        ssta = None
        if process is not None:
            coefficients = None
            if task_process is not None:
                coefficients = tuple(np.concatenate(block)
                                     for block in zip(*columns))
            ssta = _ProcessPass(slot, kept, coefficients)
        return (nets, _PinValues(pins, part.index, values[0]), values,
                part.rows, counts, ssta)


@dataclass(frozen=True)
class PathElement:
    """One hop of a timing path: a gate stage or a wire stage."""

    kind: str              # "gate" or "net"
    name: str              # instance or net name
    delay: float
    arrival: float         # arrival time at the element's output endpoint


class _Rows(NamedTuple):
    """The nominal walk by :class:`~repro.sta.levels.TimingLevels` row:
    ``delay`` is the hop into each pin from its ``pred`` row (wire delay
    at a net sink, winning stage at a gate output; ``pred`` is -1 at an
    input port); ``sinks``/``counts`` are the evaluated sinks' rows and
    each net's count, in ``wire_delay`` order."""

    arrival: np.ndarray
    slew: np.ndarray
    delay: np.ndarray
    pred: np.ndarray
    sinks: np.ndarray
    counts: np.ndarray


@dataclass
class TimingResult:
    """Output of :func:`analyze`.

    Attributes
    ----------
    arrival:
        Arrival time at every timing point.  Keys are pins (as
        :class:`~repro.sta.netlist.Pin`), including port pins, in the
        levels' row order.  Like ``slew`` and ``wire_delay``, a
        read-only mapping over the walk's row arrays, equal to the plain
        dict of the same items.
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
        that model.
    levels:
        The compiled timing graph walked, which the slack pass and SSTA
        walk again with this result's row arrays.
    """

    arrival: Mapping[Pin, float]
    slew: Mapping[Pin, float]
    critical_delay: float
    critical_output: str
    nets: Mapping[str, ElaboratedNet]
    delay_model: str
    wire_delay: Mapping[Pin, float]
    levels: TimingLevels = field(repr=False, compare=False)
    _rows: _Rows = field(repr=False, compare=False)

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
        levels, rows, row = self.levels, self._rows, self.levels.index[key]
        elements: List[PathElement] = []
        while rows.pred[row] >= 0:
            net = levels.net[row]
            kind, name = ("net", levels.nets[net][0]) if net >= 0 else \
                ("gate", levels.pins[row].instance)
            elements.append(PathElement(
                kind=kind, name=name, delay=float(rows.delay[row]),
                arrival=float(rows.arrival[row]),
            ))
            row = rows.pred[row]
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
        The gate-level design, validated and compiled through
        :func:`~repro.sta.levels.levelize` (one
        :meth:`~repro.sta.netlist.Design.timing_order`) once per design
        version: the compiled graph, the nets' geometries and records
        and each shard's laid-out net forest are cached on the design
        and reused by every later analysis until a
        :class:`~repro.sta.netlist.Design` mutator runs, an instance's
        ``cell`` or ``position`` is reassigned, or another ``wire_load``
        is given.  Calls with ``net_overrides`` read and lay out the
        nets afresh every time.
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
        Fan the per-net interconnect evaluation out through the sharded
        engine (:mod:`repro.parallel`; ``1`` = serial backend, ``>= 2``
        = at most that many worker processes), whatever the delay
        model.  ``jobs`` is an upper bound: an analysis whose estimated
        shard work (the sinks weighted by the delay model's cost, plus
        the SSTA coefficients and, on a design version's first
        analysis, the net layout) is below one pool round trip's worth
        (:func:`~repro.parallel.use_pool`) runs in process as without
        ``jobs`` (a journaled one keeps its shards, on the serial
        backend).  Arrival/slew results are bit-identical to the
        default in-process path.
    backend:
        Execution backend for the sharded path (``"serial"`` or
        ``"shm"``; default auto).  ``"shm"`` selects the warm worker
        pool for an analysis that does fan out: the design version's
        net records are published once as
        shared-memory blocks (unlinked when the version is dropped, and
        for at most :data:`~repro.parallel.shm.MAX_PUBLISHED_WORKSPACES`
        versions at once; a ``net_overrides`` call's only for that
        call), each shard ships a descriptor and its index, the worker
        lays its shard's nets out once per attachment and evaluates
        them in one sweep, and one ``(3, sinks)`` delay / variance /
        fallback array comes back.  Without ``jobs`` or ``backend`` the
        same shard task runs in process on each shard's forest, laid out
        once per design version.  Results stay
        bit-identical either way.
    checkpoint_path, resume:
        Crash-safe journaling of the forest fan-out's per-shard results
        (see :mod:`repro.resilience.checkpoint`; the delay model is part
        of the journal's fingerprint).  ``resume=True`` skips shards an
        interrupted run already journaled.
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
) -> Tuple[TimingResult, Optional[_ProcessPass]]:
    """:func:`analyze` plus, with a ``process``, the
    :class:`_ProcessPass` of :func:`_precompute_nets`: the version's
    kept SSTA inputs, or the coefficients it computed in the same
    pass."""
    if delay_model not in DELAY_MODELS:
        raise TimingGraphError(
            f"unknown delay model {delay_model!r}; "
            f"choose from {sorted(DELAY_MODELS)}"
        )
    with _span("sta.analyze", model=delay_model) as sp:
        with _span("sta.levelize", instances=len(design.instances)) as lp:
            compiled, cached = _compile(design)
            lp.set_attribute("cached", cached)
        levels = compiled.levels
        if not design.outputs:
            raise TimingGraphError("design has no primary outputs")
        # Delay and dispersion don't depend on arrivals, so the whole
        # netlist's interconnect is evaluated in batched forest sweeps
        # (one per shard, in process or across workers when jobs is
        # given) before arrival propagation begins.
        nets, wire_delay, values, sinks, counts, ssta = \
            _precompute_nets(design, compiled, delay_model, wire_load,
                             net_overrides, jobs=jobs, backend=backend,
                             checkpoint_path=checkpoint_path, resume=resume,
                             process=process)
        rows = _walk(levels, values, sinks, counts, input_arrivals or {},
                     input_slews or {})
        arrival = rows.arrival[levels.outputs]
        worst = int(np.argmax(arrival))  # the first of equal maxima
        sp.set_attribute("nets", len(nets))
        return TimingResult(
            arrival=_PinValues(levels.pins, levels.index, rows.arrival),
            slew=_PinValues(levels.pins, levels.index, rows.slew),
            critical_delay=float(arrival[worst]),
            critical_output=design.outputs[worst],
            nets=nets,
            delay_model=delay_model,
            wire_delay=wire_delay,
            levels=levels,
            _rows=rows,
        ), ssta


def _walk(levels: TimingLevels, values: np.ndarray, sinks: np.ndarray,
          counts: np.ndarray, input_arrivals: Dict[str, float],
          input_slews: Dict[str, float]) -> _Rows:
    """Arrivals and slews over :func:`_precompute_nets`' sweep rows.

    Per level, each gate takes the first strictly largest ``arrival +
    stage`` over its inputs in cell-pin order (a left fold per fan-in
    slot), then the nets' sinks get driver + wire delay in one gather
    and add.  Sink slews take Python's (libm's) ``** 0.5``, not
    ``np.sqrt``, whose rounding differs on some inputs.
    """
    arrival, slew, delay, mu2 = np.zeros((4, len(levels.pins)))
    delay[sinks], mu2[sinks] = values[0], values[1]
    pred = levels.driver.copy()
    ports = [levels.pins[p].pin for p in levels.ports]
    arrival[levels.ports] = [input_arrivals.get(p, 0.0) for p in ports]
    slew[levels.ports] = [input_slews.get(p, 0.0) for p in ports]
    for level in levels.levels:
        if level.gates:
            inputs, starts = level.inputs, level.starts
            stage = level.intrinsic + level.slew_impact * slew[inputs]
            t = arrival[inputs] + stage
            pick = starts.copy()
            for i in range(1, int(level.fanin[0])):
                n = int(np.count_nonzero(level.fanin > i))
                later = t[starts[:n] + i] > t[pick[:n]]
                pick[:n][later] = starts[:n][later] + i
            outputs = level.outputs
            arrival[outputs] = t[pick]
            slew[outputs] = level.output_slew
            delay[outputs] = stage[pick]
            pred[outputs] = inputs[pick]
        net_sinks, drivers = level.sinks, level.drivers
        arrival[net_sinks] = arrival[drivers] + delay[net_sinks]
        # mu_2 adds under convolution: sigma_out^2 = sigma_in^2 + mu_2.
        slew[net_sinks] = [
            (s ** 2 + m) ** 0.5
            for s, m in zip(slew[drivers].tolist(), mu2[net_sinks].tolist())
        ]
    return _Rows(arrival, slew, delay, pred, sinks, counts)
