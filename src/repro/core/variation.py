"""Process variation on the Elmore delay: analytic mean/variance (SSTA).

Because the Elmore delay is *bilinear* in the element values,

    T_D_i = sum_e R_e * Cdown_i(e) = sum_k R_ki * C_k,

its statistics under independent elementwise variation have closed forms.
With ``R_e = R_e0 (1 + x_e)`` and ``C_k = C_k0 (1 + y_k)`` for independent
zero-mean relative variations ``x_e`` (std ``sr_e``) and ``y_k``
(std ``sc_k``):

* ``E[T_D] = T_D0 + sum_{e,k} a_ek E[x_e y_k]``; with independent R and C
  the cross term vanishes, so **the mean is the nominal value** (no
  systematic shift — a property specific to bilinear metrics);
* first-order variance from the exact sensitivities of
  :mod:`repro.core.sensitivity`:

      Var = sum_e (dT/dR_e * R_e0 * sr_e)^2
          + sum_k (dT/dC_k * C_k0 * sc_k)^2
          + sum_{e,k} a_ek^2 sr_e^2 sc_k^2        (exact bilinear term)

  where ``a_ek = R_e0 C_k0 [e on path(i) \\cap path(k)]``.  The last term
  makes the variance *exact* (not just first-order) for independent
  relative variations, again thanks to bilinearity.

A seeded Monte-Carlo reference (:func:`monte_carlo_elmore`) validates the
closed forms and supports arbitrary distributions.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple, Union

import numpy as np

from repro._exceptions import AnalysisError, TopologyError, ValidationError
from repro.circuit.rctree import RCTree
from repro.core.batch import (
    batch_elmore_delays,
    compile_topology,
    topology_from_arrays,
    topology_to_arrays,
)
from repro.core.elmore import elmore_delays
from repro.obs.metrics import counter as _counter
from repro.obs.trace import span as _span
from repro.core.sensitivity import elmore_sensitivity
from repro.parallel import (
    LocalWorkspace,
    Shard,
    ShmError,
    ShmWorkspace,
    WorkspaceRegistry,
    attach_workspace,
    plan_shards,
    resolve_backend,
    run_sharded,
    spawn_shard_seeds,
    use_pool,
)
from repro.parallel.shm import record_fallback
from repro.resilience.checkpoint import journal, tree_fingerprint

logger = logging.getLogger(__name__)

_SAMPLES_DRAWN = _counter(
    "variation_samples_total",
    "Monte-Carlo parameter samples drawn for variation sweeps",
)

#: In-process nanoseconds per sample and node of a Monte-Carlo shard
#: (draw and Elmore sweep), the unit of its :func:`~repro.parallel.use_pool`
#: estimate (``benchmarks/results/parallel.txt``).
_MC_NS = 50.0

__all__ = [
    "VariationModel",
    "DelayStatistics",
    "elmore_statistics",
    "monte_carlo_elmore",
    "monte_carlo_delay_matrix",
    "sample_parameter_batch",
]


@dataclass(frozen=True)
class VariationModel:
    """Independent relative element variations.

    Parameters
    ----------
    resistance_sigma:
        Relative standard deviation of every edge resistance (>= 0), or a
        per-node-name map via ``resistance_sigmas``.
    capacitance_sigma:
        Relative standard deviation of every node capacitance (>= 0).
    resistance_sigmas, capacitance_sigmas:
        Optional per-element overrides keyed by node name.
    """

    resistance_sigma: float = 0.0
    capacitance_sigma: float = 0.0
    resistance_sigmas: Optional[Dict[str, float]] = None
    capacitance_sigmas: Optional[Dict[str, float]] = None

    def __post_init__(self) -> None:
        # Finiteness first: a NaN sigma slides through every ``< 0``
        # comparison and then poisons the whole (B, N) parameter batch,
        # so the sweep returns NaN bounds with no error anywhere.
        if not np.isfinite(self.resistance_sigma) or \
                not np.isfinite(self.capacitance_sigma):
            raise ValidationError("variation sigmas must be finite")
        if self.resistance_sigma < 0 or self.capacitance_sigma < 0:
            raise ValidationError("variation sigmas must be >= 0")
        for mapping in (self.resistance_sigmas, self.capacitance_sigmas):
            if mapping:
                for name, value in mapping.items():
                    if not np.isfinite(value):
                        raise ValidationError(
                            f"variation sigma for {name!r} must be finite"
                        )
                    if value < 0:
                        raise ValidationError(
                            f"variation sigma for {name!r} must be >= 0"
                        )

    def sigma_arrays(
        self, tree: Union[RCTree, Sequence[str]]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-node ``(sr, sc)`` relative-sigma arrays in index order.

        ``tree`` is an :class:`RCTree` or, for a tree held as flat
        arrays, its node names in index order.  An override naming a
        node the tree lacks raises :class:`TopologyError`.
        """
        n = tree.num_nodes if isinstance(tree, RCTree) else len(tree)
        sr = np.full(n, self.resistance_sigma, dtype=np.float64)
        sc = np.full(n, self.capacitance_sigma, dtype=np.float64)
        if self.resistance_sigmas or self.capacitance_sigmas:
            index_of = (tree.index_of if isinstance(tree, RCTree)
                        else _name_index(tree))
            for name, value in (self.resistance_sigmas or {}).items():
                sr[index_of(name)] = value
            for name, value in (self.capacitance_sigmas or {}).items():
                sc[index_of(name)] = value
        return sr, sc


def _name_index(names: Sequence[str]) -> Callable[[str], int]:
    """``index_of`` over a list of node names (unknown: TopologyError)."""
    index = dict(zip(names, range(len(names))))

    def index_of(name: str) -> int:
        try:
            return index[name]
        except KeyError:
            raise TopologyError(f"unknown node {name!r}") from None

    return index_of


@dataclass(frozen=True)
class DelayStatistics:
    """Analytic statistics of one node's Elmore delay under variation.

    ``std_first_order`` excludes the bilinear cross term; ``std`` includes
    it (exact for independent relative variations).
    """

    node: str
    mean: float
    std: float
    std_first_order: float

    def quantile_bound(self, z: float) -> float:
        """``mean + z * std`` — e.g. ``z = 3`` for a 3-sigma corner of the
        *bound* (still an upper bound in distribution for the true delay,
        since every sample's Elmore value bounds that sample's delay)."""
        return self.mean + z * self.std


def elmore_statistics(
    tree: RCTree,
    node: str,
    model: VariationModel,
) -> DelayStatistics:
    """Closed-form mean/std of ``T_D(node)`` under ``model``.

    O(N) on top of one sensitivity evaluation.
    """
    with _span("variation.analytic_stats", node=node):
        return _elmore_statistics(tree, node, model)


def _elmore_statistics(
    tree: RCTree,
    node: str,
    model: VariationModel,
) -> DelayStatistics:
    sens = elmore_sensitivity(tree, node)
    res = tree.resistances
    cap = tree.capacitances
    sr, sc = model.sigma_arrays(tree)

    nominal = float(elmore_delays(tree)[tree.index_of(node)])
    # First-order terms: (dT/dR_e R_e sr_e)^2 + (dT/dC_k R_ki C_k... ).
    var_r = float(np.sum((sens.dR * res * sr) ** 2))
    var_c = float(np.sum((sens.dC * cap * sc) ** 2))
    # Exact bilinear cross term: sum over (path edge e, node k) pairs of
    # (R_e C_k [shared])^2 sr_e^2 sc_k^2.  For each path edge e the set of
    # k with e on the shared path is exactly subtree(e), so:
    #   cross = sum_{e in path} (R_e sr_e)^2 * sum_{k in subtree(e)}
    #           (C_k sc_k)^2
    # computed with one subtree accumulation of (C sc)^2.
    csq = (cap * sc) ** 2
    parent = tree.parents
    csq_down = csq.copy()
    for i in range(tree.num_nodes - 1, -1, -1):
        p = parent[i]
        if p >= 0:
            csq_down[p] += csq_down[i]
    on_path = sens.dR > 0.0
    cross = float(
        np.sum(((res * sr) ** 2 * csq_down)[on_path])
    )
    std_first = float(np.sqrt(var_r + var_c))
    std_exact = float(np.sqrt(var_r + var_c + cross))
    return DelayStatistics(
        node=node, mean=nominal, std=std_exact,
        std_first_order=std_first,
    )


def _draw_rows(
    rng: np.random.Generator,
    count: int,
    res: np.ndarray,
    cap: np.ndarray,
    sr: np.ndarray,
    sc: np.ndarray,
    clip: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """``count`` rows of ``(R, C)`` drawn from ``rng`` around the nominal
    ``res``/``cap``: per row, N resistance normals then N capacitance
    normals, scaled by the relative sigmas and clipped at ``+-clip``.

    The ``(count, 2, N)`` block of standard normals is turned into the
    rows in place (scale, clip, add 1, times the nominal), so the two
    returned ``(count, N)`` arrays are views of it."""
    draws = rng.standard_normal((count, 2, res.shape[0]))
    draws *= np.stack((sr, sc))
    np.clip(draws, -clip, clip, out=draws)
    draws += 1.0
    draws *= np.stack((res, cap))
    return draws[:, 0, :], draws[:, 1, :]


def sample_parameter_batch(
    tree: RCTree,
    model: VariationModel,
    samples: int,
    seed: int = 0,
    clip: float = 0.99,
) -> Tuple[np.ndarray, np.ndarray]:
    """Draw ``(R, C)`` matrices of shape ``(samples, N)`` under ``model``.

    Gaussian relative variations, clipped at ``+-clip`` to keep elements
    physical.  These are the rows :func:`monte_carlo_delay_matrix`
    evaluates for the same ``seed``: shard *k* of
    ``plan_shards(samples)`` fills its rows from child *k* of
    ``spawn_shard_seeds(seed, ...)``, so ``batch_elmore_delays`` over
    them equals the sharded matrix bit for bit.
    """
    if samples < 1:
        raise AnalysisError("need at least one sample")
    _SAMPLES_DRAWN.inc(samples)
    with _span("variation.sample_batch", samples=samples,
               N=tree.num_nodes):
        sr, sc = model.sigma_arrays(tree)
        res0, cap0 = tree.resistances, tree.capacitances
        res = np.empty((samples, tree.num_nodes))
        cap = np.empty((samples, tree.num_nodes))
        shards = plan_shards(samples)
        seeds = spawn_shard_seeds(seed, len(shards))
        for shard in shards:
            rows = slice(shard.start, shard.stop)
            res[rows], cap[rows] = _draw_rows(
                np.random.default_rng(seeds[shard.index]), shard.size,
                res0, cap0, sr, sc, clip,
            )
        return res, cap


def _attached_topology(descriptor):
    """Attach a shard's workspace and return ``(workspace, topology)``.

    A shm worker rebuilds the compiled topology from the published
    ``topo/`` blocks once per attachment (warm workers cache it); a
    :class:`~repro.parallel.LocalWorkspace` arrives with it pre-seeded.
    """
    ws = attach_workspace(descriptor)
    if "topology" not in ws.cache:
        ws.cache["topology"] = topology_from_arrays(
            {k[5:]: v for k, v in ws.arrays.items() if k[:5] == "topo/"},
            ws.meta["topology"],
        )
    return ws, ws.cache["topology"]


def _mc_shard_task(payload) -> int:
    """Evaluate one Monte-Carlo shard: draw its spawned stream, sweep.

    The payload is ``(descriptor, start, stop, clip, seed_sequence)`` —
    no arrays.  The task attaches the workspace (zero-copy shm views, or
    the parent's own arrays on the serial path), draws the shard's
    ``(stop - start)`` samples, and writes their Elmore delays straight
    into rows ``start:stop`` of the ``out`` block.  Returns the row
    count as a cheap acknowledgement.
    """
    descriptor, start, stop, clip, seedseq = payload
    ws, topology = _attached_topology(descriptor)
    res, cap = _draw_rows(
        np.random.default_rng(seedseq), stop - start,
        topology.resistances, topology.capacitances,
        ws.arrays["sr"], ws.arrays["sc"], clip,
    )
    ws.arrays["out"][start:stop] = batch_elmore_delays(topology, res, cap)
    return stop - start


#: Workspaces holding published topology blocks, one per compiled
#: topology, unlinked when the topology is collected (and beyond the
#: registry's cap, least recently swept first).
_TOPOLOGY_WORKSPACES = WorkspaceRegistry("mc")


def _topology_workspace(topology) -> ShmWorkspace:
    """The (cached) workspace publishing ``topology``'s compiled arrays.

    The topology blocks are published once per compiled topology and
    reused across sweeps — this is the warm half of the shm transport:
    repeat sweeps ship only dirty parameter blocks.
    """
    def build():
        arrays, meta = topology_to_arrays(topology)
        return {f"topo/{k}": v for k, v in arrays.items()}, \
            {"topology": meta}

    return _TOPOLOGY_WORKSPACES.workspace(topology, build)[0]


def _sweep_on_workspace(
    task,
    topology,
    inputs: Dict[str, np.ndarray],
    shards: Sequence[Shard],
    pool: Optional[bool],
    extras: Optional[Sequence[tuple]] = None,
    jobs: Optional[int] = None,
    backend: Optional[str] = None,
    label: str = "parallel.run",
    timeout: Optional[float] = None,
    retries: int = 1,
    checkpoint=None,
    width: Optional[int] = None,
) -> np.ndarray:
    """Run a descriptor-shaped shard ``task`` and return its ``out`` rows.

    The workspace holds ``topology``, the ``inputs`` blocks and a
    ``(rows, width)`` float64 ``out`` block (``width`` defaults to the
    node count N); shard ``i`` gets the payload
    ``(descriptor, start, stop, *extras[i])`` and must fill
    ``out[start:stop]``.  When ``pool``, the caller's
    :func:`~repro.parallel.use_pool` answer, is ``True`` the workspace
    is ``topology``'s cached shm workspace, served by the warm pool
    (with ``backend="shm"`` and one worker, ``pool`` is ``None`` and
    that transport runs in process); otherwise — or when the shm
    transport raises :class:`~repro.parallel.ShmError`, which is
    counted by ``parallel_shm_fallback_total`` — the same plan runs in
    process on the serial backend against a
    :class:`~repro.parallel.LocalWorkspace`.  Either way the rows are
    bit-identical.

    A ``checkpoint`` journals each shard's ``out`` rows (the task itself
    only acks a row count), so a journal resumes on either workspace.
    """
    backend = resolve_backend(backend)
    rows = shards[-1].stop
    extras = extras if extras is not None else [()] * len(shards)
    spans = [(shard.start, shard.stop) for shard in shards]
    # The ``out`` block of the attempt in flight; the journal codec
    # reads (and, on resume, writes) whichever workspace that is.
    current: Dict[str, np.ndarray] = {}
    if checkpoint is not None:
        def _encode(index: int, _ack) -> np.ndarray:
            start, stop = spans[index]
            return np.array(current["out"][start:stop], copy=True)

        def _restore(index: int, stored) -> int:
            start, stop = spans[index]
            current["out"][start:stop] = stored
            return stop - start

        checkpoint.set_codec(_encode, _restore)

    def _run(workspace, run_backend: str) -> np.ndarray:
        for key, array in inputs.items():
            workspace.put(key, array)
        current["out"] = workspace.allocate(
            "out", (rows, int(width or topology.num_nodes))
        )
        descriptor = workspace.descriptor()
        run_sharded(
            task,
            [(descriptor, start, stop, *extra)
             for (start, stop), extra in zip(spans, extras)],
            jobs=jobs,
            timeout=timeout,
            retries=retries,
            label=label,
            backend=run_backend,
            checkpoint=checkpoint,
        )
        return np.array(current["out"], copy=True)

    if pool or (pool is None and backend == "shm"):
        try:
            return _run(_topology_workspace(topology), "shm")
        except ShmError as exc:
            record_fallback("shm-unavailable")
            logger.warning(
                "shm transport unavailable (%s); rerunning serially", exc,
            )
    local = LocalWorkspace()
    local.cache["topology"] = topology
    return _run(local, "serial")


def monte_carlo_delay_matrix(
    tree: RCTree,
    model: VariationModel,
    samples: int,
    seed: int = 0,
    clip: float = 0.99,
    jobs: Optional[int] = None,
    shard_size: Optional[int] = None,
    timeout: Optional[float] = None,
    retries: int = 1,
    backend: Optional[str] = None,
    checkpoint_path: Optional[str] = None,
    resume: bool = False,
) -> np.ndarray:
    """Sharded Monte-Carlo Elmore delays for **all** nodes, ``(B, N)``.

    The sample block is partitioned into shards whose count depends only
    on ``samples`` (never on ``jobs``), and each shard draws its own
    ``SeedSequence.spawn`` child stream — so the result is bit-identical
    for any worker count and any ``backend``, including the serial
    backend (``jobs`` in ``(None, 1)``).  The rows are those of
    :func:`sample_parameter_batch` for the same seed.

    ``jobs`` is an upper bound on workers: an op whose estimated work
    (samples x nodes) is too small for the pool
    (:func:`~repro.parallel.use_pool`) runs the same shards in process.
    ``backend`` picks the transport when it does shard: ``"shm"`` (the
    ``None``/``"auto"`` choice for ``jobs >= 2``) publishes the compiled
    topology and sigma arrays as zero-copy shared-memory blocks served
    by the warm worker pool, falling back to serial when shared memory
    or workers are unavailable; ``"serial"`` forces in-process
    evaluation.

    ``timeout``/``retries`` bound each shard's wall clock and its
    re-submission budget (see :func:`repro.parallel.run_sharded`).

    ``checkpoint_path`` journals each completed shard's rows to an
    append-only crash-safe file (``repro.checkpoint/1``); with
    ``resume=True`` a journal from an interrupted run with the same
    tree/model/samples/seed skips its finished shards, and the resumed
    matrix is bit-identical to an uninterrupted run on any backend.
    """
    if samples < 1:
        raise AnalysisError("need at least one sample")
    backend = resolve_backend(backend)
    topology = compile_topology(tree)
    sr, sc = model.sigma_arrays(tree)
    _SAMPLES_DRAWN.inc(samples)
    shards = plan_shards(samples, shard_size=shard_size)
    with journal(
        checkpoint_path, "monte_carlo_delay_matrix", shards, resume,
        {"samples": int(samples), "seed": int(seed)},
        lambda: {"tree": tree_fingerprint(tree), "sr": sr, "sc": sc,
                 "samples": int(samples), "seed": int(seed),
                 "clip": float(clip)},
    ) as checkpoint, _span("variation.monte_carlo_sharded",
                           samples=samples, shards=len(shards),
                           N=tree.num_nodes,
                           backend=backend or "auto") as sp:
        seeds = spawn_shard_seeds(seed, len(shards))
        label = "variation.parallel_run"
        pool = use_pool(label, samples * tree.num_nodes * _MC_NS * 1e-6,
                        jobs, backend, len(shards), sp)
        return _sweep_on_workspace(
            _mc_shard_task,
            topology,
            {"sr": sr, "sc": sc},
            shards,
            pool,
            extras=[(clip, seeds[shard.index]) for shard in shards],
            jobs=jobs,
            backend=backend,
            label=label,
            timeout=timeout,
            retries=retries,
            checkpoint=checkpoint,
        )


def monte_carlo_elmore(
    tree: RCTree,
    node: str,
    model: VariationModel,
    samples: int = 2000,
    seed: int = 0,
    clip: float = 0.99,
    jobs: Optional[int] = None,
    shard_size: Optional[int] = None,
    backend: Optional[str] = None,
) -> np.ndarray:
    """Monte-Carlo samples of ``T_D(node)`` under Gaussian relative
    variations (clipped at ``+-clip`` to keep elements physical).

    Returns the sample array; use for validating :func:`elmore_statistics`
    or for non-Gaussian empirical quantiles.  It is ``node``'s column of
    :func:`monte_carlo_delay_matrix` with the same arguments, so the
    samples are bit-identical for any ``jobs`` and ``backend``.
    """
    target = tree.index_of(node)
    delays = monte_carlo_delay_matrix(
        tree, model, samples, seed=seed, clip=clip,
        jobs=jobs, shard_size=shard_size, backend=backend,
    )
    return np.ascontiguousarray(delays[:, target])
