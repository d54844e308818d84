"""Numeric verification of the paper's lemmas and theorem on a given tree.

These helpers sample exact impulse responses and check, numerically, each
claim the paper proves analytically:

* Lemma 1 — ``h(t)`` is unimodal and positive at every node;
* Lemma 2 — the coefficient of skewness ``gamma >= 0`` at every node;
* Theorem — ``Mode <= Median <= Mean`` at every node;
* Corollary 1 — ``max(T_D - sigma, 0) <= t_50``;
* eq. (48) — the input/output area difference equals ``T_D``.

They power both the test suite and the ``bench_theorem_corpus`` benchmark
that sweeps random trees.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.analysis.responses import measure_delay
from repro.analysis.state_space import ExactAnalysis
from repro.circuit.rctree import RCTree
from repro.core.bounds import area_theorem_delay
from repro.core.moments import transfer_moments
from repro.core.statistics import WaveformStats, waveform_stats
from repro.obs.metrics import counter as _counter
from repro.obs.trace import span as _span
from repro.parallel import plan_shards, run_sharded, use_pool
from repro.resilience.checkpoint import journal, tree_fingerprint
from repro.signals.base import Signal
from repro.signals.step import StepInput

_SAMPLES_EVALUATED = _counter(
    "verify_samples_total",
    "Impulse-response grid points sampled during verification",
)
_NODES_VERIFIED = _counter(
    "verify_nodes_total", "Nodes checked against the paper's claims"
)

#: In-process nanoseconds per verified node, impulse-response sample
#: and tree node (the exact response sums one term per pole), the unit
#: of the verification pool estimate (:func:`_estimate_ms`,
#: ``benchmarks/results/parallel.txt``).
_VERIFY_NS = 55.0


def _estimate_ms(tree: RCTree, nodes: int, samples: int) -> float:
    """Estimated in-process milliseconds to verify ``nodes`` of
    ``tree`` at ``samples`` grid points per scale."""
    return nodes * samples * tree.num_nodes * _VERIFY_NS * 1e-6


__all__ = [
    "NodeVerdict",
    "TreeVerdict",
    "verify_tree",
    "verify_corpus",
    "verify_area_theorem",
]


@dataclass(frozen=True)
class NodeVerdict:
    """Verification outcome at a single node.

    ``stats`` holds the measured waveform statistics; the boolean fields
    report each claim.  ``actual_delay`` is the measured 50% step delay.
    """

    node: str
    stats: WaveformStats
    elmore: float
    lower_bound: float
    actual_delay: float
    unimodal: bool
    nonnegative: bool
    skew_nonnegative: bool
    ordering_holds: bool
    upper_bound_holds: bool
    lower_bound_holds: bool

    @property
    def all_hold(self) -> bool:
        """True when every checked claim holds at this node."""
        return (
            self.unimodal
            and self.nonnegative
            and self.skew_nonnegative
            and self.ordering_holds
            and self.upper_bound_holds
            and self.lower_bound_holds
        )


@dataclass(frozen=True)
class TreeVerdict:
    """Verification outcome over a whole tree."""

    nodes: List[NodeVerdict]

    @property
    def all_hold(self) -> bool:
        """True when every claim holds at every node."""
        return all(v.all_hold for v in self.nodes)

    def failures(self) -> List[NodeVerdict]:
        """Node verdicts with at least one failed claim."""
        return [v for v in self.nodes if not v.all_hold]


def _verify_shard_task(payload) -> List[NodeVerdict]:
    """Verify one shard's node subset (module-level: picklable).

    Each shard rebuilds the exact analysis and moment tables from the
    tree — redundant work across shards, but every quantity involved is
    a deterministic function of the tree alone, so shard boundaries and
    worker placement cannot change a single output bit.
    """
    tree, names, samples = payload
    analysis = ExactAnalysis(tree)
    moments = transfer_moments(tree, 3)
    return [
        _verify_node(analysis, moments, name, samples) for name in names
    ]


def verify_tree(
    tree: RCTree,
    nodes: Optional[List[str]] = None,
    samples: int = 4001,
    jobs: Optional[int] = None,
    shard_size: Optional[int] = None,
    backend: Optional[str] = None,
    checkpoint_path: Optional[str] = None,
    resume: bool = False,
) -> TreeVerdict:
    """Check Lemmas 1-2, the Theorem and Corollary 1 on ``tree``.

    Parameters
    ----------
    tree:
        The tree to verify.
    nodes:
        Node subset (default: all nodes).
    samples:
        Impulse-response sample count per grid scale (affects the
        mode/median measurement accuracy only; delays and bounds are
        analytic).
    jobs:
        ``None`` (default) verifies in-process: one shard task over
        every node, sharing one exact analysis.  Any integer routes the
        node list through the sharded engine (:mod:`repro.parallel`):
        ``1`` = serial backend, ``>= 2`` = at most that many worker
        processes, when the estimated work (nodes x samples x tree
        size) pays for the pool; a smaller run verifies in process as
        with ``None``.  Verdicts are bit-identical across all of these.
    shard_size:
        Nodes per shard for the sharded path (default: an even split
        into at most :data:`repro.parallel.DEFAULT_MAX_SHARDS`).
    backend:
        Execution backend for the sharded path (``"serial"`` or
        ``"shm"``; default auto).  Verdict payloads are object lists,
        not ndarrays, so ``"shm"`` here buys the warm worker pool (fork
        once, reuse across calls) while payloads still travel pickled;
        results stay bit-identical either way.

    Notes
    -----
    Near-driver nodes concentrate their impulse-response mass at time
    scales orders of magnitude below the tree's settle horizon (a slow
    far-branch pole with a tiny residue stretches the tail).  A single
    linear grid over the horizon cannot resolve both, so each node is
    sampled on the union of a fine grid over ``mean + 8 sigma`` (where
    the mass lives) and a coarse grid out to the settle horizon.
    """
    target_nodes = list(nodes if nodes is not None else tree.node_names)
    with _span("verify.tree", nodes=len(target_nodes),
               samples=samples) as sp:
        sharded = not (jobs is None and backend is None
                       and checkpoint_path is None)
        if sharded:
            shards = plan_shards(len(target_nodes), shard_size=shard_size)
            pool = use_pool(
                "verify.parallel_run",
                _estimate_ms(tree, len(target_nodes), samples),
                jobs, backend, len(shards), sp)
            if pool is False:
                # Too small for the pool: a journal keeps its plan on
                # the serial backend, anything else runs as if unset.
                sharded, backend = checkpoint_path is not None, "serial"
        if not sharded:
            chunks = [_verify_shard_task((tree, target_nodes, samples))]
        else:
            sp.set_attribute("shards", len(shards))
            with journal(
                checkpoint_path, "verify_tree", shards, resume,
                {"nodes": len(target_nodes), "samples": int(samples)},
                lambda: {"tree": tree_fingerprint(tree),
                         "nodes": target_nodes, "samples": int(samples)},
            ) as checkpoint:
                chunks = run_sharded(
                    _verify_shard_task,
                    [(tree, target_nodes[shard.start:shard.stop], samples)
                     for shard in shards],
                    jobs=jobs,
                    label="verify.parallel_run",
                    backend=backend,
                    checkpoint=checkpoint,
                )
    return TreeVerdict(
        nodes=[verdict for chunk in chunks for verdict in chunk]
    )


def _corpus_shard_task(payload) -> List[TreeVerdict]:
    """Verify one shard's run of corpus trees (module-level: picklable)."""
    trees, samples = payload
    return [
        TreeVerdict(nodes=_verify_shard_task(
            (tree, list(tree.node_names), samples)
        ))
        for tree in trees
    ]


def verify_corpus(
    trees: List[RCTree],
    samples: int = 4001,
    jobs: Optional[int] = None,
    shard_size: Optional[int] = None,
    timeout: Optional[float] = None,
    retries: int = 1,
    backend: Optional[str] = None,
    checkpoint_path: Optional[str] = None,
    resume: bool = False,
) -> List[TreeVerdict]:
    """Verify every tree of a corpus, optionally sharded over trees.

    The workhorse behind ``bench_theorem_corpus``-style sweeps: the
    corpus is split into runs of consecutive trees and each run is
    verified independently (``jobs >= 2`` fans the runs out across
    worker processes).  Verdicts come back in corpus order and are
    bit-identical to the serial backend for any worker count and any
    ``backend`` (for this object-payload workload ``"shm"`` selects the
    warm worker pool; the trees themselves still travel pickled).

    ``timeout``/``retries`` bound each shard's wall clock and its
    re-submission budget (see :func:`repro.parallel.run_sharded`).

    ``checkpoint_path`` journals each completed shard's verdicts to an
    append-only crash-safe file (``repro.checkpoint/1``) keyed by the
    corpus content + ``samples`` + the shard plan; with ``resume=True``
    a journal from an interrupted run skips its finished shards, and
    the resumed verdict list is identical to an uninterrupted run.
    """
    if not trees:
        return []
    shards = plan_shards(len(trees), shard_size=shard_size)
    with journal(
        checkpoint_path, "verify_corpus", shards, resume,
        {"trees": len(trees), "samples": int(samples)},
        lambda: {"trees": [tree_fingerprint(tree) for tree in trees],
                 "samples": int(samples)},
    ) as checkpoint, _span("verify.corpus", trees=len(trees),
                           shards=len(shards), samples=samples) as sp:
        label = "verify.parallel_run"
        estimate = sum(_estimate_ms(tree, tree.num_nodes, samples)
                       for tree in trees)
        if use_pool(label, estimate, jobs, backend, len(shards),
                    sp) is False:
            backend = "serial"
        chunks = run_sharded(
            _corpus_shard_task,
            [(trees[shard.start:shard.stop], samples) for shard in shards],
            jobs=jobs,
            timeout=timeout,
            retries=retries,
            label=label,
            backend=backend,
            checkpoint=checkpoint,
        )
    return [verdict for chunk in chunks for verdict in chunk]


def _verify_node(
    analysis: ExactAnalysis,
    moments,
    name: str,
    samples: int,
) -> NodeVerdict:
    with _span("verify.node", node=name) as sp:
        transfer = analysis.transfer(name)
        horizon = transfer.settle_time(1e-9)
        mass_span = moments.mean(name) + 8.0 * moments.sigma(name)
        t = np.linspace(0.0, horizon, samples)
        if 0.0 < mass_span < horizon:
            fine = np.linspace(0.0, mass_span, samples)
            t = np.unique(np.concatenate((fine, t)))
        _NODES_VERIFIED.inc()
        _SAMPLES_EVALUATED.inc(t.size)
        sp.set_attribute("grid", int(t.size))
        h = transfer.impulse_response(t)
        stats = waveform_stats(t, h)
        nonneg = bool(np.min(h) >= -1e-9 * max(np.max(h), 1e-300))
        elmore = moments.mean(name)
        sigma = moments.sigma(name)
        lower = max(elmore - sigma, 0.0)
        actual = measure_delay(analysis, name, StepInput())
        gamma = moments.skewness(name)
        tol = 1e-9 * max(elmore, 1e-300)
        return NodeVerdict(
            node=name,
            stats=stats,
            elmore=elmore,
            lower_bound=lower,
            actual_delay=actual,
            unimodal=stats.unimodal,
            nonnegative=nonneg,
            skew_nonnegative=gamma >= -1e-9,
            ordering_holds=stats.ordering_holds,
            upper_bound_holds=actual <= elmore + tol,
            lower_bound_holds=actual >= lower - tol,
        )


def verify_area_theorem(
    tree: RCTree,
    node: str,
    signal: Optional[Signal] = None,
    samples: int = 20001,
) -> Dict[str, float]:
    """Check eq. (48): area between input and output equals ``T_D``.

    Returns ``{"elmore": T_D, "area": measured, "relative_error": ...}``.
    """
    if signal is None:
        signal = StepInput()
    with _span("verify.area_theorem", node=node, samples=samples):
        _SAMPLES_EVALUATED.inc(samples)
        analysis = ExactAnalysis(tree)
        transfer = analysis.transfer(node)
        horizon = max(signal.settle_time, 0.0) + transfer.settle_time(1e-12)
        t = np.linspace(0.0, horizon, samples)
        vin = signal.value(t)
        vout = transfer.response(signal, t)
        area = area_theorem_delay(t, vin, vout)
        elmore = transfer_moments(tree, 1).mean(node)
        rel = abs(area - elmore) / elmore if elmore > 0 else float("inf")
        return {"elmore": elmore, "area": area, "relative_error": rel}
