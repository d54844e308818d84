"""Batched evaluation behind the service endpoints.

The stats path is the one the batcher exploits: every coalesced batch —
requests against one topology, each contributing parameter rows — is
stacked into a single ``(B, N)`` matrix and swept through the batched
moment engine (:mod:`repro.core.batch`) **once**.  Because the level
sweeps are row-independent, slicing a request's rows back out of the
coalesced result returns exactly the bits a solo sweep of that request
would have produced — the property the coalescing tests pin.

With ``jobs >= 2`` a batch big enough for the pool
(:func:`~repro.parallel.use_pool`, from rows x nodes) rides the
zero-copy row sweep of
:mod:`repro.core.variation`: shards read the shm-published topology and
``res``/``cap`` blocks and write their ``m_0..m_3`` into one ``out``
block.  The shard plan depends only on the row count, so results stay
bit-identical to the in-process sweep for any worker count and backend.
The sweep's registry keeps at most
:data:`~repro.parallel.shm.MAX_PUBLISHED_WORKSPACES` topologies
published, so the segments and ``/dev/shm`` bytes a server holds stay
bounded whatever trees its clients send.

Signals never break coalescing: the sweep computes signal-independent
transfer coefficients, and each request's input-signal contribution
(derivative moments, eq. (41)) is applied to its own rows afterwards.
"""

from __future__ import annotations

import copy
from collections import OrderedDict
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.core.batch import BatchMoments, TreeTopology, \
    batch_transfer_moments, compile_topology
from repro.core.variation import _attached_topology, _sweep_on_workspace
from repro.obs.trace import span as _span
from repro.parallel import DEFAULT_MAX_SHARDS, plan_shards, use_pool
from repro.serve.schemas import StatsRequest

__all__ = ["StatsEngine"]

#: Moment order the stats sweep computes (m_0..m_3: enough for Elmore,
#: sigma, and skewness — the paper's whole bound pipeline).
STATS_ORDER = 3

#: Fewest rows per shard when a sweep fans out over the pool.
MIN_ROWS_PER_SHARD = 64

#: In-process nanoseconds per row and node of the order-3 moment sweep,
#: the unit of the sweep's pool estimate
#: (``benchmarks/results/parallel.txt``).
_STATS_NS = 90.0


def _stats_shard_task(payload) -> int:
    """Sweep rows ``start:stop`` of ``res``/``cap``; write each row's
    ``m_0..m_3`` side by side into ``out[start:stop]``."""
    descriptor, start, stop = payload
    ws, topology = _attached_topology(descriptor)
    coefficients = batch_transfer_moments(
        topology, STATS_ORDER,
        ws.arrays["res"][start:stop], ws.arrays["cap"][start:stop],
    ).coefficients
    out = ws.arrays["out"][start:stop]
    out.reshape(stop - start, STATS_ORDER + 1, -1)[...] = \
        coefficients.transpose(1, 0, 2)
    return stop - start


class StatsEngine:
    """Evaluates coalesced stats batches on the batched moment engine.

    One instance per server; :meth:`evaluate` runs in the dispatch
    executor thread.  Compiled topologies are cached per coalescing key
    (bounded LRU) so repeated traffic against the same tree shape pays
    the compile once.
    """

    def __init__(
        self,
        jobs: Optional[int] = None,
        backend: Optional[str] = None,
        max_topologies: int = 64,
    ) -> None:
        self.jobs = jobs
        self.backend = backend
        self._max_topologies = int(max_topologies)
        self._topologies: "OrderedDict[str, TreeTopology]" = OrderedDict()

    # -- topology cache ------------------------------------------------
    def _topology(self, key: str, request: StatsRequest) -> TreeTopology:
        topo = self._topologies.get(key)
        if topo is None:
            # A copy of the tree's cached compile: its identity keys the
            # shm workspace of a sharded sweep (see drop_topologies).
            topo = copy.copy(compile_topology(request.tree))
            self._topologies[key] = topo
            while len(self._topologies) > self._max_topologies:
                self._topologies.popitem(last=False)
        else:
            self._topologies.move_to_end(key)
        return topo

    def drop_topologies(self) -> None:
        """Forget every compiled topology: later batches then never share
        a shm workspace with a sweep left running on an abandoned thread.
        The forgotten workspaces close when that thread lets go of them."""
        self._topologies = OrderedDict()

    # -- the coalesced sweep -------------------------------------------
    def evaluate(
        self, key: str, requests: Sequence[StatsRequest]
    ) -> List[Dict[str, Any]]:
        """One batched sweep for every request in the batch.

        Returns one response payload per request, in request order.
        """
        topo = self._topology(key, requests[0])
        resistances = np.concatenate([r.resistances for r in requests])
        capacitances = np.concatenate([r.capacitances for r in requests])
        with _span("serve.batch", key=key, requests=len(requests),
                   rows=int(resistances.shape[0])) as sp:
            coeffs = self._sweep(topo, resistances, capacitances, sp)
        bounds = np.cumsum([0] + [r.rows for r in requests]).tolist()
        return [
            self._response(r, BatchMoments(topo, coeffs[:, a:b, :]),
                           batch_requests=len(requests))
            for r, a, b in zip(requests, bounds, bounds[1:])
        ]

    def _sweep(
        self,
        topo: TreeTopology,
        resistances: np.ndarray,
        capacitances: np.ndarray,
        span,
    ) -> np.ndarray:
        """``(order + 1, B, N)`` transfer coefficients for the batch.

        Shards the rows only when the configured ``jobs`` and the rule
        of :func:`~repro.parallel.use_pool` (recorded on ``span``) both
        warrant it; the plan reads the row count alone, and either path
        returns the same bits (row-independent sweeps).
        """
        total = int(resistances.shape[0])
        shards = plan_shards(total, shard_size=max(
            MIN_ROWS_PER_SHARD, -(-total // DEFAULT_MAX_SHARDS)
        ))
        label = "serve.sweep"
        if not use_pool(label, resistances.size * _STATS_NS * 1e-6,
                        self.jobs, self.backend, len(shards), span):
            return batch_transfer_moments(
                topo, STATS_ORDER, resistances, capacitances
            ).coefficients
        out = _sweep_on_workspace(
            _stats_shard_task, topo, {"res": resistances, "cap": capacitances},
            shards, pool=True, jobs=self.jobs, backend=self.backend,
            label=label,
            width=(STATS_ORDER + 1) * topo.num_nodes,
        )
        # Contiguous like the in-process sweep's: the response shaping
        # runs ~30% slower over the transposed view.
        return np.ascontiguousarray(
            out.reshape(total, STATS_ORDER + 1, -1).transpose(1, 0, 2))

    # -- per-request response shaping ----------------------------------
    def _response(
        self,
        request: StatsRequest,
        moments: BatchMoments,
        batch_requests: int,
    ) -> Dict[str, Any]:
        """Bound pipeline for one request's rows (``moments`` wraps its
        sliced ``(order + 1, rows, N)`` view of the coalesced sweep).

        Mirrors :func:`repro.core.bounds.delay_bounds` elementwise —
        mean/sigma/skewness of the output derivative density under the
        request's input signal, re-referenced to the input's 50%
        crossing — vectorized over rows and the requested nodes.  Every
        step is elementwise per node, so shaping only the requested
        columns gives each of them the full-width pipeline's bits.
        """
        names = request.nodes or list(request.tree.node_names)
        moments = BatchMoments(moments.topology, moments.coefficients[
            :, :, [moments.topology.index_of(name) for name in names]])
        din = request.signal.derivative_moments()
        t50_in = request.signal.t50
        elmore = moments.elmore_delays()
        mean = elmore + din.mean
        mu2 = moments.variance() + din.mu2
        mu3 = moments.third_central_moment() + din.mu3
        sigma = np.sqrt(np.maximum(mu2, 0.0))
        upper = mean - t50_in
        lower = np.maximum(np.maximum(mean - sigma, 0.0) - t50_in, 0.0)
        safe = np.where(mu2 > 0.0, mu2, 1.0)
        skewness = np.where(mu2 > 0.0, mu3 / safe**1.5, 0.0)
        single = moments.batch_size == 1

        def _column(values: np.ndarray, i: int):
            column = values[:, i]
            return float(column[0]) if single else column.tolist()

        fields = {"elmore": elmore, "upper": upper, "lower": lower,
                  "mean": mean, "sigma": sigma, "skewness": skewness}
        nodes = {
            name: {field: _column(values, i)
                   for field, values in fields.items()}
            for i, name in enumerate(names)
        }
        return {
            "workload": request.label,
            "signal": request.signal.describe(),
            "rows": moments.batch_size,
            "units": "seconds",
            "nodes": nodes,
            "batch": {
                "requests": int(batch_requests),
                "coalesced": batch_requests > 1,
            },
        }

