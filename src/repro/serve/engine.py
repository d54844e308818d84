"""Batched evaluation behind the service endpoints.

The stats path is the one the batcher exploits: every coalesced batch —
requests against one topology, each contributing parameter rows — is
stacked into a single ``(B, N)`` matrix and swept through the batched
moment engine (:mod:`repro.core.batch`) **once**.  Because the level
sweeps are row-independent, slicing a request's rows back out of the
coalesced result returns exactly the bits a solo sweep of that request
would have produced — the property the coalescing tests pin.

With ``jobs >= 2`` the row block is sharded through the parallel engine
(:func:`repro.parallel.run_sharded`), which leases the warm worker pool
for the sweep and degrades to in-process execution when workers die or
cannot fork; the shard plan depends only on the row count, so results
stay bit-identical to the in-process sweep for any worker count.

Signals never break coalescing: the sweep computes signal-independent
transfer coefficients, and each request's input-signal contribution
(derivative moments, eq. (41)) is applied to its own rows afterwards.
"""

from __future__ import annotations

import logging
from collections import OrderedDict
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.batch import TreeTopology, batch_transfer_moments, \
    compile_topology
from repro.obs.trace import span as _span
from repro.parallel import plan_shards, run_sharded
from repro.serve.schemas import StatsRequest

__all__ = ["StatsEngine"]

logger = logging.getLogger(__name__)

#: Moment order the stats sweep computes (m_0..m_3: enough for Elmore,
#: sigma, and skewness — the paper's whole bound pipeline).
STATS_ORDER = 3

#: Rows per shard when a sweep fans out over the pool; small batches
#: stay in-process (sharding a 4-row sweep would be pure overhead).
MIN_ROWS_PER_SHARD = 64


def _stats_shard_task(payload) -> np.ndarray:
    """Sweep one row chunk (module-level: picklable for the pool)."""
    topo, resistances, capacitances = payload
    return batch_transfer_moments(
        topo, STATS_ORDER, resistances, capacitances
    ).coefficients


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
            topo = compile_topology(request.tree)
            self._topologies[key] = topo
            while len(self._topologies) > self._max_topologies:
                self._topologies.popitem(last=False)
        else:
            self._topologies.move_to_end(key)
        return topo

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
                   rows=int(resistances.shape[0])):
            coeffs = self._sweep(topo, resistances, capacitances)
        responses = []
        offset = 0
        for request in requests:
            rows = request.rows
            responses.append(self._response(
                topo, request, coeffs[:, offset:offset + rows, :],
                batch_requests=len(requests),
            ))
            offset += rows
        return responses

    def _sweep(
        self,
        topo: TreeTopology,
        resistances: np.ndarray,
        capacitances: np.ndarray,
    ) -> np.ndarray:
        """``(order + 1, B, N)`` transfer coefficients for the batch.

        Fans the rows out over the pool only when both the configured
        ``jobs`` and the row count warrant it; either path returns the
        same bits (row-independent sweeps, deterministic shard plan).
        """
        total = int(resistances.shape[0])
        jobs = self.jobs or 1
        if jobs < 2 or total < 2 * MIN_ROWS_PER_SHARD:
            return _stats_shard_task((topo, resistances, capacitances))
        shards = plan_shards(total, shard_size=max(
            MIN_ROWS_PER_SHARD, -(-total // jobs)
        ))
        chunks = run_sharded(
            _stats_shard_task,
            [
                (topo, resistances[shard.start:shard.stop],
                 capacitances[shard.start:shard.stop])
                for shard in shards
            ],
            jobs=jobs,
            backend=self.backend,
            label="serve.sweep",
        )
        return np.concatenate(chunks, axis=1)

    # -- per-request response shaping ----------------------------------
    def _response(
        self,
        topo: TreeTopology,
        request: StatsRequest,
        coeffs: np.ndarray,
        batch_requests: int,
    ) -> Dict[str, Any]:
        """Bound pipeline for one request's rows (``coeffs``: sliced
        ``(order + 1, rows, N)`` view of the coalesced sweep).

        Mirrors :func:`repro.core.bounds.delay_bounds` elementwise —
        mean/sigma/skewness of the output derivative density under the
        request's input signal, re-referenced to the input's 50%
        crossing — vectorized over rows and nodes.
        """
        m1, m2, m3 = coeffs[1], coeffs[2], coeffs[3]
        din = request.signal.derivative_moments()
        t50_in = request.signal.t50
        elmore = -m1
        mean = elmore + din.mean
        mu2 = (2.0 * m2 - m1 * m1) + din.mu2
        mu3 = (-6.0 * m3 + 6.0 * m1 * m2 - 2.0 * m1**3) + din.mu3
        sigma = np.sqrt(np.maximum(mu2, 0.0))
        upper = mean - t50_in
        lower = np.maximum(np.maximum(mean - sigma, 0.0) - t50_in, 0.0)
        safe = np.where(mu2 > 0.0, mu2, 1.0)
        skewness = np.where(mu2 > 0.0, mu3 / safe**1.5, 0.0)
        names = request.nodes or list(request.tree.node_names)
        indices = [topo.index_of(name) for name in names]
        single = coeffs.shape[1] == 1

        def _column(values: np.ndarray, i: int):
            column = values[:, i]
            return float(column[0]) if single else column.tolist()

        nodes = {
            name: {
                "elmore": _column(elmore, i),
                "upper": _column(upper, i),
                "lower": _column(lower, i),
                "mean": _column(mean, i),
                "sigma": _column(sigma, i),
                "skewness": _column(skewness, i),
            }
            for name, i in zip(names, indices)
        }
        return {
            "workload": request.label,
            "signal": request.signal.describe(),
            "rows": int(coeffs.shape[1]),
            "units": "seconds",
            "nodes": nodes,
            "batch": {
                "requests": int(batch_requests),
                "coalesced": batch_requests > 1,
            },
        }

