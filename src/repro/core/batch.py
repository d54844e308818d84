"""Batched moment/Elmore evaluation over a compiled tree topology.

The scalar engines (:mod:`repro.core.elmore`, :mod:`repro.core.moments`)
walk the tree with per-node Python loops — exact, simple, and the oracle
the tests pin everything to, but interpreter-bound: evaluating B parameter
sets (Monte-Carlo variation samples, process corners, sizing candidates)
costs B full tree walks.

This module compiles an :class:`~repro.circuit.rctree.RCTree` **once**
into flat CSR-style topology arrays (parent pointers, nodes grouped by
depth, per-level parent indices) and then evaluates the paper's whole
moment pipeline for ``(B, N)`` resistance/capacitance matrices at a time
with pure NumPy level sweeps — no per-node Python loop anywhere:

* Elmore delays ``T_D`` (eq. (4)) for every node of every batch row;
* transfer coefficients ``m_0..m_q`` (eq. (8)-(9)) up to ``q = 3``;
* raw/central distribution moments, ``sigma`` and skewness (eq. (27));
* the paper's bound pair ``[max(T_D - sigma, 0), T_D]`` (Theorem +
  Corollary 1).

The two tree recursions both become sweeps over *depth levels*:

* subtree accumulation (post-order) — iterate levels deepest-first and
  fold each level's values into its parents; sibling contributions are
  merged with ``np.add.reduceat`` over children pre-sorted by parent at
  compile time (buffered, unlike ``np.add.at``);
* root-path accumulation (pre-order) — iterate levels shallowest-first
  and gather each level's parent prefix (plain fancy indexing; parents
  live in already-finished levels).

Internally both sweeps run on a transposed ``(N, B)`` workspace so each
level touches contiguous rows rather than strided columns.

Each sweep is O(depth) NumPy calls over ``(B, level_size)`` blocks, so the
per-sample cost collapses as B grows — the speedup is measured in
``benchmarks/bench_scaling.py`` and ``benchmarks/bench_variation.py``.

A topology may also describe a *forest* (several independent trees laid
out side by side, parents of all tree roots = -1).  The STA engine uses
this to evaluate every net of a netlist through a single batched call
(:func:`compile_forest`).
"""

from __future__ import annotations

import logging
import math
from collections.abc import Sequence as _SequenceABC
from dataclasses import dataclass, field
from itertools import accumulate, chain
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro._exceptions import AnalysisError, TopologyError, ValidationError
from repro.circuit.rctree import RCTree, check_elements
from repro.obs.metrics import counter as _counter
from repro.obs.trace import span as _span

logger = logging.getLogger(__name__)

# Observability: spans carry (B, N, depth) per sweep; counters track the
# compile cache and total evaluated rows (docs/observability.md).
_COMPILES = _counter(
    "topology_compile_total",
    "Tree/forest topologies compiled into level-sweep arrays",
)
_CACHE_HITS = _counter(
    "topology_cache_hits_total",
    "compile_topology calls served from the tree's cache",
)
_CACHE_MISSES = _counter(
    "topology_cache_misses_total",
    "compile_topology calls that had to compile",
)
_SWEEPS = _counter(
    "batch_sweeps_total", "Batched moment/Elmore evaluations"
)
_SWEEP_ROWS = _counter(
    "batch_rows_total", "Parameter rows evaluated by batched sweeps"
)

__all__ = [
    "TreeTopology",
    "BatchMoments",
    "compile_topology",
    "compile_forest",
    "topology_to_arrays",
    "topology_from_arrays",
    "batch_transfer_moments",
    "batch_elmore_delays",
    "batch_delay_bounds",
]


@dataclass(frozen=True)
class TreeTopology:
    """Immutable compiled traversal structure of an RC tree (or forest).

    Attributes
    ----------
    parents:
        Parent index per node, ``-1`` for children of the input node
        (or for the root node of each tree in a forest).
    levels:
        Node-index arrays grouped by depth, shallowest first.  Within a
        level the arrays are in node-index (topological) order.
    level_parents:
        ``parents[levels[k]]`` precomputed per level (entries of the first
        level are ``-1`` and never dereferenced).
    node_names:
        Node names in index order (a forest's are qualified, and built
        on first read).
    resistances, capacitances:
        The compile-time nominal element values, used as defaults when a
        batched call passes ``None`` for one of the matrices.
    """

    parents: np.ndarray
    levels: Tuple[np.ndarray, ...]
    level_parents: Tuple[np.ndarray, ...]
    node_names: Sequence[str]
    resistances: np.ndarray
    capacitances: np.ndarray
    # Name -> index, filled on the first lookup.
    _index: Dict[str, int] = field(repr=False, default_factory=dict)
    # Per level: (children sorted by parent, their parents, the unique
    # parents, reduceat segment starts) with root entries dropped, or
    # None when a level holds only roots.  Drives both sweep kernels.
    _segments: Tuple[Optional[Tuple[np.ndarray, np.ndarray, np.ndarray,
                                    np.ndarray]], ...] = field(
        repr=False, default=())

    @property
    def num_nodes(self) -> int:
        """Number of (non-input) nodes."""
        return int(self.parents.shape[0])

    @property
    def depth(self) -> int:
        """Maximum node depth = number of level sweeps per recursion."""
        return len(self.levels)

    def index_of(self, name: str) -> int:
        """Dense index of node ``name``."""
        if not self._index:
            self._index.update(zip(self.node_names, range(self.num_nodes)))
        try:
            return self._index[name]
        except KeyError:
            raise ValidationError(f"unknown node {name!r}") from None

    @classmethod
    def from_arrays(
        cls,
        parents: np.ndarray,
        names: Sequence[str],
        resistances: np.ndarray,
        capacitances: np.ndarray,
    ) -> "TreeTopology":
        """Compile from flat parent-pointer arrays (parents precede
        children, as :class:`RCTree` guarantees by construction)."""
        parents = np.asarray(parents, dtype=np.int64)
        n = parents.shape[0]
        with _span("batch.compile", metric="topology_compile_seconds",
                   N=n) as sp:
            topo = cls._from_arrays(
                parents, names, resistances, capacitances
            )
            sp.set_attribute("depth", topo.depth)
        _COMPILES.inc()
        return topo

    @classmethod
    def _from_arrays(
        cls,
        parents: np.ndarray,
        names: Sequence[str],
        resistances: np.ndarray,
        capacitances: np.ndarray,
    ) -> "TreeTopology":
        n = parents.shape[0]
        depth_of = [1] * n
        for i, p in enumerate(parents.tolist()):  # parents come first
            if p >= 0:
                depth_of[i] = depth_of[p] + 1
        depth = np.array(depth_of, dtype=np.int64)
        # Level d holds the depth-d nodes in index order.
        ends = list(accumulate(np.bincount(depth)[1:].tolist()))
        bounds = list(zip([0] + ends[:-1], ends))
        order = np.argsort(depth, kind="stable")
        by_level = parents[order]
        levels = [order[lo:hi] for lo, hi in bounds]
        level_parents = [by_level[lo:hi] for lo, hi in bounds]
        segments: List[Optional[Tuple[np.ndarray, ...]]] = [None] if n else []
        if len(levels) > 1:
            # Each deeper level's nodes sorted by parent (stably), and the
            # start of every parent's run, for the reduceat folds; level
            # 1 holds the roots only.
            inner = order[ends[0]:]
            key = depth[inner] * n + parents[inner]
            by_parent = np.argsort(key, kind="stable")
            idx_sorted, key = inner[by_parent], key[by_parent]
            par_sorted = parents[idx_sorted]
            run = np.ones(key.shape, dtype=bool)
            run[1:] = key[1:] != key[:-1]
            runs = np.flatnonzero(run)
            inner_bounds = [(lo - ends[0], hi - ends[0])
                            for lo, hi in bounds[1:]]
            cuts = np.searchsorted(
                runs, [lo for lo, _ in inner_bounds]
            ).tolist() + [len(runs)]
            for (lo, hi), r0, r1 in zip(inner_bounds, cuts, cuts[1:]):
                first = runs[r0:r1] - lo
                par = par_sorted[lo:hi]
                segments.append((idx_sorted[lo:hi], par, par[first], first))
        res = np.array(resistances, dtype=np.float64)
        cap = np.array(capacitances, dtype=np.float64)
        res.setflags(write=False)
        cap.setflags(write=False)
        parents.setflags(write=False)
        for arr in levels + level_parents:
            arr.setflags(write=False)
        for seg in segments:
            if seg is not None:
                for arr in seg:
                    arr.setflags(write=False)
        topo = cls(
            parents=parents,
            levels=tuple(levels),
            level_parents=tuple(level_parents),
            node_names=(names if isinstance(names, _ForestNames)
                        else tuple(names)),
            resistances=res,
            capacitances=cap,
            _segments=tuple(segments),
        )
        return topo

    # ------------------------------------------------------------------
    # The two vectorized tree recursions
    # ------------------------------------------------------------------
    def _subtree_sums_T(self, work: np.ndarray) -> None:
        """In-place post-order accumulation on an ``(N, B)`` workspace.

        Each level's rows fold into their parents' rows; siblings merge
        through buffered ``np.add.reduceat`` segment sums over children
        pre-sorted by parent (precomputed in ``_segments``).
        """
        for seg in reversed(self._segments):
            if seg is None:
                continue
            idx_sorted, _, uniq, starts = seg
            work[uniq] += np.add.reduceat(work[idx_sorted], starts, axis=0)

    def _rootpath_sums_T(self, work: np.ndarray) -> None:
        """In-place pre-order accumulation on an ``(N, B)`` workspace.

        Levels run shallowest-first so every parent row is already a
        finished prefix sum when its children gather it.
        """
        for seg in self._segments:
            if seg is None:
                continue
            idx_sorted, par_sorted, _, _ = seg
            work[idx_sorted] += work[par_sorted]

    def _to_workspace(self, values: np.ndarray) -> np.ndarray:
        """Copy ``(..., N)`` values into a writable ``(N, B)`` array."""
        arr = np.asarray(values, dtype=np.float64)
        return np.array(arr.reshape(-1, self.num_nodes).T,
                        dtype=np.float64, order="C", copy=True)

    def subtree_sums(self, values: np.ndarray) -> np.ndarray:
        """Batched post-order accumulation.

        ``out[..., i] = sum of values[..., j] over j in subtree(i)`` —
        the vectorized form of the downstream-capacitance recursion.
        ``values`` has shape ``(..., num_nodes)``.
        """
        arr = np.asarray(values, dtype=np.float64)
        work = self._to_workspace(arr)
        self._subtree_sums_T(work)
        return np.ascontiguousarray(work.T).reshape(arr.shape)

    def rootpath_sums(self, values: np.ndarray) -> np.ndarray:
        """Batched pre-order accumulation.

        ``out[..., i] = sum of values[..., j] over j on the input-to-i
        path`` — the vectorized form of the delay/moment propagation.
        """
        arr = np.asarray(values, dtype=np.float64)
        work = self._to_workspace(arr)
        self._rootpath_sums_T(work)
        return np.ascontiguousarray(work.T).reshape(arr.shape)

    # ------------------------------------------------------------------
    # Parameter validation / broadcasting
    # ------------------------------------------------------------------
    def broadcast_parameters(
        self,
        resistances: Optional[np.ndarray] = None,
        capacitances: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Validate and broadcast R/C inputs to a common ``(B, N)`` shape.

        ``None`` selects the compile-time nominal values; a 1-D array is a
        single batch row; 2-D arrays are taken as ``(B, N)``.
        """
        r = self._coerce("resistances", resistances, self.resistances)
        c = self._coerce("capacitances", capacitances, self.capacitances)
        if r.shape[0] != c.shape[0]:
            if r.shape[0] == 1:
                r = np.broadcast_to(r, c.shape)
            elif c.shape[0] == 1:
                c = np.broadcast_to(c, r.shape)
            else:
                raise ValidationError(
                    "resistance and capacitance batches disagree: "
                    f"{r.shape[0]} vs {c.shape[0]} rows"
                )
        if not np.isfinite(r).all() or (r <= 0.0).any():
            raise ValidationError(
                "batched resistances must be finite and > 0"
            )
        if not np.isfinite(c).all() or (c < 0.0).any():
            raise ValidationError(
                "batched capacitances must be finite and >= 0"
            )
        rows = np.flatnonzero(c.sum(axis=1) <= 0.0)
        if rows.size:
            raise ValidationError(
                f"batch rows {rows[:5].tolist()} carry no capacitance "
                "(an RC tree without capacitance has no dynamics)"
            )
        return r, c

    def _coerce(
        self, label: str, values: Optional[np.ndarray], default: np.ndarray
    ) -> np.ndarray:
        if values is None:
            return default.reshape(1, -1)
        arr = np.asarray(values, dtype=np.float64)
        if arr.ndim == 1:
            arr = arr.reshape(1, -1)
        if arr.ndim != 2 or arr.shape[1] != self.num_nodes:
            raise ValidationError(
                f"{label} must have shape (B, {self.num_nodes}) or "
                f"({self.num_nodes},), got {arr.shape}"
            )
        return arr


def compile_topology(tree: RCTree) -> TreeTopology:
    """Compile ``tree`` into a :class:`TreeTopology`, cached on the tree.

    The compiled structure is stored in the tree's internal cache, which
    every mutation (``add_node``/``set_*``) clears — repeated calls after
    parameter edits recompile only when the *topology arrays* are gone,
    and callers that hold the returned object keep it valid as long as
    the wiring (not the element values) is unchanged.
    """
    cached = tree._cache.get("batch_topology")
    if cached is None:
        _CACHE_MISSES.inc()
        logger.debug(
            "topology cache miss: compiling %d-node tree", tree.num_nodes
        )
        tree.validate()
        cached = TreeTopology.from_arrays(
            tree.parents,
            tree.node_names,
            tree.resistances,
            tree.capacitances,
        )
        tree._cache["batch_topology"] = cached
    else:
        _CACHE_HITS.inc()
    return cached  # type: ignore[return-value]


def compile_forest(
    trees: Sequence[Union[RCTree, tuple]],
) -> Tuple[TreeTopology, Tuple[int, ...]]:
    """Compile several trees into one side-by-side forest topology.

    Each item is an :class:`RCTree` or a flat-array record with
    ``node_names``, ``parents`` (``-1`` = the input node), ``resistances``
    and ``capacitances`` fields, such as
    :class:`repro.sta.interconnect.NetArrays`.  A record is checked as
    :meth:`RCTree.from_arrays` checks it (each parent before its child;
    R finite and > 0; C finite and >= 0; its names are taken as given),
    so the STA's worker processes sweep nets without building trees.

    Returns ``(topology, offsets)`` where node ``i`` of ``trees[k]`` maps
    to forest index ``offsets[k] + i``.  Forest node names are qualified
    as ``"{k}/{name}"`` so they stay unique across trees; they (and the
    name index) are built on the first name lookup, since the sweeps
    address nodes by index only.  One batched
    evaluation over the forest computes every tree's moments at once —
    this is how the STA engine evaluates all nets of a netlist through a
    single call.
    """
    if not trees:
        raise ValidationError("compile_forest needs at least one tree")
    with _span("batch.compile_forest", trees=len(trees)):
        return _compile_forest(trees)


class _ForestNames(_SequenceABC):
    """A forest's node names, ``"{k}/{name}"`` for node ``name`` of
    ``trees[k]``, formatted on the first read and then kept."""

    def __init__(self, trees: Sequence, count: int) -> None:
        self._trees = trees
        self._count = count
        self._names: Optional[Tuple[str, ...]] = None

    def _all(self) -> Tuple[str, ...]:
        if self._names is None:
            self._names = tuple(f"{k}/{name}"
                                for k, tree in enumerate(self._trees)
                                for name in tree.node_names)
        return self._names

    def __getitem__(self, index):
        return self._all()[index]

    def __len__(self) -> int:
        return self._count

    def __iter__(self):
        return iter(self._all())

    # Equal to a tuple of the same names and to another forest's names.
    def __eq__(self, other: object) -> bool:
        return self._all() == other


def _compile_forest(
    trees: Sequence[Union[RCTree, tuple]],
) -> Tuple[TreeTopology, Tuple[int, ...]]:
    offsets: List[int] = []
    n = 0
    for tree in trees:
        if not len(tree.node_names):
            raise ValidationError("RC tree has no nodes")
        offsets.append(n)
        n += len(tree.node_names)

    def flat(field: str, dtype: type) -> np.ndarray:
        return np.fromiter(
            chain.from_iterable(getattr(tree, field) for tree in trees),
            dtype,
        )

    local = flat("parents", np.int64)
    resistances = flat("resistances", np.float64)
    capacitances = flat("capacitances", np.float64)
    if not local.shape == resistances.shape == capacitances.shape == (n,):
        raise ValidationError(
            "every tree needs one parent, resistance and capacitance per "
            "node name"
        )
    shift = np.repeat(offsets, np.diff(offsets + [n]))
    parents = np.where(local >= 0, local + shift, local)
    return (_checked_forest(trees, parents, resistances, capacitances,
                            offsets),
            tuple(offsets))


def _checked_forest(
    trees: Sequence,
    parents: np.ndarray,
    resistances: np.ndarray,
    capacitances: np.ndarray,
    offsets: List[int],
) -> TreeTopology:
    """Check trees laid out side by side and compile their forest.

    Tree ``k``'s nodes start at forest index ``offsets[k]``;
    ``parents`` holds forest indices, ``-1`` for each tree's roots.
    The checks are :meth:`RCTree.from_arrays`' (each parent before its
    child and in its own tree; R finite and > 0; C finite and >= 0,
    with the first bad element's error) plus a capacitance-free tree's.
    ``trees[k]`` is read only for its ``node_names``, ``resistances``
    and ``capacitances`` (names on the first lookup, all three on the
    error path), so it may lay its tree out on read.
    """
    n = parents.shape[0]
    shift = np.repeat(offsets, np.diff(offsets + [n]))
    late = (parents >= np.arange(n)) | ((parents < shift) & (parents != -1))
    names = _ForestNames(trees, n)
    if late.any():
        i = int(np.argmax(late))
        local = int(parents[i]) - (int(shift[i]) if parents[i] >= 0 else 0)
        raise TopologyError(
            f"parent index {local} of node {names[i]!r} does not precede it"
        )
    with np.errstate(invalid="ignore"):
        legal = (resistances > 0.0) & (capacitances >= 0.0)
    if not (legal.all() and np.isfinite(resistances).all()
            and np.isfinite(capacitances).all()):
        for tree in trees:
            check_elements(tree.node_names, tree.resistances,
                           tree.capacitances)
    if (np.add.reduceat(capacitances, offsets) <= 0.0).any():
        raise ValidationError("RC tree carries no capacitance")
    return TreeTopology.from_arrays(parents, names, resistances,
                                    capacitances)


def topology_to_arrays(
    topo: TreeTopology,
) -> Tuple[Dict[str, np.ndarray], Dict[str, object]]:
    """Pack a compiled topology into three flat arrays plus picklable meta.

    The inverse of :func:`topology_from_arrays`.  This is the shape the
    zero-copy shared-memory transport (:mod:`repro.parallel.shm`) ships,
    one published block per array, so a topology costs three segments
    whatever its depth: ``index`` concatenates every index array
    (parents, then each level and its parents, then each level's
    reduceat segments), ``bounds`` holds the offsets of those pieces,
    and ``values`` is the resistances followed by the capacitances.
    ``meta`` (node names, depth, which levels carry reduceat segments)
    rides along in the compact workspace descriptor.  Nothing is
    recomputed on the other side — the reconstruction is pure views,
    bit-identical to the original compile.
    """
    pieces = [topo.parents]
    for level, level_par in zip(topo.levels, topo.level_parents):
        pieces += [level, level_par]
    has_segments = []
    for seg in topo._segments:
        has_segments.append(seg is not None)
        if seg is not None:
            pieces.extend(seg)
    arrays = {
        "index": np.concatenate(pieces).astype(np.intp, copy=False),
        "bounds": np.cumsum([0] + [len(piece) for piece in pieces]),
        "values": np.concatenate([topo.resistances, topo.capacitances]),
    }
    meta = {
        "node_names": list(topo.node_names),
        "depth": topo.depth,
        "has_segments": has_segments,
    }
    return arrays, meta


def topology_from_arrays(
    arrays: Dict[str, np.ndarray], meta: Dict[str, object]
) -> TreeTopology:
    """Rebuild a :class:`TreeTopology` from :func:`topology_to_arrays`.

    The arrays are sliced as-is (no copy, no recompile) — when they are
    zero-copy shared-memory views, the reconstructed topology reads the
    parent's pages directly.  Views are marked read-only to mirror the
    compile-time immutability contract.
    """
    depth = int(meta["depth"])  # type: ignore[arg-type]
    has_segments = list(meta["has_segments"])  # type: ignore[arg-type]
    names = list(meta["node_names"])  # type: ignore[arg-type]

    def _ro(arr: np.ndarray) -> np.ndarray:
        if arr.flags.writeable:
            arr = arr.view()
            arr.setflags(write=False)
        return arr

    index = _ro(arrays["index"])
    bounds = arrays["bounds"].tolist()
    pieces = [index[a:b] for a, b in zip(bounds, bounds[1:])]
    rest = iter(pieces[2 * depth + 1:])
    values = _ro(arrays["values"])
    return TreeTopology(
        parents=pieces[0],
        levels=tuple(pieces[1:2 * depth + 1:2]),
        level_parents=tuple(pieces[2:2 * depth + 2:2]),
        node_names=tuple(names),
        resistances=values[:len(names)],
        capacitances=values[len(names):],
        _segments=tuple(  # type: ignore[arg-type]
            tuple(next(rest) for _ in range(4)) if has else None
            for has in has_segments
        ),
    )


def _as_topology(tree: Union[RCTree, TreeTopology]) -> TreeTopology:
    if isinstance(tree, TreeTopology):
        return tree
    return compile_topology(tree)


def batch_elmore_delays(
    tree: Union[RCTree, TreeTopology],
    resistances: Optional[np.ndarray] = None,
    capacitances: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Elmore delays for B parameter sets at once: ``(B, N)`` out.

    The batched form of :func:`repro.core.elmore.elmore_delays`: one
    post-order sweep accumulates downstream capacitance, one pre-order
    sweep accumulates ``R_i * Cdown_i`` along every root path — for the
    whole batch simultaneously.
    """
    topo = _as_topology(tree)
    with _span("batch.elmore_delays", metric="batch_sweep_seconds",
               N=topo.num_nodes) as sp:
        r, c = topo.broadcast_parameters(resistances, capacitances)
        sp.set_attribute("B", r.shape[0])
        _SWEEPS.inc()
        _SWEEP_ROWS.inc(r.shape[0])
        with _span("batch.level_sweeps", depth=topo.depth):
            work = topo._to_workspace(c)
            topo._subtree_sums_T(work)
            work *= np.ascontiguousarray(r.T)
            topo._rootpath_sums_T(work)
        return np.ascontiguousarray(work.T)


def batch_transfer_moments(
    tree: Union[RCTree, TreeTopology],
    order: int,
    resistances: Optional[np.ndarray] = None,
    capacitances: Optional[np.ndarray] = None,
) -> "BatchMoments":
    """Transfer coefficients ``m_0..m_order`` for B parameter sets.

    The batched form of :func:`repro.core.moments.transfer_moments`: per
    order, one post-order sweep forms the subtree capacitive currents and
    one pre-order sweep propagates ``m_q = m_q(parent) - R_i * I_q``.

    Returns a :class:`BatchMoments` whose coefficient array has shape
    ``(order + 1, B, N)``.
    """
    if not isinstance(order, (int, np.integer)) or isinstance(order, bool):
        raise ValidationError(f"order must be an integer >= 1, got {order!r}")
    if order < 1:
        raise ValidationError(f"order must be >= 1, got {order!r}")
    topo = _as_topology(tree)
    with _span("batch.transfer_moments", metric="batch_sweep_seconds",
               N=topo.num_nodes, order=order) as sp:
        r, c = topo.broadcast_parameters(resistances, capacitances)
        b = max(r.shape[0], c.shape[0])
        sp.set_attribute("B", b)
        _SWEEPS.inc()
        _SWEEP_ROWS.inc(b)
        n = topo.num_nodes
        r_t = np.ascontiguousarray(r.T)
        c_t = np.ascontiguousarray(c.T)
        coeffs = np.zeros((order + 1, b, n), dtype=np.float64)
        coeffs[0] = 1.0
        prev = np.ones((n, b), dtype=np.float64)
        for q in range(1, order + 1):
            with _span("batch.moment_sweep", q=q, depth=topo.depth):
                currents = c_t * prev
                topo._subtree_sums_T(currents)
                prev = -r_t * currents
                topo._rootpath_sums_T(prev)
                coeffs[q] = prev.T
        return BatchMoments(topology=topo, coefficients=coeffs)


def batch_delay_bounds(
    tree: Union[RCTree, TreeTopology],
    resistances: Optional[np.ndarray] = None,
    capacitances: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """The paper's step-input bound pair for B parameter sets.

    Returns ``(lower, upper)`` arrays of shape ``(B, N)``:
    ``upper = T_D`` (Theorem) and ``lower = max(T_D - sigma, 0)``
    (Corollary 1), per batch row and node.
    """
    moments = batch_transfer_moments(
        tree, 2, resistances=resistances, capacitances=capacitances
    )
    return moments.delay_bounds()


@dataclass(frozen=True)
class BatchMoments:
    """Per-node transfer coefficients for a batch of parameter sets.

    The batched analogue of
    :class:`repro.core.moments.TransferMoments`: ``coefficients[q, b, i]``
    is ``m_q`` at node ``i`` for batch row ``b``; all derived quantities
    come back as ``(B, N)`` arrays (or ``(B,)`` for a single node).
    """

    topology: TreeTopology
    coefficients: np.ndarray

    @property
    def order(self) -> int:
        """Highest computed moment order."""
        return self.coefficients.shape[0] - 1

    @property
    def batch_size(self) -> int:
        """Number of parameter sets evaluated."""
        return self.coefficients.shape[1]

    @property
    def num_nodes(self) -> int:
        """Number of tree nodes."""
        return self.coefficients.shape[2]

    def _node_index(self, node: Union[str, int]) -> int:
        if isinstance(node, str):
            return self.topology.index_of(node)
        return int(node)

    def _require_order(self, q: int) -> None:
        if self.order < q:
            raise AnalysisError(
                f"moment order {q} requested but only {self.order} computed"
            )

    # ------------------------------------------------------------------
    # (B, N) derived quantities
    # ------------------------------------------------------------------
    def elmore_delays(self) -> np.ndarray:
        """Elmore delay ``T_D = -m_1`` per batch row and node, ``(B, N)``."""
        return -self.coefficients[1]

    def variance(self) -> np.ndarray:
        """Second central moment ``mu_2 = 2 m_2 - m_1^2``, ``(B, N)``."""
        self._require_order(2)
        m1 = self.coefficients[1]
        m2 = self.coefficients[2]
        return 2.0 * m2 - m1 * m1

    def sigma(self) -> np.ndarray:
        """``sqrt(mu_2)`` with roundoff negatives clipped, ``(B, N)``."""
        return np.sqrt(np.maximum(self.variance(), 0.0))

    def third_central_moment(self) -> np.ndarray:
        """``mu_3 = -6 m_3 + 6 m_1 m_2 - 2 m_1^3``, ``(B, N)``."""
        self._require_order(3)
        m1 = self.coefficients[1]
        m2 = self.coefficients[2]
        m3 = self.coefficients[3]
        return -6.0 * m3 + 6.0 * m1 * m2 - 2.0 * m1**3

    def skewness(self) -> np.ndarray:
        """Coefficient of skewness ``gamma = mu_3 / mu_2^1.5``, ``(B, N)``.

        Zero-variance nodes get ``gamma = 0`` (a point mass has no skew).
        """
        mu2 = self.variance()
        mu3 = self.third_central_moment()
        safe = np.where(mu2 > 0.0, mu2, 1.0)
        return np.where(mu2 > 0.0, mu3 / safe**1.5, 0.0)

    def raw_moments(self) -> np.ndarray:
        """Distribution moments ``M_q = (-1)^q q! m_q``,
        shape ``(order + 1, B, N)``."""
        q = np.arange(self.order + 1)
        scale = np.where(q % 2 == 0, 1.0, -1.0) * np.array(
            [math.factorial(int(v)) for v in q], dtype=np.float64
        )
        return scale[:, None, None] * self.coefficients

    def delay_bounds(self) -> Tuple[np.ndarray, np.ndarray]:
        """Step-input ``(lower, upper)`` bound arrays, each ``(B, N)``."""
        upper = self.elmore_delays()
        lower = np.maximum(upper - self.sigma(), 0.0)
        return lower, upper

    # ------------------------------------------------------------------
    # Single-node views (each (B,))
    # ------------------------------------------------------------------
    def at(self, node: Union[str, int]) -> np.ndarray:
        """Coefficients ``m_0..m_order`` at ``node``: ``(order + 1, B)``."""
        return self.coefficients[:, :, self._node_index(node)].copy()

    def mean(self, node: Union[str, int]) -> np.ndarray:
        """Elmore delay at ``node`` per batch row, ``(B,)``."""
        return -self.coefficients[1, :, self._node_index(node)]
