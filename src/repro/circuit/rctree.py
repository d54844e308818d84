"""The RC-tree circuit model.

An *RC tree* (Penfield & Rubinstein [18], Rubinstein/Penfield/Horowitz [23])
is an RC circuit with

* capacitors from every node to ground,
* no capacitors between non-ground nodes,
* no resistors connected to ground,

whose resistors form a tree rooted at the input node.  The input node is
driven by an ideal voltage source; the first resistor out of the input node
typically models the (linearized) driving gate's output resistance, as in
Fig. 1 of the paper.

This module stores the tree in flat array form (parent pointers + per-node
edge resistance and grounded capacitance), which makes the O(N) path-tracing
algorithms of the paper (Sec. II-C) and the moment recursions
(:mod:`repro.core.moments`) direct array walks.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro._exceptions import TopologyError, ValidationError

__all__ = ["RCTree", "NodeView"]


@dataclass(frozen=True)
class NodeView:
    """Read-only snapshot of one tree node, returned by :meth:`RCTree.node`.

    Attributes
    ----------
    name:
        Node name.
    index:
        Dense integer index of the node (0-based, insertion order).
    parent:
        Name of the parent node, or ``None`` for the input node.
    resistance:
        Resistance of the edge connecting this node to its parent (ohms).
        Zero for the input node, which has no parent edge.
    capacitance:
        Grounded capacitance at this node (farads).
    depth:
        Number of resistor edges between the input node and this node.
    """

    name: str
    index: int
    parent: Optional[str]
    resistance: float
    capacitance: float
    depth: int


def _check_element(name: str, resistance: float, capacitance: float) -> None:
    """Raise :meth:`RCTree.add_node`'s error for a bad edge R or node C."""
    if not (resistance > 0.0):
        raise ValidationError(
            f"edge into node {name!r} must have R > 0, got {resistance!r}"
        )
    if not math.isfinite(resistance):
        raise ValidationError(f"edge into node {name!r} has non-finite R")
    if capacitance < 0.0 or not math.isfinite(capacitance):
        raise ValidationError(
            f"node {name!r} must have finite C >= 0, got {capacitance!r}"
        )


def checked_load(name: str, capacitance: float) -> float:
    """``float(capacitance)`` if it is a legal pin load (finite, >= 0);
    otherwise :meth:`RCTree.add_load`'s :class:`ValidationError`."""
    if not 0.0 <= capacitance < math.inf:
        raise ValidationError(
            f"load at {name!r} must be finite and >= 0, got {capacitance!r}"
        )
    return float(capacitance)


def _all_legal(resistances: List[float], capacitances: List[float]) -> bool:
    """True when every R is finite and > 0 and every C finite and >= 0.

    A NaN or infinity makes its list's sum non-finite, so ``min`` only
    sees finite values when it decides the sign; a sum that merely
    overflows sends the caller to the exact per-node check.
    """
    if not resistances:
        return True
    r_sum, c_sum = sum(resistances), sum(capacitances)
    return (r_sum < math.inf and c_sum < math.inf and min(resistances) > 0.0
            and min(capacitances) >= 0.0)


def _raise_first_fault(input_node, names, parents, resistances,
                       capacitances) -> None:
    """Raise :meth:`RCTree.add_node`'s error for the first offending node
    of a flat tree, checks in ``add_node``'s order."""
    seen = {input_node}
    for i, (name, p, r, c) in enumerate(
            zip(names, parents, resistances, capacitances)):
        if not name:
            raise ValidationError("node needs a non-empty name")
        if name in seen:
            raise TopologyError(f"node {name!r} already exists in the tree")
        if not -1 <= p < i:
            raise TopologyError(
                f"parent index {p} of node {name!r} does not precede it"
            )
        if not (0.0 < r < math.inf and 0.0 <= c < math.inf):
            _check_element(name, r, c)
        seen.add(name)


def check_elements(
    names: Sequence[str],
    resistances: Iterable[float],
    capacitances: Iterable[float],
) -> None:
    """Raise :meth:`RCTree.add_node`'s error for the first node (in index
    order) with a bad R or C; return quietly when every one is legal."""
    for name, r, c in zip(names, resistances, capacitances):
        if not (0.0 < r < math.inf and 0.0 <= c < math.inf):
            _check_element(name, r, c)


class RCTree:
    """A rooted RC tree with an ideal voltage source at the root.

    The root (input) node carries the driving source; every other node is
    attached to its parent through a resistor and carries a grounded
    capacitor (possibly of zero value).

    Examples
    --------
    Build the three-segment line ``in -R1- n1 -R2- n2 -R3- n3``:

    >>> tree = RCTree("in")
    >>> tree.add_node("n1", "in", resistance=100.0, capacitance=1e-12)
    >>> tree.add_node("n2", "n1", resistance=100.0, capacitance=1e-12)
    >>> tree.add_node("n3", "n2", resistance=100.0, capacitance=1e-12)
    >>> tree.num_nodes
    3
    >>> tree.path_resistance("n3")
    300.0
    """

    def __init__(self, input_node: str = "in") -> None:
        if not input_node:
            raise ValidationError("input node needs a non-empty name")
        self._input = input_node
        self._names: List[str] = []
        self._index: Dict[str, int] = {}
        self._parent: List[int] = []          # parent index; -1 => input node
        self._resistance: List[float] = []    # edge R to parent
        self._capacitance: List[float] = []   # grounded C at node
        # (children, root children, depth) per node, derived from the
        # parent pointers; ``None`` until first needed (see _links).
        self._links_cache: Optional[
            Tuple[List[List[int]], List[int], List[int]]] = ([], [], [])
        # Caches invalidated on mutation.
        self._cache: Dict[str, object] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_node(
        self,
        name: str,
        parent: str,
        resistance: float,
        capacitance: float = 0.0,
    ) -> None:
        """Attach a new node to ``parent`` through a resistor.

        Parameters
        ----------
        name:
            Unique name for the new node.  Must differ from the input node
            and from all existing nodes.
        parent:
            Name of an existing node (or the input node) to attach to.
        resistance:
            Edge resistance in ohms, strictly positive (RC trees have no
            zero-ohm edges; collapse such nodes instead).
        capacitance:
            Grounded capacitance at the new node in farads, ``>= 0``.

        Raises
        ------
        TopologyError
            If ``name`` already exists or ``parent`` is unknown.
        ValidationError
            If ``resistance <= 0`` or ``capacitance < 0``.
        """
        if not name:
            raise ValidationError("node needs a non-empty name")
        if name == self._input or name in self._index:
            raise TopologyError(f"node {name!r} already exists in the tree")
        if parent != self._input and parent not in self._index:
            raise TopologyError(
                f"parent {parent!r} of node {name!r} is not in the tree"
            )
        _check_element(name, resistance, capacitance)

        idx = len(self._names)
        self._names.append(name)
        self._index[name] = idx
        pidx = -1 if parent == self._input else self._index[parent]
        self._parent.append(pidx)
        if self._links_cache is not None:
            children, roots, depth = self._links_cache
            children.append([])
            if pidx < 0:
                roots.append(idx)
                depth.append(1)
            else:
                children[pidx].append(idx)
                depth.append(depth[pidx] + 1)
        self._resistance.append(float(resistance))
        self._capacitance.append(float(capacitance))
        self._cache.clear()

    def set_capacitance(self, name: str, capacitance: float) -> None:
        """Replace the grounded capacitance at node ``name``."""
        if capacitance < 0.0 or not math.isfinite(capacitance):
            raise ValidationError(
                f"node {name!r} must have finite C >= 0, got {capacitance!r}"
            )
        self._capacitance[self.index_of(name)] = float(capacitance)
        self._cache.clear()

    def add_load(self, name: str, capacitance: float) -> None:
        """Add ``capacitance`` on top of the existing cap at node ``name``.

        This is how gate input (pin) loads are attached to a routed net.
        """
        self._capacitance[self.index_of(name)] += checked_load(
            name, capacitance
        )
        self._cache.clear()

    def set_resistance(self, name: str, resistance: float) -> None:
        """Replace the resistance of the edge feeding node ``name``."""
        if not (resistance > 0.0) or not math.isfinite(resistance):
            raise ValidationError(
                f"edge into node {name!r} must have finite R > 0, "
                f"got {resistance!r}"
            )
        self._resistance[self.index_of(name)] = float(resistance)
        self._cache.clear()

    def _links(self) -> Tuple[List[List[int]], List[int], List[int]]:
        """``(children, root children, depth)`` of every node, derived
        from the parent pointers on first use (parents precede children)."""
        if self._links_cache is None:
            n = len(self._names)
            children: List[List[int]] = [[] for _ in range(n)]
            roots: List[int] = []
            depth = [1] * n
            for i, p in enumerate(self._parent):
                if p < 0:
                    roots.append(i)
                else:
                    children[p].append(i)
                    depth[i] = depth[p] + 1
            self._links_cache = (children, roots, depth)
        return self._links_cache

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def input_node(self) -> str:
        """Name of the input (source-driven) node."""
        return self._input

    @property
    def num_nodes(self) -> int:
        """Number of internal nodes (excluding the input node)."""
        return len(self._names)

    @property
    def node_names(self) -> Tuple[str, ...]:
        """Node names in index (insertion) order."""
        return tuple(self._names)

    def __contains__(self, name: object) -> bool:
        return name == self._input or name in self._index

    def __len__(self) -> int:
        return len(self._names)

    def index_of(self, name: str) -> int:
        """Dense integer index for node ``name``.

        The input node has no index (it is not a state node); asking for it
        raises :class:`TopologyError`.
        """
        if name == self._input:
            raise TopologyError(
                f"the input node {name!r} has no dense index; "
                "only internal nodes are indexed"
            )
        try:
            return self._index[name]
        except KeyError:
            raise TopologyError(f"unknown node {name!r}") from None

    def name_of(self, index: int) -> str:
        """Node name for dense index ``index``."""
        return self._names[index]

    def node(self, name: str) -> NodeView:
        """Read-only view of one node."""
        i = self.index_of(name)
        p = self._parent[i]
        return NodeView(
            name=name,
            index=i,
            parent=self._input if p < 0 else self._names[p],
            resistance=self._resistance[i],
            capacitance=self._capacitance[i],
            depth=self._links()[2][i],
        )

    def parent_of(self, name: str) -> str:
        """Name of the parent of ``name`` (the input node for depth-1 nodes)."""
        p = self._parent[self.index_of(name)]
        return self._input if p < 0 else self._names[p]

    def children_of(self, name: str) -> Tuple[str, ...]:
        """Names of the children of ``name`` (accepts the input node)."""
        children, roots, _ = self._links()
        if name == self._input:
            return tuple(self._names[i] for i in roots)
        return tuple(self._names[i] for i in children[self.index_of(name)])

    def leaves(self) -> Tuple[str, ...]:
        """Names of all leaf nodes (nodes with no children)."""
        children = self._links()[0]
        return tuple(
            self._names[i] for i in range(len(self._names)) if not children[i]
        )

    def depth_of(self, name: str) -> int:
        """Number of resistor edges from the input node to ``name``."""
        if name == self._input:
            return 0
        return self._links()[2][self.index_of(name)]

    # ------------------------------------------------------------------
    # Array views (used by the analysis engines)
    # ------------------------------------------------------------------
    @property
    def resistances(self) -> np.ndarray:
        """Per-node parent-edge resistance, shape ``(num_nodes,)``."""
        return self._cached_array("resistances", self._resistance)

    @property
    def capacitances(self) -> np.ndarray:
        """Per-node grounded capacitance, shape ``(num_nodes,)``."""
        return self._cached_array("capacitances", self._capacitance)

    @property
    def parents(self) -> np.ndarray:
        """Parent index per node (``-1`` for children of the input node)."""
        return self._cached_array("parents", self._parent, dtype=np.int64)

    @property
    def depths(self) -> np.ndarray:
        """Depth (edge count from input) per node."""
        return self._cached_array("depths", self._links()[2], dtype=np.int64)

    def to_arrays(
        self,
    ) -> Tuple[List[str], List[int], List[float], List[float]]:
        """``(names, parents, resistances, capacitances)`` as fresh lists,
        parents as indices (``-1`` = the input node): the inverse of
        :meth:`from_arrays`."""
        return (list(self._names), list(self._parent),
                list(self._resistance), list(self._capacitance))

    def _cached_array(self, key: str, values: Sequence, dtype=np.float64) -> np.ndarray:
        arr = self._cache.get(key)
        if arr is None:
            arr = np.asarray(values, dtype=dtype)
            arr.setflags(write=False)
            self._cache[key] = arr
        return arr  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # Traversal orders
    # ------------------------------------------------------------------
    def topological_order(self) -> np.ndarray:
        """Node indices in parent-before-child order.

        Because :meth:`add_node` requires the parent to exist first,
        insertion order *is* a topological order.
        """
        order = self._cache.get("topo")
        if order is None:
            order = np.arange(len(self._names), dtype=np.int64)
            order.setflags(write=False)
            self._cache["topo"] = order
        return order  # type: ignore[return-value]

    def reverse_topological_order(self) -> np.ndarray:
        """Node indices in child-before-parent order."""
        order = self._cache.get("rtopo")
        if order is None:
            order = np.arange(len(self._names) - 1, -1, -1, dtype=np.int64)
            order.setflags(write=False)
            self._cache["rtopo"] = order
        return order  # type: ignore[return-value]

    def iter_preorder(self) -> Iterator[str]:
        """Yield node names in depth-first pre-order from the input node."""
        children, roots, _ = self._links()
        stack = list(reversed(roots))
        while stack:
            i = stack.pop()
            yield self._names[i]
            stack.extend(reversed(children[i]))

    def path_to_root(self, name: str) -> List[str]:
        """Node names from ``name`` up to (excluding) the input node."""
        path = []
        i = self.index_of(name)
        while i >= 0:
            path.append(self._names[i])
            i = self._parent[i]
        return path

    def subtree_nodes(self, name: str) -> List[str]:
        """Names of all nodes in the subtree rooted at ``name`` (inclusive)."""
        children = self._links()[0]
        result = []
        stack = [self.index_of(name)]
        while stack:
            i = stack.pop()
            result.append(self._names[i])
            stack.extend(children[i])
        return result

    # ------------------------------------------------------------------
    # Path resistances (the R_ki of eq. (4))
    # ------------------------------------------------------------------
    def path_resistance(self, name: str) -> float:
        """Total resistance of the unique input-to-``name`` path (R_ii)."""
        if name == self._input:
            return 0.0
        return float(self.path_resistances()[self.index_of(name)])

    def path_resistances(self) -> np.ndarray:
        """``R_ii`` for every node: resistance of the input-to-node path."""
        arr = self._cache.get("path_res")
        if arr is None:
            n = len(self._names)
            out = np.empty(n, dtype=np.float64)
            parent = self._parent
            res = self._resistance
            for i in range(n):  # topological: parent already done
                p = parent[i]
                out[i] = res[i] + (out[p] if p >= 0 else 0.0)
            out.setflags(write=False)
            self._cache["path_res"] = out
            arr = out
        return arr  # type: ignore[return-value]

    def shared_path_resistance(self, name_k: str, name_i: str) -> float:
        """``R_ki``: resistance of the common portion of the input->k and
        input->i paths (eq. (4) of the paper).

        Equals the path resistance of the lowest common ancestor of the two
        nodes.
        """
        i = self.index_of(name_i)
        k = self.index_of(name_k)
        # Walk the deeper node up until depths match, then walk both.
        depth = self._links()[2]
        di, dk = depth[i], depth[k]
        while di > dk:
            i = self._parent[i]
            di -= 1
        while dk > di:
            k = self._parent[k]
            dk -= 1
        while i != k:
            if i < 0:  # diverged all the way to the input node
                return 0.0
            i = self._parent[i]
            k = self._parent[k]
        if i < 0:
            return 0.0
        return float(self.path_resistances()[i])

    def total_capacitance(self) -> float:
        """Sum of all grounded capacitances in the tree (farads)."""
        return float(self.capacitances.sum())

    # ------------------------------------------------------------------
    # Validation & misc
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check semantic invariants beyond what construction enforces.

        Raises
        ------
        ValidationError
            If the tree is empty or carries no capacitance anywhere (such a
            tree has no dynamics and no meaningful delay).
        """
        if not self._names:
            raise ValidationError("RC tree has no nodes")
        if self.total_capacitance() <= 0.0:
            raise ValidationError("RC tree carries no capacitance")

    def copy(self) -> "RCTree":
        """Deep copy of the tree."""
        return RCTree.from_arrays(
            self._input, self._names, self._parent, self._resistance,
            self._capacitance,
        )

    def scaled(self, r_scale: float = 1.0, c_scale: float = 1.0) -> "RCTree":
        """Return a copy with all resistances/capacitances scaled.

        Useful for unit changes and for sweeping a design along an
        iso-topology family (Elmore delays scale by ``r_scale * c_scale``).
        """
        if not (r_scale > 0.0) or not (c_scale >= 0.0):
            raise ValidationError("scale factors must be positive")
        return RCTree.from_arrays(
            self._input, self._names, self._parent,
            self.resistances * r_scale, self.capacitances * c_scale,
        )

    def __repr__(self) -> str:
        return (
            f"RCTree(input={self._input!r}, nodes={self.num_nodes}, "
            f"Ctotal={self.total_capacitance():.4g}F)"
        )

    # ------------------------------------------------------------------
    # Alternate constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_arrays(
        cls,
        input_node: str,
        names: Sequence[str],
        parents: Sequence[int],
        resistances: Sequence[float],
        capacitances: Sequence[float],
    ) -> "RCTree":
        """Build a tree in bulk from flat parent-pointer arrays.

        Node ``i`` is called ``names[i]``, hangs off node ``parents[i]``
        (``-1`` = the input node) through ``resistances[i]`` ohms and
        carries ``capacitances[i]`` farads to ground.  One validation pass
        enforces every :meth:`add_node` invariant and raises the same
        exception types: names non-empty and unique (and not the input
        node), each parent before its child, R finite and > 0, C finite
        and >= 0.  The result equals the tree built by calling
        :meth:`add_node` for ``i = 0, 1, ...`` in turn.

        Raises
        ------
        TopologyError
            A duplicate name, or a parent index not before its child.
        ValidationError
            An empty name, mismatched lengths, or a bad R or C.
        """
        tree = cls(input_node)
        names = list(names)
        if isinstance(parents, np.ndarray):  # e.g. another tree's arrays
            parent = parents.tolist()
            res = np.asarray(resistances, dtype=np.float64).tolist()
            cap = np.asarray(capacitances, dtype=np.float64).tolist()
        else:
            parent = list(map(int, parents))
            res = list(map(float, resistances))
            cap = list(map(float, capacitances))
        n = len(names)
        if not len(parent) == len(res) == len(cap) == n:
            raise ValidationError(
                f"{n} node names need {n} parents, resistances and "
                f"capacitances, got {len(parent)}, {len(res)} and "
                f"{len(cap)}"
            )
        index = dict(zip(names, range(n)))
        if not (len(index) == n and input_node not in index
                and "" not in index and (not parent or min(parent) >= -1)
                and all(map(operator.lt, parent, range(n)))
                and _all_legal(res, cap)):
            _raise_first_fault(input_node, names, parent, res, cap)
        tree._names = names
        tree._index = index
        tree._parent = parent
        tree._resistance = res
        tree._capacitance = cap
        tree._links_cache = None
        return tree

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[Tuple[str, str, float]],
        capacitances: Dict[str, float],
        input_node: str = "in",
    ) -> "RCTree":
        """Build a tree from ``(parent, child, resistance)`` edges.

        Edges may be listed in any order; they are sorted topologically
        before insertion.

        Parameters
        ----------
        edges:
            Iterable of ``(parent, child, resistance)`` triples forming a
            tree rooted at ``input_node``.
        capacitances:
            Mapping from node name to grounded capacitance.  Nodes not in
            the mapping get zero capacitance.
        input_node:
            Name of the root/input node.
        """
        pending: Dict[str, Tuple[str, float]] = {}
        for parent, child, res in edges:
            if child in pending:
                raise TopologyError(f"node {child!r} has two parent edges")
            pending[child] = (parent, res)
        if input_node in pending:
            raise TopologyError("the input node cannot have a parent edge")

        tree = cls(input_node)
        # Repeatedly insert nodes whose parent is already present.
        remaining = dict(pending)
        while remaining:
            progressed = False
            for child in list(remaining):
                parent, res = remaining[child]
                if parent == input_node or parent in tree:
                    tree.add_node(
                        child, parent, res, capacitances.get(child, 0.0)
                    )
                    del remaining[child]
                    progressed = True
            if not progressed:
                orphans = sorted(remaining)
                raise TopologyError(
                    "edges do not form a tree rooted at "
                    f"{input_node!r}; unreachable nodes: {orphans}"
                )
        for name in capacitances:
            if name != input_node and name not in tree:
                raise TopologyError(
                    f"capacitance given for unknown node {name!r}"
                )
        return tree
