"""Elmore-delay sensitivities — the gradients design optimizers need.

The Elmore delay at node ``i`` decomposes over the root path as

    T_D_i = sum_{e in path(i)} R_e * Cdown(e)

(``Cdown(e)`` = capacitance in the subtree fed by edge ``e``), which makes
the exact sensitivities closed-form and O(N):

    dT_D_i / dR_e = Cdown(e)   if e lies on the input->i path, else 0
    dT_D_i / dC_k = R_ki       (the shared path resistance)

:func:`elmore_sensitivity` walks one node of an :class:`RCTree`;
:func:`elmore_sensitivity_arrays` gives the same rows for several nodes
at once from flat parent/R/C arrays, with no tree built.

These derivatives are the reason Elmore-based optimization (wire sizing,
buffer placement, placement-driven net weighting) is tractable: the paper's
bound guarantee means optimizing this differentiable surrogate optimizes a
certified upper bound of the real delay.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

from repro.circuit.rctree import RCTree
from repro.core.elmore import downstream_capacitance

__all__ = [
    "ElmoreSensitivity",
    "elmore_sensitivity",
    "elmore_sensitivity_arrays",
    "total_elmore_gradient",
]


@dataclass(frozen=True)
class ElmoreSensitivity:
    """Exact first-order sensitivities of one node's Elmore delay.

    Attributes
    ----------
    tree:
        The analyzed tree.
    node:
        Target node name.
    dR:
        ``dT_D/dR_e`` per edge (indexed by the edge's child node, in
        node-index order).  Nonzero only on the root path.
    dC:
        ``dT_D/dC_k`` per node, in node-index order (= ``R_ki``).
    """

    tree: RCTree
    node: str
    dR: np.ndarray
    dC: np.ndarray

    def resistance_sensitivity(self, edge_child: str) -> float:
        """``dT_D/dR`` of the edge feeding ``edge_child``."""
        return float(self.dR[self.tree.index_of(edge_child)])

    def capacitance_sensitivity(self, at_node: str) -> float:
        """``dT_D/dC`` of the grounded cap at ``at_node``."""
        return float(self.dC[self.tree.index_of(at_node)])

    def predict_delta(
        self,
        resistance_deltas: Dict[str, float] = None,
        capacitance_deltas: Dict[str, float] = None,
    ) -> float:
        """First-order T_D change for the given element perturbations.

        Because ``T_D`` is *bilinear* in (R, C), the first-order model is
        exact when only resistances or only capacitances change, and the
        only missing term for joint changes is ``sum dR * dC`` over
        interacting pairs.
        """
        delta = 0.0
        for name, d in (resistance_deltas or {}).items():
            delta += self.resistance_sensitivity(name) * d
        for name, d in (capacitance_deltas or {}).items():
            delta += self.capacitance_sensitivity(name) * d
        return delta


def elmore_sensitivity(tree: RCTree, node: str) -> ElmoreSensitivity:
    """Compute exact ``dT_D(node)/dR`` and ``dT_D(node)/dC`` in O(N)."""
    tree.validate()
    n = tree.num_nodes
    cdown = downstream_capacitance(tree)
    d_r = np.zeros(n, dtype=np.float64)
    on_path = np.zeros(n, dtype=bool)
    # Root path of the target node.
    i = tree.index_of(node)
    parents = tree.parents
    while i >= 0:
        d_r[i] = cdown[i]
        on_path[i] = True
        i = parents[i]
    # dT_D/dC_k = R_ki: path resistance of the lowest common ancestor.
    # One O(N) pass: R_ki = path resistance accumulated only over edges
    # shared with the target's root path.
    path_res = tree.path_resistances()
    d_c = np.empty(n, dtype=np.float64)
    for k in range(n):
        p = parents[k]
        upstream = d_c[p] if p >= 0 else 0.0
        if on_path[k]:
            d_c[k] = path_res[k]
        else:
            d_c[k] = upstream
    return ElmoreSensitivity(tree=tree, node=node, dR=d_r, dC=d_c)


def elmore_sensitivity_arrays(
    parents: Sequence[int],
    resistances: Sequence[float],
    capacitances: Sequence[float],
    nodes: Sequence[int],
) -> Tuple[np.ndarray, np.ndarray]:
    """``dT_D/dR`` and ``dT_D/dC`` of several nodes from flat arrays.

    The tree is given as :meth:`RCTree.from_arrays` takes it: node ``i``
    hangs off ``parents[i] < i`` (``-1`` = the input node) through
    ``resistances[i] > 0``.  Returns two ``(len(nodes), N)`` arrays whose
    row ``s`` is :func:`elmore_sensitivity`'s ``dR`` and ``dC`` of node
    index ``nodes[s]``:

    * ``dR[s, e] = Cdown(e)`` when ``e`` lies on the root path of the
      node, else 0;
    * ``dC[s, k]`` = the resistance the root paths of the node and of
      ``k`` share: the path resistance of their deepest common node.
    """
    n = len(parents)
    path_res = [0.0] * n
    for i, p in enumerate(parents):
        path_res[i] = resistances[i] + (path_res[p] if p >= 0 else 0.0)
    cdown = list(capacitances)
    for i in range(n - 1, -1, -1):
        if parents[i] >= 0:
            cdown[parents[i]] += cdown[i]
    # on_path[s, k]: node k lies on the root path of node nodes[s].
    on_path = np.zeros((len(nodes), n), dtype=bool)
    for s, i in enumerate(nodes):
        path = []
        while i >= 0:
            path.append(i)
            i = parents[i]
        on_path[s, path] = True
    d_r = on_path * np.array(cdown, dtype=np.float64)
    # One parent-ordered pass, node-major: d_c[s, k] is path_res[k] when
    # k is on the path, else d_c[s, parent(k)] (0 at the root).  Path
    # resistance grows with depth, so that is the max of the two.
    d_c = (on_path * np.array(path_res, dtype=np.float64)).T.copy()
    for k, p in enumerate(parents):
        if p >= 0:
            np.maximum(d_c[k], d_c[p], out=d_c[k])
    d_c = np.ascontiguousarray(d_c.T)
    return d_r, d_c


def total_elmore_gradient(
    tree: RCTree, weights: Dict[str, float]
) -> Dict[str, np.ndarray]:
    """Gradient of a weighted sum of Elmore delays over several sinks.

    Parameters
    ----------
    tree:
        The RC tree.
    weights:
        ``{sink node: weight}``; the objective is
        ``sum_w weights[s] * T_D(s)`` (e.g. criticality-weighted sinks in
        performance-driven routing).

    Returns
    -------
    dict with keys ``"dR"`` and ``"dC"``, each an array over node indices.
    """
    n = tree.num_nodes
    grad_r = np.zeros(n, dtype=np.float64)
    grad_c = np.zeros(n, dtype=np.float64)
    for sink, weight in weights.items():
        sens = elmore_sensitivity(tree, sink)
        grad_r += weight * sens.dR
        grad_c += weight * sens.dC
    return {"dR": grad_r, "dC": grad_c}
