"""Modified nodal analysis (MNA) matrices for RC trees.

The tree's node voltages (input node excluded — it is pinned by the ideal
source) satisfy

    C dv/dt + G v = b * v_in(t)

where ``G`` is the resistor conductance matrix with the source node
eliminated, ``C`` the diagonal capacitance matrix and ``b`` the conductance
coupling into the input node.  In the Laplace domain with a unit source,
``(G + s C) V(s) = b``, whose Maclaurin expansion gives an independent way
to compute the transfer coefficients:

    G m_0 = b,       G m_q = -C m_{q-1}   (q >= 1).

That LU-based path is O(N^3)/O(N^2) instead of the O(N) tree recursion of
:mod:`repro.core.moments`; it exists as a structural cross-check and to
support future non-tree RC extensions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._exceptions import AnalysisError
from repro.circuit.rctree import RCTree

__all__ = ["MNASystem", "build_mna", "mna_transfer_moments"]


@dataclass(frozen=True)
class MNASystem:
    """Dense MNA matrices of an RC tree.

    Attributes
    ----------
    conductance:
        Symmetric ``(N, N)`` conductance matrix ``G`` (source eliminated).
    capacitance:
        Diagonal of the capacitance matrix, shape ``(N,)``.
    input_vector:
        ``b`` such that the source contributes ``b * v_in`` of current.
    """

    conductance: np.ndarray
    capacitance: np.ndarray
    input_vector: np.ndarray

    @property
    def size(self) -> int:
        """Number of internal nodes."""
        return self.conductance.shape[0]


def build_mna(tree: RCTree) -> MNASystem:
    """Stamp the ``G``/``C``/``b`` matrices for ``tree``.

    Each parent-edge resistor of conductance ``g`` stamps ``+g`` on both
    diagonal entries and ``-g`` off-diagonal; edges whose parent is the
    input node stamp their conductance into ``b`` instead.
    """
    tree.validate()
    n = tree.num_nodes
    g_matrix = np.zeros((n, n), dtype=np.float64)
    b = np.zeros(n, dtype=np.float64)
    parents = tree.parents
    conductances = 1.0 / tree.resistances
    for i in range(n):
        g = conductances[i]
        p = parents[i]
        g_matrix[i, i] += g
        if p >= 0:
            g_matrix[p, p] += g
            g_matrix[i, p] -= g
            g_matrix[p, i] -= g
        else:
            b[i] += g
    return MNASystem(
        conductance=g_matrix,
        capacitance=tree.capacitances.copy(),
        input_vector=b,
    )


def mna_transfer_moments(tree: RCTree, order: int) -> np.ndarray:
    """Transfer coefficients ``m_0..m_order`` at all nodes via MNA solves.

    Returns an array of shape ``(order + 1, N)`` matching
    :func:`repro.core.moments.transfer_moments` (which should agree to
    machine precision — this is the cross-check oracle).
    """
    import scipy.linalg

    if order < 0:
        raise AnalysisError(f"order must be >= 0, got {order!r}")
    system = build_mna(tree)
    try:
        lu, piv = scipy.linalg.lu_factor(system.conductance)
    except scipy.linalg.LinAlgError as exc:  # pragma: no cover - G is SPD
        raise AnalysisError("singular conductance matrix") from exc
    n = system.size
    out = np.zeros((order + 1, n), dtype=np.float64)
    out[0] = scipy.linalg.lu_solve((lu, piv), system.input_vector)
    for q in range(1, order + 1):
        rhs = -system.capacitance * out[q - 1]
        out[q] = scipy.linalg.lu_solve((lu, piv), rhs)
    return out
