"""General RC networks: beyond the tree hypothesis.

The paper's theorems are proven for RC *trees*: grounded caps only, no
grounded resistors, tree-structured resistors, one source.  This module
implements the general case — resistor meshes, resistors to ground,
floating (coupling) capacitors, multiple ideal sources — so the library
can both

* cross-check the tree engines on tree-shaped instances, and
* *demonstrate the boundary of the theorems*: with a switching aggressor
  coupled onto a victim net, the victim response is non-monotonic and the
  impulse "response" is not a density, so mean/median reasoning (and with
  it the Elmore bound) no longer applies — the classic crosstalk failure
  mode of tree-based timing.

The analysis machinery parallels :mod:`repro.analysis.state_space`: the
node equations ``C dv/dt + G v = sum_s b_s u_s(t)`` have symmetric ``C``
(PD when every node has a grounded cap) and SPD ``G`` (guaranteed when
every node reaches a source or ground resistively), so a symmetric
generalized eigenproblem yields exact pole/residue transfers per source
and responses by superposition.

Restrictions kept for clarity: every node must carry a grounded capacitor
(no algebraic nodes here), and coupling caps may not attach to source
nodes (that would differentiate the input).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro._exceptions import AnalysisError, TopologyError, ValidationError
from repro.analysis.state_space import PoleResidueTransfer
from repro.signals.base import Signal

__all__ = ["GeneralRCNetwork", "GeneralAnalysis"]


class GeneralRCNetwork:
    """A general linear RC network with ideal voltage sources.

    Examples
    --------
    A two-net coupling scenario::

        net = GeneralRCNetwork()
        net.add_source("agg_in")
        net.add_source("vic_in")
        net.add_node("agg", 50e-15)
        net.add_node("vic", 50e-15)
        net.add_resistor("agg_in", "agg", 200.0)
        net.add_resistor("vic_in", "vic", 200.0)
        net.add_coupling_capacitor("agg", "vic", 30e-15)
    """

    def __init__(self) -> None:
        self._sources: List[str] = []
        self._nodes: List[str] = []
        self._caps: Dict[str, float] = {}
        self._resistors: List[Tuple[str, str, float]] = []
        self._couplings: List[Tuple[str, str, float]] = []

    # ------------------------------------------------------------------
    def add_source(self, name: str) -> None:
        """Declare an ideal voltage-source node."""
        if not name:
            raise ValidationError("source needs a non-empty name")
        if name in self._sources or name in self._caps:
            raise TopologyError(f"name {name!r} already used")
        self._sources.append(name)

    def add_node(self, name: str, capacitance: float) -> None:
        """Add an internal node with a grounded capacitor (> 0)."""
        if not name:
            raise ValidationError("node needs a non-empty name")
        if name in self._sources or name in self._caps:
            raise TopologyError(f"name {name!r} already used")
        if not (capacitance > 0.0) or not np.isfinite(capacitance):
            raise ValidationError(
                "general nodes need a positive grounded capacitance"
            )
        self._nodes.append(name)
        self._caps[name] = float(capacitance)

    def add_resistor(self, node_a: str, node_b: str, resistance: float) -> None:
        """Connect two points (nodes, sources, or ground ``"0"``)."""
        if not (resistance > 0.0) or not np.isfinite(resistance):
            raise ValidationError("resistance must be finite and > 0")
        if node_a == node_b:
            raise ValidationError("resistor shorts a node to itself")
        for node in (node_a, node_b):
            if node != "0" and node not in self._caps and \
                    node not in self._sources:
                raise TopologyError(f"unknown endpoint {node!r}")
        self._resistors.append((node_a, node_b, float(resistance)))

    def add_coupling_capacitor(
        self, node_a: str, node_b: str, capacitance: float
    ) -> None:
        """Capacitor between two *internal* nodes."""
        if not (capacitance > 0.0) or not np.isfinite(capacitance):
            raise ValidationError("capacitance must be finite and > 0")
        if node_a == node_b:
            raise ValidationError("coupling cap shorts a node to itself")
        for node in (node_a, node_b):
            if node not in self._caps:
                raise TopologyError(
                    f"coupling caps need internal endpoints, got {node!r}"
                )
        self._couplings.append((node_a, node_b, float(capacitance)))

    # ------------------------------------------------------------------
    @property
    def sources(self) -> Tuple[str, ...]:
        """Declared source names."""
        return tuple(self._sources)

    @property
    def node_names(self) -> Tuple[str, ...]:
        """Internal node names."""
        return tuple(self._nodes)

    def index_of(self, name: str) -> int:
        """Dense index of an internal node."""
        try:
            return self._nodes.index(name)
        except ValueError:
            raise TopologyError(f"unknown node {name!r}") from None

    def assemble(self):
        """Build ``(G, C, B)`` with ``B[:, s]`` the coupling of source s."""
        if not self._nodes:
            raise ValidationError("network has no internal nodes")
        if not self._sources:
            raise ValidationError("network has no sources")
        n = len(self._nodes)
        index = {name: k for k, name in enumerate(self._nodes)}
        src_index = {name: k for k, name in enumerate(self._sources)}
        g = np.zeros((n, n))
        b = np.zeros((n, len(self._sources)))
        for node_a, node_b, res in self._resistors:
            cond = 1.0 / res
            for here, there in ((node_a, node_b), (node_b, node_a)):
                if here in index:
                    i = index[here]
                    g[i, i] += cond
                    if there in index:
                        g[i, index[there]] -= cond
                    elif there in src_index:
                        b[i, src_index[there]] += cond
                    # ground: diagonal term only
        c = np.diag([self._caps[name] for name in self._nodes])
        for node_a, node_b, cap in self._couplings:
            i, j = index[node_a], index[node_b]
            c[i, i] += cap
            c[j, j] += cap
            c[i, j] -= cap
            c[j, i] -= cap
        return g, c, b


class GeneralAnalysis:
    """Exact pole/residue analysis of a :class:`GeneralRCNetwork`."""

    def __init__(self, network: GeneralRCNetwork) -> None:
        import scipy.linalg

        self.network = network
        g, c, b = network.assemble()
        try:
            chol = scipy.linalg.cholesky(c, lower=True)
        except scipy.linalg.LinAlgError as exc:
            raise AnalysisError("capacitance matrix is not PD") from exc
        # Symmetrized pencil: L^{-1} G L^{-T}.
        li_g = scipy.linalg.solve_triangular(chol, g, lower=True)
        sym = scipy.linalg.solve_triangular(
            chol, li_g.T, lower=True
        ).T
        sym = 0.5 * (sym + sym.T)
        lam, u = scipy.linalg.eigh(sym)
        if lam[0] <= 0.0:
            raise AnalysisError(
                "conductance matrix is singular: some node has no "
                "resistive path to a source or ground"
            )
        modes = scipy.linalg.solve_triangular(chol, u, lower=True,
                                              trans="T")
        # modes = L^{-T} U; residue of node i for source s at pole k:
        #   modes[i, k] * (modes[:, k] . b[:, s])
        self._poles = lam
        self._modes = modes
        self._beta = modes.T @ b  # (K, S)

    @property
    def poles(self) -> np.ndarray:
        """Decay rates, ascending (shared across nodes and sources)."""
        return self._poles.copy()

    def transfer(self, node: str, source: str) -> PoleResidueTransfer:
        """Pole/residue transfer from ``source`` to ``node``."""
        i = self.network.index_of(node)
        try:
            s = self.network.sources.index(source)
        except ValueError:
            raise TopologyError(f"unknown source {source!r}") from None
        return PoleResidueTransfer(
            poles=self._poles,
            residues=self._modes[i] * self._beta[:, s],
            direct=0.0,
        )

    def response(
        self,
        node: str,
        drives: Dict[str, Signal],
        t: np.ndarray,
    ) -> np.ndarray:
        """Superposed response at ``node`` for per-source signals.

        Sources not named in ``drives`` are held at 0 V.
        """
        t = np.asarray(t, dtype=np.float64)
        out = np.zeros_like(t)
        for source, signal in drives.items():
            out = out + self.transfer(node, source).response(signal, t)
        return out

    def dc_gains(self, node: str) -> Dict[str, float]:
        """DC gain from each source to ``node`` (they sum to <= 1; < 1
        when grounded resistors divide the signal)."""
        return {
            source: self.transfer(node, source).dc_gain
            for source in self.network.sources
        }
