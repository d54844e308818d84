"""Exact pole/residue analysis of RC trees (the "SPICE" of this library).

Because an RC tree is a linear time-invariant circuit with a symmetric
positive-definite conductance matrix and nonnegative capacitances, its
transfer functions decompose exactly into real, stable poles:

    H_i(s) = d_i + sum_k r_ik / (s + lam_k),      lam_k > 0,

obtained from one symmetric eigendecomposition of ``C^{-1/2} G C^{-1/2}``.
Impulse, step, and arbitrary-input responses then have closed forms (the
input signals know how to convolve themselves against ``exp(-lam t)``), so
"actual delay" columns are computed to root-finder precision with *no*
time-step error — the faithful substitute for the paper's circuit-simulator
reference (see DESIGN.md).

Zero-capacitance nodes are eliminated algebraically (Schur complement on
``G``), which introduces the direct feed-through term ``d_i`` (an impulsive
component of ``h_i``) for nodes connected to the input through resistors
only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from repro._exceptions import AnalysisError
from repro.analysis.mna import build_mna
from repro.circuit.rctree import RCTree
from repro.signals.base import Signal
from repro.signals.step import StepInput

__all__ = ["PoleResidueTransfer", "ExactAnalysis"]


@dataclass(frozen=True)
class PoleResidueTransfer:
    """One node's transfer function in pole/residue form.

    ``H(s) = direct + sum_k residues[k] / (s + poles[k])`` with all poles
    positive (``poles`` holds the decay *rates* ``lam_k``; the s-plane poles
    sit at ``-lam_k``).

    Attributes
    ----------
    poles:
        Decay rates ``lam_k > 0``, ascending.
    residues:
        Residues ``r_k`` (same length as ``poles``).
    direct:
        Direct feed-through ``d`` — the weight of the ``delta(t)`` part of
        the impulse response.  Zero unless the node reaches the input
        through a zero-capacitance resistive path.
    """

    poles: np.ndarray
    residues: np.ndarray
    direct: float = 0.0

    def __post_init__(self) -> None:
        if self.poles.shape != self.residues.shape:
            raise AnalysisError("poles and residues must have equal length")
        if np.any(self.poles <= 0.0):
            raise AnalysisError("RC-tree poles must be strictly positive")

    # ------------------------------------------------------------------
    @property
    def dc_gain(self) -> float:
        """``H(0)``; equals 1 for any node of a voltage-driven RC tree."""
        return float(self.direct + np.sum(self.residues / self.poles))

    @property
    def dominant_pole(self) -> float:
        """The slowest decay rate ``lam_min``."""
        return float(self.poles[0])

    def impulse_response(self, t: np.ndarray) -> np.ndarray:
        """``h(t) = sum_k r_k exp(-lam_k t)`` for ``t >= 0`` (the impulsive
        ``direct * delta(t)`` part, if any, cannot be sampled)."""
        t = np.asarray(t, dtype=np.float64)
        tp = np.maximum(t[..., None], 0.0)
        vals = np.sum(self.residues * np.exp(-self.poles * tp), axis=-1)
        return np.where(t < 0.0, 0.0, vals)

    def step_response(self, t: np.ndarray) -> np.ndarray:
        """Unit-step response ``d + sum_k (r_k / lam_k)(1 - e^{-lam_k t})``."""
        t = np.asarray(t, dtype=np.float64)
        tp = np.maximum(t[..., None], 0.0)
        vals = self.direct + np.sum(
            (self.residues / self.poles) * (1.0 - np.exp(-self.poles * tp)),
            axis=-1,
        )
        return np.where(t < 0.0, 0.0, vals)

    def step_response_integral(self, t: np.ndarray) -> np.ndarray:
        """``g(t) = integral_0^t (step response)``; used by the
        area-theorem machinery (eq. 48)."""
        t = np.asarray(t, dtype=np.float64)
        tp = np.maximum(t[..., None], 0.0)
        per_pole = (self.residues / self.poles) * (
            tp - (1.0 - np.exp(-self.poles * tp)) / self.poles
        )
        vals = self.direct * np.maximum(t, 0.0) + np.sum(per_pole, axis=-1)
        return np.where(t < 0.0, 0.0, vals)

    def response(self, signal: Signal, t: np.ndarray) -> np.ndarray:
        """Output waveform for an arbitrary input ``signal``.

        ``v_o(t) = d v_i(t) + sum_k r_k (e^{-lam_k .} * v_i)(t)``; exact
        whenever the signal's :meth:`~repro.signals.base.Signal.exp_convolution`
        is closed-form (step, ramps, exponential, PWL).
        """
        if isinstance(signal, StepInput):
            return self.step_response(t)
        t = np.asarray(t, dtype=np.float64)
        out = self.direct * signal.value(t)
        for lam, res in zip(self.poles, self.residues):
            out = out + res * signal.exp_convolution(float(lam), t)
        return out

    def raw_moment(self, q: int) -> float:
        """Distribution moment ``M_q = integral t^q h(t) dt``.

        ``M_q = sum_k r_k q! / lam_k^(q+1)``; the impulsive part
        contributes only to ``M_0``.
        """
        if q < 0:
            raise AnalysisError(f"moment order must be >= 0, got {q!r}")
        val = float(
            math.factorial(q) * np.sum(self.residues / self.poles ** (q + 1))
        )
        if q == 0:
            val += self.direct
        return val

    def transfer_coefficient(self, q: int) -> float:
        """Maclaurin coefficient ``m_q = (-1)^q M_q / q!`` of ``H(s)``."""
        return (-1) ** q * self.raw_moment(q) / math.factorial(q)

    def frequency_response(self, omega: np.ndarray) -> np.ndarray:
        """Complex ``H(j omega)`` (vectorized in the angular frequency)."""
        omega = np.asarray(omega, dtype=np.float64)
        jw = 1j * omega[..., None]
        return self.direct + np.sum(self.residues / (jw + self.poles),
                                    axis=-1)

    def bandwidth_3db(self) -> float:
        """Angular frequency where ``|H|`` drops to ``|H(0)| / sqrt(2)``.

        For the dominant-pole regime this is close to ``1 / T_D`` — the
        frequency-domain face of the Elmore approximation.
        """
        import scipy.optimize

        target = abs(self.dc_gain) / np.sqrt(2.0)
        if target <= 0.0:
            raise AnalysisError("zero DC gain: no 3 dB point")

        def gap(log_w: float) -> float:
            return abs(
                complex(self.frequency_response(np.asarray(np.exp(log_w))))
            ) - target

        lo = float(np.log(self.poles[0]) - 12.0)
        hi = float(np.log(self.poles[-1]) + 12.0)
        if gap(lo) <= 0.0 or gap(hi) >= 0.0:
            raise AnalysisError("could not bracket the 3 dB frequency")
        return float(np.exp(
            scipy.optimize.brentq(gap, lo, hi, rtol=1e-13)
        ))

    def settle_time(self, tolerance: float = 1e-12) -> float:
        """Time by which the step response is within ``tolerance`` of its
        final value (conservative: uses the slowest pole and the residue
        magnitude sum)."""
        weight = float(np.sum(np.abs(self.residues) / self.poles))
        if weight == 0.0:
            return 0.0
        return float(np.log(max(weight / tolerance, 2.0)) / self.dominant_pole)


class ExactAnalysis:
    """Eigendecomposition-based exact analysis of one RC tree.

    The decomposition is performed once at construction (O(N^3)); per-node
    transfer functions, waveforms, and moments are then cheap.

    Parameters
    ----------
    tree:
        The RC tree to analyze.  Zero-capacitance nodes are allowed and are
        eliminated algebraically.
    """

    def __init__(self, tree: RCTree) -> None:
        import scipy.linalg

        self.tree = tree
        system = build_mna(tree)
        caps = system.capacitance
        dynamic = caps > 0.0
        if not np.any(dynamic):
            raise AnalysisError("RC tree carries no capacitance")

        g = system.conductance
        b = system.input_vector
        n = system.size
        idx_dyn = np.flatnonzero(dynamic)
        idx_alg = np.flatnonzero(~dynamic)

        if idx_alg.size:
            g_dd = g[np.ix_(idx_dyn, idx_dyn)]
            g_da = g[np.ix_(idx_dyn, idx_alg)]
            g_aa = g[np.ix_(idx_alg, idx_alg)]
            b_d = b[idx_dyn]
            b_a = b[idx_alg]
            try:
                cho = scipy.linalg.cho_factor(g_aa)
            except scipy.linalg.LinAlgError as exc:  # pragma: no cover
                raise AnalysisError(
                    "algebraic sub-block of G is singular"
                ) from exc
            aa_inv_ad = scipy.linalg.cho_solve(cho, g_da.T)
            aa_inv_ba = scipy.linalg.cho_solve(cho, b_a)
            g_red = g_dd - g_da @ aa_inv_ad
            b_red = b_d - g_da @ aa_inv_ba
        else:
            g_red = g
            b_red = b
            aa_inv_ad = None
            aa_inv_ba = None

        w = np.sqrt(caps[idx_dyn])
        sym = g_red / np.outer(w, w)
        sym = 0.5 * (sym + sym.T)  # enforce symmetry against roundoff
        lam, u = scipy.linalg.eigh(sym)
        if lam[0] <= 0.0:
            raise AnalysisError(
                "non-positive eigenvalue in RC-tree analysis "
                f"(lam_min = {lam[0]:.3e}); the conductance matrix should "
                "be positive definite"
            )

        modes_dyn = u / w[:, None]                  # C^{-1/2} U
        beta = modes_dyn.T @ b_red                  # modal input coupling

        # Assemble per-node mode shapes and direct terms over ALL nodes.
        modes = np.zeros((n, lam.shape[0]), dtype=np.float64)
        direct = np.zeros(n, dtype=np.float64)
        modes[idx_dyn] = modes_dyn
        if idx_alg.size:
            modes[idx_alg] = -(aa_inv_ad @ modes_dyn)
            direct[idx_alg] = aa_inv_ba

        self._poles = lam
        self._beta = beta
        self._modes = modes
        self._direct = direct

    # ------------------------------------------------------------------
    @property
    def poles(self) -> np.ndarray:
        """All decay rates ``lam_k`` (ascending), shared by every node."""
        return self._poles.copy()

    @property
    def dominant_time_constant(self) -> float:
        """``1 / lam_min`` — the slowest time constant of the tree."""
        return float(1.0 / self._poles[0])

    def _node_index(self, node: Union[str, int]) -> int:
        if isinstance(node, str):
            return self.tree.index_of(node)
        return int(node)

    def transfer(self, node: Union[str, int]) -> PoleResidueTransfer:
        """Pole/residue transfer function from the input to ``node``."""
        i = self._node_index(node)
        return PoleResidueTransfer(
            poles=self._poles,
            residues=self._modes[i] * self._beta,
            direct=float(self._direct[i]),
        )

    # Convenience wrappers --------------------------------------------
    def impulse_response(self, node: Union[str, int], t: np.ndarray) -> np.ndarray:
        """``h(t)`` at ``node`` (see :meth:`PoleResidueTransfer.impulse_response`)."""
        return self.transfer(node).impulse_response(t)

    def step_response(self, node: Union[str, int], t: np.ndarray) -> np.ndarray:
        """Unit-step response at ``node``."""
        return self.transfer(node).step_response(t)

    def response(
        self, node: Union[str, int], signal: Signal, t: np.ndarray
    ) -> np.ndarray:
        """Response at ``node`` to an arbitrary input signal."""
        return self.transfer(node).response(signal, t)

    def raw_moments(self, node: Union[str, int], order: int) -> np.ndarray:
        """Distribution moments ``M_0..M_order`` of ``h(t)`` at ``node``."""
        tf = self.transfer(node)
        return np.array([tf.raw_moment(q) for q in range(order + 1)])

    def elmore_delay(self, node: Union[str, int]) -> float:
        """``T_D`` computed from the eigensystem (= mean of ``h``)."""
        return self.transfer(node).raw_moment(1)
