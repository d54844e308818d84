"""Asymptotic waveform evaluation: q-pole Padé approximation from moments.

Given the transfer coefficients ``m_0..m_{2q-1}`` of ``H(s)`` (from
:mod:`repro.core.moments`), AWE [19] fits

    H_hat(s) = sum_{i=1}^q k_i / (s - p_i)

whose first ``2q`` moments match.  The denominator ``D(s) = 1 + d_1 s +
... + d_q s^q`` solves the Hankel system obtained from requiring
``D(s) H(s)`` to have no terms of degree ``q..2q-1``; the poles are the
roots of ``D`` and the residues follow from the first ``q`` moment-match
conditions ``m_j = -sum_i k_i / p_i^{j+1}``.

RC trees have real negative poles, but a finite-moment Padé fit can still
produce unstable or complex poles for ill-conditioned moment sets; the
implementation detects this and (optionally) discards the offending poles,
renormalizing DC gain — the standard practical remedy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from repro._exceptions import AnalysisError, ConvergenceError
from repro.analysis.state_space import PoleResidueTransfer
from repro.circuit.rctree import RCTree
from repro.core.moments import TransferMoments, transfer_moments

__all__ = [
    "PadeApproximant",
    "pade_from_moments",
    "awe_approximation",
    "awe_delay",
    "two_pole_model",
    "two_pole_delay",
]


@dataclass(frozen=True)
class PadeApproximant:
    """A q-pole reduced-order model fitted from moments.

    Attributes
    ----------
    transfer:
        The fitted model in pole/residue form (poles stored as positive
        decay rates, like the exact engine).
    requested_order:
        The ``q`` asked for.
    stable:
        True when all fitted poles were real and stable; False when some
        had to be discarded.
    """

    transfer: PoleResidueTransfer
    requested_order: int
    stable: bool

    @property
    def order(self) -> int:
        """Number of poles actually retained."""
        return self.transfer.poles.shape[0]

    def step_response(self, t: np.ndarray) -> np.ndarray:
        """Step response of the reduced model."""
        return self.transfer.step_response(t)

    def delay(self, threshold: float = 0.5) -> float:
        """Threshold-crossing delay of the reduced model's step response.

        Unlike the exact engine, a low-order model's step response can be
        non-monotonic; the first crossing is returned.
        """
        if not (0.0 < threshold < 1.0):
            raise AnalysisError("threshold must be inside (0, 1)")
        tf = self.transfer
        final = tf.dc_gain
        if final <= 0.0:
            raise AnalysisError("reduced model has nonpositive DC gain")
        target = threshold * final

        def gap(t: float) -> float:
            return float(tf.step_response(np.asarray(t))) - target

        t_hi = tf.settle_time(1e-9)
        if t_hi <= 0.0:
            raise ConvergenceError("reduced model does not settle")
        if gap(0.0) >= 0.0:
            return 0.0
        expansions = 0
        while gap(t_hi) < 0.0:
            t_hi *= 4.0
            expansions += 1
            if expansions > 60:
                raise ConvergenceError(
                    "reduced-model step response never reaches the threshold"
                )
        # Bisect down to the FIRST crossing: brentq on an interval that may
        # contain several crossings still returns a genuine crossing; to get
        # the first one, shrink the right edge while the midpoint is above.
        lo, hi = 0.0, t_hi
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if gap(mid) >= 0.0:
                hi = mid
            else:
                lo = mid
            if (hi - lo) <= 1e-15 * max(hi, 1e-300):
                break
        return 0.5 * (lo + hi)


def pade_from_moments(moments: Sequence[float], q: int) -> PadeApproximant:
    """Fit a ``q``-pole Padé model from transfer coefficients ``m_0..``.

    Complex or unstable fitted poles are discarded and the surviving
    residues rescaled to restore the DC gain (``stable`` records whether
    any pole was dropped).

    Parameters
    ----------
    moments:
        Transfer coefficients; at least ``2q`` of them (``m_0..m_{2q-1}``).
    q:
        Number of poles requested (>= 1).
    """
    m = np.asarray(moments, dtype=np.float64)
    if q < 1:
        raise AnalysisError(f"q must be >= 1, got {q!r}")
    if m.shape[0] < 2 * q:
        raise AnalysisError(
            f"need at least {2 * q} moments for a {q}-pole fit, got {m.shape[0]}"
        )

    # Solve for the denominator 1 + d_1 s + ... + d_q s^q via the Hankel
    # system sum_{c=1..q} d_c m_{j-c} = -m_j for j = q..2q-1.
    hankel = np.empty((q, q), dtype=np.float64)
    rhs = np.empty(q, dtype=np.float64)
    for r in range(q):
        j = q + r
        rhs[r] = -m[j]
        for c in range(1, q + 1):
            hankel[r, c - 1] = m[j - c]
    try:
        d = np.linalg.solve(hankel, rhs)
    except np.linalg.LinAlgError as exc:
        raise AnalysisError(
            "singular moment Hankel matrix: the response is governed by "
            f"fewer than {q} poles; retry with smaller q"
        ) from exc

    # Roots of D(s) = 1 + d_1 s + ... + d_q s^q.
    poly = np.concatenate(([1.0], d))           # ascending powers
    roots = np.roots(poly[::-1])                # np.roots wants descending
    real = np.abs(roots.imag) <= 1e-9 * np.maximum(np.abs(roots.real), 1e-300)
    stable = real & (roots.real < 0.0)
    kept = np.sort(-roots[stable].real)          # decay rates, ascending
    if kept.size == 0:
        raise AnalysisError(
            "no stable poles survived the Padé fit; the moment sequence "
            "is not RC-realizable at this order"
        )

    residues = _residues_from_moments(m, kept)
    transfer = PoleResidueTransfer(poles=kept, residues=residues, direct=0.0)
    # Restore DC gain when poles were discarded (or from residue solving
    # error); m_0 is the exact DC gain.
    gain = transfer.dc_gain
    if gain <= 0.0:
        raise AnalysisError("fitted model has nonpositive DC gain")
    if abs(gain - m[0]) > 1e-12 * abs(m[0]):
        transfer = PoleResidueTransfer(
            poles=kept, residues=residues * (m[0] / gain), direct=0.0
        )
    return PadeApproximant(
        transfer=transfer,
        requested_order=q,
        stable=bool(np.all(stable)),
    )


def _residues_from_moments(m: np.ndarray, rates: np.ndarray) -> np.ndarray:
    """Solve ``m_j = sum_i k_i / rates_i^{j+1}`` for ``j = 0..len(rates)-1``.

    (The sign works out because with ``p_i = -rates_i``,
    ``m_j = -sum k_i / p_i^{j+1} = sum k_i (-1)^j / rates^{j+1}``; we fold
    the alternating sign into the system.)
    """
    k = rates.shape[0]
    system = np.empty((k, k), dtype=np.float64)
    rhs = np.empty(k, dtype=np.float64)
    for j in range(k):
        system[j] = (-1.0) ** j / rates ** (j + 1)
        rhs[j] = m[j]
    try:
        return np.linalg.solve(system, rhs)
    except np.linalg.LinAlgError as exc:
        raise AnalysisError(
            "degenerate pole set while solving for residues"
        ) from exc


def awe_approximation(
    source: Union[RCTree, TransferMoments],
    node: str,
    q: int = 2,
) -> PadeApproximant:
    """AWE reduced-order model at ``node`` of a tree (or moment set)."""
    if isinstance(source, RCTree):
        moments = transfer_moments(source, 2 * q)
    else:
        moments = source
        if moments.order < 2 * q - 1:
            raise AnalysisError(
                f"moment object has order {moments.order}; "
                f"need {2 * q - 1} for q={q}"
            )
    return pade_from_moments(moments.at(node)[: 2 * q], q)


def awe_delay(
    source: Union[RCTree, TransferMoments],
    node: str,
    q: int = 2,
    threshold: float = 0.5,
) -> float:
    """Threshold delay predicted by a q-pole AWE model at ``node``."""
    return awe_approximation(source, node, q).delay(threshold)


def two_pole_model(
    source: Union[RCTree, TransferMoments], node: str
) -> PadeApproximant:
    """Two-pole reduced model at ``node`` from the first four moments.

    The Padé fit at ``q = 2`` (Chu & Horowitz [4]): the historically
    significant middle ground between the Elmore metric and full AWE
    (Sec. II-E mentions two-pole models as the next refinement beyond the
    Penfield-Rubinstein bounds).
    """
    if isinstance(source, RCTree):
        source = transfer_moments(source, 4)
    return pade_from_moments(source.at(node)[:4], q=2)


def two_pole_delay(
    source: Union[RCTree, TransferMoments],
    node: str,
    threshold: float = 0.5,
) -> float:
    """Threshold delay of the two-pole step response."""
    return two_pole_model(source, node).delay(threshold)
