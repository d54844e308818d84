"""Penfield–Rubinstein(–Horowitz) step-response delay bounds (Sec. II-E).

For every node ``i`` of an RC tree and every voltage fraction ``v`` the
step response's crossing time ``t(v)`` satisfies
``t_min(v) <= t(v) <= t_max(v)`` with (eq. (15)):

    t_min(v) = 0                                      0 <= v <= 1 - T_D/T_P
             = T_D - T_P (1 - v)                      ... <= v <= 1 - T_R/T_P
             = T_D - T_R + T_R ln[T_R / (T_P (1-v))]  ... <= v < 1

    t_max(v) = T_D / (1 - v) - T_R                    0 <= v <= 1 - T_D/T_P
             = T_P - T_R + T_P ln[T_D / (T_P (1-v))]  ... <= v < 1

where ``T_P``, ``T_D = T_D_i`` and ``T_R = T_R_i`` are the path-traced time
constants of eq. (16).  Note: the journal rendering of the second
``t_max`` region prints ``T_D - T_R + ...``; the original RPH result (and
continuity of the bound at the region boundary, where both pieces must
equal ``T_P - T_R``) fixes the leading term to ``T_P - T_R``, which is what
is implemented here.  With that correction the bounds reproduce Table I,
including ``t_max = T_D`` at the driving point.

Both bounds are continuous, nondecreasing in ``v``, and invertible; the
inverse forms (voltage bounds versus time) are provided as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple, Union

from repro._exceptions import AnalysisError
from repro.circuit.rctree import RCTree
from repro.core.elmore import RPHNodeConstants, rph_time_constants

__all__ = ["PRHBounds", "prh_bounds", "prh_delay_interval"]


@dataclass(frozen=True)
class PRHBounds:
    """Evaluable Penfield–Rubinstein bounds at one node.

    Attributes
    ----------
    node:
        Node name.
    t_p, t_d, t_r:
        The eq. (16) time constants (``T_R <= T_D <= T_P``).
    """

    node: str
    t_p: float
    t_d: float
    t_r: float

    def __post_init__(self) -> None:
        if not (0.0 < self.t_p and 0.0 < self.t_d and 0.0 <= self.t_r):
            raise AnalysisError(
                "PRH time constants must be positive "
                f"(T_P={self.t_p!r}, T_D={self.t_d!r}, T_R={self.t_r!r})"
            )
        # T_R <= T_D <= T_P always holds for RC trees (Cauchy-Schwarz and
        # R_ki <= min(R_ii, R_kk)); allow microscopic violations only.
        tol = 1e-9 * self.t_p
        if self.t_d > self.t_p + tol or self.t_r > self.t_d + tol:
            raise AnalysisError(
                "inconsistent PRH constants: expected T_R <= T_D <= T_P, "
                f"got T_R={self.t_r!r}, T_D={self.t_d!r}, T_P={self.t_p!r}"
            )

    # ------------------------------------------------------------------
    def t_min(self, v: float) -> float:
        """Lower bound on the time at which the step response reaches
        fraction ``v`` of its final value."""
        self._check_fraction(v)
        rem = 1.0 - v
        if v <= 1.0 - self.t_d / self.t_p:
            return 0.0
        if self.t_r == 0.0 or v <= 1.0 - self.t_r / self.t_p:
            return self.t_d - self.t_p * rem
        return (
            self.t_d
            - self.t_r
            + self.t_r * math.log(self.t_r / (self.t_p * rem))
        )

    def t_max(self, v: float) -> float:
        """Upper bound on the time at which the step response reaches
        fraction ``v`` of its final value."""
        self._check_fraction(v)
        rem = 1.0 - v
        if v <= 1.0 - self.t_d / self.t_p:
            return self.t_d / rem - self.t_r
        return (
            self.t_p
            - self.t_r
            + self.t_p * math.log(self.t_d / (self.t_p * rem))
        )

    def delay_interval(self, v: float = 0.5) -> Tuple[float, float]:
        """``(t_min(v), t_max(v))`` — columns (7) and (6) of Table I at
        ``v = 0.5``."""
        return self.t_min(v), self.t_max(v)

    # ------------------------------------------------------------------
    def voltage_lower(self, t: float) -> float:
        """Lower bound on the step-response voltage at time ``t``
        (the inverse of :meth:`t_max`)."""
        return self._invert(self.t_max, t)

    def voltage_upper(self, t: float) -> float:
        """Upper bound on the step-response voltage at time ``t``
        (the inverse of :meth:`t_min`)."""
        if t < 0.0:
            return 0.0
        if self.t_min(1.0 - 1e-15) <= t:
            return 1.0
        return self._invert(self.t_min, t)

    def _invert(self, bound, t: float) -> float:
        if t < 0.0:
            return 0.0
        lo, hi = 0.0, 1.0 - 1e-15
        if bound(hi) <= t:
            return 1.0
        if bound(lo) >= t:
            # t_max(0) = T_D - T_R may be positive: before that time the
            # bound gives no information beyond v >= 0.
            return 0.0
        import scipy.optimize

        return float(
            scipy.optimize.brentq(lambda v: bound(v) - t, lo, hi, rtol=1e-13)
        )

    @staticmethod
    def _check_fraction(v: float) -> None:
        if not (0.0 <= v < 1.0):
            raise AnalysisError(
                f"voltage fraction must be in [0, 1), got {v!r}"
            )

    @classmethod
    def from_constants(cls, node: str, constants: RPHNodeConstants) -> "PRHBounds":
        """Build from a precomputed eq. (16) triple."""
        return cls(
            node=node, t_p=constants.t_p, t_d=constants.t_d, t_r=constants.t_r
        )


def prh_bounds(
    tree: RCTree, node: Optional[str] = None
) -> Union[PRHBounds, Dict[str, PRHBounds]]:
    """Penfield–Rubinstein bounds for one node or all nodes of a tree."""
    constants = rph_time_constants(tree)
    if node is not None:
        return PRHBounds.from_constants(node, constants.at(node))
    return {
        name: PRHBounds.from_constants(name, constants.at(name))
        for name in tree.node_names
    }


def prh_delay_interval(
    tree: RCTree, node: str, v: float = 0.5
) -> Tuple[float, float]:
    """One-call ``(t_min, t_max)`` interval at fraction ``v``."""
    return prh_bounds(tree, node).delay_interval(v)
