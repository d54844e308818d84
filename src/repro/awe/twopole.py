"""Two-pole approximation from the first four moments (Chu & Horowitz [4]).

The general Padé machinery at ``q = 2``, kept as its own entry point
because two-pole models are the historically significant middle ground
between the Elmore metric and full AWE (Sec. II-E mentions them as the
next refinement beyond the Penfield-Rubinstein bounds).
"""

from __future__ import annotations

from typing import Union

from repro.awe.pade import PadeApproximant, pade_from_moments
from repro.circuit.rctree import RCTree
from repro.core.moments import TransferMoments, transfer_moments

__all__ = ["two_pole_model", "two_pole_delay"]


def two_pole_model(
    source: Union[RCTree, TransferMoments], node: str
) -> PadeApproximant:
    """Two-pole reduced model at ``node`` (wraps the Padé engine)."""
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
