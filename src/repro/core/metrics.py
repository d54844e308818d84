"""Delay-metric zoo: the Elmore bound and its classic alternatives.

The paper positions the Elmore delay against the single-pole scaling and
the Penfield–Rubinstein interval (Table I).  This module packages those —
plus two later moment-based metrics that were designed specifically to
exploit the paper's result that Elmore is an upper bound (D2M and the
lognormal metric both *shrink* the Elmore value using the second moment) —
behind one uniform interface for the ablation benchmarks.

Every metric maps ``(tree, node)`` to a 50% step-delay estimate.  The
moment-only metrics also accept a precomputed
:class:`~repro.core.moments.TransferMoments` for batch evaluation, with
the node given by name or by column index (the STA engine passes a
moment object over its sinks' columns alone, with no tree).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Union

import numpy as np

from repro._exceptions import AnalysisError, MetricError
from repro.awe.onepole import LN2
from repro.awe.pade import awe_delay, two_pole_delay
from repro.circuit.rctree import RCTree
from repro.core.moments import TransferMoments, transfer_moments

__all__ = [
    "elmore_metric",
    "scaled_elmore_metric",
    "lower_bound_metric",
    "d2m_metric",
    "lognormal_metric",
    "two_pole_metric",
    "awe4_metric",
    "METRICS",
    "MetricReport",
    "evaluate_metrics",
]


def _moments_for(
    source: Union[RCTree, TransferMoments], order: int
) -> TransferMoments:
    if isinstance(source, RCTree):
        return transfer_moments(source, order)
    if source.order < order:
        raise MetricError(
            f"moment object has order {source.order}, need {order}"
        )
    return source


def elmore_metric(source: Union[RCTree, TransferMoments], node: str) -> float:
    """The Elmore delay ``T_D = M_1`` — the paper's proven upper bound."""
    return _moments_for(source, 1).mean(node)


def scaled_elmore_metric(
    source: Union[RCTree, TransferMoments], node: str
) -> float:
    """``ln(2) T_D`` — the single-pole scaling of Sec. II-D (Table I col. 5)."""
    return LN2 * elmore_metric(source, node)


def lower_bound_metric(
    source: Union[RCTree, TransferMoments], node: str
) -> float:
    """Corollary 1's lower bound ``max(T_D - sigma, 0)`` (Table I col. 4)."""
    moments = _moments_for(source, 2)
    return max(moments.mean(node) - moments.sigma(node), 0.0)


def _m1_m2(source: Union[RCTree, TransferMoments], node: str) -> tuple:
    moments = _moments_for(source, 2)
    raw = moments.raw_moments(node)
    m1, m2 = float(raw[1]), float(raw[2])
    if m1 <= 0.0 or m2 <= 0.0:
        raise MetricError(
            f"node {node!r} has nonpositive distribution moments "
            f"(M1={m1!r}, M2={m2!r})"
        )
    return m1, m2


def lognormal_metric(
    source: Union[RCTree, TransferMoments], node: str
) -> float:
    """Median of the lognormal density matched to ``M_1, M_2``.

    Fitting ``h(t)`` with a lognormal (a unimodal positively skewed
    density — exactly the shape Lemmas 1-2 prove) and reading its median
    gives ``M_1^2 / sqrt(M_2)``, always <= the Elmore bound since
    ``M_2 >= M_1^2``.
    """
    m1, m2 = _m1_m2(source, node)
    return m1 * m1 / math.sqrt(m2)


def d2m_metric(source: Union[RCTree, TransferMoments], node: str) -> float:
    """The "delay with two moments" metric ``ln(2) M_1^2 / sqrt(M_2 / 2)``.

    D2M (Alpert, Devgan and Kashyap, IEEE TCAD 2001) reads the first two
    coefficients of ``H(s) = 1 - M_1 s + (M_2 / 2) s^2 - ...``, where
    ``M_k`` are the raw moments of ``h(t)``: the ``s^2`` coefficient is
    ``M_2 / 2``.  A single pole of time constant ``tau`` has ``M_1 =
    tau`` and ``M_2 = 2 tau^2``, so D2M is then exactly its 50% delay
    ``ln(2) tau``.  Since ``M_2 >= M_1^2`` it never exceeds
    ``sqrt(2) ln(2) T_D ~ 0.98 T_D``, below the Elmore bound; it is an
    estimate, not a bound, on either side of the true delay.
    """
    m1, m2 = _m1_m2(source, node)
    return LN2 * m1 * m1 / math.sqrt(m2 / 2.0)


def two_pole_metric(
    source: Union[RCTree, TransferMoments], node: str
) -> float:
    """Delay of the two-pole moment fit [4]."""
    return two_pole_delay(_moments_for(source, 4), node)


def awe4_metric(source: Union[RCTree, TransferMoments], node: str) -> float:
    """Delay of a four-pole AWE model [19] (needs ``m_0..m_7``)."""
    return awe_delay(_moments_for(source, 8), node, q=4)


#: Registry of all delay metrics, keyed by short name.
METRICS: Dict[str, Callable[[Union[RCTree, TransferMoments], str], float]] = {
    "elmore": elmore_metric,
    "ln2_elmore": scaled_elmore_metric,
    "lower_bound": lower_bound_metric,
    "lognormal": lognormal_metric,
    "d2m": d2m_metric,
    "two_pole": two_pole_metric,
    "awe4": awe4_metric,
}


@dataclass(frozen=True)
class MetricReport:
    """One metric's estimate at one node, with its error versus reference.

    ``relative_error`` follows the paper's Table II convention,
    ``(reference - estimate) / reference``.
    """

    metric: str
    node: str
    estimate: float
    reference: Optional[float] = None

    @property
    def relative_error(self) -> Optional[float]:
        """Signed relative error versus the reference delay (None without
        a reference)."""
        if self.reference is None or self.reference == 0.0:
            return None
        return (self.reference - self.estimate) / self.reference


def evaluate_metrics(
    tree: RCTree,
    nodes: Iterable[str],
    metrics: Optional[Iterable[str]] = None,
    references: Optional[Dict[str, float]] = None,
) -> List[MetricReport]:
    """Evaluate a set of metrics at a set of nodes.

    Parameters
    ----------
    tree:
        The RC tree.
    nodes:
        Node names to evaluate at.
    metrics:
        Metric names from :data:`METRICS` (default: all).
    references:
        Optional map from node name to the "actual" delay, recorded in
        each report for error computation.

    Metrics that fail on a node (e.g. a complex-pole two-pole fit) are
    skipped for that node rather than aborting the sweep.
    """
    names = list(metrics) if metrics is not None else list(METRICS)
    unknown = [n for n in names if n not in METRICS]
    if unknown:
        raise MetricError(f"unknown metrics: {unknown}")
    max_order = 8 if "awe4" in names else 4
    moments = transfer_moments(tree, max_order)
    reports: List[MetricReport] = []
    for node in nodes:
        ref = references.get(node) if references else None
        for name in names:
            try:
                estimate = METRICS[name](moments, node)
            except (AnalysisError, MetricError):
                continue
            reports.append(
                MetricReport(
                    metric=name, node=node, estimate=estimate, reference=ref
                )
            )
    return reports
