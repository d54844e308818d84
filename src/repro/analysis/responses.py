"""Response measurement: threshold delays, rise times, waveform sampling.

The "actual delay" numbers of Table I/II are produced here: a bracketed
Brent search on the closed-form output waveform finds threshold crossings
to root-finder precision.  Delay for non-step inputs is measured from the
*input's* 50% crossing, matching how the paper's delay curves (Fig. 12) and
Table II treat finite rise times (the output 50% time minus ``t_r / 2`` for
a saturated ramp).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

from repro._exceptions import AnalysisError, ConvergenceError
from repro.analysis.state_space import ExactAnalysis, PoleResidueTransfer
from repro.circuit.rctree import RCTree
from repro.signals.base import Signal
from repro.signals.step import StepInput

__all__ = [
    "threshold_crossing",
    "measure_delay",
    "output_rise_time",
    "sample_waveform",
    "actual_delay",
    "DelayMeasurement",
]


def _as_transfer(
    source: Union[PoleResidueTransfer, ExactAnalysis, RCTree],
    node: Optional[str],
) -> PoleResidueTransfer:
    if isinstance(source, PoleResidueTransfer):
        return source
    if isinstance(source, ExactAnalysis):
        if node is None:
            raise AnalysisError("a node name is required with ExactAnalysis")
        return source.transfer(node)
    if isinstance(source, RCTree):
        if node is None:
            raise AnalysisError("a node name is required with an RCTree")
        return ExactAnalysis(source).transfer(node)
    raise AnalysisError(f"cannot interpret {source!r} as a transfer function")


def threshold_crossing(
    transfer: PoleResidueTransfer,
    signal: Optional[Signal] = None,
    threshold: float = 0.5,
) -> float:
    """Absolute time at which the output first reaches ``threshold`` of its
    final value.

    The output of a monotonic input through a nonnegative impulse response
    is monotonic, so the crossing is unique; it is found by Brent's method
    on the closed-form waveform after bracketing.

    Raises
    ------
    ConvergenceError
        If no bracket containing the crossing can be established (e.g. a
        direct feed-through already exceeds the threshold at t = 0+, in
        which case the crossing time is reported as 0.0 instead only when
        the waveform starts above threshold).
    """
    if signal is None:
        signal = StepInput()
    if not (0.0 < threshold < 1.0):
        raise AnalysisError(
            f"threshold must be inside (0, 1), got {threshold!r}"
        )
    final = transfer.dc_gain
    target = threshold * final

    def gap(t: float) -> float:
        return float(transfer.response(signal, np.asarray(t))) - target

    # Starting value: responses begin at d * v_i(0+); for our signals
    # v_i(0+) = 0 except the step, where it is d.
    t_hi = max(signal.settle_time, 0.0) + transfer.settle_time(1e-9)
    t_hi = max(t_hi, 1e-30)
    if gap(0.0) >= 0.0:
        return 0.0
    expansions = 0
    while gap(t_hi) < 0.0:
        t_hi *= 4.0
        expansions += 1
        if expansions > 60:
            raise ConvergenceError(
                "could not bracket the threshold crossing; the response "
                "may not settle"
            )
    import scipy.optimize

    return float(
        scipy.optimize.brentq(gap, 0.0, t_hi, xtol=1e-300, rtol=1e-14)
    )


def measure_delay(
    source: Union[PoleResidueTransfer, ExactAnalysis, RCTree],
    node: Optional[str] = None,
    signal: Optional[Signal] = None,
    threshold: float = 0.5,
) -> float:
    """Threshold delay measured from the input's own crossing time.

    ``delay = t(output = threshold * final) - t(input = threshold)``.
    For a step input the reference time is 0 and this is the classic
    50% step-response delay (the median of ``h(t)``).
    """
    if signal is None:
        signal = StepInput()
    transfer = _as_transfer(source, node)
    out_time = threshold_crossing(transfer, signal, threshold)
    if threshold == 0.5:
        ref = signal.t50
    else:
        ref = _signal_crossing(signal, threshold)
    return out_time - ref


def _signal_crossing(signal: Signal, threshold: float) -> float:
    """Time at which the (monotonic) input crosses ``threshold``."""
    if isinstance(signal, StepInput):
        return 0.0

    def gap(t: float) -> float:
        return float(signal.value(np.asarray(t))) - threshold

    t_hi = max(signal.settle_time, 1e-30)
    if gap(0.0) >= 0.0:
        return 0.0
    expansions = 0
    while gap(t_hi) < 0.0:
        t_hi *= 4.0
        expansions += 1
        if expansions > 60:
            raise ConvergenceError("input never reaches the threshold")
    import scipy.optimize

    return float(
        scipy.optimize.brentq(gap, 0.0, t_hi, xtol=1e-300, rtol=1e-14)
    )


def output_rise_time(
    source: Union[PoleResidueTransfer, ExactAnalysis, RCTree],
    node: Optional[str] = None,
    signal: Optional[Signal] = None,
    low: float = 0.1,
    high: float = 0.9,
) -> float:
    """10-90% (by default) transition time of the output waveform.

    Section III-B of the paper proposes ``sigma = sqrt(mu_2)`` (Elmore's
    "radius of gyration") as an estimate proportional to this quantity.
    """
    if not (0.0 < low < high < 1.0):
        raise AnalysisError("need 0 < low < high < 1")
    transfer = _as_transfer(source, node)
    t_low = threshold_crossing(transfer, signal, low)
    t_high = threshold_crossing(transfer, signal, high)
    return t_high - t_low


def sample_waveform(
    source: Union[PoleResidueTransfer, ExactAnalysis, RCTree],
    node: Optional[str] = None,
    signal: Optional[Signal] = None,
    num: int = 2001,
    horizon: Optional[float] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Sample the output waveform on a uniform grid.

    Returns ``(t, v)``; the horizon defaults to the input settle time plus
    the transfer's settle time (to one part in 1e6).
    """
    if num < 2:
        raise AnalysisError("need at least two samples")
    if signal is None:
        signal = StepInput()
    transfer = _as_transfer(source, node)
    if horizon is None:
        horizon = max(signal.settle_time, 0.0) + transfer.settle_time(1e-6)
    if horizon <= 0.0:
        raise AnalysisError("cannot infer a positive sampling horizon")
    t = np.linspace(0.0, horizon, num)
    return t, transfer.response(signal, t)


@dataclass(frozen=True)
class DelayMeasurement:
    """A measured delay alongside its analytic context.

    Attributes
    ----------
    node:
        Node name.
    delay:
        Measured threshold delay (from the input's crossing).
    threshold:
        Crossing fraction used (0.5 for the 50% delay).
    signal:
        Description of the input signal.
    """

    node: str
    delay: float
    threshold: float
    signal: str


def actual_delay(
    tree: RCTree,
    node: str,
    signal: Optional[Signal] = None,
    threshold: float = 0.5,
    analysis: Optional[ExactAnalysis] = None,
) -> DelayMeasurement:
    """One-call "actual delay" measurement for a tree node.

    Builds (or reuses) the exact analysis and measures the threshold
    crossing of the closed-form output waveform.
    """
    if signal is None:
        signal = StepInput()
    if analysis is None:
        analysis = ExactAnalysis(tree)
    value = measure_delay(analysis, node, signal, threshold)
    return DelayMeasurement(
        node=node, delay=value, threshold=threshold, signal=signal.describe()
    )
