"""Time-stepping transient simulator for RC trees.

An independent numerical route to the same waveforms the pole/residue
engine produces in closed form: companion-model time stepping with backward
Euler or the trapezoidal rule.  Used to cross-validate
:mod:`repro.analysis.state_space` (the two must agree to discretization
error) and to handle inputs supplied only as sampled data.

The linear system ``C dv/dt + G v = b u(t)`` is advanced with a fixed step
``h``:

* backward Euler:   ``(C/h + G) v_{n+1} = (C/h) v_n + b u_{n+1}``
* trapezoidal:      ``(C/h + G/2) v_{n+1} = (C/h - G/2) v_n
  + b (u_n + u_{n+1}) / 2``

One LU factorization is reused across all steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from repro._exceptions import AnalysisError
from repro.analysis.mna import build_mna
from repro.circuit.rctree import RCTree
from repro.signals.base import Signal

__all__ = [
    "TransientResult",
    "simulate",
    "simulate_step_response",
    "simulate_adaptive",
]


@dataclass(frozen=True)
class TransientResult:
    """Simulated node waveforms.

    Attributes
    ----------
    tree:
        The simulated tree.
    times:
        Sample times, shape ``(T,)``.
    voltages:
        Node voltages, shape ``(N, T)`` in node-index order.
    method:
        Integration rule used (``"trapezoidal"`` or ``"backward-euler"``).
    """

    tree: RCTree
    times: np.ndarray
    voltages: np.ndarray
    method: str

    def at(self, node: Union[str, int]) -> np.ndarray:
        """Waveform at one node."""
        i = self.tree.index_of(node) if isinstance(node, str) else int(node)
        return self.voltages[i]

    def delay(self, node: Union[str, int], threshold: float = 0.5,
              reference_time: float = 0.0,
              final_value: Optional[float] = None) -> float:
        """Interpolated threshold-crossing delay from the sampled waveform.

        Linear interpolation between the bracketing samples; accuracy is
        limited by the time step (use the exact engine for tight numbers).
        ``final_value`` defaults to the last sample — pass the true final
        value explicitly when the waveform has not settled within the
        simulated horizon.
        """
        if not (0.0 < threshold < 1.0):
            raise AnalysisError("threshold must be inside (0, 1)")
        v = self.at(node)
        final = v[-1] if final_value is None else float(final_value)
        if final <= 0.0:
            raise AnalysisError("waveform does not rise; no crossing")
        target = threshold * final
        above = np.flatnonzero(v >= target)
        if above.size == 0:
            raise AnalysisError(
                "waveform never reaches the threshold within the horizon"
            )
        k = int(above[0])
        if k == 0:
            return float(self.times[0] - reference_time)
        t0, t1 = self.times[k - 1], self.times[k]
        v0, v1 = v[k - 1], v[k]
        crossing = t0 + (target - v0) * (t1 - t0) / (v1 - v0)
        return float(crossing - reference_time)


def simulate(
    tree: RCTree,
    signal: Signal,
    horizon: float,
    num_steps: int = 2000,
    method: str = "trapezoidal",
) -> TransientResult:
    """Fixed-step transient simulation of ``tree`` driven by ``signal``.

    Parameters
    ----------
    tree:
        RC tree to simulate.  Zero-capacitance nodes are supported (their
        rows are purely algebraic and both integration rules handle them:
        the ``C/h`` contribution is simply zero).
    signal:
        Input waveform (sampled via :meth:`Signal.value`).  Note that a
        perfect step sampled at ``t=0`` rises at the first step boundary;
        for step inputs prefer :func:`simulate_step_response`, which
        applies the initial condition handling explicitly.
    horizon:
        End time of the simulation (seconds, > 0).
    num_steps:
        Number of uniform steps (>= 1).
    method:
        ``"trapezoidal"`` (second order) or ``"backward-euler"``
        (first order, L-stable).
    """
    if horizon <= 0.0:
        raise AnalysisError(f"horizon must be > 0, got {horizon!r}")
    if num_steps < 1:
        raise AnalysisError(f"num_steps must be >= 1, got {num_steps!r}")
    system = build_mna(tree)
    u = lambda t: float(signal.value(np.asarray(t)))
    return _march(tree, system, u, horizon, num_steps, method)


def simulate_step_response(
    tree: RCTree,
    horizon: float,
    num_steps: int = 2000,
    method: str = "trapezoidal",
) -> TransientResult:
    """Transient simulation of the unit-step response.

    The step is applied at ``t = 0-`` (the source reads 1 V at every
    sample point, with zero initial conditions), matching the exact
    engine's convention and keeping the trapezoidal rule at full second
    order through the discontinuity.
    """
    system = build_mna(tree)
    u = lambda t: 1.0
    return _march(tree, system, u, horizon, num_steps, method)


def simulate_adaptive(
    tree: RCTree,
    signal: Signal,
    horizon: float,
    rtol: float = 1e-8,
    atol: float = 1e-12,
    num_output_points: int = 1001,
    method: str = "LSODA",
) -> TransientResult:
    """Adaptive-step transient simulation via :func:`scipy.integrate.solve_ivp`.

    Integrates ``v' = C^{-1} (b u(t) - G v)`` with error control — the
    third independent waveform oracle (after the closed-form engine and
    the fixed-step companion models).  Stiff RC spectra are handled by
    the default LSODA/BDF switching.

    Parameters
    ----------
    tree:
        RC tree; every node must carry capacitance (the explicit ODE form
        has no algebraic rows — use :func:`simulate` for zero-cap nodes).
    signal:
        Input waveform.
    horizon:
        End time (> 0).
    rtol, atol:
        Integrator tolerances.
    num_output_points:
        Uniform reporting grid size.
    method:
        Any stiff-capable solve_ivp method (``"LSODA"``, ``"BDF"``,
        ``"Radau"``).
    """
    import scipy.integrate

    if horizon <= 0.0:
        raise AnalysisError(f"horizon must be > 0, got {horizon!r}")
    if num_output_points < 2:
        raise AnalysisError("need at least two output points")
    system = build_mna(tree)
    if np.any(system.capacitance <= 0.0):
        raise AnalysisError(
            "simulate_adaptive needs capacitance at every node; "
            "use simulate() for zero-cap (algebraic) nodes"
        )
    inv_c = 1.0 / system.capacitance
    g = system.conductance
    b = system.input_vector

    def rhs(t, v):
        return inv_c * (b * float(signal.value(np.asarray(t))) - g @ v)

    times = np.linspace(0.0, horizon, num_output_points)
    solution = scipy.integrate.solve_ivp(
        rhs,
        (0.0, horizon),
        np.zeros(system.size),
        method=method,
        t_eval=times,
        rtol=rtol,
        atol=atol,
    )
    if not solution.success:  # pragma: no cover - scipy failure path
        raise AnalysisError(f"solve_ivp failed: {solution.message}")
    return TransientResult(
        tree=tree, times=solution.t, voltages=solution.y,
        method=f"adaptive-{method}",
    )


def _march(
    tree: RCTree,
    system,
    u: Callable[[float], float],
    horizon: float,
    num_steps: int,
    method: str,
) -> TransientResult:
    import scipy.linalg

    if method not in ("trapezoidal", "backward-euler"):
        raise AnalysisError(
            f"unknown method {method!r}; use 'trapezoidal' or 'backward-euler'"
        )
    n = system.size
    h = horizon / num_steps
    c_over_h = np.diag(system.capacitance / h)
    g = system.conductance
    if method == "trapezoidal":
        lhs = c_over_h + 0.5 * g
        rhs_matrix = c_over_h - 0.5 * g
    else:
        lhs = c_over_h + g
        rhs_matrix = c_over_h
    try:
        lu, piv = scipy.linalg.lu_factor(lhs)
    except scipy.linalg.LinAlgError as exc:  # pragma: no cover
        raise AnalysisError("singular companion matrix") from exc

    times = np.linspace(0.0, horizon, num_steps + 1)
    voltages = np.zeros((n, num_steps + 1), dtype=np.float64)
    v = np.zeros(n, dtype=np.float64)
    b = system.input_vector
    u_prev = u(0.0)
    for k in range(1, num_steps + 1):
        u_next = u(times[k])
        if method == "trapezoidal":
            rhs = rhs_matrix @ v + b * (0.5 * (u_prev + u_next))
        else:
            rhs = rhs_matrix @ v + b * u_next
        v = scipy.linalg.lu_solve((lu, piv), rhs)
        voltages[:, k] = v
        u_prev = u_next
    return TransientResult(tree=tree, times=times, voltages=voltages, method=method)
