"""Canonical first-order delay forms for statistical timing (SSTA).

A delay quantity is represented in the *canonical first-order form* of
gate-level statistical STA (cf. Visweswariah et al. and the exact-solution
treatment in arXiv:2401.03588):

    d = mu + sum_i a_i * dZ_i + sum_j r_j * dE_j

where the ``dZ_i`` are **globally shared** standard-normal process
variables (e.g. chip-wide resistance / capacitance / cell-speed shifts)
and the ``dE_j`` are **independent** standard-normal residual sources.
Unlike the textbook form, the residual here is not a single collapsed
coefficient: every independent source keeps its own *label* (a net's
compressed wire residual, a gate instance, or the max operation that
created it), so two arrival forms that share upstream path segments
stay exactly correlated through those labels.  This removes the classic
common-path pessimism of scalar-residual SSTA at the cost of a dict per
form.  Any set of labels whose coefficients every form holds only as
``v^T G`` may be swapped for labels carrying ``v^T L`` with
``L L^T = G G^T``: covariances, hence every moment below, are unchanged
(:mod:`repro.sta.ssta` does this per net, keeping as many labels as the
net has sinks).

Under this representation

* ``add`` is exact (Gaussians are closed under addition and every
  coefficient adds linearly);
* ``max`` uses Clark's moment-matched formulas: the result's mean and
  variance are Clark's exact first two moments of ``max(X, Y)`` for the
  jointly Gaussian pair, the linear coefficients are interpolated with
  the tightness probability ``T = P(X > Y)``, and the variance the
  linear part cannot express is assigned to a fresh independent residual
  so downstream covariances stay consistent.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro._exceptions import AnalysisError

__all__ = [
    "CanonicalForm",
    "canonical_add",
    "canonical_constant",
    "canonical_max",
    "canonical_max_many",
    "clark_moments",
    "covariance",
    "normal_cdf",
    "normal_pdf",
    "normal_quantile",
]

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

#: Fresh labels for the variance-matching residuals minted by ``max``.
_MAX_LABELS = itertools.count()

#: ``canonical_max`` treats ``X - Y`` as deterministic (a tie) when its
#: sigma ``theta`` is at most this fraction of the larger operand sigma.
#: ``theta**2 = var_x + var_y - 2 cov`` carries rounding of order
#: ``1e-16 * var`` per summed coefficient, so for operands that are equal
#: up to rounding ``theta`` is noise near ``1e-8 * sigma`` and Clark's
#: ``alpha`` would be rounding divided by rounding.  Below this threshold
#: the max is the larger-mean operand; the moments that choice drops are
#: at most ``theta * phi(0) < 4e-7`` of the operand sigma.
TIE_EPSILON = 1e-6


def normal_pdf(x: float) -> float:
    """Standard normal density ``phi(x)``."""
    return _INV_SQRT_2PI * math.exp(-0.5 * x * x)


def normal_cdf(x: float) -> float:
    """Standard normal CDF ``Phi(x)`` (via ``erfc`` for tail accuracy)."""
    return 0.5 * math.erfc(-x / _SQRT2)


def normal_quantile(p: float) -> float:
    """Inverse standard normal CDF.

    Peter Acklam's rational approximation refined by one Halley step —
    better than 1e-12 absolute over the open unit interval, with no
    dependency beyond :mod:`math`.
    """
    if not 0.0 < p < 1.0:
        raise AnalysisError(f"quantile probability must be in (0, 1): {p}")
    # Acklam coefficients.
    a = (-3.969683028665376e+01, 2.209460984245205e+02,
         -2.759285104469687e+02, 1.383577518672690e+02,
         -3.066479806614716e+01, 2.506628277459239e+00)
    b = (-5.447609879822406e+01, 1.615858368580409e+02,
         -1.556989798598866e+02, 6.680131188771972e+01,
         -1.328068155288572e+01)
    c = (-7.784894002430293e-03, -3.223964580411365e-01,
         -2.400758277161838e+00, -2.549732539343734e+00,
         4.374664141464968e+00, 2.938163982698783e+00)
    d = (7.784695709041462e-03, 3.224671290700398e-01,
         2.445134137142996e+00, 3.754408661907416e+00)
    p_low = 0.02425
    if p < p_low:
        q = math.sqrt(-2.0 * math.log(p))
        x = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q
             + c[5]) / ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)
    elif p <= 1.0 - p_low:
        q = p - 0.5
        r = q * q
        x = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r
             + a[5]) * q / (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r
                             + b[4]) * r + 1.0)
    else:
        q = math.sqrt(-2.0 * math.log1p(-p))
        x = -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q
              + c[5]) / ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q
                         + 1.0)
    # One Halley refinement against the exact CDF.
    err = normal_cdf(x) - p
    u = err * math.sqrt(2.0 * math.pi) * math.exp(0.5 * x * x)
    return x - u / (1.0 + 0.5 * x * u)


def _check_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise AnalysisError(f"canonical form {name} is not finite: {value}")
    return value


@dataclass(frozen=True)
class CanonicalForm:
    """One Gaussian delay/arrival quantity in canonical first-order form.

    Attributes
    ----------
    mu:
        Mean value.
    a:
        Coefficients over the shared process variables, one per variable
        of the governing process space (a copy-on-write ``np.ndarray``).
    resid:
        Independent-source coefficients keyed by source label.  Two
        forms are correlated through equal labels; distinct labels are
        independent.
    """

    mu: float
    a: np.ndarray
    resid: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "mu", _check_finite("mu", self.mu))
        arr = np.asarray(self.a, dtype=np.float64)
        if arr.ndim != 1:
            raise AnalysisError("canonical form coefficients must be 1-D")
        if not np.all(np.isfinite(arr)):
            raise AnalysisError("canonical form coefficients must be finite")
        object.__setattr__(self, "a", arr)

    # -- moments ---------------------------------------------------------

    @property
    def variance(self) -> float:
        """Total variance ``|a|^2 + sum r^2``."""
        var = float(np.dot(self.a, self.a))
        for value in self.resid.values():
            var += value * value
        return var

    @property
    def sigma(self) -> float:
        return math.sqrt(max(self.variance, 0.0))

    @property
    def num_variables(self) -> int:
        return int(self.a.shape[0])

    # -- distribution ----------------------------------------------------

    def cdf(self, t: float) -> float:
        """``P(d <= t)`` under the Gaussian model."""
        sigma = self.sigma
        if sigma <= 0.0:
            return 1.0 if t >= self.mu else 0.0
        return normal_cdf((t - self.mu) / sigma)

    def prob_gt(self, t: float) -> float:
        """``P(d > t)``."""
        return 1.0 - self.cdf(t)

    def quantile(self, p: float) -> float:
        """The ``p``-quantile of the delay distribution."""
        sigma = self.sigma
        if sigma <= 0.0:
            return self.mu
        return self.mu + sigma * normal_quantile(p)

    def sigma_corner(self, k: float) -> float:
        """The ``mu + k*sigma`` corner value."""
        return self.mu + k * self.sigma

    # -- algebra ---------------------------------------------------------

    def shifted(self, delta: float) -> "CanonicalForm":
        """The same distribution translated by a deterministic ``delta``."""
        return CanonicalForm(self.mu + delta, self.a, dict(self.resid))

    def __add__(self, other: "CanonicalForm") -> "CanonicalForm":
        return canonical_add(self, other)


def canonical_constant(mu: float, num_variables: int) -> CanonicalForm:
    """A deterministic value as a (zero-variance) canonical form."""
    return CanonicalForm(mu, np.zeros(num_variables), {})


def _check_compatible(x: CanonicalForm, y: CanonicalForm) -> None:
    if x.num_variables != y.num_variables:
        raise AnalysisError(
            "canonical forms live in different process spaces "
            f"({x.num_variables} vs {y.num_variables} shared variables)"
        )


def covariance(x: CanonicalForm, y: CanonicalForm) -> float:
    """Exact covariance of two forms: shared variables + shared labels."""
    _check_compatible(x, y)
    cov = float(np.dot(x.a, y.a))
    small, large = (x.resid, y.resid) if len(x.resid) <= len(y.resid) \
        else (y.resid, x.resid)
    for label, value in small.items():
        other = large.get(label)
        if other is not None:
            cov += value * other
    return cov


def canonical_add(x: CanonicalForm, y: CanonicalForm) -> CanonicalForm:
    """``x + y`` — exact for jointly Gaussian canonical forms."""
    _check_compatible(x, y)
    resid = dict(x.resid)
    for label, value in y.resid.items():
        resid[label] = resid.get(label, 0.0) + value
    return CanonicalForm(x.mu + y.mu, x.a + y.a, resid)


def clark_moments(
    mu_x: float, var_x: float, mu_y: float, var_y: float, cov: float
) -> Tuple[float, float, float, bool]:
    """Clark's ``(tightness, mean, variance, tie)`` of ``max(X, Y)``.

    ``X`` and ``Y`` are jointly Gaussian with the given means, variances
    and covariance; ``tightness = P(X >= Y)``.  When the sigma of
    ``X - Y`` is at most :data:`TIE_EPSILON` of the larger operand sigma
    the pair is a tie: the larger-mean operand (``X`` on equal means)
    is the max, with tightness 1 or 0, and the returned variance is 0
    (the caller keeps that operand whole).
    """
    theta = math.sqrt(max(var_x + var_y - 2.0 * cov, 0.0))
    if theta <= TIE_EPSILON * math.sqrt(max(var_x, var_y)):
        # X - Y is deterministic up to rounding (a tie, see
        # TIE_EPSILON): the max is simply the one with the larger mean.
        return (1.0, mu_x, 0.0, True) if mu_x >= mu_y \
            else (0.0, mu_y, 0.0, True)
    alpha = (mu_x - mu_y) / theta
    tightness = normal_cdf(alpha)
    pdf = normal_pdf(alpha)
    mean = mu_x * tightness + mu_y * (1.0 - tightness) + theta * pdf
    second = (
        (mu_x * mu_x + var_x) * tightness
        + (mu_y * mu_y + var_y) * (1.0 - tightness)
        + (mu_x + mu_y) * theta * pdf
    )
    return tightness, mean, max(second - mean * mean, 0.0), False


def canonical_max(
    x: CanonicalForm,
    y: CanonicalForm,
    label: Optional[str] = None,
) -> Tuple[CanonicalForm, float]:
    """Clark's moment-matched statistical max of two canonical forms.

    Returns ``(max_form, tightness)`` where ``tightness = P(x >= y)``.
    The result's mean and variance are Clark's exact first two moments
    of ``max(X, Y)``; its linear coefficients are the tightness-weighted
    interpolation ``T*x + (1-T)*y`` and any variance the linear part
    cannot carry is assigned to a fresh independent residual labeled
    ``label`` (auto-generated when omitted).  When the sigma of
    ``X - Y`` is at most :data:`TIE_EPSILON` of the larger operand sigma
    the pair is a deterministic tie: the larger-mean operand (``x`` on
    equal means) is the max, with tightness 1 or 0.
    """
    _check_compatible(x, y)
    tightness, mean, var, tie = clark_moments(
        x.mu, x.variance, y.mu, y.variance, covariance(x, y))
    if tie:
        if tightness == 1.0:
            return CanonicalForm(x.mu, x.a, dict(x.resid)), 1.0
        return CanonicalForm(y.mu, y.a, dict(y.resid)), 0.0
    a = tightness * x.a + (1.0 - tightness) * y.a
    resid: Dict[str, float] = {
        lbl: tightness * val for lbl, val in x.resid.items()
    }
    for lbl, val in y.resid.items():
        resid[lbl] = resid.get(lbl, 0.0) + (1.0 - tightness) * val
    var_linear = float(np.dot(a, a)) + sum(v * v for v in resid.values())
    deficit = var - var_linear
    if deficit > 0.0:
        key = label if label is not None else f"max#{next(_MAX_LABELS)}"
        resid[key] = math.sqrt(deficit)
    elif var_linear > 0.0 and deficit < 0.0:
        # Rare: the interpolated linear part overshoots Clark's variance
        # (strongly correlated operands).  Rescale it so the total
        # variance still matches Clark's exactly.
        scale = math.sqrt(var / var_linear) if var > 0.0 else 0.0
        a = a * scale
        resid = {lbl: val * scale for lbl, val in resid.items()}
    return CanonicalForm(mean, a, resid), tightness


def canonical_max_many(
    forms: Sequence[CanonicalForm],
    label: Optional[str] = None,
) -> Tuple[CanonicalForm, List[float]]:
    """Statistical max of several forms with per-operand criticalities.

    Folds :func:`canonical_max` left to right; the returned weights
    approximate ``P(operand i is the largest)`` via the chain of
    tightness probabilities (they are nonnegative and sum to 1).
    """
    if not forms:
        raise AnalysisError("canonical_max_many needs at least one form")
    result = forms[0]
    weights = [1.0]
    for index, form in enumerate(forms[1:], start=1):
        sub = None if label is None else f"{label}#{index}"
        result, tightness = canonical_max(result, form, label=sub)
        weights = [w * tightness for w in weights]
        weights.append(1.0 - tightness)
    total = sum(weights)
    if total > 0.0:
        weights = [w / total for w in weights]
    return result, weights
