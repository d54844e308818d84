"""Unit tests for the canonical first-order SSTA form (Clark max/add)."""

import math

import numpy as np
import pytest

from repro._exceptions import AnalysisError
from repro.core.canonical import (
    CanonicalForm,
    canonical_add,
    canonical_constant,
    canonical_max,
    canonical_max_many,
    covariance,
    normal_cdf,
    normal_pdf,
    normal_quantile,
)


def sample(form, z, extra):
    """Evaluate a canonical form on explicit draws.

    ``z`` is a (B, M) matrix of shared-variable draws; ``extra`` maps
    residual labels to (B,) standard-normal draws (one stream per label,
    shared across forms — exactly the correlation model the form claims).
    """
    out = np.full(z.shape[0], form.mu)
    out += z @ form.a
    for label, coeff in form.resid.items():
        out += coeff * extra[label]
    return out


class TestNormalHelpers:
    def test_cdf_pdf_basics(self):
        assert normal_cdf(0.0) == pytest.approx(0.5)
        assert normal_cdf(1.0) == pytest.approx(0.8413447460685429, rel=1e-12)
        assert normal_pdf(0.0) == pytest.approx(1.0 / math.sqrt(2 * math.pi))

    def test_quantile_inverts_cdf(self):
        for p in (1e-9, 0.01, 0.31, 0.5, 0.84134474, 0.999, 1 - 1e-9):
            assert normal_cdf(normal_quantile(p)) == pytest.approx(
                p, rel=1e-9, abs=1e-12
            )

    def test_quantile_domain(self):
        with pytest.raises(AnalysisError):
            normal_quantile(0.0)
        with pytest.raises(AnalysisError):
            normal_quantile(1.0)


class TestFormBasics:
    def test_variance_and_sigma(self):
        form = CanonicalForm(2.0, np.array([3.0, 4.0]), {"e": 12.0})
        assert form.variance == pytest.approx(9 + 16 + 144)
        assert form.sigma == pytest.approx(13.0)

    def test_constant(self):
        form = canonical_constant(5.0, 3)
        assert form.variance == 0.0
        assert form.cdf(5.0) == 1.0
        assert form.cdf(4.999) == 0.0
        assert form.quantile(0.99) == 5.0

    def test_cdf_quantile_roundtrip(self):
        form = CanonicalForm(10.0, np.array([2.0]), {"e": 1.0})
        t = form.quantile(0.9)
        assert form.cdf(t) == pytest.approx(0.9, rel=1e-9)
        assert form.sigma_corner(3.0) == pytest.approx(10.0 + 3 * form.sigma)

    def test_nonfinite_rejected(self):
        with pytest.raises(AnalysisError):
            CanonicalForm(float("nan"), np.array([1.0]))
        with pytest.raises(AnalysisError):
            CanonicalForm(0.0, np.array([np.inf]))

    def test_mismatched_spaces_rejected(self):
        x = canonical_constant(0.0, 2)
        y = canonical_constant(0.0, 3)
        with pytest.raises(AnalysisError):
            canonical_add(x, y)


class TestAddAndCovariance:
    def test_add_is_exact(self):
        x = CanonicalForm(1.0, np.array([1.0, 0.0]), {"p": 2.0})
        y = CanonicalForm(2.0, np.array([0.5, -1.0]), {"p": 1.0, "q": 3.0})
        s = canonical_add(x, y)
        assert s.mu == 3.0
        np.testing.assert_allclose(s.a, [1.5, -1.0])
        assert s.resid == {"p": 3.0, "q": 3.0}
        # Var(x+y) = var x + var y + 2 cov, honored exactly.
        assert s.variance == pytest.approx(
            x.variance + y.variance + 2 * covariance(x, y)
        )

    def test_covariance_shared_labels(self):
        x = CanonicalForm(0.0, np.array([1.0]), {"shared": 2.0, "ox": 5.0})
        y = CanonicalForm(0.0, np.array([3.0]), {"shared": 4.0, "oy": 7.0})
        assert covariance(x, y) == pytest.approx(1 * 3 + 2 * 4)

    def test_shifted(self):
        x = CanonicalForm(1.0, np.array([1.0]), {"e": 1.0})
        y = x.shifted(2.5)
        assert y.mu == 3.5
        assert y.variance == x.variance


class TestClarkMax:
    def test_independent_standard_normals(self):
        # E[max(X,Y)] = 1/sqrt(pi), Var = 1 - 1/pi for iid N(0,1).
        x = CanonicalForm(0.0, np.array([0.0]), {"x": 1.0})
        y = CanonicalForm(0.0, np.array([0.0]), {"y": 1.0})
        m, tightness = canonical_max(x, y)
        assert tightness == pytest.approx(0.5)
        assert m.mu == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-12)
        assert m.variance == pytest.approx(1.0 - 1.0 / math.pi, rel=1e-12)

    def test_dominant_operand_passes_through(self):
        x = CanonicalForm(100.0, np.array([1.0]), {"x": 0.5})
        y = CanonicalForm(0.0, np.array([0.2]), {"y": 0.1})
        m, tightness = canonical_max(x, y)
        assert tightness == pytest.approx(1.0, abs=1e-12)
        assert m.mu == pytest.approx(100.0, rel=1e-12)
        assert m.variance == pytest.approx(x.variance, rel=1e-9)

    def test_degenerate_theta_picks_larger_mean(self):
        shared = CanonicalForm(1.0, np.array([2.0]), {"e": 1.0})
        shifted = shared.shifted(3.0)
        m, tightness = canonical_max(shared, shifted)
        assert m.mu == shifted.mu
        assert tightness == 0.0
        assert m.variance == pytest.approx(shared.variance)

    def test_operands_equal_up_to_rounding_are_a_tie(self):
        # One sum of forty forms, added in two orders: the results hold
        # the same labels with coefficients equal up to rounding, so
        # theta**2 is rounding noise and Clark's alpha would be noise
        # over noise (tightness ~0.5).  The tie rule picks a side.
        rng = np.random.default_rng(19)
        parts = [
            CanonicalForm(float(rng.uniform(1e-11, 2e-11)),
                          rng.uniform(0.0, 1e-12, 3),
                          {f"e{i % 7}": float(rng.uniform(0.0, 1e-12))})
            for i in range(40)
        ]
        x = parts[0]
        for part in parts[1:]:
            x = x + part
        y = parts[-1]
        for part in reversed(parts[:-1]):
            y = y + part
        theta_sq = x.variance + y.variance - 2.0 * covariance(x, y)
        assert 0.0 < math.sqrt(theta_sq) < 1e-7 * x.sigma
        m, tightness = canonical_max(x, y)
        assert tightness in (0.0, 1.0)
        winner = x if tightness == 1.0 else y
        assert winner.mu == max(x.mu, y.mu)
        assert m.mu == winner.mu
        assert m.variance == winner.variance
        assert dict(m.resid) == dict(winner.resid)

    def test_against_monte_carlo_correlated(self):
        # Correlated through both a shared variable and a shared label.
        x = CanonicalForm(1.0, np.array([0.8, 0.0]), {"common": 0.5,
                                                      "x": 0.3})
        y = CanonicalForm(1.2, np.array([0.4, 0.6]), {"common": 0.5,
                                                      "y": 0.4})
        rng = np.random.default_rng(7)
        B = 400_000
        z = rng.normal(size=(B, 2))
        extra = {k: rng.normal(size=B) for k in ("common", "x", "y")}
        mx = np.maximum(sample(x, z, extra), sample(y, z, extra))
        m, _ = canonical_max(x, y)
        assert m.mu == pytest.approx(float(mx.mean()), rel=5e-3)
        assert m.sigma == pytest.approx(float(mx.std()), rel=1e-2)

    def test_max_conserves_clark_variance_exactly(self):
        x = CanonicalForm(1.0, np.array([0.8]), {"x": 0.3})
        y = CanonicalForm(1.1, np.array([0.7]), {"y": 0.4})
        var_x, var_y, cov = x.variance, y.variance, covariance(x, y)
        theta = math.sqrt(var_x + var_y - 2 * cov)
        alpha = (x.mu - y.mu) / theta
        t = normal_cdf(alpha)
        pdf = normal_pdf(alpha)
        mean = x.mu * t + y.mu * (1 - t) + theta * pdf
        second = ((x.mu**2 + var_x) * t + (y.mu**2 + var_y) * (1 - t)
                  + (x.mu + y.mu) * theta * pdf)
        m, _ = canonical_max(x, y)
        assert m.mu == pytest.approx(mean, rel=1e-14)
        assert m.variance == pytest.approx(second - mean**2, rel=1e-12)

    def test_max_label_used_for_residual(self):
        x = CanonicalForm(0.0, np.array([0.0]), {"x": 1.0})
        y = CanonicalForm(0.0, np.array([0.0]), {"y": 1.0})
        m, _ = canonical_max(x, y, label="here")
        assert "here" in m.resid

    def test_reconvergence_beats_scalar_residual(self):
        # A common upstream segment feeding both operands: with labeled
        # residuals the max knows the operands are highly correlated.
        common = CanonicalForm(5.0, np.array([0.0]), {"stem": 1.0})
        x = canonical_add(common, CanonicalForm(0.1, np.array([0.0]),
                                                {"bx": 0.01}))
        y = canonical_add(common, CanonicalForm(0.0, np.array([0.0]),
                                                {"by": 0.01}))
        m, tightness = canonical_max(x, y)
        # Nearly perfectly correlated: x dominates and the max keeps the
        # stem's full variance instead of averaging it away.
        assert tightness > 0.99
        assert m.variance == pytest.approx(x.variance, rel=1e-2)


class TestMaxMany:
    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(3)
        forms = [
            CanonicalForm(float(mu), np.array([0.1 * i]), {f"e{i}": 0.2})
            for i, mu in enumerate(rng.normal(5.0, 1.0, size=6))
        ]
        m, weights = canonical_max_many(forms)
        assert len(weights) == 6
        assert all(w >= 0.0 for w in weights)
        assert sum(weights) == pytest.approx(1.0)
        assert m.mu >= max(f.mu for f in forms) - 1e-12

    def test_single_form_identity(self):
        form = CanonicalForm(2.0, np.array([1.0]), {"e": 0.5})
        m, weights = canonical_max_many([form])
        assert m.mu == form.mu
        assert weights == [1.0]

    def test_criticality_matches_monte_carlo(self):
        forms = [
            CanonicalForm(0.0, np.array([0.3]), {"a": 0.9}),
            CanonicalForm(0.3, np.array([0.3]), {"b": 0.9}),
            CanonicalForm(-0.4, np.array([0.3]), {"c": 0.9}),
        ]
        _, weights = canonical_max_many(forms)
        rng = np.random.default_rng(11)
        B = 300_000
        z = rng.normal(size=(B, 1))
        extra = {k: rng.normal(size=B) for k in ("a", "b", "c")}
        stacked = np.stack([sample(f, z, extra) for f in forms])
        counts = np.bincount(np.argmax(stacked, axis=0), minlength=3) / B
        for w, c in zip(weights, counts):
            assert w == pytest.approx(float(c), abs=0.02)

    def test_empty_rejected(self):
        with pytest.raises(AnalysisError):
            canonical_max_many([])
