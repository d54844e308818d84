"""The percentile helpers behind every reported timing."""

import statistics

import numpy as np
import pytest

from stats import percentile, summarize, tail_percentile


@pytest.mark.parametrize("p", [0.0, 10.0, 50.0, 90.0, 99.0, 100.0])
def test_percentile_matches_numpy_linear_rule(p):
    values = list(np.random.default_rng(7).exponential(size=137))
    assert percentile(values, p) == pytest.approx(np.percentile(values, p))


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        percentile([], 50.0)
    with pytest.raises(ValueError):
        percentile([1.0], 101.0)


@pytest.mark.parametrize("n, expected", [
    (9, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0),
    (999, 90.0), (1000, 99.0), (9999, 99.0), (10000, 99.9),
])
def test_tail_percentile_leaves_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected
    if expected is not None:
        assert n * (100.0 - expected) / 100.0 >= 10 - 1e-9


def test_summarize_uses_the_statistics_quartiles():
    values = [10.0, 11.0, 9.0, 10.5, 12.0, 10.2, 9.8, 10.1, 10.3, 9.9]
    s = summarize(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert s["median"] == statistics.median(values)
    assert (s["q1"], s["q3"]) == (q1, q3)
    assert s["iqr_frac"] == pytest.approx((q3 - q1) / s["median"])
    assert s["range_frac"] == pytest.approx(3.0 / s["median"])
