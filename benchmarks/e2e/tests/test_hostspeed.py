"""The host speed probe and the scaling of timings to the reference speed."""

import pytest

from hostspeed import REFERENCE_S, probe, scaled, scaled_all, settled_probe


def test_probe_times_a_fixed_loop():
    assert 0.0 < probe() < 1.0
    assert 0.0 < settled_probe(3) < 1.0


def test_a_duration_scales_by_the_probe_measured_with_it():
    # Measured while the host ran the probe at half the reference speed.
    assert scaled(0.2, 2 * REFERENCE_S) == pytest.approx(0.1)
    assert scaled(0.2, REFERENCE_S) == pytest.approx(0.2)
    assert scaled_all([0.2, 0.3], [2 * REFERENCE_S, REFERENCE_S]) == \
        pytest.approx([0.1, 0.3])
    with pytest.raises(ValueError):
        scaled_all([0.2], [])
