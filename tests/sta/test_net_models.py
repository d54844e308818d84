"""Every delay model runs through one net-evaluation path: the batched
forest sweep, in process or in shard tasks.  It agrees with the per-tree
oracle (``net_model_oracle``), gives the same bits on every backend,
counts metric fallbacks across the worker hop and journals under a
fingerprint that names the model."""

import pytest

import repro.sta.timing as timing
from repro.circuit import RCTree
from repro.obs.metrics import counter
from repro.resilience.checkpoint import CheckpointError
from repro.sta import DELAY_MODELS, Pin, analyze, default_library
from repro.workloads import random_design

from tests.sta.net_model_oracle import design_delays
from tests.sta.test_geometry import mixed_design, overrides
from tests.sta.test_timing import build_chain

CASES = {
    "mixed": lambda: (mixed_design(), overrides()),
    "random": lambda: (random_design(8, 40, seed=1), None),
}

#: Relative tolerance of each model's wire delays against the per-tree
#: oracle (0 = bit for bit).  The metrics read the forest sweep's
#: coefficients where the oracle runs a scalar walk per tree; the two
#: round differently, by a few ulps.
TOLERANCE = {
    "elmore": 0.0,
    "exact": 0.0,
    "ln2_elmore": 1e-9,
    "lower_bound": 1e-9,
    "lognormal": 1e-9,
    "d2m": 1e-9,
    "two_pole": 1e-9,
    # Moments that differ by ~2e-16 relative can flip
    # ``pade_from_moments``' drop of an unstable fitted pole, so the
    # two sides fit different four-pole models at a few sinks: up to
    # ~1e-4 relative apart on these designs, neither side consistently
    # closer to the exact delay.
    "awe4": 1e-3,
}


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("model", list(DELAY_MODELS))
def test_matches_the_per_tree_oracle(model, case):
    design, net_overrides = CASES[case]()
    result = analyze(design, model, net_overrides=net_overrides)
    wire, dispersion, _ = design_delays(design, model, net_overrides)
    assert result.wire_delay.keys() == wire.keys()
    if TOLERANCE[model] == 0.0:
        assert result.wire_delay == wire
    else:
        for pin, delay in wire.items():
            assert result.wire_delay[pin] == pytest.approx(
                delay, rel=TOLERANCE[model], abs=0.0), pin
    # Slews: sigma_out^2 = sigma_in^2 + mu2 from the oracle's own sweep.
    for net in design.nets.values():
        driver = result.slew[net.driver]
        for sink in net.sinks:
            assert result.slew[sink] == \
                (driver ** 2 + dispersion[sink]) ** 0.5, sink


@pytest.mark.parametrize("model", list(DELAY_MODELS))
def test_serial_equals_shm(model):
    design = random_design(8, 40, seed=1)
    serial = analyze(design, model)
    shards = counter("parallel_shards_total")
    before = shards.value
    sharded = analyze(design, model, jobs=2, backend="shm")
    assert shards.value - before >= 2
    assert sharded.wire_delay == serial.wire_delay
    assert sharded.arrival == serial.arrival
    assert sharded.slew == serial.slew
    assert sharded.critical_delay == serial.critical_delay


def one_rc_chain():
    """``build_chain`` with net ``n1`` replaced by one RC section: a
    single pole, on which every higher-order fit fails."""
    tree = RCTree("in")
    tree.add_node("drv", "in", 400.0, 1e-15)
    return build_chain(default_library()), \
        {"n1": (tree, {Pin("u1", "a"): "drv"})}


@pytest.mark.parametrize("engine", [{}, {"jobs": 2, "backend": "shm"}],
                         ids=["serial", "shm2"])
@pytest.mark.parametrize("model", ["two_pole", "awe4"])
def test_fit_fallbacks_counted_across_the_worker_hop(model, engine,
                                                     monkeypatch):
    design, net_overrides = one_rc_chain()
    # One net per shard, so the sharded run crosses the worker hop.
    monkeypatch.setattr(timing, "NET_SHARD_FLOOR", 1)
    fallbacks = counter("sta_metric_fallbacks_total")
    shards = counter("parallel_shards_total")
    before = (fallbacks.value, fallbacks.labels(metric=model).value,
              shards.value)
    result = analyze(design, model, net_overrides=net_overrides, **engine)
    assert fallbacks.value - before[0] == 1
    assert fallbacks.labels(metric=model).value - before[1] == 1
    if engine:
        assert shards.value - before[2] >= 2
    # The failed sink keeps its certified Elmore delay.
    assert result.wire_delay[Pin("u1", "a")] == \
        analyze(design, net_overrides=net_overrides).wire_delay[
            Pin("u1", "a")]
    _, _, oracle_fallbacks = design_delays(design, model, net_overrides)
    assert oracle_fallbacks == 1


class TestJournal:
    def test_another_delay_model_does_not_resume(self, tmp_path):
        design = random_design(3, 4, seed=3)
        path = str(tmp_path / "sta.ckpt")
        analyze(design, "d2m", checkpoint_path=path)
        with pytest.raises(CheckpointError, match="different run"):
            analyze(design, "elmore", checkpoint_path=path, resume=True)

    def test_interrupted_d2m_run_resumes_bit_identical(self, tmp_path):
        design = random_design(11, 40, seed=1)  # 480 nets, three shards
        path = str(tmp_path / "sta.ckpt")
        full = analyze(design, "d2m", checkpoint_path=path)
        with open(path, "rb") as handle:
            lines = handle.readlines()
        assert len(lines) > 3  # header + one record per shard
        with open(path, "wb") as handle:
            handle.writelines(lines[:3])  # header + the first two shards
        resumed_shards = counter("resilience_checkpoint_shards_resumed_total")
        before = resumed_shards.value
        resumed = analyze(design, "d2m", checkpoint_path=path, resume=True)
        assert resumed_shards.value - before == 2
        assert resumed.wire_delay == full.wire_delay
        assert resumed.arrival == full.arrival
        assert resumed.slew == full.slew
