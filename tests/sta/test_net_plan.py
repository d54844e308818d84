"""The STA/SSTA net shard plan: sized by the net count alone.

A design of ``total`` nets runs in ``total // NET_SHARD_FLOOR`` near-equal
shards, at least one and at most ``DEFAULT_MAX_SHARDS`` (a shard pays its
own forest compile, sweep and pool round trip), and the plan never
depends on ``jobs``, so every backend and worker count gives the same
bits.
"""

import pytest

import repro.sta.timing as timing
from repro.obs.metrics import counter
from repro.parallel import DEFAULT_MAX_SHARDS
from repro.sta import analyze
from repro.workloads import random_design

FLOOR = timing.NET_SHARD_FLOOR


def design_with_nets(total, seed=1):
    """A random design with exactly ``total`` nets (``random_design``
    has ``width * (layers + 1)`` of them)."""
    for layers in range(max(1, int(total ** 0.5) - 1), total):
        if total % (layers + 1) == 0:
            design = random_design(layers, total // (layers + 1), seed=seed)
            assert len(design.nets) == total
            return design
    raise AssertionError(f"no random_design has {total} nets")


def shards_run(run=analyze, **kwargs):
    """``run(**kwargs)`` and how many shards it ran."""
    shards = counter("parallel_shards_total")
    before = shards.value
    result = run(**kwargs)
    return result, shards.value - before


class TestPlan:
    @pytest.mark.parametrize("total, count", [
        (1, 1), (FLOOR, 1), (2 * FLOOR - 1, 1), (2 * FLOOR, 2), (360, 2),
        (1050, 6),
        (FLOOR * DEFAULT_MAX_SHARDS, DEFAULT_MAX_SHARDS),
        (FLOOR * DEFAULT_MAX_SHARDS + 1, DEFAULT_MAX_SHARDS),
        (10_100, DEFAULT_MAX_SHARDS),
    ])
    def test_shard_count(self, total, count):
        shards = timing._net_plan(total)
        assert len(shards) == count
        assert shards[-1].stop == total
        assert [s.start for s in shards[1:]] == \
            [s.stop for s in shards[:-1]]
        sizes = [s.size for s in shards]
        assert min(sizes) >= min(FLOOR, total)
        assert max(sizes) - min(sizes) <= 1

    @pytest.mark.usefixtures("pool_always")
    def test_plan_ignores_jobs(self):
        design = design_with_nets(3 * FLOOR)
        two, at_two = shards_run(design=design, jobs=2)
        three, at_three = shards_run(design=design, jobs=3)
        assert at_two == at_three == 3
        assert two.arrival == three.arrival


@pytest.mark.usefixtures("pool_always")
class TestFloorBitIdentity:
    """Serial and shm@2 arrivals agree bit for bit on both sides of the
    one-shard/two-shard edge."""

    @pytest.mark.parametrize("total, count", [
        (FLOOR, 1), (2 * FLOOR - 1, 1), (2 * FLOOR, 2),
    ])
    def test_serial_equals_shm(self, total, count):
        design = design_with_nets(total)
        serial = analyze(design)
        shm, shards = shards_run(design=design, jobs=2, backend="shm")
        assert shards == count
        assert serial.arrival == shm.arrival
        assert serial.slew == shm.slew
        assert serial.wire_delay == shm.wire_delay
        assert serial.critical_delay == shm.critical_delay


@pytest.mark.usefixtures("pool_always")
class TestSmallDesignsThroughThePool:
    """A design under the floor is one shard, which the executor runs
    in the parent; with the floor lowered to one net per shard the same
    designs cross the worker pool (pickled geometry, override trees and
    process model) and still give the serial bits."""

    @pytest.fixture(autouse=True)
    def one_net_per_shard(self, monkeypatch):
        monkeypatch.setattr(timing, "NET_SHARD_FLOOR", 1)

    def test_overrides_and_repeated_sinks(self):
        from tests.sta.test_geometry import mixed_design, overrides

        design = mixed_design()
        serial = analyze(design, net_overrides=overrides())
        shm, shards = shards_run(design=design, net_overrides=overrides(),
                                 jobs=2, backend="shm")
        assert shards == len(design.nets)
        assert serial.arrival == shm.arrival
        assert serial.slew == shm.slew
        assert serial.wire_delay == shm.wire_delay

    def test_ssta(self):
        from repro.core.variation import VariationModel
        from repro.sta.ssta import ProcessModel, analyze_ssta

        design = random_design(layers=3, width=4, seed=3)
        model = ProcessModel(VariationModel(0.08, 0.08), rho_r=0.5,
                             rho_c=0.5, cell_sigma=0.05, rho_cell=0.5)
        serial = analyze_ssta(design, model)
        # A fresh copy: ``design`` now keeps its SSTA inputs, and the
        # workers are to compute them.
        shm, shards = shards_run(analyze_ssta,
                                 design=random_design(layers=3, width=4,
                                                      seed=3),
                                 model=model, jobs=2, backend="shm")
        assert shards == len(design.nets)
        assert serial.arrival.keys() == shm.arrival.keys()
        for pin, form in serial.arrival.items():
            assert (shm.arrival[pin].mu, shm.arrival[pin].sigma) == \
                (form.mu, form.sigma)
