"""STA/SSTA net records on the worker pool.

A design version's net records are published once, as one shared-memory
block whatever the shard count; every shard task then gets a descriptor
and its shard index, and a worker lays a shard out once per attachment.
The blocks are unlinked when the version is dropped, at most
``MAX_PUBLISHED_WORKSPACES`` versions stay published (each watched by
one finalizer however often it is published again), an overrides
call's blocks live for that call only, and a failed publish falls back
to the serial path without a leftover segment.
"""

import dataclasses
import gc
import os
import pickle
import sys
import threading
import weakref

import pytest

import repro.sta.timing as timing
from repro.obs.metrics import counter
from repro.obs.trace import tracing
from repro.parallel.shm import MAX_PUBLISHED_WORKSPACES, SEGMENT_PREFIX, \
    WorkspaceDescriptor, WorkspaceRegistry, active_segment_names
from repro.resilience.faults import clear_faults, install_faults
from repro.sta import analyze, elaborate_net
from repro.sta.ssta import analyze_ssta
from repro.workloads import random_design
from tests.sta.test_compiled_design import MODEL, SHARDED, copy_of, \
    ssta_outcome, sta_outcome

pytestmark = pytest.mark.skipif(not os.path.isdir("/dev/shm"),
                                reason="no /dev/shm")

SHM = {"jobs": 2, "backend": "shm"}

#: Blocks one published design version holds.
BLOCKS = 1


def sta_segments():
    """This process's published net-record segments."""
    mine = f"{SEGMENT_PREFIX}_{os.getpid()}_sta_"
    return [name for name in active_segment_names() if name.startswith(mine)]


def publishes(tracer):
    """Per op: whether it published records (``bytes`` > 0)."""
    return [span.attributes["bytes"] > 0
            for span in tracer.find("sta.forest_publish")]


@pytest.mark.usefixtures("pool_always")
class TestPublishOnce:
    def test_one_publish_per_design_version(self):
        design = random_design(**SHARDED)
        with tracing() as tracer:
            for _ in range(4):
                analyze(design, **SHM)
            assert publishes(tracer) == [True, False, False, False]
            spans = tracer.find("sta.forest_publish")
            assert [s.attributes["cached"] for s in spans] == \
                [False, True, True, True]
            assert {s.attributes["segments"] for s in spans} == {BLOCKS}
            # Each worker lays out each shard it gets once, and never
            # on the parent's side.
            layouts = tracer.find("batch.compile_forest")
            assert 2 <= len(layouts) <= 2 * 2
            assert design._compiled.forests == {}
        inst = design.instances["g3_5"]
        inst.position = (inst.position[0] + 7e-6, inst.position[1])
        with tracing() as tracer:
            for _ in range(3):
                analyze_ssta(design, MODEL, **SHM)
            assert publishes(tracer) == [True, False, False]
        assert len(sta_segments()) == BLOCKS

    def test_payload_is_a_descriptor(self, monkeypatch):
        sizes = {}
        real = timing.run_sharded

        def recording(task, payloads, **kwargs):
            sizes[len(design.nets)] = [len(pickle.dumps(p))
                                       for p in payloads]
            for payload in payloads:
                assert isinstance(payload[0], WorkspaceDescriptor)
            return real(task, payloads, **kwargs)

        monkeypatch.setattr(timing, "run_sharded", recording)
        for layers in (7, 20):
            design = random_design(layers, 40, seed=7)
            analyze(design, **SHM)
        # A few hundred bytes each, however many nets a shard holds.
        assert max(max(s) for s in sizes.values()) < 2048
        assert len(sizes) == 2


@pytest.mark.usefixtures("pool_always")
class TestUnlink:
    def test_a_dropped_version_unlinks_its_records(self):
        design = random_design(**SHARDED)
        # A result of the old version does not keep its records published.
        kept = analyze(design, **SHM)
        before = sta_outcome(design, **SHM)
        old = sta_segments()
        assert len(old) == BLOCKS
        inst = design.instances["g2_9"]
        inst.position = (inst.position[0], inst.position[1] + 5e-6)
        got = sta_outcome(design, **SHM)
        gc.collect()
        now = sta_segments()
        assert len(now) == BLOCKS and not set(old) & set(now)
        assert got != before
        assert got == sta_outcome(copy_of(design))
        del design, kept
        gc.collect()
        assert sta_segments() == []

    def test_a_mutator_unlinks_the_records_a_live_result_holds(self):
        design = random_design(**SHARDED)
        kept = analyze(design, **SHM)
        assert len(sta_segments()) == BLOCKS
        design.add_input("spare")
        assert sta_segments() == []
        assert kept._version.records  # the result still reads its nets
        design.add_output("spare_out")
        design.connect("n_spare", ("@port", "spare"),
                       [("@port", "spare_out")])
        assert sta_outcome(design, **SHM) == sta_outcome(copy_of(design))
        assert len(sta_segments()) == BLOCKS

    def test_published_versions_stay_within_the_cap(self):
        cap = MAX_PUBLISHED_WORKSPACES
        designs = [random_design(7, 40, seed=seed) for seed in range(cap + 2)]
        outcomes = [sta_outcome(design, **SHM) for design in designs]
        assert len(timing._PUBLISHED) <= cap
        assert len(sta_segments()) == cap * BLOCKS
        # The evicted first version publishes again, and is still right.
        assert sta_outcome(designs[0], **SHM) == outcomes[0] == \
            sta_outcome(random_design(7, 40, seed=0))
        assert len(sta_segments()) == cap * BLOCKS

    def test_an_overrides_call_keeps_no_segment(self):
        design = random_design(**SHARDED)
        name = next(iter(design.nets))
        net = elaborate_net(design, design.nets[name])
        given = {name: (net.tree, net.sink_nodes)}
        published = counter("parallel_shm_publish_total")
        before = published.value
        got = sta_outcome(design, net_overrides=given, **SHM)
        assert published.value == before + BLOCKS
        assert sta_segments() == []
        assert got == sta_outcome(design, net_overrides=given) == \
            sta_outcome(random_design(**SHARDED))
        assert design._compiled.overrides


@pytest.mark.usefixtures("pool_always")
class TestFallback:
    def test_failed_publish_falls_back_and_leaves_no_segment(self):
        design = random_design(**SHARDED)
        reference = sta_outcome(random_design(**SHARDED))
        fellback = counter("parallel_shm_fallback_total")
        before = fellback.value
        install_faults("shm.publish")
        try:
            got = sta_outcome(design, **SHM)
        finally:
            clear_faults()
        assert sta_segments() == []
        assert fellback.value == before + 1
        assert got == reference
        # The next op publishes and runs on the pool.
        assert ssta_outcome(analyze_ssta(design, MODEL, **SHM)) == \
            ssta_outcome(analyze_ssta(random_design(**SHARDED), MODEL))
        assert fellback.value == before + 1
        assert len(sta_segments()) == BLOCKS


class TestConcurrentPublish:
    def test_threads_keep_the_cap_and_leave_no_segment(self):
        """Threads publishing and dropping parts at once never keep more
        than the cap published, and leave nothing once the parts go."""
        cap = MAX_PUBLISHED_WORKSPACES
        design = random_design(3, 40, seed=1)
        analyze(design, jobs=1)
        version = design._compiled
        shards = timing._net_plan(len(design.nets))
        # Records sharing the nets stand for distinct design versions.
        parts = [dataclasses.replace(version) for _ in range(3 * cap)]
        seen, errors = [], []

        def worker(mine):
            try:
                for _ in range(20):
                    for p in mine:
                        timing._publish(p, shards)
                        seen.append(len(timing._PUBLISHED))
            except Exception as exc:  # pragma: no cover - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(parts[k::6],))
                       for k in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert errors == [] and seen and max(seen) <= cap
        assert len(sta_segments()) == cap * BLOCKS
        del parts, version
        gc.collect()
        assert sta_segments() == []


@pytest.mark.usefixtures("pool_always")
class TestFinalizers:
    def test_republishing_adds_no_finalizer(self):
        """Cycling one design more than the cap through the pool evicts
        and republishes every op, but each version keeps one finalizer."""
        designs = [random_design(7, 40, seed=seed)
                   for seed in range(MAX_PUBLISHED_WORKSPACES + 1)]
        counts = []
        with tracing() as tracer:
            for _ in range(3):
                for design in designs:
                    analyze(design, **SHM)
                counts.append(len(weakref.finalize._registry))
            assert all(publishes(tracer))
        assert counts[0] == counts[1] == counts[2]
        del designs, design
        gc.collect()
        assert sta_segments() == []

    def test_a_collection_inside_the_lock_does_not_deadlock(self):
        """A finalizer run by a garbage collection while the registry's
        lock is held (say, by an allocation inside it) takes the lock
        again in the same thread."""
        class Owner:
            pass

        registry = WorkspaceRegistry("test")
        owner = Owner()
        owner.cycle = owner  # collected only by the cyclic collector
        registry.workspace(owner, lambda: ({"x": pickle.loads(
            pickle.dumps(list(range(4))))}, {}))
        assert len(registry) == 1
        del owner
        done = []

        def collect():
            with registry._lock:
                gc.collect()
            done.append(True)

        thread = threading.Thread(target=collect, daemon=True)
        thread.start()
        thread.join(timeout=30.0)
        assert done == [True]
        assert len(registry) == 0
