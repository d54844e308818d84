"""Array-native nets: :func:`net_arrays` lays every kind of net out as
flat parent/R/C arrays, the shard task sweeps them without building any
``RCTree``, and the trees ``build_net`` makes over them are the same
trees as before, bit for bit."""

import hashlib
import io
import math
import pickle

import numpy as np
import pytest

import repro.sta.timing as timing
from repro._exceptions import TimingGraphError, TopologyError, ValidationError
from repro.circuit import RCTree
from repro.core.batch import compile_forest
from repro.parallel import LocalWorkspace, Shard, plan_shards
from repro.resilience.checkpoint import tree_fingerprint
from repro.sta import (
    NetArrays,
    WireLoadModel,
    analyze,
    build_net,
    net_arrays,
    net_geometry,
)
from repro.sta.interconnect import net_forest, net_record
from repro.workloads import random_design
from tests.sta.test_geometry import mixed_design, overrides

#: SHA-256 over the ``tree_fingerprint`` of every ``result.nets`` tree of
#: ``analyze(random_design(20, 50, seed=1))``, in design order, as the
#: node-by-node ``add_node`` construction made them.
RANDOM_DESIGN_TREES_DIGEST = (
    "5f043dd37ab43889e3463a23b3871bd36d2bbbea8230514e81db937d11712eff"
)

NETS = ["na", "nb", "n1", "n3", "n2", "n4", "n5"]


def geometry(name):
    d = mixed_design()
    return net_geometry(d, d.nets[name], override=overrides().get(name))


def shard_task(records, delay_model="elmore", process=None):
    """The shard task over ``records`` as one shard, laid out from the
    blocks a pool worker reads."""
    arrays, meta = timing._pickled_records(records,
                                           [Shard(0, 0, len(records))])
    workspace = LocalWorkspace()
    workspace.arrays.update(arrays)
    workspace.meta.update(meta)
    return timing._net_shard_task((workspace, 0, delay_model, process))


class TestNetArrays:
    @pytest.mark.parametrize("name", NETS)
    def test_tree_over_arrays_is_build_net(self, name):
        g = geometry(name)
        arrays = net_arrays(g)
        assert isinstance(arrays, NetArrays)
        tree = RCTree.from_arrays(*arrays[:5])
        built = build_net(g)
        assert tree_fingerprint(tree) == tree_fingerprint(built.tree)
        assert len(arrays.sinks) == len(g.sink_pins())
        assert {pin: arrays.node_names[i] for pin, i in
                zip(g.sink_pins(), arrays.sinks)} == built.sink_nodes

    def test_override_net_is_its_trees_arrays(self):
        g = geometry("n3")
        tree, mapping = g.override
        arrays = net_arrays(g)
        assert arrays.input_node == tree.input_node
        assert tuple(arrays.node_names) == tree.node_names
        assert arrays.sinks == [tree.index_of("y")]
        assert build_net(g).tree is tree

    def test_pin_listed_twice_keeps_its_last_node(self):
        routed = net_arrays(geometry("n1"))  # u2.a, u3.a, u2.a
        assert [routed.node_names[i] for i in routed.sinks] == ["p3", "p2"]
        star = net_arrays(geometry("n5"))  # port w listed twice
        assert star.node_names == ["drv", "s0", "s1"]
        assert star.sinks == [2]
        assert star.capacitances[1] < star.capacitances[2]

    @pytest.mark.parametrize("load", [-1e-15, math.nan, math.inf])
    @pytest.mark.parametrize("name", ["n1", "n2"], ids=["routed", "star"])
    def test_bad_sink_load_rejected_on_both_paths(self, name, load):
        g = geometry(name)
        g = g._replace(sink_loads=g.sink_loads[:-1] + (load,))
        with pytest.raises(ValidationError, match="finite"):
            build_net(g)
        with pytest.raises(ValidationError, match="finite"):
            shard_task([net_record(g)])


class TestTreesUnchanged:
    def test_random_design_fingerprints_pinned(self):
        result = analyze(random_design(20, 50, seed=1))
        digest = hashlib.sha256()
        for net in result.nets.values():
            digest.update(tree_fingerprint(net.tree).encode())
        assert digest.hexdigest() == RANDOM_DESIGN_TREES_DIGEST


class TestShardTask:
    def test_payload_is_plain_tuples(self):
        geometries = timing._net_geometries(mixed_design(), None,
                                            overrides()).values()
        classes = []

        class Recording(pickle.Unpickler):
            def find_class(self, module, name):
                classes.append(name)
                return super().find_class(module, name)

        blob = pickle.dumps([net_record(g) for g in geometries])
        records = Recording(io.BytesIO(blob)).load()
        # No Pin, net name or NetGeometry: the wire models and the
        # override net's tree are the only objects besides tuples.
        assert sorted(classes) == ["RCTree", "WireLoadModel",
                                   "WireTechnology"]
        assert not {"na", "nb", "n1", "n2", "n3", "n4", "n5"} & {
            item for record in records for item in record
            if isinstance(item, str)}
        design = random_design(4, 6, seed=5)
        records = pickle.loads(pickle.dumps([
            net_record(g)
            for g in timing._net_geometries(design, None, None).values()]))
        routed = [r for r in records if len(r) == 6]
        assert len(routed) > 1
        assert all(r[4] is routed[0][4] for r in routed)  # one technology

    def test_builds_no_rc_tree(self, monkeypatch):
        design = random_design(4, 6, seed=5)
        geometries = list(timing._net_geometries(design, None,
                                                 None).values())
        built = []
        real_init = RCTree.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(RCTree, "__init__", counting_init)
        out = shard_task([net_record(g) for g in geometries])
        assert built == []
        assert out.shape == (3, sum(len(g.sink_pins())
                                    for g in geometries))
        build_net(geometries[0])  # the counter does see tree builds
        assert built == [1]

    @pytest.mark.parametrize("seed", [1, 2])
    def test_shards_equal_the_tree_sweep(self, seed):
        design = random_design(5, 8, seed=seed)
        geometries = list(timing._net_geometries(design, None,
                                                 None).values())
        for shard in plan_shards(len(geometries)):
            part = geometries[shard.start:shard.stop]
            got = shard_task([net_record(g) for g in part])
            # The trees build_net makes, swept as override records.
            trees = [build_net(g) for g in part]
            ref = timing._sweep_nets(net_forest([
                (net.tree, tuple(net.sink_nodes.values())) for net in trees
            ]), "elmore")
            assert got.tobytes() == ref.tobytes()


class TestCompileForestRecords:
    def test_records_compile_like_trees(self):
        design = random_design(3, 5, seed=3)
        geometries = timing._net_geometries(design, None, None).values()
        records = [net_arrays(g) for g in geometries]
        trees = [RCTree.from_arrays(*r[:5]) for r in records]
        (got, got_off), (ref, ref_off) = (compile_forest(records),
                                          compile_forest(trees))
        assert got_off == ref_off
        assert got.node_names == ref.node_names
        for field in ("parents", "resistances", "capacitances"):
            assert getattr(got, field).tobytes() == \
                getattr(ref, field).tobytes()
        assert [a.tobytes() for a in got.levels] == \
            [a.tobytes() for a in ref.levels]

    def record(self, **fields):
        base = dict(input_node="in", node_names=["drv", "a", "b"],
                    parents=[-1, 0, 1], resistances=[10.0, 20.0, 30.0],
                    capacitances=[0.0, 1e-15, 2e-15], sinks=[2])
        base.update(fields)
        return NetArrays(**base)

    @pytest.mark.parametrize("fields", [
        dict(resistances=[10.0, 0.0, 30.0]),
        dict(resistances=[10.0, math.nan, 30.0]),
        dict(resistances=[10.0, 20.0, math.inf]),
        dict(capacitances=[0.0, -1e-15, 2e-15]),
        dict(capacitances=[0.0, 1e-15, math.nan]),
    ])
    def test_bad_element_raises_from_arrays_error(self, fields):
        bad = self.record(**fields)
        with pytest.raises(ValidationError) as ref:
            RCTree.from_arrays(*bad[:5])
        with pytest.raises(ValidationError) as got:
            compile_forest([self.record(), bad])
        assert str(got.value) == str(ref.value)

    def test_parent_must_precede_child(self):
        with pytest.raises(TopologyError):
            compile_forest([self.record(parents=[-1, 2, 0])])

    def test_capacitance_free_record_rejected(self):
        with pytest.raises(ValidationError, match="no capacitance"):
            compile_forest([self.record(),
                            self.record(capacitances=[0.0] * 3)])

    def test_empty_record_rejected(self):
        empty = self.record(node_names=[], parents=[], resistances=[],
                            capacitances=[])
        with pytest.raises(ValidationError, match="no nodes"):
            compile_forest([empty])

    def test_mixed_trees_and_records(self):
        record = self.record()
        tree = RCTree.from_arrays(*record[:5])
        topo, offsets = compile_forest([tree, record])
        assert offsets == (0, 3)
        assert topo.node_names[3:] == ("1/drv", "1/a", "1/b")
        np.testing.assert_array_equal(topo.parents, [-1, 0, 1, -1, 3, 4])


class TestWireLoadModelFinite:
    @pytest.mark.parametrize("args", [
        (math.nan, 5e-15), (math.inf, 5e-15), (1.0, math.inf),
        (1.0, math.nan),
    ])
    def test_rejected(self, args):
        with pytest.raises(TimingGraphError, match="finite"):
            WireLoadModel(*args)

    def test_rejected_before_reaching_the_workers(self):
        with pytest.raises(TimingGraphError, match="finite"):
            analyze(mixed_design(),
                    wire_load=WireLoadModel(math.nan, 5e-15), jobs=2,
                    backend="shm")
