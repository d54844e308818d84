"""Net geometry shipping: workers build the RC trees, the parent builds
them only when ``TimingResult.nets`` is read, and every backend agrees
bit for bit with :func:`elaborate_net`."""

import json
import math
import pickle

import pytest

import repro.sta.timing as timing
from repro._exceptions import AnalysisError, RoutingError, TimingGraphError
from repro.circuit import RCTree
from repro.resilience.checkpoint import tree_fingerprint
from repro.sta import (
    Design,
    NetGeometry,
    Pin,
    analyze,
    build_net,
    default_library,
    elaborate_net,
    net_geometry,
)
from repro.workloads import random_design

BACKENDS = [{}, {"jobs": 2, "backend": "shm"}]
BACKEND_IDS = ["serial", "shm2"]


def mixed_design():
    """Routed nets, wire-load port nets, an override net and nets that
    list one pin twice, in one design."""
    d = Design("mixed", default_library())
    d.add_input("a")
    d.add_input("b")
    d.add_output("z")
    d.add_output("w")
    d.add_instance("u1", "INV", position=(0.0, 0.0))
    d.add_instance("u2", "NAND2", position=(100e-6, 20e-6))
    d.add_instance("u3", "INV", position=(50e-6, 80e-6))
    d.add_instance("u4", "NOR2", position=(150e-6, 60e-6))
    d.add_instance("u5", "INV")
    d.connect("na", ("@port", "a"), [("u1", "a")])
    d.connect("nb", ("@port", "b"), [("u4", "b")])
    # u2.a is listed twice on a routed net.
    d.connect("n1", ("u1", "y"), [("u2", "a"), ("u3", "a"), ("u2", "a")])
    d.connect("n3", ("u3", "y"), [("u2", "b")])
    d.connect("n2", ("u2", "y"), [("u4", "a"), ("u5", "a")])
    d.connect("n4", ("u4", "y"), [("@port", "z")])
    # A wire-load net with a port sink listed twice.
    d.connect("n5", ("u5", "y"), [("@port", "w"), ("@port", "w")])
    return d


def overrides():
    tree = RCTree("in")
    tree.add_node("drv", "in", 400.0, 0.0)
    tree.add_node("x", "drv", 120.0, 9e-15)
    tree.add_node("y", "x", 80.0, 11e-15)
    return {"n3": (tree, {Pin("u2", "b"): "y"})}


class TestNetGeometry:
    def test_record_is_plain_and_picklable(self):
        d = mixed_design()
        geometry = net_geometry(d, d.nets["n1"])
        assert isinstance(geometry, NetGeometry)
        assert pickle.loads(pickle.dumps(geometry)) == geometry
        assert geometry.driver_position == (0.0, 0.0)
        assert len(geometry.sink_positions) == 3
        assert geometry.sink_pins() == [Pin("u2", "a"), Pin("u3", "a")]

    def test_wire_load_net_has_no_positions(self):
        d = mixed_design()
        geometry = net_geometry(d, d.nets["n2"])  # u5 is unplaced
        assert geometry.driver_position is None
        assert geometry.sink_positions == ()
        assert len(geometry.sink_loads) == 2

    @pytest.mark.parametrize("name", ["na", "nb", "n1", "n3", "n2", "n4",
                                      "n5"])
    def test_build_net_equals_elaborate_net(self, name):
        d = mixed_design()
        override = overrides().get(name)
        built = build_net(net_geometry(d, d.nets[name], override=override))
        ref = elaborate_net(d, d.nets[name], override=override)
        assert tree_fingerprint(built.tree) == tree_fingerprint(ref.tree)
        assert built.sink_nodes == ref.sink_nodes
        assert list(built.sink_nodes) == net_geometry(
            d, d.nets[name], override=override).sink_pins()

    def test_pin_listed_twice_keeps_one_node_and_one_load(self):
        d = mixed_design()
        net = elaborate_net(d, d.nets["n1"])
        # Three routed sink nodes; the twice-listed pin maps to its last.
        assert net.sink_nodes == {Pin("u2", "a"): "p3", Pin("u3", "a"): "p2"}
        cap = net.tree.capacitances
        load = d.instances["u2"].cell.input_capacitance
        p1, p3 = net.tree.index_of("p1"), net.tree.index_of("p3")
        assert cap[p3] - cap[p1] == pytest.approx(load)


class TestLazyNets:
    def test_sharded_parent_builds_no_tree_until_nets_are_read(
            self, monkeypatch):
        calls = []
        real = timing.build_net

        def counting(geometry):
            calls.append(geometry.net)
            return real(geometry)

        monkeypatch.setattr(timing, "build_net", counting)
        design = random_design(3, 5, seed=3)
        result = analyze(design, jobs=2, backend="shm")
        assert calls == []
        name = next(iter(design.nets))
        first = result.nets[name]
        assert calls == [name]
        assert result.nets[name] is first  # cached
        assert calls == [name]
        assert name in result.nets and "no-such-net" not in result.nets
        assert len(result.nets) == len(design.nets)
        assert list(result.nets) == list(design.nets)
        assert calls == [name]

    def test_serial_path_builds_each_tree_once(self, monkeypatch):
        calls = []
        real = timing.build_net

        def counting(geometry):
            calls.append(geometry.net)
            return real(geometry)

        monkeypatch.setattr(timing, "build_net", counting)
        design = random_design(3, 5, seed=3)
        result = analyze(design)
        assert calls == list(design.nets)
        for name in design.nets:
            result.nets[name]
        assert calls == list(design.nets)

    def test_nets_is_read_only(self):
        result = analyze(mixed_design())
        with pytest.raises(TypeError):
            result.nets["n1"] = None  # type: ignore[index]
        with pytest.raises(KeyError):
            result.nets["no-such-net"]

    @pytest.mark.parametrize("kwargs", BACKENDS, ids=BACKEND_IDS)
    def test_every_tree_matches_elaborate_net(self, kwargs):
        d = mixed_design()
        result = analyze(d, net_overrides=overrides(), **kwargs)
        for name, net in d.nets.items():
            ref = elaborate_net(d, net, override=overrides().get(name))
            assert tree_fingerprint(result.nets[name].tree) == \
                tree_fingerprint(ref.tree)
            assert result.nets[name].sink_nodes == ref.sink_nodes

    def test_random_design_trees_match_elaborate_net(self):
        d = random_design(4, 6, seed=5)
        result = analyze(d, jobs=2, backend="shm")
        for name, net in d.nets.items():
            assert tree_fingerprint(result.nets[name].tree) == \
                tree_fingerprint(elaborate_net(d, net).tree)

    def test_exact_model_uses_the_same_trees(self):
        d = mixed_design()
        result = analyze(d, "exact", net_overrides=overrides())
        for name, net in d.nets.items():
            ref = elaborate_net(d, net, override=overrides().get(name))
            assert tree_fingerprint(result.nets[name].tree) == \
                tree_fingerprint(ref.tree)


class TestJournalKey:
    """A net's checkpoint-fingerprint ingredient, as JSON, pinned (STA
    journals fingerprint it, so any change refuses old journals)."""

    def keys(self):
        geometries = timing._net_geometries(mixed_design(), None,
                                            overrides())
        return {name: json.dumps(timing._journal_key(geometries[name]))
                for name in ("n1", "n3")}

    def test_routed_net(self):
        assert self.keys()["n1"] == (
            '["n1", [["u2", "a"], ["u3", "a"], ["u2", "a"]], 400.0, '
            '[0.0, 0.0], [[0.0001, 2e-05], [5e-05, 8e-05], '
            '[0.0001, 2e-05]], [9e-15, 8e-15, 9e-15], [50.0, 5e-15], '
            '[0.04, 3e-05, 4e-11, 5e-07, "M2-al"], 1e-06, null]'
        )

    def test_override_net(self):
        assert self.keys()["n3"] == (
            '["n3", [["u2", "b"]], 0.0, null, [], [], [50.0, 5e-15], '
            '[0.04, 3e-05, 4e-11, 5e-07, "M2-al"], 1e-06, '
            '["4af21046ddd54b917694d90277eb7bd1d6069f1878ace57ec6b37812'
            '330370a8", [["u2.b", "y"]]]]'
        )


class TestBackendsBitIdentical:
    def test_mixed_design_serial_equals_shm(self):
        d = mixed_design()
        serial = analyze(d, net_overrides=overrides())
        shm = analyze(d, net_overrides=overrides(), jobs=2, backend="shm")
        assert serial.arrival == shm.arrival
        assert serial.slew == shm.slew
        assert serial.wire_delay == shm.wire_delay
        assert serial.critical_delay == shm.critical_delay
        # Both sinks of the twice-listed nets were timed.
        for pin in (Pin("u2", "a"), Pin("u3", "a"), Pin(Pin.PORT, "w")):
            assert pin in shm.wire_delay

    def test_wire_delay_matches_per_net_elmore(self):
        d = mixed_design()
        batched = analyze(d, net_overrides=overrides(), jobs=2,
                          backend="shm")
        for name, net in d.nets.items():
            elaborated = elaborate_net(d, net,
                                       override=overrides().get(name))
            per_net = timing._elmore_model(elaborated)
            for pin, delay in per_net.items():
                assert batched.wire_delay[pin] == pytest.approx(
                    delay, rel=1e-12)


class TestBadPositions:
    @pytest.mark.parametrize("position", [
        ("a", "b"), (1.0,), (1.0, 2.0, 3.0), (math.inf, 0.0),
        (0.0, -math.inf), (math.nan, 0.0), 5.0, (True, 0.0),
    ], ids=["strings", "one", "three", "inf", "-inf", "nan", "scalar",
            "bool"])
    def test_add_instance_rejects(self, position):
        d = Design("d", default_library())
        with pytest.raises(TimingGraphError, match="finite"):
            d.add_instance("u1", "INV", position=position)
        assert "u1" not in d.instances

    def test_add_instance_accepts_reals(self):
        import numpy as np

        d = Design("d", default_library())
        inst = d.add_instance("u1", "INV", position=(np.float64(1e-6), 2))
        assert inst.position == (1e-6, 2.0)
        assert d.add_instance("u2", "INV", position=None).position is None

    @pytest.mark.parametrize("kwargs", BACKENDS, ids=BACKEND_IDS)
    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_position_set_after_placement(self, kwargs, bad):
        d = mixed_design()
        d.instances["u3"].position = (bad, 0.0)
        with pytest.raises(RoutingError, match="finite"):
            analyze(d, **kwargs)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("kwargs", BACKENDS, ids=BACKEND_IDS)
    def test_huge_position_raises_instead_of_nan(self, kwargs):
        d = Design("d", default_library())
        d.add_input("a")
        d.add_output("z")
        d.add_instance("u1", "INV", position=(0.0, 0.0))
        d.add_instance("u2", "INV", position=(1e300, 0.0))
        d.connect("na", ("@port", "a"), [("u1", "a")])
        d.connect("n1", ("u1", "y"), [("u2", "a")])
        d.connect("nz", ("u2", "y"), [("@port", "z")])
        with pytest.raises(AnalysisError, match="'n1'.*non-finite"):
            analyze(d, **kwargs)
