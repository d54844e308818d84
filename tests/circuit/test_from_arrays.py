"""``RCTree.from_arrays`` builds the same tree as ``add_node`` in bulk and
rejects every input ``add_node`` rejects, with the same exception type."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from repro import RCTree
from repro._exceptions import TopologyError, ValidationError
from repro.resilience.checkpoint import tree_fingerprint
from tests.properties.strategies import rc_trees

# (names, parents, R, C) of hand-built trees, in add_node order.
TREES = {
    "line": (["n1", "n2", "n3"], [-1, 0, 1], [100.0, 100.0, 100.0],
             [1e-12, 1e-12, 1e-12]),
    "branched": (["trunk", "a", "b", "a2", "b2"], [-1, 0, 0, 1, 2],
                 [200.0, 150.0, 300.0, 500.0, 75.0],
                 [0.1e-12, 0.2e-12, 0.0, 0.45e-12, 3e-15]),
    "forest_roots": (["x", "y", "x1", "y1", "x2"], [-1, -1, 0, 1, 0],
                     [10.0, 20.0, 30.0, 40.0, 50.0],
                     [0.0, 1e-15, 2e-15, 0.0, 5e-15]),
    "single": (["only"], [-1], [1.0], [0.0]),
}


def by_add_node(input_node, names, parents, resistances, capacitances):
    tree = RCTree(input_node)
    for name, parent, r, c in zip(names, parents, resistances,
                                  capacitances):
        tree.add_node(name, input_node if parent < 0 else names[parent],
                      r, c)
    return tree


def assert_same_tree(got, ref):
    assert got.input_node == ref.input_node
    assert got.node_names == ref.node_names
    assert tree_fingerprint(got) == tree_fingerprint(ref)
    for arr in ("parents", "resistances", "capacitances", "depths"):
        a, b = getattr(got, arr), getattr(ref, arr)
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)
    for name in (ref.input_node,) + ref.node_names:
        assert got.children_of(name) == ref.children_of(name)
        assert got.depth_of(name) == ref.depth_of(name)
    assert list(got.iter_preorder()) == list(ref.iter_preorder())
    assert got.leaves() == ref.leaves()
    assert [got.node(n) for n in got.node_names] == \
        [ref.node(n) for n in ref.node_names]


class TestEqualsAddNode:
    @pytest.mark.parametrize("name", sorted(TREES))
    def test_lists(self, name):
        arrays = TREES[name]
        assert_same_tree(RCTree.from_arrays("in", *arrays),
                         by_add_node("in", *arrays))

    @pytest.mark.parametrize("name", sorted(TREES))
    def test_numpy_arrays(self, name):
        names, parents, res, cap = TREES[name]
        tree = RCTree.from_arrays(
            "src", tuple(names), np.array(parents), np.array(res),
            np.array(cap),
        )
        assert_same_tree(tree, by_add_node("src", *TREES[name]))

    @settings(max_examples=40, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(rc_trees(max_nodes=30))
    def test_random_trees_round_trip(self, tree):
        assert_same_tree(RCTree.from_arrays("in", *tree.to_arrays()), tree)

    def test_sums_that_overflow_are_still_legal(self):
        arrays = (["a", "b"], [-1, 0], [1e308, 1e308], [1e308, 1e308])
        assert_same_tree(RCTree.from_arrays("in", *arrays),
                         by_add_node("in", *arrays))

    def test_empty_tree(self):
        tree = RCTree.from_arrays("in", [], [], [], [])
        assert tree.num_nodes == 0
        with pytest.raises(ValidationError):
            tree.validate()

    def test_round_trip_through_a_tree(self):
        ref = by_add_node("in", *TREES["branched"])
        clone = RCTree.from_arrays(ref.input_node, ref.node_names,
                                   ref.parents, ref.resistances,
                                   ref.capacitances)
        assert_same_tree(clone, ref)
        assert_same_tree(ref.copy(), ref)

    def test_scaled_matches_add_node(self):
        names, parents, res, cap = TREES["branched"]
        scaled = by_add_node("in", *TREES["branched"]).scaled(2.5, 0.3)
        ref = by_add_node("in", names, parents, [r * 2.5 for r in res],
                          [c * 0.3 for c in cap])
        assert_same_tree(scaled, ref)

    def test_caller_arrays_stay_writeable_and_unshared(self):
        names, parents, res, cap = TREES["line"]
        r = np.array(res)
        tree = RCTree.from_arrays("in", names, np.array(parents), r,
                                  np.array(cap))
        assert r.flags.writeable
        r[0] = 1e9
        assert tree.resistances[0] == 100.0
        with pytest.raises(ValueError):
            tree.resistances[0] = 1.0

    def test_tree_stays_mutable(self):
        names, parents, res, cap = TREES["line"]
        tree = RCTree.from_arrays("in", names, parents, res, cap)
        tree.add_node("n4", "n3", 50.0, 2e-12)
        tree.set_capacitance("n1", 5e-12)
        ref = by_add_node("in", *TREES["line"])
        ref.add_node("n4", "n3", 50.0, 2e-12)
        ref.set_capacitance("n1", 5e-12)
        assert_same_tree(tree, ref)


def _error_of(build):
    try:
        build()
    except Exception as exc:  # noqa: BLE001 - the type is the result
        return type(exc)
    return None


BAD = {
    "duplicate name": (["a", "b", "a"], [-1, 0, 1], [1.0] * 3, [1e-15] * 3),
    "name is the input node": (["a", "in"], [-1, 0], [1.0] * 2, [0.0] * 2),
    "empty name": (["a", ""], [-1, 0], [1.0] * 2, [0.0] * 2),
    "parent is the child": (["a", "b"], [-1, 1], [1.0] * 2, [0.0] * 2),
    "parent after child": (["a", "b", "c"], [-1, 2, 0], [1.0] * 3,
                           [0.0] * 3),
    "R zero": (["a", "b"], [-1, 0], [1.0, 0.0], [0.0] * 2),
    "R negative": (["a", "b"], [-1, 0], [-1.0, 1.0], [0.0] * 2),
    "R NaN": (["a", "b"], [-1, 0], [1.0, math.nan], [0.0] * 2),
    "R inf": (["a", "b"], [-1, 0], [math.inf, 1.0], [0.0] * 2),
    "C negative": (["a", "b"], [-1, 0], [1.0] * 2, [0.0, -1e-15]),
    "C NaN": (["a", "b"], [-1, 0], [1.0] * 2, [math.nan, 0.0]),
    "C inf": (["a", "b"], [-1, 0], [1.0] * 2, [0.0, math.inf]),
    # Several faults: the first node in add_node order decides the type.
    "bad R before a duplicate": (["a", "b", "a"], [-1, 0, 0],
                                 [1.0, math.nan, 1.0], [0.0] * 3),
    "duplicate before bad C": (["a", "a", "b"], [-1, 0, 0], [1.0] * 3,
                               [0.0, 0.0, -1.0]),
    "late parent before bad R": (["a", "b", "c"], [-1, 2, 0],
                                 [1.0, 1.0, -1.0], [0.0] * 3),
}


class TestRejectsLikeAddNode:
    @pytest.mark.parametrize("case", sorted(BAD))
    def test_same_exception_type(self, case):
        arrays = BAD[case]
        expected = _error_of(lambda: by_add_node("in", *arrays))
        assert expected in (TopologyError, ValidationError)
        with pytest.raises(expected):
            RCTree.from_arrays("in", *arrays)

    def test_messages_match_add_node(self):
        for case in ("R zero", "R NaN", "R inf", "C negative", "C NaN",
                     "duplicate name"):
            arrays = BAD[case]
            with pytest.raises(Exception) as ref:
                by_add_node("in", *arrays)
            with pytest.raises(Exception) as got:
                RCTree.from_arrays("in", *arrays)
            assert str(got.value) == str(ref.value)

    def test_empty_input_node(self):
        with pytest.raises(ValidationError):
            RCTree.from_arrays("", ["a"], [-1], [1.0], [0.0])

    @pytest.mark.parametrize("arrays", [
        (["a", "b"], [-1], [1.0, 1.0], [0.0, 0.0]),
        (["a"], [-1], [1.0, 1.0], [0.0]),
        (["a"], [-1], [1.0], []),
    ], ids=["parents", "resistances", "capacitances"])
    def test_length_mismatch(self, arrays):
        with pytest.raises(ValidationError):
            RCTree.from_arrays("in", *arrays)
