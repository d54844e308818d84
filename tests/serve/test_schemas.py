"""Request validation: readable 400s, coalescing keys, parameter rows."""

import numpy as np
import pytest

from repro._exceptions import ValidationError
from repro.ops import OPS
from repro.serve.schemas import (
    MAX_ROWS_PER_REQUEST,
    parse_stats_request,
    resolve_workload,
    topology_key,
    tree_from_spec,
)
from repro.signals import SaturatedRamp, StepInput

INLINE_TREE = {
    "input": "in",
    "nodes": [
        {"name": "a", "parent": "in", "r": 100.0, "c": 1e-12},
        {"name": "b", "parent": "a", "r": 200.0, "c": 2e-12},
    ],
}


class TestWorkloads:
    def test_named_workloads_resolve(self):
        assert resolve_workload("fig1").num_nodes > 0
        assert resolve_workload("tree25").num_nodes == 25

    def test_workloads_are_cached_singletons(self):
        assert resolve_workload("fig1") is resolve_workload("fig1")

    def test_parametric_balanced(self):
        tree = resolve_workload("balanced:3x2")
        assert tree.num_nodes == 1 + 2 + 4

    @pytest.mark.parametrize("name", [
        "nope", "balanced:x", "balanced:0x2", "balanced:2x-1", "", 7,
    ])
    def test_bad_workloads_rejected(self, name):
        with pytest.raises(ValidationError):
            resolve_workload(name)

    def test_oversized_parametric_workload_rejected(self):
        with pytest.raises(ValidationError, match="limit"):
            resolve_workload("balanced:30x2")

    @pytest.mark.parametrize("name", [
        "balanced:200000x2",       # geometric blow-up
        "balanced:1000000000x1",   # linear chain, huge depth
        "balanced:64x65536",       # huge fanout
    ])
    def test_huge_parametric_workloads_rejected_fast(self, name):
        # The node count must be bounded *before* any big-int
        # exponentiation: an unbounded sum here would stall the event
        # loop for arbitrary client input.
        import time

        start = time.monotonic()
        with pytest.raises(ValidationError, match="limit"):
            resolve_workload(name)
        assert time.monotonic() - start < 1.0


class TestInlineTrees:
    def test_round_trip(self):
        tree = tree_from_spec(INLINE_TREE)
        assert list(tree.node_names) == ["a", "b"]
        assert tree.input_node == "in"

    @pytest.mark.parametrize("mutate", [
        lambda s: s.pop("nodes"),
        lambda s: s["nodes"].append({"name": "c", "parent": "ghost",
                                     "r": 1.0}),
        lambda s: s["nodes"].append({"name": "a", "parent": "in",
                                     "r": 1.0}),
        lambda s: s["nodes"][0].pop("r"),
        lambda s: s["nodes"][0].update(r=-5.0),
        lambda s: s["nodes"][0].update(bogus=1),
        lambda s: s.update(bogus=1),
    ])
    def test_malformed_trees_rejected(self, mutate):
        spec = {
            "input": INLINE_TREE["input"],
            "nodes": [dict(n) for n in INLINE_TREE["nodes"]],
        }
        mutate(spec)
        with pytest.raises(ValidationError):
            tree_from_spec(spec)


class TestTopologyKey:
    def test_same_inline_shape_coalesces(self):
        assert topology_key(tree_from_spec(INLINE_TREE)) == \
            topology_key(tree_from_spec(INLINE_TREE))

    def test_element_values_do_not_split_keys(self):
        # Coalescing is structural: same shape, different R/C -> the
        # values ride in as parameter rows, the sweep is shared.
        other = {
            "input": "in",
            "nodes": [
                {"name": "a", "parent": "in", "r": 999.0, "c": 9e-12},
                {"name": "b", "parent": "a", "r": 1.0, "c": 1e-15},
            ],
        }
        assert topology_key(tree_from_spec(INLINE_TREE)) == \
            topology_key(tree_from_spec(other))

    def test_different_shapes_split_keys(self):
        reshaped = {
            "input": "in",
            "nodes": [
                {"name": "a", "parent": "in", "r": 100.0, "c": 1e-12},
                {"name": "b", "parent": "in", "r": 200.0, "c": 2e-12},
            ],
        }
        assert topology_key(tree_from_spec(INLINE_TREE)) != \
            topology_key(tree_from_spec(reshaped))

    def test_workload_key_is_name_based(self):
        tree = resolve_workload("fig1")
        assert topology_key(tree, origin="fig1") == "workload:fig1"

    def test_nul_crafted_names_do_not_collide(self):
        # Names are length-prefixed into the digest: with a separator
        # byte alone, ["a\x00b", "c"] and ["a", "b\x00c"] would hash
        # identically and coalesce two different topologies.
        def spec(names):
            return {
                "input": "in",
                "nodes": [
                    {"name": name, "parent": "in", "r": 1.0, "c": 1e-12}
                    for name in names
                ],
            }

        a = tree_from_spec(spec(["a\x00b", "c"]))
        b = tree_from_spec(spec(["a", "b\x00c"]))
        assert topology_key(a) != topology_key(b)


class TestStatsRequest:
    def test_defaults(self):
        req = parse_stats_request({"workload": "fig1"})
        assert req.key == "workload:fig1"
        assert req.rows == 1
        assert isinstance(req.signal, StepInput)
        np.testing.assert_array_equal(
            req.resistances[0], resolve_workload("fig1").resistances
        )

    def test_signal_spec(self):
        req = parse_stats_request(
            {"workload": "fig1", "signal": "ramp:2ns"}
        )
        assert isinstance(req.signal, SaturatedRamp)
        assert req.signal.rise_time == pytest.approx(2e-9)

    def test_rscale_rows(self):
        req = parse_stats_request(
            {"workload": "fig1", "rscale": [1.0, 1.5], "cscale": 2.0}
        )
        assert req.rows == 2
        tree = resolve_workload("fig1")
        np.testing.assert_allclose(
            req.resistances[1], 1.5 * tree.resistances
        )
        np.testing.assert_allclose(
            req.capacitances[0], 2.0 * tree.capacitances
        )

    def test_explicit_rows(self):
        req = parse_stats_request({
            "tree": INLINE_TREE,
            "resistances": [[10.0, 20.0], [30.0, 40.0]],
            "capacitances": [1e-12, 2e-12],
        })
        assert req.rows == 2
        np.testing.assert_array_equal(
            req.capacitances, [[1e-12, 2e-12]] * 2
        )

    @pytest.mark.parametrize("payload", [
        {},  # no topology
        {"workload": "fig1", "tree": INLINE_TREE},  # both
        {"workload": "fig1", "rscale": 0.0},
        {"workload": "fig1", "rscale": [1.0], "resistances": [[1.0]]},
        {"workload": "fig1", "resistances": [[1.0, 2.0]]},  # wrong width
        {"workload": "fig1", "rscale": [1.0, 2.0], "cscale": [1.0] * 3},
        {"workload": "fig1", "nodes": ["ghost"]},
        {"workload": "fig1", "signal": "bogus:2ns"},
        {"workload": "fig1", "signal": "ramp"},  # missing parameter
        {"workload": "fig1", "timeout_ms": 0},
        {"workload": "fig1", "bogus": 1},
        {"tree": INLINE_TREE, "capacitances": [[0.0, 0.0]]},  # no C
        [],
        "text",
    ])
    def test_invalid_requests_rejected(self, payload):
        with pytest.raises(ValidationError):
            parse_stats_request(payload)

    def test_row_limit_enforced(self):
        with pytest.raises(ValidationError, match="limit"):
            parse_stats_request({
                "workload": "fig1",
                "rscale": [1.0] * (MAX_ROWS_PER_REQUEST + 1),
            })

    def test_timeout_ms(self):
        req = parse_stats_request(
            {"workload": "fig1", "timeout_ms": 1500}
        )
        assert req.timeout_s == pytest.approx(1.5)


class TestVerifyAndSta:
    def test_verify_defaults(self):
        req = OPS["verify"].parse_json({"workload": "tree25"})
        assert req.samples == 4001
        assert req.tree.num_nodes == 25

    def test_verify_sample_bounds(self):
        with pytest.raises(ValidationError):
            OPS["verify"].parse_json({"workload": "fig1", "samples": 3})

    def test_sta_defaults(self):
        req = OPS["sta"].parse_json({})
        assert (req.layers, req.width, req.seed) == (6, 15, 3)
        assert req.delay_model == "elmore"

    def test_sta_unknown_delay_model(self):
        with pytest.raises(ValidationError, match="delay model"):
            OPS["sta"].parse_json({"delay_model": "spice"})

    def test_sta_unknown_field(self):
        with pytest.raises(ValidationError, match="unknown"):
            OPS["sta"].parse_json({"depth": 3})

    def test_ssta_defaults(self):
        req = OPS["ssta"].parse_json({})
        assert (req.layers, req.width, req.seed) == (6, 15, 3)
        assert req.rsigma == req.csigma == pytest.approx(0.08)
        assert req.cell_sigma == pytest.approx(0.05)
        assert req.correlation == pytest.approx(0.5)
        assert req.required is None
        assert req.samples == 0

    def test_ssta_bounds(self):
        with pytest.raises(ValidationError, match="correlation"):
            OPS["ssta"].parse_json({"correlation": 2.0})
        with pytest.raises(ValidationError, match="rsigma"):
            OPS["ssta"].parse_json({"rsigma": -0.1})
        with pytest.raises(ValidationError, match="samples"):
            OPS["ssta"].parse_json({"samples": 200_000})
        with pytest.raises(ValidationError, match="unknown"):
            OPS["ssta"].parse_json({"sigma": 0.1})
