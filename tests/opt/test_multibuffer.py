"""Tests for buffer-library (multi-type) van Ginneken insertion."""

import itertools

import pytest

from repro._exceptions import ValidationError
from repro.circuit import rc_line
from repro.opt import BufferSink, BufferType, insert_buffers
from repro.opt import (
    assigned_stage_delays,
    insert_buffers_multi,
)

SMALL = BufferType("X1", input_capacitance=6e-15,
                   output_resistance=220.0, intrinsic_delay=18e-12)
BIG = BufferType("X4", input_capacitance=20e-15,
                 output_resistance=60.0, intrinsic_delay=30e-12)


def wire(n=20):
    return rc_line(n, 90.0, 45e-15, prefix="w")


class TestAgainstSingleType:
    def test_one_type_library_matches_single_dp(self):
        tree = wire()
        sinks = [BufferSink("w20", 18e-15)]
        single = insert_buffers(tree, sinks, SMALL, 260.0)
        multi = insert_buffers_multi(tree, sinks, [SMALL], 260.0)
        assert multi.required_at_driver == pytest.approx(
            single.required_at_driver, rel=1e-12
        )
        assert set(multi.assignments) == set(single.buffer_nodes)
        assert all(b.name == "X1" for b in multi.assignments.values())

    def test_two_types_never_worse_than_either_alone(self):
        tree = wire()
        sinks = [BufferSink("w20", 18e-15)]
        multi = insert_buffers_multi(tree, sinks, [SMALL, BIG], 260.0)
        for single_type in (SMALL, BIG):
            single = insert_buffers(tree, sinks, single_type, 260.0)
            assert multi.required_at_driver >= \
                single.required_at_driver - 1e-18

    def test_unbuffered_baselines_agree(self):
        tree = wire()
        sinks = [BufferSink("w20", 18e-15)]
        single = insert_buffers(tree, sinks, SMALL, 260.0)
        multi = insert_buffers_multi(tree, sinks, [SMALL, BIG], 260.0)
        assert multi.unbuffered_required == pytest.approx(
            single.unbuffered_required, rel=1e-12
        )


class TestOptimality:
    def test_matches_enumeration_over_types_and_positions(self):
        tree = rc_line(5, 160.0, 70e-15, prefix="w")
        sinks = [BufferSink("w5", 20e-15)]
        result = insert_buffers_multi(tree, sinks, [SMALL, BIG], 420.0)

        best = None
        nodes = list(tree.node_names)
        for size in range(0, 3):
            for combo in itertools.combinations(nodes, size):
                for types in itertools.product([SMALL, BIG], repeat=size):
                    assignment = dict(zip(combo, types))
                    arrival = assigned_stage_delays(
                        tree, sinks, assignment, 420.0
                    )
                    delay = arrival["w5"]
                    if best is None or delay < best[0]:
                        best = (delay, assignment)
        assert -result.required_at_driver == pytest.approx(
            best[0], rel=1e-12
        )
        assert {n: b.name for n, b in result.assignments.items()} == \
            {n: b.name for n, b in best[1].items()}

    def test_dp_matches_typed_stage_reevaluation(self):
        tree = wire()
        sinks = [BufferSink("w20", 18e-15)]
        result = insert_buffers_multi(tree, sinks, [SMALL, BIG], 260.0)
        arrival = assigned_stage_delays(
            tree, sinks, result.assignments, 260.0
        )
        assert -result.required_at_driver == pytest.approx(
            arrival["w20"], rel=1e-12
        )


class TestTypeSelection:
    def test_strong_driver_segment_prefers_big_buffer_downstream(self):
        """On a long wire the optimizer uses the big type somewhere (its
        drive strength pays for its input cap)."""
        tree = wire(30)
        sinks = [BufferSink("w30", 18e-15)]
        result = insert_buffers_multi(tree, sinks, [SMALL, BIG], 260.0)
        used = {b.name for b in result.assignments.values()}
        assert "X4" in used

    def test_light_wire_prefers_no_or_small_buffer(self):
        tree = rc_line(2, 30.0, 3e-15, prefix="w")
        sinks = [BufferSink("w2", 4e-15)]
        result = insert_buffers_multi(tree, sinks, [SMALL, BIG], 120.0)
        assert all(b.name != "X4" for b in result.assignments.values())


class TestValidation:
    def test_empty_library(self):
        with pytest.raises(ValidationError):
            insert_buffers_multi(wire(), [BufferSink("w20", 1e-15)], [],
                                 260.0)

    def test_duplicate_type_names(self):
        dup = BufferType("X1", 5e-15, 100.0)
        with pytest.raises(ValidationError):
            insert_buffers_multi(
                wire(), [BufferSink("w20", 1e-15)], [SMALL, dup], 260.0
            )

    def test_standard_checks(self):
        tree = wire()
        with pytest.raises(ValidationError):
            insert_buffers_multi(tree, [], [SMALL], 260.0)
        with pytest.raises(ValidationError):
            insert_buffers_multi(
                tree, [BufferSink("ghost", 1e-15)], [SMALL], 260.0
            )
        with pytest.raises(ValidationError):
            assigned_stage_delays(
                tree, [BufferSink("w20", 1e-15)], {"ghost": SMALL}, 260.0
            )
