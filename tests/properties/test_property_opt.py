"""Property-based tests of the optimization and incremental layers."""

import dataclasses

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import elmore_delay
from repro.core.incremental import IncrementalElmore
from repro.opt import (
    BufferSink,
    BufferType,
    assigned_stage_delays,
    buffered_stage_delays,
    insert_buffers,
    insert_buffers_multi,
)

from tests.properties.strategies import rc_trees

COMMON = dict(deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])


class TestIncrementalOracle:
    @given(tree=rc_trees(max_nodes=12), data=st.data())
    @settings(max_examples=40, **COMMON)
    def test_matches_batch_after_arbitrary_edits(self, tree, data):
        inc = IncrementalElmore(tree)
        shadow = tree.copy()
        names = list(tree.node_names)
        n_edits = data.draw(st.integers(min_value=1, max_value=8))
        for _ in range(n_edits):
            name = data.draw(st.sampled_from(names))
            if data.draw(st.booleans()):
                c = data.draw(st.floats(min_value=0.0, max_value=1e-11,
                                        allow_nan=False))
                inc.set_capacitance(name, c)
                shadow.set_capacitance(name, c)
            else:
                r = data.draw(st.floats(min_value=1.0, max_value=1e5,
                                        allow_nan=False))
                inc.set_resistance(name, r)
                shadow.set_resistance(name, r)
        if shadow.total_capacitance() <= 0.0:
            return  # all caps zeroed: no meaningful delays
        probe = data.draw(st.sampled_from(names))
        assert np.isclose(
            inc.delay(probe), elmore_delay(shadow, probe), rtol=1e-10
        )


_buffers = st.builds(
    BufferType,
    name=st.just("B"),
    input_capacitance=st.floats(min_value=1e-15, max_value=5e-14,
                                allow_nan=False),
    output_resistance=st.floats(min_value=20.0, max_value=500.0,
                                allow_nan=False),
    intrinsic_delay=st.floats(min_value=0.0, max_value=1e-10,
                              allow_nan=False),
)

_libraries = st.lists(_buffers, min_size=1, max_size=3).map(
    lambda types: [dataclasses.replace(b, name=f"B{k}")
                   for k, b in enumerate(types)]
)


class TestBufferingOptimality:
    @given(tree=rc_trees(min_nodes=3, max_nodes=8), buffer=_buffers,
           data=st.data())
    @settings(max_examples=30, **COMMON)
    def test_dp_never_beaten_by_random_subsets(self, tree, buffer, data):
        """Van Ginneken is optimal: no sampled buffer subset achieves a
        smaller worst delay than the DP's choice."""
        leaves = tree.leaves()
        sinks = [BufferSink(leaf, 5e-15) for leaf in leaves]
        driver = 200.0
        result = insert_buffers(tree, sinks, buffer, driver)

        def worst_delay(nodes):
            arrival = buffered_stage_delays(tree, sinks, buffer, driver,
                                            nodes)
            return max(arrival[s.node] for s in sinks)

        dp_delay = worst_delay(result.buffer_nodes)
        names = list(tree.node_names)
        for _ in range(6):
            subset = data.draw(
                st.sets(st.sampled_from(names), max_size=min(4, len(names)))
            )
            assert dp_delay <= worst_delay(sorted(subset)) * (1 + 1e-9)

    @given(tree=rc_trees(min_nodes=2, max_nodes=10), buffer=_buffers)
    @settings(max_examples=40, **COMMON)
    def test_dp_objective_matches_stage_reeval(self, tree, buffer):
        """The DP's predicted worst slack equals the staged Elmore
        re-evaluation of its own solution."""
        sinks = [BufferSink(leaf, 5e-15) for leaf in tree.leaves()]
        result = insert_buffers(tree, sinks, buffer, 200.0)
        arrival = buffered_stage_delays(
            tree, sinks, buffer, 200.0, result.buffer_nodes
        )
        worst = min(s.required_time - arrival[s.node] for s in sinks)
        assert np.isclose(result.required_at_driver, worst, rtol=1e-9)

    @given(tree=rc_trees(min_nodes=2, max_nodes=10), buffer=_buffers)
    @settings(max_examples=40, **COMMON)
    def test_insertion_never_hurts(self, tree, buffer):
        """The DP always has the empty insertion available, so its
        objective is at least the unbuffered one."""
        sinks = [BufferSink(leaf, 5e-15) for leaf in tree.leaves()]
        result = insert_buffers(tree, sinks, buffer, 200.0)
        assert result.required_at_driver >= \
            result.unbuffered_required - 1e-18

    @given(tree=rc_trees(min_nodes=2, max_nodes=10), library=_libraries)
    @settings(max_examples=40, **COMMON)
    def test_library_dp_matches_reeval_and_beats_every_type(self, tree,
                                                            library):
        """With a 1-3-type library the DP's objective equals the typed
        staged re-evaluation of its own solution, and is at least what
        any single type of the library achieves alone."""
        sinks = [BufferSink(leaf, 5e-15) for leaf in tree.leaves()]
        result = insert_buffers_multi(tree, sinks, library, 200.0)
        arrival = assigned_stage_delays(
            tree, sinks, result.assignments, 200.0
        )
        worst = min(s.required_time - arrival[s.node] for s in sinks)
        assert np.isclose(result.required_at_driver, worst, rtol=1e-9)
        for buffer in library:
            single = insert_buffers(tree, sinks, buffer, 200.0)
            assert result.required_at_driver >= single.required_at_driver
