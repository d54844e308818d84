"""The staged evaluators' stage walk: deep buffer chains and input checks."""

import pytest

from repro._exceptions import ValidationError
from repro.circuit import rc_line
from repro.opt import (
    BufferSink,
    BufferType,
    assigned_stage_delays,
    buffered_stage_delays,
    insert_buffers,
    insert_buffers_multi,
    repair_slews,
    stage_sigmas,
)

BUF = BufferType("REP", input_capacitance=12e-15,
                 output_resistance=90.0, intrinsic_delay=25e-12)
SEGMENTS = 1500
R_SEG, C_SEG = 50.0, 20e-15
SINK_C = 15e-15
DRIVER = 250.0


class TestDeepBufferChains:
    """A buffer at every node but the sink: one stage per node, a chain
    deeper than the interpreter's default recursion limit."""

    @pytest.fixture(scope="class")
    def chain(self):
        tree = rc_line(SEGMENTS, R_SEG, C_SEG, prefix="w")
        buffers = [f"w{k}" for k in range(1, SEGMENTS)]
        return tree, [BufferSink(f"w{SEGMENTS}", SINK_C)], buffers

    def expected_arrival(self):
        # Stage k is node w_k alone, driven by the previous repeater (the
        # driver for k = 1) and loaded by the next repeater's input.
        t, drive = 0.0, DRIVER
        for k in range(1, SEGMENTS + 1):
            c = C_SEG + (SINK_C if k == SEGMENTS else BUF.input_capacitance)
            t = t + drive * c + R_SEG * c
            if k < SEGMENTS:
                t += BUF.intrinsic_delay
                drive = BUF.output_resistance
        return t

    def test_buffered_stage_delays(self, chain):
        tree, sinks, buffers = chain
        arrival = buffered_stage_delays(tree, sinks, BUF, DRIVER, buffers)
        assert arrival == {
            f"w{SEGMENTS}": pytest.approx(self.expected_arrival(), rel=1e-12)
        }

    def test_assigned_stage_delays(self, chain):
        tree, sinks, buffers = chain
        arrival = assigned_stage_delays(
            tree, sinks, dict.fromkeys(buffers, BUF), DRIVER
        )
        assert arrival == {
            f"w{SEGMENTS}": pytest.approx(self.expected_arrival(), rel=1e-12)
        }

    def test_stage_sigmas(self, chain):
        tree, sinks, buffers = chain
        sigmas = stage_sigmas(tree, sinks, BUF, DRIVER, buffers,
                              input_sigma=1e-9)
        # The last repeater regenerates an ideal edge: only the final
        # one-node stage (repeater drive, wire R, wire + sink C) remains.
        last = rc_line(2, R_SEG, C_SEG, prefix="w")
        alone = stage_sigmas(last, [BufferSink("w2", SINK_C)], BUF,
                             DRIVER, ["w1"])
        assert sigmas == {f"w{SEGMENTS}": alone["w2"]}


def _wire():
    return rc_line(6, 100.0, 50e-15, prefix="w")


ONE_SINK = [BufferSink("w6", 10e-15)]
TWICE = [BufferSink("w6", 10e-15), BufferSink("w6", 20e-15)]
DUPLICATE = "duplicate sink at 'w6'"
UNKNOWN = "buffer node 'ghost' not in tree"
NO_SINKS = "net has no sinks"


@pytest.mark.parametrize("call, message", [
    (lambda: stage_sigmas(_wire(), TWICE, BUF, DRIVER, []), DUPLICATE),
    (lambda: stage_sigmas(_wire(), ONE_SINK, BUF, DRIVER, ["ghost"]),
     UNKNOWN),
    (lambda: repair_slews(_wire(), TWICE, BUF, DRIVER, sigma_limit=1e-9),
     DUPLICATE),
    (lambda: buffered_stage_delays(_wire(), TWICE, BUF, DRIVER, []),
     DUPLICATE),
    (lambda: buffered_stage_delays(_wire(), ONE_SINK, BUF, DRIVER,
                                   ["ghost"]), UNKNOWN),
    (lambda: insert_buffers(_wire(), [], BUF, DRIVER), NO_SINKS),
    (lambda: insert_buffers_multi(_wire(), [], [BUF], DRIVER), NO_SINKS),
    (lambda: buffered_stage_delays(_wire(), [], BUF, DRIVER, []), NO_SINKS),
    (lambda: assigned_stage_delays(_wire(), [], {}, DRIVER), NO_SINKS),
    (lambda: stage_sigmas(_wire(), [], BUF, DRIVER, []), NO_SINKS),
    (lambda: repair_slews(_wire(), [], BUF, DRIVER, sigma_limit=1e-9),
     NO_SINKS),
], ids=["stage_sigmas-duplicate-sink", "stage_sigmas-unknown-buffer",
        "repair_slews-duplicate-sink", "staged-delays-duplicate-sink",
        "staged-delays-unknown-buffer", "insert_buffers-no-sinks",
        "insert_buffers_multi-no-sinks", "staged-delays-no-sinks",
        "assigned-delays-no-sinks", "stage_sigmas-no-sinks",
        "repair_slews-no-sinks"])
def test_sink_and_buffer_nodes_are_validated(call, message):
    with pytest.raises(ValidationError, match=message):
        call()
