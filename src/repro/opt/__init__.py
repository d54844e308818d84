"""Elmore-driven interconnect optimization: wire sizing, buffer insertion."""

from repro.opt.buffering import (
    BufferingResult,
    BufferSink,
    BufferType,
    MultiBufferingResult,
    assigned_stage_delays,
    buffered_stage_delays,
    insert_buffers,
    insert_buffers_multi,
)
from repro.opt.sizing import (
    SizableSegment,
    SizingProblem,
    SizingResult,
    size_wires,
)
from repro.opt.slew_repair import (
    SlewRepairResult,
    repair_slews,
    stage_sigmas,
)

__all__ = [
    "BufferType",
    "BufferSink",
    "BufferingResult",
    "insert_buffers",
    "buffered_stage_delays",
    "SizableSegment",
    "SizingProblem",
    "SizingResult",
    "size_wires",
    "SlewRepairResult",
    "repair_slews",
    "stage_sigmas",
    "MultiBufferingResult",
    "insert_buffers_multi",
    "assigned_stage_delays",
]
