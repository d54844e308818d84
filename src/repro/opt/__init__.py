"""Elmore-driven interconnect optimization: wire sizing, buffer insertion."""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.opt.buffering": [
        "BufferingResult", "BufferSink", "BufferType", "MultiBufferingResult",
        "assigned_stage_delays", "buffered_stage_delays", "insert_buffers",
        "insert_buffers_multi",
    ],
    "repro.opt.sizing": [
        "SizableSegment", "SizingProblem", "SizingResult", "size_wires",
    ],
    "repro.opt.slew_repair": [
        "SlewRepairResult", "repair_slews", "stage_sigmas",
    ],
})

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
