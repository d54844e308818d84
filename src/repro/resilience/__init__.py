"""Resilience toolkit: crash-safe checkpoints + deterministic faults.

Two halves, one goal — long sweeps that survive kills and a harness
that can provoke every failure path on demand:

* :mod:`repro.resilience.checkpoint` — append-only fsync'd shard
  journals (``repro.checkpoint/1``) keyed by a run fingerprint, so
  ``--checkpoint PATH --resume`` replays nothing and recomputes only
  what the crash lost (bit-identical to an uninterrupted run);
* :mod:`repro.resilience.faults` — seeded, named fault points compiled
  into the parallel engine and the serve batcher, activated via
  ``repro --inject-faults SPEC`` or ``REPRO_FAULTS``.

See ``docs/robustness.md`` for the fault taxonomy, fallback ladder, and
journal schema.
"""

from repro.resilience.checkpoint import (
    SCHEMA as CHECKPOINT_SCHEMA,
    CheckpointError,
    ShardCheckpoint,
    close_open_journals,
    journal,
    open_checkpoint,
    run_fingerprint,
    tree_fingerprint,
)
from repro.resilience.faults import (
    ENV_SEED,
    ENV_SPEC,
    FAULT_POINTS,
    FaultRule,
    FaultSchedule,
    active_schedule,
    clear_faults,
    install_faults,
    parse_fault_spec,
)

__all__ = [
    "CHECKPOINT_SCHEMA",
    "CheckpointError",
    "ShardCheckpoint",
    "close_open_journals",
    "journal",
    "open_checkpoint",
    "run_fingerprint",
    "tree_fingerprint",
    "ENV_SEED",
    "ENV_SPEC",
    "FAULT_POINTS",
    "FaultRule",
    "FaultSchedule",
    "active_schedule",
    "clear_faults",
    "install_faults",
    "parse_fault_spec",
]
