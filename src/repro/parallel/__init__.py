"""Sharded multi-process evaluation engine with a zero-copy transport.

Every batched workload in the library — Monte-Carlo variation sweeps,
theorem-corpus verification, multi-net STA — is embarrassingly parallel
over samples, trees, or nets.  This package partitions such workloads
into deterministic shards (:mod:`repro.parallel.plan`) and evaluates
them on one of two backends (:mod:`repro.parallel.executor`):

* ``serial`` — in-process, the reference everything is pinned against;
* ``shm`` — the long-lived :class:`~repro.parallel.pool.WarmPool`
  (forked once, reused across calls) fed by zero-copy
  ``multiprocessing.shared_memory`` ndarray blocks
  (:mod:`repro.parallel.shm`): workers attach views keyed by compact
  descriptors instead of unpickling topology arrays and parameter
  matrices per shard.  ``auto`` picks it for ``jobs >= 2``.

The pool retries dead or hung shards on recycled workers and degrades
to serial execution when retries run out or no worker can be forked;
ndarray workloads whose shared memory is unavailable rerun serially on
a :class:`~repro.parallel.shm.LocalWorkspace` through the very same
shard task.

The determinism contract: the shard plan and the per-shard RNG streams
(``SeedSequence.spawn``) depend only on the workload and the seed —
never on ``jobs`` or the backend — so sharded results are
**bit-identical** to the serial backend's for any worker count and any
transport.

Consumers: ``monte_carlo_delay_matrix`` (and through it
``monte_carlo_elmore``) in :mod:`repro.core.variation`,
``verify_tree(jobs=...)`` / ``verify_corpus`` in
:mod:`repro.core.verification`, ``analyze(jobs=...)`` in
:mod:`repro.sta.timing`, and the ``--jobs/-j`` + ``--backend`` CLI
flags.
"""

from repro.parallel.executor import (
    BACKENDS,
    available_backends,
    resolve_backend,
    resolve_jobs,
    run_sharded,
)
from repro.parallel.plan import (
    DEFAULT_MAX_SHARDS,
    Shard,
    plan_shards,
    spawn_shard_seeds,
)
from repro.parallel.pool import (
    WarmPool,
    get_warm_pool,
    lease_warm_pool,
    shutdown_warm_pool,
)
from repro.parallel.shm import (
    ArraySpec,
    AttachedWorkspace,
    LocalWorkspace,
    ShmError,
    ShmWorkspace,
    WorkspaceDescriptor,
    WorkspaceRegistry,
    attach_workspace,
    close_all_workspaces,
    detach_all,
    shm_available,
)

__all__ = [
    "Shard",
    "plan_shards",
    "spawn_shard_seeds",
    "DEFAULT_MAX_SHARDS",
    "run_sharded",
    "resolve_jobs",
    "resolve_backend",
    "available_backends",
    "BACKENDS",
    "WarmPool",
    "get_warm_pool",
    "lease_warm_pool",
    "shutdown_warm_pool",
    "ShmError",
    "ShmWorkspace",
    "LocalWorkspace",
    "ArraySpec",
    "WorkspaceDescriptor",
    "WorkspaceRegistry",
    "AttachedWorkspace",
    "attach_workspace",
    "close_all_workspaces",
    "detach_all",
    "shm_available",
    "shutdown",
]


def shutdown() -> None:
    """Tear down everything this package keeps warm: terminate the warm
    pool's workers, drop cached attachments, and unlink every live
    shared-memory workspace.  Safe to call at any time; the next sharded
    run re-forks and re-publishes on demand."""
    shutdown_warm_pool()
    detach_all()
    close_all_workspaces()
