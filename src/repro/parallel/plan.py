"""Shard planning: deterministic partitioning of batched workloads.

A *shard* is one contiguous ``[start, stop)`` slice of a workload — a
block of Monte-Carlo samples, a run of verification corpus trees, a
group of STA nets.  The planner's one hard rule is that **the shard
decomposition never depends on the worker count**: it is a pure function
of the workload size (and an optional explicit ``shard_size``), so the
serial backend and a warm pool of any width evaluate the *same*
shards in the same order and reduce to bit-identical results.

Per-shard randomness follows the same contract: a root seed is expanded
with :meth:`numpy.random.SeedSequence.spawn` into one independent child
stream per shard, so shard ``k`` draws the same variates whether it runs
in-process, in worker 0, or in worker 7.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Union

import numpy as np

from repro._exceptions import ValidationError

__all__ = ["Shard", "plan_shards", "spawn_shard_seeds", "DEFAULT_MAX_SHARDS"]

#: Default number of shards a workload is split into when no explicit
#: ``shard_size`` is given.  Chosen to keep per-shard work coarse enough
#: that process overhead amortizes, while still load-balancing well past
#: typical worker counts.  Deliberately independent of ``jobs``.
DEFAULT_MAX_SHARDS = 32


@dataclass(frozen=True)
class Shard:
    """One contiguous slice ``[start, stop)`` of a sharded workload."""

    index: int
    start: int
    stop: int

    def __post_init__(self) -> None:
        if self.start < 0 or self.stop < self.start:
            raise ValidationError(
                f"invalid shard bounds [{self.start}, {self.stop})"
            )

    @property
    def size(self) -> int:
        """Number of workload items covered by this shard."""
        return self.stop - self.start


def plan_shards(
    total: int,
    shard_size: Optional[int] = None,
    max_shards: int = DEFAULT_MAX_SHARDS,
) -> List[Shard]:
    """Partition ``total`` items into contiguous shards.

    ``shard_size`` pins the per-shard item count explicitly (the last
    shard may be short); by default the workload is split into at most
    ``max_shards`` near-equal shards.  Either way the plan depends only
    on ``total`` and these parameters — never on the worker count — so a
    given workload always decomposes identically (the determinism
    contract of :mod:`repro.parallel`).
    """
    if not isinstance(total, (int, np.integer)) or isinstance(total, bool):
        raise ValidationError(f"total must be an integer >= 0, got {total!r}")
    if total < 0:
        raise ValidationError(f"total must be >= 0, got {total}")
    if max_shards < 1:
        raise ValidationError(f"max_shards must be >= 1, got {max_shards}")
    if total == 0:
        return []
    if shard_size is None:
        shard_size = math.ceil(total / max_shards)
    elif not isinstance(shard_size, (int, np.integer)) \
            or isinstance(shard_size, bool) or shard_size < 1:
        raise ValidationError(
            f"shard_size must be an integer >= 1, got {shard_size!r}"
        )
    shards = []
    for index, start in enumerate(range(0, total, int(shard_size))):
        shards.append(
            Shard(index=index, start=start,
                  stop=min(start + int(shard_size), total))
        )
    return shards


def spawn_shard_seeds(
    seed: Union[int, np.random.SeedSequence], count: int
) -> List[np.random.SeedSequence]:
    """One independent :class:`~numpy.random.SeedSequence` per shard.

    Shard ``k`` always receives child ``k`` of the root sequence, so the
    variates it draws are a function of ``(seed, k)`` alone — not of the
    backend, the worker count, or the completion order.
    """
    if count < 0:
        raise ValidationError(f"count must be >= 0, got {count}")
    root = seed if isinstance(seed, np.random.SeedSequence) \
        else np.random.SeedSequence(seed)
    return list(root.spawn(count)) if count else []
