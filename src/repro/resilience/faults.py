"""Deterministic fault injection: named fault points, seeded schedules.

The robustness machinery of this library — bounded retry on a recycled
pool, shm → serial fallback, serve-side watchdog recycling —
is only trustworthy if every rung is *reachable on demand*.  This module
compiles named **fault points** into the hot paths
(:mod:`repro.parallel.executor`, :mod:`repro.parallel.pool`,
:mod:`repro.parallel.shm`, :mod:`repro.serve.batcher`) and activates
them from a seeded, fully deterministic schedule, so tests, CI and the
CLI (``repro ... --inject-faults SPEC``) can provoke any failure mode
and assert the recovery path that follows.

Fault points (:data:`FAULT_POINTS`):

===================  ======================================================
``worker.kill``      worker process exits hard mid-shard (``os._exit``)
``worker.hang``      worker sleeps ``delay`` seconds mid-shard (drives the
                     per-shard timeout + pool recycle)
``shard.slow``       shard is delayed ``delay`` seconds (works on every
                     backend, including serial — used by the kill/resume
                     suite to widen the window between shard completions)
``result.malformed`` worker returns a garbage payload instead of the
                     ``(value, elapsed, obs)`` tuple (drives the parent's
                     payload validation + retry)
``pool.fork``        warm-pool fork refuses (drives degrade-to-serial)
``shm.attach``       attaching a published workspace raises ``ShmError``
``shm.publish``      publishing a block raises ``ShmError``
``shm.unlink``       a published segment is unlinked out from under the
                     attacher (drives the genuine segment-gone path)
``batch.stuck``      a serve batch evaluation stalls ``delay`` seconds
                     (drives the batcher watchdog)
===================  ======================================================

Spec grammar (``parse_fault_spec``)::

    SPEC  ::= RULE (";" RULE)*
    RULE  ::= POINT [":" PARAM ("," PARAM)*]
    PARAM ::= ("p" | "probability") "=" FLOAT     # fire probability, default 1
            | ("times" | "n") "=" (INT | "inf")   # max activations, default 1
            | "after" "=" INT                     # skip first N checks
            | "delay" "=" FLOAT                   # seconds, for slow/hang/stuck

e.g. ``worker.kill:times=1;shard.slow:p=0.25,times=inf,delay=0.02``.

Determinism contract: each point draws from its own RNG stream derived
from ``(seed, point_name)``; the decision at the k-th eligible check of
a point is a pure function of the seed and k.  Same seed + same call
sequence → same injected faults → same ``resilience_*`` counters (the
property the fault-schedule determinism tests pin).

Activation: :func:`install_faults` (explicit, used by the CLI and
tests), or the ``REPRO_FAULTS`` / ``REPRO_FAULTS_SEED`` environment
variables (read lazily once per process, which is how spawned — rather
than forked — workers and CI subprocesses pick a schedule up).  With no
schedule installed every :func:`check` is a single ``None`` test.
"""

from __future__ import annotations

import hashlib
import logging
import os
import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro._exceptions import ValidationError
from repro.obs.metrics import counter as _counter

__all__ = [
    "FAULT_POINTS",
    "FaultRule",
    "FaultSchedule",
    "parse_fault_spec",
    "install_faults",
    "clear_faults",
    "active_schedule",
    "check",
]

logger = logging.getLogger(__name__)

#: Every fault point compiled into the codebase.  A spec naming anything
#: else is rejected up front — a typo must not silently arm nothing.
FAULT_POINTS = (
    "worker.kill",
    "worker.hang",
    "shard.slow",
    "result.malformed",
    "pool.fork",
    "shm.attach",
    "shm.publish",
    "shm.unlink",
    "batch.stuck",
)

#: Environment variables the lazy loader reads (once per process).
ENV_SPEC = "REPRO_FAULTS"
ENV_SEED = "REPRO_FAULTS_SEED"

_INJECTED = _counter(
    "resilience_faults_injected_total",
    "Faults fired by the deterministic injection schedule "
    "(per-point breakdown on the 'point' label)",
)
_CHECKS = _counter(
    "resilience_fault_checks_total",
    "Fault-point eligibility checks evaluated while a schedule was armed",
)


@dataclass(frozen=True)
class FaultRule:
    """One armed fault point with its firing parameters."""

    point: str
    probability: float = 1.0
    times: Optional[int] = 1  # None = unlimited
    after: int = 0
    delay: float = 0.05

    def __post_init__(self) -> None:
        if self.point not in FAULT_POINTS:
            raise ValidationError(
                f"unknown fault point {self.point!r}; valid points: "
                + ", ".join(FAULT_POINTS)
            )
        if not 0.0 <= self.probability <= 1.0:
            raise ValidationError(
                f"fault probability must be in [0, 1], got "
                f"{self.probability!r}"
            )
        if self.times is not None and self.times < 0:
            raise ValidationError(
                f"fault times must be >= 0, got {self.times}"
            )
        if self.after < 0:
            raise ValidationError(
                f"fault after must be >= 0, got {self.after}"
            )
        if not self.delay >= 0.0:
            raise ValidationError(
                f"fault delay must be >= 0, got {self.delay!r}"
            )


def _parse_param(point: str, token: str) -> Dict[str, object]:
    key, sep, raw = token.partition("=")
    key = key.strip().lower()
    raw = raw.strip()
    if not sep or not raw:
        raise ValidationError(
            f"fault param {token!r} on {point!r} must look like key=value"
        )
    try:
        if key in ("p", "probability"):
            return {"probability": float(raw)}
        if key in ("times", "n"):
            return {"times": None if raw.lower() == "inf" else int(raw)}
        if key == "after":
            return {"after": int(raw)}
        if key == "delay":
            return {"delay": float(raw)}
    except ValueError:
        raise ValidationError(
            f"invalid value {raw!r} for fault param {key!r} on {point!r}"
        ) from None
    raise ValidationError(
        f"unknown fault param {key!r} on {point!r}; valid params: "
        "p/probability, times/n, after, delay"
    )


def parse_fault_spec(spec: str) -> List[FaultRule]:
    """Parse a ``point[:k=v,...][;point...]`` spec into rules.

    Raises :class:`~repro._exceptions.ValidationError` on unknown points
    or malformed parameters — never arms a partial schedule.
    """
    rules: List[FaultRule] = []
    for clause in spec.split(";"):
        clause = clause.strip()
        if not clause:
            continue
        point, _, params = clause.partition(":")
        kwargs: Dict[str, object] = {}
        if params.strip():
            for token in params.split(","):
                kwargs.update(_parse_param(point.strip(), token))
        rules.append(FaultRule(point=point.strip(), **kwargs))
    if not rules:
        raise ValidationError(f"fault spec {spec!r} names no fault points")
    return rules


def _point_stream(seed: int, point: str) -> np.random.Generator:
    """The RNG stream for one fault point: a pure function of
    ``(seed, point)`` via a stable digest, so adding or reordering other
    rules never perturbs this point's decisions."""
    digest = hashlib.sha256(point.encode("utf-8")).digest()
    key = int.from_bytes(digest[:8], "big")
    return np.random.default_rng(
        np.random.SeedSequence(entropy=int(seed), spawn_key=(key,))
    )


class FaultSchedule:
    """A seeded, deterministic fault activation schedule.

    ``check(point)`` is the single entry the instrumented sites call:
    it returns the armed :class:`FaultRule` when the fault fires at this
    eligibility check, ``None`` otherwise.  Decisions per point are a
    pure function of ``(seed, eligible-check ordinal)``.
    """

    def __init__(
        self,
        rules: Union[str, Sequence[FaultRule]],
        seed: int = 0,
    ) -> None:
        if isinstance(rules, str):
            rules = parse_fault_spec(rules)
        self.seed = int(seed)
        self._rules: Dict[str, FaultRule] = {r.point: r for r in rules}
        self._streams = {
            point: _point_stream(self.seed, point) for point in self._rules
        }
        self._checks: Dict[str, int] = {p: 0 for p in self._rules}
        self._fired: Dict[str, int] = {p: 0 for p in self._rules}
        self._lock = threading.Lock()

    @property
    def points(self) -> List[str]:
        """The armed fault points, sorted."""
        return sorted(self._rules)

    def rule(self, point: str) -> Optional[FaultRule]:
        """The armed rule for ``point`` (``None`` when not armed)."""
        return self._rules.get(point)

    def fired(self, point: Optional[str] = None) -> int:
        """Activations so far — for one point, or in total."""
        with self._lock:
            if point is not None:
                return self._fired.get(point, 0)
            return sum(self._fired.values())

    def check(self, point: str) -> Optional[FaultRule]:
        """One eligibility check at ``point``; the armed rule iff it fires."""
        rule = self._rules.get(point)
        if rule is None:
            return None
        _CHECKS.inc()
        with self._lock:
            ordinal = self._checks[point]
            self._checks[point] = ordinal + 1
            if ordinal < rule.after:
                return None
            # Advance the stream on *every* eligible check so the k-th
            # eligible decision is a pure function of (seed, k) even
            # after the activation budget runs out.
            draw = float(self._streams[point].random())
            if rule.times is not None and self._fired[point] >= rule.times:
                return None
            if draw >= rule.probability:
                return None
            self._fired[point] += 1
        _INJECTED.inc()
        _INJECTED.labels(point=point).inc()
        logger.info(
            "fault injected: %s (activation %d, check %d)",
            point, self.fired(point), ordinal,
        )
        return rule


_ACTIVE: Optional[FaultSchedule] = None
_ENV_CHECKED = False
_STATE_LOCK = threading.Lock()


def install_faults(
    spec: Union[str, Sequence[FaultRule]],
    seed: int = 0,
    export_env: bool = False,
) -> FaultSchedule:
    """Arm a fault schedule process-wide; returns it.

    ``export_env`` additionally publishes the spec through
    :data:`ENV_SPEC`/:data:`ENV_SEED` so *spawned* worker processes (which
    do not inherit module state the way forked ones do) arm the same
    schedule.  The CLI uses this for ``--inject-faults``.
    """
    global _ACTIVE, _ENV_CHECKED
    schedule = spec if isinstance(spec, FaultSchedule) \
        else FaultSchedule(spec, seed=seed)
    with _STATE_LOCK:
        _ACTIVE = schedule
        _ENV_CHECKED = True
    if export_env and isinstance(spec, str):
        os.environ[ENV_SPEC] = spec
        os.environ[ENV_SEED] = str(int(seed))
    logger.info(
        "fault schedule armed (seed %d): %s",
        schedule.seed, ", ".join(schedule.points),
    )
    return schedule


def clear_faults() -> None:
    """Disarm any active schedule and forget env activation."""
    global _ACTIVE, _ENV_CHECKED
    with _STATE_LOCK:
        _ACTIVE = None
        _ENV_CHECKED = True
    os.environ.pop(ENV_SPEC, None)
    os.environ.pop(ENV_SEED, None)


def reset() -> None:
    """Forget all state *including* the env-checked latch (test helper:
    the next :func:`active_schedule` re-reads the environment)."""
    global _ACTIVE, _ENV_CHECKED
    with _STATE_LOCK:
        _ACTIVE = None
        _ENV_CHECKED = False


def active_schedule() -> Optional[FaultSchedule]:
    """The armed schedule, arming one from the environment on first use."""
    global _ACTIVE, _ENV_CHECKED
    if _ENV_CHECKED:
        return _ACTIVE
    with _STATE_LOCK:
        if not _ENV_CHECKED:
            _ENV_CHECKED = True
            spec = os.environ.get(ENV_SPEC, "").strip()
            if spec:
                try:
                    seed = int(os.environ.get(ENV_SEED, "0") or "0")
                    _ACTIVE = FaultSchedule(spec, seed=seed)
                    logger.info(
                        "fault schedule armed from %s (seed %d): %s",
                        ENV_SPEC, seed, ", ".join(_ACTIVE.points),
                    )
                except ValidationError:
                    logger.exception(
                        "ignoring malformed %s=%r", ENV_SPEC, spec
                    )
    return _ACTIVE


def check(point: str) -> Optional[FaultRule]:
    """Module-level fast path the instrumented sites call.

    One attribute read + ``None`` test when no schedule is armed — cheap
    enough for hot paths.
    """
    schedule = _ACTIVE if _ENV_CHECKED else active_schedule()
    if schedule is None:
        return None
    return schedule.check(point)
