"""Crash-safe shard-level checkpoint journals (``repro.checkpoint/1``).

Long sweeps — theorem-corpus verification, Monte-Carlo delay matrices,
forest STA fan-outs — are sharded deterministically
(:mod:`repro.parallel.plan`: the decomposition is a pure function of the
workload, never of the worker count).  That makes the *shard* the
natural unit of crash safety: this module journals each completed
shard's result to an append-only, fsync'd JSONL file keyed by a run
fingerprint, so a killed run re-started with ``--resume`` skips every
finished shard and — because shard results are pure functions of the
plan — produces **bit-identical** output to an uninterrupted run, for
any kill point and across backends (a journal written under ``serial``
resumes under ``shm`` and vice versa).

File format (one JSON object per line):

* line 1 — header: ``{"schema": "repro.checkpoint/1", "fingerprint":
  ..., "shards": N, "meta": {...}}``;
* then one record per completed shard: ``{"shard": k, "payload":
  {"codec": "ndarray"|"pickle", ...}}``.  ``ndarray`` payloads carry
  dtype/shape plus base64 raw bytes (exact bit round-trip); anything
  else rides the ``pickle`` codec.

Each record is flushed **and fsync'd** before the shard counts as
checkpointed, so a SIGKILL can lose at most the shard in flight.  A
crash mid-write leaves a truncated final line; :func:`open_checkpoint`
repairs the journal by truncating back to the last complete record
before appending resumes.

The fingerprint (:func:`run_fingerprint`) hashes the workload identity
— inputs, seed, and the shard plan — so ``--resume`` against a journal
from a *different* run fails loudly (:class:`CheckpointError`) instead
of silently splicing foreign results.  Every sharded entry point opens
its journal through :func:`journal`, which builds that fingerprint.

Observability: ``checkpoint.write`` / ``checkpoint.resume`` spans,
``resilience_checkpoint_shards_written_total`` /
``resilience_checkpoint_shards_resumed_total`` /
``resilience_checkpoint_bytes_total`` counters, and a
"resumed: K/N shards" notice in ``repro report``.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import pickle
import threading
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence

import numpy as np

from repro._exceptions import ReproError
from repro.obs.metrics import counter as _counter
from repro.obs.trace import span as _span

__all__ = [
    "SCHEMA",
    "CheckpointError",
    "ShardCheckpoint",
    "open_checkpoint",
    "journal",
    "close_open_journals",
    "run_fingerprint",
    "tree_fingerprint",
]

#: Schema tag stamped into every journal header (bump on layout change).
SCHEMA = "repro.checkpoint/1"

_WRITTEN = _counter(
    "resilience_checkpoint_shards_written_total",
    "Shard results journaled to a checkpoint file",
)
_RESUMED = _counter(
    "resilience_checkpoint_shards_resumed_total",
    "Shards skipped on --resume because the journal already held them",
)
_BYTES = _counter(
    "resilience_checkpoint_bytes_total",
    "Bytes appended to checkpoint journals",
)


class CheckpointError(ReproError):
    """Checkpoint journal unusable: fingerprint mismatch, bad schema, or
    an unreadable file where a journal was expected."""


# ---------------------------------------------------------------------------
# Fingerprints

def tree_fingerprint(tree) -> str:
    """Stable content hash of one RC tree (names, structure, R, C)."""
    digest = hashlib.sha256()
    for name in tree.node_names:
        digest.update(name.encode("utf-8"))
        digest.update(b"\0")
    digest.update(np.asarray(tree.parents, dtype=np.int64).tobytes())
    digest.update(
        np.ascontiguousarray(tree.resistances, dtype=np.float64).tobytes()
    )
    digest.update(
        np.ascontiguousarray(tree.capacitances, dtype=np.float64).tobytes()
    )
    return digest.hexdigest()


def _canonical(value: Any) -> Any:
    """JSON-serializable canonical form of a fingerprint ingredient."""
    if isinstance(value, np.ndarray):
        return {
            "__ndarray__": hashlib.sha256(
                np.ascontiguousarray(value).tobytes()
            ).hexdigest(),
            "dtype": value.dtype.str,
            "shape": list(value.shape),
        }
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    return value


def run_fingerprint(kind: str, **params: Any) -> str:
    """Deterministic fingerprint of one sharded run.

    ``kind`` names the entry point (``"monte_carlo_delay_matrix"``,
    ``"verify_corpus"``, ...); ``params`` carry everything the results
    depend on — input hashes, seed, sample counts, and the shard plan
    (pass shard sizes: the plan is worker-count-independent, so the
    fingerprint is too).  Python floats serialize via ``repr`` (exact
    round-trip), ndarrays via a content hash.
    """
    payload = json.dumps(
        {"kind": kind, "params": _canonical(params)},
        sort_keys=True, separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Payload codecs (must round-trip bit-exactly)

def _encode_payload(value: Any) -> Dict[str, Any]:
    if isinstance(value, np.ndarray):
        data = np.ascontiguousarray(value)
        return {
            "codec": "ndarray",
            "dtype": data.dtype.str,
            "shape": list(data.shape),
            "data": base64.b64encode(data.tobytes()).decode("ascii"),
        }
    return {
        "codec": "pickle",
        "data": base64.b64encode(
            pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        ).decode("ascii"),
    }


def _decode_payload(payload: Dict[str, Any]) -> Any:
    codec = payload.get("codec")
    raw = base64.b64decode(payload["data"])
    if codec == "ndarray":
        return np.frombuffer(raw, dtype=np.dtype(payload["dtype"])) \
            .reshape(tuple(payload["shape"]))
    if codec == "pickle":
        return pickle.loads(raw)
    raise CheckpointError(f"unknown checkpoint payload codec {codec!r}")


# ---------------------------------------------------------------------------
# The journal

#: Journals currently open in this process — the serve drain (and any
#: embedding shutdown path) flushes these before teardown.
_OPEN: "set[ShardCheckpoint]" = set()
_OPEN_LOCK = threading.Lock()


class ShardCheckpoint:
    """One run's crash-safe journal handle.

    The sharded engine (:func:`repro.parallel.run_sharded`) drives it
    through two duck-typed calls: :meth:`restore_results` before the
    first wave (previously journaled shards come back decoded, keyed by
    shard index) and :meth:`record` at every shard acceptance.

    Workloads whose task return value is *not* the result to persist
    (the Monte-Carlo task acks a row count; the rows live in the
    workspace's output block) install ``encode``/``restore`` hooks via
    :meth:`set_codec` — the journal then stores what ``encode`` extracts
    and ``restore`` turns a stored payload back into the task-value
    shape (writing the rows home as a side effect).
    """

    def __init__(
        self,
        path: str,
        fingerprint: str,
        total_shards: int,
        completed: Dict[int, Any],
        handle,
    ) -> None:
        self.path = path
        self.fingerprint = fingerprint
        self.total_shards = int(total_shards)
        self._completed = completed
        self._handle = handle
        self._lock = threading.Lock()
        self._encode: Optional[Callable[[int, Any], Any]] = None
        self._restore: Optional[Callable[[int, Any], Any]] = None
        self._resume_counted = False
        with _OPEN_LOCK:
            _OPEN.add(self)

    # -- codec hooks ---------------------------------------------------
    def set_codec(
        self,
        encode: Optional[Callable[[int, Any], Any]] = None,
        restore: Optional[Callable[[int, Any], Any]] = None,
    ) -> None:
        """Install (or clear, with ``None``) the workload's extract /
        reinstate hooks; identity by default."""
        self._encode = encode
        self._restore = restore

    # -- engine-facing protocol ----------------------------------------
    @property
    def resumed(self) -> int:
        """Shards loaded from the journal at open time."""
        return len(self._completed)

    def completed_indices(self) -> List[int]:
        """Sorted indices of journaled shards."""
        return sorted(self._completed)

    def restore_results(self, total: int) -> Dict[int, Any]:
        """Task-shaped values for every journaled shard below ``total``."""
        out: Dict[int, Any] = {}
        for index, stored in self._completed.items():
            if 0 <= index < total:
                out[index] = (
                    self._restore(index, stored)
                    if self._restore is not None else stored
                )
        if out and not self._resume_counted:
            self._resume_counted = True
            _RESUMED.inc(len(out))
            with _span("checkpoint.resume", path=self.path,
                       resumed=len(out), total=self.total_shards):
                pass
        return out

    def record(self, index: int, value: Any) -> None:
        """Journal shard ``index``'s accepted result (fsync'd)."""
        stored = (
            self._encode(index, value)
            if self._encode is not None else value
        )
        line = json.dumps(
            {"shard": int(index), "payload": _encode_payload(stored)},
            sort_keys=True, separators=(",", ":"),
        ) + "\n"
        encoded = line.encode("utf-8")
        with self._lock:
            if self._handle is None:
                return  # closed under a draining server: drop silently
            with _span("checkpoint.write", shard=int(index),
                       bytes=len(encoded)):
                self._handle.write(encoded)
                self._handle.flush()
                os.fsync(self._handle.fileno())
            self._completed[index] = stored
        _WRITTEN.inc()
        _BYTES.inc(len(encoded))

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        """Flush and close the journal file (idempotent)."""
        with self._lock:
            handle, self._handle = self._handle, None
        if handle is not None:
            try:
                handle.flush()
                os.fsync(handle.fileno())
            except (OSError, ValueError):  # pragma: no cover - defensive
                pass
            handle.close()
        with _OPEN_LOCK:
            _OPEN.discard(self)

    def __enter__(self) -> "ShardCheckpoint":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def close_open_journals() -> None:
    """Flush and close every journal still open in this process.

    Called from the serve SIGTERM drain (and safe anywhere): an
    interrupted service must leave journals resumable, not half-buffered.
    """
    with _OPEN_LOCK:
        journals = list(_OPEN)
    for journal in journals:
        journal.close()


def _load_journal(path: str, fingerprint: str):
    """Read an existing journal; returns ``(completed, keep_bytes)``.

    ``keep_bytes`` is the offset of the last complete record — a crash
    mid-append leaves a truncated tail, which resume repairs by
    truncating back to this offset.  A journal carrying a different
    fingerprint (or schema) raises :class:`CheckpointError`.
    """
    completed: Dict[int, Any] = {}
    keep = 0
    header_seen = False
    with open(path, "rb") as handle:
        for raw in handle:
            if not raw.endswith(b"\n"):
                break  # truncated tail from a mid-write crash
            try:
                record = json.loads(raw.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError):
                break  # corrupt tail: everything before it still counts
            if not header_seen:
                header_seen = True
                if record.get("schema") != SCHEMA:
                    raise CheckpointError(
                        f"{path} has schema {record.get('schema')!r}, "
                        f"expected {SCHEMA!r}"
                    )
                if record.get("fingerprint") != fingerprint:
                    raise CheckpointError(
                        f"{path} was written by a different run "
                        f"(fingerprint {record.get('fingerprint')!r} != "
                        f"{fingerprint!r}); refusing to resume — delete "
                        "the journal or drop --resume to start fresh"
                    )
            else:
                try:
                    index = int(record["shard"])
                    completed[index] = _decode_payload(record["payload"])
                except (KeyError, TypeError, ValueError, CheckpointError):
                    break  # malformed record: stop trusting the tail
            keep += len(raw)
    if not header_seen:
        raise CheckpointError(f"{path} holds no checkpoint header")
    return completed, keep


def open_checkpoint(
    path: str,
    fingerprint: str,
    total_shards: int,
    meta: Optional[Dict[str, Any]] = None,
    resume: bool = False,
) -> ShardCheckpoint:
    """Open (or create) the journal at ``path`` for this run.

    ``resume=True`` loads previously journaled shards from a matching
    journal (repairing a truncated tail) and appends from there;
    otherwise any existing file is replaced by a fresh journal.  A
    resume against a journal whose fingerprint differs raises
    :class:`CheckpointError` — by construction that journal belongs to a
    different workload/seed/plan.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    completed: Dict[int, Any] = {}
    if resume and os.path.exists(path) and os.path.getsize(path) > 0:
        completed, keep = _load_journal(path, fingerprint)
        handle = open(path, "r+b")
        handle.truncate(keep)
        handle.seek(keep)
    else:
        handle = open(path, "wb")
        header = json.dumps(
            {
                "schema": SCHEMA,
                "fingerprint": fingerprint,
                "shards": int(total_shards),
                "meta": _canonical(meta or {}),
            },
            sort_keys=True, separators=(",", ":"),
        ) + "\n"
        handle.write(header.encode("utf-8"))
        handle.flush()
        os.fsync(handle.fileno())
    return ShardCheckpoint(
        path, fingerprint, total_shards, completed, handle
    )


@contextmanager
def journal(
    path: Optional[str],
    kind: str,
    shards: Sequence[Any],
    resume: bool,
    meta: Dict[str, Any],
    ingredients: Callable[[], Dict[str, Any]],
) -> Iterator[Optional[ShardCheckpoint]]:
    """Open the journal of one sharded run, closed on exit.

    Yields ``None`` when ``path`` is ``None``, else the open
    :class:`ShardCheckpoint`.  ``shards`` is the run's shard plan; the
    fingerprint is ``run_fingerprint(kind, plan=[shard sizes],
    **ingredients())`` and the header meta ``{"kind": kind, **meta}``.
    ``ingredients`` runs only when a journal is opened, so a run
    without one never pays for its fingerprint.
    """
    if path is None:
        yield None
        return
    with open_checkpoint(
        path,
        run_fingerprint(kind, plan=[shard.size for shard in shards],
                        **ingredients()),
        len(shards),
        meta={"kind": kind, **meta},
        resume=resume,
    ) as checkpoint:
        yield checkpoint
