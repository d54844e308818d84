"""Zero-copy shared-memory transport for batched ndarray workloads.

Pickling shard payloads would re-serialize the compiled topology arrays
and the ``(B, N)`` parameter matrices into every worker on every call —
the overhead that left a pickling fork pool *slower* than serial (0.62x
at jobs=2 before this module existed).  This module replaces pickled
payloads with **published ndarray blocks**:

* the parent :func:`publishes <ShmWorkspace.put>` each array once into a
  ``multiprocessing.shared_memory`` segment;
* what travels to a worker is a :class:`WorkspaceDescriptor` — segment
  names plus ``(dtype, shape, strides)`` triples, a few hundred bytes
  regardless of array size;
* workers :func:`attach <attach_workspace>` zero-copy ndarray views onto
  the same physical pages (no copy, no pickle) and cache the attachment
  per workspace, so a warm worker touches the descriptor dictionary once
  and then reads (or writes, for output blocks) shared pages directly.

Lifecycle rules (the part that keeps ``/dev/shm`` clean):

* the **parent owns** every segment: it creates, re-publishes, and
  finally unlinks them (:meth:`ShmWorkspace.close`, also a context
  manager and registered with ``atexit`` as a safety net);
* workers attach read/write views but never unlink; their attachments
  are explicitly **unregistered from the resource tracker** so a worker
  exiting (or being killed) neither destroys segments the parent still
  owns nor spams ``resource_tracker`` warnings;
* a killed worker cannot leak a segment: its mapping dies with the
  process and the name vanishes as soon as the parent unlinks;
* a workspace published for an object (a compiled topology, a design
  version) lives in a :class:`WorkspaceRegistry`, which unlinks it when
  the object is collected and keeps at most
  :data:`MAX_PUBLISHED_WORKSPACES` objects published.

Repeated publication reuses segments: while a block's layout (shape,
dtype, strides) stays the same, :meth:`put` rewrites its bytes in place
and :meth:`allocate` hands back the existing output block without a
copy (``parallel_shm_publish_skipped_total`` counts these reused output
blocks); a changed layout unlinks the segment and creates a fresh one.

Observability: spans ``shm.publish`` / ``shm.attach``; counters
``parallel_shm_publish_total``, ``parallel_shm_publish_skipped_total``,
``parallel_shm_bytes_total``, ``parallel_shm_attach_total``,
``parallel_shm_unlink_total``, ``parallel_shm_fallback_total``; gauge
``parallel_shm_active_segments`` (see ``docs/observability.md``).
"""

from __future__ import annotations

import atexit
import itertools
import logging
import os
import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro._exceptions import ReproError
from repro.obs.metrics import counter as _counter
from repro.obs.metrics import gauge as _gauge
from repro.obs.trace import span as _span
from repro.resilience.faults import check as _fault_check

logger = logging.getLogger(__name__)

__all__ = [
    "ShmError",
    "ArraySpec",
    "WorkspaceDescriptor",
    "ShmWorkspace",
    "LocalWorkspace",
    "WorkspaceRegistry",
    "MAX_PUBLISHED_WORKSPACES",
    "publish_workspace",
    "AttachedWorkspace",
    "attach_workspace",
    "detach_all",
    "close_all_workspaces",
    "record_fallback",
    "shm_available",
    "active_segment_names",
    "SEGMENT_PREFIX",
]

#: Every segment this module creates carries this prefix, so tests and
#: the CI leak gate can enumerate library-owned segments in ``/dev/shm``
#: without touching anyone else's.
SEGMENT_PREFIX = "repro_shm"

_PUBLISHED = _counter(
    "parallel_shm_publish_total",
    "ndarray blocks copied into shared-memory segments",
)
_PUBLISH_SKIPPED = _counter(
    "parallel_shm_publish_skipped_total",
    "Output blocks reused as-is because their layout already matched",
)
_BYTES = _counter(
    "parallel_shm_bytes_total",
    "Bytes copied into shared-memory segments",
)
_ATTACHES = _counter(
    "parallel_shm_attach_total",
    "Shared-memory segments attached as zero-copy ndarray views",
)
_UNLINKS = _counter(
    "parallel_shm_unlink_total",
    "Shared-memory segments unlinked by their owning workspace",
)
_FALLBACKS = _counter(
    "parallel_shm_fallback_total",
    "shm-backend runs that fell back to the serial backend",
)
_ACTIVE = _gauge(
    "parallel_shm_active_segments",
    "Shared-memory segments currently owned by live workspaces",
)


class ShmError(ReproError):
    """Shared-memory transport failure (segment gone, attach refused,
    platform without ``/dev/shm``).  Callers treat this as a signal to
    fall back to the serial backend — never as a fatal error."""


#: Serializes every tracker-sensitive ``SharedMemory`` call this module
#: makes on interpreters without ``SharedMemory(track=False)``: the
#: attach path must suppress ``resource_tracker.register`` for its
#: duration (see :func:`_attach_untracked`), so segment *creation* —
#: which must register — takes the same lock and can never fall inside
#: the suppression window.
_TRACKER_LOCK = threading.Lock()


def _create_segment(size: int, name: Optional[str] = None):
    """Create (and tracker-register) a segment outside any suppression
    window."""
    with _TRACKER_LOCK:
        if name is None:
            return shared_memory.SharedMemory(create=True, size=size)
        return shared_memory.SharedMemory(
            create=True, size=size, name=name
        )


def shm_available() -> bool:
    """Whether shared-memory segments can be created on this host."""
    try:
        probe = _create_segment(1)
    except Exception:
        return False
    try:
        probe.close()
        probe.unlink()
    except Exception:  # pragma: no cover - defensive
        pass
    return True


def active_segment_names() -> Tuple[str, ...]:
    """Names of library-owned segments visible in ``/dev/shm`` right now.

    Empty on platforms without a ``/dev/shm`` filesystem (the leak gates
    then simply pass).
    """
    try:
        entries = os.listdir("/dev/shm")
    except OSError:
        return ()
    return tuple(
        sorted(e for e in entries if e.startswith(SEGMENT_PREFIX))
    )


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Attach segment ``name`` without resource-tracker registration.

    An attaching process does not own the segment: letting it register
    would corrupt the tracker's bookkeeping (double registration here,
    spurious unlink warnings when a worker exits).  Python 3.13 grew
    ``SharedMemory(track=False)`` for exactly this and it is used when
    available.

    Older interpreters suppress ``resource_tracker.register`` for the
    duration of the attach.  Attach-then-``unregister`` is *not* an
    option there: fork-context workers share the parent's tracker
    process, whose cache holds one **set** of names per resource type —
    a worker's unregister would erase the parent's own registration of
    the very segment it still owns (tracker ``KeyError`` spam at exit,
    lost crash cleanup).  The suppression is process-wide, so
    :data:`_TRACKER_LOCK` serializes it against every segment *creation*
    this module performs; a registration can therefore never be lost to
    the window by this library's own concurrent publish/attach paths.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13: no ``track`` parameter
        pass
    with _TRACKER_LOCK:
        original = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original


@dataclass(frozen=True)
class ArraySpec:
    """Compact wire form of one published ndarray.

    ``segment`` names the shared-memory block; ``dtype``/``shape``/
    ``strides`` reconstruct the exact view (including Fortran-order
    layouts) without transferring a single array byte.
    """

    segment: str
    dtype: str
    shape: Tuple[int, ...]
    strides: Tuple[int, ...]

    @property
    def nbytes(self) -> int:
        """Payload size of the described array."""
        return int(np.dtype(self.dtype).itemsize * int(np.prod(self.shape)))

    def view(self, buf) -> np.ndarray:
        """Zero-copy ndarray view of ``buf`` with this spec's layout."""
        return np.ndarray(
            self.shape, dtype=np.dtype(self.dtype), buffer=buf,
            strides=self.strides,
        )


@dataclass(frozen=True)
class WorkspaceDescriptor:
    """Everything a worker needs to attach a workspace: a stable id,
    one :class:`ArraySpec` per block, and a small picklable ``meta``
    dict for non-array sidecar data (node names, level counts, ...)."""

    workspace_id: str
    arrays: Dict[str, ArraySpec]
    meta: Dict[str, Any]


class _Block:
    """One owned segment plus its published view and wire spec."""

    __slots__ = ("shm", "view", "spec")

    def __init__(self, shm, view, spec):
        self.shm = shm
        self.view = view
        self.spec = spec


def _segment_suffix(key: str) -> str:
    """Block key mangled into a legal shm name component (POSIX shm
    names reject ``/``); keys stay verbatim in the descriptor dict."""
    return "".join(c if c.isalnum() or c == "_" else "_" for c in key)


def _publishable(array: np.ndarray) -> np.ndarray:
    """A contiguous form of ``array`` whose layout a spec can carry."""
    if array.flags.c_contiguous or array.flags.f_contiguous:
        return array
    return np.ascontiguousarray(array)


class ShmWorkspace:
    """A named set of shared-memory ndarray blocks owned by this process.

    ``put`` publishes (or re-publishes) one block; ``descriptor()``
    snapshots the compact wire form; ``close()`` unlinks every segment.
    Usable as a context manager; every live workspace is also closed by
    an ``atexit`` hook so an aborted run cannot leak ``/dev/shm``
    entries.
    """

    _counter = itertools.count()
    _live: Dict[int, "ShmWorkspace"] = {}
    _live_lock = threading.Lock()

    def __init__(self, tag: str = "ws") -> None:
        self._id = f"{SEGMENT_PREFIX}_{os.getpid()}_{tag}_" \
            f"{next(ShmWorkspace._counter)}"
        # Per-workspace generation stamp baked into every segment name:
        # re-creating a block (resized shape, changed dtype) always
        # yields a *fresh* name, so a worker's stale mapping of the old
        # segment can never alias the new one.
        self._generation = itertools.count()
        self._blocks: Dict[str, _Block] = {}
        self.meta: Dict[str, Any] = {}
        self._closed = False
        with ShmWorkspace._live_lock:
            ShmWorkspace._live[id(self)] = self

    # -- publication ---------------------------------------------------
    @property
    def workspace_id(self) -> str:
        """Stable identifier baked into every segment name."""
        return self._id

    def put(self, key: str, array: np.ndarray) -> ArraySpec:
        """Publish ``array`` under ``key``; returns its wire spec.

        When a block under ``key`` has the same shape, dtype and strides
        its segment is rewritten in place; otherwise the old segment is
        unlinked and a fresh one created.
        """
        array = _publishable(np.asarray(array))
        return self._publish(key, array, copy=True).spec

    def put_many(self, arrays: Dict[str, np.ndarray]) -> None:
        """Publish every ``{key: array}`` entry."""
        for key, array in arrays.items():
            self.put(key, array)

    def allocate(
        self, key: str, shape: Tuple[int, ...], dtype=np.float64
    ) -> np.ndarray:
        """Ensure an *output* block of exactly ``(shape, dtype)`` exists.

        Unlike :meth:`put` no source bytes are copied — workers write
        into the block (e.g. each shard filling its own row slice of a
        result matrix) and the parent reads the assembled result back
        through the returned view.  An existing block with a matching
        layout is reused as-is (counted by
        ``parallel_shm_publish_skipped_total``); contents are
        unspecified until written.
        """
        template = np.empty(tuple(int(s) for s in shape), dtype=dtype)
        return self._publish(key, template, copy=False).view

    def _publish(self, key: str, array: np.ndarray, copy: bool) -> _Block:
        """The block under ``key`` laid out like ``array``, holding its
        bytes when ``copy``.

        A block whose layout matches is reused; otherwise the old one is
        unlinked and a fresh generation-stamped segment created.
        """
        if self._closed:
            raise ShmError(f"workspace {self._id} is closed")
        if _fault_check("shm.publish") is not None:
            raise ShmError("injected fault: shm.publish")
        nbytes = int(array.nbytes)
        block = self._blocks.get(key)
        if block is not None and block.view.shape == array.shape \
                and block.view.dtype == array.dtype \
                and block.view.strides == array.strides:
            if not copy:
                _PUBLISH_SKIPPED.inc()
                return block
            with _span("shm.publish", key=key, reused=True, bytes=nbytes):
                np.copyto(block.view, array)
        else:
            self._unlink_block(key)
            name = f"{self._id}_g{next(self._generation)}_" \
                f"{_segment_suffix(key)}"
            with _span("shm.publish", key=key, reused=False,
                       output=not copy, bytes=nbytes):
                try:
                    seg = _create_segment(max(nbytes, 1), name)
                except Exception as exc:
                    raise ShmError(
                        f"cannot create shared segment {name!r}: {exc}"
                    ) from exc
                spec = ArraySpec(
                    segment=name,
                    dtype=array.dtype.str,
                    shape=tuple(array.shape),
                    strides=tuple(array.strides),
                )
                view = spec.view(seg.buf)
                if copy:
                    np.copyto(view, array)
            block = self._blocks[key] = _Block(seg, view, spec)
            _ACTIVE.set(_ACTIVE.value + 1)
        _PUBLISHED.inc()
        if copy:
            _BYTES.inc(nbytes)
        return block

    def get(self, key: str) -> np.ndarray:
        """The parent-side live view of block ``key``."""
        try:
            return self._blocks[key].view
        except KeyError:
            raise ShmError(
                f"workspace {self._id} has no block {key!r}"
            ) from None

    def descriptor(self) -> WorkspaceDescriptor:
        """Picklable wire form of the current publication state."""
        return WorkspaceDescriptor(
            workspace_id=self._id,
            arrays={k: b.spec for k, b in self._blocks.items()},
            meta=dict(self.meta),
        )

    # -- teardown ------------------------------------------------------
    def _unlink_block(self, key: str) -> None:
        block = self._blocks.pop(key, None)
        if block is None:
            return
        block.view = None  # release the buffer before closing
        try:
            block.shm.close()
        except Exception:  # pragma: no cover - defensive
            pass
        try:
            block.shm.unlink()
            _UNLINKS.inc()
        except FileNotFoundError:
            pass
        except Exception:  # pragma: no cover - defensive
            pass
        _ACTIVE.set(max(_ACTIVE.value - 1, 0))

    def close(self) -> None:
        """Unlink every owned segment (idempotent)."""
        if self._closed:
            return
        for key in list(self._blocks):
            self._unlink_block(key)
        self._closed = True
        with ShmWorkspace._live_lock:
            ShmWorkspace._live.pop(id(self), None)

    def __enter__(self) -> "ShmWorkspace":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass


def close_all_workspaces() -> None:
    """Close every live workspace owned by this process.

    Called from ``atexit`` and from :func:`repro.parallel.shutdown`;
    also the teardown hook the test suite uses to guarantee a clean
    ``/dev/shm`` between tests.
    """
    with ShmWorkspace._live_lock:
        workspaces = list(ShmWorkspace._live.values())
    for workspace in workspaces:
        workspace.close()


atexit.register(close_all_workspaces)


def publish_workspace(tag: str, arrays: Dict[str, np.ndarray],
                      meta: Dict[str, Any]) -> ShmWorkspace:
    """A fresh workspace holding ``arrays`` and ``meta``.  A failed
    publish leaves no segment and raises :class:`ShmError`."""
    workspace = ShmWorkspace(tag=tag)
    try:
        workspace.put_many(arrays)
    except BaseException:
        workspace.close()
        raise
    workspace.meta.update(meta)
    return workspace


#: Owners whose workspaces one :class:`WorkspaceRegistry` keeps published
#: at once; publishing for another unlinks the least recently used one's.
MAX_PUBLISHED_WORKSPACES = 4


class WorkspaceRegistry:
    """Workspaces published once per owner object, while it lives.

    Keyed by ``id(owner)``: :meth:`workspace` hands back the owner's
    live workspace, or publishes one.  A ``weakref.finalize``, registered
    once per owner, unlinks the workspace when the owner is collected, so
    an id is never reused stale.  At most ``cap`` owners stay published
    (least recently used unlinked first), and a workspace closed under
    the registry (:func:`close_all_workspaces`) is published afresh.
    Building and copying the blocks happen outside the lock, which is
    reentrant: a finalizer run by a collection inside it takes it again.
    """

    def __init__(self, tag: str, cap: int = MAX_PUBLISHED_WORKSPACES) -> None:
        self._tag = tag
        self._cap = cap
        self._entries: "OrderedDict[int, ShmWorkspace]" = OrderedDict()
        self._watched: set = set()
        self._lock = threading.RLock()

    def __len__(self) -> int:
        return len(self._entries)

    def _live(self, key: int) -> Optional[ShmWorkspace]:
        workspace = self._entries.get(key)
        if workspace is None or workspace._closed:
            return None
        self._entries.move_to_end(key)
        return workspace

    def workspace(self, owner, build) -> Tuple[ShmWorkspace, bool]:
        """``owner``'s workspace and whether this call published it.

        ``build()`` returns the ``({key: array}, meta)`` to publish; it
        runs only when ``owner`` has no live workspace.  A failed publish
        leaves no segment and raises :class:`ShmError`.
        """
        key = id(owner)
        with self._lock:
            workspace = self._live(key)
        if workspace is not None:
            return workspace, False
        workspace = publish_workspace(self._tag, *build())
        with self._lock:
            current = self._live(key)
            if current is not None:  # another thread published first
                evicted, workspace = [workspace], current
            else:
                self._entries[key] = workspace
                self._entries.move_to_end(key)
                evicted = []
                while len(self._entries) > self._cap:
                    evicted.append(self._entries.popitem(last=False)[1])
            watch = key not in self._watched
            self._watched.add(key)
        if watch:
            weakref.finalize(owner, self._forget, key)
        for old in evicted:
            old.close()
        return workspace, current is None

    def discard(self, owner) -> None:
        """Unlink ``owner``'s workspace; a later call publishes afresh."""
        with self._lock:
            workspace = self._entries.pop(id(owner), None)
        if workspace is not None:
            workspace.close()

    def _forget(self, key: int) -> None:
        with self._lock:
            self._watched.discard(key)
            workspace = self._entries.pop(key, None)
        if workspace is not None:
            workspace.close()


class LocalWorkspace:
    """In-process stand-in for :class:`ShmWorkspace` on the serial path.

    Same ``put``/``allocate``/``descriptor``/``meta`` surface, but every
    block is an ordinary ndarray held by reference (no segment, no
    copy), and :meth:`descriptor` returns the workspace itself, which
    :func:`attach_workspace` hands straight back — so one descriptor-
    shaped shard task serves both backends.  The serial backend runs
    shards in the parent, so a local workspace is never pickled.
    """

    def __init__(self) -> None:
        self.arrays: Dict[str, np.ndarray] = {}
        self.meta: Dict[str, Any] = {}
        self.cache: Dict[str, Any] = {}

    def put(self, key: str, array: np.ndarray) -> None:
        """Hold ``array`` under ``key`` (by reference)."""
        self.arrays[key] = array

    def allocate(
        self, key: str, shape: Tuple[int, ...], dtype=np.float64
    ) -> np.ndarray:
        """A fresh, uninitialized output block under ``key``."""
        block = np.empty(shape, dtype=dtype)
        self.arrays[key] = block
        return block

    def descriptor(self) -> "LocalWorkspace":
        """The workspace itself (it never leaves this process)."""
        return self


# ---------------------------------------------------------------------------
# Attach side (workers, or the parent's inline degrade path)

class AttachedWorkspace:
    """Zero-copy view of a published workspace in *this* process.

    ``arrays`` maps block keys to live ndarray views; ``meta`` mirrors
    the descriptor's sidecar dict; ``specs`` is the exact
    ``{key: ArraySpec}`` map this attachment was built from (the cache
    revalidates against it); ``cache`` is scratch space for derived
    objects (e.g. a reconstructed
    :class:`~repro.core.batch.TreeTopology`) that should live exactly as
    long as the attachment does.
    """

    __slots__ = (
        "workspace_id", "arrays", "meta", "specs", "cache", "_segments"
    )

    def __init__(self, workspace_id, arrays, meta, specs, segments):
        self.workspace_id = workspace_id
        self.arrays: Dict[str, np.ndarray] = arrays
        self.meta: Dict[str, Any] = meta
        self.specs: Dict[str, ArraySpec] = specs
        self.cache: Dict[str, Any] = {}
        self._segments = segments

    def detach(self) -> None:
        """Drop every view and close the attached segments."""
        self.arrays.clear()
        self.cache.clear()
        for seg in self._segments:
            try:
                seg.close()
            except Exception:  # pragma: no cover - defensive
                pass
        self._segments = ()


#: Per-process LRU of attachments: a warm worker re-serving shards of
#: the same workspace attaches once and then reads shared pages
#: directly.  Bounded so long-lived workers cannot pin stale segments.
_ATTACH_CACHE_SIZE = 4
_ATTACHED: "OrderedDict[str, AttachedWorkspace]" = OrderedDict()
_ATTACH_LOCK = threading.Lock()


def attach_workspace(descriptor: WorkspaceDescriptor) -> AttachedWorkspace:
    """Attach (or re-use the cached attachment of) ``descriptor``.

    Raises :class:`ShmError` when any named segment no longer exists —
    the caller's cue to fall back to the serial backend.  A
    :class:`LocalWorkspace` is already attached and comes straight back.
    """
    if isinstance(descriptor, LocalWorkspace):
        return descriptor
    if _fault_check("shm.attach") is not None:
        raise ShmError("injected fault: shm.attach")
    if _fault_check("shm.unlink") is not None:
        # Yank a real segment out from under the attach (and drop any
        # cached attachment that would mask it), so the *genuine*
        # segment-gone branch below fires — not a synthetic raise.
        with _ATTACH_LOCK:
            stale = _ATTACHED.pop(descriptor.workspace_id, None)
        if stale is not None:
            stale.detach()
        for spec in descriptor.arrays.values():
            try:
                os.unlink(f"/dev/shm/{spec.segment}")
            except OSError:  # pragma: no cover - already gone
                pass
            break
    with _ATTACH_LOCK:
        cached = _ATTACHED.get(descriptor.workspace_id)
        if cached is not None:
            _ATTACHED.move_to_end(descriptor.workspace_id)
            # Revalidate the *full* spec map, not just the key set: a
            # resized block keeps its key but points at a fresh
            # generation-stamped segment, and a cached view of the old
            # (unlinked) segment must never be served against it.
            if cached.specs == dict(descriptor.arrays):
                return cached
            # Re-published with different blocks or layouts: afresh.
            _ATTACHED.pop(descriptor.workspace_id)
            cached.detach()
        with _span("shm.attach", workspace=descriptor.workspace_id,
                   blocks=len(descriptor.arrays)):
            arrays: Dict[str, np.ndarray] = {}
            segments = []
            try:
                for key, spec in descriptor.arrays.items():
                    try:
                        seg = _attach_untracked(spec.segment)
                    except FileNotFoundError as exc:
                        raise ShmError(
                            f"shared segment {spec.segment!r} is gone "
                            "(unlinked under the worker?)"
                        ) from exc
                    segments.append(seg)
                    arrays[key] = spec.view(seg.buf)
                    _ATTACHES.inc()
            except ShmError:
                for seg in segments:
                    try:
                        seg.close()
                    except Exception:  # pragma: no cover - defensive
                        pass
                raise
        attached = AttachedWorkspace(
            descriptor.workspace_id, arrays, dict(descriptor.meta),
            dict(descriptor.arrays), tuple(segments),
        )
        _ATTACHED[descriptor.workspace_id] = attached
        while len(_ATTACHED) > _ATTACH_CACHE_SIZE:
            _, evicted = _ATTACHED.popitem(last=False)
            evicted.detach()
        return attached


def detach_all() -> None:
    """Drop every cached attachment in this process."""
    with _ATTACH_LOCK:
        while _ATTACHED:
            _, attached = _ATTACHED.popitem(last=False)
            attached.detach()


def record_fallback(reason: str = "unspecified") -> None:
    """Count one shm-to-serial fallback (workload layer calls this).

    ``reason`` is a short slug ("shm-unavailable", "publish-failed") that
    lands on a ``reason``-labeled child series, so ``repro report`` can
    say *why* the run degraded, not just that it did."""
    _FALLBACKS.inc()
    try:
        _FALLBACKS.labels(reason=str(reason)).inc()
    except Exception:  # pragma: no cover - a bad slug must not raise
        logger.debug("unusable fallback reason %r", reason, exc_info=True)
