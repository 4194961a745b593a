"""Shared-memory plane fabric: zero-copy trace and batch planes for sweeps.

A sweep evaluates many predictor configurations over a fixed benchmark set.
Everything trace-side is *point-invariant*: the trace columns themselves,
and each provider's materialized :class:`~repro.history.providers.VectorBatch`
planes, depend only on (trace content, provider configuration) — never on
the swept parameter.  Before this module, ``sweep_parallel`` pickled every
trace into every worker task and every worker re-materialized the same
planes for every point it touched.

The fabric instead publishes those read-only planes once, into
``multiprocessing.shared_memory`` segments:

* **publisher side** (:class:`PlaneStore`) — the sweeping process packs the
  arrays into one segment per plane set and hands out a
  :class:`PlaneManifest` (segment name + per-plane name/dtype/shape/offset
  and a content digest).  Manifests are tiny and picklable; they are what
  crosses the pool boundary instead of the arrays.
* **consumer side** (:func:`attach_trace` / :func:`attach_batch`) — workers
  map the segment and wrap the planes zero-copy via
  ``np.ndarray(buffer=shm.buf, offset=...)``; the first attach verifies
  every plane's digest against the manifest and raises :class:`PlaneError`
  on mismatch.  Attachments are refcounted per segment
  (:func:`attach`/:func:`detach`) and cached, so a worker maps each
  segment once regardless of how many work units reference it.

Lifecycle rules: the publishing process owns its segments — it unlinks them
at :meth:`PlaneStore.release`, at interpreter exit (``atexit``), and on
SIGINT/SIGTERM (a chaining handler installed with the first store).
Ownership is pid-guarded, so fork-inherited copies of the store in pool
workers can never unlink the parent's segments.  Consumers only ever
``close`` their mappings.  When shared memory is unavailable (no ``/dev/shm``,
permissions, exotic platforms) the store marks itself unavailable after the
first failure and callers transparently fall back to pickling the arrays —
the fabric is a fast path, never a requirement.
"""

from __future__ import annotations

import atexit
import hashlib
import itertools
import os
import signal
import threading
from dataclasses import dataclass
from multiprocessing import shared_memory
from weakref import WeakKeyDictionary

import numpy as np

try:  # posix-only: unlink-by-name for segments interrupted mid-construction
    import _posixshmem
except ImportError:  # pragma: no cover - non-posix platforms
    _posixshmem = None

from repro.history.providers import HistoryProvider, VectorBatch
from repro.obs import get_telemetry
from repro.traces.io import trace_columns
from repro.traces.model import Trace

__all__ = ["SEGMENT_PREFIX", "PlaneError", "PlaneSpec", "PlaneManifest",
           "PlaneStore", "get_plane_store", "release_plane_store",
           "attach", "detach", "attach_trace", "attach_batch",
           "release_attachments"]

SEGMENT_PREFIX = "repro-planes"
"""Segment-name prefix: leak checks (CI's ``/dev/shm`` scan, the SIGINT
cleanup test) grep for it, so every fabric segment must carry it."""

_ALIGN = 64
"""Plane start alignment within a segment, in bytes (cache-line friendly,
and satisfies any dtype's alignment requirement)."""

_BATCH_COLUMNS = ("history", "address", "branch_pc", "path", "takens",
                  "bank")

_SEGMENT_NUMBERS = itertools.count()
"""Segment-name sequence, shared by every store in the process: a name is
never reused for the life of the process, so a pool worker's attachment
cache (keyed by segment name) cannot serve a released store's planes to a
later store."""


class PlaneError(RuntimeError):
    """A plane segment cannot be attached (missing, truncated, or its
    content does not match the manifest digest)."""


def _digest(data: bytes | memoryview) -> str:
    return hashlib.blake2b(data, digest_size=16).hexdigest()


@dataclass(frozen=True)
class PlaneSpec:
    """One named array inside a segment."""

    name: str
    dtype: str
    shape: tuple[int, ...]
    offset: int
    digest: str


@dataclass(frozen=True)
class PlaneManifest:
    """Everything a consumer needs to attach one plane set: the segment
    name, its planes, and — for batch planes — the provider configuration
    key they were materialized under."""

    segment: str
    nbytes: int
    kind: str  # "trace" | "batch"
    label: str  # the trace name (diagnostics + Trace reconstruction)
    planes: tuple[PlaneSpec, ...]
    provider_key: tuple | None = None


# -- publisher side ----------------------------------------------------------


class PlaneStore:
    """Owner of published plane segments (one store per sweeping process).

    Publishing is idempotent per (trace object, plane set): trace planes
    key on the trace object, batch planes on (trace object, provider
    plane key) — so a 16-point sweep publishes (and materializes) each
    trace's planes exactly once, process-wide, no matter how many points
    or workers consume them.
    """

    def __init__(self) -> None:
        self._owner_pid = os.getpid()
        self._segments: dict[str, shared_memory.SharedMemory] = {}
        self._trace_manifests: WeakKeyDictionary = WeakKeyDictionary()
        self._batch_manifests: WeakKeyDictionary = WeakKeyDictionary()
        self._unavailable_reason: str | None = None
        # Reentrant: the SIGINT/SIGTERM cleanup runs release() on the main
        # thread and must not deadlock against an interrupted publish that
        # already holds the lock.
        self._lock = threading.RLock()

    @property
    def available(self) -> bool:
        """Whether shared memory works here (False after the first failed
        segment creation; the store never retries a broken platform)."""
        return self._unavailable_reason is None

    @property
    def segments(self) -> tuple[str, ...]:
        """Names of the segments this store currently owns."""
        return tuple(self._segments)

    def publish_trace(self, trace: Trace) -> PlaneManifest | None:
        """Publish the trace's columns; returns its manifest (cached per
        trace object) or ``None`` when shared memory is unavailable."""
        with self._lock:
            manifest = self._trace_manifests.get(trace)
            if manifest is not None:
                return manifest
            manifest = self._publish(trace_columns(trace), kind="trace",
                                     label=trace.name)
            if manifest is not None:
                self._trace_manifests[trace] = manifest
            return manifest

    def publish_batch(self, trace: Trace,
                      provider: HistoryProvider) -> PlaneManifest | None:
        """Materialize ``provider``'s planes for ``trace`` (at most once
        per (trace, provider configuration), process-wide) and publish
        them.  Returns ``None`` when the provider cannot be keyed or
        materialized, or when shared memory is unavailable — consumers then
        materialize locally, exactly as before the fabric existed."""
        key = provider.plane_key()
        if key is None:
            return None
        with self._lock:
            per_trace = self._batch_manifests.setdefault(trace, {})
            if key in per_trace:
                return per_trace[key]
            batch = provider.materialize(trace)
            if batch is None:
                per_trace[key] = None  # don't retry a hopeless materialize
                return None
            columns = [(name, getattr(batch, name))
                       for name in _BATCH_COLUMNS
                       if getattr(batch, name) is not None]
            manifest = self._publish(columns, kind="batch", label=trace.name,
                                     provider_key=key)
            per_trace[key] = manifest
            return manifest

    def _publish(self, columns, kind: str, label: str,
                 provider_key: tuple | None = None) -> PlaneManifest | None:
        if not self.available:
            return None
        layout = []
        offset = 0
        for name, array in columns:
            array = np.ascontiguousarray(array)
            offset = (offset + _ALIGN - 1) & ~(_ALIGN - 1)
            layout.append((name, array, offset))
            offset += array.nbytes
        total = max(offset, 1)
        segment_name = (f"{SEGMENT_PREFIX}-{self._owner_pid}-"
                        f"{next(_SEGMENT_NUMBERS)}")
        # The name is claimed BEFORE construction: the /dev/shm file exists
        # as soon as SharedMemory.__init__ calls shm_open, so a signal
        # landing inside the constructor (e.g. during its resource-tracker
        # registration) would otherwise strand a segment release() has
        # never heard of.  release() unlinks a still-None entry by name.
        self._segments[segment_name] = None
        try:
            segment = shared_memory.SharedMemory(name=segment_name,
                                                 create=True, size=total)
        except (OSError, ValueError) as error:
            self._segments.pop(segment_name, None)
            self._unavailable_reason = repr(error)
            return None
        # Replaced before the copy loop, so a signal-triggered release()
        # that interrupts it still unlinks this (half-filled) segment.
        self._segments[segment_name] = segment
        specs = []
        for name, array, start in layout:
            view = np.ndarray(array.shape, dtype=array.dtype,
                              buffer=segment.buf, offset=start)
            view[...] = array
            specs.append(PlaneSpec(name=name, dtype=str(array.dtype),
                                   shape=tuple(array.shape), offset=start,
                                   digest=_digest(array.tobytes())))
        sink = get_telemetry(None)
        if sink.enabled:
            sink.count(f"planes.{kind}_published")
            sink.count("planes.bytes_published", total)
        return PlaneManifest(segment=segment_name, nbytes=total, kind=kind,
                             label=label, planes=tuple(specs),
                             provider_key=provider_key)

    def release(self) -> None:
        """Close and unlink every owned segment (idempotent).

        Pid-guarded: a fork-inherited copy of the store only drops its
        bookkeeping — unlinking is the creating process's job alone.
        """
        owner = os.getpid() == self._owner_pid
        with self._lock:
            segments = list(self._segments.items())
            self._segments.clear()
            self._trace_manifests = WeakKeyDictionary()
            self._batch_manifests = WeakKeyDictionary()
        for name, segment in segments:
            if segment is None:
                # Claimed in _publish but interrupted inside the
                # SharedMemory constructor: no object to close, but the
                # shm file may already exist — unlink it by name.
                if owner and _posixshmem is not None:
                    try:
                        _posixshmem.shm_unlink("/" + name)
                    except (FileNotFoundError, OSError):
                        pass
                continue
            try:
                segment.close()
            except (BufferError, OSError):  # pragma: no cover - defensive
                pass
            if owner:
                try:
                    segment.unlink()
                except (FileNotFoundError, OSError):
                    pass


_STORE: PlaneStore | None = None
_STORE_LOCK = threading.RLock()


def get_plane_store() -> PlaneStore:
    """The process-wide plane store (created on first use, released at
    interpreter exit and on SIGINT/SIGTERM)."""
    global _STORE
    with _STORE_LOCK:
        if _STORE is None or _STORE._owner_pid != os.getpid():
            _STORE = PlaneStore()
            atexit.register(_STORE.release)
            _install_signal_cleanup()
        return _STORE


def release_plane_store() -> None:
    """Release the process-wide store's segments now (safe to call when no
    store exists; a later :func:`get_plane_store` starts a fresh one)."""
    global _STORE
    with _STORE_LOCK:
        store, _STORE = _STORE, None
    if store is not None:
        atexit.unregister(store.release)
        store.release()


_SIGNAL_CLEANUP_INSTALLED = False


def _install_signal_cleanup() -> None:
    """Chain a cleanup step onto SIGINT/SIGTERM so interrupted sweeps never
    leak ``/dev/shm`` segments.  The previous handler (or default
    behaviour) still runs afterwards; installation is best-effort — off the
    main thread (where ``signal.signal`` raises) the ``atexit`` hook is the
    only cleanup, which still covers SIGINT's KeyboardInterrupt unwind."""
    global _SIGNAL_CLEANUP_INSTALLED
    if _SIGNAL_CLEANUP_INSTALLED:
        return
    _SIGNAL_CLEANUP_INSTALLED = True

    def chain(signum, frame, previous):
        release_plane_store()
        release_attachments()
        if callable(previous):
            previous(signum, frame)
        else:  # SIG_DFL (or SIG_IGN on a signal we should die from anyway)
            signal.signal(signum, signal.SIG_DFL)
            signal.raise_signal(signum)

    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            previous = signal.getsignal(signum)
            signal.signal(
                signum,
                lambda num, frame, prev=previous: chain(num, frame, prev))
        except (ValueError, OSError):  # non-main thread / unsupported
            pass


# -- consumer side -----------------------------------------------------------


class _Attachment:
    __slots__ = ("segment", "arrays", "refs")

    def __init__(self, segment, arrays) -> None:
        self.segment = segment
        self.arrays = arrays
        self.refs = 1


_ATTACH_LOCK = threading.RLock()
_ATTACHMENTS: dict[str, _Attachment] = {}
_ATTACHED_TRACES: dict[str, Trace] = {}
_ATTACHED_BATCHES: dict[str, VectorBatch] = {}


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without registering it with the
    resource tracker.

    Until Python 3.13's ``track=False``, attaching registers the segment
    exactly like creating it does (bpo-39959) — so a spawn-started worker's
    private tracker would unlink the segment when the worker exits, while
    the publisher still uses it, and an explicit ``unregister`` from a
    fork-started worker would instead delete the *publisher's* entry from
    the shared tracker.  Suppressing the registration for the duration of
    the attach sidesteps both: only the publishing process ever holds a
    tracker entry, matching the ownership rule (publisher unlinks,
    consumers only close).
    """
    from multiprocessing import resource_tracker
    original = resource_tracker.register

    def register(path, rtype):  # pragma: no cover - trivial shim
        if rtype != "shared_memory":
            original(path, rtype)

    with _TRACKER_PATCH_LOCK:
        resource_tracker.register = register
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original


_TRACKER_PATCH_LOCK = threading.Lock()


def attach(manifest: PlaneManifest, verify: bool = True) -> dict[str, np.ndarray]:
    """Map the manifest's segment and return its planes as read-only,
    zero-copy arrays.  Repeated attaches of the same segment share one
    mapping and bump its refcount; content digests are verified on the
    first attach only (the planes are immutable afterwards by contract).

    Raises :class:`PlaneError` when the segment is missing or a plane's
    content does not match its manifest digest.
    """
    with _ATTACH_LOCK:
        attachment = _ATTACHMENTS.get(manifest.segment)
        if attachment is not None:
            attachment.refs += 1
            return attachment.arrays
    try:
        segment = _attach_untracked(manifest.segment)
    except (FileNotFoundError, OSError, ValueError) as error:
        raise PlaneError(
            f"cannot attach plane segment {manifest.segment!r}: "
            f"{error!r}") from error
    arrays: dict[str, np.ndarray] = {}
    try:
        if segment.size < manifest.nbytes:
            raise PlaneError(
                f"plane segment {manifest.segment!r} is "
                f"{segment.size} bytes, manifest says {manifest.nbytes}")
        for spec in manifest.planes:
            view = np.ndarray(spec.shape, dtype=np.dtype(spec.dtype),
                              buffer=segment.buf, offset=spec.offset)
            if verify and _digest(view.tobytes()) != spec.digest:
                raise PlaneError(
                    f"plane {spec.name!r} in segment {manifest.segment!r} "
                    f"does not match its manifest digest")
            view.setflags(write=False)  # shared planes are immutable
            arrays[spec.name] = view
    except PlaneError:
        arrays.clear()
        segment.close()
        raise
    with _ATTACH_LOCK:
        racing = _ATTACHMENTS.get(manifest.segment)
        if racing is not None:  # pragma: no cover - concurrent attach race
            racing.refs += 1
            arrays = racing.arrays
        else:
            _ATTACHMENTS[manifest.segment] = _Attachment(segment, arrays)
    return arrays


def detach(segment_name: str) -> None:
    """Drop one reference to an attached segment; the mapping closes when
    the count reaches zero.  Unknown segments are ignored."""
    with _ATTACH_LOCK:
        attachment = _ATTACHMENTS.get(segment_name)
        if attachment is None:
            return
        attachment.refs -= 1
        if attachment.refs > 0:
            return
        del _ATTACHMENTS[segment_name]
        _ATTACHED_TRACES.pop(segment_name, None)
        _ATTACHED_BATCHES.pop(segment_name, None)
    attachment.arrays.clear()
    try:
        attachment.segment.close()
    except BufferError:  # a consumer still holds a view; OS cleanup wins
        pass


def attach_trace(manifest: PlaneManifest) -> Trace:
    """The :class:`Trace` built zero-copy over an attached trace-plane
    segment, cached per segment (so every work unit of a sweep sees the
    same object — which is what keys the materialization caches)."""
    with _ATTACH_LOCK:
        cached = _ATTACHED_TRACES.get(manifest.segment)
    if cached is not None:
        return cached
    arrays = attach(manifest)
    trace = Trace(manifest.label, arrays["starts"],
                  arrays["num_instructions"], arrays["kinds"],
                  arrays["takens"], arrays["next_starts"])
    with _ATTACH_LOCK:
        _ATTACHED_TRACES.setdefault(manifest.segment, trace)
        return _ATTACHED_TRACES[manifest.segment]


def attach_batch(manifest: PlaneManifest) -> VectorBatch:
    """The :class:`~repro.history.providers.VectorBatch` over an attached
    batch-plane segment, cached per segment."""
    with _ATTACH_LOCK:
        cached = _ATTACHED_BATCHES.get(manifest.segment)
    if cached is not None:
        return cached
    arrays = attach(manifest)
    batch = VectorBatch(history=arrays["history"], address=arrays["address"],
                        branch_pc=arrays["branch_pc"], path=arrays["path"],
                        takens=arrays["takens"], bank=arrays.get("bank"))
    with _ATTACH_LOCK:
        _ATTACHED_BATCHES.setdefault(manifest.segment, batch)
        return _ATTACHED_BATCHES[manifest.segment]


def release_attachments() -> None:
    """Close every attachment this process holds (idempotent; used by the
    signal cleanup path and tests)."""
    with _ATTACH_LOCK:
        attachments = list(_ATTACHMENTS.values())
        _ATTACHMENTS.clear()
        _ATTACHED_TRACES.clear()
        _ATTACHED_BATCHES.clear()
    for attachment in attachments:
        attachment.arrays.clear()
        try:
            attachment.segment.close()
        except BufferError:  # pragma: no cover - stray consumer views
            pass


atexit.register(release_attachments)
