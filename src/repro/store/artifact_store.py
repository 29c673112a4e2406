"""The content-addressed artifact store.

Generalizes the design proven by the per-file preprocessing cache
(:mod:`repro.preprocess.cache`) into a store any pipeline stage can use:

* artifacts are addressed by ``(kind, key)`` where *key* is a
  :func:`repro.store.fingerprint.fingerprint` over the artifact's inputs;
* an **in-process LRU** sits in front, holding the *serialized* bytes of
  recently used artifacts — every hit deserializes a fresh copy, so cached
  artifacts can never be corrupted by a consumer mutating its result;
* an optional **sharded on-disk layer** (``<dir>/<kind>/<key[:2]>/<key>.pkl``,
  one pickle per entry, atomically replaced) makes artifacts survive across
  processes and sessions;
* disk entries embed the kind and its schema version; unreadable, truncated
  or stale entries read as misses, and the recompute's ``put`` atomically
  overwrites the slot — readers never delete (an unlink could race a
  concurrent writer's ``os.replace`` and destroy a fresh valid entry), so a
  damaged store heals itself by recomputation.

Writers never block readers: entries are written to a pid-suffixed
temporary file and ``os.replace``d into place, so concurrent writers
(threads or processes) racing on the same key all leave a complete entry
behind.
"""

from __future__ import annotations

import os
import pickle
import random
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path

from repro.envutil import env_directory, env_int, env_size
from repro.store.faults import fault_point
from repro.store.fingerprint import schema_version

#: Transient-I/O retry budget for one store/queue operation (put, get,
#: claim create).  Retries absorb the blips a shared store over a network
#: filesystem actually produces — ESTALE, EIO under load, EBUSY — without
#: masking hard failures for long.
DEFAULT_IO_RETRIES = 5


def default_io_retries() -> int:
    """The retry budget from ``REPRO_STORE_RETRIES``, hardened (0 = no retries)."""
    return env_int("REPRO_STORE_RETRIES", default=DEFAULT_IO_RETRIES, minimum=0)


#: Deliberately unseeded: jitter exists to decorrelate *workers*, so two
#: workers sharing code (and any seed) must still back off differently.
_JITTER_RNG = random.Random()

#: OSErrors that describe the *request*, not the medium — retrying them
#: can only repeat the same answer slower.
_NON_TRANSIENT_OS_ERRORS = (
    FileNotFoundError,
    FileExistsError,
    IsADirectoryError,
    NotADirectoryError,
)


def retry_io(operation, retries: int | None = None, base: float = 0.005,
             cap: float = 0.25, rng: random.Random | None = None):
    """Run *operation*, retrying transient :class:`OSError` with capped
    exponential backoff plus jitter.

    Non-transient errors (missing file, existing file, directory-shape
    mismatches) propagate immediately — a reader treating ENOENT as
    retry-worthy would turn every ordinary cache miss into a backoff
    stall.  The final failure propagates unchanged so callers keep their
    existing best-effort/except-OSError semantics.
    """
    retries = default_io_retries() if retries is None else retries
    rng = _JITTER_RNG if rng is None else rng
    attempt = 0
    while True:
        try:
            return operation()
        except _NON_TRANSIENT_OS_ERRORS:
            raise
        except OSError:
            if attempt >= retries:
                raise
            delay = min(cap, base * (2 ** attempt))
            # Full jitter in [delay/2, delay): synchronized workers that
            # failed together must not retry together.
            time.sleep(delay * (0.5 + 0.5 * rng.random()))
            attempt += 1


def default_store_directory() -> str | None:
    """The on-disk store location from the environment, if configured.

    A ``REPRO_STORE_DIR`` that exists but is not a directory is ignored
    with a warning (every write would fail against it otherwise).
    """
    return env_directory("REPRO_STORE_DIR")


@dataclass
class StoreStats:
    """Size accounting for one store (``repro store stats``)."""

    entries: int = 0
    bytes: int = 0
    #: Per-artifact-kind breakdown: ``{kind: {"entries": n, "bytes": b}}``.
    kinds: dict[str, dict[str, int]] = field(default_factory=dict)
    memory_entries: int = 0


@dataclass
class GCResult:
    """What one :meth:`ArtifactStore.gc` pass removed and what remains."""

    removed_entries: int = 0
    removed_bytes: int = 0
    remaining_entries: int = 0
    remaining_bytes: int = 0


def default_store_max_bytes() -> int | None:
    """The auto-gc watermark from ``REPRO_STORE_MAX_BYTES``, if configured.

    Size suffixes are accepted (``500M``, ``2G``, ...); malformed values
    warn and read as "no watermark" rather than either crashing a pipeline
    or silently evicting a shared store.
    """
    return env_size("REPRO_STORE_MAX_BYTES")


class ArtifactStore:
    """A content-addressed artifact store with an LRU front and disk behind."""

    def __init__(
        self,
        directory: str | os.PathLike | None = None,
        memory_entries: int = 32,
        max_bytes: int | None = None,
    ):
        self._directory = Path(directory) if directory else None
        self._memory: OrderedDict[tuple[str, str], bytes] = OrderedDict()
        self._memory_entries = memory_entries
        self._lock = threading.Lock()
        self._hits: dict[str, int] = {}
        self._misses: dict[str, int] = {}
        #: Auto-gc watermark: after a put pushes the disk layer past this
        #: many bytes, a gc pass with the standard age/least-recently-written
        #: policy trims it back — long-lived shared stores stay bounded
        #: without an operator.  ``None`` (and no env default) disables it.
        self._max_bytes = max_bytes if max_bytes is not None else default_store_max_bytes()
        #: Bytes written since the last watermark check; the check scans the
        #: directory, so it only runs once enough new data accumulated to
        #: plausibly cross the watermark (<= ~12.5% overshoot between scans).
        self._written_since_gc = 0

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------

    @property
    def directory(self) -> Path | None:
        return self._directory

    def counts(self, kind: str) -> dict[str, int]:
        """``{"hit": n, "miss": m}`` for one artifact kind."""
        with self._lock:
            return {"hit": self._hits.get(kind, 0), "miss": self._misses.get(kind, 0)}

    def entry_path(self, kind: str, key: str) -> Path | None:
        """Where the disk entry for ``(kind, key)`` lives (None if memory-only)."""
        if self._directory is None:
            return None
        return self._directory / kind / key[:2] / f"{key}.pkl"

    def memory_size(self) -> int:
        with self._lock:
            return len(self._memory)

    def keys(self, kind: str) -> list[str]:
        """All on-disk keys of *kind*, sorted (used by ``repro worker`` to
        enumerate published plans; the memory layer is a strict subset)."""
        if self._directory is None:
            return []
        kind_dir = self._directory / kind
        if not kind_dir.is_dir():
            return []
        return sorted(path.stem for path in kind_dir.glob("*/*.pkl"))

    def _disk_entries(self) -> list[tuple[Path, str, int, float]]:
        """All on-disk entries as ``(path, kind, bytes, mtime)``.

        Entries that vanish mid-scan (a concurrent gc or writer) are
        skipped; in-flight ``.tmp.`` files are not entries.
        """
        if self._directory is None or not self._directory.is_dir():
            return []
        entries: list[tuple[Path, str, int, float]] = []
        for kind_dir in sorted(self._directory.iterdir()):
            if not kind_dir.is_dir():
                continue
            for path in sorted(kind_dir.glob("*/*.pkl")):
                try:
                    status = path.stat()
                except OSError:
                    continue
                entries.append((path, kind_dir.name, status.st_size, status.st_mtime))
        return entries

    def stats(self) -> StoreStats:
        """Entry count, total bytes and per-kind breakdown of the disk layer."""
        out = StoreStats(memory_entries=self.memory_size())
        for _, kind, size, _ in self._disk_entries():
            out.entries += 1
            out.bytes += size
            bucket = out.kinds.setdefault(kind, {"entries": 0, "bytes": 0})
            bucket["entries"] += 1
            bucket["bytes"] += size
        return out

    def gc(
        self,
        max_bytes: int | None = None,
        max_age_seconds: float | None = None,
        now: float | None = None,
    ) -> GCResult:
        """Bound the disk layer: drop entries older than *max_age_seconds*,
        then the least-recently-written until at most *max_bytes* remain.

        Safe against concurrent workers: removal is a plain unlink of a
        complete entry, a racing writer's ``os.replace`` simply recreates
        the key, and readers treat a vanished file as a miss that heals by
        recomputation.  Stale ``.tmp.`` spill files from crashed writers
        are swept too.  The in-process memory layer is left alone — its
        entries are content-addressed copies that stay valid regardless of
        what is on disk.
        """
        now = time.time() if now is None else now
        result = GCResult()
        entries = self._disk_entries()

        survivors: list[tuple[Path, str, int, float]] = []
        for entry in entries:
            path, _, size, mtime = entry
            if max_age_seconds is not None and now - mtime > max_age_seconds:
                if self._remove_entry(path):
                    result.removed_entries += 1
                    result.removed_bytes += size
                    continue
            survivors.append(entry)

        if max_bytes is not None:
            total = sum(size for _, _, size, _ in survivors)
            evicted: set[Path] = set()
            for entry in sorted(survivors, key=lambda entry: entry[3]):
                if total <= max_bytes:
                    break
                path, _, size, _ = entry
                if self._remove_entry(path):
                    result.removed_entries += 1
                    result.removed_bytes += size
                    total -= size
                    evicted.add(path)
            if evicted:
                survivors = [entry for entry in survivors if entry[0] not in evicted]

        self._sweep_stale_temp_files(now)
        result.remaining_entries = len(survivors)
        result.remaining_bytes = sum(size for _, _, size, _ in survivors)
        return result

    @staticmethod
    def _remove_entry(path: Path) -> bool:
        try:
            path.unlink()
            return True
        except OSError:
            return False

    #: A writer's temp file older than this is a crash leftover, not a
    #: write in flight.
    _TEMP_FILE_TTL_SECONDS = 3600.0

    def _sweep_stale_temp_files(self, now: float) -> None:
        if self._directory is None or not self._directory.is_dir():
            return
        for path in self._directory.glob("*/*/*.tmp.*"):
            try:
                if now - path.stat().st_mtime > self._TEMP_FILE_TTL_SECONDS:
                    path.unlink()
            except OSError:
                continue

    # ------------------------------------------------------------------
    # Read / write.
    # ------------------------------------------------------------------

    def get(self, kind: str, key: str):
        """The stored artifact for ``(kind, key)``, or ``None``.

        Every hit returns a freshly deserialized copy, never a shared
        reference.
        """
        token = (kind, key)
        with self._lock:
            serialized = self._memory.get(token)
            if serialized is not None:
                self._memory.move_to_end(token)
        if serialized is not None:
            value = self._deserialize(kind, serialized)
            with self._lock:
                if value is None:
                    self._misses[kind] = self._misses.get(kind, 0) + 1
                else:
                    self._hits[kind] = self._hits.get(kind, 0) + 1
            return value
        loaded = self._read_disk(kind, key)
        if loaded is None:
            with self._lock:
                self._misses[kind] = self._misses.get(kind, 0) + 1
            return None
        serialized, value = loaded
        with self._lock:
            self._remember(token, serialized)
            self._hits[kind] = self._hits.get(kind, 0) + 1
        return value

    def put(self, kind: str, key: str, value) -> None:
        """Store *value* under ``(kind, key)`` in memory and (if configured) disk.

        Best-effort: an artifact that cannot be serialized is simply not
        cached — the pipeline must never fail over caching.
        """
        try:
            serialized = pickle.dumps(
                (kind, schema_version(kind), value), protocol=pickle.HIGHEST_PROTOCOL
            )
        except Exception:
            return
        with self._lock:
            self._remember((kind, key), serialized)
        self._write_disk(kind, key, serialized)
        self._maybe_auto_gc(len(serialized))

    def clear_memory(self) -> None:
        """Drop the in-process layer (disk entries are untouched)."""
        with self._lock:
            self._memory.clear()

    # ------------------------------------------------------------------
    # Internals.
    # ------------------------------------------------------------------

    def _remember(self, token: tuple[str, str], serialized: bytes) -> None:
        if self._memory_entries <= 0:
            return
        self._memory[token] = serialized
        self._memory.move_to_end(token)
        while len(self._memory) > self._memory_entries:
            self._memory.popitem(last=False)

    def _deserialize(self, kind: str, serialized: bytes):
        """Decode one entry, validating kind and schema version."""
        try:
            stored_kind, stored_schema, value = pickle.loads(serialized)
        except Exception:
            return None
        if stored_kind != kind or stored_schema != schema_version(kind):
            return None
        return value

    def _read_disk(self, kind: str, key: str) -> tuple[bytes, object] | None:
        """Read one disk entry, returning ``(serialized, value)`` or ``None``.

        Truncated/corrupt/stale entries read as misses; the recompute's
        ``put`` then atomically overwrites the slot, which is how a damaged
        store heals.  (Deliberately no reader-side unlink: between this read
        and an unlink another process may have ``os.replace``d a fresh valid
        entry, and deleting it would break the concurrent-writer guarantee.)
        The decoded value rides along so a disk hit costs a single
        deserialization.
        """
        path = self.entry_path(kind, key)
        if path is None:
            return None

        def read() -> bytes:
            fault_point("io_error", op="get", kind=kind)
            return path.read_bytes()

        try:
            serialized = retry_io(read)
        except OSError:
            return None
        value = self._deserialize(kind, serialized)
        if value is None:
            return None
        return serialized, value

    def _maybe_auto_gc(self, written: int) -> None:
        """Enforce the ``max_bytes`` watermark after a disk write.

        Throttled by write volume: the directory scan runs only once the
        bytes written since the previous check reach an eighth of the
        watermark, so steady-state overshoot is bounded without paying a
        scan per put.  Eviction reuses :meth:`gc`'s least-recently-written
        policy, which is concurrency-safe (evicted keys recompute and
        re-land; racing writers are never corrupted).
        """
        if self._max_bytes is None or self._directory is None:
            return
        with self._lock:
            self._written_since_gc += written
            if self._written_since_gc < max(self._max_bytes // 8, 1):
                return
            self._written_since_gc = 0
        try:
            self.gc(max_bytes=self._max_bytes)
        except Exception:
            # The watermark is hygiene, never a reason to fail a pipeline.
            return

    def _write_disk(self, kind: str, key: str, serialized: bytes) -> None:
        path = self.entry_path(kind, key)
        if path is None:
            return

        def write() -> None:
            fault_point("io_error", op="put", kind=kind)
            path.parent.mkdir(parents=True, exist_ok=True)
            temp = path.with_suffix(f".tmp.{os.getpid()}.{threading.get_ident()}")
            payload = serialized
            if fault_point("torn_write", kind=kind):
                # Simulated torn write: the entry lands truncated, as after
                # a power loss that renamed before the data flushed.  The
                # reader's deserialize rejects it (a miss), and the
                # recompute's put heals the slot — the crash-safety story
                # this injection exists to prove.
                payload = serialized[: max(1, len(serialized) // 2)]
            temp.write_bytes(payload)
            os.replace(temp, path)

        try:
            retry_io(write)
        except Exception:
            # Disk persistence is best-effort; never fail a pipeline over it.
            return


#: Process-wide store used when no directory is configured: stages still
#: get cross-invocation reuse within one process (unit tests, the bench
#: harness, long-lived services) without touching the filesystem.
GLOBAL_MEMORY_STORE = ArtifactStore(directory=None)

_DIRECTORY_STORES: dict[str, ArtifactStore] = {}
_DIRECTORY_LOCK = threading.Lock()


def resolve_store(directory: str | None = None) -> ArtifactStore:
    """The store for *directory* (or the ``REPRO_STORE_DIR`` default).

    Without a directory this is the shared in-memory store; with one, a
    per-directory singleton so the LRU layer is shared between all pipelines
    pointing at the same store.  A path that exists but is not a directory
    (env- or ``--cache-dir``-supplied alike) cannot back a store: it falls
    back to the in-memory store with a warning rather than silently
    swallowing every disk write.
    """
    directory = directory or default_store_directory()
    if directory is None:
        return GLOBAL_MEMORY_STORE
    if os.path.exists(directory) and not os.path.isdir(directory):
        import warnings

        warnings.warn(
            f"store path {directory!r} exists but is not a directory; "
            "using the in-memory store",
            RuntimeWarning,
            stacklevel=2,
        )
        return GLOBAL_MEMORY_STORE
    directory = os.path.abspath(directory)
    with _DIRECTORY_LOCK:
        store = _DIRECTORY_STORES.get(directory)
        if store is None:
            store = ArtifactStore(directory=directory)
            _DIRECTORY_STORES[directory] = store
        return store
