"""Content-addressable caching of per-file preprocessing outcomes.

Rejection filtering and rewriting are pure functions of ``(content file,
pipeline configuration)``, and corpus builds repeat the same content files
constantly, so outcomes are keyed by a content hash — the original of the
design that :mod:`repro.store` generalizes to whole pipeline stages (see
ARCHITECTURE.md).

Two layers:

* an in-process bounded LRU of live outcome records, always on, and
* an optional on-disk layer delegated to the generic
  :class:`repro.store.artifact_store.ArtifactStore` (artifact kind
  ``preprocess-file``), enabled by passing ``directory=`` or setting
  ``REPRO_STORE_DIR`` (one store root serves both per-file outcomes and
  stage artifacts).

Disk entries embed a schema version; unreadable or stale entries are
silently recomputed.
"""

from __future__ import annotations

import hashlib
import os
import threading
from collections import OrderedDict
from pathlib import Path

from repro.store.artifact_store import ArtifactStore, default_store_directory
from repro.store.fingerprint import schema_version

#: Artifact kind under which outcomes live in the store.  The single
#: invalidation knob is ``SCHEMA_VERSIONS["preprocess-file"]`` in
#: :mod:`repro.store.fingerprint`: it is baked into every outcome key (so
#: stale entries stop being addressed) *and* validated inside each stored
#: entry by the store — bump it there when the record layout or the
#: pipeline semantics change.
ARTIFACT_KIND = "preprocess-file"


def outcome_key(
    text: str,
    use_shim: bool,
    rename_identifiers: bool,
    min_static_instructions: int,
) -> str:
    """Content-address of one (file, configuration) preprocessing outcome."""
    tag = (
        f"v{schema_version(ARTIFACT_KIND)}|shim={int(use_shim)}"
        f"|rename={int(rename_identifiers)}|min={min_static_instructions}|"
    )
    digest = hashlib.sha1()
    digest.update(tag.encode("ascii"))
    digest.update(text.encode("utf-8", "replace"))
    return digest.hexdigest()


class PreprocessCache:
    """Bounded in-memory LRU with an optional on-disk artifact-store mirror.

    Unlike the stage-level store, the memory layer here holds *live* records
    rather than serialized bytes: outcomes are treated as immutable by every
    consumer and the per-file path is hot enough that a deserialization per
    hit would show up in corpus builds.
    """

    def __init__(self, directory: str | None = None, memory_entries: int = 8192):
        self._memory: OrderedDict[str, object] = OrderedDict()
        self._memory_entries = memory_entries
        self._lock = threading.Lock()
        self._store = ArtifactStore(directory=directory, memory_entries=0) if directory else None
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------

    @property
    def directory(self) -> Path | None:
        return self._store.directory if self._store is not None else None

    def entry_path(self, key: str) -> Path | None:
        """Where the on-disk entry for *key* lives, if a directory is set."""
        if self._store is None:
            return None
        return self._store.entry_path(ARTIFACT_KIND, key)

    def get(self, key: str):
        """The cached record for *key*, or ``None``."""
        with self._lock:
            if key in self._memory:
                self._memory.move_to_end(key)
                self.hits += 1
                return self._memory[key]
        record = self._store.get(ARTIFACT_KIND, key) if self._store is not None else None
        if record is not None:
            with self._lock:
                self.hits += 1
                self._remember(key, record)
            return record
        with self._lock:
            self.misses += 1
        return None

    def put(self, key: str, record) -> None:
        with self._lock:
            self._remember(key, record)
        if self._store is not None:
            self._store.put(ARTIFACT_KIND, key, record)

    def _remember(self, key: str, record) -> None:
        self._memory[key] = record
        self._memory.move_to_end(key)
        while len(self._memory) > self._memory_entries:
            self._memory.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._memory.clear()
            self.hits = 0
            self.misses = 0


#: Process-wide in-memory cache shared by every pipeline instance.  The
#: on-disk layer is attached per-pipeline (directory may differ per caller).
GLOBAL_PREPROCESS_CACHE = PreprocessCache(directory=None)

_DIRECTORY_CACHES: dict[str, PreprocessCache] = {}
_DIRECTORY_LOCK = threading.Lock()


def resolve_cache(directory: str | None = None) -> PreprocessCache:
    """The cache instance for *directory* (or ``REPRO_STORE_DIR``).

    Without a directory this is the shared in-memory cache; with one, a
    per-directory singleton so the in-memory layer is still shared between
    pipelines pointing at the same store.
    """
    directory = directory or default_store_directory()
    if directory is None:
        return GLOBAL_PREPROCESS_CACHE
    directory = os.path.abspath(directory)
    with _DIRECTORY_LOCK:
        cache = _DIRECTORY_CACHES.get(directory)
        if cache is None:
            cache = PreprocessCache(directory=directory)
            _DIRECTORY_CACHES[directory] = cache
        return cache
