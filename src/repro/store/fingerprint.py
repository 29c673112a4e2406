"""Stable content-addresses for pipeline artifacts.

Every stage of the pipeline (see :mod:`repro.store.stages`) identifies its
output by a **fingerprint**: a SHA-256 digest over a canonical JSON
rendering of everything the output depends on — the stage's configuration,
the fingerprints of its upstream artifacts, and a per-kind schema version.
Because the rendering is canonical (sorted keys, no whitespace, repr-exact
floats) and SHA-256 does not depend on ``PYTHONHASHSEED``, a fingerprint is
stable across processes, sessions and machines: the same inputs always
address the same artifact.

Schema versions exist so that *code* changes can invalidate stored
artifacts without any migration logic: bump the kind's entry in
:data:`SCHEMA_VERSIONS` and every previously stored artifact of that kind
simply stops matching.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Mapping

#: Per-artifact-kind schema versions.  Bump a kind when the semantics of
#: the stage that produces it (or the layout of the stored value) change in
#: a way that should invalidate previously stored artifacts.
SCHEMA_VERSIONS: dict[str, int] = {
    #: Mined content-file texts (list[str]).
    "mine": 1,
    #: A preprocessed :class:`repro.corpus.corpus.Corpus`.  v2: the compute
    #: now honors ``min_static_instructions`` (older stores may hold
    #: corpora filtered at the former hard-coded default under non-default
    #: keys — flush them).
    "corpus": 2,
    #: A trained-model checkpoint record (model ``to_dict`` + summary).
    "model": 1,
    #: A :class:`repro.synthesis.generator.SynthesisResult` kernel batch.
    #: v2: per-kernel independently-seeded sampling (``(sample_seed, index)``
    #: streams with a deterministic cross-stream dedup merge) replaced the
    #: single sequential RNG chain — every sampled kernel changed, so every
    #: v1 batch (and everything fingerprint-downstream of it) is invalid.
    "synthesis": 2,
    #: Benchmark-suite measurement sets (dict of suite -> measurements).
    #: v2: measurements pickle slim — the embedded compilation is dropped
    #: from the stored bytes and recompiled lazily (KernelMeasurement
    #: __getstate__), so v1 artifacts have a different layout.
    "suite-measurements": 2,
    #: Synthetic-kernel measurement lists.  v2: slim measurement pickling
    #: (see suite-measurements).
    "synthetic-measurements": 2,
    #: Per-file preprocessing outcomes (repro.preprocess.cache).  v2:
    #: FileOutcome vocabularies became sorted tuples (hash-seed-stable
    #: serialization for shared stores).
    "preprocess-file": 2,
    #: Per-repository-range mined texts (repro.store.shards).
    "mine-shard": 1,
    #: Per-repository-range preprocessing outcomes (list[FileOutcome]).
    "corpus-shard": 1,
    #: One sample fan-out shard: per-index kernel stream results.  v2: the
    #: sequential chain links (RNG state + dedup-set carry-over) became
    #: independently-seeded fan-out shards (lists of
    #: :class:`repro.synthesis.generator.KernelStreamResult`).
    "synthesis-shard": 2,
    #: Per-benchmark-range suite measurements.  v2: slim measurement
    #: pickling (see suite-measurements).
    "suite-measurements-shard": 2,
    #: Per-kernel-range synthetic measurements.  v2: slim measurement
    #: pickling (see suite-measurements).
    "synthetic-measurements-shard": 2,
    #: A published work-stealing pipeline plan (config + shard count) that
    #: ``repro worker`` instances discover and drain (repro.store.queue).
    "plan": 1,
}


def schema_version(kind: str) -> int:
    """The current schema version for *kind* (0 for unregistered kinds)."""
    return SCHEMA_VERSIONS.get(kind, 0)


def _canonical(value: Any) -> Any:
    """Normalize *value* into plain JSON types, rejecting anything unstable."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        # repr() round-trips doubles exactly; format through it so that the
        # JSON rendering cannot vary between json library versions.
        return {"~float": repr(value)}
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    if isinstance(value, Mapping):
        out = {}
        for key in value:
            if not isinstance(key, str):
                raise TypeError(f"fingerprint payload keys must be strings, got {key!r}")
            out[key] = _canonical(value[key])
        return out
    raise TypeError(f"unfingerprintable value of type {type(value).__name__}: {value!r}")


def fingerprint(kind: str, payload: Mapping[str, Any]) -> str:
    """The content-address of one artifact of *kind* with inputs *payload*.

    *payload* must consist of JSON-representable values (str/int/bool/float,
    lists/tuples, nested string-keyed mappings).  Upstream artifacts are
    referenced by including their fingerprint strings in the payload, which
    chains invalidation: any upstream change readdresses everything
    downstream of it.
    """
    document = {
        "kind": kind,
        "schema": schema_version(kind),
        "payload": _canonical(payload),
    }
    rendering = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(rendering.encode("utf-8")).hexdigest()


def text_digest(*texts: str) -> str:
    """A digest over raw texts (used to fingerprint code-defined inputs
    such as the benchmark-suite kernel sources)."""
    digest = hashlib.sha256()
    for text in texts:
        digest.update(len(text).to_bytes(8, "little"))
        digest.update(text.encode("utf-8", "replace"))
    return digest.hexdigest()
