"""``repro.store`` — the content-addressed artifact store and stage graph.

See ARCHITECTURE.md for the full design: artifact kinds, fingerprint rules
and cache environment variables.
"""

from repro.store.artifact_store import (
    ArtifactStore,
    GCResult,
    GLOBAL_MEMORY_STORE,
    StoreStats,
    default_io_retries,
    default_store_directory,
    default_store_max_bytes,
    resolve_store,
    retry_io,
)
from repro.store.faults import CRASH_EXIT_CODE, fault_point
from repro.store.fingerprint import SCHEMA_VERSIONS, fingerprint, schema_version, text_digest
from repro.store.queue import (
    ShardQueue,
    default_max_attempts,
    drain_plan,
    load_plans,
    plan_fingerprint,
    publish_plan,
    queue_status,
)
from repro.store.shards import ShardPlan, shard_ranges

#: Stage-graph symbols, loaded lazily (PEP 562): the per-file preprocess
#: cache imports this package from inside the corpus layer, and the stage
#: graph imports the corpus layer — eager re-export here would be circular.
_STAGE_EXPORTS = {
    "PipelineConfig",
    "PipelineRunner",
    "STAGE_ORDER",
    "STAGE_PHASES",
    "StageEvent",
    "SuiteMeasurementSet",
    "corpus_fingerprint",
    "default_runner",
    "mine_fingerprint",
    "model_fingerprint",
    "suite_execution_fingerprint",
    "synthesis_fingerprint",
    "synthetic_execution_fingerprint",
}


def __getattr__(name: str):
    if name in _STAGE_EXPORTS:
        from repro.store import stages

        return getattr(stages, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "ArtifactStore",
    "CRASH_EXIT_CODE",
    "GCResult",
    "GLOBAL_MEMORY_STORE",
    "StoreStats",
    "PipelineConfig",
    "PipelineRunner",
    "SCHEMA_VERSIONS",
    "STAGE_ORDER",
    "STAGE_PHASES",
    "ShardPlan",
    "ShardQueue",
    "StageEvent",
    "SuiteMeasurementSet",
    "corpus_fingerprint",
    "default_io_retries",
    "default_max_attempts",
    "default_runner",
    "default_store_directory",
    "default_store_max_bytes",
    "drain_plan",
    "fault_point",
    "fingerprint",
    "load_plans",
    "mine_fingerprint",
    "model_fingerprint",
    "plan_fingerprint",
    "publish_plan",
    "queue_status",
    "resolve_store",
    "retry_io",
    "schema_version",
    "shard_ranges",
    "suite_execution_fingerprint",
    "synthesis_fingerprint",
    "synthetic_execution_fingerprint",
    "text_digest",
]
