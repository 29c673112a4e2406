"""The pipeline stage graph: mine → preprocess → train → sample → execute.

The paper's workflow is a linear pipeline, but until this module existed it
was only implicit in ad-hoc call chains (``experiments/common.py``,
``cli.py``, the bench harness) that re-ran everything end-to-end on every
invocation.  Here each stage is explicit:

=============  ==========================  ============================
stage          artifact kind               artifact value
=============  ==========================  ============================
``mine``       ``mine``                    mined content-file texts
``preprocess`` ``corpus``                  :class:`~repro.corpus.corpus.Corpus`
``train``      ``model``                   checkpoint record (``to_dict``)
``sample``     ``synthesis``               :class:`~repro.synthesis.generator.SynthesisResult`
``execute``    ``suite-measurements`` /    measurement sets
               ``synthetic-measurements``
=============  ==========================  ============================

Each stage declares a :func:`~repro.store.fingerprint.fingerprint` over its
configuration plus the fingerprints of its upstream artifacts, and persists
its output to the :class:`~repro.store.artifact_store.ArtifactStore`.  The
data-parallel stages (everything but ``train``) compute and merge through
their shard spec in :mod:`repro.store.shards`, sharded or not; the runner's
stage methods only delegate.
Re-running any entry point reuses every stage whose fingerprint still
matches and recomputes only downstream of a change; a downstream hit
short-circuits its entire upstream chain (a warm ``sample`` never re-mines
the corpus).

All stage computations are deterministic functions of their fingerprinted
inputs, so cached results are bit-identical to recomputation — the same
invariant the execution engines already guarantee.
"""

from __future__ import annotations

import pickle
import time
from dataclasses import asdict, dataclass, field, replace

from repro.corpus.corpus import Corpus
from repro.driver.harness import DriverConfig, HostDriver, KernelMeasurement
from repro.model.backend import TrainingSummary
from repro.model.checkpoint import model_from_dict, model_to_dict
from repro.model.lstm import LSTMConfig
from repro.model.trainer import ModelTrainer, TrainedModel, TrainerConfig
from repro.store.artifact_store import ArtifactStore, resolve_store
from repro.store.fingerprint import fingerprint, text_digest
from repro.store.shards import (
    _CORPUS,
    _MINE,
    _SAMPLE,
    _SUITE_EXEC,
    _SYNTH_EXEC,
    ShardPlan,
    normalized_plan,
    resolve_stage,
)
from repro.suites.registry import all_suites
from repro.synthesis.generator import CLgen, SynthesisResult
from repro.synthesis.sampler import SamplerConfig

#: Stage name -> benchmark-protocol phase name (ROADMAP "Performance").
STAGE_PHASES = {
    "mine": "preprocess",
    "preprocess": "preprocess",
    "train": "train",
    "sample": "sample",
    "execute": "execute",
}

#: Pipeline order, for reporting.
STAGE_ORDER = ("mine", "preprocess", "train", "sample", "execute")


@dataclass(frozen=True)
class PipelineConfig:
    """Everything the five stages depend on, in one fingerprintable record."""

    # mine
    repository_count: int = 100
    seed: int = 0
    # preprocess
    use_shim: bool = True
    rename_identifiers: bool = True
    min_static_instructions: int = 3
    # train
    backend: str = "ngram"
    ngram_order: int = 12
    shuffle_seed: int = 0
    #: LSTM hyper-parameters, used (and fingerprinted) only when
    #: ``backend == "lstm"`` — two LSTM trainings with different knobs must
    #: never share a ``model`` store entry.  ``None`` means the
    #: :class:`~repro.model.lstm.LSTMConfig` defaults.
    lstm: LSTMConfig | None = None
    # sample
    sampler_temperature: float = 0.6
    max_kernel_length: int = 2048
    seed_kernel_name: str = "A"
    synthetic_kernel_count: int = 100
    max_attempts_per_kernel: int = 40
    sample_seed: int = 0
    # execute
    executed_global_size: int = 128
    local_size: int = 32
    payload_seed: int = 0
    dataset_scales: tuple[float, ...] = (4.0, 16.0, 64.0, 256.0, 1024.0)
    suites: tuple[str, ...] | None = None

    @classmethod
    def from_experiment(cls, config, suites=None, count: int | None = None) -> "PipelineConfig":
        """Derive stage configuration from an ``ExperimentConfig``."""
        return cls(
            repository_count=config.corpus_repository_count,
            seed=config.seed,
            ngram_order=config.ngram_order,
            sampler_temperature=config.sampler_temperature,
            synthetic_kernel_count=(
                count if count is not None else config.synthetic_kernel_count
            ),
            sample_seed=config.seed,
            executed_global_size=config.executed_global_size,
            local_size=config.local_size,
            payload_seed=config.seed,
            suites=tuple(suites) if suites is not None else None,
        )

    def with_count(self, count: int) -> "PipelineConfig":
        return replace(self, synthetic_kernel_count=count)


# ---------------------------------------------------------------------------
# Stage fingerprints.  Each includes its upstream fingerprint, chaining
# invalidation all the way down the graph.
# ---------------------------------------------------------------------------


def mine_fingerprint(cfg: PipelineConfig) -> str:
    return fingerprint("mine", {"repository_count": cfg.repository_count, "seed": cfg.seed})


def corpus_fingerprint(cfg: PipelineConfig) -> str:
    return fingerprint(
        "corpus",
        {
            "mine": mine_fingerprint(cfg),
            "use_shim": cfg.use_shim,
            "rename_identifiers": cfg.rename_identifiers,
            "min_static_instructions": cfg.min_static_instructions,
        },
    )


def model_fingerprint(cfg: PipelineConfig) -> str:
    payload = {
        "corpus": corpus_fingerprint(cfg),
        "backend": cfg.backend,
        "ngram_order": cfg.ngram_order,
        "shuffle_seed": cfg.shuffle_seed,
    }
    if cfg.backend == "lstm":
        # Every LSTM hyper-parameter joins the payload (defaults made
        # explicit), so differently-configured trainings address different
        # checkpoints.  The n-gram payload is untouched: its fingerprints —
        # and every stored n-gram model — stay valid.
        payload["lstm"] = asdict(cfg.lstm if cfg.lstm is not None else LSTMConfig())
    return fingerprint("model", payload)


def synthesis_fingerprint(cfg: PipelineConfig) -> str:
    return fingerprint(
        "synthesis",
        {
            "model": model_fingerprint(cfg),
            "temperature": cfg.sampler_temperature,
            "max_kernel_length": cfg.max_kernel_length,
            "seed_kernel_name": cfg.seed_kernel_name,
            "count": cfg.synthetic_kernel_count,
            "sample_seed": cfg.sample_seed,
            "max_attempts_per_kernel": cfg.max_attempts_per_kernel,
            "min_static_instructions": cfg.min_static_instructions,
        },
    )


def _driver_payload(cfg: PipelineConfig) -> dict:
    # Engine choice is deliberately excluded: all engines produce
    # bit-identical measurements (the differential tests enforce this), so
    # artifacts are shareable across them.
    return {
        "executed_global_size": cfg.executed_global_size,
        "local_size": cfg.local_size,
        "payload_seed": cfg.payload_seed,
    }


def _selected_suites(cfg: PipelineConfig):
    return [
        suite
        for suite in all_suites()
        if cfg.suites is None or suite.name in cfg.suites
    ]


def suite_execution_fingerprint(cfg: PipelineConfig) -> str:
    # The suite kernels are code-defined, so fingerprint their sources too:
    # editing a benchmark invalidates its stored measurements without a
    # schema bump.
    suites = _selected_suites(cfg)
    texts: list[str] = []
    for suite in suites:
        for benchmark in suite.benchmarks:
            texts.append(benchmark.qualified_name)
            for dataset in benchmark.datasets:
                texts.append(f"{dataset.name}:{dataset.scale!r}")
            texts.append(benchmark.source)
    return fingerprint(
        "suite-measurements",
        {
            "driver": _driver_payload(cfg),
            "suites": [suite.name for suite in suites],
            "sources": text_digest(*texts),
        },
    )


def synthetic_execution_fingerprint(cfg: PipelineConfig) -> str:
    return fingerprint(
        "synthetic-measurements",
        {
            "synthesis": synthesis_fingerprint(cfg),
            "driver": _driver_payload(cfg),
            "dataset_scales": list(cfg.dataset_scales),
        },
    )


# ---------------------------------------------------------------------------
# The runner.
# ---------------------------------------------------------------------------


@dataclass
class StageEvent:
    """One stage resolution: served from the store (hit) or recomputed."""

    stage: str
    fingerprint: str
    hit: bool
    seconds: float


@dataclass
class SuiteMeasurementSet:
    """The execute stage's suite-side artifact."""

    suite_measurements: dict[str, list[KernelMeasurement]] = field(default_factory=dict)
    benchmark_measurements: dict[str, list[KernelMeasurement]] = field(default_factory=dict)


def detached(value):
    """A deep copy of *value* with no object sharing beyond its own graph.

    Measurements computed in one process share sub-objects through
    process-wide caches (e.g. every compilation embeds the same shim-prelude
    AST nodes), so the pickled bytes of a measurement *batch* would depend
    on which process computed which member.  Execute artifacts detach each
    benchmark/kernel island at creation instead, making the artifact's
    serialization independent of compute locality — the property that lets
    sharded, pooled and unsharded runs produce byte-identical store entries.
    """
    return pickle.loads(pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))


class PipelineRunner:
    """Resolves pipeline stages through the artifact store.

    One runner wraps one store (by default the process-wide memory store, or
    the directory named by ``REPRO_STORE_DIR`` / ``cache_dir``).  Every
    stage resolution is recorded as a :class:`StageEvent` with its
    wall-clock cost (exclusive of upstream stages): ``repro pipeline``
    prints them as its stage table, and :meth:`phase_seconds` sums them
    into the four benchmark phases that perfbench's ``pipeline`` workload
    reports.

    The data-parallel stages (mine, preprocess, sample, both execute sides)
    resolve through their shard spec (see :mod:`repro.store.shards`): one
    in-process range when unsharded, per-range shard artifacts plus the
    same merge with ``shards > 1``; ``workers > 1`` dispatches ready
    fan-out shards to a process pool.  With ``steal=True``
    (and an on-disk store) every stage resolution is claimed through the
    work-stealing queue (:mod:`repro.store.queue`) before computing, so any
    number of runners — this process and separate ``repro worker``
    processes — drain one plan together.  Sharded, pooled, stolen and
    unsharded runs produce bit-identical whole-pipeline artifacts under the
    same store keys.
    """

    #: Bound on live (deserialization-free) objects kept for in-process reuse.
    _LIVE_LIMIT = 16

    def __init__(
        self,
        store: ArtifactStore | None = None,
        cache_dir: str | None = None,
        shards: int = 1,
        workers: int = 0,
        steal: bool = False,
        plan: ShardPlan | None = None,
        lease_seconds: float | None = None,
        poll_seconds: float | None = None,
    ):
        self.store = store if store is not None else resolve_store(cache_dir)
        # workers without shards implies one shard per worker (an explicit
        # plan= is taken verbatim).
        self.plan = plan if plan is not None else normalized_plan(shards, workers, steal=steal)
        if self.plan.pooled and self.store.directory is None:
            # A memory-only store is invisible to pool workers: each would
            # recompute the whole upstream chain privately and ship it
            # back, making the pool slower than sequential resolution.
            # Warn once here rather than on every stage resolution.
            import warnings

            warnings.warn(
                "shard worker pool needs an on-disk store (cache_dir or "
                "REPRO_STORE_DIR); resolving shards in-process",
                RuntimeWarning,
                stacklevel=2,
            )
            self.plan = replace(self.plan, workers=0)
        if self.plan.steal and self.store.directory is None:
            # The claim queue is a directory protocol; without a shared
            # directory there is nobody to coordinate with anyway.
            import warnings

            warnings.warn(
                "work-stealing needs an on-disk store (cache_dir or "
                "REPRO_STORE_DIR); resolving stages directly",
                RuntimeWarning,
                stacklevel=2,
            )
            self.plan = replace(self.plan, steal=False)
        #: Claim lease/poll overrides for the work-stealing queue (None =
        #: the queue defaults / REPRO_QUEUE_LEASE).
        self._lease_seconds = lease_seconds
        self._poll_seconds = poll_seconds
        self._shard_queue = None
        self.events: list[StageEvent] = []
        #: Live objects (the trained model instance, with its sampling memos
        #: warm) keyed by fingerprint, so in-process reuse skips even the
        #: deserialization cost and downstream stages compute from the very
        #: object that produced the stored artifact.
        self._live: dict[tuple[str, str], object] = {}

    # ------------------------------------------------------------------
    # Event accounting.
    # ------------------------------------------------------------------

    def mark(self) -> int:
        """A position in the event log (see :meth:`phase_seconds`)."""
        return len(self.events)

    def stage_counts(self, since: int = 0) -> dict[str, dict[str, int]]:
        """``{stage: {"hit": n, "miss": m}}`` over events from *since*."""
        counts: dict[str, dict[str, int]] = {}
        for event in self.events[since:]:
            bucket = counts.setdefault(event.stage, {"hit": 0, "miss": 0})
            bucket["hit" if event.hit else "miss"] += 1
        return counts

    def phase_seconds(self, since: int = 0) -> dict[str, float]:
        """Per-benchmark-phase seconds over events from *since*.

        Sums each event's exclusive seconds.  With a shard worker pool
        (``workers > 1``) pool-computed shards report their worker's
        compute time, so a phase's sum is aggregate worker seconds — an
        upper bound on (not equal to) its wall-clock.
        """
        phases: dict[str, float] = {}
        for event in self.events[since:]:
            phase = STAGE_PHASES.get(event.stage, event.stage)
            phases[phase] = phases.get(phase, 0.0) + event.seconds
        return phases

    # ------------------------------------------------------------------
    # Stages.
    # ------------------------------------------------------------------

    def content_files(self, cfg: PipelineConfig) -> list[str]:
        """Stage ``mine``: the mined content-file texts."""
        return resolve_stage(self, cfg, _MINE)

    def corpus(self, cfg: PipelineConfig) -> Corpus:
        """Stage ``preprocess``: the normalized language corpus."""
        key = corpus_fingerprint(cfg)
        live = self._live.get(("corpus", key))
        if live is not None:
            # In-process repeat: skip even the store deserialization (the
            # corpus is treated as immutable by every consumer, exactly as
            # the pre-stage-graph code shared one Corpus object around).
            self.events.append(StageEvent("preprocess", key, True, 0.0))
            return live
        value = resolve_stage(self, cfg, _CORPUS)
        self._keep_live(("corpus", key), value)
        return value

    def trained_model(self, cfg: PipelineConfig) -> TrainedModel:
        """Stage ``train``: the trained language model (checkpoint artifact)."""
        key = model_fingerprint(cfg)
        cached = self._live.get(("trained", key))
        if cached is not None:
            # In-process repeat: reuse the live model (its sampling memos
            # stay warm) instead of re-deserializing the checkpoint.
            self.events.append(StageEvent("train", key, True, 0.0))
            return cached

        def compute() -> dict:
            corpus = self.corpus(cfg)
            trainer = ModelTrainer(
                TrainerConfig(
                    backend=cfg.backend,
                    ngram_order=cfg.ngram_order,
                    lstm=cfg.lstm,
                    shuffle_seed=cfg.shuffle_seed,
                )
            )
            trained = trainer.train(corpus)
            self._keep_live(("model", key), trained.model)
            return {
                "checkpoint": model_to_dict(trained.model),
                "losses": list(trained.summary.losses),
                "epochs": trained.summary.epochs,
                "parameters": trained.summary.parameters,
                "corpus_characters": trained.corpus_characters,
            }

        artifact = self._stage("train", "model", key, compute)
        model = self._live.get(("model", key))
        if model is None:
            model = model_from_dict(artifact["checkpoint"])
        summary = TrainingSummary(
            losses=list(artifact["losses"]),
            epochs=artifact["epochs"],
            parameters=artifact["parameters"],
        )
        trained = TrainedModel(
            model=model, summary=summary, corpus_characters=artifact["corpus_characters"]
        )
        self._live.pop(("model", key), None)
        self._keep_live(("trained", key), trained)
        return trained

    def clgen(self, cfg: PipelineConfig) -> CLgen:
        """A synthesizer assembled from the ``preprocess`` and ``train`` artifacts."""
        trained = self.trained_model(cfg)
        corpus = self.corpus(cfg)
        synthesizer = CLgen(
            model=trained.model,
            corpus=corpus,
            sampler_config=SamplerConfig(
                max_kernel_length=cfg.max_kernel_length,
                temperature=cfg.sampler_temperature,
                seed_kernel_name=cfg.seed_kernel_name,
            ),
            min_static_instructions=cfg.min_static_instructions,
        )
        # Tag the synthesizer with the model artifact it embeds, so callers
        # (experiments/common.py) can refuse an ad-hoc synthesizer whose
        # model is not this config's.
        synthesizer.stage_model_fingerprint = model_fingerprint(cfg)
        return synthesizer

    def synthesis(self, cfg: PipelineConfig) -> SynthesisResult:
        """Stage ``sample``: the synthetic kernel batch."""
        return resolve_stage(self, cfg, _SAMPLE)

    def suite_measurements(self, cfg: PipelineConfig) -> SuiteMeasurementSet:
        """Stage ``execute`` (suite side): measurements of every benchmark."""
        return resolve_stage(self, cfg, _SUITE_EXEC)

    def synthetic_measurements(self, cfg: PipelineConfig) -> list[KernelMeasurement]:
        """Stage ``execute`` (synthetic side): measurements of the kernel batch."""
        return resolve_stage(self, cfg, _SYNTH_EXEC)

    # ------------------------------------------------------------------
    # Internals.
    # ------------------------------------------------------------------

    def _make_driver(self, cfg: PipelineConfig) -> HostDriver:
        return HostDriver(
            config=DriverConfig(
                executed_global_size=cfg.executed_global_size,
                local_size=cfg.local_size,
                payload_seed=cfg.payload_seed,
            )
        )

    def _record_event(self, stage: str, key: str, hit: bool, seconds: float) -> None:
        """Append one resolution event (used by the shard layer, which logs
        probes and pool-worker results itself)."""
        self.events.append(StageEvent(stage, key, hit, seconds))

    def _keep_live(self, token: tuple[str, str], value: object) -> None:
        self._live[token] = value
        while len(self._live) > self._LIVE_LIMIT:
            self._live.pop(next(iter(self._live)))

    @property
    def stealing(self) -> bool:
        """True when stage resolution goes through the claim queue."""
        return self.plan.steal and self.store.directory is not None

    def queue(self):
        """The claim queue over this runner's store directory (steal mode)."""
        if self._shard_queue is None:
            from repro.store.queue import ShardQueue

            self._shard_queue = ShardQueue(
                self.store.directory,
                lease_seconds=self._lease_seconds,
                poll_seconds=self._poll_seconds,
            )
        return self._shard_queue

    def has_entry(self, kind: str, key: str) -> bool:
        """Whether the store already holds ``(kind, key)`` on disk — a
        cheap existence probe that records no event and decodes nothing."""
        path = self.store.entry_path(kind, key)
        return path is not None and path.exists()

    def _stage(self, stage: str, kind: str, key: str, compute, direct: bool = False):
        started = time.perf_counter()
        value = self.store.get(kind, key)
        if value is not None:
            self.events.append(
                StageEvent(stage, key, True, time.perf_counter() - started)
            )
            return value
        if self.stealing and not direct:
            return self._stage_stolen(stage, kind, key, compute, started)
        return self._compute_stage(stage, kind, key, compute, started)

    def _compute_stage(self, stage: str, kind: str, key: str, compute, started: float):
        mark = len(self.events)
        value = compute()
        self.store.put(kind, key, value)
        # Upstream stages resolved inside compute() logged their own events;
        # subtract them so each event carries exclusive wall-clock.  Clamped:
        # pool-computed shards report aggregate worker seconds, which can
        # exceed the enclosing merge's wall-clock.
        nested = sum(event.seconds for event in self.events[mark:])
        self.events.append(
            StageEvent(stage, key, False, max(0.0, time.perf_counter() - started - nested))
        )
        return value

    def _stage_stolen(self, stage: str, kind: str, key: str, compute, started: float):
        """Claim-or-await resolution (work-stealing mode).

        Exactly one concurrent runner wins the claim and computes — under a
        lease heartbeat, so a long compute is never mistaken for a dead
        worker — while everyone else polls the store until the artifact
        lands, recorded as a hit whose seconds are wait rather than work.
        A crashed winner's claim expires after its lease and the
        next poller steals it, charging the death against the task's retry
        budget; a winner whose compute *raises* records the failure and
        releases the claim, so the task is retried (here or elsewhere)
        until the budget runs out and it is quarantined — at which point
        every claimer and waiter raises
        :class:`~repro.errors.PlanFailed` instead of spinning.

        A simulated *crash* (:class:`~repro.store.faults.InjectedCrash`, a
        ``BaseException``) — like a real ``SIGKILL``, a ``KeyboardInterrupt``
        or the interpreter dying — deliberately leaves the claim held: the
        lease-expiry steal is the recovery path for deaths, and releasing
        on the way out would hide it from testing.
        """
        from repro.errors import PlanFailed
        from repro.store.faults import fault_point

        queue = self.queue()
        while True:
            queue.raise_if_failed(key)
            if queue.try_claim(key):
                fault_point("crash_after_claim", kind=kind)
                try:
                    with queue.heartbeat(key):
                        value = self._compute_stage(stage, kind, key, compute, started)
                except PlanFailed:
                    # An upstream task (resolved inside compute) was
                    # quarantined: this stage did not fail, it can never
                    # run.  Pass the verdict through unconsumed.
                    queue.release(key)
                    raise
                except Exception as error:
                    quarantined = queue.record_failure(key, error)
                    queue.release(key)
                    if quarantined:
                        raise PlanFailed(key, queue.failure(key)) from error
                    continue  # budget remains: retry (or let another worker)
                queue.complete(key)
                return value
            time.sleep(queue.poll_seconds)
            value = self.store.get(kind, key)
            if value is not None:
                self.events.append(
                    StageEvent(stage, key, True, time.perf_counter() - started)
                )
                return value


_DEFAULT_RUNNER: PipelineRunner | None = None


def default_runner() -> PipelineRunner:
    """The process-wide unsharded runner over the env-configured (or
    memory) store."""
    global _DEFAULT_RUNNER
    store = resolve_store(None)
    if _DEFAULT_RUNNER is None or _DEFAULT_RUNNER.store is not store:
        _DEFAULT_RUNNER = PipelineRunner(store=store)
    return _DEFAULT_RUNNER
