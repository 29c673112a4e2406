"""The data-parallel stages: per-range computes plus deterministic merges.

The stage graph (:mod:`repro.store.stages`) resolves whole-pipeline
artifacts — the full mined corpus, the complete kernel batch, every
measurement.  Each data-parallel stage is one :class:`_FanoutSpec` here,
the stage's only computation: a compute over an index range and a merge of
range values, resolved by :func:`resolve_stage`.  An unsharded run is the
merge of one range ``[0, total)`` computed in-process, with no shard entry
stored.  A sharded run splits the stage into **shards** so several workers
(process-pool workers here, or whole machines pointing at one
``REPRO_STORE_DIR``) can fill one store concurrently:

=============  =========================  ==================================
stage          shard axis                 shard artifact kind
=============  =========================  ==================================
``mine``       repository range           ``mine-shard``
``preprocess`` repository range           ``corpus-shard`` (file outcomes)
``sample``     kernel-stream range        ``synthesis-shard``
``execute``    benchmark / kernel range   ``suite-measurements-shard`` /
                                          ``synthetic-measurements-shard``
=============  =========================  ==================================

Each shard has its own fingerprint — the parent (whole-artifact)
fingerprint plus the shard index and extent — and a **merge** combines the
shard artifacts into the existing whole-pipeline artifact *bit-identically*
to an unsharded run, stored under the unsharded fingerprint.  A warm repeat
therefore serves the merged artifact directly; a partially warm store
serves the shards it has and recomputes only the missing ones.

Every shardable stage — including ``sample`` since the synthesis layer
moved to per-kernel independently-seeded streams
(:func:`repro.synthesis.sampler.stream_rng`) — is a **fan-out**: each shard
is a pure function of the pipeline configuration and its range, so ready
shards are dispatched to a process pool (``ShardPlan.workers``).  Results
are bit-identical to sequential resolution because each shard is
deterministic in isolation; the sample merge restores batch-level kernel
uniqueness with a deterministic cross-shard dedup
(:func:`repro.synthesis.generator.merge_stream_results`).

Concurrency model: the artifact store already tolerates concurrent writers
(atomic ``os.replace`` per entry), so shard workers never coordinate — they
race benignly, and whoever finishes a key last leaves the same bytes as
whoever finished first.  The merge is pure recombination (no RNG, no
wall-clock), so it is deterministic under any shard completion order.

On top of the benign races sits an opt-in **work-stealing scheduler**
(``ShardPlan.steal``, :mod:`repro.store.queue`): instead of each worker
computing a statically assigned range, pending shard keys are claimed by
atomic create in a claim directory beside the store, with lease timestamps
so a crashed worker's claim expires and is re-stealable.  Its width comes
from ``repro worker`` processes sharing the store, not from a pool: any
number of them drain one plan, and the merge fires in whichever worker
claims it once the last shard lands.  Stolen, pooled and unsharded runs
all leave byte-identical store entries.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

#: Artifact kinds introduced by sharding (registered in
#: :data:`repro.store.fingerprint.SCHEMA_VERSIONS`).
SHARD_KINDS = (
    "mine-shard",
    "corpus-shard",
    "synthesis-shard",
    "suite-measurements-shard",
    "synthetic-measurements-shard",
)


@dataclass(frozen=True)
class ShardPlan:
    """How a :class:`~repro.store.stages.PipelineRunner` splits stage work.

    ``shards`` is the number of ranges each shardable stage is split into;
    with 1, each stage computes its one range in-process and stores no
    shard entry.  ``workers`` is the
    process-pool width for dispatching ready fan-out shards; 0 or 1 resolves
    shards in-process (still sharded, still incremental — just sequential).
    ``steal`` switches from static range assignment to the work-stealing
    claim queue (:mod:`repro.store.queue`): every stage resolution is
    claimed by atomic create before computing, so concurrent runners —
    this process and ``repro worker`` processes sharing the store — drain
    one plan without duplicating work or idling behind a straggler's
    static range.  Steal mode has no pool of its own, so it refuses
    ``workers > 1``.
    """

    shards: int = 1
    workers: int = 0
    steal: bool = False

    def __post_init__(self):
        if self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards}")
        if self.workers < 0:
            raise ValueError(f"workers must be >= 0, got {self.workers}")
        if self.steal and self.workers > 1:
            raise ValueError(
                f"steal mode takes no process pool (workers={self.workers}); "
                "add width by running more `repro worker --store DIR` processes"
            )

    @property
    def sharded(self) -> bool:
        return self.shards > 1

    @property
    def pooled(self) -> bool:
        """True when shard work can actually reach the worker pool
        (``workers`` alone is not enough: with a single shard the pool is
        never created)."""
        return self.sharded and self.workers > 1


def normalized_plan(shards: int, workers: int, steal: bool = False) -> ShardPlan:
    """A :class:`ShardPlan` from loose knobs.

    Asking for workers without shards means "parallelize this": it implies
    one shard per worker, so ``--workers 8`` alone is not a silent no-op.
    """
    shards = max(shards, 1)
    workers = max(workers, 0)
    if shards == 1 and workers > 1:
        shards = workers
    return ShardPlan(shards=shards, workers=workers, steal=steal)


def resolve_plan(
    shards: int | None, workers: int | None, steal: bool = False
) -> ShardPlan:
    """The plan named by ``--shards`` / ``--workers`` / ``--steal``
    (``None`` = flag not given).

    The workers-imply-shards expansion fires only when no shard count was
    given — asking for 1 shard means 1 shard.  Raises :class:`ValueError`
    for a combination :class:`ShardPlan` refuses.
    """
    import warnings

    workers = workers or 0
    if (shards is not None and shards < 1) or workers < 0:
        # A typo'd sign must not silently sequentialize the run.
        warnings.warn(
            f"clamping shards={shards}/workers={workers} to the valid range",
            RuntimeWarning,
            stacklevel=2,
        )
    if shards is None:
        return normalized_plan(1, workers, steal=steal)
    plan = ShardPlan(shards=max(shards, 1), workers=max(workers, 0), steal=steal)
    if plan.workers > 1 and not plan.pooled:
        warnings.warn(
            f"workers={plan.workers} has no effect with a single shard; "
            "raise the shard count (or drop it to let workers imply one)",
            RuntimeWarning,
            stacklevel=2,
        )
    return plan


def shard_ranges(total: int, shards: int) -> list[tuple[int, int]]:
    """Split ``range(total)`` into at most *shards* contiguous, non-empty,
    disjoint ranges covering it in order.

    Deterministic: the first ``total % shards`` ranges are one longer.
    Fewer than *shards* ranges come back when *total* is smaller.
    """
    if total <= 0:
        return []
    shards = max(1, min(shards, total))
    base, extra = divmod(total, shards)
    ranges: list[tuple[int, int]] = []
    start = 0
    for index in range(shards):
        stop = start + base + (1 if index < extra else 0)
        ranges.append((start, stop))
        start = stop
    return ranges


# ---------------------------------------------------------------------------
# Shard fingerprints: parent fingerprint + shard index/extent.
# ---------------------------------------------------------------------------


def _shard_fingerprint(kind: str, parent: str, index: int, shards: int,
                       start: int, stop: int) -> str:
    from repro.store.fingerprint import fingerprint

    return fingerprint(
        kind,
        {"parent": parent, "index": index, "shards": shards,
         "start": start, "stop": stop},
    )


# ---------------------------------------------------------------------------
# Fan-out shard specs.  Each is the only computation of its stage: it knows
# its total extent, per-shard key, per-range compute and merge; resolution
# goes through runner._stage so events, store probing and warm accounting
# are identical to whole stages.
# ---------------------------------------------------------------------------


class _FanoutSpec:
    """One data-parallel stage (mine / preprocess / sample / execute sides).

    An unsharded run is the merge of one in-process range ``[0, total)``;
    a sharded run merges the per-range shard artifacts (see
    :func:`resolve_stage`).
    """

    name: str  # registry key, also used to route pool workers
    stage: str  # StageEvent stage name (phase accounting)
    kind: str  # shard artifact kind
    whole_kind: str  # whole-pipeline artifact kind

    def total(self, cfg) -> int:
        raise NotImplementedError

    def parent_fingerprint(self, cfg) -> str:
        raise NotImplementedError

    def key(self, cfg, index: int, shards: int) -> str:
        return self.keys(cfg, shards)[index]

    def keys(self, cfg, shards: int) -> list[str]:
        """All shard keys of this stage, computing the parent fingerprint
        and the ranges once (probing every shard re-uses one digest pass)."""
        parent = self.parent_fingerprint(cfg)
        return [
            _shard_fingerprint(self.kind, parent, index, shards, start, stop)
            for index, (start, stop) in enumerate(shard_ranges(self.total(cfg), shards))
        ]

    def compute(self, runner, cfg, index: int, shards: int):
        raise NotImplementedError

    def merge(self, runner, cfg, values: list):
        """The whole-pipeline artifact from every range's value, in order."""
        return [item for value in values for item in value]

    def prepare(self, runner, cfg) -> None:
        """Resolve upstream inputs in the parent before a fan-out, so pool
        workers (whose shard computes re-resolve them) hit the shared store
        instead of each recomputing them privately."""

    def resolve(
        self,
        runner,
        cfg,
        index: int,
        shards: int,
        key: str | None = None,
        direct: bool = False,
    ):
        from repro.store.faults import shard_compute_faults

        def compute():
            # The canonical mid-shard injection points (die / poison /
            # stall) fire after the claim but before any real work — the
            # window a real worker failure actually occupies.
            shard_compute_faults(self.kind, index)
            return self.compute(runner, cfg, index, shards)

        # direct=True skips the runner's claim-or-await wrapper: the
        # steal-mode drain loop claims shard keys itself before resolving.
        return runner._stage(
            self.stage,
            self.kind,
            key if key is not None else self.key(cfg, index, shards),
            compute,
            direct=direct,
        )

    def _range(self, cfg, index: int, shards: int) -> tuple[int, int]:
        return shard_ranges(self.total(cfg), shards)[index]


class _MineSpec(_FanoutSpec):
    name = "mine"
    stage = "mine"
    kind = "mine-shard"
    whole_kind = "mine"

    def total(self, cfg) -> int:
        return cfg.repository_count

    def parent_fingerprint(self, cfg) -> str:
        from repro.store import stages

        return stages.mine_fingerprint(cfg)

    def compute(self, runner, cfg, index: int, shards: int) -> list[str]:
        from repro.corpus.github import GitHubMiner

        start, stop = self._range(cfg, index, shards)
        mining = GitHubMiner(seed=cfg.seed).mine(stop, start=start)
        return [content_file.text for content_file in mining.content_files]


class _CorpusSpec(_FanoutSpec):
    """Per-repository-range preprocessing: the shard artifact is the list of
    per-file outcomes (the preprocessing pipeline's unit of work), so the
    merge folds statistics exactly as one whole preprocessing run does."""

    name = "corpus"
    stage = "preprocess"
    kind = "corpus-shard"
    whole_kind = "corpus"

    def total(self, cfg) -> int:
        return cfg.repository_count

    def parent_fingerprint(self, cfg) -> str:
        from repro.store import stages

        return stages.corpus_fingerprint(cfg)

    def compute(self, runner, cfg, index: int, shards: int):
        from repro.preprocess.pipeline import PreprocessingPipeline
        from repro.store.stages import detached

        # One range reads the whole mine artifact, so an unsharded run
        # stores no mine-shard entry.
        if shards == 1:
            texts = runner.content_files(cfg)
        else:
            texts = _MINE.resolve(runner, cfg, index, shards)
        pipeline = PreprocessingPipeline(
            use_shim=cfg.use_shim,
            rename_identifiers=cfg.rename_identifiers,
            min_static_instructions=cfg.min_static_instructions,
        )
        # Detached per outcome: a cold run shares one FileOutcome between
        # duplicate (forked) files while per-file-cache hits yield distinct
        # objects — detaching makes the shard's bytes independent of cache
        # state, like the execute/sample shard artifacts.
        return [detached(outcome) for outcome in pipeline.outcomes(texts)]

    def merge(self, runner, cfg, values: list):
        """Fold the concatenated per-file outcomes, then deduplicate — the
        corpus one preprocessing run over every mined text builds."""
        from repro.corpus.corpus import Corpus
        from repro.preprocess.pipeline import fold_outcomes

        result = fold_outcomes(super().merge(runner, cfg, values))
        # No raw mined texts: the mine artifact already holds them (no
        # downstream stage reads Corpus.content_files).
        return Corpus(
            kernels=Corpus._deduplicate(result.corpus_texts),
            statistics=result.statistics,
        )


class _SuiteExecutionSpec(_FanoutSpec):
    name = "suite-exec"
    stage = "execute"
    kind = "suite-measurements-shard"
    whole_kind = "suite-measurements"

    def total(self, cfg) -> int:
        return len(self._flat_benchmarks(cfg))

    def parent_fingerprint(self, cfg) -> str:
        from repro.store import stages

        return stages.suite_execution_fingerprint(cfg)

    @staticmethod
    def _flat_benchmarks(cfg):
        from repro.store.stages import _selected_suites

        return [
            (suite.name, benchmark)
            for suite in _selected_suites(cfg)
            for benchmark in suite.benchmarks
        ]

    def compute(self, runner, cfg, index: int, shards: int):
        from repro.store.stages import detached

        start, stop = self._range(cfg, index, shards)
        driver = runner._make_driver(cfg)
        return [
            (suite_name, benchmark.qualified_name, detached(driver.measure_benchmark(benchmark)))
            for suite_name, benchmark in self._flat_benchmarks(cfg)[start:stop]
        ]

    def merge(self, runner, cfg, values: list):
        from repro.store.stages import SuiteMeasurementSet, _selected_suites

        by_benchmark = {
            name: measurements for value in values for _, name, measurements in value
        }
        out = SuiteMeasurementSet()
        # Rebuild in suite/benchmark declaration order so dict insertion
        # orders never depend on the shard split (bit-identity).
        for suite in _selected_suites(cfg):
            suite_measurements = []
            for benchmark in suite.benchmarks:
                measurements = by_benchmark.get(benchmark.qualified_name, [])
                if measurements:
                    out.benchmark_measurements[benchmark.qualified_name] = measurements
                    suite_measurements.extend(measurements)
            out.suite_measurements[suite.name] = suite_measurements
        return out


class _SyntheticExecutionSpec(_FanoutSpec):
    name = "synth-exec"
    stage = "execute"
    kind = "synthetic-measurements-shard"
    whole_kind = "synthetic-measurements"

    def total(self, cfg) -> int:
        return _SAMPLE.total(cfg)

    def parent_fingerprint(self, cfg) -> str:
        from repro.store import stages

        return stages.synthetic_execution_fingerprint(cfg)

    def compute(self, runner, cfg, index: int, shards: int):
        from repro.store.stages import detached

        # Ranges are over the *generated* kernel list (which may fall short
        # of the requested count on sampler exhaustion); a shard past the
        # end measures nothing.  Names and dataset scales follow the global
        # kernel index.
        synthesis = runner.synthesis(cfg)
        ranges = shard_ranges(len(synthesis.kernels), shards)
        if index >= len(ranges):
            return []
        indices = range(*ranges[index])
        scales = cfg.dataset_scales
        measured = runner._make_driver(cfg).measure_many(
            [synthesis.kernels[i].source for i in indices],
            names=[f"clgen.{i}" for i in indices],
            dataset_scales=[scales[i % len(scales)] for i in indices],
        )
        return [detached(measurement) for measurement in measured]

    def prepare(self, runner, cfg) -> None:
        runner.synthesis(cfg)


class _SampleSpec(_FanoutSpec):
    """Per-kernel-stream-range synthesis shards.

    Since the synthesis layer moved to independently-seeded
    ``(sample_seed, index)`` streams, a sample shard is a pure function of
    the configuration and its index range — exactly like an execute shard —
    and the old sequential chain (RNG state + dedup set threaded link to
    link) is gone.  The shard artifact is the list of per-stream
    :class:`~repro.synthesis.generator.KernelStreamResult` entries; the
    merge restores batch-level uniqueness deterministically.
    """

    name = "sample"
    stage = "sample"
    kind = "synthesis-shard"
    whole_kind = "synthesis"

    def total(self, cfg) -> int:
        from repro.errors import SynthesisError

        # Every path reads the extent before any work, so a config error
        # never caches an empty artifact.
        if cfg.synthetic_kernel_count <= 0:
            raise SynthesisError("kernel count must be positive")
        return cfg.synthetic_kernel_count

    def parent_fingerprint(self, cfg) -> str:
        from repro.store import stages

        return stages.synthesis_fingerprint(cfg)

    def compute(self, runner, cfg, index: int, shards: int):
        from repro.store.stages import detached

        start, stop = self._range(cfg, index, shards)
        synthesizer = runner.clgen(cfg)
        entries = synthesizer.generate_kernel_range(
            start,
            stop,
            seed=cfg.sample_seed,
            max_attempts_per_kernel=cfg.max_attempts_per_kernel,
        )
        # Detached per stream entry so the shard's bytes are independent of
        # in-process object sharing, like every other shard artifact.
        return [detached(entry) for entry in entries]

    def merge(self, runner, cfg, values: list):
        from repro.synthesis.generator import merge_stream_results

        return merge_stream_results(
            super().merge(runner, cfg, values), requested=cfg.synthetic_kernel_count
        )

    def prepare(self, runner, cfg) -> None:
        runner.clgen(cfg)


_MINE = _MineSpec()
_CORPUS = _CorpusSpec()
_SAMPLE = _SampleSpec()
_SUITE_EXEC = _SuiteExecutionSpec()
_SYNTH_EXEC = _SyntheticExecutionSpec()

_SPECS = {
    spec.name: spec for spec in (_MINE, _CORPUS, _SAMPLE, _SUITE_EXEC, _SYNTH_EXEC)
}


def resolve_stage(runner, cfg, spec: _FanoutSpec):
    """Serve *spec*'s whole-pipeline artifact, or compute and merge it.

    The artifact is stored under the **unsharded** fingerprint, so every
    plan addresses (and shares) the same whole-pipeline entries, and a
    warm repeat serves it without touching shards.  Resolution (probe,
    events, exclusive-seconds accounting) is the ordinary stage machinery.

    An unsharded plan merges one range ``[0, total)`` computed in-process
    and stores no shard entry.  A sharded plan resolves every shard — in
    process, through the worker pool, or through the steal drain — and
    merges them.  In steal mode the shard drain runs **before** the merge
    claim is contested: every worker helps drain the shard queue, and only
    then does exactly one of them claim the (cheap, pure-recombination)
    merge while the rest await its store entry.  Without the pre-drain, the
    merge claim's single winner would resolve every shard alone while the
    other workers idled — the exact straggler pattern this scheduler
    replaces.
    """
    from repro.store.faults import fault_point

    key = spec.parent_fingerprint(cfg)
    if not runner.plan.sharded:
        return runner._stage(
            spec.stage,
            spec.whole_kind,
            key,
            lambda: spec.merge(runner, cfg, [spec.compute(runner, cfg, 0, 1)]),
        )

    def fan_out() -> list:
        keys = spec.keys(cfg, runner.plan.shards)  # reads the extent before any work
        spec.prepare(runner, cfg)
        return _resolve_fanout(runner, cfg, spec, keys)

    if runner.stealing and not runner.has_entry(spec.whole_kind, key):
        fan_out()

    def merge():
        value = spec.merge(runner, cfg, fan_out())
        # The narrowest crash window in the protocol: every shard landed,
        # the merge is computed, and its put has not happened yet.  A death
        # here must leave a steal-back winner that re-runs the merge to a
        # byte-identical whole-pipeline entry.
        fault_point("crash_pre_merge", kind=spec.whole_kind)
        return value

    return runner._stage(spec.stage, spec.whole_kind, key, merge)


# ---------------------------------------------------------------------------
# Fan-out resolution: in-process, the process pool, or the steal drain.
# ---------------------------------------------------------------------------


def _shard_worker(task):
    """Process-pool entry point: resolve one fan-out shard on a fresh runner.

    The worker's runner points at the same on-disk store (when one is
    configured), so its artifact lands there directly; the value and the
    worker's stage events ride back so the parent can warm its own memory
    layer and keep honest hit/miss accounting.
    """
    cache_dir, cfg, spec_name, index, shards = task
    from repro.store.artifact_store import resolve_store
    from repro.store.stages import PipelineRunner

    # resolve_store, not a fresh ArtifactStore: a pool worker handling
    # several shard tasks then shares one memory layer across them (e.g.
    # the merged kernel batch deserializes once per worker, not per task).
    runner = PipelineRunner(store=resolve_store(cache_dir), shards=shards, workers=0)
    value = _SPECS[spec_name].resolve(runner, cfg, index, shards)
    return index, value, runner.events


def _resolve_fanout(runner, cfg, spec: _FanoutSpec, keys: list[str]) -> list:
    """All shard values of *spec* (shard *keys* at the plan's shard count),
    in shard order.

    Warm shards are served (and logged as hits) from the parent's store;
    the remaining cold shards are computed — through a process pool when the
    plan asks for one and more than one shard is pending, in-process
    otherwise.  Pool failures (unpicklable values, no multiprocessing
    support) degrade to in-process computation with a warning.

    In steal mode the static split of pending work is replaced by the claim
    queue: see :func:`_drain_fanout`.
    """
    if runner.stealing:
        return _drain_fanout(runner, cfg, spec, keys)
    shards = runner.plan.shards
    values: list = [None] * len(keys)
    pending: list[int] = []
    for index, key in enumerate(keys):
        started = time.perf_counter()
        value = runner.store.get(spec.kind, key)
        if value is not None:
            runner._record_event(spec.stage, key, True, time.perf_counter() - started)
            values[index] = value
        else:
            pending.append(index)

    if len(pending) > 1 and runner.plan.pooled:
        # (A memory-only store never reaches here: PipelineRunner
        # construction degrades such plans to workers=0 with one warning.)
        import warnings

        try:
            _resolve_fanout_pool(runner, cfg, spec, pending, values)
        except _PoolUnavailable as error:
            # Only genuine pool-machinery failures (worker crashes,
            # unpicklable payloads, no multiprocessing support) degrade
            # to in-process resolution; a deterministic error raised
            # *inside* a shard's compute propagates as-is — recomputing
            # it would just repeat the work and the exception.
            warnings.warn(
                f"shard worker pool unavailable ({error}); resolving shards in-process",
                RuntimeWarning,
                stacklevel=2,
            )
        # Outside the try: shards that landed before a mid-batch pool
        # failure are kept, so the in-process fallback only computes
        # what is actually still missing.
        pending = [index for index in pending if values[index] is None]
    for index in pending:
        values[index] = spec.resolve(runner, cfg, index, shards, key=keys[index])
    return values


class _PoolUnavailable(RuntimeError):
    """The shard worker pool itself failed (not a shard's computation)."""


def _resolve_fanout_pool(runner, cfg, spec, pending: list[int], values: list) -> None:
    """Fan *pending* shard indices out over a process pool.

    Only called for disk-backed stores (the caller refuses otherwise), so
    every worker persists its shard into the shared directory itself; the
    value rides back purely for the parent's merge.

    Failure classification matters here: pool-machinery problems (no
    multiprocessing support, unpicklable payloads, a hard worker crash)
    raise :class:`_PoolUnavailable` so the caller can degrade to in-process
    resolution, while a deterministic exception raised *inside* a shard's
    compute propagates unchanged — re-running it locally would only repeat
    the work and then the same error.
    """
    import pickle as pickle_mod
    from concurrent.futures import BrokenExecutor, ProcessPoolExecutor, as_completed

    cache_dir = str(runner.store.directory)
    try:
        pool = ProcessPoolExecutor(max_workers=min(runner.plan.workers, len(pending)))
    except (ImportError, OSError, ValueError) as error:
        raise _PoolUnavailable(f"cannot start pool: {error!r}") from error
    with pool:
        try:
            futures = {
                pool.submit(
                    _shard_worker, (cache_dir, cfg, spec.name, index, runner.plan.shards)
                ): index
                for index in pending
            }
        except (pickle_mod.PicklingError, AttributeError, TypeError) as error:
            raise _PoolUnavailable(f"cannot ship shard task: {error!r}") from error
        for future in as_completed(futures):
            try:
                index, value, events = future.result()
            except (BrokenExecutor, pickle_mod.PicklingError) as error:
                raise _PoolUnavailable(f"worker failed: {error!r}") from error
            values[index] = value
            # Replay the worker's stage events (its own hits/misses plus any
            # upstream stages it resolved) so phase accounting and the
            # warm-phase guard see exactly what happened.  With a pool these
            # seconds are aggregate worker time, not wall-clock.
            for event in events:
                runner._record_event(event.stage, event.fingerprint, event.hit, event.seconds)


def _drain_fanout(runner, cfg, spec: _FanoutSpec, keys: list[str]) -> list:
    """Steal-mode resolution of *spec*: claim, compute, or await each shard.

    Every participating runner (this one and any ``repro worker`` process
    pointed at the same store) runs this same loop: probe each missing
    shard, claim one and compute it, and poll for the shards other workers
    hold claims on.  The loop ends when every shard exists — nobody idles
    while *any* shard is still unclaimed, and a crashed worker's claim
    expires (lease) and is stolen.

    Failure semantics: a shard compute that raises charges the shard's
    retry budget (:meth:`~repro.store.queue.ShardQueue.record_failure`) and
    the sweep moves on — this worker or another re-claims it until the
    budget runs out and the shard is quarantined, at which point every
    claimer *and* every waiter raises :class:`~repro.errors.PlanFailed`
    naming the poison shard.  A worker death (simulated or real) leaves its
    claim held; the lease-expiry steal charges the budget instead.
    """
    from repro.errors import PlanFailed
    from repro.store.faults import fault_point

    shards = runner.plan.shards
    values: list = [None] * len(keys)
    pending = set(range(len(keys)))

    def sweep() -> bool:
        progressed = False
        queue = runner.queue()
        # The worker-id-hashed rotation: wide fan-outs would otherwise have
        # every worker contend for the same first pending shard, lose, and
        # shift by one — O(workers) wasted claim attempts per shard.
        for index in queue.sweep_order(sorted(pending)):
            started = time.perf_counter()
            value = runner.store.get(spec.kind, keys[index])
            if value is not None:
                runner._record_event(
                    spec.stage, keys[index], True, time.perf_counter() - started
                )
                values[index] = value
                pending.discard(index)
                progressed = True
                continue
            queue.raise_if_failed(keys[index])
            if queue.try_claim(keys[index]):
                fault_point("crash_after_claim", kind=spec.kind, shard=index)
                try:
                    with queue.heartbeat(keys[index]):
                        values[index] = spec.resolve(
                            runner, cfg, index, shards, key=keys[index], direct=True
                        )
                except PlanFailed:
                    queue.release(keys[index])
                    raise
                except Exception as error:
                    quarantined = queue.record_failure(keys[index], error)
                    queue.release(keys[index])
                    if quarantined:
                        raise PlanFailed(keys[index], queue.failure(keys[index])) from error
                    progressed = True  # an attempt was consumed; retry now
                    continue
                queue.complete(keys[index])
                pending.discard(index)
                progressed = True
        return progressed

    while pending:
        if not sweep() and pending:
            time.sleep(runner.queue().poll_seconds)
    return values
