"""Tests for the sharded stage graph (``repro.store.shards``) and the PR-4
bugfixes (LSTM fingerprint collision, env-knob hardening, store gc).

The headline invariant (ISSUE 4 acceptance): a sharded run produces
artifacts and measurements bit-identical to the unsharded pipeline — for
every stage kind, under any shard completion order, and with shards filled
by separate processes sharing one store.
"""

from __future__ import annotations

import pickle
import random
import re
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

from repro.model.lstm import LSTMConfig
from repro.store.artifact_store import ArtifactStore
from repro.store.shards import (
    SHARD_KINDS,
    ShardPlan,
    _CORPUS,
    _MINE,
    _SAMPLE,
    _SUITE_EXEC,
    _SYNTH_EXEC,
    _shard_worker,
    resolve_plan,
    shard_ranges,
)
from repro.store.stages import (
    PipelineConfig,
    PipelineRunner,
    model_fingerprint,
    synthesis_fingerprint,
)


def canonical_bytes(value) -> bytes:
    """Pickle fixpoint: byte equality ⇒ identical values *and* identical
    internal object-sharing structure (see tests/test_stage_graph.py)."""
    return pickle.dumps(pickle.loads(pickle.dumps(value)))


def tiny_config() -> PipelineConfig:
    return PipelineConfig(
        repository_count=12,
        seed=3,
        synthetic_kernel_count=5,
        executed_global_size=32,
        local_size=16,
        payload_seed=3,
        suites=("NPB",),
    )


SHARDS = 3


@pytest.fixture(scope="module")
def reference():
    """Unsharded artifacts for :func:`tiny_config`, computed once."""
    runner = PipelineRunner(store=ArtifactStore(directory=None))
    cfg = tiny_config()
    return {
        "mine": runner.content_files(cfg),
        "corpus": runner.corpus(cfg),
        "synthesis": runner.synthesis(cfg),
        "suites": runner.suite_measurements(cfg),
        "measurements": runner.synthetic_measurements(cfg),
    }


def assert_matches_reference(runner: PipelineRunner, reference) -> None:
    cfg = tiny_config()
    assert runner.content_files(cfg) == reference["mine"]
    assert canonical_bytes(runner.corpus(cfg)) == canonical_bytes(reference["corpus"])
    assert canonical_bytes(runner.synthesis(cfg)) == canonical_bytes(
        reference["synthesis"]
    )
    assert canonical_bytes(runner.suite_measurements(cfg)) == canonical_bytes(
        reference["suites"]
    )
    assert canonical_bytes(runner.synthetic_measurements(cfg)) == canonical_bytes(
        reference["measurements"]
    )


class TestShardRanges:
    def test_covers_disjoint_in_order(self):
        for total in (1, 2, 5, 7, 100):
            for shards in (1, 2, 3, 5, 8, 200):
                ranges = shard_ranges(total, shards)
                assert len(ranges) == min(shards, total)
                flat = [i for lo, hi in ranges for i in range(lo, hi)]
                assert flat == list(range(total))
                assert all(hi > lo for lo, hi in ranges)

    def test_deterministic_split(self):
        assert shard_ranges(10, 3) == [(0, 4), (4, 7), (7, 10)]
        assert shard_ranges(0, 4) == []

    def test_plan_validation(self):
        with pytest.raises(ValueError):
            ShardPlan(shards=0)
        with pytest.raises(ValueError):
            ShardPlan(workers=-1)
        assert not ShardPlan().sharded
        assert ShardPlan(shards=2).sharded

    def test_workers_without_shards_imply_shards(self, tmp_path):
        # `--workers 8` alone must not be a silent no-op: it implies one
        # shard per worker.  (Disk-backed store: a memory-only runner
        # degrades its pool at construction.)
        assert PipelineRunner(
            store=ArtifactStore(directory=tmp_path / "store"), workers=3
        ).plan == ShardPlan(shards=3, workers=3)
        assert resolve_plan(None, 2) == ShardPlan(shards=2, workers=2)

    def test_explicit_shard_count_beats_worker_implication(self):
        # An explicit shard count is never expanded by --workers — asking
        # for 1 shard means 1 shard.
        with pytest.warns(RuntimeWarning, match="no effect with a single shard"):
            plan = resolve_plan(1, 8)
        assert plan == ShardPlan(shards=1, workers=8)
        assert not plan.pooled  # one shard -> the pool can never engage
        assert resolve_plan(None, 0) == ShardPlan(shards=1, workers=0)
        assert resolve_plan(None, None) == ShardPlan(shards=1, workers=0)

    def test_negative_workers_warn_with_or_without_shards(self):
        # A typo'd sign is clamped loudly whether or not --shards was given.
        for shards in (None, 2):
            with pytest.warns(RuntimeWarning, match="clamping"):
                plan = resolve_plan(shards, -3)
            assert plan == ShardPlan(shards=shards or 1, workers=0)

    def test_steal_refuses_a_process_pool(self, tmp_path, capsys):
        # Steal mode takes its width from `repro worker` processes; a pool
        # of its own is refused by the plan, and by the CLI as a usage
        # error before any work starts.
        with pytest.raises(ValueError, match="repro worker"):
            ShardPlan(shards=3, workers=2, steal=True)
        assert ShardPlan(shards=3, workers=1, steal=True).steal

        from repro.cli import main

        for flags in (["--workers", "2"], ["--shards", "3", "--workers", "2"]):
            with pytest.raises(SystemExit) as exit_info:
                main(["pipeline", "--steal", *flags,
                      "--cache-dir", str(tmp_path / "store")])
            assert exit_info.value.code == 2
            assert "repro worker" in capsys.readouterr().err
        assert not (tmp_path / "store").exists()


class TestShardedBitIdentity:
    """Acceptance: every stage kind, sharded vs unsharded, bit-identical."""

    def test_every_stage_kind_matches_unsharded(self, reference):
        runner = PipelineRunner(store=ArtifactStore(directory=None), shards=SHARDS)
        assert_matches_reference(runner, reference)

    def test_more_shards_than_items_degrade_gracefully(self, reference):
        # 64 shards over 12 repositories / 5 kernels: ranges clamp to the
        # item counts and the merge still reproduces the whole artifacts.
        runner = PipelineRunner(store=ArtifactStore(directory=None), shards=64)
        assert_matches_reference(runner, reference)

    def test_disk_entries_byte_identical_to_unsharded(self, tmp_path, reference):
        cfg = tiny_config()
        plain_dir, sharded_dir = tmp_path / "plain", tmp_path / "sharded"
        for directory, shards in ((plain_dir, 1), (sharded_dir, SHARDS)):
            runner = PipelineRunner(store=ArtifactStore(directory=directory), shards=shards)
            runner.content_files(cfg)
            runner.corpus(cfg)
            runner.synthesis(cfg)
            runner.suite_measurements(cfg)
            runner.synthetic_measurements(cfg)
        for kind in (
            "mine", "corpus", "model", "synthesis",
            "suite-measurements", "synthetic-measurements",
        ):
            entries = sorted((plain_dir / kind).glob("*/*.pkl"))
            assert entries, kind
            for entry in entries:
                twin = sharded_dir / kind / entry.parent.name / entry.name
                assert twin.exists(), f"{kind}: sharded run missed key {entry.name}"
                assert entry.read_bytes() == twin.read_bytes(), kind
        # The unsharded run merges one in-process range: no shard entry.
        for kind in SHARD_KINDS:
            assert list((sharded_dir / kind).glob("*/*.pkl")), kind
            assert not list((plain_dir / kind).glob("*/*.pkl")), kind

    def test_wavefront_and_sequential_sample_entries_identical(self, tmp_path):
        """The sample stage's two execution shapes must leave byte-identical
        store entries: an unsharded run samples all streams in one wavefront,
        a run with one shard per kernel samples each stream on its own
        (the sequential attempt loop)."""
        cfg = tiny_config()
        wavefront_dir, sequential_dir = tmp_path / "wavefront", tmp_path / "sequential"
        for directory, shards in (
            (wavefront_dir, 1), (sequential_dir, cfg.synthetic_kernel_count)
        ):
            runner = PipelineRunner(store=ArtifactStore(directory=directory), shards=shards)
            runner.synthesis(cfg)
            runner.synthetic_measurements(cfg)
        for kind in ("synthesis", "synthetic-measurements"):
            entries = sorted((wavefront_dir / kind).glob("*/*.pkl"))
            assert entries, kind
            for entry in entries:
                twin = sequential_dir / kind / entry.parent.name / entry.name
                assert twin.exists(), f"{kind}: sequential run stored a different key"
                assert twin.read_bytes() == entry.read_bytes(), (
                    f"{kind}/{entry.name}: sequential-stream entry diverges"
                )

    def test_non_default_min_static_instructions_matches_unsharded(self):
        # Regression: the unsharded corpus compute used to drop
        # cfg.min_static_instructions (always filtering at the pipeline
        # default of 3) while the sharded path honored it — divergent
        # corpora under one fingerprint.
        cfg = PipelineConfig(
            repository_count=12, seed=3, min_static_instructions=20, suites=("NPB",)
        )
        plain = PipelineRunner(store=ArtifactStore(directory=None)).corpus(cfg)
        sharded = PipelineRunner(store=ArtifactStore(directory=None), shards=3).corpus(cfg)
        assert canonical_bytes(plain) == canonical_bytes(sharded)
        default = PipelineRunner(store=ArtifactStore(directory=None)).corpus(
            PipelineConfig(repository_count=12, seed=3, suites=("NPB",))
        )
        # The knob actually filters: a stricter floor keeps fewer kernels.
        assert plain.size < default.size

    def test_nonpositive_kernel_count_raises_like_unsharded(self):
        from repro.errors import SynthesisError

        cfg = PipelineConfig(repository_count=12, seed=3, synthetic_kernel_count=0)
        runner = PipelineRunner(store=ArtifactStore(directory=None), shards=3)
        with pytest.raises(SynthesisError, match="positive"):
            runner.synthesis(cfg)
        # The execute side must surface the same config error, not cache an
        # empty measurement artifact.
        with pytest.raises(SynthesisError, match="positive"):
            runner.synthetic_measurements(cfg)

    def test_corpus_shard_bytes_independent_of_file_cache_state(self, tmp_path):
        # The first compute runs the per-file preprocess cache cold (duplicate
        # fork files share one outcome object); the second is served from the
        # warm cache (fresh copies).  The stored shard entry must be
        # byte-identical either way.
        cfg = tiny_config()
        store = ArtifactStore(directory=tmp_path / "store")
        runner = PipelineRunner(store=store, shards=SHARDS)
        key = _CORPUS.key(cfg, 0, SHARDS)
        _CORPUS.resolve(runner, cfg, 0, SHARDS)
        path = store.entry_path("corpus-shard", key)
        first = path.read_bytes()
        path.unlink()
        store.clear_memory()
        _CORPUS.resolve(runner, cfg, 0, SHARDS)
        assert path.read_bytes() == first

    def test_sample_attempt_exhaustion_matches_unsharded(self):
        # An attempt budget of 1 at a hot temperature exhausts some streams.
        # Under independent seeding an exhausted stream yields None for its
        # index without stopping later streams (unlike the old sequential
        # chain's early stop); sharded and unsharded runs must agree on
        # exactly which indices produced kernels and on the statistics.
        cfg = PipelineConfig(
            repository_count=12,
            seed=3,
            synthetic_kernel_count=8,
            max_attempts_per_kernel=1,
            sampler_temperature=1.5,
            suites=("NPB",),
        )
        plain = PipelineRunner(store=ArtifactStore(directory=None)).synthesis(cfg)
        sharded = PipelineRunner(store=ArtifactStore(directory=None), shards=4).synthesis(cfg)
        assert canonical_bytes(sharded) == canonical_bytes(plain)
        assert sharded.statistics.generated == plain.statistics.generated
        assert plain.statistics.requested == 8
        # Streams are independent: exhaustion shows up as missing positions,
        # not as a truncated batch (generated + failed streams + merge
        # duplicates account for every position).
        assert plain.statistics.attempts == 8  # one attempt per stream


def test_every_stored_kind_has_a_schema_version(tmp_path):
    """A kind missing from SCHEMA_VERSIONS is stored at schema 0, where
    no version bump can ever invalidate it."""
    from repro.store.fingerprint import SCHEMA_VERSIONS

    cfg = tiny_config()
    for shards in (1, SHARDS):
        store = ArtifactStore(directory=tmp_path / f"store-{shards}")
        runner = PipelineRunner(store=store, shards=shards)
        runner.suite_measurements(cfg)
        runner.synthetic_measurements(cfg)
        kinds = set(store.stats().kinds)
        assert kinds <= set(SCHEMA_VERSIONS), (shards, kinds - set(SCHEMA_VERSIONS))


class TestMergeDeterminism:
    """The merge consumes shard artifacts from the store; it cannot depend
    on the order the shards were produced in."""

    @pytest.mark.parametrize("completion_seed", [0, 1, 2])
    def test_shuffled_shard_completion_order(self, tmp_path, reference, completion_seed):
        cfg = tiny_config()
        directory = tmp_path / f"store{completion_seed}"
        filler = PipelineRunner(store=ArtifactStore(directory=directory), shards=SHARDS)

        tasks = []
        for spec in (_MINE, _CORPUS, _SAMPLE, _SUITE_EXEC, _SYNTH_EXEC):
            count = len(shard_ranges(spec.total(cfg), SHARDS))
            tasks.extend((spec, index, count) for index in range(count))
        random.Random(completion_seed).shuffle(tasks)
        for spec, index, count in tasks:
            spec.resolve(filler, cfg, index, count)

        # Drop every whole-pipeline artifact the filler produced as a side
        # effect (the synth-exec shards resolve their upstream chain), so
        # the merges below can only be built from the stored shards.
        from repro.store.stages import (
            corpus_fingerprint,
            mine_fingerprint,
            suite_execution_fingerprint,
            synthetic_execution_fingerprint,
        )

        for kind, fingerprint in (
            ("mine", mine_fingerprint(cfg)),
            ("corpus", corpus_fingerprint(cfg)),
            ("synthesis", synthesis_fingerprint(cfg)),
            ("suite-measurements", suite_execution_fingerprint(cfg)),
            ("synthetic-measurements", synthetic_execution_fingerprint(cfg)),
        ):
            path = filler.store.entry_path(kind, fingerprint)
            if path.exists():
                path.unlink()

        merger = PipelineRunner(store=ArtifactStore(directory=directory), shards=SHARDS)
        assert_matches_reference(merger, reference)
        # Every fan-out shard (and sample-chain link) was served warm; only
        # the five merges recomputed.
        counts = merger.stage_counts()
        assert counts["mine"] == {"hit": SHARDS, "miss": 1}
        assert counts["preprocess"]["hit"] >= SHARDS
        assert counts["preprocess"]["miss"] == 1
        # SHARDS sample-shard hits plus the structural whole-batch hit the
        # synthetic-execute merge records when it pre-resolves synthesis.
        assert counts["sample"] == {"hit": SHARDS + 1, "miss": 1}
        assert counts["execute"] == {"hit": 2 * SHARDS, "miss": 2}

    def test_synthesis_shards_resolve_from_store(self, tmp_path, reference):
        cfg = tiny_config()
        directory = tmp_path / "store"
        first = PipelineRunner(store=ArtifactStore(directory=directory), shards=SHARDS)
        first.synthesis(cfg)

        # Drop the merged artifact but keep the shards: the merge must
        # rebuild bit-identically from warm shards alone.
        first.store.entry_path("synthesis", synthesis_fingerprint(cfg)).unlink()
        second = PipelineRunner(store=ArtifactStore(directory=directory), shards=SHARDS)
        result = second.synthesis(cfg)
        assert canonical_bytes(result) == canonical_bytes(reference["synthesis"])
        counts = second.stage_counts()
        assert counts["sample"]["hit"] == SHARDS
        assert counts["sample"]["miss"] == 1  # the merge itself


class TestConcurrentShardFill:
    def test_two_processes_fill_disjoint_shards_of_one_store(self, tmp_path, reference):
        """Two worker processes, each resolving a disjoint half of the
        corpus shards against the same directory, then a parent merge."""
        cfg = tiny_config()
        directory = tmp_path / "store"
        directory.mkdir()
        tasks = [
            (str(directory), cfg, "corpus", index, SHARDS) for index in range(SHARDS)
        ]
        with ProcessPoolExecutor(max_workers=2) as pool:
            results = list(pool.map(_shard_worker, tasks))
        assert sorted(index for index, _, _ in results) == list(range(SHARDS))
        # Every shard landed in the shared store (mine + corpus per range).
        assert len(list((directory / "corpus-shard").glob("*/*.pkl"))) == SHARDS
        assert len(list((directory / "mine-shard").glob("*/*.pkl"))) == SHARDS

        merger = PipelineRunner(store=ArtifactStore(directory=directory), shards=SHARDS)
        merged = merger.corpus(cfg)
        assert canonical_bytes(merged) == canonical_bytes(reference["corpus"])
        counts = merger.stage_counts()
        assert counts["preprocess"]["hit"] == SHARDS

    def test_pool_dispatch_matches_unsharded(self, tmp_path, reference):
        runner = PipelineRunner(
            store=ArtifactStore(directory=tmp_path / "store"), shards=SHARDS, workers=2
        )
        assert_matches_reference(runner, reference)

    def test_pool_over_memory_store_warns_and_resolves_in_process(self, reference):
        # Workers cannot see a memory-only store; each would privately
        # recompute the whole upstream chain, so the pool is refused once,
        # at construction, and the plan degrades to in-process shards.
        with pytest.warns(RuntimeWarning, match="on-disk store"):
            runner = PipelineRunner(
                store=ArtifactStore(directory=None), shards=SHARDS, workers=2
            )
        assert runner.plan == ShardPlan(shards=SHARDS, workers=0)
        suites = runner.suite_measurements(tiny_config())
        assert canonical_bytes(suites) == canonical_bytes(reference["suites"])


class TestLSTMFingerprintRegression:
    """ISSUE 4 bugfix: ``backend="lstm"`` used to fingerprint identically
    regardless of ``LSTMConfig``, so differently-configured trainings
    collided on one store key and served each other's checkpoints."""

    def test_different_lstm_configs_do_not_collide(self):
        small = PipelineConfig(backend="lstm", lstm=LSTMConfig(hidden_size=24))
        large = PipelineConfig(backend="lstm", lstm=LSTMConfig(hidden_size=512))
        assert model_fingerprint(small) != model_fingerprint(large)

    @pytest.mark.parametrize(
        "knob, value",
        [
            ("num_layers", 3),
            ("sequence_length", 48),
            ("batch_size", 32),
            ("epochs", 4),
            ("optimizer", "sgd"),
            ("learning_rate", 0.01),
            ("gradient_clip", 1.0),
            ("seed", 7),
        ],
    )
    def test_every_knob_readdresses_the_checkpoint(self, knob, value):
        base = PipelineConfig(backend="lstm")
        tweaked = PipelineConfig(backend="lstm", lstm=LSTMConfig(**{knob: value}))
        assert model_fingerprint(base) != model_fingerprint(tweaked)

    def test_default_none_equals_explicit_defaults(self):
        assert model_fingerprint(
            PipelineConfig(backend="lstm")
        ) == model_fingerprint(PipelineConfig(backend="lstm", lstm=LSTMConfig()))

    def test_ngram_fingerprints_ignore_lstm_knobs(self):
        # The n-gram payload is unchanged, so stored n-gram models stay valid.
        assert model_fingerprint(PipelineConfig()) == model_fingerprint(
            PipelineConfig(lstm=LSTMConfig(hidden_size=999))
        )

    def test_lstm_knobs_reach_the_trainer(self):
        from repro.model.trainer import ModelTrainer, TrainerConfig

        lstm = LSTMConfig(hidden_size=24, num_layers=1, epochs=1)
        trainer = ModelTrainer(
            TrainerConfig(backend="lstm", lstm=lstm)
        )
        model = trainer.build_model()
        assert model.config.hidden_size == 24

        # And through the stage graph: the runner's TrainerConfig carries
        # cfg.lstm (this is the second half of the bugfix — the knobs used
        # to be dropped on the floor, not just un-fingerprinted).
        cfg = PipelineConfig(
            repository_count=6, seed=3, backend="lstm", lstm=lstm, suites=("NPB",)
        )
        runner = PipelineRunner(store=ArtifactStore(directory=None))
        trained = runner.trained_model(cfg)
        assert trained.model.config.hidden_size == 24
        assert trained.model.config.epochs == 1


class TestEnvHardeningRegression:
    """ISSUE 4 bugfix: malformed ``REPRO_*`` env knobs must degrade with a
    warning, never crash or be silently misread."""

    def test_store_dir_pointing_at_a_file_is_ignored(self, tmp_path, monkeypatch):
        from repro.store.artifact_store import default_store_directory

        not_a_dir = tmp_path / "file"
        not_a_dir.write_text("x")
        monkeypatch.setenv("REPRO_STORE_DIR", str(not_a_dir))
        with pytest.warns(RuntimeWarning, match="REPRO_STORE_DIR"):
            assert default_store_directory() is None
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "fresh"))
        assert default_store_directory() == str(tmp_path / "fresh")

    def test_preprocess_cache_dir_pointing_at_a_file_is_ignored(self, tmp_path, monkeypatch):
        from repro.preprocess.cache import GLOBAL_PREPROCESS_CACHE, resolve_cache

        not_a_dir = tmp_path / "file"
        not_a_dir.write_text("x")
        monkeypatch.setenv("REPRO_STORE_DIR", str(not_a_dir))
        with pytest.warns(RuntimeWarning, match="REPRO_STORE_DIR"):
            assert resolve_cache() is GLOBAL_PREPROCESS_CACHE


class TestKnobTable:
    """ARCHITECTURE's "Cache environment variables" table lists exactly the
    ``REPRO_*`` knobs that the program, its scripts and its benchmarks read."""

    def test_table_matches_code(self):
        root = Path(__file__).resolve().parent.parent
        knob = re.compile(r"REPRO_[A-Z][A-Z_]+")
        in_code = {
            name
            for directory in ("src", "scripts", "benchmarks")
            for path in (root / directory).rglob("*")
            if path.suffix in (".py", ".sh")
            for name in knob.findall(path.read_text())
        }
        architecture = (root / "ARCHITECTURE.md").read_text()
        section = architecture.split("\n## Cache environment variables\n", 1)[1]
        section = section.split("\n## ", 1)[0]
        in_table = set(re.findall(r"^\| `(REPRO_[A-Z][A-Z_]+)`", section, re.MULTILINE))
        assert in_code == in_table
