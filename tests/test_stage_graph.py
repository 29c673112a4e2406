"""Tests for the pipeline stage graph (``repro.store.stages``).

The headline invariant (ISSUE 3 acceptance): with an on-disk store, a
second invocation of the pipeline reuses the mine/preprocess/train/sample
artifacts — the warm run records store hits instead of recomputing — and
its results are bit-identical to the cold run's.
"""

from __future__ import annotations

import pickle

import pytest

from repro.experiments.common import (
    ExperimentConfig,
    build_clgen,
    measure_suites,
    synthesize_and_measure,
)
from repro.model.checkpoint import model_from_dict, model_to_dict
from repro.store.artifact_store import ArtifactStore
from repro.store.stages import (
    PipelineConfig,
    PipelineRunner,
    STAGE_PHASES,
    corpus_fingerprint,
    mine_fingerprint,
    model_fingerprint,
    synthesis_fingerprint,
    synthetic_execution_fingerprint,
)


def canonical_bytes(value) -> bytes:
    """A byte form independent of in-memory object sharing.

    ``pickle.dumps`` encodes shared references, so a freshly computed graph
    and its store round-trip can differ in bytes while being value-identical.
    One loads/dumps round trip brings both to pickle's fixpoint sharing
    structure, after which byte equality means bit-identical values.
    """
    return pickle.dumps(pickle.loads(pickle.dumps(value)))


def tiny_config() -> PipelineConfig:
    return PipelineConfig(
        repository_count=12,
        seed=3,
        synthetic_kernel_count=4,
        executed_global_size=32,
        local_size=16,
        payload_seed=3,
        suites=("NPB",),
    )


class TestFingerprintChaining:
    def test_upstream_changes_readdress_downstream(self):
        base = tiny_config()
        remined = PipelineConfig(**{**base.__dict__, "seed": 4, "payload_seed": 3})
        assert mine_fingerprint(base) != mine_fingerprint(remined)
        assert corpus_fingerprint(base) != corpus_fingerprint(remined)
        assert model_fingerprint(base) != model_fingerprint(remined)
        assert synthesis_fingerprint(base) != synthesis_fingerprint(remined)
        assert synthetic_execution_fingerprint(base) != synthetic_execution_fingerprint(
            remined
        )

    def test_downstream_changes_leave_upstream_addresses(self):
        base = tiny_config()
        hotter = PipelineConfig(**{**base.__dict__, "sampler_temperature": 0.9})
        assert model_fingerprint(base) == model_fingerprint(hotter)
        assert synthesis_fingerprint(base) != synthesis_fingerprint(hotter)

    def test_count_only_affects_sample_and_execute(self):
        base = tiny_config()
        more = base.with_count(9)
        assert model_fingerprint(base) == model_fingerprint(more)
        assert synthesis_fingerprint(base) != synthesis_fingerprint(more)


class TestWarmRunReusesArtifacts:
    def test_cold_then_warm_is_bit_identical(self, tmp_path):
        """The acceptance criterion: a second pipeline run against the same
        on-disk store serves every stage from the store (hit counts prove
        the stages were skipped) and produces bit-identical artifacts."""
        config = tiny_config()
        directory = tmp_path / "store"

        cold_runner = PipelineRunner(store=ArtifactStore(directory=directory))
        cold_synthesis = cold_runner.synthesis(config)
        cold_suites = cold_runner.suite_measurements(config)
        cold_measurements = cold_runner.synthetic_measurements(config)
        cold_counts = cold_runner.stage_counts()
        for stage in ("mine", "preprocess", "train", "sample", "execute"):
            assert cold_counts[stage]["miss"] >= 1, stage

        # A fresh runner over a fresh store instance: only the disk layer
        # persists, exactly like a new process pointed at the same
        # --cache-dir.
        warm_runner = PipelineRunner(store=ArtifactStore(directory=directory))
        warm_synthesis = warm_runner.synthesis(config)
        warm_suites = warm_runner.suite_measurements(config)
        warm_measurements = warm_runner.synthetic_measurements(config)

        warm_counts = warm_runner.stage_counts()
        assert warm_counts["sample"] == {"hit": 1, "miss": 0}
        assert warm_counts["execute"] == {"hit": 2, "miss": 0}
        # Downstream hits short-circuit the upstream chain entirely: the
        # warm run never even consulted the mine/preprocess/train stages.
        for stage in ("mine", "preprocess", "train"):
            assert stage not in warm_counts, stage

        assert [k.source for k in warm_synthesis.kernels] == [
            k.source for k in cold_synthesis.kernels
        ]
        assert warm_measurements == cold_measurements
        assert canonical_bytes(warm_synthesis) == canonical_bytes(cold_synthesis)
        assert canonical_bytes(warm_suites) == canonical_bytes(cold_suites)
        assert canonical_bytes(warm_measurements) == canonical_bytes(cold_measurements)

    def test_warm_run_recomputes_only_downstream_of_a_change(self, tmp_path):
        config = tiny_config()
        directory = tmp_path / "store"
        PipelineRunner(store=ArtifactStore(directory=directory)).synthesis(config)

        hotter = PipelineConfig(**{**config.__dict__, "sampler_temperature": 0.95})
        runner = PipelineRunner(store=ArtifactStore(directory=directory))
        runner.synthesis(hotter)
        counts = runner.stage_counts()
        # Sample recomputed (new temperature) from the stored train/preprocess
        # artifacts; mining never reran.
        assert counts["sample"] == {"hit": 0, "miss": 1}
        assert counts["train"]["hit"] == 1
        assert counts["train"]["miss"] == 0
        assert counts["preprocess"]["hit"] >= 1
        assert counts["preprocess"]["miss"] == 0
        assert "mine" not in counts

    def test_checkpoint_round_trip_samples_identically(self, tmp_path):
        """The train artifact is a checkpoint dict; a model rebuilt from it
        must drive the sample stage to the same kernels as the original."""
        config = tiny_config()
        runner = PipelineRunner(store=ArtifactStore(directory=tmp_path / "a"))
        synthesizer = runner.clgen(config)
        direct = synthesizer.generate_kernels(
            config.synthetic_kernel_count,
            seed=config.sample_seed,
            max_attempts_per_kernel=config.max_attempts_per_kernel,
        )

        restored = model_from_dict(model_to_dict(synthesizer.model))
        from repro.synthesis.generator import CLgen
        from repro.synthesis.sampler import SamplerConfig

        rebuilt = CLgen(
            model=restored,
            sampler_config=SamplerConfig(
                max_kernel_length=config.max_kernel_length,
                temperature=config.sampler_temperature,
                seed_kernel_name=config.seed_kernel_name,
            ),
            min_static_instructions=config.min_static_instructions,
        )
        resampled = rebuilt.generate_kernels(
            config.synthetic_kernel_count,
            seed=config.sample_seed,
            max_attempts_per_kernel=config.max_attempts_per_kernel,
        )
        assert [k.source for k in resampled.kernels] == [
            k.source for k in direct.kernels
        ]


class TestPhaseAccounting:
    def test_events_map_to_benchmark_phases(self, tmp_path):
        config = tiny_config()
        runner = PipelineRunner(store=ArtifactStore(directory=tmp_path / "store"))
        runner.suite_measurements(config)
        runner.synthetic_measurements(config)
        phases = runner.phase_seconds()
        assert set(phases) == {"preprocess", "train", "sample", "execute"}
        assert all(seconds >= 0.0 for seconds in phases.values())
        assert set(STAGE_PHASES.values()) == {"preprocess", "train", "sample", "execute"}

    def test_marks_give_per_call_slices(self, tmp_path):
        config = tiny_config()
        runner = PipelineRunner(store=ArtifactStore(directory=tmp_path / "store"))
        runner.synthesis(config)
        mark = len(runner.events)
        runner.synthetic_measurements(config)
        # The execute compute re-resolves its upstream sample artifact (a
        # store hit), so the slice holds one execute miss plus that hit.
        sliced = runner.events[mark:]
        assert {STAGE_PHASES[event.stage] for event in sliced} == {"sample", "execute"}
        assert sorted((event.stage, event.hit) for event in sliced) == [
            ("execute", False),
            ("sample", True),
        ]


class TestExperimentHarnessIntegration:
    def test_experiment_helpers_reuse_the_store(self, tmp_path):
        """`build_clgen` + `synthesize_and_measure` + `measure_suites` (the
        `python -m repro experiments` underpinnings) served warm from the
        store a second time, bit-identically."""
        config = ExperimentConfig(
            executed_global_size=32,
            local_size=16,
            synthetic_kernel_count=4,
            corpus_repository_count=12,
            seed=3,
        )
        directory = tmp_path / "store"

        def run(runner: PipelineRunner):
            data = measure_suites(config, suites=["NPB"], runner=runner)
            clgen = build_clgen(config, runner=runner)
            return synthesize_and_measure(config, data, clgen=clgen, runner=runner)

        cold_runner = PipelineRunner(store=ArtifactStore(directory=directory))
        cold_data = run(cold_runner)
        assert set(cold_runner.phase_seconds()) == {"preprocess", "train", "sample", "execute"}

        warm_runner = PipelineRunner(store=ArtifactStore(directory=directory))
        warm_data = run(warm_runner)
        counts = warm_runner.stage_counts()
        assert counts["execute"] == {"hit": 2, "miss": 0}
        assert counts["sample"] == {"hit": 1, "miss": 0}
        assert counts["preprocess"]["miss"] == 0
        assert counts["train"]["miss"] == 0
        assert "mine" not in counts

        assert canonical_bytes(warm_data.synthesis) == canonical_bytes(cold_data.synthesis)
        assert warm_data.synthetic_measurements == cold_data.synthetic_measurements
        assert canonical_bytes(warm_data.suite_measurements) == canonical_bytes(
            cold_data.suite_measurements
        )

    def test_ad_hoc_synthesizer_is_refused(self, tmp_path, corpus):
        """A synthesizer whose model does not match the config has no stage
        fingerprint, so synthesize_and_measure refuses it rather than
        sampling and measuring outside the store."""
        from repro.synthesis.generator import CLgen

        config = ExperimentConfig(
            executed_global_size=32,
            local_size=16,
            synthetic_kernel_count=3,
            corpus_repository_count=12,
            seed=3,
        )
        ad_hoc = CLgen.from_corpus(corpus, backend="ngram", ngram_order=6)
        runner = PipelineRunner(store=ArtifactStore(directory=tmp_path / "store"))
        data = measure_suites(config, suites=["NPB"], runner=runner)
        mark = len(runner.events)
        with pytest.raises(ValueError, match="fingerprint"):
            synthesize_and_measure(config, data, clgen=ad_hoc, runner=runner)
        # Nothing was sampled or measured on the synthetic side.
        assert runner.events[mark:] == []
        assert data.synthesis is None
        assert data.synthetic_measurements == []
