"""Shared infrastructure for the experiment harness.

Every table/figure module needs the same raw material: measurements of the
benchmark-suite kernels across their datasets, and measurements of a pool of
CLgen-synthesized kernels to augment training sets with.  This module builds
both, at a configurable scale: :meth:`ExperimentConfig.quick` runs in
seconds for unit tests and the figure benchmarks, and
:meth:`ExperimentConfig.full` is ``repro experiments --full``.

All the heavy lifting is routed through the pipeline stage graph
(:mod:`repro.store.stages`): each phase — mine, preprocess, train, sample,
execute — persists its artifact to the content-addressed store, so repeat
invocations (a second ``python -m repro experiments``, a re-run of the
figure benchmarks against the same ``REPRO_STORE_DIR``) reuse every stage
whose fingerprint still matches and recompute only downstream of a change.
Per-phase wall-clock seconds live on the runner
(:meth:`~repro.store.stages.PipelineRunner.phase_seconds`).

Every helper takes an optional ``runner=``; without one it falls back to
:func:`repro.store.stages.default_runner`, which is unsharded.  Pass a
``PipelineRunner(shards=..., workers=...)`` and the data-parallel stages
resolve as per-range shard artifacts that a process pool fills
concurrently, with results bit-identical to an unsharded run (see
:mod:`repro.store.shards`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.corpus.corpus import Corpus
from repro.driver.harness import KernelMeasurement
from repro.store.stages import (
    PipelineConfig,
    PipelineRunner,
    default_runner,
    model_fingerprint,
)
from repro.synthesis.generator import CLgen, SynthesisResult


@dataclass
class ExperimentConfig:
    """Scale knobs shared by all experiments."""

    executed_global_size: int = 128
    local_size: int = 32
    synthetic_kernel_count: int = 100
    corpus_repository_count: int = 80
    ngram_order: int = 12
    sampler_temperature: float = 0.6
    seed: int = 0

    @classmethod
    def quick(cls) -> "ExperimentConfig":
        """A configuration small enough for unit tests."""
        return cls(
            executed_global_size=64,
            local_size=32,
            synthetic_kernel_count=20,
            corpus_repository_count=30,
        )

    @classmethod
    def full(cls) -> "ExperimentConfig":
        """Paper-scale kernel counts: ``repro experiments --full``."""
        return cls(
            executed_global_size=128,
            local_size=32,
            synthetic_kernel_count=1000,
            corpus_repository_count=150,
        )


@dataclass
class ExperimentData:
    """Measurements shared across experiments."""

    config: ExperimentConfig
    suite_measurements: dict[str, list[KernelMeasurement]] = field(default_factory=dict)
    benchmark_measurements: dict[str, list[KernelMeasurement]] = field(default_factory=dict)
    synthetic_measurements: list[KernelMeasurement] = field(default_factory=list)
    synthesis: SynthesisResult | None = None
    corpus: Corpus | None = None

    @property
    def all_suite_measurements(self) -> list[KernelMeasurement]:
        out: list[KernelMeasurement] = []
        for measurements in self.suite_measurements.values():
            out.extend(measurements)
        return out


def measure_suites(
    config: ExperimentConfig,
    suites: list[str] | None = None,
    runner: PipelineRunner | None = None,
) -> ExperimentData:
    """Measure every benchmark of the selected suites (all seven by default).

    Served from the artifact store when a matching ``execute`` artifact
    exists; measured (and stored) otherwise.
    """
    runner = runner or default_runner()
    stage_config = PipelineConfig.from_experiment(config, suites=suites)
    measured = runner.suite_measurements(stage_config)
    data = ExperimentData(config=config)
    data.suite_measurements = measured.suite_measurements
    data.benchmark_measurements = measured.benchmark_measurements
    return data


def build_clgen(
    config: ExperimentConfig,
    runner: PipelineRunner | None = None,
) -> CLgen:
    """Mine the synthetic GitHub corpus and train a CLgen instance.

    The corpus and the trained model resolve through the ``mine`` →
    ``preprocess`` → ``train`` stages, so a store-backed repeat skips the
    mining and training entirely.
    """
    runner = runner or default_runner()
    return runner.clgen(PipelineConfig.from_experiment(config))


def synthesize_and_measure(
    config: ExperimentConfig,
    data: ExperimentData,
    clgen: CLgen | None = None,
    count: int | None = None,
    runner: PipelineRunner | None = None,
) -> ExperimentData:
    """Generate CLgen kernels and measure them as training-only observations.

    Both the kernel batch (``sample`` stage) and its measurements
    (``execute`` stage) are store artifacts.

    A *clgen* built by :func:`build_clgen` (or any stage-graph product) is
    recognized by its model fingerprint and resolved through the store.  An
    ad-hoc synthesizer — one whose model does not correspond to *config*,
    e.g. a test fixture trained on a different corpus — raises
    ``ValueError``: its inputs have no stage fingerprint, so the store
    could not tell its kernels from those of *config*'s model.
    """
    runner = runner or default_runner()
    # The paper's host driver synthesizes payloads spanning 128B–130MB; the
    # default dataset_scales spread gives the synthetic kernels the same
    # effect.
    stage_config = PipelineConfig.from_experiment(config, count=count)
    if clgen is not None and (
        getattr(clgen, "stage_model_fingerprint", None) != model_fingerprint(stage_config)
    ):
        raise ValueError(
            "synthesize_and_measure needs the stage-graph synthesizer for its "
            "config (build_clgen); this clgen's model has a different fingerprint"
        )

    result = runner.synthesis(stage_config)
    measurements = runner.synthetic_measurements(stage_config)
    corpus = clgen.corpus if clgen is not None else runner.corpus(stage_config)

    data.synthesis = result
    data.synthetic_measurements = measurements
    data.corpus = corpus
    return data


def benchmark_name_of(measurement: KernelMeasurement) -> str:
    """Strip the dataset suffix: ``"NPB.FT.A"`` → ``"NPB.FT"``."""
    parts = measurement.name.split(".")
    if len(parts) >= 3:
        return ".".join(parts[:2])
    return measurement.name
