"""Integration tests: the experiment harness reproduces the paper's shapes."""

from __future__ import annotations

import pytest

from repro.experiments import (
    ExperimentConfig,
    average_benchmarks_per_paper,
    coverage_of_top_suites,
    figure2_series,
    measure_suites,
    most_popular_suites,
    run_corpus_stats,
    run_figure3,
    run_figure7,
    run_figure9,
    run_table1,
    run_turing_test,
)
from repro.driver.harness import DriverConfig, HostDriver
from repro.experiments.figure8 import run_figure8
from repro.store.stages import PipelineConfig
from repro.suites import suite_summary


@pytest.fixture(scope="module")
def config():
    cfg = ExperimentConfig.quick()
    cfg.synthetic_kernel_count = 25
    return cfg


@pytest.fixture(scope="module")
def shared_data(config, clgen):
    """Suite measurements plus the session clgen's kernels, measured.

    The session clgen is trained on the conftest corpus, not on *config*'s
    stage graph, so ``synthesize_and_measure`` refuses it; its kernels are
    generated and measured here with the stage config's count, seed,
    attempt budget, driver settings and dataset scales.
    """
    data = measure_suites(config)
    stage_config = PipelineConfig.from_experiment(config)
    result = clgen.generate_kernels(
        stage_config.synthetic_kernel_count,
        seed=stage_config.sample_seed,
        max_attempts_per_kernel=stage_config.max_attempts_per_kernel,
    )
    scales = stage_config.dataset_scales
    driver = HostDriver(
        config=DriverConfig(
            executed_global_size=stage_config.executed_global_size,
            local_size=stage_config.local_size,
            payload_seed=stage_config.payload_seed,
        )
    )
    data.synthesis = result
    data.synthetic_measurements = driver.measure_many(
        [kernel.source for kernel in result.kernels],
        names=[f"clgen.{index}" for index in range(len(result.kernels))],
        dataset_scales=[scales[index % len(scales)] for index in range(len(result.kernels))],
    )
    data.corpus = clgen.corpus
    return data


class TestFigure2Survey:
    def test_headline_average(self):
        assert 15 <= average_benchmarks_per_paper() <= 19  # paper: 17

    def test_top_seven_suites_cover_most_results(self):
        assert coverage_of_top_suites(7) >= 0.85  # paper: 92%

    def test_evaluated_suites_are_the_most_popular(self):
        top = set(most_popular_suites(7))
        assert {"Rodinia", "NVIDIA SDK", "AMD SDK", "Parboil", "NAS", "Polybench", "SHOC"} == top

    def test_series_is_ordered_like_the_figure(self):
        series = figure2_series()
        assert series["Rodinia"] == max(series.values())
        assert series["GPGPUsim"] <= 1.0


class TestCorpusStats:
    def test_section_4_1_shape(self, config):
        stats = run_corpus_stats(config)
        assert stats.content_files > 50
        # The shim recovers part of the discard rate (paper: 40% -> 32%).
        assert stats.discard_rate_with_shim < stats.discard_rate_without_shim
        assert 0.15 <= stats.discard_rate_with_shim <= 0.5
        # Identifier rewriting reduces the vocabulary dramatically (paper: 84%).
        assert stats.vocabulary_reduction > 0.6
        assert stats.corpus_kernels > 20


class TestTable1:
    def test_cross_suite_generalisation_is_lossy(self, config, shared_data):
        result = run_table1(config, shared_data)
        # Off-diagonal entries are below perfect oracle performance on average.
        averages = [result.column_average(s) for s in result.suites]
        assert all(average < 0.999 for average in averages)
        best_suite, best_value = result.best_training_suite()
        worst = result.worst_cell()
        assert worst[2] < best_value
        assert len(result.rows()) == len(result.suites) + 1


class TestFigure3:
    def test_adding_neighbours_corrects_outliers(self, config, shared_data):
        result = run_figure3(config, shared_data)
        assert result.before and result.after
        assert result.accuracy_after >= result.accuracy_before
        assert any(point.additional for point in result.after)


class TestFigure7:
    def test_synthetic_benchmarks_help_on_at_least_one_platform(self, config, shared_data):
        result = run_figure7(config, shared_data)
        assert set(result.platforms) == {"AMD", "NVIDIA"}
        amd = result.platforms["AMD"]
        assert amd.static_device == "cpu"
        assert result.platforms["NVIDIA"].static_device == "gpu"
        assert amd.baseline_speedups and amd.with_clgen_speedups
        # Shape: the added synthetic training data should not hurt overall,
        # and should help on at least one platform (paper: helps on both).
        improvements = [panel.improvement for panel in result.platforms.values()]
        assert max(improvements) >= 1.0

    def test_speedups_are_positive(self, config, shared_data):
        result = run_figure7(config, shared_data)
        for panel in result.platforms.values():
            assert all(value > 0 for value in panel.baseline_speedups.values())


class TestFigure8:
    def test_extended_model_runs_on_all_suites(self, config, shared_data):
        result = run_figure8(config, shared_data)
        for platform, panel in result.platforms.items():
            assert panel.speedups_by_benchmark, platform
            assert panel.average_speedup > 0
            # The extended model should at least roughly track the oracle as
            # well as the original (paper: far better).
            assert panel.extended_vs_oracle > 0


class TestFigure9:
    def test_clgen_covers_feature_space_better_than_clsmith(self, config, clgen):
        result = run_figure9(config, clgen=clgen, kernel_count=30)
        assert result.fraction("CLgen") > result.fraction("CLSmith")
        assert result.series["GitHub"].match_counts[-1] > 0
        assert result.benchmark_feature_count > 10


class TestTuringTest:
    def test_clsmith_is_detectable_and_clgen_is_not(self, config, clgen):
        result = run_turing_test(config, clgen=clgen, judges=10, kernels_per_judge=10)
        # Control group detects machine code far above chance (paper: 96%).
        assert result.control.mean_score > 0.65
        # CLgen sits near chance (paper: 52%).
        assert abs(result.clgen.mean_score - 0.5) < 0.2
        assert result.control.mean_score > result.clgen.mean_score
        # CLgen errors go both ways (paper: "the ratio of errors was even").
        assert result.clgen.false_negatives > 0


class TestTable3Inventory:
    def test_inventory_matches_registry(self):
        rows = suite_summary()
        assert rows[-1]["suite"] == "Total"
        assert rows[0]["suite"] == "NPB" and rows[0]["benchmarks"] == 7
