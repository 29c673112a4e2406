"""Run every experiment and render a textual report.

``python -m repro experiments`` uses this module to regenerate the paper's
tables and figures in one pass; perfbench's ``experiments`` workload times
it and checks its rendered report against ``perfbench/expected_reports.json``.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

from repro.experiments.common import (
    ExperimentConfig,
    ExperimentData,
    build_clgen,
    measure_suites,
    synthesize_and_measure,
)
from repro.experiments.corpus_stats import CorpusStatsResult, run_corpus_stats
from repro.experiments.figure3 import Figure3Result, run_figure3
from repro.experiments.figure7 import Figure7Result, run_figure7
from repro.experiments.figure8 import Figure8Result, run_figure8
from repro.experiments.figure9 import Figure9Result, run_figure9
from repro.experiments.survey import (
    average_benchmarks_per_paper,
    coverage_of_top_suites,
    figure2_series,
)
from repro.experiments.table1 import Table1Result, run_table1
from repro.experiments.turing import TuringExperimentResult, run_turing_test
from repro.suites.registry import suite_summary


@dataclass
class FullReport:
    """Results of every experiment in the paper's evaluation."""

    config: ExperimentConfig
    corpus_stats: CorpusStatsResult
    table1: Table1Result
    figure3: Figure3Result
    figure7: Figure7Result
    figure8: Figure8Result
    figure9: Figure9Result
    turing: TuringExperimentResult

    def render(self) -> str:
        """A human-readable summary of every reproduced artifact."""
        out = io.StringIO()
        write = out.write

        write("== Figure 2: benchmark-usage survey ==\n")
        write(f"average benchmarks per paper: {average_benchmarks_per_paper():.1f} (paper: 17)\n")
        write(
            f"top-7 suites account for {coverage_of_top_suites() * 100:.0f}% of uses (paper: 92%)\n"
        )
        for suite, value in figure2_series().items():
            write(f"  {suite:15s} {value:4.2f}\n")

        write("\n== Table 3: benchmark inventory ==\n")
        for row in suite_summary():
            write(f"  {row['suite']:12s} {row['benchmarks']:3d} benchmarks {row['kernels']:4d} kernels\n")

        write("\n== Corpus statistics (section 4.1) ==\n")
        stats = self.corpus_stats
        write(f"repositories mined: {stats.repositories}\n")
        write(f"content files: {stats.content_files} ({stats.content_lines} lines)\n")
        write(
            f"discard rate: {stats.discard_rate_without_shim * 100:.1f}% without shim -> "
            f"{stats.discard_rate_with_shim * 100:.1f}% with shim (paper: 40% -> 32%)\n"
        )
        write(f"corpus: {stats.corpus_kernels} kernels, {stats.corpus_lines} lines\n")
        write(
            f"identifier-rewriting vocabulary reduction: "
            f"{stats.vocabulary_reduction * 100:.0f}% (paper: 84%)\n"
        )

        write("\n== Table 1: cross-suite generalisation (AMD) ==\n")
        for row in self.table1.rows():
            write("  " + "  ".join(f"{cell:>12s}" for cell in row) + "\n")
        best_suite, best_value = self.table1.best_training_suite()
        worst = self.table1.worst_cell()
        write(f"best training suite: {best_suite} ({best_value * 100:.0f}% of oracle; paper: NVIDIA SDK 49%)\n")
        write(
            f"worst pair: {worst[0]} -> {worst[1]} ({worst[2] * 100:.1f}%; paper: Parboil -> Polybench 11.5%)\n"
        )

        write("\n== Figure 3: Parboil feature space ==\n")
        write(
            f"accuracy before adding neighbours: {self.figure3.accuracy_before * 100:.0f}%, "
            f"after: {self.figure3.accuracy_after * 100:.0f}%\n"
        )

        write("\n== Section 6.1: Turing test ==\n")
        write(
            f"control (CLSmith) judge accuracy: {self.turing.control.mean_score * 100:.0f}% "
            f"(stdev {self.turing.control.score_stdev * 100:.0f}%; paper: 96% / 9%)\n"
        )
        write(
            f"CLgen judge accuracy: {self.turing.clgen.mean_score * 100:.0f}% "
            f"(stdev {self.turing.clgen.score_stdev * 100:.0f}%; paper: 52% / 17%)\n"
        )

        write("\n== Figure 7: Grewe model +/- CLgen on NPB ==\n")
        for platform, panel in self.figure7.platforms.items():
            write(
                f"  {platform}: baseline {panel.baseline_average:.2f}x -> with CLgen "
                f"{panel.with_clgen_average:.2f}x over {panel.static_device}-only "
                f"(improved on {panel.fraction_improved * 100:.0f}% of observations)\n"
            )
        write(f"  overall improvement: {self.figure7.overall_improvement:.2f}x (paper: 1.27x)\n")

        write("\n== Figure 8: extended model over Grewe model, all suites ==\n")
        for platform, panel in self.figure8.platforms.items():
            write(
                f"  {platform}: extended/original speedup {panel.average_speedup:.2f}x "
                f"(paper: {'3.56x' if platform == 'AMD' else '5.04x'})\n"
            )
        write(f"  combined: {self.figure8.overall_speedup:.2f}x (paper: 4.30x)\n")

        write("\n== Figure 9: feature-space matches ==\n")
        for label, series in self.figure9.series.items():
            final = series.match_counts[-1] if series.match_counts else 0
            total = series.kernel_counts[-1] if series.kernel_counts else 0
            write(
                f"  {label:8s}: {final}/{total} kernels match a benchmark's static features "
                f"({series.final_match_fraction * 100:.1f}%)\n"
            )
        write(
            f"  CLgen matches per benchmark: {self.figure9.matches_per_benchmark:.1f} (paper: ~14)\n"
        )
        return out.getvalue()


def run_all(config: ExperimentConfig | None = None, runner=None) -> FullReport:
    """Run every experiment with shared measurements and one CLgen instance.

    *runner* is an optional :class:`repro.store.PipelineRunner`; the heavy
    inputs resolve through its artifact store, so a second run against the
    same store reuses every unchanged stage.
    """
    config = config or ExperimentConfig()
    data: ExperimentData = measure_suites(config, runner=runner)
    clgen = build_clgen(config, runner=runner)
    data = synthesize_and_measure(config, data, clgen=clgen, runner=runner)

    return FullReport(
        config=config,
        corpus_stats=run_corpus_stats(config),
        table1=run_table1(config, data),
        figure3=run_figure3(config, data),
        figure7=run_figure7(config, data),
        figure8=run_figure8(config, data),
        figure9=run_figure9(config, clgen=clgen),
        turing=run_turing_test(config, clgen=clgen),
    )
