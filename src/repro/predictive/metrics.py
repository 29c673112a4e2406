"""Evaluation metrics for device-mapping predictions.

The paper reports two quantities:

* **speedup over the best static mapping** (Figures 7 and 8) — the runtime of
  always choosing the single best device for the whole platform (CPU-only on
  the AMD system, GPU-only on the NVIDIA system) divided by the runtime of
  the predicted mapping, per benchmark, then averaged (geometric mean across
  benchmarks, as is conventional for speedups);
* **performance relative to the oracle** (Table 1) — the runtime of a perfect
  per-kernel mapping divided by the runtime of the predicted mapping,
  expressed as a percentage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.driver.harness import KernelMeasurement


@dataclass(frozen=True)
class PredictionOutcome:
    """One kernel/dataset observation with its predicted mapping."""

    measurement: KernelMeasurement
    predicted_device: str
    platform: str

    @property
    def oracle_device(self) -> str:
        return self.measurement.oracle(self.platform)

    @property
    def correct(self) -> bool:
        return self.predicted_device == self.oracle_device

    @property
    def predicted_runtime(self) -> float:
        return self.measurement.runtime(self.platform, self.predicted_device)

    @property
    def oracle_runtime(self) -> float:
        times = self.measurement.runtimes[self.platform]
        return min(times["cpu"], times["gpu"])

    def static_runtime(self, static_device: str) -> float:
        return self.measurement.runtime(self.platform, static_device)


def best_static_device(measurements: list[KernelMeasurement], platform: str) -> str:
    """The single device that minimises total runtime over *measurements*.

    On the paper's AMD system this is the CPU; on the NVIDIA system the GPU.
    """
    if not measurements:
        return "cpu"
    cpu_total = sum(m.runtime(platform, "cpu") for m in measurements)
    gpu_total = sum(m.runtime(platform, "gpu") for m in measurements)
    return "cpu" if cpu_total <= gpu_total else "gpu"


def accuracy(outcomes: list[PredictionOutcome]) -> float:
    if not outcomes:
        return 0.0
    return sum(outcome.correct for outcome in outcomes) / len(outcomes)


def geometric_mean(values: list[float]) -> float:
    positive = [v for v in values if v > 0]
    if not positive:
        return 0.0
    return math.exp(sum(math.log(v) for v in positive) / len(positive))


def speedup_over_static(
    outcomes: list[PredictionOutcome], static_device: str
) -> list[float]:
    """Per-observation speedups of the predicted mapping over *static_device*."""
    return [
        outcome.static_runtime(static_device) / max(outcome.predicted_runtime, 1e-12)
        for outcome in outcomes
    ]


def performance_relative_to_oracle(outcomes: list[PredictionOutcome]) -> float:
    """Mean fraction of the oracle performance achieved by the predictions.

    This is the Table 1 metric: 1.0 means every prediction matched the
    oracle; lower values measure how much slower the predicted mappings run.
    """
    if not outcomes:
        return 0.0
    ratios = [
        outcome.oracle_runtime / max(outcome.predicted_runtime, 1e-12) for outcome in outcomes
    ]
    return sum(ratios) / len(ratios)


def mean_speedup(
    outcomes: list[PredictionOutcome], static_device: str, use_geometric_mean: bool = True
) -> float:
    """Average speedup of the predicted mappings over a static mapping."""
    speedups = speedup_over_static(outcomes, static_device)
    if not speedups:
        return 0.0
    if use_geometric_mean:
        return geometric_mean(speedups)
    return sum(speedups) / len(speedups)
