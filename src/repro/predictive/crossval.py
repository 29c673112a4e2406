"""Cross-validation of device-mapping models (paper §7.2).

"We use leave-one-out cross-validation to evaluate predictive models.  For
each benchmark, a model is trained on data from all other benchmarks and
used to predict the mapping for each kernel and dataset in the excluded
program.  We repeat this process with and without the addition of synthetic
benchmarks in the training data.  We do not test model predictions on
synthetic benchmarks."

Measurements are grouped by *benchmark program* so that every dataset class
of a program is held out together (no leakage between a program's datasets).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.driver.harness import KernelMeasurement
from repro.predictive.metrics import PredictionOutcome
from repro.predictive.model import MappingModel

ModelFactory = Callable[[str], MappingModel]


@dataclass
class CrossValidationResult:
    """All prediction outcomes from one leave-one-benchmark-out run."""

    platform: str
    outcomes: list[PredictionOutcome] = field(default_factory=list)
    outcomes_by_benchmark: dict[str, list[PredictionOutcome]] = field(default_factory=dict)
    folds: int = 0

    @property
    def accuracy(self) -> float:
        if not self.outcomes:
            return 0.0
        return sum(o.correct for o in self.outcomes) / len(self.outcomes)


def group_by_benchmark(
    measurements: list[KernelMeasurement], benchmark_of: Callable[[KernelMeasurement], str] | None = None
) -> dict[str, list[KernelMeasurement]]:
    """Group measurements by their benchmark program name."""
    groups: dict[str, list[KernelMeasurement]] = {}
    for measurement in measurements:
        key = benchmark_of(measurement) if benchmark_of else measurement.name.split(".")[0]
        groups.setdefault(key, []).append(measurement)
    return groups


def leave_one_benchmark_out(
    measurements_by_benchmark: dict[str, list[KernelMeasurement]],
    model_factory: ModelFactory,
    platform: str,
    extra_training: list[KernelMeasurement] | None = None,
) -> CrossValidationResult:
    """Run leave-one-benchmark-out cross-validation.

    Every fold trains on the same measurements less one program, so each
    distinct measurement's feature vector and oracle label are extracted
    once per call, by a model from *model_factory*
    (:meth:`MappingModel.rows`).  Each fold then grows a fresh model's tree
    on the rows of its training measurements and predicts from the rows of
    the held-out program.

    Args:
        measurements_by_benchmark: Test observations grouped by program; every
            program is excluded from training in its own fold.
        model_factory: Builds a fresh untrained model for a platform.
        platform: Platform name ("AMD" or "NVIDIA").
        extra_training: Additional training-only observations (e.g. CLgen
            synthetic benchmarks); never used as test data.

    Returns:
        A :class:`CrossValidationResult` with per-observation outcomes.
    """
    extra_training = extra_training or []
    result = CrossValidationResult(platform=platform)
    # Keyed by identity: Figure 3's extra training repeats a measurement
    # when it neighbours several outliers.
    distinct = {id(m): m for group in measurements_by_benchmark.values() for m in group}
    distinct.update((id(m), m) for m in extra_training)
    features, labels = model_factory(platform).rows(list(distinct.values()))
    rows = dict(zip(distinct, zip(features, labels)))

    benchmarks = sorted(measurements_by_benchmark)
    for held_out in benchmarks:
        test_measurements = measurements_by_benchmark[held_out]
        training: list[KernelMeasurement] = []
        for other in benchmarks:
            if other != held_out:
                training.extend(measurements_by_benchmark[other])
        training.extend(extra_training)
        if not training or not test_measurements:
            continue

        # A training set with a single class still produces a usable
        # (constant) model; the decision tree handles that case natively.
        training_rows = [rows[id(m)] for m in training]
        tree = model_factory(platform).classifier.fit(
            [row for row, _ in training_rows], [label for _, label in training_rows]
        )

        fold_outcomes = [
            PredictionOutcome(
                measurement=measurement,
                predicted_device=tree.predict_one(rows[id(measurement)][0]),
                platform=platform,
            )
            for measurement in test_measurements
        ]
        result.outcomes.extend(fold_outcomes)
        result.outcomes_by_benchmark[held_out] = fold_outcomes
        result.folds += 1
    return result


def train_test_split_evaluation(
    train: list[KernelMeasurement],
    test: list[KernelMeasurement],
    model_factory: ModelFactory,
    platform: str,
) -> CrossValidationResult:
    """Train on one set of measurements and evaluate on another.

    Used by the Table 1 experiment (train on suite X, test on suite Y).
    """
    result = CrossValidationResult(platform=platform)
    if not train or not test:
        return result
    model = model_factory(platform)
    model.fit(train)
    result.outcomes = [
        PredictionOutcome(
            measurement=measurement,
            predicted_device=model.predict(measurement),
            platform=platform,
        )
        for measurement in test
    ]
    result.folds = 1
    return result
