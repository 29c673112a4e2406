"""The device-mapping predictive models.

Two models are provided, matching the paper's §7–§8:

* :class:`GreweModel` — the state-of-the-art baseline reproduced from Grewe,
  Wang and O'Boyle (CGO 2013): a decision tree over the four combined
  features of Table 2b, predicting whether an OpenCL kernel runs faster on
  the CPU or the GPU.
* :class:`ExtendedModel` — the paper's §8.2 extension: the same learner over
  the raw feature values *plus* a static branch count, which fixes the two
  generalisation failures the synthetic benchmarks exposed.

Both operate directly on :class:`~repro.driver.harness.KernelMeasurement`
records so the training data can come from benchmark suites, GitHub kernels
or CLgen output interchangeably.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.driver.harness import KernelMeasurement
from repro.features.grewe import (
    FeatureVector,
    extended_feature_vector,
    grewe_feature_vector,
)
from repro.predictive.decision_tree import DecisionTreeClassifier

FeatureExtractor = Callable[[KernelMeasurement], FeatureVector]


@dataclass
class MappingModel:
    """A device-mapping predictor: feature extractor + decision tree."""

    feature_extractor: FeatureExtractor
    platform: str
    max_depth: int = 6
    min_samples_leaf: int = 2
    classifier: DecisionTreeClassifier = field(default=None, repr=False)  # type: ignore[assignment]
    name: str = "mapping-model"

    def __post_init__(self) -> None:
        if self.classifier is None:
            self.classifier = DecisionTreeClassifier(
                max_depth=self.max_depth, min_samples_leaf=self.min_samples_leaf
            )

    # ------------------------------------------------------------------

    def features_of(self, measurement: KernelMeasurement) -> list[float]:
        return self.feature_extractor(measurement).as_list()

    def rows(
        self, measurements: list[KernelMeasurement]
    ) -> tuple[list[list[float]], list[str]]:
        """Feature vectors and oracle mappings for the platform, one per measurement."""
        features = [self.features_of(m) for m in measurements]
        labels = [m.oracle(self.platform) for m in measurements]
        return features, labels

    def fit(self, measurements: list[KernelMeasurement]) -> "MappingModel":
        """Train on measurements labelled by their oracle mapping for the platform."""
        if not measurements:
            raise ValueError("cannot train a mapping model on zero measurements")
        self.classifier.fit(*self.rows(measurements))
        return self

    def predict(self, measurement: KernelMeasurement) -> str:
        """Predicted device ("cpu" or "gpu") for one kernel/dataset."""
        return self.classifier.predict_one(self.features_of(measurement))

    def accuracy(self, measurements: list[KernelMeasurement]) -> float:
        if not measurements:
            return 0.0
        return self.classifier.accuracy(*self.rows(measurements))


def GreweModel(platform: str, max_depth: int = 6, min_samples_leaf: int = 2) -> MappingModel:
    """The baseline Grewe et al. predictive model for *platform*."""
    return MappingModel(
        feature_extractor=grewe_feature_vector,
        platform=platform,
        max_depth=max_depth,
        min_samples_leaf=min_samples_leaf,
        name="grewe",
    )


def ExtendedModel(platform: str, max_depth: int = 8, min_samples_leaf: int = 2) -> MappingModel:
    """The §8.2 extended model (raw features + branch count) for *platform*."""
    return MappingModel(
        feature_extractor=extended_feature_vector,
        platform=platform,
        max_depth=max_depth,
        min_samples_leaf=min_samples_leaf,
        name="extended",
    )
