"""``repro.predictive`` — the Grewe et al. predictive model and its extension."""

from repro.predictive.crossval import (
    CrossValidationResult,
    group_by_benchmark,
    leave_one_benchmark_out,
    train_test_split_evaluation,
)
from repro.predictive.decision_tree import DecisionTreeClassifier, TreeNode
from repro.predictive.metrics import (
    PredictionOutcome,
    accuracy,
    best_static_device,
    geometric_mean,
    mean_speedup,
    performance_relative_to_oracle,
    speedup_over_static,
)
from repro.predictive.model import ExtendedModel, GreweModel, MappingModel

__all__ = [
    "CrossValidationResult",
    "DecisionTreeClassifier",
    "ExtendedModel",
    "GreweModel",
    "MappingModel",
    "PredictionOutcome",
    "TreeNode",
    "accuracy",
    "best_static_device",
    "geometric_mean",
    "group_by_benchmark",
    "leave_one_benchmark_out",
    "mean_speedup",
    "performance_relative_to_oracle",
    "speedup_over_static",
    "train_test_split_evaluation",
]
