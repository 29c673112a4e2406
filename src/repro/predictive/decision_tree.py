"""A CART decision-tree classifier, implemented from scratch.

The Grewe et al. model "uses supervised learning to construct a decision
tree"; this is the corresponding learner: binary splits on single features
chosen by Gini impurity, grown to a configurable depth with a minimum leaf
size, majority-vote leaves, and deterministic tie-breaking so experiments
are reproducible.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np


@dataclass
class TreeNode:
    """One node of a fitted tree."""

    prediction: str
    feature_index: int | None = None
    threshold: float = 0.0
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    samples: int = 0
    impurity: float = 0.0

    @property
    def is_leaf(self) -> bool:
        return self.left is None or self.right is None


@dataclass
class DecisionTreeClassifier:
    """CART classifier over dense float feature vectors and string labels."""

    max_depth: int = 6
    min_samples_leaf: int = 2
    min_samples_split: int = 4
    root: TreeNode | None = field(default=None, repr=False)
    feature_count: int = 0
    classes_: tuple[str, ...] = ()

    # ------------------------------------------------------------------
    # Fitting.
    # ------------------------------------------------------------------

    def fit(self, features: list[list[float]] | np.ndarray, labels: list[str]) -> "DecisionTreeClassifier":
        data = np.asarray(features, dtype=float)
        if data.ndim != 2 or len(labels) != data.shape[0]:
            raise ValueError("features must be 2D and aligned with labels")
        if data.shape[0] == 0:
            raise ValueError("cannot fit a tree on zero samples")
        targets = np.asarray(labels, dtype=object)
        self.feature_count = data.shape[1]
        self.classes_ = tuple(sorted(set(labels)))
        self.root = self._grow(data, targets, depth=0)
        return self

    @staticmethod
    def _gini(targets: np.ndarray) -> float:
        if targets.size == 0:
            return 0.0
        counts = Counter(targets.tolist())
        total = targets.size
        return 1.0 - sum((count / total) ** 2 for count in counts.values())

    @staticmethod
    def _majority(targets: np.ndarray) -> str:
        counts = Counter(targets.tolist())
        # Deterministic tie-break: lexicographically smallest most-common label.
        best = sorted(counts.items(), key=lambda item: (-item[1], str(item[0])))[0][0]
        return str(best)

    def _grow(self, data: np.ndarray, targets: np.ndarray, depth: int) -> TreeNode:
        node = TreeNode(
            prediction=self._majority(targets),
            samples=int(targets.size),
            impurity=self._gini(targets),
        )
        if (
            depth >= self.max_depth
            or targets.size < self.min_samples_split
            or node.impurity == 0.0
        ):
            return node

        best_gain = 0.0
        best_split: tuple[int, float] | None = None
        parent_impurity = node.impurity
        total = targets.size

        for feature_index in range(data.shape[1]):
            column = data[:, feature_index]
            candidates = np.unique(column)
            if candidates.size < 2:
                continue
            thresholds = (candidates[:-1] + candidates[1:]) / 2.0
            for threshold in thresholds:
                left_mask = column <= threshold
                left_count = int(left_mask.sum())
                right_count = total - left_count
                if left_count < self.min_samples_leaf or right_count < self.min_samples_leaf:
                    continue
                gain = parent_impurity - (
                    left_count / total * self._gini(targets[left_mask])
                    + right_count / total * self._gini(targets[~left_mask])
                )
                if gain > best_gain + 1e-12:
                    best_gain = gain
                    best_split = (feature_index, float(threshold))

        if best_split is None:
            return node

        feature_index, threshold = best_split
        left_mask = data[:, feature_index] <= threshold
        node.feature_index = feature_index
        node.threshold = threshold
        node.left = self._grow(data[left_mask], targets[left_mask], depth + 1)
        node.right = self._grow(data[~left_mask], targets[~left_mask], depth + 1)
        return node

    # ------------------------------------------------------------------
    # Prediction.
    # ------------------------------------------------------------------

    def predict_one(self, features: list[float] | np.ndarray) -> str:
        if self.root is None:
            raise ValueError("the tree has not been fitted")
        vector = np.asarray(features, dtype=float)
        node = self.root
        while not node.is_leaf:
            assert node.feature_index is not None
            if vector[node.feature_index] <= node.threshold:
                node = node.left  # type: ignore[assignment]
            else:
                node = node.right  # type: ignore[assignment]
        return node.prediction

    def predict(self, features: list[list[float]] | np.ndarray) -> list[str]:
        return [self.predict_one(row) for row in np.asarray(features, dtype=float)]

    def accuracy(self, features, labels: list[str]) -> float:
        predictions = self.predict(features)
        if not labels:
            return 0.0
        return sum(p == l for p, l in zip(predictions, labels)) / len(labels)

    # ------------------------------------------------------------------
    # Introspection (useful in tests and reports).
    # ------------------------------------------------------------------

    @property
    def depth(self) -> int:
        def measure(node: TreeNode | None) -> int:
            if node is None or node.is_leaf:
                return 0
            return 1 + max(measure(node.left), measure(node.right))

        return measure(self.root)

    def feature_importances(self) -> list[float]:
        """Total Gini-gain attributed to each feature index, normalized."""
        importances = np.zeros(self.feature_count)

        def visit(node: TreeNode | None) -> None:
            if node is None or node.is_leaf:
                return
            left, right = node.left, node.right
            assert left is not None and right is not None and node.feature_index is not None
            weighted_child = (
                left.samples * left.impurity + right.samples * right.impurity
            ) / max(node.samples, 1)
            importances[node.feature_index] += node.samples * (node.impurity - weighted_child)
            visit(left)
            visit(right)

        visit(self.root)
        total = importances.sum()
        if total > 0:
            importances /= total
        return importances.tolist()
