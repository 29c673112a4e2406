"""A CART decision-tree classifier, implemented from scratch.

The Grewe et al. model "uses supervised learning to construct a decision
tree"; this is the corresponding learner: binary splits on single features
chosen by Gini impurity, grown to a configurable depth with a minimum leaf
size, majority-vote leaves, and deterministic tie-breaking so experiments
are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def _gini(class_counts: list[int], total: int) -> float:
    """Gini impurity of *total* samples with these per-class counts."""
    return 1.0 - sum([(count / total) ** 2 for count in class_counts])


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
        self.feature_count = data.shape[1]
        self.classes_ = tuple(sorted(set(labels)))
        code = {label: index for index, label in enumerate(self.classes_)}
        # One row per sample, one column per class: a 1 in the label's column.
        one_hot = np.eye(len(self.classes_), dtype=np.int64)[[code[label] for label in labels]]
        self.root = self._grow(data, one_hot, depth=0)
        return self

    def _majority(self, class_counts: list[int]) -> str:
        # Deterministic tie-break: lexicographically smallest most-common label.
        best = min(
            range(len(class_counts)),
            key=lambda index: (-class_counts[index], str(self.classes_[index])),
        )
        return str(self.classes_[best])

    def _grow(self, data: np.ndarray, one_hot: np.ndarray, depth: int) -> TreeNode:
        """Grow the subtree of the samples in *data* (labels as *one_hot* rows).

        A feature's candidate thresholds are the midpoints of its unique
        values.  Each column is sorted once per node: a threshold's left
        count is the number of sorted values ``<=`` it (``searchsorted``
        with ``side="right"``, which equals the mask count even when a
        midpoint rounds onto the upper value), and the per-class counts on
        each side come from cumulative class counts in sorted order.  Gains
        are Python floats computed from Python ints, so they are the same
        bits as a per-threshold mask-and-count search would give.  Features
        are scored in index order and thresholds ascending, and a split
        replaces the best only if its gain is larger by more than 1e-12.
        Gini sums its per-class terms in class order; for two classes (the
        mapping labels, ``cpu`` and ``gpu``) that sum does not depend on
        the order.
        """
        total = one_hot.shape[0]
        class_totals = one_hot.sum(axis=0)
        class_counts = class_totals.tolist()
        node = TreeNode(
            prediction=self._majority(class_counts),
            samples=total,
            impurity=_gini(class_counts, total),
        )
        if (
            depth >= self.max_depth
            or total < self.min_samples_split
            or node.impurity == 0.0
        ):
            return node

        best_gain = 0.0
        best_split: tuple[int, float] | None = None
        parent_impurity = node.impurity
        # A threshold that leaves one side empty scores a gain of exactly 0,
        # which never wins, so both sides need at least one sample.
        min_leaf = max(self.min_samples_leaf, 1)
        # cumulative[k, f] holds the class counts of the first k samples in
        # feature f's sorted order.
        orders = np.argsort(data, axis=0, kind="stable")
        columns = np.take_along_axis(data, orders, axis=0)
        sorted_labels = one_hot[orders]
        cumulative = np.zeros((total + 1, *sorted_labels.shape[1:]), dtype=np.int64)
        np.cumsum(sorted_labels, axis=0, out=cumulative[1:])

        for feature_index in range(data.shape[1]):
            column = columns[:, feature_index]
            candidates = np.unique(column)
            if candidates.size < 2:
                continue
            thresholds = (candidates[:-1] + candidates[1:]) / 2.0
            left_counts = np.searchsorted(column, thresholds, side="right")
            allowed = (left_counts >= min_leaf) & (total - left_counts >= min_leaf)
            left_counts = left_counts[allowed]
            left_classes = cumulative[left_counts, feature_index]
            for threshold, left, left_k, right_k in zip(
                thresholds[allowed].tolist(),
                left_counts.tolist(),
                left_classes.tolist(),
                (class_totals - left_classes).tolist(),
            ):
                right = total - left
                gain = parent_impurity - (
                    left / total * _gini(left_k, left) + right / total * _gini(right_k, right)
                )
                if gain > best_gain + 1e-12:
                    best_gain = gain
                    best_split = (feature_index, threshold)

        if best_split is None:
            return node

        feature_index, threshold = best_split
        left_mask = data[:, feature_index] <= threshold
        node.feature_index = feature_index
        node.threshold = threshold
        node.left = self._grow(data[left_mask], one_hot[left_mask], depth + 1)
        node.right = self._grow(data[~left_mask], one_hot[~left_mask], depth + 1)
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
