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

#: How far below the running maximum of the earlier approximate gains a
#: candidate's approximate gain must fall to be skipped (see ``_grow``).
_PRUNE_MARGIN = 1e-9


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
        values.  Each column is sorted once per node, and the candidates of
        all features are the places where neighbouring sorted values differ,
        in scan order: features by index, thresholds ascending.  A
        threshold's left count is the number of sorted values ``<=`` it
        (``searchsorted`` with ``side="right"``, which equals the mask count
        even when a midpoint rounds onto the upper value), and the
        per-class counts on each side come from cumulative class counts in
        sorted order.

        The winner is the first candidate in scan order whose exact gain
        beats the best so far by more than 1e-12.  Exact gains are Python
        floats computed from Python ints, so they are the same bits as a
        per-threshold mask-and-count search would give.  NumPy first scores
        every candidate approximately (its ``x**2`` is ``x*x``, Python's is
        ``pow``), within about 1e-15 of the exact gain, and a candidate
        more than ``_PRUNE_MARGIN`` (1e-9) below the running maximum of the
        earlier approximate gains (from 0.0) is never scored exactly.  That
        is exact: the best only changes to a gain more than 1e-12 above it,
        so after each candidate's turn the best is at least that
        candidate's exact gain minus 1e-12 (and an ulp of rounding), and at
        least 0.0.  A pruned candidate's exact gain is below an earlier
        one's (or 0.0) by more than 1e-9 less twice the approximation
        error, so at its turn it would not have beaten the best by 1e-12
        either; skipping it changes no later comparison.  Gini sums its
        per-class terms in class order; for two classes (the mapping
        labels, ``cpu`` and ``gpu``) that sum does not depend on the order.
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

        # Every candidate of every feature, in scan order: candidate j lies
        # between sorted rows positions[j] and positions[j] + 1 of column
        # features[j], whose values differ.
        features, positions = np.nonzero((columns[1:] != columns[:-1]).T)
        thresholds = (columns[positions, features] + columns[positions + 1, features]) / 2.0
        left_counts = np.empty_like(positions)
        starts = np.searchsorted(features, np.arange(data.shape[1] + 1)).tolist()
        for feature_index in range(data.shape[1]):
            span = slice(starts[feature_index], starts[feature_index + 1])
            left_counts[span] = np.searchsorted(
                columns[:, feature_index], thresholds[span], side="right"
            )
        allowed = (left_counts >= min_leaf) & (total - left_counts >= min_leaf)
        features, thresholds, left_counts = (
            features[allowed], thresholds[allowed], left_counts[allowed]
        )
        left_classes = cumulative[left_counts, features]
        right_classes = class_totals - left_classes
        right_counts = total - left_counts
        approximate = parent_impurity - (
            left_counts / total * (1.0 - ((left_classes / left_counts[:, None]) ** 2).sum(axis=1))
            + right_counts / total * (1.0 - ((right_classes / right_counts[:, None]) ** 2).sum(axis=1))
        )
        # Only candidates within the margin of the best earlier approximate
        # gain (or of 0.0) can still win; they are scored exactly, in scan
        # order.
        earlier_best = np.maximum.accumulate(np.concatenate(([0.0], approximate)))[:-1]
        survivors = np.flatnonzero(approximate >= earlier_best - _PRUNE_MARGIN)
        for feature_index, threshold, left, left_k, right_k in zip(
            features[survivors].tolist(),
            thresholds[survivors].tolist(),
            left_counts[survivors].tolist(),
            left_classes[survivors].tolist(),
            right_classes[survivors].tolist(),
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
