"""Tests for the host driver, dynamic checker, features and predictive models."""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.clc import parse
from repro.driver import (
    CheckOutcome,
    DriverConfig,
    DynamicChecker,
    HostDriver,
    PayloadConfig,
    PayloadGenerator,
)
from repro.features import (
    EXTENDED_FEATURE_NAMES,
    GREWE_FEATURE_NAMES,
    PCA,
    GreweFeatures,
    StaticFeatures,
    extended_feature_vector,
    extract_static_features,
    grewe_feature_vector,
)
from repro.features.dynamic_features import DynamicFeatures
from repro.predictive import (
    DecisionTreeClassifier,
    ExtendedModel,
    GreweModel,
    MappingModel,
    PredictionOutcome,
    TreeNode,
    best_static_device,
    geometric_mean,
    group_by_benchmark,
    leave_one_benchmark_out,
    mean_speedup,
    performance_relative_to_oracle,
)
import numpy as np


class TestPayloadGenerator:
    def test_paper_rules(self, reduction_source):
        payload = PayloadGenerator(PayloadConfig(global_size=128, local_size=32)).generate_for_source(
            reduction_source
        )
        # Global pointers get Sg elements; local pointers get work-group size.
        assert payload.pool.get("in").size == 128
        assert payload.pool.get("tmp").size == 32
        assert payload.pool.get("tmp").address_space == "local"
        # Integral arguments are given the value Sg.
        assert payload.scalar_args["n"] == 128

    def test_transfer_accounting(self, vecadd_source):
        payload = PayloadGenerator(PayloadConfig(global_size=64)).generate_for_source(vecadd_source)
        assert payload.transfer_to_device_bytes == 3 * 64 * 4
        assert payload.transfer_from_device_bytes > 0
        assert payload.transfer_bytes == payload.transfer_to_device_bytes + payload.transfer_from_device_bytes

    def test_clone_has_equal_values_but_independent_buffers(self, vecadd_source):
        payload = PayloadGenerator(PayloadConfig(global_size=16)).generate_for_source(vecadd_source)
        clone = payload.clone()
        assert clone.pool.get("a").equals(payload.pool.get("a"))
        clone.pool.get("a").store(0, 123.0)
        assert not clone.pool.get("a").equals(payload.pool.get("a"))

    def test_payloads_differ_across_seeds(self, vecadd_source):
        a = PayloadGenerator(PayloadConfig(global_size=16, seed=1)).generate_for_source(vecadd_source)
        b = PayloadGenerator(PayloadConfig(global_size=16, seed=2)).generate_for_source(vecadd_source)
        assert not a.pool.get("a").equals(b.pool.get("a"))


class TestDynamicChecker:
    def setup_method(self):
        self.checker = DynamicChecker(PayloadConfig(global_size=32, local_size=16))

    def test_useful_kernel(self, vecadd_source):
        assert self.checker.check(parse(vecadd_source)).outcome is CheckOutcome.USEFUL

    def test_no_output_kernel(self):
        source = ("__kernel void A(__global float* a, const int n) {\n"
                  "  float x = a[get_global_id(0)] * 2.0f;\n}")
        assert self.checker.check(parse(source)).outcome is CheckOutcome.NO_OUTPUT

    def test_input_insensitive_kernel(self):
        source = ("__kernel void A(__global float* a, const int n) {\n"
                  "  a[get_global_id(0)] = 1.0f;\n}")
        assert self.checker.check(parse(source)).outcome is CheckOutcome.INPUT_INSENSITIVE

    def test_timeout_kernel(self):
        checker = DynamicChecker(PayloadConfig(global_size=8, local_size=8),
                                 max_steps_per_item=200)
        source = ("__kernel void A(__global float* a, const int n) {\n"
                  "  while (1) { a[0] += 1.0f; }\n}")
        assert checker.check(parse(source)).outcome is CheckOutcome.TIMEOUT

    def test_scalar_only_kernel_has_no_output_buffers(self):
        source = "__kernel void A(const int n) { int x = n * 2; }"
        assert self.checker.check(parse(source)).outcome is CheckOutcome.NO_GLOBAL_OUTPUT_BUFFERS

    def test_four_executions_for_useful_kernel(self, vecadd_source):
        result = self.checker.check(parse(vecadd_source))
        assert result.executions == 4


class TestHostDriver:
    def test_measurement_fields(self, driver, vecadd_source):
        measurement = driver.measure_source(vecadd_source, name="vecadd", dataset_scale=16.0)
        assert measurement is not None
        assert set(measurement.runtimes) == {"AMD", "NVIDIA"}
        assert measurement.oracle("AMD") in ("cpu", "gpu")
        assert measurement.transfer_bytes > 0
        assert measurement.stats.work_items > 0

    def test_uncompilable_source_returns_none(self, driver):
        assert driver.measure_source("this is not OpenCL") is None

    def test_dataset_scale_changes_runtimes(self, driver, compute_heavy_source):
        small = driver.measure_source(compute_heavy_source, dataset_scale=1.0)
        large = driver.measure_source(compute_heavy_source, dataset_scale=1000.0)
        assert large.runtime("AMD", "cpu") > small.runtime("AMD", "cpu")

    def test_compute_heavy_kernel_maps_to_gpu_at_scale(self, driver, compute_heavy_source):
        large = driver.measure_source(compute_heavy_source, dataset_scale=20000.0)
        assert large.oracle("AMD") == "gpu"

    def test_measurement_noise_is_deterministic(self, vecadd_source):
        config = DriverConfig(executed_global_size=32, local_size=16, measurement_noise=0.3)
        a = HostDriver(config=config).measure_source(vecadd_source, name="x", dataset_scale=4.0)
        b = HostDriver(config=config).measure_source(vecadd_source, name="x", dataset_scale=4.0)
        assert a.runtime("AMD", "cpu") == b.runtime("AMD", "cpu")

    def test_measure_many_skips_failures(self, driver, vecadd_source):
        measurements = driver.measure_many([vecadd_source, "garbage ("], names=["ok", "bad"])
        assert [m.name for m in measurements] == ["ok"]


class TestFeatures:
    def test_table2a_static_features(self, vecadd_source):
        features = extract_static_features(vecadd_source)
        assert features is not None
        assert features.mem == 3 and features.coalesced == 3
        assert features.localmem == 0 and features.branches == 1
        assert features.as_tuple() == (features.comp, features.mem, features.localmem,
                                       features.coalesced)

    def test_local_memory_feature(self, reduction_source):
        features = extract_static_features(reduction_source)
        assert features.localmem > 0

    def test_uncompilable_source_gives_none(self):
        assert extract_static_features("not opencl") is None

    def test_table2b_combined_features(self):
        static = StaticFeatures(comp=10, mem=5, localmem=5, coalesced=4, branches=2)
        dynamic = DynamicFeatures(transfer=300.0, wgsize=64)
        combined = GreweFeatures.from_raw(static, dynamic)
        assert combined.f1_communication_computation == pytest.approx(300.0 / 15.0)
        assert combined.f2_coalesced_fraction == pytest.approx(0.8)
        assert combined.f3_local_work == pytest.approx(64.0)
        assert combined.f4_computation_memory == pytest.approx(2.0)

    def test_zero_memory_accesses_do_not_divide_by_zero(self):
        static = StaticFeatures(comp=10, mem=0, localmem=0, coalesced=0, branches=0)
        dynamic = DynamicFeatures(transfer=100.0, wgsize=32)
        combined = GreweFeatures.from_raw(static, dynamic)
        assert combined.f2_coalesced_fraction == 0.0 and combined.f4_computation_memory == 0.0

    def test_feature_vectors_from_measurement(self, driver, vecadd_source):
        measurement = driver.measure_source(vecadd_source, dataset_scale=8.0)
        grewe = grewe_feature_vector(measurement)
        extended = extended_feature_vector(measurement)
        assert grewe.names == GREWE_FEATURE_NAMES and len(grewe) == 4
        assert extended.names == EXTENDED_FEATURE_NAMES and len(extended) == 11
        # The extended vector embeds the combined features as its tail.
        assert extended.values[-4:] == grewe.values

    def test_pca_projects_to_two_components(self):
        rng = np.random.default_rng(0)
        data = rng.normal(size=(30, 5))
        projected, result = PCA(n_components=2).fit_transform(data)
        assert projected.shape == (30, 2)
        assert len(result.explained_variance_ratio) == 2

    def test_pca_requires_two_rows(self):
        with pytest.raises(ValueError):
            PCA().fit(np.zeros((1, 3)))


class TestDecisionTree:
    def test_learns_simple_threshold(self):
        features = [[float(i)] for i in range(20)]
        labels = ["cpu" if i < 10 else "gpu" for i in range(20)]
        tree = DecisionTreeClassifier(max_depth=3).fit(features, labels)
        assert tree.predict_one([2.0]) == "cpu"
        assert tree.predict_one([15.0]) == "gpu"
        assert tree.accuracy(features, labels) == 1.0

    def test_single_class_training(self):
        tree = DecisionTreeClassifier().fit([[1.0], [2.0]], ["gpu", "gpu"])
        assert tree.predict_one([5.0]) == "gpu"

    def test_max_depth_is_respected(self):
        rng = np.random.default_rng(1)
        features = rng.normal(size=(200, 4)).tolist()
        labels = ["a" if sum(row) > 0 else "b" for row in features]
        tree = DecisionTreeClassifier(max_depth=2).fit(features, labels)
        assert tree.depth <= 2

    def test_empty_training_raises(self):
        with pytest.raises(ValueError):
            DecisionTreeClassifier().fit([], [])

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.tuples(st.floats(-10, 10), st.sampled_from(["cpu", "gpu"])),
                    min_size=4, max_size=40))
    def test_training_accuracy_at_least_majority(self, rows):
        features = [[value] for value, _ in rows]
        labels = [label for _, label in rows]
        tree = DecisionTreeClassifier(max_depth=8, min_samples_leaf=1, min_samples_split=2)
        tree.fit(features, labels)
        majority = max(labels.count("cpu"), labels.count("gpu")) / len(labels)
        assert tree.accuracy(features, labels) >= majority - 1e-9


def mask_oracle_tree(
    features: list[list[float]],
    labels: list[str],
    max_depth: int,
    min_samples_leaf: int,
    min_samples_split: int,
) -> TreeNode:
    """The mask + ``Counter`` split search that the presorted search replaced.

    Every candidate threshold re-masks the column and counts both sides'
    labels from scratch; kept here as the reference for
    :class:`DecisionTreeClassifier`'s growth rules.
    """

    def gini(targets: np.ndarray) -> float:
        if targets.size == 0:
            return 0.0
        counts = Counter(targets.tolist())
        return 1.0 - sum((count / targets.size) ** 2 for count in counts.values())

    def majority(targets: np.ndarray) -> str:
        counts = Counter(targets.tolist())
        return str(sorted(counts.items(), key=lambda item: (-item[1], str(item[0])))[0][0])

    def grow(data: np.ndarray, targets: np.ndarray, depth: int) -> TreeNode:
        node = TreeNode(
            prediction=majority(targets), samples=int(targets.size), impurity=gini(targets)
        )
        if depth >= max_depth or targets.size < min_samples_split or node.impurity == 0.0:
            return node
        best_gain, best_split = 0.0, None
        total = targets.size
        for feature_index in range(data.shape[1]):
            column = data[:, feature_index]
            candidates = np.unique(column)
            if candidates.size < 2:
                continue
            for threshold in (candidates[:-1] + candidates[1:]) / 2.0:
                left_mask = column <= threshold
                left_count = int(left_mask.sum())
                right_count = total - left_count
                if left_count < min_samples_leaf or right_count < min_samples_leaf:
                    continue
                gain = node.impurity - (
                    left_count / total * gini(targets[left_mask])
                    + right_count / total * gini(targets[~left_mask])
                )
                if gain > best_gain + 1e-12:
                    best_gain, best_split = gain, (feature_index, float(threshold))
        if best_split is None:
            return node
        node.feature_index, node.threshold = best_split
        left_mask = data[:, node.feature_index] <= node.threshold
        node.left = grow(data[left_mask], targets[left_mask], depth + 1)
        node.right = grow(data[~left_mask], targets[~left_mask], depth + 1)
        return node

    return grow(np.asarray(features, dtype=float), np.asarray(labels, dtype=object), 0)


def tree_nodes(node: TreeNode | None) -> list[tuple]:
    """Every node of a tree in preorder, as the fields a fit decides."""
    if node is None:
        return [None]
    return [
        (node.feature_index, node.threshold, node.prediction, node.samples, node.impurity),
        *tree_nodes(node.left),
        *tree_nodes(node.right),
    ]


class TestSplitSearchOracle:
    @settings(max_examples=200, deadline=None)
    @given(
        data=st.data(),
        rows=st.integers(1, 40),
        columns=st.integers(1, 4),
        high=st.integers(1, 6),
        scale=st.sampled_from([1.0, 0.1, 1.0 / 3.0, 2.0**-52]),
        max_depth=st.integers(0, 7),
        min_samples_leaf=st.integers(0, 4),
        min_samples_split=st.integers(0, 6),
    )
    def test_presorted_search_grows_the_oracle_tree(
        self, data, rows, columns, high, scale, max_depth, min_samples_leaf, min_samples_split
    ):
        """Small-integer columns tie often, so many thresholds score alike
        and the first-best rule decides the split.  At scale 2**-52 the
        values are adjacent floats above 1.0, and half of the midpoints
        round onto the upper value."""
        row = st.lists(st.integers(0, high), min_size=columns, max_size=columns)
        matrix = data.draw(st.lists(row, min_size=rows, max_size=rows))
        features = [[1.0 + value * scale for value in values] for values in matrix]
        labels = data.draw(st.lists(st.sampled_from(["cpu", "gpu"]), min_size=rows, max_size=rows))
        tree = DecisionTreeClassifier(
            max_depth=max_depth,
            min_samples_leaf=min_samples_leaf,
            min_samples_split=min_samples_split,
        ).fit(features, labels)
        oracle = mask_oracle_tree(
            features, labels, max_depth, min_samples_leaf, min_samples_split
        )
        assert tree_nodes(tree.root) == tree_nodes(oracle)

    # The oracle costs O(thresholds x rows) per node, so few examples.
    @settings(max_examples=40, deadline=None)
    @given(
        data=st.data(),
        rows=st.integers(100, 140),
        columns=st.integers(2, 11),
        high=st.integers(1, 12),
        scale=st.sampled_from([1.0, 0.1, 1.0 / 3.0, 2.0**-52]),
        max_depth=st.integers(1, 8),
        min_samples_leaf=st.integers(0, 4),
        min_samples_split=st.integers(0, 6),
    )
    def test_presorted_search_grows_the_oracle_tree_at_experiment_shapes(
        self, data, rows, columns, high, scale, max_depth, min_samples_leaf, min_samples_split
    ):
        """Figure 8's extended model fits about 133 rows of 11 features.
        Some columns are copies of earlier ones, so their gains tie exactly
        and the lower feature index must win."""
        fresh = st.lists(st.integers(0, high), min_size=rows, max_size=rows)
        matrix_columns: list[list[int]] = []
        for index in range(columns):
            if index and data.draw(st.booleans()):
                matrix_columns.append(matrix_columns[data.draw(st.integers(0, index - 1))])
            else:
                matrix_columns.append(data.draw(fresh))
        features = [[1.0 + column[row] * scale for column in matrix_columns] for row in range(rows)]
        labels = data.draw(st.lists(st.sampled_from(["cpu", "gpu"]), min_size=rows, max_size=rows))
        tree = DecisionTreeClassifier(
            max_depth=max_depth,
            min_samples_leaf=min_samples_leaf,
            min_samples_split=min_samples_split,
        ).fit(features, labels)
        oracle = mask_oracle_tree(
            features, labels, max_depth, min_samples_leaf, min_samples_split
        )
        assert tree_nodes(tree.root) == tree_nodes(oracle)

    def test_tied_features_split_on_the_lower_index(self):
        column = [float(row % 7) for row in range(140)]
        labels = ["cpu" if value < 3 else "gpu" for value in column]
        features = [[1.0, value, value] for value in column]
        tree = DecisionTreeClassifier().fit(features, labels)
        assert tree.root.feature_index == 1 and tree.root.threshold == 2.5


class TestPredictiveModels:
    @pytest.fixture(scope="class")
    def measurements(self, driver):
        from repro.suites import suite

        out = []
        for benchmark in suite("Parboil").benchmarks + suite("NVIDIA SDK").benchmarks:
            for dataset in benchmark.datasets:
                measurement = driver.measure_source(
                    benchmark.source,
                    name=f"{benchmark.qualified_name}.{dataset.name}",
                    dataset_scale=dataset.scale,
                )
                if measurement is not None:
                    out.append(measurement)
        return out

    def test_grewe_model_beats_chance_on_training_set(self, measurements):
        model = GreweModel("AMD").fit(measurements)
        assert model.accuracy(measurements) >= 0.6

    def test_extended_model_uses_eleven_features(self, measurements):
        model = ExtendedModel("NVIDIA").fit(measurements)
        assert len(model.features_of(measurements[0])) == 11
        assert model.predict(measurements[0]) in ("cpu", "gpu")

    def test_leave_one_benchmark_out_excludes_held_out_program(self, measurements):
        groups = group_by_benchmark(measurements, lambda m: ".".join(m.name.split(".")[:2]))
        result = leave_one_benchmark_out(groups, GreweModel, "AMD")
        assert result.folds == len(groups)
        assert len(result.outcomes) == len(measurements)

    def test_leave_one_benchmark_out_extracts_each_measurement_once(self, measurements):
        """Every fold trains on the same rows less one program, so one call
        extracts each measurement's features once and still predicts what a
        model fitted afresh on each fold predicts."""
        tests = [m for m in measurements if m.name.startswith("Parboil.")]
        extra = [m for m in measurements if not m.name.startswith("Parboil.")]
        groups = group_by_benchmark(tests, lambda m: ".".join(m.name.split(".")[:2]))
        extracted: Counter = Counter()

        def counting_model(platform: str) -> MappingModel:
            model = ExtendedModel(platform)
            extractor = model.feature_extractor

            def counting(measurement):
                extracted[measurement.name] += 1
                return extractor(measurement)

            model.feature_extractor = counting
            return model

        # Figure 3's extra training repeats a synthetic that neighbours two
        # outliers: the repeat is a second training row, not a second
        # extraction.
        extra += extra[:2]
        result = leave_one_benchmark_out(groups, counting_model, "AMD", extra_training=extra)
        assert extracted == Counter(m.name for m in measurements)

        reference = []
        for held_out in sorted(groups):
            training = [m for other in sorted(groups) if other != held_out for m in groups[other]]
            model = ExtendedModel("AMD").fit(training + extra)
            reference.extend((m.name, model.predict(m)) for m in groups[held_out])
        assert result.folds == len(groups)
        assert [(o.measurement.name, o.predicted_device) for o in result.outcomes] == reference

    def test_metrics(self, measurements):
        model = GreweModel("AMD").fit(measurements)
        outcomes = [
            PredictionOutcome(measurement=m, predicted_device=model.predict(m), platform="AMD")
            for m in measurements
        ]
        oracle_fraction = performance_relative_to_oracle(outcomes)
        assert 0.0 < oracle_fraction <= 1.0 + 1e-9
        static = best_static_device(measurements, "AMD")
        assert static in ("cpu", "gpu")
        assert mean_speedup(outcomes, static) > 0.0

    def test_geometric_mean(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)
        assert geometric_mean([]) == 0.0
