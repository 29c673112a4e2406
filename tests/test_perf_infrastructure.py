"""Tests for the PR-1 performance infrastructure.

Covers the batched LSTM sampler (lock-step chains must be real samples of
the same model the sequential sampler uses), the sample wavefront (every
width must reproduce the sequential per-stream reference) and the
preprocessing result cache (in-memory and on-disk).
"""

from __future__ import annotations

import dataclasses
import random

import numpy as np
import pytest

from repro.model.lstm import LSTMConfig, LSTMLanguageModel
from repro.preprocess.cache import PreprocessCache, outcome_key
from repro.preprocess.pipeline import PreprocessingPipeline
from repro.synthesis.sampler import SamplerConfig


TRAINING_TEXT = (
    "__kernel void A(__global float* a, __global float* b, const int c) {\n"
    "  int d = get_global_id(0);\n"
    "  if (d < c) { a[d] = b[d] + 1.0f; }\n"
    "}\n"
) * 8


@pytest.fixture(scope="module")
def tiny_lstm() -> LSTMLanguageModel:
    model = LSTMLanguageModel(LSTMConfig.test_configuration())
    model.fit(TRAINING_TEXT)
    return model


class TestBatchSampler:
    def test_batch_matches_sequential_distribution(self, tiny_lstm):
        """Feeding the same context must give every chain the sequential
        sampler's next-character distribution."""
        context = "__kernel void A("
        sequential = tiny_lstm.make_sampler(context)
        batched = tiny_lstm.make_batch_sampler(context, batch_size=5)
        expected = sequential.next_distribution()
        batch = batched.next_distribution()
        assert batch.shape == (5, tiny_lstm.vocabulary.size)
        for row in range(5):
            np.testing.assert_allclose(batch[row], expected, rtol=1e-10)

    def test_sampled_characters_come_from_vocabulary(self, tiny_lstm):
        batched = tiny_lstm.make_batch_sampler("__kernel ", batch_size=4)
        rng = random.Random(11)
        for _ in range(8):
            characters = batched.sample(rng, temperature=0.8)
            assert len(characters) == 4
            for character in characters:
                assert len(character) == 1

    def test_compact_drops_finished_chains(self, tiny_lstm):
        batched = tiny_lstm.make_batch_sampler("k", batch_size=6)
        batched.compact([0, 2, 5])
        assert batched.batch_size == 3
        assert batched.next_distribution().shape[0] == 3
        # Sampling still advances the surviving chains.
        characters = batched.sample(random.Random(0))
        assert len(characters) == 3


def _stream_outcomes(results):
    """The observable per-stream outcome tuple used for bit-identity checks."""
    return [
        (
            entry.index,
            entry.kernel.source if entry.kernel else None,
            entry.kernel.raw_sample if entry.kernel else None,
            entry.kernel.attempt_index if entry.kernel else None,
            dataclasses.asdict(entry.statistics),
        )
        for entry in results
    ]


class TestWavefront:
    """The batched cross-stream sample stage must be invisible in the output:
    every wavefront width produces bit-identical kernels and statistics to
    the sequential reference (per-stream RNG isolation)."""

    BUDGET = 6

    def _sequential(self, clgen, count, seed):
        """The sequential reference: one single-stream range per stream (a
        single stream takes the plain attempt loop)."""
        return [
            entry
            for index in range(count)
            for entry in clgen.generate_kernel_range(
                index, index + 1, seed=seed, max_attempts_per_kernel=self.BUDGET
            )
        ]

    def test_ngram_widths_match_sequential(self, clgen):
        reference = _stream_outcomes(self._sequential(clgen, 8, seed=5))
        for width in (1, 2, 3, 8, 50):
            batched = clgen.generate_kernel_wavefront(
                0, 8, seed=5, max_attempts_per_kernel=self.BUDGET, batch_size=width
            )
            assert _stream_outcomes(batched) == reference, f"width {width}"
        # The equality above is only meaningful if the run exercised the
        # refill path: rejected attempts must have recycled their lanes.
        assert any(outcome[4]["rejected"] > 0 for outcome in reference)

    def test_budget_exhaustion_mid_batch(self, clgen):
        """Streams that exhaust their attempt budget while others are still
        in flight must drop out without disturbing any other stream."""
        reference = _stream_outcomes(
            self._sequential(type(clgen)(clgen.model, min_static_instructions=999), 6, seed=2)
        )
        strict = type(clgen)(clgen.model, min_static_instructions=999)
        for width in (2, 6):
            batched = strict.generate_kernel_wavefront(
                0, 6, seed=2, max_attempts_per_kernel=self.BUDGET, batch_size=width
            )
            assert _stream_outcomes(batched) == reference, f"width {width}"
        # With an unsatisfiable filter every stream exhausts its budget.
        assert all(outcome[1] is None for outcome in reference)
        assert all(outcome[4]["attempts"] == self.BUDGET for outcome in reference)

    def test_lstm_widths_match_sequential(self, tiny_lstm, corpus):
        from repro.synthesis.generator import CLgen

        clgen = CLgen(
            tiny_lstm, corpus=corpus, sampler_config=SamplerConfig(max_kernel_length=120)
        )
        reference = _stream_outcomes(self._sequential(clgen, 4, seed=7))
        for width in (2, 4):
            batched = clgen.generate_kernel_wavefront(
                0, 4, seed=7, max_attempts_per_kernel=self.BUDGET, batch_size=width
            )
            assert _stream_outcomes(batched) == reference, f"width {width}"

    def test_single_stream_range_is_the_sequential_path(self, clgen, monkeypatch):
        """A one-stream range must not merely match the wavefront output —
        it must *be* the sequential code path (the reference above)."""

        def _boom(*args, **kwargs):  # pragma: no cover - the assertion
            raise AssertionError("wavefront invoked for a single stream")

        monkeypatch.setattr(clgen, "generate_kernel_wavefront", _boom)
        results = self._sequential(clgen, 3, seed=5)
        assert [entry.index for entry in results] == [0, 1, 2]

    def test_multi_stream_range_runs_the_wavefront(self, clgen, monkeypatch):
        """A range of two or more streams must run through the wavefront,
        byte-identically to the sequential reference."""
        reference = _stream_outcomes(self._sequential(clgen, 5, seed=5))
        calls = []
        wavefront = clgen.generate_kernel_wavefront

        def _spy(*args, **kwargs):
            calls.append(args)
            return wavefront(*args, **kwargs)

        monkeypatch.setattr(clgen, "generate_kernel_wavefront", _spy)
        routed = clgen.generate_kernel_range(0, 5, seed=5, max_attempts_per_kernel=self.BUDGET)
        assert calls == [(0, 5)]
        assert _stream_outcomes(routed) == reference


ACCEPTED_SOURCE = (
    "__kernel void foo(__global float* data, const int n) {\n"
    "  int i = get_global_id(0);\n"
    "  data[i] = data[i] * 2.0f;\n"
    "  data[0] = 1.0f; data[1] = 2.0f;\n"
    "}\n"
)
REJECTED_SOURCE = "this is not OpenCL at all {{{"


class TestPreprocessCacheAndParallelism:
    def _inputs(self):
        variants = [ACCEPTED_SOURCE.replace("2.0f", f"{k}.0f") for k in range(2, 20)]
        return variants + [REJECTED_SOURCE, ACCEPTED_SOURCE, ACCEPTED_SOURCE]

    def test_repeat_run_is_served_from_cache(self):
        cache = PreprocessCache()
        pipeline = PreprocessingPipeline(cache=cache)
        inputs = self._inputs()
        first = pipeline.run(inputs)
        hits_before = cache.hits
        second = pipeline.run(inputs)
        assert cache.hits >= hits_before + len(inputs)
        assert second.corpus_texts == first.corpus_texts
        assert dataclasses.asdict(second.statistics) == dataclasses.asdict(first.statistics)

    def test_disk_cache_survives_new_pipeline_instance(self, tmp_path):
        directory = tmp_path / "preprocess-cache"
        first_cache = PreprocessCache(directory=str(directory))
        PreprocessingPipeline(cache=first_cache).run([ACCEPTED_SOURCE, REJECTED_SOURCE])

        # A fresh cache instance (fresh process, conceptually) reads the
        # entries back from disk without reprocessing.
        second_cache = PreprocessCache(directory=str(directory))
        pipeline = PreprocessingPipeline(cache=second_cache)
        result = pipeline.run([ACCEPTED_SOURCE, REJECTED_SOURCE])
        assert second_cache.hits == 2
        assert second_cache.misses == 0
        assert result.statistics.accepted_files == 1
        assert result.statistics.rejected_files == 1

    def test_cache_key_depends_on_configuration(self):
        with_shim = outcome_key(ACCEPTED_SOURCE, True, True, 3)
        without_shim = outcome_key(ACCEPTED_SOURCE, False, True, 3)
        no_rename = outcome_key(ACCEPTED_SOURCE, True, False, 3)
        higher_bar = outcome_key(ACCEPTED_SOURCE, True, True, 5)
        assert len({with_shim, without_shim, no_rename, higher_bar}) == 4

    def test_corrupt_disk_entry_is_recomputed(self, tmp_path):
        directory = tmp_path / "preprocess-cache"
        cache = PreprocessCache(directory=str(directory))
        key = outcome_key(ACCEPTED_SOURCE, True, True, 3)
        pipeline = PreprocessingPipeline(cache=cache)
        pipeline.run([ACCEPTED_SOURCE])
        entry = cache.entry_path(key)
        assert entry is not None and entry.exists()
        entry.write_bytes(b"garbage")

        fresh = PreprocessCache(directory=str(directory))
        result = PreprocessingPipeline(cache=fresh).run([ACCEPTED_SOURCE])
        assert result.statistics.accepted_files == 1


class TestBenchCompareScaleGuard:
    """`scripts/bench_compare.py` must refuse to diff snapshots taken at
    different REPRO_BENCH_SCALEs — a full-vs-quick comparison reads as a
    huge fake regression (ISSUE 4 CI satellite)."""

    @staticmethod
    def _compare(tmp_path, old: dict, new: dict, *extra: str) -> int:
        import json
        import subprocess
        import sys
        from pathlib import Path

        script = Path(__file__).resolve().parent.parent / "scripts" / "bench_compare.py"
        old_path, new_path = tmp_path / "old.json", tmp_path / "new.json"
        old_path.write_text(json.dumps(old))
        new_path.write_text(json.dumps(new))
        return subprocess.run(
            [sys.executable, str(script), str(old_path), str(new_path), *extra],
            capture_output=True,
        ).returncode

    def test_scale_mismatch_is_refused(self, tmp_path):
        quick = {"scale": "quick", "phases_seconds": {"execute": 0.4}, "total_seconds": 0.4}
        full = {"scale": "full", "phases_seconds": {"execute": 9.0}, "total_seconds": 9.0}
        assert self._compare(tmp_path, quick, full) == 2

    def test_scale_mismatch_override(self, tmp_path):
        quick = {"scale": "quick", "phases_seconds": {"execute": 0.4}, "total_seconds": 0.4}
        full = {"scale": "full", "phases_seconds": {"execute": 0.4}, "total_seconds": 0.4}
        assert self._compare(tmp_path, quick, full, "--allow-scale-mismatch") == 0

    def test_matching_scales_compare(self, tmp_path):
        old = {"scale": "quick", "phases_seconds": {"execute": 0.4}, "total_seconds": 0.4}
        new = {"scale": "quick", "phases_seconds": {"execute": 0.41}, "total_seconds": 0.41}
        assert self._compare(tmp_path, old, new) == 0

    def test_regression_still_fails_at_matching_scale(self, tmp_path):
        old = {"scale": "quick", "phases_seconds": {"execute": 0.4}, "total_seconds": 0.4}
        new = {"scale": "quick", "phases_seconds": {"execute": 0.9}, "total_seconds": 0.9}
        assert self._compare(tmp_path, old, new) == 1


class TestBenchCompareSchemaFlag:
    """ISSUE 5 CI satellite: a sample comparison across a synthesis schema
    bump measures *different kernels*, so `bench_compare` FLAGs it instead
    of failing — while the other phases still gate normally."""

    @staticmethod
    def _compare(tmp_path, old: dict, new: dict, *extra: str):
        import json
        import subprocess
        import sys
        from pathlib import Path

        script = Path(__file__).resolve().parent.parent / "scripts" / "bench_compare.py"
        old_path, new_path = tmp_path / "old.json", tmp_path / "new.json"
        old_path.write_text(json.dumps(old))
        new_path.write_text(json.dumps(new))
        return subprocess.run(
            [sys.executable, str(script), str(old_path), str(new_path), *extra],
            capture_output=True,
            text=True,
        )

    def test_sample_regression_across_bump_is_flagged_not_failed(self, tmp_path):
        old = {"scale": "quick", "phases_seconds": {"sample": 0.4, "execute": 0.4}}
        new = {"scale": "quick", "sample_schema": 2,
               "phases_seconds": {"sample": 0.9, "execute": 0.4}}
        completed = self._compare(tmp_path, old, new)
        assert completed.returncode == 0
        assert "FLAG" in completed.stderr
        assert "re-baselined" in completed.stderr
        assert "REGRESSION" not in completed.stderr

    def test_other_phases_still_gate_across_bump(self, tmp_path):
        old = {"scale": "quick", "phases_seconds": {"sample": 0.4, "execute": 0.4}}
        new = {"scale": "quick", "sample_schema": 2,
               "phases_seconds": {"sample": 0.9, "execute": 0.9}}
        completed = self._compare(tmp_path, old, new)
        assert completed.returncode == 1
        assert "REGRESSION" in completed.stderr
        assert "'execute'" in completed.stderr

    def test_same_schema_sample_regression_still_fails(self, tmp_path):
        old = {"scale": "quick", "sample_schema": 2,
               "phases_seconds": {"sample": 0.4}}
        new = {"scale": "quick", "sample_schema": 2,
               "phases_seconds": {"sample": 0.9}}
        completed = self._compare(tmp_path, old, new)
        assert completed.returncode == 1
        assert "REGRESSION" in completed.stderr

    def test_missing_field_reads_as_chain_schema_v1(self, tmp_path):
        # Two pre-bump snapshots (no field) compare as the same schema.
        old = {"scale": "quick", "phases_seconds": {"sample": 0.4}}
        new = {"scale": "quick", "phases_seconds": {"sample": 0.9}}
        completed = self._compare(tmp_path, old, new)
        assert completed.returncode == 1
        assert "REGRESSION" in completed.stderr


class TestBenchCompareAllowRegression:
    """PR 10's specialization moves per-candidate frontend + analysis work
    from execute into sample-time seeding — a deliberate cost shift.
    ``--allow-regression PHASE`` acknowledges it: the slowdown still prints
    as a FLAG, but only unlisted phases fail the comparison."""

    _compare = staticmethod(TestBenchCompareSchemaFlag._compare)

    def test_allowed_phase_regression_is_flagged_not_failed(self, tmp_path):
        old = {"scale": "full", "phases_seconds": {"sample": 2.29, "execute": 2.69}}
        new = {"scale": "full", "phases_seconds": {"sample": 2.61, "execute": 1.34}}
        completed = self._compare(tmp_path, old, new, "--allow-regression", "sample")
        assert completed.returncode == 0
        assert "FLAG" in completed.stderr
        assert "'sample'" in completed.stderr
        assert "REGRESSION" not in completed.stderr

    def test_unlisted_phase_still_fails(self, tmp_path):
        old = {"scale": "full", "phases_seconds": {"sample": 2.29, "execute": 2.69}}
        new = {"scale": "full", "phases_seconds": {"sample": 2.61, "execute": 3.40}}
        completed = self._compare(tmp_path, old, new, "--allow-regression", "sample")
        assert completed.returncode == 1
        assert "'execute'" in completed.stderr

    def test_flag_is_repeatable(self, tmp_path):
        old = {"scale": "full", "phases_seconds": {"sample": 2.29, "train": 0.38}}
        new = {"scale": "full", "phases_seconds": {"sample": 2.61, "train": 0.50}}
        completed = self._compare(
            tmp_path, old, new,
            "--allow-regression", "sample", "--allow-regression", "train",
        )
        assert completed.returncode == 0
        assert "REGRESSION" not in completed.stderr
