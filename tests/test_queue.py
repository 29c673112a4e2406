"""Tests for the work-stealing shard scheduler (``repro.store.queue``) and
the independently-seeded parallel sample shards (ISSUE 5).

The headline invariants:

* the claim protocol admits exactly one winner per claim lifetime — across
  racing threads, expired-lease stealers, and crashed workers;
* queue-drained runs (one worker, several in-process workers, and two
  separate ``repro worker`` processes) leave store entries byte-identical
  to an unsharded run, for every stage kind including the newly parallel
  sample stage.
"""

from __future__ import annotations

import json
import os
import pickle
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.store.artifact_store import ArtifactStore
from repro.store.queue import (
    ShardQueue,
    drain_plan,
    load_plans,
    plan_fingerprint,
    publish_plan,
    queue_status,
)
from repro.store.shards import _SAMPLE, _SUITE_EXEC, shard_ranges
from repro.store.stages import PipelineConfig, PipelineRunner

SHARDS = 3

#: Every whole-pipeline artifact kind a fully drained plan must contain.
WHOLE_KINDS = (
    "mine",
    "corpus",
    "model",
    "synthesis",
    "suite-measurements",
    "synthetic-measurements",
)


def canonical_bytes(value) -> bytes:
    return pickle.dumps(pickle.loads(pickle.dumps(value)))


def tiny_config() -> PipelineConfig:
    return PipelineConfig(
        repository_count=12,
        seed=3,
        synthetic_kernel_count=5,
        executed_global_size=32,
        local_size=16,
        payload_seed=3,
        suites=("NPB",),
    )


@pytest.fixture(scope="module")
def reference_store(tmp_path_factory):
    """An unsharded on-disk resolution of :func:`tiny_config` — the byte
    ground truth every queue-drained store is compared against."""
    directory = tmp_path_factory.mktemp("reference") / "store"
    runner = PipelineRunner(store=ArtifactStore(directory=directory))
    cfg = tiny_config()
    runner.content_files(cfg)
    runner.synthesis(cfg)
    runner.suite_measurements(cfg)
    runner.synthetic_measurements(cfg)
    return directory


def assert_stores_byte_identical(reference: Path, candidate: Path) -> None:
    for kind in WHOLE_KINDS:
        entries = sorted((reference / kind).glob("*/*.pkl"))
        assert entries, f"reference store is missing {kind} entries"
        for entry in entries:
            twin = candidate / kind / entry.parent.name / entry.name
            assert twin.exists(), f"{kind}: drained run missed key {entry.name}"
            assert entry.read_bytes() == twin.read_bytes(), kind


class TestClaimProtocol:
    def test_claim_admits_exactly_one_winner(self, tmp_path):
        queue = ShardQueue(tmp_path, lease_seconds=60)
        barrier = threading.Barrier(8)
        outcomes = []

        def contender():
            barrier.wait()
            outcomes.append(queue.try_claim("task"))

        threads = [threading.Thread(target=contender) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert sum(outcomes) == 1

    def test_unexpired_claim_is_not_stealable(self, tmp_path):
        first = ShardQueue(tmp_path, lease_seconds=60)
        second = ShardQueue(tmp_path, lease_seconds=60)
        assert first.try_claim("task")
        assert not second.try_claim("task")
        assert second.holder("task")["worker"] == first.worker_id

    def test_expired_claim_is_stolen_by_exactly_one(self, tmp_path):
        holder = ShardQueue(tmp_path, lease_seconds=60)
        assert holder.try_claim("task")
        # Age the claim past the stealers' long lease rather than sleeping
        # out a short one: under a short lease, a race that outlasts it
        # sees the winner's fresh claim expire too, and a second steal
        # would be correct protocol.
        expired = time.time() - 120
        os.utime(holder._claim_path("task"), (expired, expired))
        barrier = threading.Barrier(8)
        outcomes = []

        def stealer():
            queue = ShardQueue(tmp_path, lease_seconds=60)
            barrier.wait()
            outcomes.append(queue.try_claim("task"))

        threads = [threading.Thread(target=stealer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert sum(outcomes) == 1
        # The steal left no .stale litter behind.
        assert list(tmp_path.glob("queue/claims/*.stale.*")) == []

    def test_forced_interleaving_keeps_one_thief_per_expired_claim(self, tmp_path):
        """More thieves than cores, switching threads every microsecond so
        they interleave between judging a claim expired and acting on it:
        every expired claim still goes to exactly one thief, which charges
        the dead holder exactly one attempt.  (A thief acting on an
        out-of-date judgment would steal the winner's fresh claim and
        charge a second attempt.)"""
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for round_number in range(100):
                directory = tmp_path / f"round-{round_number}"
                holder = ShardQueue(directory, lease_seconds=60)
                assert holder.try_claim("task")
                expired = time.time() - 120
                os.utime(holder._claim_path("task"), (expired, expired))
                barrier = threading.Barrier(8)
                outcomes = []

                def thief():
                    queue = ShardQueue(directory, lease_seconds=60)
                    barrier.wait(timeout=30)
                    outcomes.append(queue.try_claim("task"))

                threads = [threading.Thread(target=thief) for _ in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                    assert not thread.is_alive()
                assert sum(outcomes) == 1, f"round {round_number}: {outcomes}"
                assert len(holder.attempts("task")) == 1, f"round {round_number}"
        finally:
            sys.setswitchinterval(previous)

    def test_dead_thief_token_is_cleared_after_a_lease(self, tmp_path):
        """A thief that died mid-steal leaves its token behind; once the
        token outlives the lease it is cleared, so the expired claim does
        not stay unstealable forever."""
        holder = ShardQueue(tmp_path, lease_seconds=60)
        assert holder.try_claim("task")
        path = holder._claim_path("task")
        expired = time.time() - 120
        os.utime(path, (expired, expired))
        seen = path.stat()
        token = path.with_name(f"{path.name}.stale.{seen.st_ino}.{seen.st_mtime_ns}")
        token.touch()
        thief = ShardQueue(tmp_path, lease_seconds=60)
        assert not thief.try_claim("task")  # a live rival's token: back off
        assert token.exists()
        os.utime(token, (expired, expired))
        assert not thief.try_claim("task")  # the dead rival's token is cleared
        assert not token.exists()
        assert thief.try_claim("task")
        assert thief.holder("task")["worker"] == thief.worker_id

    def test_complete_releases_the_claim(self, tmp_path):
        queue = ShardQueue(tmp_path, lease_seconds=60)
        assert queue.try_claim("task")
        queue.complete("task")
        assert queue.try_claim("task")

    def test_refresh_extends_the_lease(self, tmp_path):
        holder = ShardQueue(tmp_path, lease_seconds=0.2)
        thief = ShardQueue(tmp_path, lease_seconds=0.2)
        assert holder.try_claim("task")
        time.sleep(0.15)
        holder.refresh("task")
        time.sleep(0.1)
        # 0.25s after the claim but only 0.1s after the refresh: not stealable.
        assert not thief.try_claim("task")

    def test_lease_default_comes_from_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_QUEUE_LEASE", "12.5")
        assert ShardQueue(tmp_path).lease_seconds == 12.5
        monkeypatch.setenv("REPRO_QUEUE_LEASE", "soon")
        with pytest.warns(RuntimeWarning, match="REPRO_QUEUE_LEASE"):
            queue = ShardQueue(tmp_path)
        from repro.store.queue import DEFAULT_LEASE_SECONDS

        assert queue.lease_seconds == DEFAULT_LEASE_SECONDS


class TestPlans:
    def test_publish_and_load_round_trip(self, tmp_path):
        store = ArtifactStore(directory=tmp_path / "store")
        cfg = tiny_config()
        key = publish_plan(store, cfg, SHARDS)
        assert key == plan_fingerprint(cfg, SHARDS)
        plans = load_plans(store)
        assert [k for k, _ in plans] == [key]
        assert plans[0][1] == {"config": cfg, "shards": SHARDS}

    def test_republishing_is_idempotent(self, tmp_path):
        store = ArtifactStore(directory=tmp_path / "store")
        cfg = tiny_config()
        key = publish_plan(store, cfg, SHARDS)
        path = store.entry_path("plan", key)
        first = path.read_bytes()
        publish_plan(store, cfg, SHARDS)
        assert path.read_bytes() == first
        assert len(load_plans(store)) == 1

    def test_different_configs_publish_different_plans(self, tmp_path):
        store = ArtifactStore(directory=tmp_path / "store")
        publish_plan(store, tiny_config(), SHARDS)
        publish_plan(store, tiny_config().with_count(7), SHARDS)
        assert len(load_plans(store)) == 2

    def test_load_plans_orders_by_priority_then_key(self, tmp_path):
        """Plans load in key order alone: a plan value still carrying the
        old priority field loads, and its priority reorders nothing."""
        store = ArtifactStore(directory=tmp_path / "store")
        keys = [
            publish_plan(store, tiny_config().with_count(count), SHARDS)
            for count in (7, 8, 9)
        ]
        store.put(
            "plan",
            keys[2],
            {"config": tiny_config().with_count(9), "shards": SHARDS, "priority": 10},
        )
        assert [key for key, _value in load_plans(store)] == sorted(keys)

    def test_publish_warns_about_a_single_shard_plan(self, tmp_path):
        import warnings

        store = ArtifactStore(directory=tmp_path / "store")
        with pytest.warns(RuntimeWarning, match="single-shard plan"):
            publish_plan(store, tiny_config(), 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            publish_plan(store, tiny_config(), 3)

    def test_malformed_plans_are_skipped_with_a_warning(self, tmp_path):
        store = ArtifactStore(directory=tmp_path / "store")
        good = publish_plan(store, tiny_config(), SHARDS)
        malformed = {
            "aa" * 32: ["not", "a", "dict"],
            "bb" * 32: {"config": None, "shards": SHARDS},
            "cc" * 32: {"config": tiny_config(), "shards": True},
            "dd" * 32: {"config": tiny_config(), "shards": 0},
            "ee" * 32: {"config": "tiny", "shards": SHARDS},
        }
        for key, value in malformed.items():
            store.put("plan", key, value)
        with pytest.warns(RuntimeWarning) as record:
            plans = load_plans(store)
        assert [key for key, _value in plans] == [good]
        warned = " ".join(str(warning.message) for warning in record)
        for key in malformed:
            assert key[:12] in warned


class TestQueueDrainedBitIdentity:
    """Acceptance: queue-drained runs leave byte-equal store entries."""

    def test_single_worker_drain_matches_unsharded(self, tmp_path, reference_store):
        directory = tmp_path / "store"
        runner = PipelineRunner(
            store=ArtifactStore(directory=directory), shards=SHARDS, steal=True
        )
        drain_plan(runner, tiny_config())
        assert_stores_byte_identical(reference_store, directory)
        # The drain left no claims behind.
        assert list(directory.glob("queue/claims/*.claim")) == []

    def test_three_inprocess_workers_drain_one_plan(self, tmp_path, reference_store):
        """Several steal-mode runners in one process (threads) race over one
        store; the union of their work must equal the unsharded run."""
        directory = tmp_path / "store"
        directory.mkdir()
        cfg = tiny_config()
        errors = []

        def work():
            try:
                runner = PipelineRunner(
                    store=ArtifactStore(directory=directory),
                    shards=SHARDS,
                    steal=True,
                    poll_seconds=0.01,
                )
                drain_plan(runner, cfg)
            except Exception as error:  # pragma: no cover - diagnostic
                errors.append(error)

        threads = [threading.Thread(target=work) for _ in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert_stores_byte_identical(reference_store, directory)

    def test_two_worker_processes_join_via_cli(self, tmp_path, reference_store):
        """The end-to-end story: publish a plan, point two separate
        ``repro worker`` processes at the store, and get an unsharded-
        identical store out."""
        directory = tmp_path / "store"
        store = ArtifactStore(directory=directory)
        publish_plan(store, tiny_config(), SHARDS)

        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        env.pop("REPRO_STORE_DIR", None)
        workers = [
            subprocess.Popen(
                [sys.executable, "-m", "repro", "worker", "--store", str(directory)],
                env=env,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            )
            for _ in range(2)
        ]
        for worker in workers:
            stdout, stderr = worker.communicate(timeout=300)
            assert worker.returncode == 0, stderr
            assert "drained 1 plan(s)" in stdout
        assert_stores_byte_identical(reference_store, directory)
        assert list(directory.glob("queue/claims/*.claim")) == []

    def test_worker_cli_without_store_errors(self, monkeypatch, capsys):
        from repro.cli import main

        monkeypatch.delenv("REPRO_STORE_DIR", raising=False)
        assert main(["worker"]) == 2
        assert "on-disk store" in capsys.readouterr().err

    def test_worker_cli_with_no_plans_is_a_noop(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["worker", "--store", str(tmp_path / "store")]) == 0
        assert "no published plans" in capsys.readouterr().err

    def test_worker_skips_a_malformed_plan_and_drains_a_legacy_one(
        self, tmp_path, reference_store, capsys
    ):
        """A malformed plan entry ends in a warning, not a crash, and a
        plan published with the old priority field still drains."""
        from repro.cli import main

        directory = tmp_path / "store"
        store = ArtifactStore(directory=directory)
        cfg = tiny_config()
        store.put(
            "plan",
            plan_fingerprint(cfg, SHARDS),
            {"config": cfg, "shards": SHARDS, "priority": 3},
        )
        bad = "ab" * 32
        store.put("plan", bad, {"config": None})
        with pytest.warns(RuntimeWarning, match=bad[:12]):
            assert main(["worker", "--store", str(directory)]) == 0
        assert "drained 1 plan(s)" in capsys.readouterr().out
        assert_stores_byte_identical(reference_store, directory)


class TestStragglerRecovery:
    def test_expired_shard_claim_is_stolen_back(self, tmp_path, reference_store):
        """A straggler (crashed or wedged) holds a shard claim past its
        lease; a live drain steals it back and completes the stage."""
        cfg = tiny_config()
        directory = tmp_path / "store"
        straggler = ShardQueue(directory, lease_seconds=0.05)
        key = _SUITE_EXEC.keys(cfg, SHARDS)[1]
        assert straggler.try_claim(key)
        time.sleep(0.1)  # the lease expires; the straggler never completes

        runner = PipelineRunner(
            store=ArtifactStore(directory=directory),
            shards=SHARDS,
            steal=True,
            lease_seconds=0.05,
            poll_seconds=0.01,
        )
        runner.suite_measurements(cfg)
        reference = PipelineRunner(
            store=ArtifactStore(directory=reference_store)
        ).suite_measurements(cfg)
        assert canonical_bytes(runner.suite_measurements(cfg)) == canonical_bytes(
            reference
        )

    def test_live_claim_makes_drain_wait_not_duplicate(self, tmp_path):
        """While a claim is live, other workers poll instead of computing;
        when the holder completes, the waiter serves the stored artifact."""
        cfg = tiny_config()
        directory = tmp_path / "store"
        store = ArtifactStore(directory=directory)
        holder = ShardQueue(directory, lease_seconds=60)
        key = _SAMPLE.keys(cfg, SHARDS)[0]
        assert holder.try_claim(key)

        computed = {}

        def complete_later():
            time.sleep(0.3)
            worker = PipelineRunner(
                store=ArtifactStore(directory=directory), shards=SHARDS
            )
            computed["value"] = _SAMPLE.resolve(worker, cfg, 0, SHARDS)
            holder.complete(key)

        thread = threading.Thread(target=complete_later)
        thread.start()
        waiter = PipelineRunner(
            store=store, shards=SHARDS, steal=True, poll_seconds=0.01
        )
        value = waiter.synthesis(cfg)
        thread.join()
        # The waiter's shard-0 resolution was a hit on the holder's entry,
        # not a duplicate compute.
        shard_events = [
            event for event in waiter.events if event.fingerprint == key
        ]
        assert shard_events and shard_events[0].hit
        assert value.kernels  # and the merge still produced the batch

    def test_crashed_writer_leaves_reclaimable_state(self, tmp_path, reference_store):
        """A worker that died mid-shard leaves a held claim and a partial
        ``.tmp.`` spill in the store.  The claim expires and is stolen, the
        recompute lands the real entry, and gc sweeps the stale spill."""
        cfg = tiny_config()
        directory = tmp_path / "store"
        store = ArtifactStore(directory=directory)
        crashed = ShardQueue(directory, lease_seconds=0.05)
        key = _SUITE_EXEC.keys(cfg, SHARDS)[0]
        assert crashed.try_claim(key)
        # Simulate the crash: a half-written temp file beside the entry slot.
        entry_path = store.entry_path("suite-measurements-shard", key)
        entry_path.parent.mkdir(parents=True, exist_ok=True)
        spill = entry_path.with_suffix(".tmp.99999.1")
        spill.write_bytes(b"partial write from a dead worker")
        time.sleep(0.1)

        runner = PipelineRunner(
            store=store,
            shards=SHARDS,
            steal=True,
            lease_seconds=0.05,
            poll_seconds=0.01,
        )
        merged = runner.suite_measurements(cfg)
        assert entry_path.exists()
        reference = PipelineRunner(
            store=ArtifactStore(directory=reference_store)
        ).suite_measurements(cfg)
        assert canonical_bytes(merged) == canonical_bytes(reference)
        # The spill was never read as an entry, and a dated gc pass sweeps it.
        assert spill.exists()
        store.gc(now=time.time() + 3601.0)
        assert not spill.exists()


class TestSampleFanout:
    """The sample stage now fans out: any shard is computable in isolation."""

    def test_middle_sample_shard_computable_alone(self, tmp_path):
        """Under the old chain, shard 2 needed shards 0 and 1 first.  Now it
        is a pure function of (config, range): computing only shard 2 must
        reproduce exactly the unsharded batch's kernels at those indices."""
        cfg = tiny_config()
        runner = PipelineRunner(store=ArtifactStore(directory=tmp_path / "store"), shards=SHARDS)
        start, stop = shard_ranges(cfg.synthetic_kernel_count, SHARDS)[2]
        entries = _SAMPLE.resolve(runner, cfg, 2, SHARDS)
        assert [entry.index for entry in entries] == list(range(start, stop))
        # No other sample shard was computed on the way.
        counts = runner.stage_counts()
        assert counts["sample"] == {"hit": 0, "miss": 1}

        plain = PipelineRunner(store=ArtifactStore(directory=None))
        whole = plain.clgen(cfg).generate_kernel_range(
            0,
            cfg.synthetic_kernel_count,
            seed=cfg.sample_seed,
            max_attempts_per_kernel=cfg.max_attempts_per_kernel,
        )
        assert canonical_bytes(entries) == canonical_bytes(whole[start:stop])

    def test_stream_seeds_are_stable_and_distinct(self):
        from repro.synthesis.sampler import stream_seed

        # Cross-session stability (these are content addresses of a sort:
        # changing the derivation re-baselines every sampled kernel).
        assert stream_seed(0, 0) == stream_seed(0, 0)
        seeds = {stream_seed(0, index) for index in range(100)}
        assert len(seeds) == 100
        assert stream_seed(0, 1) != stream_seed(1, 0)

    def test_merge_reclassifies_cross_stream_duplicates(self):
        from repro.synthesis.generator import (
            KernelStreamResult,
            SyntheticKernel,
            SynthesisStatistics,
            merge_stream_results,
        )

        def kernel(source):
            from repro.synthesis.argspec import ArgumentSpec

            return SyntheticKernel(
                source=source,
                raw_sample=source,
                argument_spec=ArgumentSpec.paper_default(),
                attempt_index=0,
            )

        entries = [
            KernelStreamResult(0, kernel("__kernel void A() {}"),
                               SynthesisStatistics(requested=1, generated=1, attempts=1)),
            KernelStreamResult(1, kernel("__kernel void A() {}"),
                               SynthesisStatistics(requested=1, generated=1, attempts=2,
                                                   rejected=1)),
            KernelStreamResult(2, None,
                               SynthesisStatistics(requested=1, attempts=3, rejected=3)),
            KernelStreamResult(3, kernel("__kernel void B() {}"),
                               SynthesisStatistics(requested=1, generated=1, attempts=1)),
        ]
        result = merge_stream_results(entries, requested=4)
        assert [k.source for k in result.kernels] == [
            "__kernel void A() {}", "__kernel void B() {}",
        ]
        stats = result.statistics
        assert stats.requested == 4
        assert stats.generated == 2
        assert stats.duplicates == 1
        assert stats.attempts == 7
        assert stats.generated + stats.rejected == stats.attempts
        assert stats.rejection_reasons["duplicate"] == 1

    def test_batched_per_stream_sampling_matches_sequential(self):
        """With one RNG per lane, the n-gram batch sampler must yield
        characters bit-identical to sampling each stream alone — the
        property that lets the wavefront serve the parallel shards."""
        from repro.errors import ModelError
        from repro.synthesis.sampler import stream_rng

        runner = PipelineRunner(store=ArtifactStore(directory=None))
        model = runner.trained_model(tiny_config()).model
        seed_text = "__kernel void A(__global float* a) {"
        steps = 200

        batch = model.make_batch_sampler(seed_text, 4)
        rngs = [stream_rng(9, index) for index in range(4)]
        lanes = zip(*(batch.sample(rngs, 0.6) for _ in range(steps)))
        batched = ["".join(characters) for characters in lanes]
        sequential = []
        for index in range(4):
            state, rng = model.make_sampler(seed_text), stream_rng(9, index)
            sequential.append("".join(state.sample(rng, 0.6) for _ in range(steps)))
        assert batched == sequential

        with pytest.raises(ModelError, match="per-chain rngs"):
            batch.sample(rngs[:2], 0.6)


class TestTrainCliRoundTrip:
    """ISSUE 5 satellite: `repro train --backend lstm --lstm-epochs/--lstm-size`."""

    def test_flags_thread_into_pipeline_config_and_fingerprint(self):
        from repro.cli import _train_config, build_parser
        from repro.model.lstm import LSTMConfig
        from repro.store.stages import model_fingerprint

        args = build_parser().parse_args(
            ["train", "--backend", "lstm", "--lstm-epochs", "2", "--lstm-size", "24"]
        )
        cfg = _train_config(args)
        assert cfg.backend == "lstm"
        assert cfg.lstm == LSTMConfig(epochs=2, hidden_size=24)
        # The knobs readdress the checkpoint: no collision with defaults.
        default = _train_config(
            build_parser().parse_args(["train", "--backend", "lstm"])
        )
        assert model_fingerprint(cfg) != model_fingerprint(default)

    def test_partial_flags_keep_other_defaults(self):
        from repro.cli import _train_config, build_parser
        from repro.model.lstm import LSTMConfig

        args = build_parser().parse_args(
            ["train", "--backend", "lstm", "--lstm-epochs", "5"]
        )
        assert _train_config(args).lstm == LSTMConfig(epochs=5)

    def test_lstm_flags_without_lstm_backend_are_refused(self):
        from repro.cli import _train_config, build_parser

        args = build_parser().parse_args(["train", "--lstm-size", "64"])
        with pytest.raises(SystemExit, match="--backend lstm"):
            _train_config(args)

    def test_flags_reach_a_real_training(self, tmp_path):
        """End-to-end round trip: the flags produce a checkpoint whose model
        carries them (tiny corpus + 1 epoch keeps this fast)."""
        from repro.cli import main

        checkpoint = tmp_path / "model.json"
        assert main([
            "train", "--backend", "lstm", "--repositories", "4",
            "--lstm-epochs", "1", "--lstm-size", "12",
            "--checkpoint", str(checkpoint),
        ]) == 0
        from repro.model import load_model

        model = load_model(str(checkpoint))
        assert model.config.epochs == 1
        assert model.config.hidden_size == 12


class TestEnvKnobs:
    """The size watermark's env parsing, and steal mode's need for an
    on-disk store."""

    def test_env_size_parses_suffixes_and_hardens(self, monkeypatch):
        from repro.envutil import env_size

        monkeypatch.setenv("REPRO_STORE_MAX_BYTES", "500M")
        assert env_size("REPRO_STORE_MAX_BYTES") == 500 * (1 << 20)
        monkeypatch.setenv("REPRO_STORE_MAX_BYTES", "2G")
        assert env_size("REPRO_STORE_MAX_BYTES") == 2 * (1 << 30)
        monkeypatch.setenv("REPRO_STORE_MAX_BYTES", "a lot")
        with pytest.warns(RuntimeWarning, match="REPRO_STORE_MAX_BYTES"):
            assert env_size("REPRO_STORE_MAX_BYTES") is None
        monkeypatch.setenv("REPRO_STORE_MAX_BYTES", "-5M")
        with pytest.warns(RuntimeWarning, match="REPRO_STORE_MAX_BYTES"):
            assert env_size("REPRO_STORE_MAX_BYTES") is None

    def test_steal_without_disk_store_degrades_with_warning(self):
        with pytest.warns(RuntimeWarning, match="on-disk store"):
            runner = PipelineRunner(store=ArtifactStore(directory=None), steal=True)
        assert not runner.stealing
        assert runner.plan.steal is False


class TestAutoGcWatermark:
    """ISSUE 5 satellite: REPRO_STORE_MAX_BYTES bounds the store after put."""

    def test_watermark_evicts_least_recently_written(self, tmp_path):
        store = ArtifactStore(directory=tmp_path / "store", max_bytes=4096)
        for index in range(40):
            store.put("mine", f"{index:02d}" * 32, "x" * 512)
            time.sleep(0.002)  # distinct mtimes for deterministic LRW order
        stats = store.stats()
        assert 0 < stats.bytes <= 4096 + 1024  # bounded (one put of slack)
        survivors = store.keys("mine")
        # The most recent write always survives; the earliest were evicted.
        assert f"{39:02d}" * 32 in survivors
        assert f"{0:02d}" * 32 not in survivors

    def test_watermark_defaults_from_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_MAX_BYTES", "2K")
        store = ArtifactStore(directory=tmp_path / "store")
        assert store._max_bytes == 2048
        monkeypatch.delenv("REPRO_STORE_MAX_BYTES")
        assert ArtifactStore(directory=tmp_path / "other")._max_bytes is None

    def test_no_watermark_means_no_eviction(self, tmp_path):
        store = ArtifactStore(directory=tmp_path / "store")
        for index in range(20):
            store.put("mine", f"{index:02d}" * 32, "x" * 512)
        assert store.stats().entries == 20

    def test_memory_only_store_ignores_watermark(self):
        store = ArtifactStore(directory=None, max_bytes=16)
        store.put("mine", "ab" * 32, "x" * 512)
        assert store.get("mine", "ab" * 32) == "x" * 512


class TestAttemptBudget:
    """ISSUE 6: bounded retries with poison-shard quarantine."""

    def test_quarantine_after_exactly_max_attempts(self, tmp_path):
        queue = ShardQueue(tmp_path, lease_seconds=60, max_attempts=3)
        task = "ab" * 32
        assert not queue.record_failure(task, ValueError("boom 1"))
        assert not queue.record_failure(task, ValueError("boom 2"))
        assert len(queue.attempts(task)) == 2
        assert queue.record_failure(task, ValueError("boom 3"))  # the last straw
        record = queue.failure(task)
        assert record is not None
        assert len(record["attempts"]) == 3
        assert record["max_attempts"] == 3
        # The structured artifact names workers, errors and tracebacks.
        assert record["attempts"][0]["worker"] == queue.worker_id
        assert "boom 1" in record["attempts"][0]["error"]
        assert "ValueError" in record["attempts"][2]["traceback"] or record[
            "attempts"
        ][2]["traceback"] is None

    def test_quarantined_task_is_never_claimable(self, tmp_path):
        queue = ShardQueue(tmp_path, lease_seconds=60, max_attempts=1)
        task = "cd" * 32
        assert queue.record_failure(task, RuntimeError("poison"))
        assert not queue.try_claim(task)
        from repro.errors import PlanFailed

        with pytest.raises(PlanFailed, match="quarantined after 1 failed"):
            queue.raise_if_failed(task)

    def test_complete_clears_the_attempt_history(self, tmp_path):
        """A success after transient failures resets the budget: the next
        bad day starts from zero, not from the brink of quarantine."""
        queue = ShardQueue(tmp_path, lease_seconds=60, max_attempts=3)
        task = "ef" * 32
        queue.record_failure(task, OSError("transient"))
        assert queue.try_claim(task)
        assert queue.holder(task)["attempt"] == 2  # history shows one failure
        queue.complete(task)
        assert queue.attempts(task) == []

    def test_steal_back_charges_the_dead_holder_an_attempt(self, tmp_path):
        """A worker death is a failed attempt: the lease-expiry stealer
        records it against the budget, so a shard that kills every worker
        quarantines instead of livelocking the fleet."""
        dead = ShardQueue(tmp_path, lease_seconds=0.01, max_attempts=3)
        task = "12" * 32
        assert dead.try_claim(task)
        time.sleep(0.05)  # the holder "crashed": lease expires, no heartbeat
        stealer = ShardQueue(tmp_path, lease_seconds=0.01, max_attempts=3)
        assert stealer.try_claim(task)
        history = stealer.attempts(task)
        assert len(history) == 1
        assert history[0]["worker"] == dead.worker_id
        assert "lease expired" in history[0]["error"]
        assert stealer.holder(task)["attempt"] == 2

    def test_repeated_deaths_exhaust_the_budget(self, tmp_path):
        task = "34" * 32
        for death in range(2):
            holder = ShardQueue(tmp_path, lease_seconds=0.01, max_attempts=2)
            assert holder.try_claim(task)
            time.sleep(0.05)
        # The second steal was the second death: quarantined, unclaimable.
        final = ShardQueue(tmp_path, lease_seconds=0.01, max_attempts=2)
        assert not final.try_claim(task)
        assert final.failure(task) is not None

    def test_max_attempts_default_comes_from_env(self, monkeypatch, tmp_path):
        from repro.store.queue import DEFAULT_MAX_ATTEMPTS, default_max_attempts

        monkeypatch.setenv("REPRO_QUEUE_MAX_ATTEMPTS", "5")
        assert ShardQueue(tmp_path).max_attempts == 5
        monkeypatch.setenv("REPRO_QUEUE_MAX_ATTEMPTS", "lots")
        with pytest.warns(RuntimeWarning, match="REPRO_QUEUE_MAX_ATTEMPTS"):
            assert default_max_attempts() == DEFAULT_MAX_ATTEMPTS
        monkeypatch.setenv("REPRO_QUEUE_MAX_ATTEMPTS", "0")
        with pytest.warns(RuntimeWarning, match="REPRO_QUEUE_MAX_ATTEMPTS"):
            assert default_max_attempts() == 1  # floor: 0 would ban all work


class TestHeartbeat:
    def test_heartbeat_keeps_a_slow_claim_unstolen(self, tmp_path):
        """ISSUE 6 acceptance: a compute running past 2x the lease keeps
        its claim as long as the heartbeat beats; it only becomes stealable
        once the holder (and its heartbeat) actually stops."""
        holder = ShardQueue(tmp_path, lease_seconds=0.15)
        thief = ShardQueue(tmp_path, lease_seconds=0.15)
        task = "56" * 32
        assert holder.try_claim(task)
        with holder.heartbeat(task):
            time.sleep(0.4)  # well past 2x the lease
            assert not thief.try_claim(task)
        # The "compute" ended without completing (a hang, say) and the
        # heartbeat stopped with it: now the lease runs out for real.
        time.sleep(0.3)
        assert thief.try_claim(task)

    def test_sweep_offset_is_deterministic_and_in_range(self, tmp_path):
        queue = ShardQueue(tmp_path)
        assert queue.sweep_offset(0) == 0
        offsets = {queue.sweep_offset(7) for _ in range(5)}
        assert len(offsets) == 1  # stable for one worker
        assert 0 <= offsets.pop() < 7
        # Different workers spread across the range (statistically: 32
        # distinct ids into 1000 slots colliding on one offset is ~nil).
        distinct = {
            ShardQueue(tmp_path).sweep_offset(1000)
            for _ in range(1)
        }
        other = ShardQueue(tmp_path)
        other.worker_id = "somewhere-else.424242.1"
        distinct.add(other.sweep_offset(1000))
        assert len(distinct) == 2

    def test_sweep_order_without_priorities_is_a_rotation(self, tmp_path):
        queue = ShardQueue(tmp_path)
        tasks = [f"{index:02d}" for index in range(7)]
        order = queue.sweep_order(tasks)
        assert sorted(order) == tasks
        offset = queue.sweep_offset(len(tasks))
        assert order == tasks[offset:] + tasks[:offset]


class TestPoisonShards:
    """End-to-end quarantine through the runner and the worker CLI."""

    @pytest.fixture(autouse=True)
    def _clean_faults(self, monkeypatch):
        from repro.store import faults

        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        faults.reset()
        yield
        faults.reset()

    def test_poison_shard_quarantines_and_raises_plan_failed(
        self, tmp_path, monkeypatch
    ):
        from repro.errors import PlanFailed
        from repro.store import faults

        monkeypatch.setenv(
            "REPRO_FAULTS", "fail_shard:kind=synthesis-shard:shard=1:p=1"
        )
        faults.reset()
        cfg = tiny_config()
        runner = PipelineRunner(
            store=ArtifactStore(directory=tmp_path / "store"),
            shards=SHARDS,
            steal=True,
            poll_seconds=0.01,
        )
        with pytest.raises(PlanFailed, match="quarantined after 3 failed") as info:
            runner.synthesis(cfg)
        record = info.value.record
        assert len(record["attempts"]) == 3
        assert all(
            "InjectedFault" in attempt["error"] for attempt in record["attempts"]
        )
        # The poison shard's failure artifact is on disk for every other
        # worker (and the operator) to find.
        failures = list((tmp_path / "store" / "queue" / "failures").glob("*.json"))
        assert len(failures) == 1

    def test_transient_failure_is_retried_to_success(self, tmp_path, monkeypatch):
        """One injected failure (times=1) costs one attempt; the immediate
        retry succeeds and clears the history — no quarantine, identical
        artifacts."""
        from repro.store import faults

        monkeypatch.setenv("REPRO_FAULTS", "fail_shard:kind=synthesis-shard:shard=1")
        faults.reset()
        cfg = tiny_config()
        directory = tmp_path / "store"
        runner = PipelineRunner(
            store=ArtifactStore(directory=directory),
            shards=SHARDS,
            steal=True,
            poll_seconds=0.01,
        )
        value = runner.synthesis(cfg)
        assert value.kernels
        assert list(directory.glob("queue/failures/*.json")) == []
        assert list(directory.glob("queue/attempts/*.json")) == []

    def test_waiters_surface_a_pre_quarantined_task(self, tmp_path):
        """A worker joining a plan whose shard was already quarantined gets
        PlanFailed on its first sweep — no claim, no compute, no spin."""
        from repro.errors import PlanFailed
        from repro.store.shards import _SAMPLE

        cfg = tiny_config()
        directory = tmp_path / "store"
        poison_key = _SAMPLE.keys(cfg, SHARDS)[1]
        queue = ShardQueue(directory, max_attempts=1)
        assert queue.record_failure(poison_key, RuntimeError("known poison"))
        runner = PipelineRunner(
            store=ArtifactStore(directory=directory),
            shards=SHARDS,
            steal=True,
            poll_seconds=0.01,
        )
        with pytest.raises(PlanFailed, match=poison_key[:12]):
            runner.synthesis(cfg)

    def test_worker_cli_exits_nonzero_with_failure_summary(
        self, tmp_path, monkeypatch, capsys
    ):
        """ISSUE 6 satellite: a drained plan that ended in quarantine makes
        `repro worker` print the failure artifact and exit non-zero."""
        from repro.cli import main
        from repro.store import faults

        monkeypatch.setenv(
            "REPRO_FAULTS", "fail_shard:kind=synthesis-shard:shard=0:p=1"
        )
        faults.reset()
        directory = tmp_path / "store"
        publish_plan(ArtifactStore(directory=directory), tiny_config(), SHARDS)
        assert main(["worker", "--store", str(directory)]) == 1
        err = capsys.readouterr().err
        assert "FAILED" in err
        assert "quarantined" in err
        assert "attempt 3" in err
        assert "full record" in err


class TestCrashRecovery:
    """ISSUE 6 satellite: crash-mid-merge (and mid-shard) steal-back."""

    @pytest.fixture(autouse=True)
    def _clean_faults(self, monkeypatch):
        from repro.store import faults

        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        faults.reset()
        yield
        faults.reset()

    def test_crash_between_last_shard_and_merge_put(
        self, tmp_path, monkeypatch, reference_store
    ):
        """The narrowest window: every shard landed, the merge value was
        computed, and the worker dies before the merged entry's put.  The
        claim stays held (a crash runs no cleanup), the lease expires, and
        the steal-back winner re-runs the merge to a byte-identical entry."""
        from repro.store import faults
        from repro.store.faults import InjectedCrash

        monkeypatch.setenv("REPRO_FAULTS", "crash_pre_merge:kind=synthesis:mode=raise")
        faults.reset()
        cfg = tiny_config()
        directory = tmp_path / "store"
        crashed = PipelineRunner(
            store=ArtifactStore(directory=directory),
            shards=SHARDS,
            steal=True,
            lease_seconds=0.15,
            poll_seconds=0.01,
        )
        with pytest.raises(InjectedCrash):
            crashed.synthesis(cfg)
        # The crash left the merge claim held — exactly like a real death.
        from repro.store.stages import synthesis_fingerprint

        merge_key = synthesis_fingerprint(cfg)
        assert ShardQueue(directory).holder(merge_key) is not None
        assert ArtifactStore(directory=directory).get("synthesis", merge_key) is None

        time.sleep(0.2)  # no heartbeat from the dead worker: lease expires
        survivor = PipelineRunner(
            store=ArtifactStore(directory=directory),
            shards=SHARDS,
            steal=True,
            lease_seconds=0.15,
            poll_seconds=0.01,
        )
        merged = survivor.synthesis(cfg)
        reference = PipelineRunner(
            store=ArtifactStore(directory=reference_store)
        ).synthesis(cfg)
        assert canonical_bytes(merged) == canonical_bytes(reference)
        # The steal charged the death to the budget, then success cleared it.
        assert ShardQueue(directory).attempts(merge_key) == []

    def test_crash_mid_shard_recovery_is_byte_identical(
        self, tmp_path, monkeypatch, reference_store
    ):
        from repro.store import faults
        from repro.store.faults import InjectedCrash

        monkeypatch.setenv(
            "REPRO_FAULTS", "crash_mid_shard:kind=suite-measurements-shard:shard=1:mode=raise"
        )
        faults.reset()
        cfg = tiny_config()
        directory = tmp_path / "store"
        crashed = PipelineRunner(
            store=ArtifactStore(directory=directory),
            shards=SHARDS,
            steal=True,
            lease_seconds=0.15,
            poll_seconds=0.01,
        )
        with pytest.raises(InjectedCrash):
            crashed.suite_measurements(cfg)
        time.sleep(0.2)
        survivor = PipelineRunner(
            store=ArtifactStore(directory=directory),
            shards=SHARDS,
            steal=True,
            lease_seconds=0.15,
            poll_seconds=0.01,
        )
        merged = survivor.suite_measurements(cfg)
        reference = PipelineRunner(
            store=ArtifactStore(directory=reference_store)
        ).suite_measurements(cfg)
        assert canonical_bytes(merged) == canonical_bytes(reference)


class TestQueueStatusCli:
    def test_status_reports_claims_and_failures(self, tmp_path, capsys):
        from repro.cli import main

        directory = tmp_path / "store"
        queue = ShardQueue(directory, lease_seconds=60, max_attempts=1)
        assert queue.try_claim("ab" * 32)
        queue.record_failure("cd" * 32, RuntimeError("poison kernel"))
        assert main(["queue", "status", "--store", str(directory)]) == 1
        out = capsys.readouterr().out
        assert "claims: 1 live" in out
        assert "abababab" in out and "live" in out
        assert "failures: 1 quarantined" in out
        assert "poison kernel" in out

    def test_status_is_clean_and_zero_on_an_idle_queue(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["queue", "status", "--store", str(tmp_path / "store")]) == 0
        out = capsys.readouterr().out
        assert "claims: 0 live" in out
        assert "failures: 0 quarantined" in out


class TestQueueStatusCLI:
    def _run(self, *argv, store: Path):
        import os

        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
        env.pop("REPRO_STORE_DIR", None)
        return subprocess.run(
            [sys.executable, "-m", "repro", "queue", "status",
             "--store", str(store), *argv],
            capture_output=True, text=True, env=env,
        )

    def test_json_output_matches_library(self, tmp_path):
        publish_plan(ArtifactStore(directory=tmp_path), tiny_config(), 3)
        result = self._run("--json", store=tmp_path)
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        library = queue_status(tmp_path)
        assert payload["claims"] == library["claims"]
        assert payload["failures"] == library["failures"]
        assert payload["max_attempts"] == library["max_attempts"]

    def test_failures_drive_exit_code(self, tmp_path):
        ShardQueue(tmp_path)._quarantine("poisoned-task", [{"worker": "w0"}])
        result = self._run("--json", store=tmp_path)
        assert result.returncode == 1
        payload = json.loads(result.stdout)
        assert payload["failures"][0]["task"] == "poisoned-task"
