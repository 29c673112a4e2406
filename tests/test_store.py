"""Tests for the content-addressed artifact store (``repro.store``).

Covers the store invariants the pipeline depends on: schema-version
invalidation, recovery from corrupted/truncated disk entries, LRU bounds,
concurrent writers (threads and processes), and fingerprint stability
across sessions (a fingerprint must not depend on ``PYTHONHASHSEED``).
"""

from __future__ import annotations

import multiprocessing
import pickle
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.store.artifact_store import ArtifactStore, resolve_store
from repro.store.fingerprint import SCHEMA_VERSIONS, fingerprint, text_digest


class TestFingerprint:
    def test_deterministic_and_order_insensitive(self):
        a = fingerprint("mine", {"seed": 1, "repository_count": 10})
        b = fingerprint("mine", {"repository_count": 10, "seed": 1})
        assert a == b
        assert len(a) == 64

    def test_distinguishes_kind_payload_and_floats(self):
        base = fingerprint("mine", {"seed": 1})
        assert fingerprint("corpus", {"seed": 1}) != base
        assert fingerprint("mine", {"seed": 2}) != base
        assert fingerprint("mine", {"seed": 1.0}) != base  # int vs float
        assert fingerprint("mine", {"t": 0.1}) != fingerprint("mine", {"t": 0.2})

    def test_nested_and_tuple_payloads(self):
        nested = fingerprint("mine", {"a": {"b": [1, 2, (3, 4)]}})
        assert nested == fingerprint("mine", {"a": {"b": (1, 2, [3, 4])}})

    def test_rejects_unstable_values(self):
        with pytest.raises(TypeError):
            fingerprint("mine", {"bad": object()})
        with pytest.raises(TypeError):
            fingerprint("mine", {1: "non-string key"})  # type: ignore[dict-item]

    def test_stable_across_sessions(self):
        """The same payload must fingerprint identically in a fresh
        interpreter with a different hash seed (no dict-order or
        PYTHONHASHSEED dependence)."""
        expected = fingerprint(
            "synthesis", {"model": "abc", "temperature": 0.6, "count": 50}
        )
        script = (
            "from repro.store.fingerprint import fingerprint;"
            "print(fingerprint('synthesis',"
            " {'count': 50, 'model': 'abc', 'temperature': 0.6}))"
        )
        for hash_seed in ("0", "12345"):
            out = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                env={
                    "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src"),
                    "PYTHONHASHSEED": hash_seed,
                },
            )
            assert out.returncode == 0, out.stderr
            assert out.stdout.strip() == expected

    def test_text_digest_is_injective_on_boundaries(self):
        assert text_digest("ab", "c") != text_digest("a", "bc")


class TestArtifactStoreBasics:
    def test_round_trip_memory_only(self):
        store = ArtifactStore()
        assert store.get("mine", "k" * 64) is None
        store.put("mine", "k" * 64, ["text-1", "text-2"])
        assert store.get("mine", "k" * 64) == ["text-1", "text-2"]
        assert store.counts("mine") == {"hit": 1, "miss": 1}

    def test_hits_return_fresh_copies(self):
        """A consumer mutating its result must not poison the cache."""
        store = ArtifactStore()
        store.put("mine", "a" * 64, ["one", "two"])
        first = store.get("mine", "a" * 64)
        first.append("mutation")
        assert store.get("mine", "a" * 64) == ["one", "two"]

    def test_disk_round_trip_across_instances(self, tmp_path):
        first = ArtifactStore(directory=tmp_path / "store")
        first.put("corpus", "b" * 64, {"kernels": ["k"]})
        second = ArtifactStore(directory=tmp_path / "store")
        assert second.get("corpus", "b" * 64) == {"kernels": ["k"]}

    def test_kinds_do_not_collide(self, tmp_path):
        store = ArtifactStore(directory=tmp_path / "store")
        store.put("mine", "c" * 64, "mine-value")
        store.put("corpus", "c" * 64, "corpus-value")
        assert store.get("mine", "c" * 64) == "mine-value"
        assert store.get("corpus", "c" * 64) == "corpus-value"

    def test_lru_bounds_memory(self):
        store = ArtifactStore(memory_entries=4)
        for index in range(10):
            store.put("mine", f"{index:064d}", index)
        assert store.memory_size() == 4
        # The most recent entries survive; older ones were evicted (and with
        # no disk layer, evicted means gone).
        assert store.get("mine", f"{9:064d}") == 9
        assert store.get("mine", f"{0:064d}") is None

    def test_lru_eviction_spares_disk(self, tmp_path):
        store = ArtifactStore(directory=tmp_path / "store", memory_entries=2)
        for index in range(6):
            store.put("mine", f"{index:064d}", index)
        assert store.memory_size() == 2
        # Evicted from memory but recoverable from disk.
        assert store.get("mine", f"{0:064d}") == 0

    def test_resolve_store_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "env-store"))
        store = resolve_store(None)
        assert store.directory == (tmp_path / "env-store").resolve() or (
            str(store.directory) == str(tmp_path / "env-store")
        )
        assert resolve_store(None) is store
        monkeypatch.delenv("REPRO_STORE_DIR")
        assert resolve_store(None).directory is None


class TestSchemaInvalidation:
    def test_schema_bump_invalidates_disk_entries(self, tmp_path, monkeypatch):
        store = ArtifactStore(directory=tmp_path / "store")
        store.put("model", "d" * 64, {"checkpoint": {}})
        store.clear_memory()
        assert store.get("model", "d" * 64) == {"checkpoint": {}}

        monkeypatch.setitem(SCHEMA_VERSIONS, "model", SCHEMA_VERSIONS["model"] + 1)
        store.clear_memory()
        assert store.get("model", "d" * 64) is None
        # Storing under the new schema works and survives.
        store.put("model", "d" * 64, {"checkpoint": {"new": True}})
        store.clear_memory()
        assert store.get("model", "d" * 64) == {"checkpoint": {"new": True}}

    def test_kind_mismatch_on_disk_is_a_miss(self, tmp_path):
        store = ArtifactStore(directory=tmp_path / "store")
        store.put("mine", "e" * 64, "value")
        path = store.entry_path("mine", "e" * 64)
        # Rewrite the entry claiming a different kind.
        path.write_bytes(pickle.dumps(("corpus", SCHEMA_VERSIONS["corpus"], "value")))
        store.clear_memory()
        assert store.get("mine", "e" * 64) is None


class TestCorruptionRecovery:
    @pytest.mark.parametrize("damage", ["garbage", "truncate", "empty"])
    def test_damaged_entries_are_misses_and_pruned(self, tmp_path, damage):
        store = ArtifactStore(directory=tmp_path / "store")
        key = "f" * 64
        store.put("corpus", key, {"kernels": list(range(100))})
        path = store.entry_path("corpus", key)
        original = path.read_bytes()
        if damage == "garbage":
            path.write_bytes(b"\x00not a pickle\xff")
        elif damage == "truncate":
            path.write_bytes(original[: len(original) // 2])
        else:
            path.write_bytes(b"")
        store.clear_memory()
        assert store.get("corpus", key) is None
        # No reader-side unlink (it would race a concurrent writer's
        # os.replace); the recompute's put atomically heals the slot.
        store.put("corpus", key, {"kernels": [1]})
        store.clear_memory()
        assert store.get("corpus", key) == {"kernels": [1]}
        assert path.read_bytes() != original

    def test_wrong_payload_shape_is_a_miss(self, tmp_path):
        store = ArtifactStore(directory=tmp_path / "store")
        key = "a1" + "0" * 62
        path = tmp_path / "store" / "mine" / key[:2] / f"{key}.pkl"
        path.parent.mkdir(parents=True)
        path.write_bytes(pickle.dumps("not a (kind, schema, value) tuple"))
        assert store.get("mine", key) is None


def _process_writer(arguments: tuple[str, int]) -> int:
    """Writes then reads its own slice of keys (run in a child process)."""
    directory, worker = arguments
    store = ArtifactStore(directory=directory, memory_entries=4)
    ok = 0
    for index in range(8):
        key = f"{worker:02d}{index:02d}" + "0" * 60
        store.put("mine", key, {"worker": worker, "index": index})
        if store.get("mine", key) == {"worker": worker, "index": index}:
            ok += 1
    # Everyone also hammers one shared key with different (valid) values.
    store.put("corpus", "ff" * 32, {"winner": worker})
    return ok


class TestConcurrentWriters:
    def test_threads_share_one_store(self, tmp_path):
        store = ArtifactStore(directory=tmp_path / "store", memory_entries=16)
        errors: list[Exception] = []

        def worker(worker_id: int) -> None:
            try:
                for index in range(20):
                    key = f"{worker_id:02d}{index:02d}" + "0" * 60
                    store.put("mine", key, (worker_id, index))
                    assert store.get("mine", key) == (worker_id, index)
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [threading.Thread(target=worker, args=(n,)) for n in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert store.memory_size() <= 16

    def test_processes_share_one_directory(self, tmp_path):
        directory = str(tmp_path / "store")
        try:
            context = multiprocessing.get_context("fork")
        except ValueError:
            pytest.skip("no fork start method on this platform")
        with context.Pool(processes=3) as pool:
            results = pool.map(_process_writer, [(directory, n) for n in range(3)])
        assert results == [8, 8, 8]
        # A fresh store in this process reads everything the children wrote.
        reader = ArtifactStore(directory=directory)
        for worker in range(3):
            for index in range(8):
                key = f"{worker:02d}{index:02d}" + "0" * 60
                assert reader.get("mine", key) == {"worker": worker, "index": index}
        # The contended key holds one complete value from some writer.
        contended = reader.get("corpus", "ff" * 32)
        assert contended in [{"winner": n} for n in range(3)]


class TestStatsAndGC:
    """Store hygiene (ISSUE 4): size accounting and the age/LRU gc that
    keeps shared sharded stores from growing without bound."""

    @staticmethod
    def _fill(store: ArtifactStore, kind: str, count: int, payload_bytes: int = 256):
        for index in range(count):
            key = f"{index:02d}" + "a" * 62
            store.put(kind, key, "x" * payload_bytes)

    def test_stats_counts_entries_and_bytes_per_kind(self, tmp_path):
        store = ArtifactStore(directory=tmp_path / "store")
        self._fill(store, "mine", 3)
        self._fill(store, "corpus", 2)
        stats = store.stats()
        assert stats.entries == 5
        assert stats.kinds["mine"]["entries"] == 3
        assert stats.kinds["corpus"]["entries"] == 2
        assert stats.bytes == sum(b["bytes"] for b in stats.kinds.values())
        assert stats.bytes > 5 * 256  # pickle overhead on top of payloads

    def test_stats_memory_only_store(self):
        store = ArtifactStore(directory=None)
        store.put("mine", "ab" * 32, [1, 2, 3])
        stats = store.stats()
        assert stats.entries == 0 and stats.bytes == 0
        assert stats.memory_entries == 1

    def test_gc_by_age_drops_only_old_entries(self, tmp_path):
        import os as _os

        store = ArtifactStore(directory=tmp_path / "store")
        self._fill(store, "mine", 4)
        old = store.entry_path("mine", "00" + "a" * 62)
        aged = old.stat().st_mtime - 1000
        _os.utime(old, (aged, aged))
        result = store.gc(max_age_seconds=500)
        assert result.removed_entries == 1
        assert result.remaining_entries == 3
        assert not old.exists()
        # The dropped entry reads as a miss and heals by recomputation.
        fresh = ArtifactStore(directory=tmp_path / "store")
        assert fresh.get("mine", "00" + "a" * 62) is None

    def test_gc_by_max_bytes_evicts_least_recently_written(self, tmp_path):
        import os as _os

        store = ArtifactStore(directory=tmp_path / "store")
        self._fill(store, "mine", 5)
        # Spread mtimes so eviction order is deterministic: entry 0 oldest.
        for index in range(5):
            path = store.entry_path("mine", f"{index:02d}" + "a" * 62)
            stamp = path.stat().st_mtime - (100 - index)
            _os.utime(path, (stamp, stamp))
        total = store.stats().bytes
        entry_size = total // 5
        result = store.gc(max_bytes=total - 2 * entry_size)
        assert result.removed_entries == 2
        assert result.remaining_bytes <= total - 2 * entry_size
        # Oldest two gone, newest three kept.
        assert not store.entry_path("mine", "00" + "a" * 62).exists()
        assert not store.entry_path("mine", "01" + "a" * 62).exists()
        assert store.entry_path("mine", "04" + "a" * 62).exists()

    def test_gc_sweeps_stale_temp_files(self, tmp_path):
        import os as _os

        store = ArtifactStore(directory=tmp_path / "store")
        self._fill(store, "mine", 1)
        stale = store.entry_path("mine", "00" + "a" * 62).with_suffix(".tmp.999.1")
        stale.write_bytes(b"half-written")
        aged = stale.stat().st_mtime - 7200
        _os.utime(stale, (aged, aged))
        fresh_tmp = store.entry_path("mine", "00" + "a" * 62).with_suffix(".tmp.999.2")
        fresh_tmp.write_bytes(b"in flight")
        store.gc(max_age_seconds=1e9)
        assert not stale.exists()
        assert fresh_tmp.exists()  # a write in flight is never swept
        assert store.stats().entries == 1

    def test_gc_noop_without_bounds_is_safe(self, tmp_path):
        store = ArtifactStore(directory=tmp_path / "store")
        self._fill(store, "mine", 2)
        result = store.gc()
        assert result.removed_entries == 0
        assert result.remaining_entries == 2

    def test_cli_store_stats_and_gc(self, tmp_path, capsys):
        from repro.cli import main

        store = ArtifactStore(directory=tmp_path / "store")
        self._fill(store, "mine", 3)
        assert main(["store", "stats", "--cache-dir", str(tmp_path / "store")]) == 0
        out = capsys.readouterr().out
        assert "mine" in out and "total" in out

        assert main(["store", "gc", "--max-bytes", "0", "--cache-dir",
                     str(tmp_path / "store")]) == 0
        out = capsys.readouterr().out
        assert "removed 3 entries" in out
        assert store.stats().entries == 0

    def test_cli_store_gc_requires_a_bound(self, tmp_path):
        from repro.cli import main

        assert main(["store", "gc", "--cache-dir", str(tmp_path / "store")]) == 2

    def test_cli_store_commands_refuse_shard_flags(self, tmp_path, capsys):
        import pytest as _pytest

        from repro.cli import main

        # stats and gc never build a runner, so a shard plan is a usage
        # error rather than a flag silently ignored.
        for command in (["stats"], ["gc", "--max-bytes", "0"]):
            with _pytest.raises(SystemExit) as exit_info:
                main(["store", *command, "--cache-dir", str(tmp_path / "store"),
                      "--shards", "4", "--workers", "9"])
            assert exit_info.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err

    def test_cli_size_and_age_suffixes(self):
        from repro.cli import _parse_age, _parse_size

        assert _parse_size("500M") == 500 * (1 << 20)
        assert _parse_size("2G") == 2 * (1 << 30)
        assert _parse_size("1024") == 1024
        assert _parse_age("7d") == 7 * 86400.0
        assert _parse_age("30m") == 1800.0
        assert _parse_age("45") == 45.0

    def test_cli_rejects_negative_gc_bounds(self, tmp_path, capsys):
        import pytest as _pytest

        from repro.cli import main

        with _pytest.raises(SystemExit):
            main(["store", "gc", "--max-bytes", "-500M",
                  "--cache-dir", str(tmp_path / "store")])
        with _pytest.raises(SystemExit):
            main(["store", "gc", "--max-age", "-1d",
                  "--cache-dir", str(tmp_path / "store")])
