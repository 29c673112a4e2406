"""The work-stealing shard queue, materialized in the artifact store.

PR 4's sharding statically partitions ranges: worker *k* computes shards
``k, k+N, ...`` and everyone idles behind the slowest straggler before the
merge can fire.  This module replaces assignment with **claiming**: the
pending work of a pipeline plan is the set of store keys that do not exist
yet, and a worker takes a unit of work by atomically creating a *claim
file* for its key.  ``O_CREAT | O_EXCL`` is the whole mutual-exclusion
story — the filesystem guarantees exactly one creator — so any number of
heterogeneous workers (threads, processes, machines sharing one
``REPRO_STORE_DIR`` over a network filesystem) drain one plan without a
coordinator.

Crash tolerance comes from **leases**: a claim carries its creation time
(the file's mtime), and a claim older than the lease is treated as
abandoned — some worker died mid-shard.  A thief takes an expired claim
over *in place*: it rewrites the claim file rather than moving it aside,
so the slot is never vacant for an ordinary claimer to win beside it, and
thieves exclude one another with an ``O_EXCL`` token named after the
expired claim's identity (inode + mtime) — one winner per expired claim,
however late a rival thief judged it.  The artifact a crashed worker
half-wrote is invisible by construction — store writes land via temp
file + ``os.replace``, so an interrupted shard leaves only a stale
``.tmp.`` spill (swept by gc), never a truncated entry.  A long *live*
computation is distinguished from a dead worker by its
**heartbeat**: the claim holder refreshes the lease from a daemon thread
every third of the lease period (:meth:`ShardQueue.heartbeat`), so only a
worker that actually stopped — crashed, killed, wedged hard enough that
its heartbeat thread died too — loses its claim.

Lease expiry alone cannot handle the *other* deterministic failure: a
shard whose computation always crashes or raises would be stolen back,
re-crashed and re-stolen forever, livelocking the plan.  Claims therefore
carry **attempt counts** (persisted per task under ``queue/attempts/``),
and a task that fails :func:`default_max_attempts` times — by raising, or
by its holder dying and the lease-expiry steal recording the death — is
**quarantined**: a structured failure artifact (worker ids, per-attempt
errors, tracebacks) lands under ``queue/failures/``, and every worker
claiming or awaiting the task raises :class:`~repro.errors.PlanFailed`
naming the poison shard instead of spinning.

Completion needs no bookkeeping either: a unit of work is done exactly
when its store entry exists.  Workers therefore poll the store between
claim attempts, and the stage merge fires in whichever worker claims it
after the last shard lands.  Because every compute is a deterministic
function of fingerprinted inputs, even the worst race — two workers
computing the same shard because a lease expired under a live-but-slow
worker — is benign: both leave byte-identical entries.

A **plan** is how ``repro worker`` finds work in the first place: the
process that wants a pipeline resolved publishes its
:class:`~repro.store.stages.PipelineConfig` plus shard count as an ordinary
store artifact (kind ``plan``), and workers pointed at the directory
enumerate the plans and drain each one's stage graph through the claim
protocol until nothing is left to do.
"""

from __future__ import annotations

import hashlib
import json
import os
import socket
import threading
import time
import traceback
import warnings
from pathlib import Path

from repro.envutil import env_float, env_int
from repro.errors import PlanFailed
from repro.store.faults import fault_point

#: A claim older than this is an abandoned worker's, and may be stolen.
DEFAULT_LEASE_SECONDS = 300.0

#: How long a worker sleeps between probes while someone else holds a claim.
DEFAULT_POLL_SECONDS = 0.05

#: How many times a task may fail (raise, or crash its holder) before it is
#: quarantined instead of retried.
DEFAULT_MAX_ATTEMPTS = 3


def default_lease_seconds() -> float:
    """The claim lease from ``REPRO_QUEUE_LEASE`` (seconds), hardened."""
    return env_float("REPRO_QUEUE_LEASE", default=DEFAULT_LEASE_SECONDS, minimum=0.001)


def default_max_attempts() -> int:
    """The retry budget from ``REPRO_QUEUE_MAX_ATTEMPTS``, hardened.

    The minimum is 1: a budget of zero would quarantine every task before
    its first attempt, which can never be what an operator meant.
    """
    return env_int("REPRO_QUEUE_MAX_ATTEMPTS", default=DEFAULT_MAX_ATTEMPTS, minimum=1)


class _Heartbeat:
    """Context manager refreshing a held claim's lease from a daemon thread.

    The refresh period is a third of the lease, so even two consecutive
    missed beats (scheduler stall, slow NFS utime) leave the claim alive;
    only a worker whose whole process stopped loses it.  Exceptions from
    ``refresh`` are already swallowed there — a heartbeat must never be the
    thing that kills a healthy compute.
    """

    def __init__(self, queue: "ShardQueue", task_id: str):
        self._queue = queue
        self._task_id = task_id
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name=f"lease-heartbeat-{task_id[:12]}", daemon=True
        )

    def _run(self) -> None:
        interval = max(self._queue.lease_seconds / 3.0, 0.005)
        while not self._stop.wait(interval):
            self._queue.refresh(self._task_id)

    def __enter__(self) -> "_Heartbeat":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=1.0)


class ShardQueue:
    """Claim/lease/attempt coordination for one store directory.

    Claims live in ``<directory>/queue/claims/<key>.claim`` — beside, not
    inside, the artifact kind directories, so gc and stats never mistake
    them for entries.  Failed-attempt histories live beside them under
    ``queue/attempts/`` and quarantined-task records under
    ``queue/failures/``.  Task identifiers are artifact store keys
    (fingerprints), which are globally unique across kinds and plans, so
    one claim namespace serves every plan sharing the store.
    """

    def __init__(
        self,
        directory: str | os.PathLike,
        lease_seconds: float | None = None,
        poll_seconds: float | None = None,
        max_attempts: int | None = None,
    ):
        root = Path(directory) / "queue"
        self.claims = root / "claims"
        self.attempts_dir = root / "attempts"
        self.failures_dir = root / "failures"
        self.lease_seconds = (
            lease_seconds if lease_seconds is not None else default_lease_seconds()
        )
        self.poll_seconds = (
            poll_seconds if poll_seconds is not None else DEFAULT_POLL_SECONDS
        )
        self.max_attempts = (
            max_attempts if max_attempts is not None else default_max_attempts()
        )
        self.worker_id = (
            f"{socket.gethostname()}.{os.getpid()}.{threading.get_ident()}"
        )

    def _claim_path(self, task_id: str) -> Path:
        return self.claims / f"{task_id}.claim"

    def _attempts_path(self, task_id: str) -> Path:
        return self.attempts_dir / f"{task_id}.json"

    def _failure_path(self, task_id: str) -> Path:
        return self.failures_dir / f"{task_id}.json"

    # ------------------------------------------------------------------
    # The claim protocol.
    # ------------------------------------------------------------------

    def try_claim(self, task_id: str) -> bool:
        """Atomically take *task_id*; steal it first if its lease expired.

        Returns ``True`` for exactly one caller per claim lifetime: the
        ``O_EXCL`` create admits a single winner, and an expired claim is
        taken over in place by the single thief holding its steal token.
        A quarantined task is never claimable, and stealing an expired
        claim records the dead holder's attempt — so a shard that kills
        every worker that touches it runs out of retry budget instead of
        livelocking the fleet.
        """
        if self.failure(task_id) is not None:
            return False
        path = self._claim_path(task_id)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
        except OSError:
            return False
        if self._create_claim(path, task_id):
            return True
        return self._steal(path, task_id)

    def _claim_payload(self, task_id: str) -> str:
        return json.dumps(
            {
                "worker": self.worker_id,
                "claimed_at": time.time(),
                "attempt": len(self.attempts(task_id)) + 1,
            }
        )

    def _create_claim(self, path: Path, task_id: str) -> bool:
        from repro.store.artifact_store import retry_io

        payload = self._claim_payload(task_id)

        def create() -> int:
            fault_point("io_error", op="claim")
            return os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)

        try:
            descriptor = retry_io(create)
        except FileExistsError:
            return False
        except OSError:
            return False
        with os.fdopen(descriptor, "w") as handle:
            handle.write(payload)
        return True

    def _steal(self, path: Path, task_id: str) -> bool:
        """Take the claim at *path* over in place if its lease expired.

        The token's name is the expired claim's identity, so ``O_EXCL``
        admits one thief per expired claim.  The winner re-checks that
        identity before touching the file: a thief that judged an older
        state of the claim (one another thief already took over, say)
        backs off instead of stealing a live claim.  A token older than
        the lease was left by a thief that died mid-steal; it is removed
        so a later sweep can retry.
        """
        try:
            seen = path.stat()
        except OSError:
            # Vanished between the failed create and this stat: the holder
            # completed.  Not ours to steal; the caller re-probes the store
            # / retries the claim.
            return False
        if time.time() - seen.st_mtime <= self.lease_seconds:
            return False
        identity = (seen.st_ino, seen.st_mtime_ns)
        token = path.with_name(f"{path.name}.stale.{identity[0]}.{identity[1]}")
        try:
            os.close(os.open(token, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
        except FileExistsError:
            try:
                if time.time() - token.stat().st_mtime > self.lease_seconds:
                    token.unlink()
            except OSError:
                pass
            return False
        except OSError:
            return False
        try:
            current = path.stat()
            if (current.st_ino, current.st_mtime_ns) != identity:
                return False
            # Read the dead holder's record before overwriting it, and
            # charge the death against the task's budget.
            dead = {}
            try:
                dead = json.loads(path.read_text())
            except (OSError, json.JSONDecodeError, ValueError):
                pass
            if self._record_attempt(
                task_id,
                worker=dead.get("worker", "unknown"),
                error="lease expired: worker crashed or stalled mid-compute "
                "(no heartbeat within the lease)",
                traceback_text=None,
            ):
                self.release(task_id)
                return False  # that death exhausted the budget: quarantined
            # No O_CREAT: if the claim vanished meanwhile, there is nothing
            # left to take over.
            descriptor = os.open(path, os.O_WRONLY | os.O_TRUNC)
            with os.fdopen(descriptor, "w") as handle:
                handle.write(self._claim_payload(task_id))
            return True
        except OSError:
            return False
        finally:
            try:
                token.unlink()
            except OSError:
                pass

    def refresh(self, task_id: str) -> None:
        """Extend the lease of a held claim (the heartbeat calls this so
        long computations are never mistaken for dead workers)."""
        try:
            os.utime(self._claim_path(task_id))
        except OSError:
            pass

    def heartbeat(self, task_id: str) -> _Heartbeat:
        """A context manager keeping the held claim *task_id* alive: a
        daemon thread refreshes the lease every ``lease/3`` seconds until
        the block exits (or the whole process dies — which is the point)."""
        return _Heartbeat(self, task_id)

    def complete(self, task_id: str) -> None:
        """Drop the claim after the artifact landed, and clear the task's
        failed-attempt history (it succeeded; old failures were transient)."""
        self.release(task_id)
        try:
            self._attempts_path(task_id).unlink()
        except OSError:
            pass

    def release(self, task_id: str) -> None:
        """Drop the claim *without* touching the attempt history — the
        failure path, so another worker may retry immediately without
        waiting out the lease."""
        try:
            self._claim_path(task_id).unlink()
        except OSError:
            pass

    def holder(self, task_id: str) -> dict | None:
        """The claim record for *task_id*, or ``None`` (diagnostics only)."""
        try:
            return json.loads(self._claim_path(task_id).read_text())
        except (OSError, json.JSONDecodeError, ValueError):
            return None

    # ------------------------------------------------------------------
    # Attempt accounting and quarantine.
    # ------------------------------------------------------------------

    def attempts(self, task_id: str) -> list[dict]:
        """The task's failed-attempt history (empty when it never failed)."""
        try:
            history = json.loads(self._attempts_path(task_id).read_text())
        except (OSError, json.JSONDecodeError, ValueError):
            return []
        return history if isinstance(history, list) else []

    def record_failure(self, task_id: str, error: BaseException) -> bool:
        """Charge a raised compute failure against *task_id*'s retry budget.

        Returns ``True`` when this failure was the last straw and the task
        is now quarantined (the caller should raise
        :class:`~repro.errors.PlanFailed` rather than retry).
        """
        return self._record_attempt(
            task_id,
            worker=self.worker_id,
            error=f"{type(error).__name__}: {error}",
            traceback_text="".join(
                traceback.format_exception(type(error), error, error.__traceback__)
            ),
        )

    def _record_attempt(
        self, task_id: str, worker: str, error: str, traceback_text: str | None
    ) -> bool:
        """Append one failed attempt; quarantine when the budget is spent.

        Only the claim winner (or the steal-token winner) calls this, so
        the read-modify-write on the history file is single-writer by the
        claim protocol; the write itself is atomic (temp + ``os.replace``)
        so concurrent *readers* never see a torn history.
        """
        history = self.attempts(task_id)
        history.append(
            {
                "worker": worker,
                "at": time.time(),
                "attempt": len(history) + 1,
                "error": error,
                "traceback": traceback_text,
            }
        )
        if len(history) >= self.max_attempts:
            self._quarantine(task_id, history)
            return True
        self._write_json(self._attempts_path(task_id), history)
        return False

    def _quarantine(self, task_id: str, history: list[dict]) -> None:
        record = {
            "task": task_id,
            "quarantined_at": time.time(),
            "quarantined_by": self.worker_id,
            "max_attempts": self.max_attempts,
            "attempts": history,
        }
        self._write_json(self._failure_path(task_id), record)
        try:
            self._attempts_path(task_id).unlink()
        except OSError:
            pass

    def _write_json(self, path: Path, value) -> None:
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            temp = path.with_name(
                f"{path.name}.tmp.{os.getpid()}.{threading.get_ident()}"
            )
            temp.write_text(json.dumps(value, indent=2))
            os.replace(temp, path)
        except OSError:
            # Best-effort like every other queue write: losing an attempt
            # record costs at worst one extra retry, never correctness.
            pass

    def failure(self, task_id: str) -> dict | None:
        """The quarantine record for *task_id*, or ``None``."""
        try:
            record = json.loads(self._failure_path(task_id).read_text())
        except (OSError, json.JSONDecodeError, ValueError):
            return None
        return record if isinstance(record, dict) else None

    def raise_if_failed(self, task_id: str) -> None:
        """Raise :class:`~repro.errors.PlanFailed` if *task_id* was
        quarantined — how awaiting workers stop spinning on a poison shard."""
        record = self.failure(task_id)
        if record is not None:
            raise PlanFailed(task_id, record)

    # ------------------------------------------------------------------
    # Sweep randomization and inspection.
    # ------------------------------------------------------------------

    def sweep_offset(self, count: int) -> int:
        """This worker's deterministic sweep start over *count* task slots.

        Every worker sweeping pending tasks in the same sorted order
        collides on task 0's claim, loses, moves to task 1, collides again…
        — O(workers) wasted claim attempts per task on wide fan-outs.
        Hashing the worker id into a start offset spreads first touches
        across the pending set; sweeps still cover every task (rotation,
        not subset), so correctness is untouched.
        """
        if count <= 0:
            return 0
        digest = hashlib.sha256(self.worker_id.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "little") % count

    def sweep_order(self, task_ids) -> list:
        """*task_ids* in this worker's claim-sweep order: rotated by
        :meth:`sweep_offset`, so workers spread their first touches instead
        of contending for the same claim."""
        order = list(task_ids)
        offset = self.sweep_offset(len(order))
        return order[offset:] + order[:offset]

    def claim_records(self) -> list[dict]:
        """All live claims, each with its task, holder, attempt and age
        (``repro queue status``)."""
        records: list[dict] = []
        now = time.time()
        try:
            paths = sorted(self.claims.glob("*.claim"))
        except OSError:
            return records
        for path in paths:
            record = {"task": path.name.removesuffix(".claim")}
            try:
                record.update(json.loads(path.read_text()))
                record["age_seconds"] = now - path.stat().st_mtime
            except (OSError, json.JSONDecodeError, ValueError):
                record["unreadable"] = True
            records.append(record)
        return records

    def failure_records(self) -> list[dict]:
        """All quarantine records, sorted by task (``repro queue status``)."""
        try:
            paths = sorted(self.failures_dir.glob("*.json"))
        except OSError:
            return []
        records = []
        for path in paths:
            try:
                record = json.loads(path.read_text())
            except (OSError, json.JSONDecodeError, ValueError):
                record = {"task": path.stem, "unreadable": True}
            records.append(record)
        return records


# ---------------------------------------------------------------------------
# Published plans: how `repro worker` discovers what to drain.
# ---------------------------------------------------------------------------


def plan_fingerprint(cfg, shards: int) -> str:
    """The store key of the plan resolving *cfg* at *shards* shards.

    Keyed off the two execute-side fingerprints (which transitively include
    every upstream stage), so a plan readdresses whenever any stage of the
    pipeline it describes would.
    """
    from repro.store import stages
    from repro.store.fingerprint import fingerprint

    return fingerprint(
        "plan",
        {
            "suite": stages.suite_execution_fingerprint(cfg),
            "synthetic": stages.synthetic_execution_fingerprint(cfg),
            "shards": shards,
        },
    )


def publish_plan(store, cfg, shards: int) -> str:
    """Persist *cfg* as a drainable plan; returns its key.

    Idempotent: republishing the same configuration lands on the same key.
    A single-shard plan is published with a :class:`RuntimeWarning`:
    joining workers can then only claim whole stages.
    """
    if shards == 1:
        warnings.warn(
            "publishing a single-shard plan: joining workers can only claim "
            "whole stages; use --shards N for shard-level work sharing",
            RuntimeWarning,
            stacklevel=2,
        )
    key = plan_fingerprint(cfg, shards)
    store.put("plan", key, {"config": cfg, "shards": shards})
    return key


def _valid_plan(value) -> bool:
    """Whether a stored ``plan`` value is drainable: a dict holding a
    :class:`~repro.store.stages.PipelineConfig` under ``"config"`` and a
    shard count >= 1 under ``"shards"``.  Other keys are ignored, so
    plans published with the old priority field still load."""
    from repro.store.stages import PipelineConfig

    if not isinstance(value, dict):
        return False
    shards = value.get("shards")
    return (
        isinstance(value.get("config"), PipelineConfig)
        and isinstance(shards, int)
        and not isinstance(shards, bool)
        and shards >= 1
    )


def load_plans(store) -> list[tuple[str, dict]]:
    """All drainable published plans in *store*, as ``(key, value)`` pairs.

    Sorted by key, so every worker visits plans in the same order (workers
    colliding on the same plan is fine — that is the point — but a shared
    order drains one plan at full width before starting the next).  A
    malformed plan value is skipped with a :class:`RuntimeWarning`.
    """
    plans = []
    for key in sorted(store.keys("plan")):
        value = store.get("plan", key)
        if value is None:
            continue
        if not _valid_plan(value):
            warnings.warn(
                f"skipping malformed plan {key[:12]}: expected a PipelineConfig "
                "under 'config' and a shard count >= 1 under 'shards'",
                RuntimeWarning,
                stacklevel=2,
            )
            continue
        plans.append((key, value))
    return plans


def queue_status(directory, lease_seconds: float | None = None) -> dict:
    """Machine-readable queue state for one store directory.

    The single code path behind ``repro queue status`` (human and
    ``--json``), so every rendering agrees on what "live" or
    "quarantined" means.
    """
    queue = ShardQueue(directory, lease_seconds=lease_seconds)
    claims = queue.claim_records()
    for record in claims:
        record["expired"] = record.get("age_seconds", 0.0) > queue.lease_seconds
    return {
        "directory": str(directory),
        "lease_seconds": queue.lease_seconds,
        "max_attempts": queue.max_attempts,
        "claims": claims,
        "failures": queue.failure_records(),
    }


def drain_plan(runner, cfg) -> None:
    """Resolve every stage of *cfg* through *runner*.

    Ordered so independent work comes first: the suite-side measurements
    need no model, so workers blocked behind another worker's ``train``
    claim would otherwise idle when there are still suite shards to take.
    ``content_files`` is listed explicitly because the sharded corpus merge
    consumes mine *shards* directly — without it the whole-``mine`` entry
    an unsharded run leaves behind would be missing, and queue-drained
    stores must be entry-for-entry identical to unsharded ones.

    Raises :class:`~repro.errors.PlanFailed` when any task of the plan was
    (or becomes) quarantined: the plan cannot complete, and every draining
    worker surfaces the same poison shard instead of spinning.
    """
    runner.suite_measurements(cfg)
    runner.content_files(cfg)
    runner.synthesis(cfg)
    runner.synthetic_measurements(cfg)
