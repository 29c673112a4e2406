#!/usr/bin/env python
"""Chaos soak for the work-stealing queue: kill, corrupt and starve real
``repro worker`` processes and assert the surviving fleet's output is
byte-identical to an unsharded run.

Usage::

    PYTHONPATH=src python scripts/chaos_drain.py --rounds 6
    PYTHONPATH=src python scripts/chaos_drain.py --rounds 12 --workers 3
    PYTHONPATH=src python scripts/chaos_drain.py --rounds 1 --fault poison_shard

Each round publishes the same tiny pipeline plan into a fresh store and
launches ``--workers`` worker subprocesses; one of them is armed with a
``REPRO_FAULTS`` spec drawn from a menu cycling over every protocol edge
(crash after claim, crash mid-shard, crash before the merge lands, torn
store write, transient put errors).  Crashed workers die with exit code 70
(``faults.CRASH_EXIT_CODE``) — a *hard* ``os._exit``, no cleanup — and a
final clean worker then drains whatever the casualties left behind.

Pass criteria per round:

* fault rounds — the merged whole-pipeline artifacts are byte-identical to
  the unsharded reference, no claim files remain, the clean finisher exits
  zero;
* the ``poison_shard`` round (a shard deterministically fails on every
  worker) — the plan is quarantined after exactly ``REPRO_QUEUE_MAX_ATTEMPTS``
  attempts, the failure artifact names the shard, and workers exit
  non-zero.

Any violation prints a diagnosis and the script exits 1.  Documented in
ROADMAP.md's benchmark protocol; the ``-m chaos`` pytest marker runs a
short version of this soak.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.store.artifact_store import ArtifactStore  # noqa: E402
from repro.store.faults import CRASH_EXIT_CODE  # noqa: E402
from repro.store.queue import default_max_attempts, publish_plan  # noqa: E402
from repro.store.stages import PipelineConfig, PipelineRunner  # noqa: E402

SHARDS = 3

#: The merged, user-visible artifact kinds a drained plan must contain —
#: shard-level entries are implementation detail (a torn shard entry is
#: healed lazily by the next reader, so only merged output is the bar).
WHOLE_KINDS = (
    "mine",
    "corpus",
    "model",
    "synthesis",
    "suite-measurements",
    "synthetic-measurements",
)

#: (menu name, REPRO_FAULTS spec, expect_quarantine, arm_all_workers).
#: ``{seed}`` is filled with the round number so probabilistic rounds
#: differ while staying reproducible.
FAULT_MENU = [
    ("crash_after_claim", "crash_after_claim:shard=1", False, False),
    ("crash_mid_shard", "crash_mid_shard:shard=0", False, False),
    # Armed on every worker so the crash fires no matter who wins the merge
    # claim (run_round raises the retry budget above the armed count); the
    # clean finisher then steals the held claim back and re-merges.
    ("crash_pre_merge", "crash_pre_merge:kind=synthesis", False, True),
    ("torn_write", "torn_write:kind=synthesis-shard", False, False),
    ("io_error_put", "io_error:put:p=0.3:seed={seed}", False, False),
    ("poison_shard", "fail_shard:shard=1:p=1", True, True),
]


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


def build_reference(directory: Path) -> None:
    """Resolve the config unsharded and fault-free: the byte ground truth."""
    runner = PipelineRunner(store=ArtifactStore(directory=directory))
    cfg = tiny_config()
    runner.content_files(cfg)
    runner.synthesis(cfg)
    runner.suite_measurements(cfg)
    runner.synthetic_measurements(cfg)


def _subprocess_env(faults: str | None, max_attempts: int | None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("REPRO_STORE_DIR", None)
    if faults is None:
        env.pop("REPRO_FAULTS", None)
    else:
        env["REPRO_FAULTS"] = faults
    if max_attempts is not None:
        env["REPRO_QUEUE_MAX_ATTEMPTS"] = str(max_attempts)
    return env


def launch_worker(
    store: Path, lease: float, faults: str | None, max_attempts: int | None = None
) -> subprocess.Popen:
    return subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "worker",
            "--store",
            str(store),
            "--lease",
            str(lease),
        ],
        env=_subprocess_env(faults, max_attempts),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


def compare_stores(reference: Path, candidate: Path) -> list[str]:
    problems = []
    for kind in WHOLE_KINDS:
        entries = sorted((reference / kind).glob("*/*.pkl"))
        if not entries:
            problems.append(f"reference store is missing {kind} entries")
            continue
        for entry in entries:
            twin = candidate / kind / entry.parent.name / entry.name
            if not twin.exists():
                problems.append(f"{kind}: drained run missed key {entry.name}")
            elif entry.read_bytes() != twin.read_bytes():
                problems.append(f"{kind}: entry {entry.name} differs from reference")
    return problems


def run_round(
    number: int,
    menu_entry: tuple[str, str, bool, bool],
    reference: Path,
    scratch: Path,
    workers: int,
    lease: float,
    timeout: float,
) -> list[str]:
    """One chaos round; returns a list of violations (empty = pass)."""
    name, template, expect_quarantine, arm_all = menu_entry
    faults = template.format(seed=number)
    directory = scratch / f"round-{number:03d}-{name}" / "store"
    store = ArtifactStore(directory=directory)
    publish_plan(store, tiny_config(), SHARDS)
    print(f"round {number} [{name}]: faults={faults!r} workers={workers}")

    # Every armed worker can die holding the same task, and each death
    # spends one attempt of the retry budget.  A round that must survive
    # its crashes therefore needs a budget above the armed count, or
    # quarantine is the correct protocol outcome; the poison round keeps
    # the default budget, which it asserts exactly.
    max_attempts = workers + 1 if arm_all and not expect_quarantine else None
    fleet = [
        launch_worker(
            directory, lease, faults if (index == 0 or arm_all) else None, max_attempts
        )
        for index in range(workers)
    ]
    crashed = 0
    for index, worker in enumerate(fleet):
        try:
            stdout, stderr = worker.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            worker.kill()
            worker.communicate()
            return [f"worker {index} livelocked past {timeout:.0f}s (fault {name})"]
        if worker.returncode == CRASH_EXIT_CODE:
            crashed += 1
            print(f"  worker {index} died as scripted (exit {CRASH_EXIT_CODE})")
        elif worker.returncode not in (0, 1):
            return [
                f"worker {index} exited {worker.returncode} unexpectedly:\n{stderr}"
            ]

    # A clean finisher drains whatever the casualties left held; its claims
    # on dead workers' shards go through the lease-expiry steal-back path.
    finisher = launch_worker(directory, lease, None, max_attempts)
    try:
        stdout, stderr = finisher.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        finisher.kill()
        finisher.communicate()
        return [f"clean finisher livelocked past {timeout:.0f}s (fault {name})"]

    problems: list[str] = []
    failures = sorted(directory.glob("queue/failures/*.json"))
    if expect_quarantine:
        budget = default_max_attempts()
        if finisher.returncode == 0:
            problems.append("poison round: clean finisher exited 0, expected non-zero")
        if "quarantined" not in stderr:
            problems.append("poison round: finisher stderr never mentioned quarantine")
        if not failures:
            problems.append("poison round: no failure artifact under queue/failures/")
        for path in failures:
            record = json.loads(path.read_text())
            attempts = record.get("attempts", [])
            if len(attempts) != budget:
                problems.append(
                    f"poison round: {path.name} has {len(attempts)} attempts, "
                    f"expected exactly {budget}"
                )
        print(f"  quarantined as expected ({len(failures)} failure artifact(s))")
        return problems

    if finisher.returncode != 0:
        problems.append(
            f"clean finisher exited {finisher.returncode} (fault {name}):\n{stderr}"
        )
    if failures:
        problems.append(
            f"fault {name} unexpectedly quarantined: {[p.name for p in failures]}"
        )
    leftover = sorted(directory.glob("queue/claims/*.claim"))
    if leftover:
        problems.append(f"claims left after drain: {[p.name for p in leftover]}")
    problems.extend(compare_stores(reference, directory))
    if not problems:
        print(f"  byte-identical to reference ({crashed} scripted crash(es))")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--rounds", type=int, default=len(FAULT_MENU),
        help="chaos rounds to run; the fault menu cycles (default: one full cycle)",
    )
    parser.add_argument(
        "--workers", type=int, default=2,
        help="worker processes per round, one of them armed (default: 2)",
    )
    parser.add_argument(
        "--lease", type=float, default=2.0,
        help="claim lease seconds — short, so steal-back is exercised (default: 2)",
    )
    parser.add_argument(
        "--timeout", type=float, default=600.0,
        help="per-worker drain timeout; exceeding it is a livelock verdict",
    )
    parser.add_argument(
        "--fault", choices=[name for name, *_ in FAULT_MENU], default=None,
        help="pin every round to this one fault instead of cycling the menu",
    )
    parser.add_argument(
        "--scratch", type=str, default=None, metavar="DIR",
        help="working directory for the round stores (default: a tmpdir, removed)",
    )
    args = parser.parse_args(argv)

    owned_scratch = args.scratch is None
    scratch = Path(args.scratch or tempfile.mkdtemp(prefix="repro-chaos-"))
    scratch.mkdir(parents=True, exist_ok=True)
    started = time.monotonic()
    try:
        reference = scratch / "reference" / "store"
        print(f"building unsharded reference in {reference} ...")
        build_reference(reference)

        menu = (
            [entry for entry in FAULT_MENU if entry[0] == args.fault]
            if args.fault
            else FAULT_MENU
        )
        violations: list[str] = []
        for number in range(args.rounds):
            entry = menu[number % len(menu)]
            violations.extend(
                run_round(
                    number, entry, reference, scratch,
                    args.workers, args.lease, args.timeout,
                )
            )
        elapsed = time.monotonic() - started
        if violations:
            print(f"\nCHAOS FAILED in {elapsed:.1f}s — {len(violations)} violation(s):")
            for violation in violations:
                print(f"  - {violation}")
            return 1
        print(f"\nchaos clean: {args.rounds} round(s) in {elapsed:.1f}s")
        return 0
    finally:
        if owned_scratch:
            shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
