#!/usr/bin/env python
"""Profile (or just time) the synthesize-and-measure pipeline.

Runs the four pipeline phases — preprocess (corpus build), train, sample
(kernel synthesis), execute (driver measurement of suites + synthetic
kernels) — with per-phase wall-clock timing, optionally under cProfile.

Usage::

    PYTHONPATH=src python scripts/profile_pipeline.py                 # time phases
    PYTHONPATH=src python scripts/profile_pipeline.py --profile p.out # + cProfile
    PYTHONPATH=src python scripts/profile_pipeline.py --json out.json # + snapshot
    PYTHONPATH=src python scripts/profile_pipeline.py --warm          # + warm re-run
    PYTHONPATH=src python scripts/profile_pipeline.py \
        --cache-dir /tmp/store --warm                                 # on-disk store
    PYTHONPATH=src python scripts/profile_pipeline.py \
        --shards 4 --workers 4                                        # sharded + pooled

The pipeline runs through the stage graph (``repro.store``), and the
report includes per-stage cache hit/miss results; ``--warm`` re-runs the
whole pipeline against the now-populated store to show what a repeat
invocation costs per stage.  For a same-day before/after comparison, run
each checkout's own copy of this script (or ``perfbench/run.py``).
"""

from __future__ import annotations

import argparse
import cProfile
import json
import os
import pstats
import sys
import time

from repro.experiments.common import ExperimentConfig
from repro.store import PipelineConfig, PipelineRunner, warm_phases
from repro.store.artifact_store import ArtifactStore
from repro.store.fingerprint import SCHEMA_VERSIONS
from repro.store.queue import publish_plan
from repro.store.shards import ShardPlan, resolve_plan

PHASES = ("preprocess", "train", "sample", "execute")


def _stage_config(kernel_count: int, repository_count: int) -> PipelineConfig:
    config = ExperimentConfig.quick()
    config.synthetic_kernel_count = kernel_count
    config.corpus_repository_count = repository_count
    return PipelineConfig.from_experiment(config)


def run_pipeline(
    kernel_count: int,
    repository_count: int,
    timings: dict[str, float],
    cache_dir: str | None = None,
    stage_report: list[dict] | None = None,
    plan: ShardPlan | None = None,
) -> dict:
    """Run every phase through the stage graph; returns the output counts."""
    stage_config = _stage_config(kernel_count, repository_count)
    runner = PipelineRunner(cache_dir=cache_dir, plan=plan)
    if runner.stealing:
        # Publish the plan so concurrently launched `repro worker --store
        # DIR` processes can join this very run and drain its queue.
        key = publish_plan(runner.store, stage_config, runner.plan.shards)
        print(
            f"plan {key[:12]} published; join with: repro worker --store "
            f"{runner.store.directory}",
            file=sys.stderr,
        )
    corpus = runner.corpus(stage_config)
    runner.trained_model(stage_config)
    synthesis = runner.synthesis(stage_config)
    suites = runner.suite_measurements(stage_config)
    measurements = runner.synthetic_measurements(stage_config)

    timings.update(runner.phase_seconds())
    for phase in PHASES:
        timings.setdefault(phase, 0.0)
    if stage_report is not None:
        for event in runner.events:
            stage_report.append(
                {
                    "stage": event.stage,
                    "hit": event.hit,
                    "seconds": round(event.seconds, 3),
                    "fingerprint": event.fingerprint,
                }
            )
    return {
        "corpus_kernels": corpus.size,
        "synthesized": len(synthesis.kernels),
        "synthetic_measured": len(measurements),
        "suite_measurements": sum(len(m) for m in suites.suite_measurements.values()),
    }


def _clear_execution_caches() -> None:
    """Drop the process-wide compile/execute caches between repeats."""
    from repro.execution.cache import _SOURCE_CACHE, GLOBAL_COMPILATION_CACHE

    GLOBAL_COMPILATION_CACHE.clear()
    _SOURCE_CACHE.clear()


#: Artifact kinds produced by the execute phase — a repeat run must not
#: inherit these from a previous repeat's store.
_EXECUTE_KINDS = frozenset({
    "suite-measurements",
    "synthetic-measurements",
    "suite-measurements-shard",
    "synthetic-measurements-shard",
})


def run_execute_repeats(
    kernel_count: int,
    repository_count: int,
    repeats: int,
) -> list[float]:
    """``--phase execute --repeat N``: time the execute phase N times.

    The upstream phases (preprocess, train, sample) run once into an
    in-memory store; every repeat then resolves the execute stages against
    a fresh store seeded with only the upstream artifacts, with the
    process-wide compilation caches cleared first — so each sample is one
    cold, isolated execute phase over identical inputs.
    """
    stage_config = _stage_config(kernel_count, repository_count)
    upstream_store = ArtifactStore(memory_entries=256)
    upstream = PipelineRunner(store=upstream_store)
    upstream.corpus(stage_config)
    upstream.trained_model(stage_config)
    upstream.synthesis(stage_config)
    # Serialized upstream artifacts to seed each repeat's fresh store with
    # (the store keeps its memory layer as (kind, key) -> pickled bytes).
    seed_entries = {
        token: blob
        for token, blob in upstream_store._memory.items()
        if token[0] not in _EXECUTE_KINDS
    }

    samples: list[float] = []
    for repeat in range(repeats):
        _clear_execution_caches()
        store = ArtifactStore(memory_entries=256)
        store._memory.update(seed_entries)
        runner = PipelineRunner(store=store)
        runner.suite_measurements(stage_config)
        runner.synthetic_measurements(stage_config)
        seconds = runner.phase_seconds().get("execute", 0.0)
        samples.append(seconds)
        print(f"execute repeat {repeat + 1}/{repeats}: {seconds:8.3f} s", file=sys.stderr)
    return samples


def _print_stage_report(label: str, stage_report: list[dict]) -> None:
    print(f"{label}: {'stage':<12}{'result':>8}{'seconds':>10}")
    for entry in stage_report:
        result = "hit" if entry["hit"] else "miss"
        print(f"{'':<{len(label) + 2}}{entry['stage']:<12}{result:>8}{entry['seconds']:>10.3f}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--kernels", type=int, default=50,
                        help="synthetic kernels to generate (default: 50, the quick scale)")
    parser.add_argument("--repositories", type=int, default=30,
                        help="synthetic GitHub repositories to mine (default: 30)")
    parser.add_argument("--profile", metavar="PATH",
                        help="run under cProfile and write stats to PATH")
    parser.add_argument("--top", type=int, default=25,
                        help="with --profile, print the top N cumulative entries")
    parser.add_argument("--json", metavar="PATH",
                        help="write a BENCH-style JSON snapshot to PATH")
    parser.add_argument("--cache-dir", metavar="DIR", default=None,
                        help="on-disk artifact store (default: $REPRO_STORE_DIR or in-memory)")
    parser.add_argument("--warm", action="store_true",
                        help="after the timed run, re-run the pipeline against the "
                             "populated store and report per-stage warm timings")
    parser.add_argument("--shards", type=int, default=None,
                        help="split shardable stages into N per-range artifacts "
                             "(results bit-identical; default: unsharded)")
    parser.add_argument("--workers", type=int, default=None,
                        help="process-pool width for ready shards; implies --shards M "
                             "when --shards is not given (default: in-process); "
                             "not with --steal")
    parser.add_argument("--steal", action="store_true",
                        help="resolve through the work-stealing claim queue (needs "
                             "--cache-dir) and publish the plan so concurrent "
                             "`repro worker --store DIR` processes can join this run")
    parser.add_argument("--phase", choices=("execute",), default=None,
                        help="with --repeat, the single phase to time repeatedly "
                             "(only 'execute' is supported)")
    parser.add_argument("--repeat", type=int, default=None, metavar="N",
                        help="time the phase named by --phase N times (upstream "
                             "phases run once; each repeat is cold and isolated) "
                             "and report mean/min/stdev")
    args = parser.parse_args(argv)
    if (args.repeat is None) != (args.phase is None):
        parser.error("--phase and --repeat must be given together")
    if args.repeat is not None:
        if args.repeat < 1:
            parser.error("--repeat must be at least 1")
        incompatible = (args.profile or args.json or args.warm
                        or args.cache_dir or args.shards is not None
                        or args.workers is not None or args.steal)
        if incompatible:
            parser.error("--phase/--repeat runs in-memory and unsharded; it "
                         "cannot combine with --profile/--json/--warm/"
                         "--cache-dir/--shards/--workers/--steal")
        samples = run_execute_repeats(args.kernels, args.repositories, args.repeat)
        import statistics

        mean = statistics.fmean(samples)
        stdev = statistics.stdev(samples) if len(samples) > 1 else 0.0
        print(f"execute: mean {mean:.3f} s  min {min(samples):.3f} s  "
              f"stdev {stdev:.3f} s  ({len(samples)} repeats)")
        return 0
    if args.steal and not args.cache_dir and not os.environ.get("REPRO_STORE_DIR"):
        parser.error("--steal needs an on-disk store; pass --cache-dir "
                     "(or set REPRO_STORE_DIR)")
    # Same rules as the repro CLI: workers imply shards only when no shard
    # count was given, and a combination the plan refuses is a usage error.
    try:
        plan = resolve_plan(args.shards, args.workers, args.steal)
    except ValueError as error:
        parser.error(str(error))

    timings: dict[str, float] = {}
    cold_stages: list[dict] = []
    if args.profile:
        profiler = cProfile.Profile()
        profiler.enable()
        counts = run_pipeline(args.kernels, args.repositories, timings,
                              cache_dir=args.cache_dir,
                              stage_report=cold_stages, plan=plan)
        profiler.disable()
        profiler.dump_stats(args.profile)
        stats = pstats.Stats(profiler)
        stats.sort_stats("cumulative").print_stats(args.top)
        print(f"profile written to {args.profile}")
    else:
        counts = run_pipeline(args.kernels, args.repositories, timings,
                              cache_dir=args.cache_dir,
                              stage_report=cold_stages, plan=plan)

    warm_timings: dict[str, float] = {}
    warm_stages: list[dict] = []
    if args.warm:
        run_pipeline(args.kernels, args.repositories, warm_timings,
                     cache_dir=args.cache_dir,
                     stage_report=warm_stages, plan=plan)

    total = sum(timings.values())
    if warm_timings:
        warm_total = sum(warm_timings.values())
        print("phase        cold s    warm s")
        for phase in PHASES:
            print(f"{phase:10s} {timings.get(phase, 0.0):8.3f}  {warm_timings.get(phase, 0.0):8.3f}")
        print(f"{'total':10s} {total:8.3f}  {warm_total:8.3f}")
    else:
        print("phase      seconds")
        for phase in PHASES:
            print(f"{phase:10s} {timings.get(phase, 0.0):8.3f}")
        print(f"{'total':10s} {total:8.3f}")
    if cold_stages:
        _print_stage_report("cold", cold_stages)
    if warm_stages:
        _print_stage_report("warm", warm_stages)
    print(", ".join(f"{key}={value}" for key, value in counts.items()))

    if args.json:
        # Warm phases timed store lookups, not pipeline work, so they must
        # not masquerade as a cold BENCH snapshot.
        warm = warm_phases(cold_stages)
        if warm:
            print(
                f"snapshot NOT written: phases {', '.join(warm)} were served "
                "from the artifact store (warm); re-run with a cold store "
                "(clear it or unset REPRO_STORE_DIR)",
                file=sys.stderr,
            )
            return 1
        snapshot = {
            "scale": "quick",
            "phases_seconds": {k: round(v, 3) for k, v in timings.items()},
            "total_seconds": round(total, 3),
            "counts": counts,
            "unix_time": int(time.time()),
            # The synthesis schema version rides along so bench_compare can
            # flag (rather than fail) sample comparisons across a sampling
            # semantics bump, where every kernel legitimately changed.
            "sample_schema": SCHEMA_VERSIONS.get("synthesis", 1),
            "stages": cold_stages,
        }
        if warm_timings:
            snapshot["warm_phases_seconds"] = {
                k: round(v, 3) for k, v in warm_timings.items()
            }
            snapshot["warm_total_seconds"] = round(sum(warm_timings.values()), 3)
            snapshot["warm_stages"] = warm_stages
        with open(args.json, "w") as handle:
            json.dump(snapshot, handle, indent=2)
            handle.write("\n")
        print(f"snapshot written to {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
