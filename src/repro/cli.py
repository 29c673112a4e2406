"""Command-line interface: ``clgen-repro`` / ``python -m repro``.

Sub-commands mirror the original tool's workflow:

* ``mine``        — mine the (synthetic) GitHub corpus and print its statistics
* ``train``       — train a language model on the corpus and checkpoint it
* ``sample``      — synthesize kernels from a trained (or freshly trained) model
* ``experiments`` — regenerate every table/figure and print the report
* ``pipeline``    — run every stage once and report per-stage cache hits/timings
* ``worker``      — join published pipeline plans and drain their queues
* ``queue``       — ``status`` of the work-stealing claim queue
* ``store``       — ``stats`` / ``gc`` for the on-disk artifact store
* ``lint``        — static kernel analyzer (bailout prediction, soundness gate)

``--shards N`` splits the data-parallel stages (mine/preprocess by
repository range, sample by kernel-stream range, execute by
benchmark/kernel range) into per-range store artifacts, and ``--workers
M`` dispatches ready shards to a process pool — multiple workers or
machines pointing at one ``--cache-dir`` fill it concurrently, with
results bit-identical to an unsharded run.  ``--steal`` goes further:
instead of static ranges, pending work is claimed from a lease-based
queue in the store, ``repro pipeline --steal`` publishes its plan, and
any number of ``repro worker --store DIR`` processes join in and drain
it until the merge fires; those processes, not ``--workers``, give steal
mode its width.  The shard plan is the only parallelism: without it
every stage runs in the calling process.

Every sub-command resolves its heavy inputs through the pipeline stage
graph (:mod:`repro.store`): with ``--cache-dir`` (or ``REPRO_STORE_DIR``)
set, artifacts persist on disk and repeat invocations stop re-mining,
re-preprocessing, re-training and re-sampling from scratch — ``train``
after ``mine`` reuses the corpus, ``sample`` after ``train`` reuses the
model, and a second ``experiments`` run reuses everything untouched.
"""

from __future__ import annotations

import argparse
import sys

from repro.experiments import ExperimentConfig, run_all
from repro.model import load_model, save_model
from repro.store import PipelineConfig, PipelineRunner, STAGE_ORDER
from repro.synthesis import CLgen, SamplerConfig


def _make_runner(args: argparse.Namespace) -> PipelineRunner:
    return PipelineRunner(cache_dir=args.cache_dir, plan=args.plan)


def _parse_size(text: str) -> int:
    """``"500M"`` / ``"2G"`` / plain bytes → bytes (must be >= 0).

    Shares its grammar with the ``REPRO_STORE_MAX_BYTES`` auto-gc
    watermark (:func:`repro.envutil.parse_size`); a negative bound would
    read as "evict everything", so it is rejected before it can wipe a
    shared store.
    """
    from repro.envutil import parse_size

    try:
        return parse_size(text)
    except (ValueError, OverflowError):
        raise argparse.ArgumentTypeError(f"not a size: {text!r} (try 500M, 2G, ...)")


def _parse_age(text: str) -> float:
    """``"7d"`` / ``"12h"`` / ``"30m"`` / plain seconds → seconds (must be >= 0).

    The ``repro store gc --max-age`` grammar.  A negative age would read as
    "evict everything", so it is rejected like malformed or NaN input.
    """
    units = {"s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0, "w": 604800.0}
    raw = text.strip().lower()
    try:
        if raw and raw[-1] in units:
            value = float(raw[:-1]) * units[raw[-1]]
        else:
            value = float(raw)
    except ValueError:
        value = -1.0
    if not value >= 0:  # malformed, negative or NaN
        raise argparse.ArgumentTypeError(f"not a duration: {text!r} (try 30m, 12h, 7d)")
    return value


def _format_bytes(count: int) -> str:
    value = float(count)
    for unit in ("B", "KiB", "MiB"):
        if value < 1024.0:
            return f"{value:.1f} {unit}" if unit != "B" else f"{int(value)} B"
        value /= 1024.0
    return f"{value:.1f} GiB"


def _cmd_mine(args: argparse.Namespace) -> int:
    runner = _make_runner(args)
    config = PipelineConfig(repository_count=args.repositories, seed=args.seed)
    corpus = runner.corpus(config)
    stats = corpus.statistics
    print(f"content files: {stats.content_files} ({stats.content_lines} lines)")
    print(f"accepted: {stats.accepted_files}  rejected: {stats.rejected_files} "
          f"(discard rate {stats.discard_rate * 100:.1f}%)")
    print(f"corpus: {corpus.size} kernels, {corpus.line_count} lines")
    print(f"vocabulary reduction: {stats.vocabulary_reduction * 100:.0f}%")
    return 0


def _train_config(args: argparse.Namespace) -> PipelineConfig:
    """The pipeline configuration ``repro train`` flags describe.

    The LSTM hyper-parameter flags thread into ``PipelineConfig.lstm`` —
    and therefore into the ``model`` fingerprint — so two trainings with
    different knobs never share a checkpoint entry.  They are refused with
    the n-gram backend rather than silently ignored.
    """
    lstm = None
    lstm_flags = {
        "epochs": getattr(args, "lstm_epochs", None),
        "hidden_size": getattr(args, "lstm_size", None),
    }
    given = {name: value for name, value in lstm_flags.items() if value is not None}
    if given:
        if args.backend != "lstm":
            raise SystemExit(
                "error: --lstm-epochs/--lstm-size require --backend lstm"
            )
        from repro.model.lstm import LSTMConfig

        lstm = LSTMConfig(**given)
    return PipelineConfig(
        repository_count=args.repositories,
        seed=args.seed,
        backend=args.backend,
        ngram_order=args.order,
        lstm=lstm,
    )


def _cmd_train(args: argparse.Namespace) -> int:
    runner = _make_runner(args)
    config = _train_config(args)
    trained = runner.trained_model(config)
    print(f"trained {args.backend} model on {trained.corpus_characters} characters "
          f"(final loss {trained.summary.final_loss:.3f})")
    if args.checkpoint:
        path = save_model(trained.model, args.checkpoint)
        print(f"checkpoint written to {path}")
    return 0


def _cmd_sample(args: argparse.Namespace) -> int:
    if args.checkpoint:
        # Sample a previously saved model without rebuilding or retraining.
        # Same attempt budget as the stage-graph path, so the two paths
        # sample identically for the same model and flags.
        model = load_model(args.checkpoint)
        clgen = CLgen(
            model=model, sampler_config=SamplerConfig(temperature=args.temperature)
        )
        result = clgen.generate_kernels(
            args.count,
            seed=args.seed,
            max_attempts_per_kernel=PipelineConfig().max_attempts_per_kernel,
        )
    else:
        runner = _make_runner(args)
        # Deliberately all-default beyond the flags: the same flags must
        # produce the same synthesis fingerprint as `repro pipeline` and the
        # experiment harness, so the sub-commands share artifacts.
        config = PipelineConfig(
            repository_count=args.repositories,
            seed=args.seed,
            ngram_order=args.order,
            sampler_temperature=args.temperature,
            synthetic_kernel_count=args.count,
            sample_seed=args.seed,
        )
        result = runner.synthesis(config)
    for kernel in result.kernels:
        print(kernel.source)
        print()
    stats = result.statistics
    print(
        f"// generated {stats.generated}/{stats.requested} kernels in {stats.attempts} attempts "
        f"(acceptance rate {stats.acceptance_rate * 100:.0f}%)",
        file=sys.stderr,
    )
    return 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    config = ExperimentConfig.full() if args.full else ExperimentConfig.quick()
    if args.synthetic_kernels:
        config.synthetic_kernel_count = args.synthetic_kernels
    report = run_all(config, runner=_make_runner(args))
    print(report.render())
    return 0


def _cmd_pipeline(args: argparse.Namespace) -> int:
    """Run every stage once and report the store's work for each."""
    runner = _make_runner(args)
    config = PipelineConfig(
        repository_count=args.repositories,
        seed=args.seed,
        ngram_order=args.order,
        sampler_temperature=args.temperature,
        synthetic_kernel_count=args.count,
        sample_seed=args.seed,
        executed_global_size=args.global_size,
        local_size=args.local_size,
        payload_seed=args.seed,
    )
    if runner.stealing:
        # Make this run joinable: `repro worker --store DIR` discovers the
        # published plan and drains the same claim queue concurrently.
        from repro.store.queue import publish_plan

        key = publish_plan(runner.store, config, runner.plan.shards)
        print(f"// plan {key[:12]} published; join with: "
              f"repro worker --store {runner.store.directory}", file=sys.stderr)
    suites = runner.suite_measurements(config)
    synthesis = runner.synthesis(config)
    measurements = runner.synthetic_measurements(config)

    print(f"{'stage':<12}{'result':>8}{'seconds':>10}  fingerprint")
    by_stage: dict[str, list] = {}
    for event in runner.events:
        by_stage.setdefault(event.stage, []).append(event)
    total = 0.0
    for stage in STAGE_ORDER:
        for event in by_stage.get(stage, ()):
            label = "hit" if event.hit else "miss"
            total += event.seconds
            print(f"{stage:<12}{label:>8}{event.seconds:>10.3f}  {event.fingerprint[:12]}")
    print(f"{'total':<12}{'':>8}{total:>10.3f}")

    suite_count = sum(len(m) for m in suites.suite_measurements.values())
    print(
        f"// {synthesis.statistics.generated} kernels synthesized, "
        f"{len(measurements)} synthetic + {suite_count} suite measurements",
        file=sys.stderr,
    )
    if runner.store.directory is None:
        print(
            "// no on-disk store configured; pass --cache-dir (or set "
            "REPRO_STORE_DIR) to persist artifacts across runs",
            file=sys.stderr,
        )
    return 0


def _print_plan_failure(store, key: str, failure) -> None:
    """One readable summary per failed plan: the poison task, its attempt
    history, and where the full structured record lives."""
    record = failure.record
    attempts = record.get("attempts", [])
    print(f"plan {key[:12]} FAILED: {failure}", file=sys.stderr)
    for entry in attempts:
        print(
            f"  attempt {entry.get('attempt', '?')} "
            f"by {entry.get('worker', 'unknown')}: {entry.get('error', 'unknown')}",
            file=sys.stderr,
        )
    failure_path = (
        store.directory / "queue" / "failures" / f"{failure.task_id}.json"
        if store.directory is not None
        else None
    )
    if failure_path is not None:
        print(f"  full record: {failure_path}", file=sys.stderr)


def _cmd_worker(args: argparse.Namespace) -> int:
    """Join published pipeline plans and drain their claim queues.

    The inverse of ``repro pipeline --steal``: instead of describing work,
    a worker makes one pass over the plans already published in the store
    and claims whatever stages/shards are still pending, until every plan
    is fully resolved.  Any number of workers — across processes and
    machines sharing the store directory — cooperate through the claim
    protocol; results are bit-identical to a single-process run.

    A plan whose shard exhausted its retry budget (``PlanFailed``) does not
    take the worker down: the failure artifact is summarized, the remaining
    plans still drain, and the exit status is non-zero so whoever launched
    the worker sees the quarantine.
    """
    from repro.errors import PlanFailed
    from repro.store import PipelineRunner, resolve_store
    from repro.store.queue import drain_plan, load_plans
    from repro.store.shards import ShardPlan

    store = resolve_store(args.store)
    if store.directory is None:
        print(
            "error: a worker needs an on-disk store; pass --store or set REPRO_STORE_DIR",
            file=sys.stderr,
        )
        return 2

    plans = load_plans(store)
    if not plans:
        print(f"no published plans in {store.directory}", file=sys.stderr)
        return 0
    failed = 0
    for key, plan in plans:
        runner = PipelineRunner(
            store=store,
            plan=ShardPlan(shards=plan["shards"], steal=True),
            lease_seconds=args.lease,
        )
        try:
            drain_plan(runner, plan["config"])
        except PlanFailed as failure:
            failed += 1
            _print_plan_failure(store, key, failure)
            continue
        counts = runner.stage_counts()
        computed = sum(bucket["miss"] for bucket in counts.values())
        served = sum(bucket["hit"] for bucket in counts.values())
        print(f"plan {key[:12]}: computed {computed} stage artifacts, "
              f"{served} served by the store or other workers")

    drained = len(plans) - failed
    if failed:
        print(
            f"drained {drained} plan(s); "
            f"{failed} plan(s) ended in quarantined shards",
            file=sys.stderr,
        )
        return 1
    print(f"drained {drained} plan(s)")
    return 0


def _cmd_queue_status(args: argparse.Namespace) -> int:
    """Inspect the claim queue: live claims and quarantined failures.

    Both renderings come from the same :func:`repro.store.queue.queue_status`
    payload, so the human table and ``--json`` can never disagree about
    queue state.
    """
    import json

    from repro.store import resolve_store
    from repro.store.queue import queue_status

    store = resolve_store(args.store)
    if store.directory is None:
        print(
            "error: the queue lives in an on-disk store; pass --store or set "
            "REPRO_STORE_DIR",
            file=sys.stderr,
        )
        return 2
    status = queue_status(store.directory)
    claims, failures = status["claims"], status["failures"]
    if getattr(args, "json", False):
        print(json.dumps(status, indent=2))
        return 1 if failures else 0
    print(f"queue: {status['directory']}")
    print(f"claims: {len(claims)} live (lease {status['lease_seconds']:.0f}s)")
    for record in claims:
        if record.get("unreadable"):
            print(f"  {record['task'][:16]}  <unreadable claim>")
            continue
        age = record.get("age_seconds", 0.0)
        state = "EXPIRED" if record.get("expired") else "live"
        print(
            f"  {record['task'][:16]}  attempt {record.get('attempt', '?')}  "
            f"age {age:6.1f}s  {state}  held by {record.get('worker', 'unknown')}"
        )
    print(f"failures: {len(failures)} quarantined "
          f"(budget {status['max_attempts']} attempts)")
    for record in failures:
        attempts = record.get("attempts", [])
        last = attempts[-1].get("error", "unknown") if attempts else "unknown"
        print(f"  {record.get('task', '?')[:16]}  {len(attempts)} attempts  "
              f"last error: {last}")
    return 1 if failures else 0


def _store_for(args: argparse.Namespace):
    """The directory-backed store the ``store`` sub-commands operate on."""
    from repro.store import resolve_store

    store = resolve_store(getattr(args, "cache_dir", None))
    if store.directory is None:
        print(
            "error: no on-disk store configured; pass --cache-dir or set REPRO_STORE_DIR",
            file=sys.stderr,
        )
        return None
    return store


def _cmd_store_stats(args: argparse.Namespace) -> int:
    store = _store_for(args)
    if store is None:
        return 2
    stats = store.stats()
    print(f"store: {store.directory}")
    print(f"{'kind':<28}{'entries':>10}{'bytes':>14}")
    for kind in sorted(stats.kinds):
        bucket = stats.kinds[kind]
        print(f"{kind:<28}{bucket['entries']:>10}{_format_bytes(bucket['bytes']):>14}")
    print(f"{'total':<28}{stats.entries:>10}{_format_bytes(stats.bytes):>14}")
    return 0


def _cmd_store_gc(args: argparse.Namespace) -> int:
    if args.max_bytes is None and args.max_age is None:
        print("error: pass --max-bytes and/or --max-age", file=sys.stderr)
        return 2
    store = _store_for(args)
    if store is None:
        return 2
    result = store.gc(max_bytes=args.max_bytes, max_age_seconds=args.max_age)
    print(
        f"removed {result.removed_entries} entries ({_format_bytes(result.removed_bytes)}); "
        f"{result.remaining_entries} entries ({_format_bytes(result.remaining_bytes)}) remain"
    )
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    import json

    from repro.analysis.lint import lint_paths, lint_suites

    if args.soundness:
        from repro.analysis.soundness import check_suites, check_synthesized

        report = check_suites()
        if args.synthesized:
            synth = check_synthesized(count=args.synthesized, seed=args.seed)
            report.records.extend(synth.records)
        if args.json:
            print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
        else:
            print(f"soundness: {report.summary()}")
            for record in report.disagreements:
                marker = "VIOLATION" if record.violation else "miss"
                print(
                    f"  [{marker}] {record.name}: static={record.static} "
                    f"dynamic={record.dynamic} {record.dynamic_cause}"
                )
        if not report.sound:
            print(
                f"error: {len(report.violations)} lockstep-safe kernel(s) "
                "dynamically bailed out",
                file=sys.stderr,
            )
            return 1
        return 0

    report = lint_paths(args.paths) if args.paths else lint_suites()
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(f"lint: {report.summary()}")
        for record in report.records:
            if record.error:
                print(f"  [error] {record.name}: {record.error}")
            elif record.verdict is not None and record.verdict.causes:
                causes = "; ".join(record.verdict.cause_strings())
                print(f"  [{record.classification}] {record.name}: {causes}")
    failed = [record for record in report.records if record.error]
    return 1 if (args.paths and failed) else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clgen-repro",
        description="Reproduction of 'Synthesizing Benchmarks for Predictive Modeling' (CGO 2017)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--cache-dir",
        type=str,
        default=None,
        help="artifact-store directory (default: $REPRO_STORE_DIR, else in-memory only)",
    )
    # The shard-plan flags, only on the commands that build a runner.
    plan = argparse.ArgumentParser(add_help=False)
    plan.add_argument(
        "--shards",
        type=int,
        default=None,
        help="split shardable stages into N per-range artifacts "
             "(default: unsharded); results are bit-identical",
    )
    plan.add_argument(
        "--workers",
        type=int,
        default=None,
        help="process-pool width for ready shards; implies --shards M when "
             "--shards is not given (default: in-process); not with --steal",
    )
    plan.add_argument(
        "--steal",
        action="store_true",
        default=False,
        help="resolve stages through the work-stealing claim queue (needs "
             "--cache-dir / REPRO_STORE_DIR); concurrent runners and "
             "`repro worker` processes then drain the same plan",
    )

    mine = subparsers.add_parser(
        "mine", parents=[common, plan], help="mine the OpenCL corpus and print statistics"
    )
    mine.add_argument("--repositories", type=int, default=100)
    mine.add_argument("--seed", type=int, default=0)
    mine.set_defaults(func=_cmd_mine)

    train = subparsers.add_parser(
        "train", parents=[common, plan], help="train a language model on the corpus"
    )
    train.add_argument("--repositories", type=int, default=100)
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--backend", choices=["ngram", "lstm"], default="ngram")
    train.add_argument("--order", type=int, default=12)
    train.add_argument("--checkpoint", type=str, default=None)
    train.add_argument(
        "--lstm-epochs",
        type=int,
        default=None,
        metavar="N",
        help="LSTM training epochs (requires --backend lstm; fingerprints "
             "the checkpoint, so different values never collide)",
    )
    train.add_argument(
        "--lstm-size",
        type=int,
        default=None,
        metavar="UNITS",
        help="LSTM hidden-layer width (requires --backend lstm)",
    )
    train.set_defaults(func=_cmd_train)

    sample = subparsers.add_parser(
        "sample", parents=[common, plan], help="synthesize OpenCL kernels"
    )
    sample.add_argument("--count", type=int, default=10)
    # Same default as mine/train: identical flags must resolve to the same
    # corpus/model fingerprints so the sub-commands reuse each other's
    # artifacts.
    sample.add_argument("--repositories", type=int, default=100)
    sample.add_argument("--seed", type=int, default=0)
    sample.add_argument("--order", type=int, default=12)
    sample.add_argument("--temperature", type=float, default=0.6)
    sample.add_argument(
        "--checkpoint",
        type=str,
        default=None,
        help="sample a saved model checkpoint instead of mining and training",
    )
    sample.set_defaults(func=_cmd_sample)

    experiments = subparsers.add_parser(
        "experiments", parents=[common, plan], help="regenerate every table and figure"
    )
    experiments.add_argument("--full", action="store_true", help="paper-scale configuration")
    experiments.add_argument("--synthetic-kernels", type=int, default=None)
    experiments.set_defaults(func=_cmd_experiments)

    pipeline = subparsers.add_parser(
        "pipeline",
        parents=[common, plan],
        help="run all pipeline stages once, reporting per-stage cache hits and timings",
    )
    pipeline.add_argument("--repositories", type=int, default=100)
    pipeline.add_argument("--seed", type=int, default=0)
    pipeline.add_argument("--order", type=int, default=12)
    pipeline.add_argument("--temperature", type=float, default=0.6)
    pipeline.add_argument("--count", type=int, default=50)
    pipeline.add_argument("--global-size", type=int, default=128)
    pipeline.add_argument("--local-size", type=int, default=32)
    pipeline.set_defaults(func=_cmd_pipeline)

    worker = subparsers.add_parser(
        "worker",
        help="join published pipeline plans in a shared store and drain "
             "their work-stealing queues until empty",
    )
    worker.add_argument(
        "--store",
        type=str,
        default=None,
        metavar="DIR",
        help="the shared artifact-store directory (default: $REPRO_STORE_DIR)",
    )
    worker.add_argument(
        "--lease",
        type=float,
        default=None,
        metavar="SECONDS",
        help="claim lease; a claim older than this is treated as a crashed "
             "worker's and stolen (default: $REPRO_QUEUE_LEASE, else 300)",
    )
    worker.set_defaults(func=_cmd_worker)

    queue = subparsers.add_parser(
        "queue", help="inspect the work-stealing claim queue"
    )
    queue_sub = queue.add_subparsers(dest="queue_command", required=True)
    queue_status = queue_sub.add_parser(
        "status",
        help="list live claims (task, worker, attempt, lease age) and "
             "quarantined failures; exits non-zero if any task is quarantined",
    )
    queue_status.add_argument(
        "--store",
        type=str,
        default=None,
        metavar="DIR",
        help="the shared artifact-store directory (default: $REPRO_STORE_DIR)",
    )
    queue_status.add_argument(
        "--json",
        action="store_true",
        help="emit the machine-readable status payload "
             "(repro.store.queue.queue_status)",
    )
    queue_status.set_defaults(func=_cmd_queue_status)

    store = subparsers.add_parser(
        "store", help="inspect or bound the on-disk artifact store"
    )
    store_sub = store.add_subparsers(dest="store_command", required=True)
    store_stats = store_sub.add_parser(
        "stats", parents=[common], help="entry count, bytes and per-kind breakdown"
    )
    store_stats.set_defaults(func=_cmd_store_stats)
    store_gc = store_sub.add_parser(
        "gc",
        parents=[common],
        help="drop old entries (age first, then least-recently-written) "
             "until the store fits the bounds",
    )
    store_gc.add_argument(
        "--max-bytes",
        type=_parse_size,
        default=None,
        metavar="SIZE",
        help="keep at most SIZE on disk (accepts suffixes: 500M, 2G, ...)",
    )
    store_gc.add_argument(
        "--max-age",
        type=_parse_age,
        default=None,
        metavar="AGE",
        help="drop entries older than AGE (accepts suffixes: 30m, 12h, 7d, ...)",
    )
    store_gc.set_defaults(func=_cmd_store_gc)

    lint = subparsers.add_parser(
        "lint",
        help="static kernel analyzer: predict lockstep bailouts without "
             "executing (default target: the benchmark suites)",
    )
    lint.add_argument(
        "paths",
        nargs="*",
        metavar="FILE",
        help="OpenCL kernel files to lint (default: every suite benchmark)",
    )
    lint.add_argument(
        "--soundness",
        action="store_true",
        help="cross-check static verdicts against dynamic lockstep execution; "
             "exits 1 if any statically-safe kernel bails out",
    )
    lint.add_argument(
        "--synthesized",
        type=int,
        default=0,
        metavar="N",
        help="with --soundness, additionally cross-check the unique kernels "
             "of one N-kernel synthesis request (301 for N=500 at seed 0)",
    )
    lint.add_argument("--seed", type=int, default=0)
    lint.add_argument("--json", action="store_true", help="emit the raw report")
    lint.set_defaults(func=_cmd_lint)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if "steal" in vars(args):
        # Resolve the shard plan with the flags, so a combination the plan
        # refuses is a usage error before any work starts.
        from repro.store.shards import resolve_plan

        try:
            args.plan = resolve_plan(args.shards, args.workers, args.steal)
        except ValueError as error:
            parser.error(str(error))
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
