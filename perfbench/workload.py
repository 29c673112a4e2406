"""One cold repetition of a benchmark workload, in a process of its own.

``run.py`` spawns this once per repetition with every ``REPRO_*`` variable
unset and ``PYTHONPATH`` pointing at the checkout's ``src``::

    python3 perfbench/workload.py WORKLOAD SEED REP MODE SPAWNED_AT OUT_DIR

``SPAWNED_AT`` is the parent's ``time.monotonic()`` just before the spawn, so
``setup_s`` covers interpreter start, imports and input generation.  With
``MODE`` ``untraced`` or ``traced`` the timed region runs without or with the
tracer; the output checks run after it, untimed and untraced.  With ``MODE``
``setup`` the process stops on entering the timed region: a set-up-only
repetition, so a run can take the median of several set-up times.  The
interpreter and sequential-sampler checks cost seconds, so they run in
repetition 0 only; the ``experiments`` report check is free and runs in
every repetition.  The last line of standard output is one JSON object with
the repetition's results.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import random
import resource
import statistics
import sys
import threading
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent

#: ``pipeline`` scale: the ROADMAP's full-scale protocol, as ``repro
#: pipeline --repositories 150 --count 1000`` configures it.
PIPELINE = dict(
    repository_count=150,
    ngram_order=12,
    sampler_temperature=0.6,
    synthetic_kernel_count=1000,
    max_attempts_per_kernel=40,
    executed_global_size=128,
    local_size=32,
)
#: ``measure-wide`` launch size: enough work-items that per-item engine cost
#: dominates per-launch overhead.
WIDE_GLOBAL_SIZE = 2048
WIDE_LOCAL_SIZE = 32

#: Output-check subset sizes (drawn from the workload seed).
PIPELINE_SUITE_CHECKS = 4
PIPELINE_KERNEL_CHECKS = 4
PIPELINE_REGEN_STREAMS = 8
PIPELINE_EXCLUDED_CHECKS = 4
WIDE_CHECKS = 1

#: run_all's experiments, counted as operations of the ``experiments`` workload.
EXPERIMENT_COUNT = 7


class SpeedProbe:
    """The host's speed while the repetition runs.

    On the 2-vCPU VM (Intel Xeon, 2.0 GHz) the benchmark was defined on, CPU
    speed switches between states about a third apart that last from
    seconds to minutes, so raw times of identical runs differ by more than
    any bound could allow.  A daemon thread on the workload's CPU times
    a fixed pure-Python loop every 20 ms (about 2% of the CPU); times are
    then reported at a reference speed, raw seconds × the loop's mean speed
    over the same stretch (process start to the timed region for
    ``setup_s``, the timed region for ``wall_s``), where one sample's speed
    is ``REFERENCE_S`` ÷ its loop time.  Samples come at even intervals, so
    the mean weighs each speed state by the time spent in it, as the
    workload feels it; the fastest and slowest tenth of the samples are
    dropped first.

    The loop is benchmark code, but it shares the CPU with everything the
    process runs, so the conversion holds only while the workload runs on one
    thread: another runnable thread or process would slow the loop and be
    credited as host slowness.  The probe therefore also records the most
    threads it saw (:meth:`Region.concurrency` acts on it).
    """

    INTERVAL_S = 0.02
    #: The loop's time on that VM in its fast state.
    REFERENCE_S = 0.0004

    def __init__(self):
        self.durations: list[float] = []
        self.max_threads = thread_count()
        #: Reaped children's CPU survives exec, so it is counted from here.
        self.children_cpu_at_start = cpu_seconds(resource.RUSAGE_CHILDREN)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speed-probe", daemon=True)
        self._thread.start()

    def _run(self) -> None:
        clock = time.perf_counter
        while not self._stop.wait(self.INTERVAL_S):
            start = clock()
            value = 0
            for step in range(4000):
                value = (value * 31 + step) % 1000003
            self.durations.append(clock() - start)
            self.max_threads = max(self.max_threads, thread_count())

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()

    def factor(self, first: int = 0, last: int | None = None) -> float:
        """The factor from raw to reference seconds over samples
        ``[first, last)``, or over all of them if that stretch has none."""
        window = self.durations[first:last] or self.durations
        speeds = sorted(self.REFERENCE_S / duration for duration in window)
        cut = len(speeds) // 10
        return statistics.fmean(speeds[cut:len(speeds) - cut])


def thread_count() -> int:
    """Threads of this process, as the kernel counts them."""
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return threading.active_count()


def live_children() -> int:
    """Child processes of this process that are still running or unreaped."""
    me = str(os.getpid())
    count = 0
    try:
        entries = os.listdir("/proc")
    except OSError:
        return 0
    for entry in entries:
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        count += fields[1] == me
    return count


def cpu_seconds(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


class SetupOnly(Exception):
    """Raised on entering the timed region of a set-up-only repetition."""


class Region:
    """The timed region: wall clock, tracer switch, peak RSS, host speed and
    the evidence of concurrency that voids the speed conversion."""

    #: The workload's thread and the speed probe.
    EXPECTED_THREADS = 2

    def __init__(self, tracer, probe: SpeedProbe, setup_only: bool = False):
        self.tracer = tracer
        self.probe = probe
        self.setup_only = setup_only
        self.wall_s = 0.0

    def __enter__(self):
        self.started_at = time.monotonic()
        self._setup_samples = len(self.probe.durations)
        if self.setup_only:
            self._finish()
            raise SetupOnly
        if self.tracer is not None:
            self.tracer.begin()
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.wall_s = time.perf_counter() - self._start
        if self.tracer is not None:
            self.tracer.end()
        self._finish()
        return False

    def _finish(self) -> None:
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        self.probe.stop()
        self.setup_speed = self.probe.factor(0, self._setup_samples)
        self.speed = self.probe.factor(self._setup_samples)
        self.children_cpu_s = (
            cpu_seconds(resource.RUSAGE_CHILDREN) - self.probe.children_cpu_at_start
        )
        self.live_children = live_children()

    def concurrency(self) -> list[str]:
        """What ran beside the workload's one thread and the probe, from
        process start to the end of the region; empty when nothing did.
        Whatever of the program's own shares the CPU with the workload's
        thread is another thread or a child process, so those are what it
        looks for."""
        reasons = []
        if self.probe.max_threads > self.EXPECTED_THREADS:
            reasons.append(f"{self.probe.max_threads} threads")
        if self.children_cpu_s or self.live_children:
            reasons.append(
                f"child processes ({self.live_children} live, "
                f"{self.children_cpu_s:.3f} s CPU reaped)"
            )
        return reasons


def _check(name: str, ok: bool, detail: str = "") -> dict:
    return {"name": name, "ok": bool(ok), "detail": detail}


def _same_measurement(actual, expected) -> bool:
    return (
        actual is not None
        and actual.name == expected.name
        and actual.stats == expected.stats
        and actual.runtimes == expected.runtimes
    )


def _kernel_identity(kernel) -> tuple:
    return (kernel.source, kernel.raw_sample, kernel.attempt_index,
            kernel.static_instruction_count)


def _clear_execution_caches() -> None:
    """Drop the process-wide compile caches, so a re-measure shares no
    artifact (seeded compilations included) with the run it checks."""
    from repro.execution.cache import _SOURCE_CACHE, GLOBAL_COMPILATION_CACHE

    GLOBAL_COMPILATION_CACHE.clear()
    _SOURCE_CACHE.clear()


def _interpreter_driver(global_size: int, local_size: int, seed: int):
    from repro.driver.harness import DriverConfig, HostDriver

    return HostDriver(
        config=DriverConfig(
            executed_global_size=global_size,
            local_size=local_size,
            payload_seed=seed,
            engine="interpreter",
        )
    )


def _check_suite_benchmarks(driver, benchmarks, expected_by_name) -> list[dict]:
    checks = []
    for benchmark in benchmarks:
        expected = expected_by_name.get(benchmark.qualified_name, [])
        actual = driver.measure_benchmark(benchmark)
        ok = len(actual) == len(expected) and all(
            _same_measurement(a, e) for a, e in zip(actual, expected)
        )
        checks.append(_check(f"interpreter:{benchmark.qualified_name}", ok))
    return checks


def _all_benchmarks():
    from repro.suites.registry import all_suites

    return [benchmark for suite in all_suites() for benchmark in suite.benchmarks]


# ---------------------------------------------------------------------------
# Workloads.  Each times its work in *region* and returns (facts, checks).
# ---------------------------------------------------------------------------


def run_pipeline(seed: int, rep: int, region: Region):
    from repro.store import PipelineConfig, PipelineRunner
    from repro.store.artifact_store import ArtifactStore

    config = PipelineConfig(seed=seed, sample_seed=seed, payload_seed=seed, **PIPELINE)
    runner = PipelineRunner(store=ArtifactStore())
    benchmarks = _all_benchmarks()

    # The stage calls `repro pipeline` makes, in its order.
    with region:
        suites = runner.suite_measurements(config)
        synthesis = runner.synthesis(config)
        measurements = runner.synthetic_measurements(config)

    phases = runner.phase_seconds()
    corpus = runner.corpus(config)
    suite_measured = sum(len(m) for m in suites.benchmark_measurements.values())
    datasets = sum(len(benchmark.datasets) for benchmark in benchmarks)
    measured_names = {measurement.name for measurement in measurements}
    # Synthesized kernels the driver excluded: they do not compile, fail
    # when run or run out of their step budget (the paper's host driver
    # drops such kernels).  Exclusion is a correct outcome when the
    # reference interpreter excludes the kernel too, which the first
    # repetition checks; run.py checks that every repetition excludes the
    # same kernels.
    excluded = [
        index for index in range(len(synthesis.kernels))
        if f"clgen.{index}" not in measured_names
    ]
    facts = {
        "phases_s": phases,
        "content_files": corpus.statistics.content_files,
        "kernels": len(synthesis.kernels),
        "attempts": synthesis.statistics.attempts,
        "measurements": suite_measured + len(measurements),
        "excluded_kernels": excluded,
        "attempted": datasets + len(synthesis.kernels),
        # Every suite dataset must measure.
        "failed": datasets - suite_measured,
        "rates": {
            "synth_kernels_per_s": len(synthesis.kernels) / phases["sample"],
            "corpus_files_per_s": corpus.statistics.content_files / phases["preprocess"],
            "measurements_per_s": (suite_measured + len(measurements)) / phases["execute"],
        },
    }

    if rep:
        return facts, []
    from repro.synthesis.generator import merge_stream_results

    checks = []
    # The width-1 sequential sampler, on a fresh synthesizer (empty
    # candidate memo), must reproduce the wavefront's first streams.
    clgen = runner.clgen(config)
    entries = [
        clgen.generate_kernel_range(
            index, index + 1, seed=config.sample_seed,
            max_attempts_per_kernel=config.max_attempts_per_kernel,
        )[0]
        for index in range(PIPELINE_REGEN_STREAMS)
    ]
    prefix = merge_stream_results(entries, requested=PIPELINE_REGEN_STREAMS).kernels
    checks.append(
        _check(
            f"sequential-streams:0-{PIPELINE_REGEN_STREAMS - 1}",
            list(map(_kernel_identity, prefix))
            == list(map(_kernel_identity, synthesis.kernels[: len(prefix)])),
            f"{len(prefix)} kernels",
        )
    )

    # The tree-walking interpreter, with no shared compile artifacts, must
    # reproduce a seeded subset of measurements exactly.
    _clear_execution_caches()
    rng = random.Random(f"pipeline:{seed}")
    driver = _interpreter_driver(config.executed_global_size, config.local_size, seed)
    checks += _check_suite_benchmarks(
        driver, rng.sample(benchmarks, PIPELINE_SUITE_CHECKS), suites.benchmark_measurements
    )
    for measurement in rng.sample(measurements, min(PIPELINE_KERNEL_CHECKS, len(measurements))):
        actual = driver.measure_source(
            measurement.source, name=measurement.name, dataset_scale=measurement.dataset_scale
        )
        checks.append(
            _check(f"interpreter:{measurement.name}", _same_measurement(actual, measurement))
        )
    for index in rng.sample(excluded, min(PIPELINE_EXCLUDED_CHECKS, len(excluded))):
        kernel = synthesis.kernels[index]
        actual = driver.measure_source(
            kernel.source, name=f"clgen.{index}",
            dataset_scale=config.dataset_scales[index % len(config.dataset_scales)],
        )
        checks.append(_check(f"interpreter-excludes:clgen.{index}", actual is None))
    return facts, checks


def run_measure_wide(seed: int, rep: int, region: Region):
    from repro.driver.harness import DriverConfig, HostDriver

    driver = HostDriver(
        config=DriverConfig(
            executed_global_size=WIDE_GLOBAL_SIZE, local_size=WIDE_LOCAL_SIZE, payload_seed=seed
        )
    )
    benchmarks = _all_benchmarks()
    # The measure loop is this workload's whole execute phase.
    tracer = region.tracer
    phase = tracer.span("stage.execute") if tracer is not None else contextlib.nullcontext()

    with region, phase:
        results = [driver.measure_benchmark(benchmark) for benchmark in benchmarks]

    measured = sum(len(result) for result in results)
    datasets = sum(len(benchmark.datasets) for benchmark in benchmarks)
    facts = {
        "measurements": measured,
        "attempted": datasets,
        "failed": datasets - measured,
        "rates": {"measurements_per_s": measured / region.wall_s},
    }

    if rep:
        return facts, []
    _clear_execution_caches()
    rng = random.Random(f"measure-wide:{seed}")
    chosen = rng.sample(range(len(benchmarks)), WIDE_CHECKS)
    expected = {
        benchmarks[index].qualified_name: results[index] for index in chosen
    }
    checks = _check_suite_benchmarks(
        _interpreter_driver(WIDE_GLOBAL_SIZE, WIDE_LOCAL_SIZE, seed),
        [benchmarks[index] for index in chosen],
        expected,
    )
    return facts, checks


def run_experiments(seed: int, rep: int, region: Region):
    from repro.experiments.common import ExperimentConfig
    from repro.experiments.runner import run_all

    config = ExperimentConfig.quick()
    config.seed = seed
    with region:
        report = run_all(config)

    facts = {"attempted": EXPERIMENT_COUNT, "failed": 0}
    digest = hashlib.sha256(report.render().encode("utf-8")).hexdigest()
    facts["report_sha256"] = digest
    expected = json.loads((HERE / "expected_reports.json").read_text())["sha256"]
    if str(seed) in expected:
        check = _check("report", digest == expected[str(seed)], "against the recorded report")
    else:
        # No recorded report for this seed: run.py still requires every
        # repetition of the run to render byte-identical reports.
        check = _check("report", True, "no recorded report for this seed")
    return facts, [check]


WORKLOADS = {
    "pipeline": run_pipeline,
    "measure-wide": run_measure_wide,
    "experiments": run_experiments,
}


def effective_settings() -> dict:
    """The knob values this process actually runs with."""

    def probe(read):
        try:
            return read()
        except Exception as error:  # a knob a later tree removed
            return f"unavailable ({type(error).__name__})"

    def sample_batch():
        from repro.synthesis.sampler import SamplerConfig

        return SamplerConfig().resolved_batch_size()

    def shard_plan():
        from repro.store.shards import plan_from_env

        return repr(plan_from_env())

    def env_knob(name, default, minimum):
        from repro.envutil import env_int

        return env_int(name, default=default, minimum=minimum)

    return {
        "repro_env": sorted(name for name in os.environ if name.startswith("REPRO_")),
        "python": sys.version.split()[0],
        "hash_seed": os.environ.get("PYTHONHASHSEED", "random"),
        "threads": {
            name: os.environ.get(name)
            for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "sample_batch": probe(sample_batch),
        "shard_plan": probe(shard_plan),
        "measure_workers": probe(lambda: env_knob("REPRO_MEASURE_WORKERS", 0, 0)),
        "preprocess_jobs": probe(lambda: env_knob("REPRO_PREPROCESS_JOBS", 1, 1)),
    }


def at_reference_speed(name: str, value: float, speed: float) -> float:
    """A per-layer metric converted like the end-to-end times."""
    if name.endswith("_per_s"):
        return value / speed
    if name.endswith(("_s", "_ms")):
        return value * speed
    return value


def main(argv: list[str]) -> int:
    workload, seed, rep, mode, spawned_at, out_dir = argv
    seed, rep, spawned_at = int(seed), int(rep), float(spawned_at)
    trace = int(mode == "traced")
    # One CPU for the whole repetition, so the probe times the CPU the
    # workload runs on.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    probe = SpeedProbe()

    tracer = None
    if trace:
        # The wrappers go in after the workload's own imports, so every
        # module that binds a boundary by name already holds it.
        import repro.experiments.runner  # noqa: F401
        import repro.store.stages  # noqa: F401
        from tracer import REQUIRED_SITES, Tracer, install

        tracer = Tracer(run_id=f"{workload}-{seed}-{rep}-{os.getpid()}-{time.time_ns()}")
        install(tracer)

    region = Region(tracer, probe, setup_only=mode == "setup")
    try:
        facts, checks = WORKLOADS[workload](seed, rep, region)
    except SetupOnly:
        facts, checks = None, []
    except Exception as error:
        # The program raised in the timed region or in an output check: a
        # failed operation, reported with the region's measurements.  Before
        # the region there is nothing to report, and the repetition crashes.
        if not hasattr(region, "speed"):
            raise
        traceback.print_exc()
        frame = traceback.extract_tb(error.__traceback__)[-1]
        facts = {"attempted": 0, "failed": 0}
        checks = [_check(
            "raised", False,
            f"{type(error).__name__}: {error} "
            f"({Path(frame.filename).name}:{frame.lineno})",
        )]
    setup_s = region.started_at - spawned_at
    # The speed conversion assumes the workload ran alone on its CPU.  A
    # repetition where anything else ran is a failed operation, and its
    # times are left raw.
    concurrency = region.concurrency()
    checks.append(_check("single-threaded", not concurrency, ", ".join(concurrency)))
    speed = 1.0 if concurrency else region.speed
    setup_speed = 1.0 if concurrency else region.setup_speed

    result = {
        "workload": workload,
        "seed": seed,
        "rep": rep,
        "mode": mode,
        "trace": trace,
        "setup_s": setup_s * setup_speed,
        "raw_setup_s": setup_s,
        "setup_speed": setup_speed,
        "speed": speed,
        "probe_speeds": [region.setup_speed, region.speed],
        "max_threads": probe.max_threads,
        "children_cpu_s": region.children_cpu_s,
        "concurrency": concurrency,
        "checks": checks,
        "attempted": len(checks),
        "failed": sum(not check["ok"] for check in checks),
    }
    if facts is None:
        print(json.dumps(result))
        return 0
    result.update(
        wall_s=region.wall_s * speed,
        raw_wall_s=region.wall_s,
        peak_rss_mb=region.peak_rss_mb,
        settings=effective_settings(),
        attempted=result["attempted"] + facts.pop("attempted"),
        failed=result["failed"] + facts.pop("failed"),
        **facts,
    )
    if "rates" in facts:
        result["rates"] = {name: value / speed for name, value in facts["rates"].items()}

    if tracer is not None:
        tracer.uninstall()
        result["layers"] = {
            name: at_reference_speed(name, value, speed)
            for name, value in tracer.layer_metrics().items()
        }
        result["coverage"] = tracer.coverage()
        result["site_calls"] = {site: calls[0] for site, calls in sorted(tracer.site_calls.items())}
        result["silent_sites"] = tracer.silent_sites(REQUIRED_SITES[workload])
        # One file per workload and repetition slot; the run id inside
        # names the run, and older runs' spans are overwritten.
        trace_path = Path(out_dir) / f"trace-{workload}-rep{rep}.json"
        tracer.write(trace_path)
        result["trace_file"] = str(trace_path)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
