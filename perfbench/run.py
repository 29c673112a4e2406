"""Run one benchmark workload and print its metrics.

From the root of a checkout::

    python3 perfbench/run.py --workload pipeline --seed 0 --seconds 25 --trace 0

Every repetition is a fresh single-threaded process (``workload.py``) with
every ``REPRO_*`` variable unset, so no in-process cache, store or worker
pool carries over between repetitions.  ``--trace 0`` repeats the untraced
workload for about ``--seconds`` (at least twice), tops the set-up times up
with set-up-only repetitions, and reports the median of each end-to-end
metric over the repetitions.  ``--trace 1`` runs one untraced repetition and
two traced ones: it reports the per-layer metrics (medians of the two traced
repetitions), the tracing overhead against the untraced one, whether every
exact count repeated, whether every boundary the workload must cross
recorded calls, and how much of each pipeline phase the traced boundaries
cover.  Metric names and units come from ``BENCHMARK.json``.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The settings, every repetition and the span files land in
``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import tail_percentile

HERE = Path(__file__).resolve().parent
WORKLOADS = ("pipeline", "measure-wide", "experiments")
MIN_REPS = 2
TRACED_REPS = 2
#: Set-up times per untraced run: full repetitions plus set-up-only ones,
#: two of which run before each full repetition so that they sample the
#: host across the run rather than in one burst.
SETUP_SAMPLES = 10
SETUPS_PER_REP = 2
#: Hard ceiling on one run, below the 180 s a run may take.
RUN_LIMIT_S = 170.0
#: Phases whose top-level spans cover less than this share are flagged.
MIN_COVERAGE = 0.8

#: End-to-end metrics printed beside the gated ones in BENCHMARK.json.
#: They are not gated because they do not exist on every workload.
PRINTED_RATES = {
    "pipeline": ("synth_kernels_per_s", "corpus_files_per_s", "measurements_per_s"),
    "measure-wide": ("measurements_per_s",),
    "experiments": (),
}


def clean_environment(root: Path) -> dict[str, str]:
    """The parent environment minus every ``REPRO_*`` knob, single-threaded.

    Imports read and write the bytecode cache beside the sources, as an
    installed package's do, whatever the parent's environment says: with
    writing switched off, every set-up would compile the whole package.
    """
    env = {name: value for name, value in os.environ.items() if not name.startswith("REPRO_")}
    for name in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX"):
        env.pop(name, None)
    env["PYTHONPATH"] = str(root / "src")
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def spawn(root: Path, out_dir: Path, workload: str, seed: int, rep: int, mode: str,
          timeout: float) -> dict:
    """One repetition in a fresh process; a crash or timeout is a failed rep.

    *mode* is ``untraced``, ``traced`` or ``setup`` (see ``workload.py``).
    """
    spawned_at = time.monotonic()
    command = [
        sys.executable, str(HERE / "workload.py"), workload, str(seed), str(rep),
        mode, repr(spawned_at), str(out_dir),
    ]
    failed = {"rep": rep, "mode": mode, "trace": int(mode == "traced")}
    try:
        # subprocess.run kills the child on timeout and waits for it.
        finished = subprocess.run(
            command, cwd=root, env=clean_environment(root), capture_output=True,
            text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return {**failed, "error": f"timed out after {timeout:.0f} s"}
    lines = finished.stdout.strip().splitlines()
    if finished.returncode != 0 or not lines:
        return {**failed, "error": f"exit {finished.returncode}: {finished.stderr.strip()[-2000:]}"}
    result = json.loads(lines[-1])
    result["elapsed_s"] = time.monotonic() - spawned_at
    return result


def label(rep: dict) -> str:
    return f"rep {rep['rep']} ({rep['mode']})"


def per_layer(spec: dict, untraced: list[dict], traced: list[dict], summary: dict) -> dict:
    """Per-layer metrics, the exact-count check and the two coverage checks."""
    units = {metric["name"]: metric["unit"] for metric in spec["per_layer"]}
    layers = [rep["layers"] for rep in traced]
    from_reps = {
        "trace.overhead_s": statistics.median(rep["wall_s"] for rep in traced)
        - statistics.median(rep["wall_s"] for rep in untraced),
        "trace.raw_wall_s": statistics.median(rep["raw_wall_s"] for rep in traced),
        "trace.speed_factor": statistics.median(rep["speed"] for rep in traced),
    }
    metrics = {}
    for name, unit in units.items():
        if name in from_reps:
            value = from_reps[name]
        else:
            value = statistics.median(layer[name] for layer in layers)
        metrics[name] = {"value": value, "unit": unit}
        print(f"  {name:<36} {value:>14.6g} {unit}")

    unsteady = sorted(
        name for name, unit in units.items()
        if unit == "count" and len({layer[name] for layer in layers}) > 1
    )
    print("exact counts: " + (
        "all repeat across the traced repetitions" if not unsteady
        else "DO NOT REPEAT: " + ", ".join(unsteady)
    ))
    silent = sorted({site for rep in traced for site in rep["silent_sites"]})
    print("boundaries: " + (
        "every boundary this workload must cross recorded calls" if not silent
        else "NO CALLS (wrapped on a binding the program does not use?): " + ", ".join(silent)
    ))
    samples = metrics["driver.measure_samples"]["value"]
    if samples:
        print(f"driver.measure_tail_ms is p{tail_percentile(int(samples))} "
              f"over {int(samples)} executed measurements")
    low = []
    for phase, numbers in traced[0]["coverage"].items():
        flag = ""
        if numbers["covered"] < MIN_COVERAGE:
            flag = "  <-- LOW COVERAGE: work in this phase that no wrapped boundary sees"
            low.append(phase)
        print(f"coverage {phase}: {numbers['covered'] * 100:.1f}% of its "
              f"{numbers['wall_s']:.3f} raw seconds in top-level spans{flag}")
    summary.update(
        unsteady_counts=unsteady,
        silent_sites=silent,
        low_coverage_phases=low,
        coverage=[rep["coverage"] for rep in traced],
    )
    return metrics


def end_to_end(spec: dict, workload: str, untraced: list[dict], setups: list[dict],
               error_rate: float, summary: dict) -> dict:
    """Gated end-to-end metrics (medians over repetitions), plus printed ones.

    ``setup_s`` is the median over *setups*, which adds the set-up-only
    repetitions to the full ones.
    """
    rows = [
        (metric["name"], metric["unit"],
         [rep[metric["name"]] for rep in (setups if metric["name"] == "setup_s" else untraced)])
        for metric in spec["end_to_end"]
    ]
    gated = {name: {"value": statistics.median(values), "unit": unit}
             for name, unit, values in rows}
    # A repetition where the program raised has no rates.
    rates = [rep["rates"] for rep in untraced if "rates" in rep]
    rows += [(name, "1/s", [rate[name] for rate in rates])
             for name in PRINTED_RATES[workload] if rates]
    # The unconverted times, next to the gated ones (see README: they are
    # printed, not gated, because the host's speed states move them).
    rows += [("raw_wall_s", "s", [rep["raw_wall_s"] for rep in untraced]),
             ("raw_setup_s", "s", [rep["raw_setup_s"] for rep in setups])]
    printed = {}
    print(f"  {'error_rate':<22} {error_rate:>12.6g} ratio")
    for name, unit, values in rows:
        median = statistics.median(values)
        printed[name] = median
        print(f"  {name:<22} {median:>12.6g} {unit}  "
              f"(median of {len(values)}: min {min(values):.6g}, max {max(values):.6g})")
    summary["printed_metrics"] = {"error_rate": error_rate, **printed}
    return gated


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.workload == "all":
        options = ["--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        return max(main(["--workload", workload, *options]) for workload in WORKLOADS)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"error: {root} is not a checkout of the repository (no src/repro)", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    out_dir = root / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)

    started = time.monotonic()
    reps: list[dict] = []

    def run_rep(mode: str) -> dict:
        # Set-up-only repetitions are numbered apart, so that full
        # repetition 0 (the one with the output checks) is the first full one.
        index = sum((rep["mode"] == "setup") == (mode == "setup") for rep in reps)
        timeout = RUN_LIMIT_S - (time.monotonic() - started)
        result = spawn(root, out_dir, args.workload, args.seed, index, mode, timeout)
        reps.append(result)
        status = result.get("error") or (
            f"setup {result['setup_s']:.3f} s (raw {result['raw_setup_s']:.3f}, "
            f"speed {result['setup_speed']:.3f})"
        )
        if "error" not in result and mode != "setup":
            status = (f"wall {result['wall_s']:.3f} s (raw {result['raw_wall_s']:.3f}, "
                      f"speed {result['speed']:.3f}), {status}, "
                      f"rss {result['peak_rss_mb']:.1f} MB")
        if result.get("concurrency"):
            status += ("; CONCURRENT (" + ", ".join(result["concurrency"])
                       + "): failed, times left raw")
        print(f"{label(result)}: {status}", flush=True)
        return result

    if args.trace:
        for mode in ("untraced",) + ("traced",) * TRACED_REPS:
            run_rep(mode)
    else:
        # Start another repetition while it would end, on average, within
        # --seconds; never past the hard ceiling.  A set-up takes well under
        # a second, so the median of several costs little and steadies
        # setup_s.
        longest = 0.0
        full = 0
        while full < MIN_REPS or time.monotonic() - started + longest / 2 <= args.seconds:
            if time.monotonic() - started + longest >= RUN_LIMIT_S:
                break
            for _ in range(SETUPS_PER_REP):
                run_rep("setup")
            longest = max(longest, run_rep("untraced").get("elapsed_s", 0.0))
            full += 1
        while len(reps) < SETUP_SAMPLES and time.monotonic() - started + 5 < RUN_LIMIT_S:
            run_rep("setup")

    good = [rep for rep in reps if "error" not in rep]
    setups = [rep for rep in good if not rep["trace"]]
    untraced = [rep for rep in setups if rep["mode"] == "untraced"]
    traced = [rep for rep in good if rep["trace"]]
    attempted = sum(rep["attempted"] for rep in good) + len(reps) - len(good)
    failed = sum(rep["failed"] for rep in good) + len(reps) - len(good)
    problems = [f"{label(rep)}: {rep['error']}" for rep in reps if "error" in rep]
    problems += [
        f"{label(rep)}: check {check['name']} failed {check['detail']}".strip()
        for rep in good for check in rep["checks"] if not check["ok"]
    ]
    digests = {rep["report_sha256"] for rep in good if "report_sha256" in rep}
    if len(digests) > 1:
        problems.append(f"reports differ between repetitions: {sorted(digests)}")
    exclusions = {tuple(rep["excluded_kernels"]) for rep in good if "excluded_kernels" in rep}
    if len(exclusions) > 1:
        problems.append(f"excluded kernels differ between repetitions: {sorted(exclusions)}")
    correct = not problems and failed == 0

    concurrent = [label(rep) for rep in good if rep["concurrency"]]
    summary = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "repetitions": reps, "problems": problems, "concurrent_reps": concurrent}
    if untraced:
        summary["settings"] = untraced[0]["settings"]
        print(f"settings: {json.dumps(untraced[0]['settings'], sort_keys=True)}")
    if concurrent:
        print(f"CONCURRENCY in reps {concurrent}: the workload did not run alone on its "
              "CPU; they count as failed and their times are raw seconds, not converted "
              "to the reference speed")
    for problem in problems:
        print(f"FAILED {problem}", file=sys.stderr)
    if not untraced or (args.trace and not traced):
        print("error: no usable repetition finished", file=sys.stderr)
        return 1

    if args.trace:
        metrics = per_layer(spec, untraced, traced, summary)
    else:
        error_rate = failed / attempted if attempted else 0.0
        metrics = end_to_end(spec, args.workload, untraced, setups, error_rate, summary)
    summary["metrics"] = metrics
    print(f"attempted {attempted}, failed {failed}, correct {correct}")
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(summary, indent=1, sort_keys=True)
    )
    print(json.dumps(
        {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    ))
    return 0


if __name__ == "__main__":
    sys.exit(main())
