"""Run-to-run spread of the end-to-end metrics over several seeds.

From the root of a checkout::

    python3 perfbench/spread.py --workload pipeline --seeds 0-9

Runs ``run.py`` once per seed and prints, per end-to-end metric, the
median of the runs and the distance between the first and third quartile
as a share of that median (``statistics.quantiles(values, n=4)``), next
to the metric's bound in ``BENCHMARK.json``.  The per-run results land in
``.perfbench_out/spread-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_list(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("0-9"))
    parser.add_argument("--seconds", type=int, default=None)
    args = parser.parse_args()

    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    runs = []
    for seed in args.seeds:
        finished = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=root, capture_output=True, text=True, timeout=200,
        )
        if finished.returncode != 0:
            print(f"seed {seed}: exit {finished.returncode}\n{finished.stderr}")
            return 1
        result = json.loads(finished.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, **result})
        values = ", ".join(
            f"{name} {metric['value']:.4g}" for name, metric in result["metrics"].items()
        )
        print(f"seed {seed}: correct {result['correct']}, failed {result['failed']}, {values}",
              flush=True)

    (root / ".perfbench_out" / f"spread-{args.workload}.json").write_text(
        json.dumps(runs, indent=1)
    )
    steady = True
    for metric in spec["end_to_end"]:
        values = [run["metrics"][metric["name"]]["value"] for run in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median
        verdict = "ok" if spread < metric["bound"] / 3 else "WIDE"
        steady &= verdict == "ok"
        print(
            f"{metric['name']:<14} median {median:.5g} {metric['unit']}, "
            f"IQR/median {spread:.3f} (bound {metric['bound']}, target < "
            f"{metric['bound'] / 3:.3f}): {verdict}"
        )
    print("all runs correct" if all(run["correct"] for run in runs) else "SOME RUNS INCORRECT")
    return 0 if steady and all(run["correct"] for run in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
