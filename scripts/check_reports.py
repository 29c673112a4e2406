"""Check that the experiments report still renders bit-identically.

From the repository root::

    python scripts/check_reports.py            # seeds 0-19
    python scripts/check_reports.py 0 7        # chosen seeds

For each seed, one after another and each in a fresh process, this runs
``run_all(ExperimentConfig.quick())`` with that seed and compares the
SHA-256 of ``FullReport.render()`` with the digest recorded in
``perfbench/expected_reports.json``.  The child processes run with every
``REPRO_*`` variable unset, so the memory-only store serves nothing from an
earlier run.  This script only reads the recorded digests; re-recording
them is ``perfbench/record_reports.py``'s job.  ``REPORTS=1
scripts/ci_check.sh`` runs it.  Exits 1 if any seed's report differs or
fails to render.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXPECTED = ROOT / "perfbench" / "expected_reports.json"
#: Generous for one quick-scale ``run_all`` on a slow 2-vCPU host.
SEED_TIMEOUT_S = 600.0


def report_digest(seed: int) -> str:
    """SHA-256 of the quick-scale experiments report at *seed*."""
    from repro.experiments.common import ExperimentConfig
    from repro.experiments.runner import run_all

    config = ExperimentConfig.quick()
    config.seed = seed
    return hashlib.sha256(run_all(config).render().encode("utf-8")).hexdigest()


def main(argv: list[str]) -> int:
    if argv[:1] == ["--digest"]:
        print(report_digest(int(argv[1])))
        return 0
    seeds = [int(seed) for seed in argv] or list(range(20))
    expected = json.loads(EXPECTED.read_text())["sha256"]
    env = {name: value for name, value in os.environ.items() if not name.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    mismatches = 0
    for seed in seeds:
        if str(seed) not in expected:
            print(f"seed {seed}: no recorded digest")
            mismatches += 1
            continue
        result = subprocess.run(
            [sys.executable, __file__, "--digest", str(seed)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=SEED_TIMEOUT_S,
        )
        digest = result.stdout.strip().splitlines()[-1] if result.stdout.strip() else ""
        if result.returncode != 0:
            print(f"seed {seed}: run_all failed (exit {result.returncode})")
            print(result.stderr[-2000:])
            mismatches += 1
        elif digest != expected[str(seed)]:
            print(f"seed {seed}: MISMATCH {digest} != recorded {expected[str(seed)]}")
            mismatches += 1
        else:
            print(f"seed {seed}: ok {digest[:16]}")
    print(f"check_reports: {len(seeds) - mismatches}/{len(seeds)} reports match")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
