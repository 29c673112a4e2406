"""Record the expected ``experiments`` report digest for each given seed.

From the root of a checkout::

    python3 perfbench/record_reports.py 0 1 2 7

Runs ``run_all(ExperimentConfig.quick())`` cold for every seed (the same
process the benchmark spawns) and stores the SHA-256 of
``FullReport.render()`` in ``perfbench/expected_reports.json``.  Re-record
only when a change is meant to alter the report.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from run import spawn

HERE = Path(__file__).resolve().parent


def main(seeds: list[str]) -> int:
    path = HERE / "expected_reports.json"
    document = json.loads(path.read_text())
    out_dir = Path.cwd() / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    for seed in map(int, seeds):
        result = spawn(Path.cwd(), out_dir, "experiments", seed, 0, "untraced", timeout=170.0)
        if "error" in result or "report_sha256" not in result:
            print(f"seed {seed}: no report ({result.get('error', 'run_all raised')})")
            return 1
        document["sha256"][str(seed)] = result["report_sha256"]
        print(f"seed {seed}: {result['report_sha256']}")
    document["sha256"] = dict(sorted(document["sha256"].items(), key=lambda item: int(item[0])))
    path.write_text(json.dumps(document, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
