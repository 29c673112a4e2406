#!/usr/bin/env bash
# CI entry point: the tier-1 sweep, then (opt-in) the chaos soak, the
# static-analyzer soundness leg and the report-digest leg.
#
#   scripts/ci_check.sh            # tier-1 only: the merge gate
#   CHAOS=1 scripts/ci_check.sh    # + the -m chaos soak: the fault menu
#                                  #   over real worker processes
#   LINT=1 scripts/ci_check.sh     # + the static-analyzer soundness leg:
#                                  #   lints every suite kernel,
#                                  #   cross-checks static vs dynamic (suite
#                                  #   kernels + one 500-kernel synthesis
#                                  #   request), and runs the four-way engine
#                                  #   differential (71 suite kernels at
#                                  #   32/8 and at 2048/32, plus 500
#                                  #   synthesized kernels; ~2.5 minutes)
#   REPORTS=1 scripts/ci_check.sh  # + the report-digest leg: quick-scale
#                                  #   run_all for seeds 0-19, one fresh
#                                  #   process each, whose rendered report
#                                  #   must hash to perfbench/
#                                  #   expected_reports.json (~2 minutes)
#
# Tier-1 is every default-selected test under tests/ — the chaos soak
# stays opt-in because it spawns real worker fleets, which are too heavy
# for the gate.  Performance is perfbench/run.py's job (BENCHMARK.json).
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== tier-1: pytest =="
python -m pytest -x -q

if [[ "${CHAOS:-0}" != "0" ]]; then
    echo "== chaos soak (-m chaos): fault menu over real worker processes =="
    python -m pytest tests/test_chaos.py -m chaos -x -q
fi

if [[ "${LINT:-0}" != "0" ]]; then
    echo "== lint: suite verdicts, static-vs-dynamic soundness, four-way differential =="
    python -m repro lint
    # The soundness gate: a "safe" verdict for a kernel that dynamically
    # bails is a hard failure (exit 1); precision misses only print.  The
    # synthesized kernels are the unique ones of one 500-kernel request
    # (301 at seed 0), the set `check_synthesized` draws.
    python -m repro lint --soundness --synthesized 500
    # The SAFE verdict's race-freedom has no dynamic guard: the specialized
    # lockstep tier trusts it, so hold interpreter, closure, generic and
    # specialized lockstep bit-identical on every suite kernel (at global
    # 32 / local 8 and at measure-wide's 2048 / 32) and 500 synthesized
    # ones.
    python scripts/verify_specialization.py --count 500
fi

if [[ "${REPORTS:-0}" != "0" ]]; then
    echo "== reports: experiments report digests, seeds 0-19 =="
    python scripts/check_reports.py
fi

echo "ci_check: OK"
