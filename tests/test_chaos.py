"""Opt-in chaos soak (``-m chaos``) over real worker processes.

Runs ``scripts/chaos_drain.py``'s full fault menu — crash after claim,
crash mid-shard, crash before the merge lands, torn store write, transient
put errors, and a deterministic poison shard — each round killing real
``repro worker`` subprocesses and asserting the surviving fleet's merged
artifacts are byte-identical to an unsharded run (or, for the poison
round, that the plan quarantines after exactly the retry budget).  Run
it on its own::

    PYTHONPATH=src python -m pytest tests -m chaos

Like the perf gate, it only runs when explicitly selected: each round
spawns several interpreter processes, which is too heavy for the default
tier-1 sweep (where the same protocol edges are covered in-process by
``test_queue.py``'s mode=raise fault tests).
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

pytestmark = pytest.mark.chaos

_SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _chaos_main():
    sys.path.insert(0, str(_SCRIPTS))
    try:
        import chaos_drain
    finally:
        sys.path.remove(str(_SCRIPTS))
    return chaos_drain


@pytest.fixture(autouse=True)
def _opt_in(request):
    if "chaos" not in (request.config.option.markexpr or ""):
        pytest.skip("chaos soak is opt-in: select it with -m chaos")


def test_full_fault_menu_survives_one_cycle(tmp_path):
    chaos_drain = _chaos_main()
    assert (
        chaos_drain.main(
            ["--rounds", str(len(chaos_drain.FAULT_MENU)), "--workers", "2",
             "--lease", "2", "--scratch", str(tmp_path / "chaos")]
        )
        == 0
    )


def test_three_worker_fleet_survives_crash_rounds(tmp_path):
    chaos_drain = _chaos_main()
    assert (
        chaos_drain.main(
            ["--rounds", "2", "--workers", "3", "--lease", "2",
             "--fault", "crash_mid_shard", "--scratch", str(tmp_path / "chaos")]
        )
        == 0
    )

