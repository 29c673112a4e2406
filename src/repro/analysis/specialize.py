"""Machine-consumable specialization facts for the lockstep tier.

The classifier's :class:`~repro.analysis.classify.KernelVerdict` answers a
*routing* question — which engine should run this kernel.  This module
answers a *code-generation* question: is the analyzer-guided fast path
sound for it.  The facts are derived once per kernel inside
:func:`repro.analysis.classify.classify` and ride along on the verdict, so
the compilation cache can build ``VectorizedKernel(..., specialization=facts)``
without re-running any pass.

One fact gates the one fast path:

``eligible``
    The kernel is SAFE.  SAFE requires zero race sites, so the race pass
    has proved every buffer free of cross-lane hazards, and the
    specialized instance's ``LockstepBuffer`` views skip per-cell
    writer/reader tracking on all of them — the tracking exists only to
    *detect* the hazards the pass just proved absent.  SAFE also supplies
    the other no-bailout obligations the fast path leans on (no barriers,
    no local memory — hence never group-sequential mode — no atomics or
    pointer tricks, bounded steps).  Unlike a dynamic bailout, nothing
    re-checks this claim at runtime; the four-way differential
    (``scripts/verify_specialization.py``) holds it against the
    interpreter.

A SAFE-but-divergent kernel (the ubiquitous ``if (gid < n)`` bounds
guard) is eligible too.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SpecializationFacts:
    """Whether the analyzer-guided fast path is sound for one kernel."""

    #: Build a specialized artifact at all (requires SAFE).
    eligible: bool = False

    def to_dict(self) -> dict:
        return {"eligible": self.eligible}
