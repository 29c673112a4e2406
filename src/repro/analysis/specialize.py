"""Machine-consumable specialization facts for the lockstep tier.

The classifier's :class:`~repro.analysis.classify.KernelVerdict` answers a
*routing* question — which engine should run this kernel.  This module
answers a *code-generation* question: which analyzer-guided fast path is
sound for it.  The facts are derived once per kernel inside
:func:`repro.analysis.classify.classify` and ride along on the verdict, so
the compilation cache can build ``VectorizedKernel(..., specialization=facts)``
without re-running any pass.

One fact gates the one fast path:

``hazard_free``
    Buffers for which the race pass emitted no hazard site.  Their
    ``LockstepBuffer`` views skip per-cell writer/reader tracking — the
    tracking exists only to *detect* the hazards the pass just proved
    absent.  Unlike a dynamic bailout, nothing re-checks this claim at
    runtime; the four-way differential (``scripts/verify_specialization.py``)
    holds it against the interpreter.

``eligible`` requires the SAFE classification: SAFE supplies the
no-bailout obligations the fast path leans on (no barriers, no local
memory — hence never group-sequential mode — no atomics or pointer tricks,
no cross-lane hazards, bounded steps).  A SAFE-but-divergent kernel (the
ubiquitous ``if (gid < n)`` bounds guard) is eligible too.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.divergence import KernelFacts
from repro.analysis.passes import RaceSite


@dataclass(frozen=True)
class SpecializationFacts:
    """Which analyzer-guided fast paths are sound for one kernel."""

    kernel_name: str
    #: Build a specialized artifact at all (requires SAFE).
    eligible: bool = False
    #: Buffers with no hazard site — skip writer/reader tracking.
    hazard_free: frozenset[str] = field(default_factory=frozenset)

    def to_dict(self) -> dict:
        return {
            "eligible": self.eligible,
            "hazard_free": sorted(self.hazard_free),
        }


def derive_specialization(
    facts: KernelFacts, races: list[RaceSite], safe: bool
) -> SpecializationFacts:
    """Distill *facts* (+ the race pass's output) into specialization gates.

    ``safe`` is the classifier's SAFE determination; the fast path leans on
    its obligations (see the module docstring) rather than re-deriving them.
    """
    racy = {site.buffer for site in races}
    return SpecializationFacts(
        kernel_name=facts.kernel_name,
        eligible=safe,
        hazard_free=frozenset(
            buffer for buffer in facts.buffer_spaces if buffer not in racy
        ),
    )
