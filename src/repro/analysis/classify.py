"""The bailout-cause classifier: analysis facts → concrete engine verdicts.

Maps the facts gathered by the divergence/barrier/race passes onto the
:class:`~repro.errors.LockstepBailout` causes the vectorizer and its
memory model can raise mid-flight, takes the lockstep tier's own
``NotVectorizable`` message
(:func:`repro.execution.vectorizer.lockstep_rejection`) as the one
rejection cause, and condenses them into one of four classifications:

=========  ==============================================================
verdict    meaning
=========  ==============================================================
safe       statically proven never to bail out: straight-line or
           uniformly-controlled code, per-lane-disjoint subscripts on
           every written buffer, bounded step count, no atomics/pointer
           tricks.  The soundness harness asserts this class never
           dynamically raises ``LockstepBailout``.
bailout    at least one *certain* bailout cause (divergent barrier,
           structural cross-lane hazard): attempting vectorization is a
           guaranteed waste, so ``engine="auto"`` routes straight to the
           closure engine.
rejected   the vectorizer refuses the kernel (``try_vectorize`` returns
           ``None``), so the router falls back anyway.
unknown    none of the above — the attempt is worth making.
=========  ==============================================================

The classification is a *routing and reporting* verdict, never a
correctness decision: all engines are bit-identical, so a misprediction
costs only the bailed-out attempt it failed to avoid (or the successful
one it skipped).  Only the ``safe`` class carries a soundness obligation.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.analysis import divergence as dv
from repro.analysis.divergence import KernelFacts
from repro.analysis.passes import BarrierReport, RaceSite, barrier_divergence, race_hazards
from repro.analysis.specialize import SpecializationFacts

#: Step allowance for the ``safe`` class, against the lockstep tier's
#: 50 000 steps-per-item default budget.  The estimate already assumes
#: pessimistic trip counts, so anything under this cannot plausibly trip
#: the budget bailout.
SAFE_STEP_ALLOWANCE = 40_000.0


class Classification(str, Enum):
    SAFE = "safe"
    UNKNOWN = "unknown"
    REJECTED = "rejected"
    BAILOUT = "bailout"


#: Stable integer encoding of the classes, as ``repro lint --json``
#: reports it (ordered by how doomed the lockstep attempt is).
BAILOUT_CLASS_CODES = {
    Classification.SAFE: 0,
    Classification.UNKNOWN: 1,
    Classification.REJECTED: 2,
    Classification.BAILOUT: 3,
}


@dataclass(frozen=True, slots=True)
class PredictedCause:
    """One concrete cause the lockstep tier could raise for this kernel."""

    #: A rejection's cause is the vectorizer's ``NotVectorizable`` message;
    #: a bailout's is phrased like the ``LockstepBailout`` messages.
    cause: str
    kind: str  # "rejection" | "bailout"
    certain: bool = False
    detail: str = ""


@dataclass
class KernelVerdict:
    """The static analyzer's complete verdict for one kernel."""

    kernel_name: str
    classification: Classification
    causes: tuple[PredictedCause, ...] = ()
    divergent_barriers: int = 0
    barrier_count: int = 0
    race_sites: int = 0
    step_estimate: float = 0.0
    flags: frozenset[str] = frozenset()
    #: Analyzer-guided fast-path gates for the lockstep tier (``None`` on
    #: conservative fallback verdicts built without a completed analysis).
    specialization: SpecializationFacts | None = None

    @property
    def bailout_class(self) -> int:
        """Integer encoding of the classification (lint JSON)."""
        return BAILOUT_CLASS_CODES[self.classification]

    @property
    def skip_vectorization(self) -> bool:
        """Whether ``engine="auto"`` should not bother attempting lockstep."""
        return self.classification is Classification.BAILOUT

    @property
    def lockstep_safe(self) -> bool:
        return self.classification is Classification.SAFE

    def cause_strings(self) -> list[str]:
        return [cause.cause for cause in self.causes]

    def to_dict(self) -> dict:
        """JSON-encodable form, for lint artifacts and reports."""
        return {
            "kernel": self.kernel_name,
            "classification": self.classification.value,
            "bailout_class": self.bailout_class,
            "causes": [
                {
                    "cause": cause.cause,
                    "kind": cause.kind,
                    "certain": cause.certain,
                    "detail": cause.detail,
                }
                for cause in self.causes
            ],
            "divergent_barriers": self.divergent_barriers,
            "barrier_count": self.barrier_count,
            "race_sites": self.race_sites,
            "step_estimate": self.step_estimate,
            "flags": sorted(self.flags),
            "specialization": (
                None if self.specialization is None else self.specialization.to_dict()
            ),
        }


# Flag -> possible (never certain) dynamic bailout cause.
_BAILOUT_FLAG_CAUSES = {
    dv.FLAG_HELPER_FALLOFF: "helper fell off the end on some lanes",
    dv.FLAG_POINTER_TERNARY_DIVERGENT: "divergent pointer-valued ternary",
    dv.FLAG_POINTER_REBIND_DIVERGENT: "per-lane pointer rebinding",
    dv.FLAG_PRIVATE_ARRAY_DIVERGENT_SIZE: "lane-divergent private array size",
    dv.FLAG_PRIVATE_ARRAY_DIVERGENT_DECL: "divergent private-array declaration",
    dv.FLAG_ATOMIC_PRIVATE: "atomic on a private array",
    dv.FLAG_OVERFLOW_RISK: "stored value exceeds int64",
}

_HAZARD_CAUSES = {
    "waw": "cross-lane write-after-write hazard",
    "raw": "cross-lane read-after-write hazard",
    "war": "cross-lane write-after-read hazard",
    "atomic-mix": "atomic after plain write",
}


def classify(facts: KernelFacts, rejection: str | None) -> KernelVerdict:
    """Condense *facts* into a :class:`KernelVerdict`.

    *rejection* is the vectorizer's refusal of the kernel
    (:func:`~repro.execution.vectorizer.lockstep_rejection`): the kernel is
    ``rejected`` exactly when it is not ``None``, with it as the one cause.
    """
    barriers: BarrierReport = barrier_divergence(facts)
    races: list[RaceSite] = race_hazards(facts)

    causes: list[PredictedCause] = []
    if rejection is not None:
        causes.append(PredictedCause(cause=rejection, kind="rejection", certain=True))

    for site in barriers.divergent:
        causes.append(
            PredictedCause(
                cause="divergent work-group barrier",
                kind="bailout",
                # A barrier under an additional data-dependent guard (or
                # inside a loop that may run zero trips) might never
                # execute, so only an unconditionally-reached site backs
                # the certain verdict.
                certain=not site.conditional,
                detail="barrier under lane-dependent control",
            )
        )
    for site in races:
        causes.append(
            PredictedCause(
                cause=_HAZARD_CAUSES[site.hazard],
                kind="bailout",
                certain=site.certain,
                detail=f"{site.buffer}: {site.detail}",
            )
        )
    for flag in sorted(facts.flags):
        bailout = _BAILOUT_FLAG_CAUSES.get(flag)
        if bailout is not None:
            causes.append(
                PredictedCause(cause=bailout, kind="bailout", certain=False, detail=flag)
            )
    if facts.step_estimate == float("inf"):
        causes.append(
            PredictedCause(
                cause="step budget exceeded (possible timeout)",
                kind="bailout",
                certain=False,
                detail="statically unbounded loop",
            )
        )

    if rejection is not None:
        classification = Classification.REJECTED
    elif any(cause.kind == "bailout" and cause.certain for cause in causes):
        classification = Classification.BAILOUT
    elif _is_safe(facts, barriers, races, causes):
        classification = Classification.SAFE
    else:
        classification = Classification.UNKNOWN

    return KernelVerdict(
        kernel_name=facts.kernel_name,
        classification=classification,
        causes=tuple(causes),
        divergent_barriers=barriers.divergent_count,
        barrier_count=barriers.total,
        race_sites=len(races),
        step_estimate=facts.step_estimate,
        flags=frozenset(facts.flags),
        specialization=SpecializationFacts(
            facts.kernel_name, eligible=classification is Classification.SAFE
        ),
    )


def _is_safe(
    facts: KernelFacts,
    barriers: BarrierReport,
    races: list[RaceSite],
    causes: list[PredictedCause],
) -> bool:
    """The conservative never-bails criterion (see the module docstring)."""
    if causes:
        return False
    if facts.flags:
        # Pointer tricks, atomics, helper pathologies and unknown constructs
        # all drop the kernel to ``unknown`` at best.
        return False
    if barriers.total:
        # Uniform kernel-body barriers never bail by themselves, but they
        # force group-sequential mode and interact with the hazard epochs;
        # stay out of the safe class until that interaction is modelled.
        return False
    if races:
        return False
    if not facts.step_estimate <= SAFE_STEP_ALLOWANCE:
        return False
    # Local address-space usage rides on group-mode lane numbering, which
    # the affine-injectivity argument does not cover.
    if any(space == "local" for space in facts.buffer_spaces.values()):
        return False
    return True
