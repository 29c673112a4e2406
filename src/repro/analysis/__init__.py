"""Static kernel analysis: dataflow passes over the ``clc`` AST.

The package implements the static half of the engines-as-an-oracle story:

* :mod:`repro.analysis.lattice` — the divergence lattice and fixpoint
  helpers shared by the passes,
* :mod:`repro.analysis.divergence` — the foundation pass (uniform vs
  work-item-dependent values, control divergence, memory access and
  barrier site collection),
* :mod:`repro.analysis.passes` — the barrier-divergence and shared-memory
  race/hazard passes,
* :mod:`repro.analysis.classify` — the bailout-cause classifier mapping
  analysis facts onto the concrete causes ``vectorizer.py`` can raise; its
  rejections are the vectorizer's own (``lockstep_rejection``),
* :mod:`repro.analysis.lint` — the ``repro lint`` front end,
* :mod:`repro.analysis.soundness` — the static-vs-dynamic cross-check
  harness.

:func:`analyze_kernel` is the one-call entry point; the engine router
(:func:`repro.execution.cache.run_kernel`) and the feature extractor call
it through the process-wide compilation cache so each kernel pays for the
analysis once.
"""

from __future__ import annotations

from repro.analysis.classify import (
    BAILOUT_CLASS_CODES,
    Classification,
    KernelVerdict,
    PredictedCause,
    classify,
)
from repro.analysis.divergence import (
    AccessSite,
    BarrierSite,
    DivergenceAnalysis,
    KernelFacts,
)
from repro.analysis.lattice import Div
from repro.analysis.passes import BarrierReport, RaceSite, barrier_divergence, race_hazards
from repro.analysis.specialize import SpecializationFacts
from repro.execution.vectorizer import lockstep_rejection

__all__ = [
    "AccessSite",
    "AnalysisStats",
    "ANALYSIS_STATS",
    "BAILOUT_CLASS_CODES",
    "BarrierReport",
    "BarrierSite",
    "Classification",
    "Div",
    "DivergenceAnalysis",
    "KernelFacts",
    "KernelVerdict",
    "PredictedCause",
    "RaceSite",
    "SpecializationFacts",
    "analyze_kernel",
    "analyze_source",
    "barrier_divergence",
    "classify",
    "race_hazards",
]


class AnalysisStats:
    """Process-wide counters for static-routing observability."""

    def __init__(self):
        self.kernels_analyzed = 0
        self.routed_skips = 0

    def reset(self) -> None:
        self.__init__()


ANALYSIS_STATS = AnalysisStats()


def analyze_kernel(unit, kernel_name: str | None = None) -> KernelVerdict:
    """Run all passes over one kernel of *unit* and return the verdict.

    Raises ``ValueError`` if the unit has no kernels; any analysis crash is
    converted into a maximally-conservative UNKNOWN verdict so a frontend
    corner case can never take the execution path down with it.
    """
    try:
        facts = DivergenceAnalysis(unit, kernel_name).run()
        verdict = classify(facts, lockstep_rejection(unit, kernel_name))
    except ValueError:
        raise
    except Exception as error:  # pragma: no cover - defensive
        name = kernel_name or (unit.kernels[0].name if unit.kernels else "<unknown>")
        verdict = KernelVerdict(
            kernel_name=name,
            classification=Classification.UNKNOWN,
            causes=(
                PredictedCause(
                    cause="analysis error",
                    kind="bailout",
                    certain=False,
                    detail=str(error),
                ),
            ),
        )
    ANALYSIS_STATS.kernels_analyzed += 1
    return verdict


def analyze_source(source: str, kernel_name: str | None = None) -> KernelVerdict | None:
    """Compile *source* (with the shim) and analyze its (first) kernel.

    Returns ``None`` when the source does not compile — mirroring the
    feature extractor's contract.
    """
    from repro.errors import CompileError
    from repro.execution.cache import cached_compile_source
    from repro.preprocess.shim import shim_include_resolver, with_shim

    try:
        compilation = cached_compile_source(
            with_shim(source), include_resolver=shim_include_resolver, strict=False
        )
    except CompileError:
        return None
    if not compilation.unit.kernels:
        return None
    return analyze_kernel(compilation.unit, kernel_name)
