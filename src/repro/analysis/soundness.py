"""Static-vs-dynamic cross-check: the analyzer's soundness harness.

The classifier makes exactly one load-bearing promise: a kernel classified
``safe`` never raises :class:`~repro.errors.LockstepBailout` dynamically.
Every other prediction is a routing hint whose failure costs performance,
not correctness.  This module checks the promise (and measures the hints)
by running both legs for each kernel:

* **static leg** — :func:`repro.analysis.analyze_kernel` over the shimmed,
  compiled unit (the same unit the engines execute);
* **dynamic leg** — ``try_vectorize`` (a ``None`` verdict is recorded as
  ``"rejected"``), then one rule-based payload executed on the lockstep
  tier, recording a clean finish or the bailout cause.  A launch that
  completes only after replaying a memory hazard in smaller chunks of
  work-groups is a bailout too: the specialized tier that a ``safe``
  verdict selects runs one pass with no hazard checks.

A ``safe``-but-bailed kernel is a **violation** and fails the harness; a
``bailout``-but-clean kernel is a **precision miss** (the router skipped a
vectorization that would have worked) and is merely reported.  The CI lint
leg runs :func:`check_suites` plus :func:`check_synthesized` on one
500-kernel request (``repro lint --soundness --synthesized 500``: the 301
unique kernels it yields at seed 0).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis import analyze_kernel
from repro.analysis.classify import Classification
from repro.errors import CompileError, LockstepBailout, PayloadError

#: Executed payload shape; mirrors ``DriverConfig`` defaults so the harness
#: exercises the same dispatch geometry the measurement pipeline uses.
DEFAULT_GLOBAL_SIZE = 256
DEFAULT_LOCAL_SIZE = 64


@dataclass(slots=True)
class CrossCheckRecord:
    """The static and dynamic verdicts for one kernel, compared."""

    name: str
    static: str  # Classification value
    dynamic: str  # "clean" | "bailout" | "rejected" | "error" | "uncompilable"
    dynamic_cause: str = ""
    static_causes: tuple[str, ...] = ()

    @property
    def violation(self) -> bool:
        """A soundness breach: statically safe, dynamically bailed."""
        return self.static == Classification.SAFE.value and self.dynamic == "bailout"

    @property
    def precision_miss(self) -> bool:
        """A wasted skip: certain-bailout prediction, clean dynamic run."""
        return self.static == Classification.BAILOUT.value and self.dynamic == "clean"

    @property
    def agrees(self) -> bool:
        static, dynamic = self.static, self.dynamic
        if static == Classification.SAFE.value:
            return dynamic == "clean"
        if static == Classification.BAILOUT.value:
            return dynamic == "bailout"
        if static == Classification.REJECTED.value:
            return dynamic == "rejected"
        return True  # "unknown" makes no claim

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "static": self.static,
            "dynamic": self.dynamic,
            "dynamic_cause": self.dynamic_cause,
            "static_causes": list(self.static_causes),
            "agrees": self.agrees,
            "violation": self.violation,
            "precision_miss": self.precision_miss,
        }


@dataclass
class SoundnessReport:
    """Structured static-vs-dynamic disagreement report over one kernel set."""

    records: list[CrossCheckRecord] = field(default_factory=list)

    @property
    def total(self) -> int:
        return len(self.records)

    @property
    def violations(self) -> list[CrossCheckRecord]:
        return [record for record in self.records if record.violation]

    @property
    def precision_misses(self) -> list[CrossCheckRecord]:
        return [record for record in self.records if record.precision_miss]

    @property
    def disagreements(self) -> list[CrossCheckRecord]:
        return [record for record in self.records if not record.agrees]

    @property
    def sound(self) -> bool:
        return not self.violations

    def classification_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for record in self.records:
            counts[record.static] = counts.get(record.static, 0) + 1
        return counts

    def to_dict(self) -> dict:
        return {
            "total": self.total,
            "sound": self.sound,
            "violations": [record.to_dict() for record in self.violations],
            "precision_misses": len(self.precision_misses),
            "disagreements": [record.to_dict() for record in self.disagreements],
            "classification_counts": self.classification_counts(),
        }

    def summary(self) -> str:
        counts = self.classification_counts()
        parts = [f"{self.total} kernels"]
        parts.extend(f"{name}={count}" for name, count in sorted(counts.items()))
        parts.append(f"violations={len(self.violations)}")
        parts.append(f"precision_misses={len(self.precision_misses)}")
        return ", ".join(parts)


# ---------------------------------------------------------------------------
# One-kernel cross-check.
# ---------------------------------------------------------------------------


def cross_check_source(
    source: str,
    name: str = "<kernel>",
    kernel_name: str | None = None,
    max_steps_per_item: int = 50_000,
    global_size: int = DEFAULT_GLOBAL_SIZE,
    local_size: int = DEFAULT_LOCAL_SIZE,
) -> CrossCheckRecord:
    """Run both legs for one kernel source and compare them."""
    from repro.execution.cache import cached_compile_source
    from repro.preprocess.shim import shim_include_resolver, with_shim

    try:
        compilation = cached_compile_source(
            with_shim(source), include_resolver=shim_include_resolver, strict=False
        )
    except CompileError as error:
        return CrossCheckRecord(
            name=name,
            static=Classification.UNKNOWN.value,
            dynamic="uncompilable",
            dynamic_cause=str(error),
        )
    unit = compilation.unit
    if not unit.kernels:
        return CrossCheckRecord(
            name=name,
            static=Classification.UNKNOWN.value,
            dynamic="uncompilable",
            dynamic_cause="no kernel function",
        )

    verdict = analyze_kernel(unit, kernel_name)
    dynamic, cause = _dynamic_leg(
        unit, kernel_name, max_steps_per_item, global_size, local_size
    )
    return CrossCheckRecord(
        name=name,
        static=verdict.classification.value,
        dynamic=dynamic,
        dynamic_cause=cause,
        static_causes=tuple(verdict.cause_strings()),
    )


def _dynamic_leg(
    unit,
    kernel_name: str | None,
    max_steps_per_item: int,
    global_size: int,
    local_size: int,
) -> tuple[str, str]:
    """Vectorize and execute one payload; classify the outcome."""
    from repro.driver.harness import kernel_work_dim
    from repro.driver.payload import PayloadConfig, PayloadGenerator
    from repro.execution.vectorizer import VECTORIZER_STATS, try_vectorize

    vectorized = try_vectorize(unit, kernel_name, max_steps_per_item)
    if vectorized is None:
        return "rejected", ""
    kernel = unit.kernel(kernel_name) if kernel_name else unit.kernels[0]
    generator = PayloadGenerator(
        PayloadConfig(global_size=global_size, local_size=local_size)
    )
    try:
        # Dispatch 2-D kernels the way the driver would, so the dynamic leg
        # exercises the same lane geometry the analyzer models.
        payload = generator.generate(kernel, work_dim=kernel_work_dim(kernel))
    except PayloadError as error:
        return "error", f"payload: {error}"
    replays = VECTORIZER_STATS.replays
    try:
        vectorized.execute(payload.pool, payload.scalar_args, payload.ndrange)
    except LockstepBailout as bailout:
        return "bailout", str(bailout)
    except Exception as error:  # pragma: no cover - defensive
        return "error", f"{type(error).__name__}: {error}"
    if VECTORIZER_STATS.replays != replays:
        return "bailout", "memory hazard replayed in smaller chunks of work-groups"
    return "clean", ""


# ---------------------------------------------------------------------------
# Kernel-set drivers.
# ---------------------------------------------------------------------------


def cross_check_many(named_sources, **kwargs) -> SoundnessReport:
    """Cross-check an iterable of ``(name, source)`` pairs."""
    report = SoundnessReport()
    for name, source in named_sources:
        report.records.append(cross_check_source(source, name=name, **kwargs))
    return report


def check_suites(**kwargs) -> SoundnessReport:
    """Cross-check every benchmark kernel of every suite (paper Table 3)."""
    from repro.suites.registry import all_benchmarks

    return cross_check_many(
        (
            (benchmark.qualified_name, benchmark.source)
            for benchmark in all_benchmarks()
        ),
        **kwargs,
    )


def check_synthesized(
    count: int = 1000,
    seed: int = 0,
    repository_count: int = 40,
    **kwargs,
) -> SoundnessReport:
    """Cross-check the unique kernels of one *count*-kernel synthesis request.

    ``generate_kernels`` drops duplicates, so fewer than *count* kernels are
    checked: 301 for ``count=500`` at seed 0.
    """
    from repro.synthesis.generator import CLgen

    synthesizer = CLgen.from_github(repository_count=repository_count, seed=seed)
    result = synthesizer.generate_kernels(count, seed=seed)
    return cross_check_many(
        (
            (f"clgen.{index}", kernel.source)
            for index, kernel in enumerate(result.kernels)
        ),
        **kwargs,
    )
