"""The ``repro lint`` front end: static verdicts over kernel sets.

Linting is analysis without execution: each kernel is compiled (with the
shim), pushed through the dataflow passes, and reported with its
classification, predicted causes and pass counters.  ``repro lint`` uses
this for ad-hoc files and the benchmark suites; the pipeline itself filters
nothing by verdict and measures every synthesized kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis import analyze_source
from repro.analysis.classify import Classification, KernelVerdict


@dataclass(slots=True)
class LintRecord:
    """The lint outcome for one named kernel source."""

    name: str
    verdict: KernelVerdict | None = None
    error: str = ""

    @property
    def classification(self) -> str:
        if self.verdict is None:
            return "uncompilable"
        return self.verdict.classification.value

    def to_dict(self) -> dict:
        payload = {"name": self.name, "classification": self.classification}
        if self.verdict is not None:
            payload["verdict"] = self.verdict.to_dict()
        if self.error:
            payload["error"] = self.error
        return payload


@dataclass
class LintReport:
    """Lint outcomes over one kernel set, with summary counters."""

    records: list[LintRecord] = field(default_factory=list)

    @property
    def total(self) -> int:
        return len(self.records)

    def by_classification(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for record in self.records:
            counts[record.classification] = counts.get(record.classification, 0) + 1
        return counts

    @property
    def bailout_certain(self) -> list[LintRecord]:
        return [
            record
            for record in self.records
            if record.verdict is not None
            and record.verdict.classification is Classification.BAILOUT
        ]

    def to_dict(self) -> dict:
        return {
            "total": self.total,
            "by_classification": self.by_classification(),
            "records": [record.to_dict() for record in self.records],
        }

    def summary(self) -> str:
        counts = self.by_classification()
        parts = [f"{self.total} kernels"]
        parts.extend(f"{name}={count}" for name, count in sorted(counts.items()))
        return ", ".join(parts)


def lint_source(source: str, name: str = "<kernel>") -> LintRecord:
    """Lint one kernel source string."""
    try:
        verdict = analyze_source(source)
    except Exception as error:  # pragma: no cover - defensive
        return LintRecord(name=name, error=f"{type(error).__name__}: {error}")
    if verdict is None:
        return LintRecord(name=name, error="does not compile")
    return LintRecord(name=name, verdict=verdict)


def lint_sources(named_sources) -> LintReport:
    """Lint an iterable of ``(name, source)`` pairs."""
    report = LintReport()
    for name, source in named_sources:
        report.records.append(lint_source(source, name=name))
    return report


def lint_paths(paths) -> LintReport:
    """Lint kernel files (each file is one translation unit)."""

    def _iter():
        for raw in paths:
            path = Path(raw)
            try:
                text = path.read_text(encoding="utf-8", errors="replace")
            except OSError as error:
                yield str(path), None, str(error)
                continue
            yield str(path), text, ""

    report = LintReport()
    for name, text, error in _iter():
        if text is None:
            report.records.append(LintRecord(name=name, error=error))
        else:
            report.records.append(lint_source(text, name=name))
    return report


def lint_suites() -> LintReport:
    """Lint every benchmark kernel of every suite."""
    from repro.suites.registry import all_benchmarks

    return lint_sources(
        (benchmark.qualified_name, benchmark.source) for benchmark in all_benchmarks()
    )
