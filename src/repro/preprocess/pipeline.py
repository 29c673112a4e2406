"""The end-to-end preprocessing pipeline: content files → language corpus.

Mirrors the left half of Figure 4 in the paper: content files mined from
GitHub flow through the rejection filter and the code rewriter to produce
the final language corpus of normalized kernel functions, together with the
statistics reported in §4.1 (discard rates with and without the shim,
line counts, kernel counts, vocabulary reduction).

Per-file work (rejection check + rewrite) is a pure function of the file
text and the pipeline configuration, so it is cached content-addressably
(in-process always, on disk when configured — see
:mod:`repro.preprocess.cache`), making repeated corpus builds near-free.
Parallel cold builds shard the corpus by repository range (see
:mod:`repro.store.shards`).

Statistics are folded from the per-file outcomes in input order, so cached,
sharded and cold runs produce byte-identical results.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.preprocess.cache import PreprocessCache, outcome_key, resolve_cache
from repro.preprocess.rejection import RejectionFilter, RejectionReason, RejectionResult
from repro.preprocess.rewriter import CodeRewriter, bag_of_words_vocabulary


def count_lines(text: str) -> int:
    """Number of non-empty lines in *text*."""
    return sum(1 for line in text.splitlines() if line.strip())


@dataclass
class CorpusStatistics:
    """The §4.1 numbers for one preprocessing run."""

    content_files: int = 0
    content_lines: int = 0
    accepted_files: int = 0
    accepted_lines: int = 0
    rejected_files: int = 0
    rewritten_files: int = 0
    rewritten_lines: int = 0
    kernel_functions: int = 0
    discard_rate: float = 0.0
    rejection_reasons: dict[str, int] = field(default_factory=dict)
    original_vocabulary: int = 0
    rewritten_vocabulary: int = 0

    @property
    def vocabulary_reduction(self) -> float:
        if self.original_vocabulary == 0:
            return 0.0
        return 1.0 - self.rewritten_vocabulary / self.original_vocabulary


@dataclass
class FileOutcome:
    """Everything the pipeline needs to know about one processed file.

    This is the unit of caching and of the preprocess shard artifacts:
    compact, picklable, and independent of AST objects.
    """

    accepted: bool
    reason_value: str
    detail: str = ""
    kernel_count: int = 0
    content_line_count: int = 0
    rewritten_text: str | None = None
    rewritten_line_count: int = 0
    #: Sorted tuples rather than sets: outcomes are store artifacts (the
    #: per-file cache and the preprocess shards), and set iteration order
    #: depends on PYTHONHASHSEED — sorted tuples keep an outcome's
    #: serialized bytes identical across processes and machines.
    original_vocabulary: tuple[str, ...] = ()
    rewritten_vocabulary: tuple[str, ...] = ()

    def to_rejection_result(self) -> RejectionResult:
        return RejectionResult(
            accepted=self.accepted,
            reason=RejectionReason(self.reason_value),
            detail=self.detail,
        )


@dataclass
class PipelineResult:
    """Output of a full preprocessing run."""

    corpus_texts: list[str]
    statistics: CorpusStatistics
    rejections: list[RejectionResult]


def fold_outcomes(outcomes: list[FileOutcome]) -> PipelineResult:
    """Fold per-file *outcomes* (in input order) into a :class:`PipelineResult`.

    This is the whole statistics computation of a preprocessing run: because
    it consumes only the per-file outcomes, folding the concatenation of
    several shards' outcomes is bit-identical to one unsharded run over the
    concatenated files (the invariant the sharded ``preprocess`` merge stage
    relies on — see :mod:`repro.store.shards`).
    """
    statistics = CorpusStatistics()
    statistics.content_files = len(outcomes)
    original_vocabulary: set[str] = set()
    rewritten_vocabulary: set[str] = set()
    corpus_texts: list[str] = []
    rejections: list[RejectionResult] = []

    for outcome in outcomes:
        statistics.content_lines += outcome.content_line_count
        rejections.append(outcome.to_rejection_result())
        if not outcome.accepted:
            statistics.rejected_files += 1
            reason = outcome.reason_value
            statistics.rejection_reasons[reason] = (
                statistics.rejection_reasons.get(reason, 0) + 1
            )
            continue

        statistics.accepted_files += 1
        statistics.accepted_lines += outcome.content_line_count
        original_vocabulary.update(outcome.original_vocabulary)

        if outcome.rewritten_text is None:
            statistics.rejection_reasons["rewriter failure"] = (
                statistics.rejection_reasons.get("rewriter failure", 0) + 1
            )
            continue

        statistics.rewritten_files += 1
        statistics.rewritten_lines += outcome.rewritten_line_count
        rewritten_vocabulary.update(outcome.rewritten_vocabulary)
        statistics.kernel_functions += outcome.kernel_count
        corpus_texts.append(outcome.rewritten_text)

    if statistics.content_files:
        statistics.discard_rate = statistics.rejected_files / statistics.content_files
    statistics.original_vocabulary = len(original_vocabulary)
    statistics.rewritten_vocabulary = len(rewritten_vocabulary)
    return PipelineResult(
        corpus_texts=corpus_texts, statistics=statistics, rejections=rejections
    )


class PreprocessingPipeline:
    """Runs rejection filtering and code rewriting over content files."""

    def __init__(
        self,
        use_shim: bool = True,
        rename_identifiers: bool = True,
        min_static_instructions: int = 3,
        cache: PreprocessCache | None = None,
        cache_dir: str | None = None,
    ):
        self.use_shim = use_shim
        self.rename_identifiers = rename_identifiers
        self.min_static_instructions = min_static_instructions
        self.cache = cache if cache is not None else resolve_cache(cache_dir)
        self.rejection_filter = RejectionFilter(
            min_static_instructions=min_static_instructions, use_shim=use_shim
        )
        self.rewriter = CodeRewriter(rename_identifiers=rename_identifiers)

    # ------------------------------------------------------------------

    def run(self, content_files: list[str]) -> PipelineResult:
        """Process *content_files* and return the normalized corpus texts."""
        return fold_outcomes(self.outcomes(content_files))

    def outcomes(self, content_files: list[str]) -> list[FileOutcome]:
        """Per-file outcomes in input order, consulting the cache first (the
        shardable half of a run: pure per-file work; all global aggregation
        lives in :func:`fold_outcomes`)."""
        keys = [
            outcome_key(
                text, self.use_shim, self.rename_identifiers, self.min_static_instructions
            )
            for text in content_files
        ]
        outcomes: list[FileOutcome | None] = [self.cache.get(key) for key in keys]

        missing = [index for index, outcome in enumerate(outcomes) if outcome is None]
        if not missing:
            return outcomes  # type: ignore[return-value]

        # Identical files repeated within one corpus (GitHub forks) only
        # need processing once.
        by_key: dict[str, list[int]] = {}
        for index in missing:
            by_key.setdefault(keys[index], []).append(index)
        unique_indices = [indices[0] for indices in by_key.values()]

        for index in unique_indices:
            outcome = self._process(content_files[index])
            self.cache.put(keys[index], outcome)
            for duplicate in by_key[keys[index]]:
                outcomes[duplicate] = outcome
        return outcomes  # type: ignore[return-value]

    def _process(self, text: str) -> FileOutcome:
        """Run the rejection filter and rewriter over one content file."""
        result = self.rejection_filter.check(text)
        kernel_count = (
            len(result.compilation.kernels) if result.compilation is not None else 0
        )
        outcome = FileOutcome(
            accepted=result.accepted,
            reason_value=result.reason.value,
            detail=result.detail,
            kernel_count=kernel_count,
            content_line_count=count_lines(text),
        )
        if not result.accepted:
            return outcome

        outcome.original_vocabulary = tuple(sorted(bag_of_words_vocabulary(text)))
        rewritten = self.rewriter.rewrite_or_none(text)
        if rewritten is not None:
            outcome.rewritten_text = rewritten.text
            outcome.rewritten_line_count = count_lines(rewritten.text)
            outcome.rewritten_vocabulary = tuple(
                sorted(bag_of_words_vocabulary(rewritten.text))
            )
        return outcome


def preprocess_content_files(
    content_files: list[str],
    use_shim: bool = True,
    rename_identifiers: bool = True,
) -> PipelineResult:
    """Convenience wrapper around :class:`PreprocessingPipeline`."""
    pipeline = PreprocessingPipeline(use_shim=use_shim, rename_identifiers=rename_identifiers)
    return pipeline.run(content_files)


def discard_rate_with_and_without_shim(content_files: list[str]) -> dict[str, float]:
    """Reproduce the paper's shim ablation: discard rate with and without the shim.

    The paper reports the shim reducing the discard rate from 40% to 32%.
    """
    with_shim = PreprocessingPipeline(use_shim=True).run(content_files).statistics.discard_rate
    without_shim = (
        PreprocessingPipeline(use_shim=False).run(content_files).statistics.discard_rate
    )
    return {"with_shim": with_shim, "without_shim": without_shim}
