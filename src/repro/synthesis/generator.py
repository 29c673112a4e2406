"""CLgen: the benchmark synthesizer facade (paper §4).

Ties the pipeline together: a language corpus (mined or provided), a trained
character-level model, Algorithm-1 sampling from an argument-specification
seed, and the same rejection filter used on GitHub content files.  The
output is a stream of unique, compilable synthetic kernels ready for the
host driver.
"""

from __future__ import annotations

import hashlib
import random
import re
from dataclasses import dataclass, field

from repro.clc import CompilationResult
from repro.corpus.corpus import Corpus
from repro.errors import CompileError, RewriterError, SynthesisError
from repro.model.backend import LanguageModel
from repro.model.lstm import LSTMConfig
from repro.model.trainer import TrainerConfig, ModelTrainer
from repro.preprocess.rejection import RejectionFilter
from repro.preprocess.rewriter import CodeRewriter
from repro.preprocess.shim import SHIM_FEATURE_MACROS, SHIM_TYPEDEFS
from repro.synthesis.argspec import ArgumentSpec
from repro.synthesis.sampler import (
    DEFAULT_SAMPLE_BATCH,
    KernelSampler,
    SamplerConfig,
    stream_rng,
)

#: Candidates matching this pattern take the slow text rewrite path.  The
#: rejection check compiles under the shim prelude's macro table while the
#: rewriter's text path predefines only ``SHIM_CONSTANTS`` and re-seeds the
#: typedefs itself, so a candidate mentioning a feature-macro or typedef
#: name — or carrying its own preprocessor directive — could legitimately
#: expand differently between the two environments.  Everything else (the
#: overwhelming majority of sampled kernels) rewrites straight from the
#: check's already-parsed AST, byte-identically.
_REWRITE_TEXT_PATH = re.compile(
    "#|\\b(?:" + "|".join(sorted(set(SHIM_FEATURE_MACROS) | set(SHIM_TYPEDEFS))) + ")\\b"
)


@dataclass
class SyntheticKernel:
    """One accepted synthetic benchmark kernel."""

    source: str
    raw_sample: str
    argument_spec: ArgumentSpec
    attempt_index: int
    static_instruction_count: int = 0

    @property
    def content_hash(self) -> str:
        return hashlib.sha1(self.source.encode("utf-8")).hexdigest()[:16]


@dataclass
class SynthesisStatistics:
    """Bookkeeping over a synthesis run (used by EXPERIMENTS.md and tests)."""

    requested: int = 0
    generated: int = 0
    attempts: int = 0
    rejected: int = 0
    duplicates: int = 0
    incomplete_samples: int = 0
    characters_sampled: int = 0
    rejection_reasons: dict[str, int] = field(default_factory=dict)

    @property
    def acceptance_rate(self) -> float:
        if self.attempts == 0:
            return 0.0
        return self.generated / self.attempts


@dataclass
class SynthesisResult:
    """Kernels plus statistics from one :meth:`CLgen.generate_kernels` call."""

    kernels: list[SyntheticKernel]
    statistics: SynthesisStatistics

    @property
    def sources(self) -> list[str]:
        return [kernel.source for kernel in self.kernels]


@dataclass
class KernelStreamResult:
    """What one independently-seeded kernel stream produced.

    Stream *index* samples with :func:`repro.synthesis.sampler.stream_rng`
    ``(sample_seed, index)`` and its own attempt budget/statistics, entirely
    unaware of every other stream — which is what lets sample shards fan out
    like execute shards.  ``kernel`` is ``None`` when the stream exhausted
    its attempt budget.  Batch-level uniqueness is restored afterwards by
    :func:`merge_stream_results`.
    """

    index: int
    kernel: SyntheticKernel | None
    statistics: SynthesisStatistics


def merge_stream_results(
    entries: list[KernelStreamResult], requested: int
) -> SynthesisResult:
    """Combine per-stream results into one batch, deduplicating across streams.

    Entries must arrive in stream-index order (shard merges concatenate
    range shards, which preserves it).  Deduplication keeps the first
    occurrence of a source by index and reclassifies later occurrences as
    duplicate rejections — the deterministic, store-mediated replacement for
    the old sequential chain's shared seen-hash set.  Pure recombination
    (no RNG, no wall-clock): merging the same entries always produces the
    same bytes, whichever worker runs it.
    """
    statistics = SynthesisStatistics(requested=requested)
    kernels: list[SyntheticKernel] = []
    seen_sources: set[str] = set()
    for entry in entries:
        stream = entry.statistics
        statistics.attempts += stream.attempts
        statistics.generated += stream.generated
        statistics.rejected += stream.rejected
        statistics.duplicates += stream.duplicates
        statistics.incomplete_samples += stream.incomplete_samples
        statistics.characters_sampled += stream.characters_sampled
        for reason, count in stream.rejection_reasons.items():
            statistics.rejection_reasons[reason] = (
                statistics.rejection_reasons.get(reason, 0) + count
            )
        if entry.kernel is None:
            continue
        if entry.kernel.source in seen_sources:
            # The stream accepted this kernel locally, but an earlier stream
            # got there first: reclassify its accepting attempt as a
            # duplicate rejection so `generated + rejected == attempts`
            # stays invariant.
            statistics.generated -= 1
            statistics.duplicates += 1
            statistics.rejected += 1
            statistics.rejection_reasons["duplicate"] = (
                statistics.rejection_reasons.get("duplicate", 0) + 1
            )
            continue
        seen_sources.add(entry.kernel.source)
        kernels.append(entry.kernel)
    return SynthesisResult(kernels=kernels, statistics=statistics)


class _WavefrontLane:
    """One active attempt of one kernel stream riding in the sample batch.

    Carries everything that makes its stream independent — the stream's own
    RNG, statistics and dedup set — plus the finished attempt's suffix and
    outcome (written by the wavefront driver, which tracks the in-flight
    per-character state itself).  A lane outlives attempts: a rejected
    attempt keeps the stream state, and a resolved stream hands its lane to
    the next pending stream index.
    """

    __slots__ = (
        "index",
        "rng",
        "statistics",
        "seen_hashes",
        "attempt",
        "suffix",
        "sampled",
        "completed",
    )

    def __init__(self, index: int, seed: int):
        self.index = index
        self.rng = stream_rng(seed, index)
        self.statistics = SynthesisStatistics(requested=1)
        self.seen_hashes: set[str] = set()
        self.attempt = 0
        self.suffix: list[str] = []
        self.sampled = 0
        self.completed = False

    def start_attempt(self) -> None:
        self.attempt += 1


class CLgen:
    """The benchmark synthesizer."""

    #: Bound on the memo of per-candidate rejection/normalization outcomes.
    _CANDIDATE_CACHE_LIMIT = 8192

    def __init__(
        self,
        model: LanguageModel,
        corpus: Corpus | None = None,
        sampler_config: SamplerConfig | None = None,
        min_static_instructions: int = 3,
        normalize_output: bool = True,
    ):
        self.model = model
        self.corpus = corpus
        self.sampler = KernelSampler(model, sampler_config)
        self.rejection_filter = RejectionFilter(
            min_static_instructions=min_static_instructions, use_shim=True
        )
        self.rewriter = CodeRewriter(rename_identifiers=True)
        self.normalize_output = normalize_output
        #: candidate text -> (accepted, rejection reason, normalized source
        #: or None, static instruction count).  The n-gram recombines corpus
        #: fragments, so roughly a third of completed candidates across a
        #: full-scale run are exact repeats of an earlier stream's text; the
        #: verdict and rewrite are pure functions of the text, so replaying
        #: the memo is byte-identical to re-running the filter chain.  Only
        #: scalars are retained — compilation results (ASTs, IR) are dropped
        #: as soon as the outcome is extracted.
        self._candidate_cache: dict[str, tuple[bool, str, str | None, int]] = {}

    # ------------------------------------------------------------------
    # Construction helpers.
    # ------------------------------------------------------------------

    @classmethod
    def from_corpus(
        cls,
        corpus: Corpus,
        backend: str = "ngram",
        ngram_order: int = 10,
        lstm_config: LSTMConfig | None = None,
        sampler_config: SamplerConfig | None = None,
    ) -> "CLgen":
        """Train a model on *corpus* and wrap it in a synthesizer."""
        trainer = ModelTrainer(
            TrainerConfig(backend=backend, ngram_order=ngram_order, lstm=lstm_config)
        )
        trained = trainer.train(corpus)
        return cls(model=trained.model, corpus=corpus, sampler_config=sampler_config)

    @classmethod
    def from_github(
        cls,
        repository_count: int = 100,
        seed: int = 0,
        backend: str = "ngram",
        ngram_order: int = 10,
        sampler_config: SamplerConfig | None = None,
    ) -> "CLgen":
        """Mine a (synthetic) GitHub corpus, train and return a synthesizer."""
        corpus = Corpus.mine_and_build(repository_count=repository_count, seed=seed)
        return cls.from_corpus(
            corpus, backend=backend, ngram_order=ngram_order, sampler_config=sampler_config
        )

    # ------------------------------------------------------------------
    # Synthesis.
    # ------------------------------------------------------------------

    def sample_candidate(self, spec: ArgumentSpec | None, rng: random.Random):
        """Draw one raw (unfiltered) candidate."""
        spec = spec or ArgumentSpec.paper_default()
        seed_text = spec.seed_text(self.sampler.config.seed_kernel_name)
        return self.sampler.sample(seed_text, rng)

    def generate_kernel(
        self,
        spec: ArgumentSpec | None = None,
        rng: random.Random | None = None,
        max_attempts: int = 50,
        statistics: SynthesisStatistics | None = None,
        seen_hashes: set[str] | None = None,
    ) -> SyntheticKernel | None:
        """Generate one accepted kernel, or ``None`` after *max_attempts*."""
        spec = spec or ArgumentSpec.paper_default()
        rng = rng or random.Random(0)
        statistics = statistics if statistics is not None else SynthesisStatistics()
        seen_hashes = seen_hashes if seen_hashes is not None else set()

        for attempt in range(max_attempts):
            statistics.attempts += 1
            candidate = self.sample_candidate(spec, rng)
            statistics.characters_sampled += candidate.characters_sampled
            if not candidate.completed:
                statistics.incomplete_samples += 1
                statistics.rejected += 1
                self._count_reason(statistics, "incomplete sample")
                continue

            accepted, reason, source, instruction_count = self._evaluate_candidate(
                candidate.text
            )
            if not accepted:
                statistics.rejected += 1
                self._count_reason(statistics, reason)
                continue

            digest = hashlib.sha1(source.encode("utf-8")).hexdigest()
            if digest in seen_hashes:
                statistics.duplicates += 1
                statistics.rejected += 1
                self._count_reason(statistics, "duplicate")
                continue
            seen_hashes.add(digest)

            statistics.generated += 1
            return SyntheticKernel(
                source=source,
                raw_sample=candidate.text,
                argument_spec=spec,
                attempt_index=attempt,
                static_instruction_count=instruction_count,
            )
        return None

    def _evaluate_candidate(self, text: str) -> tuple[bool, str, str | None, int]:
        """Memoized rejection verdict + normalized source for one candidate.

        Pure function of the candidate text (the filter and the rewriter are
        deterministic), so repeated candidates — common across independently
        seeded streams, since the n-gram recombines the same corpus
        fragments — replay the first outcome byte-for-byte instead of
        re-compiling.  ``source`` is the normalized text for accepted
        candidates and ``None`` for rejected ones.
        """
        outcome = self._candidate_cache.get(text)
        if outcome is None:
            verdict = self.rejection_filter.check(text)
            source: str | None = None
            instruction_count = 0
            if verdict.accepted:
                source = text
                if self.normalize_output:
                    normalized = self._normalize_candidate(text, verdict.compilation)
                    if normalized is not None:
                        source = normalized
                instruction_count = (
                    verdict.compilation.static_instruction_count
                    if verdict.compilation
                    else 0
                )
            outcome = (verdict.accepted, verdict.reason.value, source, instruction_count)
            if len(self._candidate_cache) >= self._CANDIDATE_CACHE_LIMIT:
                self._candidate_cache.clear()
            self._candidate_cache[text] = outcome
        return outcome

    def _normalize_candidate(
        self, text: str, compilation: CompilationResult | None
    ) -> str | None:
        """Normalized source for the accepted candidate *text*, or ``None``.

        When the rejection check's compilation carries the candidate's own
        parsed subtree and the text cannot expand differently outside the
        shim prelude environment (no directives, no feature-macro or typedef
        names — see :data:`_REWRITE_TEXT_PATH`), the rewriter renames and
        re-prints that AST directly, skipping a second preprocess + parse of
        the same text.  Otherwise the byte-equivalent text path runs.  The
        AST is consumed (renamed in place); only the printed text survives
        into the memo.
        """
        body_unit = compilation.body_unit if compilation is not None else None
        if body_unit is not None and _REWRITE_TEXT_PATH.search(text) is None:
            try:
                normalized = self.rewriter.rewrite_parsed(text, body_unit).text
            except RewriterError:
                return None
            self._seed_measure_compilation(normalized, body_unit)
            return normalized
        rewritten = self.rewriter.rewrite_or_none(text)
        return None if rewritten is None else rewritten.text

    @staticmethod
    def _seed_measure_compilation(normalized: str, body_unit) -> None:
        """Hand the renamed AST to the execute phase as a pre-built compile.

        After :meth:`repro.preprocess.rewriter.CodeRewriter.rewrite_parsed`,
        *body_unit* is the parse tree of exactly the text it printed — the
        normalized source the measurement harness will later compile with
        ``cached_compile_source(with_shim(source), include_resolver=
        shim_include_resolver, strict=False)``.  Building the
        :class:`~repro.clc.CompilationResult` here (semantic check + IR
        lowering on the merged shim+body tree, no tokenize/parse) and
        seeding the process-wide source cache under that same key turns the
        execute phase's per-kernel frontend cost into a cache hit.  Purely
        an optimization: any gate failure falls back to the real compile.
        """
        from repro.clc import compile_parsed_body
        from repro.execution.cache import analysis_verdict_for, seed_compiled_source
        from repro.preprocess.shim import shim_include_resolver, with_shim

        source = with_shim(normalized)
        try:
            result = compile_parsed_body(
                source,
                body_unit,
                include_resolver=shim_include_resolver,
                require_kernel=True,
                strict=False,
            )
        except CompileError:
            return
        if result is None:
            return
        seed_compiled_source(
            source,
            result,
            include_resolver=shim_include_resolver,
            strict=False,
        )
        # Derive the static analyzer's verdict now, while the kernel is being
        # accepted: the verdict is a synthesis-time classification (it never
        # depends on payloads or step budgets — the cache pins its key to the
        # default), and the execute phase's engine router then finds it
        # identity-cached on this same unit instead of analyzing mid-measure.
        kernels = result.unit.kernels
        if kernels:
            analysis_verdict_for(result.unit, kernels[0].name)

    def generate_kernel_range(
        self,
        start: int,
        stop: int,
        spec: ArgumentSpec | None = None,
        seed: int = 0,
        max_attempts_per_kernel: int = 50,
    ) -> list[KernelStreamResult]:
        """Run the independently-seeded kernel streams ``start..stop``.

        Stream *index* depends only on ``(seed, index)`` — never on any
        other stream — so any index range can be computed on any worker in
        any order and concatenated back (see :func:`merge_stream_results`).
        A stream that exhausts its attempt budget yields ``kernel=None``
        without affecting later streams.

        A range of two or more streams over a backend with a batch sampler
        is computed by :meth:`generate_kernel_wavefront` — byte-identical
        output, the streams just advance through the model together.  A
        single stream takes the sequential attempt loop below.
        """
        if stop - start > 1 and callable(getattr(self.model, "make_batch_sampler", None)):
            return self.generate_kernel_wavefront(
                start,
                stop,
                spec=spec,
                seed=seed,
                max_attempts_per_kernel=max_attempts_per_kernel,
            )
        entries: list[KernelStreamResult] = []
        for index in range(start, stop):
            statistics = SynthesisStatistics(requested=1)
            kernel = self.generate_kernel(
                spec=spec,
                rng=stream_rng(seed, index),
                max_attempts=max_attempts_per_kernel,
                statistics=statistics,
                seen_hashes=set(),
            )
            entries.append(
                KernelStreamResult(index=index, kernel=kernel, statistics=statistics)
            )
        return entries

    def generate_kernel_wavefront(
        self,
        start: int,
        stop: int,
        spec: ArgumentSpec | None = None,
        seed: int = 0,
        max_attempts_per_kernel: int = 50,
        batch_size: int = DEFAULT_SAMPLE_BATCH,
    ) -> list[KernelStreamResult]:
        """Batched :meth:`generate_kernel_range`: advance all pending streams
        one character per model step.

        Up to *batch_size* lanes ride in one batch sampler; each lane is one
        stream's in-flight attempt, carrying the stream's own
        :func:`repro.synthesis.sampler.stream_rng`, statistics and dedup
        set, so a lane consumes exactly the draws its stream would consume
        sequentially — which is why the output is bit-identical to the
        sequential reference at every width.  As lanes complete they run the
        same rejection/normalization/dedup chain; a failed attempt refills
        its lane with the stream's next attempt (the lane rewinds to the
        seed context) and a resolved stream hands the lane to the next
        pending stream, so the batch stays full until every stream has an
        accepted kernel or an exhausted budget.
        """
        if stop <= start:
            return []
        spec = spec or ArgumentSpec.paper_default()
        config = self.sampler.config
        width = max(1, min(batch_size, stop - start))
        batch_factory = getattr(self.model, "make_batch_sampler", None)
        if not callable(batch_factory):
            raise SynthesisError(
                f"model {type(self.model).__name__} exposes no batch sampler"
            )

        seed_text = spec.seed_text(config.seed_kernel_name)
        initial_depth = seed_text.count("{") - seed_text.count("}")
        if initial_depth <= 0:
            initial_depth = 1
        temperature = config.temperature
        max_length = config.max_kernel_length
        budget = max_attempts_per_kernel

        sampler = batch_factory(seed_text, width)
        lanes = [_WavefrontLane(index, seed) for index in range(start, start + width)]
        next_index = start + width
        entries: dict[int, KernelStreamResult] = {}

        # Hot-loop state lives in parallel lists rather than on the lane
        # objects: rngs are gathered once and patched on refill, brace
        # depths are only touched at brace characters (found by C-level
        # ``str.find`` over the step's joined characters), a lane's sampled
        # count is ``step - started_at`` instead of a per-char increment,
        # and max-length cutoffs are a schedule keyed by expiry step rather
        # than a per-lane check every step.
        rngs = [lane.rng for lane in lanes]
        suffixes: list[list[str]] = [[] for _ in lanes]
        depths = [initial_depth] * width
        started_at = [0] * width
        #: expiry step -> [(position, started_at when scheduled)]; an entry
        #: whose started_at no longer matches is stale (the lane was
        #: refilled first) and is skipped.
        expirations: dict[int, list[tuple[int, int]]] = {
            max_length: [(position, 0) for position in range(width)]
        }
        step = 0

        while lanes:
            step += 1
            characters = sampler.sample(rngs, temperature)
            for suffix, character in zip(suffixes, characters):
                suffix.append(character)
            step_text = "".join(characters)
            finished: list[tuple[int, bool]] = []
            position = step_text.find("{")
            while position != -1:
                depths[position] += 1
                position = step_text.find("{", position + 1)
            position = step_text.find("}")
            while position != -1:
                depth = depths[position] - 1
                depths[position] = depth
                if depth <= 0:
                    # Completed — even when this step also hits max length.
                    finished.append((position, True))
                position = step_text.find("}", position + 1)
            due = expirations.pop(step, None)
            if due:
                completed_positions = {position for position, _ in finished}
                finished.extend(
                    (position, False)
                    for position, started in due
                    if started_at[position] == started
                    and position not in completed_positions
                )
            if not finished:
                continue

            dropped: set[int] = set()
            for position, completed in finished:
                lane = lanes[position]
                lane.suffix = suffixes[position]
                lane.completed = completed
                lane.sampled = step - started_at[position]
                kernel = self._finish_wavefront_attempt(lane, seed_text, spec)
                resolved = kernel is not None or lane.attempt + 1 >= budget
                if not resolved:
                    # Same stream, next attempt: the lane rewinds to the
                    # seed context and keeps its RNG position.
                    lane.start_attempt()
                    sampler.reset_lane(position)
                elif next_index < stop:
                    entries[lane.index] = KernelStreamResult(
                        index=lane.index, kernel=kernel, statistics=lane.statistics
                    )
                    lanes[position] = _WavefrontLane(next_index, seed)
                    rngs[position] = lanes[position].rng
                    next_index += 1
                    sampler.reset_lane(position)
                else:
                    entries[lane.index] = KernelStreamResult(
                        index=lane.index, kernel=kernel, statistics=lane.statistics
                    )
                    dropped.add(position)
                    continue
                suffixes[position] = []
                depths[position] = initial_depth
                started_at[position] = step
                expirations.setdefault(step + max_length, []).append((position, step))
            if dropped:
                keep = [p for p in range(len(lanes)) if p not in dropped]
                sampler.compact(keep)
                lanes = [lanes[p] for p in keep]
                rngs = [rngs[p] for p in keep]
                suffixes = [suffixes[p] for p in keep]
                depths = [depths[p] for p in keep]
                started_at = [started_at[p] for p in keep]
                # Positions shifted: rebuild the schedule from scratch (one
                # pending expiry per surviving lane).
                expirations = {}
                for position, started in enumerate(started_at):
                    expirations.setdefault(started + max_length, []).append(
                        (position, started)
                    )

        return [entries[index] for index in range(start, stop)]

    def _finish_wavefront_attempt(
        self, lane: _WavefrontLane, seed_text: str, spec: ArgumentSpec
    ) -> SyntheticKernel | None:
        """Run one finished lane attempt through the acceptance chain.

        Mirrors one iteration of :meth:`generate_kernel`'s attempt loop —
        same statistics bookkeeping, same rejection reasons, same per-stream
        dedup — and returns the accepted kernel or ``None``.
        """
        statistics = lane.statistics
        statistics.attempts += 1
        statistics.characters_sampled += lane.sampled
        if not lane.completed:
            statistics.incomplete_samples += 1
            statistics.rejected += 1
            self._count_reason(statistics, "incomplete sample")
            return None

        text = seed_text + "".join(lane.suffix)
        accepted, reason, source, instruction_count = self._evaluate_candidate(text)
        if not accepted:
            statistics.rejected += 1
            self._count_reason(statistics, reason)
            return None

        digest = hashlib.sha1(source.encode("utf-8")).hexdigest()
        if digest in lane.seen_hashes:
            statistics.duplicates += 1
            statistics.rejected += 1
            self._count_reason(statistics, "duplicate")
            return None
        lane.seen_hashes.add(digest)

        statistics.generated += 1
        return SyntheticKernel(
            source=source,
            raw_sample=text,
            argument_spec=spec,
            attempt_index=lane.attempt,
            static_instruction_count=instruction_count,
        )

    def generate_kernels(
        self,
        count: int,
        spec: ArgumentSpec | None = None,
        seed: int = 0,
        max_attempts_per_kernel: int = 50,
    ) -> SynthesisResult:
        """Generate up to *count* unique kernels.

        Each kernel position is an independently-seeded stream (see
        :meth:`generate_kernel_range`); positions whose streams exhaust the
        attempt budget, or whose kernels duplicate an earlier position, are
        dropped (without raising), so experiment code can report partial
        coverage rather than crash.
        """
        if count <= 0:
            raise SynthesisError("kernel count must be positive")
        return merge_stream_results(
            self.generate_kernel_range(
                0, count, spec=spec, seed=seed, max_attempts_per_kernel=max_attempts_per_kernel
            ),
            requested=count,
        )

    @staticmethod
    def _count_reason(statistics: SynthesisStatistics, reason: str) -> None:
        statistics.rejection_reasons[reason] = statistics.rejection_reasons.get(reason, 0) + 1
