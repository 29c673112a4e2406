"""A back-off n-gram character model.

This is the fast companion backend to the numpy LSTM.  Trained on the
rewritten corpus it captures the highly regular local structure of
normalized OpenCL (keywords, qualifiers, the ``a``/``b``/``c`` identifier
series) and, with a large order, effectively recombines corpus fragments —
which is what makes it a practical generator for the experiment harness on
a CPU-only machine, while exposing exactly the same sampling interface as
the LSTM.
"""

from __future__ import annotations

import random
from collections import Counter, defaultdict

import numpy as np

from repro.errors import ModelError
from repro.model.backend import LanguageModel, TrainingSummary, apply_temperature
from repro.model.vocabulary import CharacterVocabulary


class NgramLanguageModel(LanguageModel):
    """Character n-gram model with stupid-backoff smoothing."""

    #: Bound on the per-model memo tables (contexts seen during sampling).
    _CACHE_LIMIT = 65_536

    def __init__(self, order: int = 10, backoff_factor: float = 0.4):
        if order < 2:
            raise ModelError("n-gram order must be at least 2")
        self.order = order
        self.backoff_factor = backoff_factor
        self.vocabulary = CharacterVocabulary.from_characters(["\x00"])
        #: counts[k] maps a context string of length k to a Counter of next chars.
        self._counts: list[dict[str, Counter]] = []
        self._trained = False
        #: context tail -> distribution; (tail, temperature) -> cumulative
        #: weights.  The model is immutable once trained and code contexts
        #: repeat constantly, so memoizing the back-off walk turns sampling
        #: from O(order * vocab) per character into a dict hit + bisect.
        self._distribution_cache: dict[str, np.ndarray] = {}
        self._cumulative_cache: dict[tuple[str, float], np.ndarray] = {}
        #: context tail -> the character the unknown-symbol fallback resolves
        #: to.  Without this every degenerate draw re-argsorts the whole
        #: distribution (O(vocab log vocab) per character).
        self._fallback_cache: dict[str, str] = {}

    # ------------------------------------------------------------------
    # Training.
    # ------------------------------------------------------------------

    def fit(self, text: str) -> TrainingSummary:
        if not text:
            raise ModelError("cannot train on empty text")
        self.vocabulary = CharacterVocabulary.from_text(text)
        self._counts = [defaultdict(Counter) for _ in range(self.order)]
        self._distribution_cache = {}
        self._cumulative_cache = {}
        self._fallback_cache = {}
        for position, character in enumerate(text):
            for context_length in range(self.order):
                if position < context_length:
                    continue
                context = text[position - context_length : position]
                self._counts[context_length][context][character] += 1
        self._trained = True
        # Report the model "size" as the number of stored contexts.
        parameters = sum(len(level) for level in self._counts)
        loss = self._training_loss(text)
        return TrainingSummary(losses=[loss], epochs=1, parameters=parameters)

    def _training_loss(self, text: str, sample_limit: int = 2000) -> float:
        """Mean negative log-likelihood per character over a text prefix."""
        stride = max(1, len(text) // sample_limit)
        total, count = 0.0, 0
        for position in range(1, len(text), stride):
            distribution = self.next_distribution(text[:position])
            index = self.vocabulary.index(text[position])
            total -= float(np.log(max(distribution[index], 1e-12)))
            count += 1
        return total / max(count, 1)

    # ------------------------------------------------------------------
    # Prediction.
    # ------------------------------------------------------------------

    def next_distribution(self, context: str) -> np.ndarray:
        if not self._trained:
            raise ModelError("model has not been trained")
        size = self.vocabulary.size
        distribution = np.zeros(size, dtype=float)
        weight = 1.0
        matched = False
        for context_length in range(min(self.order - 1, len(context)), -1, -1):
            suffix = context[len(context) - context_length :] if context_length else ""
            counter = self._counts[context_length].get(suffix)
            if not counter:
                continue
            total = sum(counter.values())
            for character, count in counter.items():
                distribution[self.vocabulary.index(character)] += weight * count / total
            matched = True
            weight *= self.backoff_factor
            if weight < 1e-4:
                break
        if not matched:
            distribution[:] = 1.0
        distribution = np.maximum(distribution, 0.0)
        distribution[0] = 0.0  # never emit the unknown symbol
        total = distribution.sum()
        if total <= 0:
            distribution[1:] = 1.0
            total = distribution.sum()
        return distribution / total

    # ------------------------------------------------------------------
    # Fast stateful sampling.
    # ------------------------------------------------------------------

    def _tail_of(self, context: str) -> str:
        """The context suffix that actually determines the distribution."""
        max_context = self.order - 1
        return context[len(context) - max_context :] if len(context) > max_context else context

    def _cached_distribution(self, tail: str) -> np.ndarray:
        distribution = self._distribution_cache.get(tail)
        if distribution is None:
            distribution = self.next_distribution(tail)
            if len(self._distribution_cache) >= self._CACHE_LIMIT:
                self._distribution_cache.clear()
            self._distribution_cache[tail] = distribution
        return distribution

    def _cached_cumulative(self, tail: str, temperature: float) -> np.ndarray:
        key = (tail, temperature)
        cumulative = self._cumulative_cache.get(key)
        if cumulative is None:
            distribution = apply_temperature(self._cached_distribution(tail), temperature)
            cumulative = np.cumsum(distribution)
            if len(self._cumulative_cache) >= self._CACHE_LIMIT:
                self._cumulative_cache.clear()
            self._cumulative_cache[key] = cumulative
        return cumulative

    def _cached_fallback(self, tail: str) -> str:
        """The character an unknown-symbol draw at *tail* resolves to.

        Mirrors the inline loop :meth:`NgramSamplerState.sample` used to run
        on every degenerate draw — the most likely real character of the
        tail's distribution, or a space when the vocabulary has none — but
        computes it once per tail instead of re-argsorting per character.
        """
        character = self._fallback_cache.get(tail)
        if character is None:
            distribution = self._cached_distribution(tail)
            character = " "
            for candidate in np.argsort(distribution)[::-1]:
                real = self.vocabulary.character(int(candidate))
                if real:
                    character = real
                    break
            if len(self._fallback_cache) >= self._CACHE_LIMIT:
                self._fallback_cache.clear()
            self._fallback_cache[tail] = character
        return character

    def make_sampler(self, context: str = "") -> "NgramSamplerState":
        """A stateful sampler primed with *context*.

        Avoids re-deriving the back-off distribution for contexts already
        visited this process — in normalized OpenCL the same few thousand
        contexts recur across all candidates, so sampling becomes a memo
        lookup plus one binary search per character.
        """
        if not self._trained:
            raise ModelError("model has not been trained")
        return NgramSamplerState(self, context)

    def make_batch_sampler(self, context: str = "", batch_size: int = 1) -> "NgramBatchSamplerState":
        """A sampler advancing *batch_size* independent chains together.

        The lanes share one vectorized draw per step (cumulative rows
        gathered into an ``(N, vocab)`` matrix, one comparison-count for
        every lane's index) while staying bit-identical to running each
        chain through :class:`NgramSamplerState` alone, so the wavefront
        driver can use it with one independently-seeded RNG per chain (the
        parallel sample streams) without changing any sampled byte.
        """
        if not self._trained:
            raise ModelError("model has not been trained")
        return NgramBatchSamplerState(self, context, batch_size)

    # ------------------------------------------------------------------
    # Serialization.
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        """Serialize the model to a JSON-compatible dictionary."""
        levels = []
        for level in self._counts:
            levels.append({context: dict(counter) for context, counter in level.items()})
        return {
            "kind": "ngram",
            "order": self.order,
            "backoff_factor": self.backoff_factor,
            "vocabulary": self.vocabulary.to_dict(),
            "counts": levels,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "NgramLanguageModel":
        model = cls(order=payload["order"], backoff_factor=payload["backoff_factor"])
        model.vocabulary = CharacterVocabulary.from_dict(payload["vocabulary"])
        model._counts = []
        for level in payload["counts"]:
            restored: dict[str, Counter] = defaultdict(Counter)
            for context, counter in level.items():
                restored[context] = Counter(counter)
            model._counts.append(restored)
        model._trained = True
        return model


class NgramSamplerState:
    """Incremental sampling state over a trained n-gram model."""

    def __init__(self, model: NgramLanguageModel, context: str = ""):
        self._model = model
        self._tail = model._tail_of(context)

    def feed(self, text: str) -> None:
        self._tail = self._model._tail_of(self._tail + text)

    def next_distribution(self) -> np.ndarray:
        return self._model._cached_distribution(self._tail)

    def sample(self, rng: random.Random, temperature: float = 1.0) -> str:
        model = self._model
        cumulative = model._cached_cumulative(self._tail, temperature)
        draw = rng.random() * cumulative[-1]
        index = int(np.searchsorted(cumulative, draw, side="right"))
        index = min(index, model.vocabulary.size - 1)
        character = model.vocabulary.character(index)
        if not character:
            # Unknown symbol sampled: fall back to the most likely real
            # character (mirrors LanguageModel.sample_next), memoized per
            # tail so the degenerate path stops re-argsorting per draw.
            character = model._cached_fallback(self._tail)
        self.feed(character)
        return character


class NgramBatchSamplerState:
    """NumPy-lane batch sampler: N chains advanced through vectorized draws.

    Each lane is just a context-tail string; per step the lanes' cached
    cumulative distributions are gathered as rows of one ``(N, vocab)``
    matrix (lanes sharing a tail share a row — the tail-grouping happens in
    the ``(tail, temperature) -> row`` table) and every lane's draw resolves
    through one vectorized comparison-count, replacing the old Python loop
    over :class:`NgramSamplerState` lanes with per-lane ``searchsorted``
    calls.  Bit-identity with the scalar path is by construction: the draw
    is the same ``rng.random() * cumulative[-1]`` product of the same
    doubles, and counting ``cumulative <= draw`` per row *is*
    ``np.searchsorted(cumulative, draw, side="right")`` on a nondecreasing
    row, clamped identically.
    """

    #: Bound on the per-state row table (distinct tails seen while
    #: sampling), mirroring the model-level memo bound.
    _ROW_LIMIT = 65_536

    def __init__(self, model: NgramLanguageModel, context: str, batch_size: int):
        if batch_size < 1:
            raise ModelError("batch size must be positive")
        self._model = model
        self._initial_tail = model._tail_of(context)
        #: `_tail_of` inlined for the hot loop: slicing with [-max_context:]
        #: equals `_tail_of` for every length once max_context >= 1.
        self._max_context = max(model.order - 1, 1)
        self._characters = [
            model.vocabulary.character(index) for index in range(model.vocabulary.size)
        ]
        #: Tail-grouping state, rebuilt whenever the sampling temperature
        #: changes: each distinct tail owns one row of the growing
        #: cumulative matrix, lanes carry row *ids* (lanes sharing a tail
        #: share a row), and ``_transitions`` short-circuits the
        #: tail-string update — ``row * vocab + sampled_index -> next row``
        #: — so steady-state steps never touch a string key at all.
        self._row_temperature: float | None = None
        self._row_ids: dict[str, int] = {}
        self._row_tails: list[str] = []
        self._rows = np.empty((0, model.vocabulary.size), dtype=float)
        #: ``_transitions[row, sampled_index] -> next row`` (-1 = not yet
        #: registered), gathered for all lanes in one fancy-indexing read.
        self._transitions = np.empty((0, model.vocabulary.size), dtype=np.int32)
        self._lane_rows: list[int] = []
        self._lane_tails = [self._initial_tail] * batch_size

    @property
    def batch_size(self) -> int:
        return len(self._lane_tails)

    def feed(self, text: str) -> None:
        if not text:
            return
        max_context = self._max_context
        self._lane_tails = [
            (tail + text)[-max_context:] for tail in self._current_tails()
        ]
        self._lane_rows = []

    def _current_tails(self) -> list[str]:
        if self._lane_rows:
            return [self._row_tails[row] for row in self._lane_rows]
        return self._lane_tails

    def _row_for(self, tail: str) -> int:
        row = self._row_ids.get(tail)
        if row is None:
            cumulative = self._model._cached_cumulative(tail, self._row_temperature)
            if len(self._row_tails) == len(self._rows):
                capacity = max(64, 2 * len(self._rows))
                grown = np.empty((capacity, cumulative.size), dtype=float)
                grown[: len(self._row_tails)] = self._rows[: len(self._row_tails)]
                self._rows = grown
                grown_transitions = np.full(
                    (capacity, cumulative.size), -1, dtype=np.int32
                )
                grown_transitions[: len(self._row_tails)] = self._transitions[
                    : len(self._row_tails)
                ]
                self._transitions = grown_transitions
            row = len(self._row_tails)
            self._rows[row] = cumulative
            self._row_ids[tail] = row
            self._row_tails.append(tail)
        return row

    def _reset_rows(self, temperature: float) -> None:
        """Flush the row/transition tables (temperature switch or growth cap)."""
        self._lane_tails = self._current_tails()
        self._lane_rows = []
        self._row_ids.clear()
        self._row_tails = []
        self._transitions.fill(-1)
        self._row_temperature = temperature

    def sample(self, rng, temperature: float = 1.0) -> list[str]:
        """One character per lane: *rng* is a shared :class:`random.Random`
        (lanes draw from it in position order, exactly as the old per-lane
        loop consumed it) or one generator per lane."""
        lanes = len(self._lane_tails)
        if isinstance(rng, random.Random):
            draws = [rng.random() for _ in range(lanes)]
        else:
            per_lane = list(rng)
            if len(per_lane) != lanes:
                raise ModelError(
                    f"expected {lanes} per-chain rngs, got {len(per_lane)}"
                )
            draws = [source.random() for source in per_lane]
        if temperature != self._row_temperature or len(self._row_tails) >= self._ROW_LIMIT:
            self._reset_rows(temperature)
        lane_rows = self._lane_rows
        if not lane_rows:
            # Resolve row ids before indexing: _row_for may replace
            # self._rows with a grown copy, and `a[b]` evaluates `a` first.
            lane_rows = [self._row_for(tail) for tail in self._lane_tails]
            self._lane_rows = lane_rows
        rows = self._rows[lane_rows]
        scaled = np.asarray(draws) * rows[:, -1]
        indices = np.minimum(
            (rows <= scaled[:, None]).sum(axis=1), len(self._characters) - 1
        ).tolist()
        vocabulary_characters = self._characters
        characters = [vocabulary_characters[index] for index in indices]
        next_rows = self._transitions[lane_rows, indices].tolist()
        # A -1 marks an unregistered transition: the row/index pair's first
        # visit, or an unknown-symbol draw — whose slot deliberately stays
        # -1, since resolving it requires the fallback substitution below.
        if -1 in next_rows:
            max_context = self._max_context
            row_tails = self._row_tails
            for lane, next_row in enumerate(next_rows):
                if next_row >= 0:
                    continue
                row = lane_rows[lane]
                character = characters[lane]
                if character:
                    next_row = self._row_for((row_tails[row] + character)[-max_context:])
                    self._transitions[row, indices[lane]] = next_row
                else:
                    # Unknown symbol: same memoized fallback the scalar
                    # path uses, then transition on the resolved character.
                    character = self._model._cached_fallback(row_tails[row])
                    characters[lane] = character
                    next_row = self._row_for((row_tails[row] + character)[-max_context:])
                next_rows[lane] = next_row
        self._lane_rows = next_rows
        return characters

    def compact(self, keep: list[int]) -> None:
        """Retain only the lanes at positions *keep* (in order)."""
        if self._lane_rows:
            self._lane_rows = [self._lane_rows[position] for position in keep]
            self._lane_tails = [self._row_tails[row] for row in self._lane_rows]
        else:
            self._lane_tails = [self._lane_tails[position] for position in keep]

    def reset_lane(self, position: int) -> None:
        """Rewind one lane to the constructor context (wavefront refill)."""
        if self._lane_rows:
            self._lane_rows[position] = self._row_for(self._initial_tail)
            self._lane_tails[position] = self._initial_tail
        else:
            self._lane_tails[position] = self._initial_tail
