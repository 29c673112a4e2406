"""Algorithm 1: sampling a candidate kernel from a seed text.

Characters are sampled from the language model one at a time, while a brace
depth counter tracks when the kernel's function block closes; sampling stops
when the depth returns to zero or a maximum length is reached.  The result
is a *candidate* — the rejection filter decides whether it becomes a
synthetic benchmark.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

from repro.model.backend import LanguageModel


def stream_seed(sample_seed: int, index: int) -> int:
    """The RNG seed of kernel stream *index* under batch seed *sample_seed*.

    Derived through SHA-256 so it is stable across processes, sessions and
    machines (no ``PYTHONHASHSEED`` dependence) and so neighbouring indices
    get statistically unrelated streams.  This is what makes sample shards
    embarrassingly parallel: stream *index* is a pure function of
    ``(sample_seed, index)`` with no carried RNG state.
    """
    digest = hashlib.sha256(f"repro-sample:{sample_seed}:{index}".encode("utf-8"))
    return int.from_bytes(digest.digest()[:8], "big")


def stream_rng(sample_seed: int, index: int) -> random.Random:
    """A fresh :class:`random.Random` positioned at the start of stream *index*."""
    return random.Random(stream_seed(sample_seed, index))


#: Wavefront width of the sample stage (chosen by the batch-width sweep in
#: ARCHITECTURE.md "Sample wavefront": throughput flattens past 64, and a
#: wider batch only holds more lanes open near the tail of a range).
DEFAULT_SAMPLE_BATCH = 64


@dataclass
class SamplerConfig:
    """Knobs of the character-level sampler."""

    max_kernel_length: int = 2048
    temperature: float = 0.7
    seed_kernel_name: str = "A"


@dataclass
class SampledCandidate:
    """One raw sample from the model (not yet filtered)."""

    text: str
    completed: bool  # True if the brace depth returned to zero
    characters_sampled: int


class KernelSampler:
    """Implements Algorithm 1 over any :class:`LanguageModel` backend."""

    def __init__(self, model: LanguageModel, config: SamplerConfig | None = None):
        self._model = model
        self.config = config or SamplerConfig()

    def sample(self, seed_text: str, rng: random.Random) -> SampledCandidate:
        """Sample one candidate kernel continuing *seed_text*.

        The seed text is expected to end just after the opening ``{`` of the
        kernel body (depth 1), as produced by
        :meth:`repro.synthesis.argspec.ArgumentSpec.seed_text`.
        """
        depth = seed_text.count("{") - seed_text.count("}")
        if depth <= 0:
            depth = 1

        # Prefer a stateful sampler when the backend provides one (the LSTM);
        # fall back to the generic interface otherwise.
        incremental = getattr(self._model, "make_sampler", None)
        sampler = incremental(seed_text) if callable(incremental) else None

        text = seed_text
        sampled = 0
        completed = False
        while sampled < self.config.max_kernel_length:
            if sampler is not None:
                character = sampler.sample(rng, self.config.temperature)
            else:
                character = self._model.sample_next(text, rng, self.config.temperature)
            text += character
            sampled += 1
            if character == "{":
                depth += 1
            elif character == "}":
                depth -= 1
                if depth <= 0:
                    completed = True
                    break
        return SampledCandidate(text=text, completed=completed, characters_sampled=sampled)
