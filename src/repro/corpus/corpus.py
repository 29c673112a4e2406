"""The OpenCL language corpus (paper §4.1).

A :class:`Corpus` bundles mined content files with the preprocessing
pipeline output: the normalized kernel texts the language model trains on,
plus all the §4.1 statistics (file/line counts, discard rate, kernel count,
vocabulary reduction).
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field

from repro.corpus.github import GitHubMiner, MiningResult
from repro.preprocess.pipeline import (
    CorpusStatistics,
    PipelineResult,
    PreprocessingPipeline,
    count_lines,
)


@dataclass
class Corpus:
    """A preprocessed OpenCL language corpus ready for language modeling."""

    kernels: list[str] = field(default_factory=list)
    statistics: CorpusStatistics = field(default_factory=CorpusStatistics)
    content_files: list[str] = field(default_factory=list)

    # ------------------------------------------------------------------
    # Construction.
    # ------------------------------------------------------------------

    @classmethod
    def from_content_files(
        cls,
        content_files: list[str],
        use_shim: bool = True,
        rename_identifiers: bool = True,
        min_static_instructions: int = 3,
        cache_dir: str | None = None,
    ) -> "Corpus":
        """Build a corpus by running the preprocessing pipeline."""
        pipeline = PreprocessingPipeline(
            use_shim=use_shim,
            rename_identifiers=rename_identifiers,
            min_static_instructions=min_static_instructions,
            cache_dir=cache_dir,
        )
        result: PipelineResult = pipeline.run(content_files)
        deduplicated = cls._deduplicate(result.corpus_texts)
        return cls(
            kernels=deduplicated,
            statistics=result.statistics,
            content_files=list(content_files),
        )

    @classmethod
    def mine_and_build(
        cls,
        repository_count: int = 100,
        seed: int = 0,
        use_shim: bool = True,
        rename_identifiers: bool = True,
        min_static_instructions: int = 3,
        cache_dir: str | None = None,
    ) -> "Corpus":
        """Mine synthetic GitHub repositories and build the corpus in one step."""
        mining: MiningResult = GitHubMiner(seed=seed).mine(repository_count)
        texts = [cf.text for cf in mining.content_files]
        return cls.from_content_files(
            texts,
            use_shim=use_shim,
            rename_identifiers=rename_identifiers,
            min_static_instructions=min_static_instructions,
            cache_dir=cache_dir,
        )

    @staticmethod
    def _deduplicate(texts: list[str]) -> list[str]:
        """Drop byte-identical duplicates (GitHub is full of forks)."""
        seen: set[str] = set()
        unique: list[str] = []
        for text in texts:
            digest = hashlib.sha1(text.encode("utf-8")).hexdigest()
            if digest in seen:
                continue
            seen.add(digest)
            unique.append(text)
        return unique

    # ------------------------------------------------------------------
    # Views used by the language model and the experiments.
    # ------------------------------------------------------------------

    @property
    def size(self) -> int:
        return len(self.kernels)

    @property
    def line_count(self) -> int:
        return sum(count_lines(text) for text in self.kernels)

    def training_text(self, separator: str = "\n\n", shuffle_seed: int | None = None) -> str:
        """The concatenated corpus text the character-level model trains on."""
        kernels = list(self.kernels)
        if shuffle_seed is not None:
            random.Random(shuffle_seed).shuffle(kernels)
        return separator.join(kernels)

    def character_vocabulary(self) -> set[str]:
        return set(self.training_text())

    def split(self, train_fraction: float = 0.9, seed: int = 0) -> tuple["Corpus", "Corpus"]:
        """Split into training and held-out corpora (for model evaluation)."""
        kernels = list(self.kernels)
        random.Random(seed).shuffle(kernels)
        cut = max(1, int(len(kernels) * train_fraction)) if kernels else 0
        train = Corpus(kernels=kernels[:cut], statistics=self.statistics)
        test = Corpus(kernels=kernels[cut:], statistics=self.statistics)
        return train, test
