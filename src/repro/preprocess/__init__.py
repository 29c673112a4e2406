"""``repro.preprocess`` — the paper's LLVM-based rejection/rewriting toolchain.

Contains the shim header (Listing 1), the rejection filter, the code
rewriter (Figure 5) and the end-to-end preprocessing pipeline that turns
mined content files into the language corpus.
"""

from repro.preprocess.cache import (
    GLOBAL_PREPROCESS_CACHE,
    PreprocessCache,
    resolve_cache,
)
from repro.preprocess.pipeline import (
    CorpusStatistics,
    FileOutcome,
    PipelineResult,
    PreprocessingPipeline,
    discard_rate_with_and_without_shim,
    preprocess_content_files,
)
from repro.preprocess.rejection import (
    RejectionFilter,
    RejectionReason,
    RejectionResult,
)
from repro.preprocess.rewriter import (
    CodeRewriter,
    RewriteResult,
    bag_of_words_vocabulary,
    name_sequence,
    rewrite_source,
)
from repro.preprocess.shim import (
    SHIM_CONSTANTS,
    SHIM_TYPEDEFS,
    shim_header_text,
    shim_include_resolver,
    with_shim,
)

__all__ = [
    "CodeRewriter",
    "CorpusStatistics",
    "FileOutcome",
    "GLOBAL_PREPROCESS_CACHE",
    "PipelineResult",
    "PreprocessCache",
    "resolve_cache",
    "PreprocessingPipeline",
    "RejectionFilter",
    "RejectionReason",
    "RejectionResult",
    "RewriteResult",
    "SHIM_CONSTANTS",
    "SHIM_TYPEDEFS",
    "bag_of_words_vocabulary",
    "discard_rate_with_and_without_shim",
    "name_sequence",
    "preprocess_content_files",
    "rewrite_source",
    "shim_header_text",
    "shim_include_resolver",
    "with_shim",
]
