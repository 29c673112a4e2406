"""Content-addressed caching for the compiled kernel engine.

Compilation (AST → closures) costs roughly one tree walk; execution costs
thousands.  The paper's pipeline nevertheless re-executes the *same* kernel
many times — the dynamic checker runs four payloads per candidate, the
experiment harness measures every benchmark across several datasets, and
tests rebuild identical translation units over and over.  This module makes
all of that compile-once:

* :func:`compiled_kernel_for` memoizes :class:`CompiledKernel` instances,
  first by translation-unit identity (cheap, covers the execute-many case)
  and second by a content hash of the printed source (covers structurally
  identical units parsed from the same text).
* :func:`cached_compile_source` memoizes the full ``compile_source``
  frontend by source-text hash, so repeated measurement of the same kernel
  skips lexing/parsing/semantic analysis entirely.

Both caches are bounded LRU and safe to share process-wide.
"""

from __future__ import annotations

import hashlib
import threading
import weakref
from collections import OrderedDict

from repro.clc import ast_nodes as ast
from repro.errors import KernelRuntimeError, LockstepBailout
from repro.execution.compiler import CompiledKernel
from repro.execution.interpreter import ExecutionResult, KernelInterpreter
from repro.execution.memory import MemoryPool
from repro.execution.ndrange import NDRange
from repro.execution.vectorizer import (
    VECTORIZER_STATS,
    NotVectorizable,
    VectorizedKernel,
    try_vectorize,
)

#: Cached marker for "this kernel is outside the lockstep subset".
_NOT_VECTORIZABLE = object()

#: Content-keyed entries :class:`CompilationCache` keeps by default.
COMPILATION_CACHE_ENTRIES = 512

#: Frontend results :func:`cached_compile_source` keeps.  A compilation is
#: ~20KB in memory, so a deep cache is cheap — and it must hold the full
#: sample-phase working set (every accepted candidate's seeded compilation,
#: ~1000 at paper scale) long enough for the execute phase to reuse it, or
#: the LRU scan-thrashes and every measurement recompiles from scratch.
SOURCE_CACHE_ENTRIES = 4096


class CompilationCache:
    """Bounded, thread-safe cache of compiled kernel artifacts.

    Four artifact kinds share the cache structure:

    * ``"closure"`` — the :class:`CompiledKernel` engine;
    * ``"vectorized"`` — the generic lockstep :class:`VectorizedKernel`;
    * ``"vectorized-specialized"`` — the lockstep instance without hazard
      tracking, for kernels the analyzer marks ``eligible`` (SAFE) only;
    * ``"analysis"`` — the static analyzer's
      :class:`~repro.analysis.KernelVerdict`, consulted by the engine router
      before each lockstep attempt.

    Both lockstep kinds cache a *not vectorizable* (or not eligible) verdict
    too, so such kernels are analysed at most once.  ``run_kernel`` builds
    the generic instance only for kernels without a specialized one, and
    ``engine="vectorized"`` always finds it under its own key.
    """

    def __init__(self, max_entries: int | None = None):
        self._max_entries = max_entries or COMPILATION_CACHE_ENTRIES
        self._lock = threading.Lock()
        #: id(unit) -> (weakref-or-None,
        #:              {(artifact, kernel_name, max_steps): artifact},
        #:              [digest computed?, content digest])
        self._by_identity: dict[int, tuple] = {}
        #: (content_hash, artifact, kernel_name, max_steps) -> artifact  (LRU)
        self._by_content: OrderedDict[tuple, object] = OrderedDict()
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------

    def _build(self, unit, kernel_name, max_steps_per_item, artifact):
        if artifact == "vectorized":
            compiled = try_vectorize(unit, kernel_name, max_steps_per_item)
            return _NOT_VECTORIZABLE if compiled is None else compiled
        if artifact == "vectorized-specialized":
            # The specialized instance leans on the analyzer's verdict (an
            # instance-level fetch so the "analysis" artifact is shared);
            # ineligible kernels cache the sentinel and run the generic tier.
            verdict = self.get(unit, kernel_name, artifact="analysis")
            facts = getattr(verdict, "specialization", None)
            if facts is None or not facts.eligible:
                return _NOT_VECTORIZABLE
            try:
                compiled = VectorizedKernel(
                    unit, kernel_name, max_steps_per_item, specialization=facts
                )
            except NotVectorizable:
                return _NOT_VECTORIZABLE
            VECTORIZER_STATS.kernels_specialized += 1
            return compiled
        if artifact == "analysis":
            from repro.analysis import analyze_kernel

            return analyze_kernel(unit, kernel_name)
        return CompiledKernel(unit, kernel_name, max_steps_per_item)

    def get(
        self,
        unit: ast.TranslationUnit,
        kernel_name: str | None = None,
        max_steps_per_item: int = 50_000,
        artifact: str = "closure",
    ) -> object:
        """Return a compiled artifact for *unit*, compiling at most once.

        ``artifact="closure"`` yields a :class:`CompiledKernel`;
        ``artifact="vectorized"`` yields a :class:`VectorizedKernel` or the
        ``_NOT_VECTORIZABLE`` sentinel.
        """
        key = (artifact, kernel_name, max_steps_per_item)
        unit_id = id(unit)
        with self._lock:
            entry = self._by_identity.get(unit_id)
            if entry is not None:
                compiled = entry[1].get(key)
                if compiled is not None:
                    self.hits += 1
                    return compiled
            else:
                ref = self._make_reaper(unit, unit_id)
                # [digest computed?, digest] — one source print per unit even
                # when several artifact kinds (analysis, vectorized,
                # specialized, closure) miss at identity level in a row.
                entry = (ref, {}, [False, None])
                self._by_identity[unit_id] = entry
                if ref is None and len(self._by_identity) > 4 * self._max_entries:
                    # No weakref support: fall back to wholesale pruning so
                    # unbounded unit churn cannot leak.
                    self._by_identity = {unit_id: entry}

        digest_cell = entry[2]
        if not digest_cell[0]:
            digest_cell[1] = self._content_hash(unit)
            digest_cell[0] = True
        compiled = self._get_by_content(
            unit, kernel_name, max_steps_per_item, artifact, digest_cell[1]
        )

        with self._lock:
            entry[1][key] = compiled
        return compiled

    def _make_reaper(self, unit, unit_id: int):
        by_identity = self._by_identity

        def reap(_ref, _id=unit_id, _table=by_identity):
            _table.pop(_id, None)

        try:
            return weakref.ref(unit, reap)
        except TypeError:
            return None

    def _get_by_content(self, unit, kernel_name, max_steps_per_item, artifact, digest):
        if digest is None:
            self.misses += 1
            return self._build(unit, kernel_name, max_steps_per_item, artifact)
        key = (digest, artifact, kernel_name, max_steps_per_item)
        with self._lock:
            compiled = self._by_content.get(key)
            if compiled is not None:
                self._by_content.move_to_end(key)
                self.hits += 1
                return compiled
        compiled = self._build(unit, kernel_name, max_steps_per_item, artifact)
        with self._lock:
            self.misses += 1
            self._by_content[key] = compiled
            while len(self._by_content) > self._max_entries:
                self._by_content.popitem(last=False)
        return compiled

    @staticmethod
    def _content_hash(unit: ast.TranslationUnit) -> str | None:
        try:
            from repro.clc.printer import SourcePrinter

            text = SourcePrinter().print_translation_unit(unit)
        except Exception:
            return None
        return hashlib.sha1(text.encode("utf-8", "replace")).hexdigest()

    def clear(self) -> None:
        with self._lock:
            self._by_identity.clear()
            self._by_content.clear()
            self.hits = 0
            self.misses = 0

    @property
    def size(self) -> int:
        with self._lock:
            return len(self._by_content) + sum(
                len(entry[1]) for entry in self._by_identity.values()
            )


#: The process-wide compilation cache used by the driver and experiments.
GLOBAL_COMPILATION_CACHE = CompilationCache()


def compiled_kernel_for(
    unit: ast.TranslationUnit,
    kernel_name: str | None = None,
    max_steps_per_item: int = 50_000,
) -> CompiledKernel:
    """Fetch (or compile) *unit*'s kernel from the process-wide cache."""
    return GLOBAL_COMPILATION_CACHE.get(unit, kernel_name, max_steps_per_item)


def analysis_verdict_for(
    unit: ast.TranslationUnit,
    kernel_name: str | None = None,
):
    """Fetch (or compute) the static analyzer's verdict for *unit*'s kernel.

    The verdict is cached alongside the compiled artifacts, so the router
    pays for the analysis once per kernel per process.  Step-budget knobs do
    not change the facts the analyzer gathers, so the cache key pins the
    step dimension to the 50k default.
    """
    return GLOBAL_COMPILATION_CACHE.get(unit, kernel_name, artifact="analysis")


def vectorized_kernel_for(
    unit: ast.TranslationUnit,
    kernel_name: str | None = None,
    max_steps_per_item: int = 50_000,
) -> VectorizedKernel | None:
    """Fetch (or build) the lockstep artifact; ``None`` if not vectorizable.

    The vectorizability verdict is cached alongside the closure artifact, so
    rejected kernels pay for the analysis once per process.
    """
    artifact = GLOBAL_COMPILATION_CACHE.get(
        unit, kernel_name, max_steps_per_item, artifact="vectorized"
    )
    return None if artifact is _NOT_VECTORIZABLE else artifact


def specialized_kernel_for(
    unit: ast.TranslationUnit,
    kernel_name: str | None = None,
    max_steps_per_item: int = 50_000,
) -> VectorizedKernel | None:
    """Fetch (or build) the analyzer-specialized lockstep artifact.

    ``None`` when the kernel is not eligible — the analyzer did not prove it
    SAFE — in which case the caller runs the generic lockstep tier.  The
    instance skips hazard tracking on every buffer, since a SAFE kernel has
    no race site; it is cached under its own artifact kind, beside the
    generic one.
    """
    artifact = GLOBAL_COMPILATION_CACHE.get(
        unit, kernel_name, max_steps_per_item, artifact="vectorized-specialized"
    )
    return None if artifact is _NOT_VECTORIZABLE else artifact


# ---------------------------------------------------------------------------
# Frontend (source text -> CompilationResult) caching.
# ---------------------------------------------------------------------------

_SOURCE_LOCK = threading.Lock()
_SOURCE_CACHE: OrderedDict[tuple, object] = OrderedDict()


def _source_cache_key(source: str, kwargs: dict) -> tuple:
    """The cache key ``cached_compile_source(source, **kwargs)`` uses.

    Only hashable keyword options participate in the key; calls with
    unhashable options (e.g. a closure include resolver) are keyed by the
    option's qualified name, which is stable for the module-level resolvers
    used throughout the pipeline.
    """
    key_parts = [hashlib.sha1(source.encode("utf-8", "replace")).hexdigest()]
    for name in sorted(kwargs):
        value = kwargs[name]
        try:
            hash(value)
        except TypeError:
            value = getattr(value, "__qualname__", repr(value))
        key_parts.append((name, value))
    return tuple(key_parts)


def _source_cache_put(key: tuple, result: object) -> None:
    with _SOURCE_LOCK:
        _SOURCE_CACHE[key] = result
        while len(_SOURCE_CACHE) > SOURCE_CACHE_ENTRIES:
            _SOURCE_CACHE.popitem(last=False)


def cached_compile_source(source: str, **kwargs):
    """Memoized :func:`repro.clc.compile_source` keyed by text and options.

    See :func:`_source_cache_key` for how options participate in the key.
    """
    from repro.clc import compile_source

    key = _source_cache_key(source, kwargs)

    with _SOURCE_LOCK:
        if key in _SOURCE_CACHE:
            _SOURCE_CACHE.move_to_end(key)
            return _SOURCE_CACHE[key]

    result = compile_source(source, **kwargs)

    _source_cache_put(key, result)
    return result


def seed_compiled_source(source: str, result, **kwargs) -> None:
    """Insert *result* as the cached compilation of ``(source, kwargs)``.

    The synthesizer calls this when normalizing an accepted candidate: the
    rewriter's renamed AST *is* the parse of the normalized text it prints,
    so a :class:`~repro.clc.CompilationResult` built from it
    (:func:`repro.clc.compile_parsed_body`) stands in for the compile the
    measurement harness would otherwise pay per kernel in the execute
    phase.  The key must be built with exactly the keyword options the
    reader passes — the harness uses ``include_resolver=...`` and
    ``strict=False``.
    """
    _source_cache_put(_source_cache_key(source, kwargs), result)


# ---------------------------------------------------------------------------
# Engine-routing convenience entry point.
# ---------------------------------------------------------------------------


def run_kernel(
    unit: ast.TranslationUnit,
    pool: MemoryPool,
    scalar_args: dict[str, object],
    ndrange: NDRange,
    kernel_name: str | None = None,
    max_steps_per_item: int = 50_000,
    engine: str = "auto",
) -> ExecutionResult:
    """Execute *kernel_name* (or the first kernel) of *unit*.

    Engines:

    * ``"auto"`` (default) — a two-rung lattice, lockstep then closure.
      Kernels the static analyzer proves bailout-certain skip straight to
      the closure engine.  Every other kernel makes one lockstep attempt:
      the specialized instance when the analyzer proved the kernel SAFE,
      the generic one otherwise, and none when it is outside the
      vectorizable subset.  A :class:`~repro.errors.LockstepBailout` falls
      back to the closure engine; the pool is untouched at bailout, so the
      fallback is exact.  Both rungs are bit-identical.
    * ``"vectorized"`` — always attempts the *generic* lockstep tier,
      ignoring the static verdict and the specialized instance, with the
      same closure fallback: the unrouted probe the differential tests
      compare against.
    * ``"compiled"`` — the closure engine only.
    * ``"interpreter"`` — the legacy tree walker (differential tests).

    Every engine raises :class:`~repro.errors.KernelRuntimeError` for a
    kernel whose arithmetic overflows a Python float (e.g. an unbounded
    integer squared into a float expression), like any other illegal
    operation, so callers drop the kernel instead of crashing.
    """
    try:
        if engine == "interpreter":
            interpreter = KernelInterpreter(unit, kernel_name, max_steps_per_item)
            return interpreter.execute(pool, scalar_args, ndrange)
        lockstep = None
        if engine == "vectorized":
            lockstep = vectorized_kernel_for(unit, kernel_name, max_steps_per_item)
        elif engine == "auto":
            if getattr(analysis_verdict_for(unit, kernel_name), "skip_vectorization", False):
                from repro.analysis import ANALYSIS_STATS

                ANALYSIS_STATS.routed_skips += 1
            else:
                lockstep = specialized_kernel_for(unit, kernel_name, max_steps_per_item)
                if lockstep is None:
                    lockstep = vectorized_kernel_for(unit, kernel_name, max_steps_per_item)
        if lockstep is not None:
            try:
                return lockstep.execute(pool, scalar_args, ndrange)
            except LockstepBailout:
                pass
        compiled = compiled_kernel_for(unit, kernel_name, max_steps_per_item)
        return compiled.execute(pool, scalar_args, ndrange)
    except OverflowError as error:
        raise KernelRuntimeError(f"arithmetic overflow: {error}") from error
