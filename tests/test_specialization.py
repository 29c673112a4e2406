"""Analyzer-guided lockstep specialization: bit-identity and routing tests.

The specialized tier (hazard-tracking elision on every buffer of a SAFE
kernel, which has no race site — see ``repro.analysis.specialize``) must be
bit-identical to the generic lockstep tier on every kernel it accepts:
identical buffer contents and identical :class:`ExecutionStats`.  These
tests check the invariant property-style over uniform-control, divergent,
affine and negative-stride kernel families, over the archetype generator's
realistic corpus, and through the engine router (including the generic
``engine="vectorized"`` probe and the one-lockstep-attempt rule).
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import analyze_kernel
from repro.corpus import ContentFileGenerator
from repro.errors import LockstepBailout
from repro.execution import cache
from repro.execution.cache import (
    GLOBAL_COMPILATION_CACHE,
    cached_compile_source,
    run_kernel,
    specialized_kernel_for,
)
from repro.execution.vectorizer import VECTORIZER_STATS, VectorizedKernel, try_vectorize
from repro.preprocess.shim import shim_include_resolver, with_shim


def _unit_of(source: str):
    return cached_compile_source(
        with_shim(source), include_resolver=shim_include_resolver, strict=False
    ).unit


def _payload_for(unit, kernel_name=None, global_size=32, local_size=8, seed=3):
    from repro.driver.harness import kernel_work_dim
    from repro.driver.payload import PayloadConfig, PayloadGenerator

    kernel = unit.kernel(kernel_name) if kernel_name else unit.kernels[0]
    generator = PayloadGenerator(
        PayloadConfig(global_size=global_size, local_size=local_size, seed=seed)
    )
    return generator.generate(kernel, work_dim=kernel_work_dim(kernel))


def _run(engine, payload):
    result = engine.execute(payload.pool, payload.scalar_args, payload.ndrange)
    buffers = {name: buf.to_list() for name, buf in payload.pool.buffers.items()}
    return buffers, dataclasses.asdict(result.stats)


def _assert_specialized_matches_generic(source: str, **payload_kwargs):
    """Run the specialized and generic lockstep tiers; demand bit-identity."""
    unit = _unit_of(source)
    facts = analyze_kernel(unit, unit.kernels[0].name).specialization
    assert facts is not None and facts.eligible, facts
    generic = try_vectorize(unit)
    assert generic is not None
    specialized = VectorizedKernel(unit, specialization=facts)

    payload = _payload_for(unit, **payload_kwargs)
    payload_specialized = payload.clone()
    reference = _run(generic, payload)
    candidate = _run(specialized, payload_specialized)
    assert candidate[1] == reference[1], "ExecutionStats diverged"
    assert candidate[0] == reference[0], "buffer contents diverged"


class TestUniformControlBitIdentity:
    """Hazard elision under uniform and divergent control matches the
    generic tier."""

    @settings(max_examples=25, deadline=None)
    @given(
        iterations=st.integers(min_value=0, max_value=6),
        threshold=st.integers(min_value=-4, max_value=40),
        use_else=st.booleans(),
        global_size=st.sampled_from([1, 7, 32, 64]),
        seed=st.integers(min_value=0, max_value=50),
    )
    def test_uniform_loops_and_branches(
        self, iterations, threshold, use_else, global_size, seed
    ):
        else_clause = "else { acc = acc + b[gid]; }" if use_else else ""
        source = f"""
        __kernel void k(__global float* a, __global float* b, const int n) {{
          int gid = get_global_id(0);
          float acc = a[gid];
          for (int i = 0; i < {iterations}; i++) {{
            acc = acc * 0.5f + b[gid];
          }}
          if (n > {threshold}) {{ acc = acc - 3.0f; }} {else_clause}
          a[gid] = acc;
        }}
        """
        _assert_specialized_matches_generic(source, global_size=global_size, seed=seed)

    def test_uniform_for_and_if_chain(self):
        source = """
        __kernel void k(__global int* a, const int n) {
          int gid = get_global_id(0);
          int acc = a[gid];
          for (int i = 0; i < 5; i++) { acc = acc + i; }
          if (n % 3 == 0) { acc = acc + 1; }
          else if (n % 3 == 1) { acc = acc + 2; }
          else { acc = acc + 3; }
          a[gid] = acc;
        }
        """
        _assert_specialized_matches_generic(source)

    def test_divergent_guard_still_eligible_not_uniform(self):
        """The ubiquitous bounds guard: SAFE, hence eligible, but divergent —
        hazard elision under a lane mask still matches."""
        source = """
        __kernel void k(__global float* a, __global float* b, const int n) {
          int gid = get_global_id(0);
          if (gid < n) { a[gid] = b[gid] * 2.0f; }
        }
        """
        _assert_specialized_matches_generic(source)


class TestAffineStreamBitIdentity:
    """Hazard elision on affine subscripts matches the generic tier."""

    @settings(max_examples=25, deadline=None)
    @given(
        coefficient=st.sampled_from(["1.0f", "0.5f", "-2.0f", "3.25f"]),
        offset=st.sampled_from(["0.0f", "1.0f", "-4.5f"]),
        global_size=st.sampled_from([1, 2, 31, 64]),
        seed=st.integers(min_value=0, max_value=50),
    )
    def test_direct_streams(self, coefficient, offset, global_size, seed):
        source = f"""
        __kernel void k(__global float* a, __global float* b) {{
          int gid = get_global_id(0);
          b[gid] = a[gid] * {coefficient} + {offset};
        }}
        """
        _assert_specialized_matches_generic(source, global_size=global_size, seed=seed)

    def test_negative_stride_falls_back_to_gather(self):
        """An affine-but-descending subscript with out-of-bounds lanes: the
        untracked gather must keep the clamp accounting and still match."""
        source = """
        __kernel void k(__global float* a, __global float* b, const int n) {
          int gid = get_global_id(0);
          b[gid] = a[n - gid];
        }
        """
        _assert_specialized_matches_generic(source, global_size=16, local_size=8)


class TestArchetypeDifferential:
    """Realistic generated kernels: every eligible one must match exactly."""

    _ARCHETYPES = [
        "add", "saxpy", "scale", "map", "zip", "stencil", "reduce", "dot",
        "matmul", "transpose", "activation", "threshold", "triad", "heavy", "copy",
    ]

    @settings(max_examples=40, deadline=None)
    @given(
        archetype=st.sampled_from(_ARCHETYPES),
        seed=st.integers(min_value=0, max_value=400),
    )
    def test_eligible_archetypes_match(self, archetype, seed):
        generated = ContentFileGenerator(seed=seed).generate_archetype(archetype)
        try:
            unit = _unit_of(generated.text)
        except Exception:
            return
        if not unit.kernels:
            return
        facts = analyze_kernel(unit, unit.kernels[0].name).specialization
        if facts is None or not facts.eligible:
            return
        generic = try_vectorize(unit)
        if generic is None:
            return
        _assert_specialized_matches_generic(generated.text)


class TestRouterAndOptOut:
    """run_kernel's lockstep → closure lattice, and the generic tier that
    ``engine="vectorized"`` opts into."""

    SOURCE = """
    __kernel void k(__global float* a, __global float* b) {
      int gid = get_global_id(0);
      b[gid] = a[gid] + 1.0f;
    }
    """

    def _payloads(self):
        unit = _unit_of(self.SOURCE)
        return unit, _payload_for(unit)

    def test_auto_engine_uses_specialized_tier(self):
        unit, payload = self._payloads()
        specialized = specialized_kernel_for(unit)
        assert specialized is not None
        # engine="vectorized" keeps the generic lockstep tier covered too.
        for engine in ("auto", "vectorized"):
            before = VECTORIZER_STATS.executions
            run = payload.clone()
            run_kernel(unit, run.pool, run.scalar_args, run.ndrange, engine=engine)
            assert VECTORIZER_STATS.executions > before, engine

    def test_specialized_and_generic_artifacts_coexist(self):
        unit, _ = self._payloads()
        specialized = specialized_kernel_for(unit)
        generic = GLOBAL_COMPILATION_CACHE.get(unit, None, artifact="vectorized")
        assert specialized is not None
        assert generic is not None
        assert specialized is not generic
        assert not specialized._track_hazards
        assert generic._track_hazards

    def test_vectorized_engine_matches_auto(self):
        unit, payload = self._payloads()
        payload_generic = payload.clone()
        result_auto = run_kernel(unit, payload.pool, payload.scalar_args, payload.ndrange)

        built_before = VECTORIZER_STATS.kernels_specialized
        result_generic = run_kernel(
            unit, payload_generic.pool, payload_generic.scalar_args, payload_generic.ndrange,
            engine="vectorized",
        )
        # The generic tier must reproduce the specialized run exactly and
        # must not build (or run) any new specialized artifact.
        assert VECTORIZER_STATS.kernels_specialized == built_before
        assert dataclasses.asdict(result_generic.stats) == dataclasses.asdict(result_auto.stats)
        for name, buffer in payload.pool.buffers.items():
            assert payload_generic.pool.buffers[name].to_list() == buffer.to_list()

    def test_forced_vectorized_engine_stays_generic(self):
        """engine="vectorized" is the differential tests' probe of the
        generic tier; it must never silently swap in the specialized one."""
        unit, payload = self._payloads()
        payload_generic = payload.clone()
        generic = try_vectorize(unit)
        reference = _run(generic, payload_generic)
        result = run_kernel(
            unit, payload.pool, payload.scalar_args, payload.ndrange, engine="vectorized"
        )
        assert dataclasses.asdict(result.stats) == reference[1]

    def test_one_lockstep_attempt_per_launch(self, monkeypatch):
        """A specialized instance that bails falls back straight to the
        closure engine: the generic lockstep instance is never built or
        run for that launch."""
        unit, payload = self._payloads()
        reference = payload.clone()
        facts = analyze_kernel(unit, unit.kernels[0].name).specialization
        bailing = VectorizedKernel(unit, specialization=facts)

        def bail(*args):
            raise LockstepBailout("forced bailout")

        monkeypatch.setattr(bailing, "_execute", bail)
        monkeypatch.setattr(cache, "specialized_kernel_for", lambda *args: bailing)
        generic_lookups = []
        monkeypatch.setattr(
            cache, "vectorized_kernel_for", lambda *args: generic_lookups.append(args)
        )

        bailouts = VECTORIZER_STATS.bailouts
        result = run_kernel(unit, payload.pool, payload.scalar_args, payload.ndrange)
        expected = run_kernel(
            unit, reference.pool, reference.scalar_args, reference.ndrange,
            engine="interpreter",
        )
        assert VECTORIZER_STATS.bailouts == bailouts + 1
        assert generic_lookups == []
        assert dataclasses.asdict(result.stats) == dataclasses.asdict(expected.stats)
        for name, buffer in reference.pool.buffers.items():
            assert payload.pool.buffers[name].to_list() == buffer.to_list()


#: Archetype candidates for the seed-fidelity tests below: the shapes the
#: synthesizer's parsed-rewrite path accepts (no directives, no shim macro
#: or typedef names in the body — see ``generator._REWRITE_TEXT_PATH``).
_SEED_ARCHETYPES = [
    """
    __kernel void scale(__global float* a, __global float* b, const int n) {
      int gid = get_global_id(0);
      if (gid < n) { b[gid] = a[gid] * 2.5f + 1.0f; }
    }
    """,
    """
    __kernel void stencil(__global int* src, __global int* dst) {
      int gid = get_global_id(0);
      int acc = 0;
      for (int i = 0; i < 4; ++i) { acc += src[gid] >> i; }
      dst[gid] = acc;
    }
    """,
    """
    __kernel void saxpy(__global float* x, __global float* y, const float alpha) {
      int gid = get_global_id(0);
      y[gid] = alpha * x[gid] + y[gid];
    }
    """,
]


def _rewrite_like_synthesis(text: str):
    """Replay the synthesizer's parsed-rewrite path for one candidate.

    Returns ``(normalized_text, renamed_body_unit)`` exactly as
    ``CLgen._normalize_candidate`` produces them before seeding.
    """
    from repro.preprocess.rejection import RejectionFilter
    from repro.preprocess.rewriter import CodeRewriter

    verdict = RejectionFilter().check(text)
    assert verdict.accepted, verdict.detail
    body_unit = verdict.compilation.body_unit
    assert body_unit is not None
    normalized = CodeRewriter(rename_identifiers=True).rewrite_parsed(
        text, body_unit
    ).text
    return normalized, body_unit


class TestCompileSeedFidelity:
    """The sample-time compile seeding must be interchangeable with a fresh
    compile: ``compile_parsed_body`` on the rewriter's renamed AST and
    ``compile_source`` on the text it printed must agree on everything the
    execute phase can observe (the ``compile_parsed_body`` docstring's
    "covered by the seed-fidelity tests" claim)."""

    @pytest.mark.parametrize("text", _SEED_ARCHETYPES)
    def test_seeded_compile_matches_fresh(self, text):
        import pickle

        from repro.clc import compile_parsed_body, compile_source
        from repro.clc.printer import SourcePrinter
        from repro.execution import CompiledKernel

        normalized, body_unit = _rewrite_like_synthesis(text)
        source = with_shim(normalized)
        seeded = compile_parsed_body(
            source, body_unit, include_resolver=shim_include_resolver,
            require_kernel=True, strict=False,
        )
        assert seeded is not None
        fresh = compile_source(
            source, include_resolver=shim_include_resolver, strict=False
        )

        printer = SourcePrinter()
        assert printer.print_translation_unit(seeded.unit) == (
            printer.print_translation_unit(fresh.unit)
        )
        assert seeded.preprocessed == fresh.preprocessed
        assert seeded.static_instruction_count == fresh.static_instruction_count
        assert pickle.dumps(seeded.ir) == pickle.dumps(fresh.ir)
        assert pickle.dumps(seeded.semantics) == pickle.dumps(fresh.semantics)

        kernel_name = seeded.unit.kernels[0].name
        payload = _payload_for(seeded.unit, kernel_name)
        payload_fresh = payload.clone()
        result_seeded = _run(CompiledKernel(seeded.unit, kernel_name), payload)
        result_fresh = _run(CompiledKernel(fresh.unit, kernel_name), payload_fresh)
        assert result_seeded == result_fresh

    def test_preprocess_nonidentity_refuses_seed(self):
        """A body whose preprocessing is not the identity must be refused —
        a fresh compile would parse different text than the reused AST."""
        from repro.clc import compile_parsed_body

        normalized, body_unit = _rewrite_like_synthesis(_SEED_ARCHETYPES[0])
        directive_body = "#define TWO 2\n" + normalized
        assert compile_parsed_body(
            with_shim(directive_body), body_unit,
            include_resolver=shim_include_resolver, strict=False,
        ) is None

    def test_missing_prelude_refuses_seed(self):
        """Without a registered prelude prefix there is no known parse
        environment for the body, so the fast path must decline."""
        from repro.clc import compile_parsed_body

        normalized, body_unit = _rewrite_like_synthesis(_SEED_ARCHETYPES[0])
        assert compile_parsed_body(
            normalized, body_unit,
            include_resolver=shim_include_resolver, strict=False,
        ) is None

    def test_generator_seed_lands_under_harness_key(self):
        """``CLgen._seed_measure_compilation`` must put the seeded result
        under the exact key the measurement harness compiles with, so the
        execute phase's lookup is an identity hit on the renamed AST."""
        from repro.synthesis.generator import CLgen

        normalized, body_unit = _rewrite_like_synthesis(_SEED_ARCHETYPES[2])
        CLgen._seed_measure_compilation(normalized, body_unit)
        compilation = cached_compile_source(
            with_shim(normalized), include_resolver=shim_include_resolver, strict=False
        )
        assert compilation.body_unit is body_unit
