"""Differential tests: all three execution engines against each other.

The closure compiler must be a perfect stand-in for the legacy interpreter,
and the vectorized lockstep tier a perfect stand-in for both: identical
buffer contents and identical :class:`ExecutionStats` on every kernel of
every benchmark suite, plus equivalent behaviour on the edge cases
(barriers, timeouts, helper functions, atomics).  The lockstep tier is
exercised through the engine router, so kernels it rejects or bails out of
exercise the closure fallback — which must still agree, making the
invariant hold for every kernel regardless of which tier actually ran it.
The compilation cache must hand back the same compiled object for repeated
executions.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.clc import compile_source, parse
from repro.driver.harness import HostDriver
from repro.driver.payload import PayloadConfig, PayloadGenerator
from repro.errors import KernelTimeoutError, LockstepBailout
from repro.execution import (
    CompilationCache,
    CompiledKernel,
    KernelInterpreter,
    MemoryPool,
    NDRange,
    compiled_kernel_for,
    run_kernel,
    try_vectorize,
)
from repro.preprocess.shim import shim_include_resolver, with_shim
from repro.suites.registry import all_suites


def _suite_benchmarks():
    for suite in all_suites():
        for benchmark in suite.benchmarks:
            yield pytest.param(benchmark, id=benchmark.qualified_name)


def _compile_unit(source: str):
    compilation = compile_source(
        with_shim(source), include_resolver=shim_include_resolver, strict=False
    )
    return compilation.unit


def _execute(engine, payload):
    result = engine.execute(payload.pool, payload.scalar_args, payload.ndrange)
    buffers = {name: buffer.to_list() for name, buffer in payload.pool.buffers.items()}
    return buffers, dataclasses.asdict(result.stats)


def _assert_same(reference, candidate, label: str) -> None:
    buffers_reference, stats_reference = reference
    buffers_candidate, stats_candidate = candidate
    assert stats_candidate == stats_reference, label
    assert buffers_candidate.keys() == buffers_reference.keys(), label
    for name in buffers_reference:
        reference_values = buffers_reference[name]
        candidate_values = buffers_candidate[name]
        assert len(candidate_values) == len(reference_values), (label, name)
        for index, (a, b) in enumerate(zip(candidate_values, reference_values)):
            assert _bit_identical(a, b), (label, name, index, a, b)


class TestDifferentialSuites:
    """Every suite kernel, executed by all three engines, must agree exactly.

    Two launch shapes: global 32 / local 8, and the ``pipeline`` workload's
    global 128 / local 32, where 1-D kernels run four work-groups and 2-D
    kernels 11×11 items in 8×8 groups, three of them partial.
    """

    @pytest.mark.parametrize("suite_benchmark", _suite_benchmarks())
    def test_identical_buffers_and_stats(self, suite_benchmark):
        self._check(suite_benchmark, global_size=32, local_size=8)

    @pytest.mark.parametrize("suite_benchmark", _suite_benchmarks())
    def test_identical_buffers_and_stats_at_128_32(self, suite_benchmark):
        self._check(suite_benchmark, global_size=128, local_size=32)

    @staticmethod
    def _check(suite_benchmark, global_size: int, local_size: int) -> None:
        unit = _compile_unit(suite_benchmark.source)
        kernel = (
            unit.kernel(suite_benchmark.kernel_name)
            if suite_benchmark.kernel_name
            else unit.kernels[0]
        )
        work_dim = HostDriver._kernel_work_dim(kernel)
        generator = PayloadGenerator(
            PayloadConfig(global_size=global_size, local_size=local_size, seed=3)
        )
        payload = generator.generate(kernel, work_dim=work_dim)
        payload_interpreted = payload.clone()
        payload_lockstep = payload.clone()
        payload_specialized = payload.clone()

        compiled = CompiledKernel(unit, kernel.name)
        results_compiled = _execute(compiled, payload)
        legacy = KernelInterpreter(unit, kernel.name)
        results_legacy = _execute(legacy, payload_interpreted)
        _assert_same(results_legacy, results_compiled, "closure-vs-interpreter")

        # Third way: the lockstep tier, exactly as the router would run it —
        # vectorize if possible, fall back to the closure engine on rejection
        # or mid-flight bailout (the pool must be untouched at bailout).
        vectorized = try_vectorize(unit, kernel.name)
        if vectorized is None:
            # Statically outside the lockstep subset: the router would use
            # the closure engine, which is already asserted above.
            return
        try:
            results_lockstep = _execute(vectorized, payload_lockstep)
        except LockstepBailout:
            fallback = CompiledKernel(unit, kernel.name)
            results_lockstep = _execute(fallback, payload_lockstep)
        _assert_same(results_legacy, results_lockstep, "lockstep-vs-interpreter")

        # Fourth way: the analyzer-specialized lockstep tier (hazard
        # tracking skipped on every buffer), for kernels the analyzer
        # proves eligible (SAFE).  Eligible kernels carry the
        # never-bails promise, so a bailout here is a soundness failure,
        # not a fallback.
        from repro.analysis import analyze_kernel
        from repro.execution.vectorizer import NotVectorizable, VectorizedKernel

        facts = analyze_kernel(unit, kernel.name).specialization
        if facts is None or not facts.eligible:
            return
        try:
            specialized = VectorizedKernel(unit, kernel.name, specialization=facts)
        except NotVectorizable:
            return
        results_specialized = _execute(specialized, payload_specialized)
        _assert_same(results_legacy, results_specialized, "specialized-vs-interpreter")


class TestLockstepCoverage:
    """The lockstep tier must actually run most of the suite inventory —
    otherwise a regression could silently fall everything back to closures
    while the differential suite stays green."""

    def test_most_suite_kernels_vectorize_without_bailout(self):
        clean = 0
        total = 0
        for suite in all_suites():
            for benchmark in suite.benchmarks:
                total += 1
                unit = _compile_unit(benchmark.source)
                kernel = (
                    unit.kernel(benchmark.kernel_name)
                    if benchmark.kernel_name
                    else unit.kernels[0]
                )
                vectorized = try_vectorize(unit, kernel.name)
                if vectorized is None:
                    continue
                work_dim = HostDriver._kernel_work_dim(kernel)
                generator = PayloadGenerator(
                    PayloadConfig(global_size=32, local_size=8, seed=3)
                )
                payload = generator.generate(kernel, work_dim=work_dim)
                try:
                    vectorized.execute(payload.pool, payload.scalar_args, payload.ndrange)
                except LockstepBailout:
                    continue
                clean += 1
        # 62 of 71 at the time of writing; the floor leaves headroom for new
        # benchmarks without letting coverage quietly collapse.
        assert clean >= int(0.75 * total), (clean, total)


def _bit_identical(a, b) -> bool:
    from repro.execution import VectorValue

    if isinstance(a, VectorValue) and isinstance(b, VectorValue):
        return a.element_kind == b.element_kind and all(
            _bit_identical(x, y) for x, y in zip(a.values, b.values)
        )
    if isinstance(a, float) and isinstance(b, float):
        return a == b or (a != a and b != b)  # NaN-tolerant exact compare
    return type(a) is type(b) and a == b


class TestCompiledEngineSemantics:
    def _run_both(self, source, buffers, scalars, ndrange, max_steps=50_000):
        """The routed default engine and the interpreter, each on a fresh
        parse; the generic ``engine="vectorized"`` tier runs too and must
        reproduce the routed output exactly."""
        outputs = []
        for engine in ("auto", "vectorized", "interpreter"):
            unit = parse(source)
            pool = MemoryPool()
            for name, (size, values, space) in buffers.items():
                buffer = pool.allocate(name, size, address_space=space)
                if values is not None:
                    buffer.copy_from(values)
            if engine == "interpreter":
                result = KernelInterpreter(unit, max_steps_per_item=max_steps).execute(
                    pool, scalars, ndrange
                )
            else:
                result = run_kernel(
                    unit, pool, scalars, ndrange, max_steps_per_item=max_steps, engine=engine
                )
            outputs.append(
                ({name: b.to_list() for name, b in pool.buffers.items()},
                 dataclasses.asdict(result.stats))
            )
        routed, generic, interpreted = outputs
        assert generic == routed
        return routed, interpreted

    def test_barrier_reduction_matches(self):
        source = (
            "__kernel void R(__global float* in, __global float* out, __local float* tmp,\n"
            "                const int n) {\n"
            "  int lid = get_local_id(0); int gid = get_global_id(0);\n"
            "  tmp[lid] = in[gid];\n"
            "  barrier(CLK_LOCAL_MEM_FENCE);\n"
            "  for (int s = get_local_size(0) / 2; s > 0; s = s / 2) {\n"
            "    if (lid < s) { tmp[lid] += tmp[lid + s]; }\n"
            "    barrier(CLK_LOCAL_MEM_FENCE);\n"
            "  }\n"
            "  if (lid == 0) { out[get_group_id(0)] = tmp[0]; }\n}"
        )
        n, wg = 64, 16
        compiled, interpreted = self._run_both(
            source,
            {"in": (n, [1.0] * n, "global"), "out": (n // wg, None, "global"),
             "tmp": (wg, None, "local")},
            {"n": n},
            NDRange.linear(n, wg),
        )
        assert compiled == interpreted
        assert compiled[0]["out"] == [float(wg)] * (n // wg)
        assert compiled[1]["barriers_hit"] > 0

    def test_timeout_raises_like_interpreter(self):
        source = ("__kernel void L(__global float* a, const int n) {\n"
                  "  while (1) { a[0] = a[0] + 1.0f; }\n}")
        unit = parse(source)
        pool = MemoryPool()
        pool.allocate("a", 4)
        with pytest.raises(KernelTimeoutError):
            CompiledKernel(unit, max_steps_per_item=500).execute(
                pool, {"n": 4}, NDRange.linear(4, 4)
            )

    def test_divergence_and_helper_stats_match(self):
        source = (
            "int helper(int v) { if (v > 4) { return v * 2; } return v; }\n"
            "__kernel void D(__global int* a, const int n) {\n"
            "  int i = get_global_id(0);\n"
            "  if (i % 2 == 0) { a[i] = helper(i); } else { a[i] = i - 1; }\n}"
        )
        compiled, interpreted = self._run_both(
            source, {"a": (16, None, "global")}, {"n": 16}, NDRange.linear(16, 8)
        )
        assert compiled == interpreted
        assert compiled[1]["helper_calls"] == 8
        assert compiled[1]["divergent_branch_sites"] > 0

    def test_switch_and_do_while_match(self):
        source = (
            "__kernel void S(__global int* a, const int n) {\n"
            "  int i = get_global_id(0);\n"
            "  int acc = 0; int j = 0;\n"
            "  do { acc += j; j++; } while (j < i);\n"
            "  switch (i % 3) {\n"
            "    case 0: acc += 100; break;\n"
            "    case 1: acc += 200;\n"
            "    default: acc += 1;\n"
            "  }\n"
            "  a[i] = acc;\n}"
        )
        compiled, interpreted = self._run_both(
            source, {"a": (12, None, "global")}, {"n": 12}, NDRange.linear(12, 4)
        )
        assert compiled == interpreted

    def test_atomics_and_globals_match(self):
        source = (
            "__constant int OFFSET = 3;\n"
            "__kernel void A(__global int* bins, const int n) {\n"
            "  int i = get_global_id(0);\n"
            "  atomic_add(&bins[0], OFFSET);\n"
            "  atomic_max(&bins[1], i);\n}"
        )
        compiled, interpreted = self._run_both(
            source, {"bins": (4, [0, 0, 0, 0], "global")}, {"n": 16}, NDRange.linear(16, 4)
        )
        assert compiled == interpreted
        assert compiled[0]["bins"][0] == 16 * 3


class TestBlockScope:
    """C scoping: a declaration inside a block ends with the block, so the
    outer ``d`` is visible again after it.  No engine scopes names yet —
    each keeps one flat table per work-item, so the inner ``int d = 7``
    overwrites the outer ``d`` and every element reads 7."""

    SOURCE = (
        "__kernel void k(__global float* a) {\n"
        "  int d = get_global_id(0);\n"
        "  { int d = 7; }\n"
        "  a[get_global_id(0)] = d;\n}"
    )

    @pytest.mark.xfail(strict=True, reason="the engines do not scope block declarations")
    @pytest.mark.parametrize("engine", ["interpreter", "compiled", "vectorized", "auto"])
    def test_block_declaration_ends_with_the_block(self, engine):
        pool = MemoryPool()
        pool.allocate("a", 8)
        run_kernel(parse(self.SOURCE), pool, {}, NDRange.linear(8, 8), engine=engine)
        assert pool.get("a").to_list() == [float(i) for i in range(8)]


class TestCompilationCache:
    def test_same_unit_compiles_once(self):
        source = "__kernel void A(__global float* a, const int n) { a[get_global_id(0)] = n; }"
        unit = parse(source)
        first = compiled_kernel_for(unit)
        second = compiled_kernel_for(unit)
        assert first is second

    def test_structurally_identical_units_share_compilation(self):
        cache = CompilationCache(max_entries=8)
        source = "__kernel void A(__global float* a, const int n) { a[get_global_id(0)] = n; }"
        first = cache.get(parse(source))
        second = cache.get(parse(source))
        assert first is second
        assert cache.hits >= 1

    def test_distinct_kernels_do_not_collide(self):
        cache = CompilationCache(max_entries=8)
        a = cache.get(parse("__kernel void A(__global float* a, const int n) { a[0] = 1; }"))
        b = cache.get(parse("__kernel void A(__global float* a, const int n) { a[0] = 2; }"))
        assert a is not b

    def test_max_steps_keys_separate_entries(self):
        unit = parse("__kernel void A(__global float* a, const int n) { a[0] = 1; }")
        fast = compiled_kernel_for(unit, max_steps_per_item=100)
        slow = compiled_kernel_for(unit, max_steps_per_item=50_000)
        assert fast is not slow
        assert fast.max_steps_per_item == 100
