"""Unit tests for the vectorized lockstep (SIMT) execution tier.

The three-way differential suite (test_execution_compiler.py) asserts
bit-identity over the benchmark inventory; these tests pin down the tier's
*mechanisms*: engine selection and caching, bailout purity (the memory pool
must be untouched), cross-lane hazard detection, barrier epochs in
group-sequential mode and order-independent atomics.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.clc import parse
from repro.errors import LockstepBailout
from repro.execution import (
    GLOBAL_COMPILATION_CACHE,
    CompiledKernel,
    KernelInterpreter,
    MemoryPool,
    NDRange,
    run_kernel,
    try_vectorize,
    vectorized_kernel_for,
)


def _pool(**buffers):
    pool = MemoryPool()
    for name, (size, values, space) in buffers.items():
        buffer = pool.allocate(name, size, address_space=space)
        if values is not None:
            buffer.copy_from(values)
    return pool


def _run_all_engines(source, buffers, scalars, ndrange):
    """Execute on interpreter, closure and lockstep tiers; return outputs."""
    outputs = []
    for engine in ("interpreter", "compiled", "vectorized"):
        unit = parse(source)
        pool = _pool(**buffers)
        result = run_kernel(unit, pool, dict(scalars), ndrange, engine=engine)
        outputs.append(
            ({name: b.to_list() for name, b in pool.buffers.items()},
             dataclasses.asdict(result.stats))
        )
    return outputs


def _assert_all_equal(outputs):
    reference = outputs[0]
    for candidate in outputs[1:]:
        assert candidate == reference


class TestEngineSelection:
    def test_vectorizable_kernel_produces_artifact(self):
        unit = parse("__kernel void A(__global float* a, const int n) { a[get_global_id(0)] = n; }")
        artifact = vectorized_kernel_for(unit)
        assert artifact is not None
        assert vectorized_kernel_for(unit) is artifact  # cached

    def test_rejection_is_cached_as_none(self):
        source = (
            "__kernel void V(__global float4* a, const int n) { }"
        )
        unit = parse(source)
        assert vectorized_kernel_for(unit) is None
        assert vectorized_kernel_for(unit) is None

    def test_router_runs_vectorized_and_matches_scalars(self):
        source = (
            "__kernel void A(__global float* a, __global float* b, const int n) {\n"
            "  int i = get_global_id(0);\n"
            "  if (i < n) { b[i] = a[i] * 2.0f + 1.0f; }\n}"
        )
        outputs = _run_all_engines(
            source,
            {"a": (16, [float(i) for i in range(16)], "global"), "b": (16, None, "global")},
            {"n": 16},
            NDRange.linear(16, 8),
        )
        _assert_all_equal(outputs)

    def test_divergent_control_flow_matches(self):
        source = (
            "__kernel void D(__global int* a, const int n) {\n"
            "  int i = get_global_id(0);\n"
            "  int acc = 0;\n"
            "  for (int k = 0; k < i; k++) {\n"
            "    if (k % 3 == 0) { continue; }\n"
            "    if (k > 12) { break; }\n"
            "    acc += k;\n"
            "  }\n"
            "  while (acc > 40) { acc -= 7; }\n"
            "  a[i] = acc;\n}"
        )
        outputs = _run_all_engines(
            source, {"a": (24, None, "global")}, {"n": 24}, NDRange.linear(24, 8)
        )
        _assert_all_equal(outputs)

    def test_helpers_switch_and_private_arrays_match(self):
        source = (
            "int pick(int v) { switch (v % 3) { case 0: return 7; case 1: return v + 1;\n"
            "                  default: return v - 1; } }\n"
            "__kernel void S(__global int* a, const int n) {\n"
            "  int i = get_global_id(0);\n"
            "  int tmp[4];\n"
            "  for (int k = 0; k < 4; k++) { tmp[k] = pick(i + k); }\n"
            "  a[i] = tmp[0] + tmp[1] + tmp[2] + tmp[3];\n}"
        )
        outputs = _run_all_engines(
            source, {"a": (12, None, "global")}, {"n": 12}, NDRange.linear(12, 4)
        )
        _assert_all_equal(outputs)


class TestBailouts:
    def test_cross_lane_hazard_bails_and_pool_is_untouched(self):
        # Each item reads its left neighbour's cell, which the neighbour
        # wrote earlier in sequential order — unreproducible in lockstep.
        source = (
            "__kernel void C(__global int* a, const int n) {\n"
            "  int i = get_global_id(0);\n"
            "  a[i] = a[(i + n - 1) % n] + 1;\n}"
        )
        unit = parse(source)
        vectorized = try_vectorize(unit)
        assert vectorized is not None
        pool = _pool(a=(8, list(range(8)), "global"))
        before = pool.buffers["a"].to_list()
        with pytest.raises(LockstepBailout):
            vectorized.execute(pool, {"n": 8}, NDRange.linear(8, 8))
        assert pool.buffers["a"].to_list() == before
        assert pool.buffers["a"].stats.reads == 0

        # The router falls back transparently and matches the scalars.
        outputs = _run_all_engines(
            source, {"a": (8, list(range(8)), "global")}, {"n": 8}, NDRange.linear(8, 8)
        )
        _assert_all_equal(outputs)

    def test_bailout_disables_future_lockstep_attempts(self):
        source = (
            "__kernel void C(__global int* a, const int n) {\n"
            "  int i = get_global_id(0);\n"
            "  a[i] = a[(i + 1) % n] + 1;\n}"
        )
        unit = parse(source)
        vectorized = try_vectorize(unit)
        pool = _pool(a=(8, list(range(8)), "global"))
        with pytest.raises(LockstepBailout):
            vectorized.execute(pool, {"n": 8}, NDRange.linear(8, 8))
        with pytest.raises(LockstepBailout, match="disabled"):
            vectorized.execute(pool, {"n": 8}, NDRange.linear(8, 8))

    def test_int64_overflow_bails_not_wraps(self):
        source = (
            "__kernel void O(__global long* a, const int n) {\n"
            "  int i = get_global_id(0);\n"
            "  long v = LONG_MAX;\n"
            "  a[i] = v + i;\n}"
        )
        unit = parse(source)
        vectorized = try_vectorize(unit)
        assert vectorized is not None
        pool = _pool(a=(4, None, "global"))
        with pytest.raises(LockstepBailout):
            vectorized.execute(pool, {"n": 4}, NDRange.linear(4, 4))
        # And the router's answer equals the interpreter's exact bignums.
        outputs = _run_all_engines(
            source, {"a": (4, None, "global")}, {"n": 4}, NDRange.linear(4, 4)
        )
        _assert_all_equal(outputs)


class TestGroupSequentialMode:
    def test_barrier_reduction_matches_scalars(self):
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
        outputs = _run_all_engines(
            source,
            {"in": (n, [1.0] * n, "global"), "out": (n // wg, None, "global"),
             "tmp": (wg, None, "local")},
            {"n": n},
            NDRange.linear(n, wg),
        )
        _assert_all_equal(outputs)
        buffers, stats = outputs[-1]
        assert buffers["out"] == [float(wg)] * (n // wg)
        assert stats["barriers_hit"] > 0

    def test_local_declaration_matches_scalars(self):
        source = (
            "__kernel void L(__global float* out, const int n) {\n"
            "  __local float stage[16];\n"
            "  int lid = get_local_id(0);\n"
            "  stage[lid] = (float)(lid * 2);\n"
            "  barrier(CLK_LOCAL_MEM_FENCE);\n"
            "  out[get_global_id(0)] = stage[(lid + 1) % 16];\n}"
        )
        outputs = _run_all_engines(
            source, {"out": (32, None, "global")}, {"n": 32}, NDRange.linear(32, 16)
        )
        _assert_all_equal(outputs)


class TestAtomics:
    def test_histogram_atomics_match_scalars(self):
        source = (
            "__kernel void H(__global const int* data, __global int* bins, const int n) {\n"
            "  int i = get_global_id(0);\n"
            "  if (i < n) { atomic_add(&bins[data[i] % 8], 1); }\n}"
        )
        outputs = _run_all_engines(
            source,
            {"data": (32, [i * 3 for i in range(32)], "global"), "bins": (8, [0] * 8, "global")},
            {"n": 32},
            NDRange.linear(32, 8),
        )
        _assert_all_equal(outputs)
        assert sum(outputs[-1][0]["bins"]) == 32

    def test_float_atomic_add_is_rounding_exact(self):
        source = (
            "__kernel void F(__global float* acc, __global const float* v, const int n) {\n"
            "  int i = get_global_id(0);\n"
            "  atomic_add(&acc[0], v[i]);\n}"
        )
        values = [0.1 * (i + 1) for i in range(16)]
        outputs = _run_all_engines(
            source,
            {"acc": (1, [0.0], "global"), "v": (16, values, "global")},
            {"n": 16},
            NDRange.linear(16, 16),
        )
        _assert_all_equal(outputs)

    def test_atomic_with_used_result_falls_back(self):
        source = (
            "__kernel void U(__global int* a, __global int* old, const int n) {\n"
            "  int i = get_global_id(0);\n"
            "  old[i] = atomic_add(&a[0], 1);\n}"
        )
        unit = parse(source)
        assert try_vectorize(unit) is None
        outputs = _run_all_engines(
            source,
            {"a": (1, [0], "global"), "old": (8, None, "global")},
            {"n": 8},
            NDRange.linear(8, 8),
        )
        _assert_all_equal(outputs)
