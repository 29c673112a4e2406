"""Unit tests for the vectorized lockstep (SIMT) execution tier.

The three-way differential suite (test_execution_compiler.py) asserts
bit-identity over the benchmark inventory; these tests pin down the tier's
*mechanisms*: engine selection and caching, the constructs it refuses and
the measured kernels' floor on them, bailout purity (the memory pool must
be untouched), cross-lane hazard detection, chunks of whole work-groups
(barrier epochs, order between groups, ``__local`` slices), hazard replay
in smaller chunks and order-independent atomics.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.clc import compile_source, parse
from repro.driver.harness import HostDriver
from repro.driver.payload import PayloadConfig, PayloadGenerator
from repro.errors import LockstepBailout
from repro.execution import (
    VECTORIZER_STATS,
    KernelInterpreter,
    MemoryPool,
    NDRange,
    run_kernel,
    try_vectorize,
    vectorized_kernel_for,
)
from repro.execution.vectorizer import lockstep_rejection
from repro.preprocess.shim import shim_include_resolver, with_shim
from repro.suites.registry import all_suites


def _pool(**buffers):
    """Buffers given as ``(size, values, space)``, optionally with a fourth
    element kind (default ``float``)."""
    pool = MemoryPool()
    for name, (size, values, space, *kind) in buffers.items():
        buffer = pool.allocate(name, size, *kind, address_space=space)
        if values is not None:
            buffer.copy_from(values)
    return pool


def _outputs(pool, result):
    return ({name: b.to_list() for name, b in pool.buffers.items()},
            dataclasses.asdict(result.stats))


def _run_all_engines(source, buffers, scalars, ndrange):
    """Execute on the interpreter, the closure engine, the generic lockstep
    tier and the router; return their outputs."""
    outputs = []
    for engine in ("interpreter", "compiled", "vectorized", "auto"):
        unit = parse(source)
        pool = _pool(**buffers)
        result = run_kernel(unit, pool, dict(scalars), ndrange, engine=engine)
        outputs.append(_outputs(pool, result))
    return outputs


def _lockstep_and_interpreter(source, buffers, scalars, ndrange):
    """Outputs of a fresh lockstep instance, which must not bail out, and
    of the interpreter on equal pools."""
    vectorized = try_vectorize(parse(source))
    assert vectorized is not None
    pool = _pool(**buffers)
    lockstep = _outputs(pool, vectorized.execute(pool, dict(scalars), ndrange))
    pool = _pool(**buffers)
    result = KernelInterpreter(parse(source)).execute(pool, dict(scalars), ndrange)
    return lockstep, _outputs(pool, result)


def _assert_lockstep_bails(source, buffers, scalars, ndrange, match):
    """A fresh lockstep instance bails out and leaves its pool untouched."""
    vectorized = try_vectorize(parse(source))
    assert vectorized is not None
    pool = _pool(**buffers)
    before = {name: b.to_list() for name, b in pool.buffers.items()}
    with pytest.raises(LockstepBailout, match=match):
        vectorized.execute(pool, dict(scalars), ndrange)
    assert {name: b.to_list() for name, b in pool.buffers.items()} == before


def _assert_all_equal(outputs):
    reference = outputs[0]
    for candidate in outputs[1:]:
        assert candidate == reference


def _replays_during(function, *args):
    """``VECTORIZER_STATS.replays`` added while *function* runs, and its
    result."""
    before = VECTORIZER_STATS.replays
    result = function(*args)
    return VECTORIZER_STATS.replays - before, result


def _spy_caps(vectorized):
    """Record the chunk cap of every ``_execute`` call on *vectorized*."""
    caps = []
    execute = vectorized._execute

    def spy(pool, scalar_args, ndrange, cap=None):
        caps.append(cap)
        return execute(pool, scalar_args, ndrange, cap)

    vectorized._execute = spy
    return caps


def _shimmed_unit(source):
    return compile_source(
        with_shim(source), include_resolver=shim_include_resolver, strict=False,
    ).unit


def _suite_unit(benchmark):
    """The benchmark's translation unit and kernel declaration."""
    unit = _shimmed_unit(benchmark.source)
    kernel = unit.kernel(benchmark.kernel_name) if benchmark.kernel_name else unit.kernels[0]
    return unit, kernel


def _suite_lockstep(benchmark):
    """The benchmark's kernel declaration and a fresh generic lockstep
    instance of it (``None`` when not vectorizable)."""
    unit, kernel = _suite_unit(benchmark)
    return kernel, try_vectorize(unit, kernel.name)


def _suite_payload(kernel, global_size):
    return PayloadGenerator(
        PayloadConfig(global_size=global_size, local_size=32, seed=0)
    ).generate(kernel, work_dim=HostDriver._kernel_work_dim(kernel))


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
            "    if (k % 3 == 0) { acc += 2; } else if (k > 12) { break; }\n"
            "    acc += k;\n"
            "  }\n"
            "  if (acc > 40) { acc -= 7; }\n"
            "  a[i] = acc;\n}"
        )
        buffers, scalars, ndrange = {"a": (24, None, "global")}, {"n": 24}, NDRange.linear(24, 8)
        lockstep, reference = _lockstep_and_interpreter(source, buffers, scalars, ndrange)
        assert lockstep == reference
        _assert_all_equal(_run_all_engines(source, buffers, scalars, ndrange))


#: One small kernel per construct the lockstep tier refuses, with the
#: refusal's message.  Each writes ``a[gid]`` for a 32/16 launch.
_REFUSED_CONSTRUCTS = {
    "while": (
        "__kernel void W(__global int* a) {\n"
        "  int i = get_global_id(0); int acc = i * 5;\n"
        "  while (acc > 40) { acc -= 7; }\n"
        "  a[i] = acc;\n}",
        "statement WhileStmt",
    ),
    "do": (
        "__kernel void D(__global int* a) {\n"
        "  int i = get_global_id(0); int acc = 0; int k = 0;\n"
        "  do { acc += k; k++; } while (k < i % 5);\n"
        "  a[i] = acc;\n}",
        "statement DoWhileStmt",
    ),
    "switch": (
        "__kernel void S(__global int* a) {\n"
        "  int i = get_global_id(0);\n"
        "  switch (i % 3) { case 0: a[i] = 7; break; case 1: a[i] = i + 1;\n"
        "                   default: a[i] = a[i] - 1; }\n}",
        "statement SwitchStmt",
    ),
    "continue": (
        "__kernel void C(__global int* a) {\n"
        "  int i = get_global_id(0); int acc = 0;\n"
        "  for (int k = 0; k < i; k++) { if (k % 3 == 0) { continue; } acc += k; }\n"
        "  a[i] = acc;\n}",
        "statement ContinueStmt",
    ),
    "user-call": (
        "int pick(int v) { if (v % 3 == 0) { return 7; } return v + 1; }\n"
        "__kernel void U(__global int* a) {\n"
        "  int i = get_global_id(0);\n"
        "  a[i] = pick(i) + pick(i + 1);\n}",
        "call to a user function",
    ),
    "private-array": (
        "__kernel void P(__global int* a) {\n"
        "  int i = get_global_id(0); int tmp[4];\n"
        "  for (int k = 0; k < 4; k++) { tmp[k] = i * k; }\n"
        "  a[i] = tmp[0] + tmp[1] + tmp[2] + tmp[3];\n}",
        "private array",
    ),
    "local-array": (
        "__kernel void L(__global int* a) {\n"
        "  __local int stage[16];\n"
        "  int lid = get_local_id(0);\n"
        "  stage[lid] = lid * 2;\n"
        "  barrier(CLK_LOCAL_MEM_FENCE);\n"
        "  a[get_global_id(0)] = stage[(lid + 1) % 16];\n}",
        "__local array declaration",
    ),
    "program-scope-variable": (
        "int seen = 3;\n"
        "__kernel void G(__global int* a) {\n"
        "  int i = get_global_id(0);\n"
        "  seen = seen + i;\n"
        "  a[i] = seen;\n}",
        "program-scope variable",
    ),
}


class TestRefusedConstructs:
    """The lockstep tier implements only the constructs the measured
    kernels use; a kernel with any other runs on the closure engine."""

    @pytest.mark.parametrize("construct", sorted(_REFUSED_CONSTRUCTS))
    def test_refused_construct_runs_on_closure(self, construct):
        source, message = _REFUSED_CONSTRUCTS[construct]
        unit = parse(source)
        assert lockstep_rejection(unit, None) == message
        assert vectorized_kernel_for(unit) is None
        outputs = _run_all_engines(
            source, {"a": (32, None, "global", "int")}, {}, NDRange.linear(32, 16)
        )
        _assert_all_equal(outputs)

    def test_measured_suite_kernels_stay_in_the_subset(self):
        # Traffic floor: the measured kernels use none of the constructs
        # above, so refusing them moves no measured work to the closure
        # engine.  A workload that brings one in fails here, not unseen.
        refusals = {}
        for suite in all_suites():
            for benchmark in suite.benchmarks:
                unit, kernel = _suite_unit(benchmark)
                refusals[benchmark.qualified_name] = lockstep_rejection(unit, kernel.name)
        unexpected = {
            name: reason for name, reason in refusals.items()
            if reason not in (None, "vector-element pointer parameter")
        }
        assert unexpected == {}
        assert len(refusals) == 71

    def test_synthesized_kernels_stay_in_the_subset(self, clgen):
        allowed = (None, "vector-element pointer parameter", "vector-typed declaration")
        sources = clgen.generate_kernels(200, seed=0).sources
        unexpected = {}
        for source in sources:
            reason = lockstep_rejection(_shimmed_unit(source), None)
            if reason not in allowed:
                unexpected[source] = reason
        assert unexpected == {}
        assert len(sources) > 100


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


class TestGroupChunks:
    """Kernels with barriers or ``__local`` memory run as chunks of whole
    work-groups, each chunk one lockstep pass."""

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

    def test_cross_group_global_read_after_barrier_replays_one_group_per_chunk(self):
        # Group g reads the cell group g + 1 writes before the barrier.
        # Sequentially group g runs first and sees the old value; a
        # multi-group pass would see the new one, so the chunk-wide
        # trackers raise a hazard in chunks of four and then two groups,
        # and the launch completes one group per chunk.
        source = (
            "__kernel void G(__global int* a, __global int* b, __local int* tmp) {\n"
            "  int lid = get_local_id(0); int grp = get_group_id(0);\n"
            "  tmp[lid] = lid;\n"
            "  if (lid == 0) { a[grp] = grp + 1; }\n"
            "  barrier(CLK_LOCAL_MEM_FENCE);\n"
            "  if (lid == 0) { b[grp] = a[(grp + 1) % get_num_groups(0)] + tmp[1]; }\n}"
        )
        buffers = {"a": (4, [0] * 4, "global", "int"), "b": (4, None, "global", "int"),
                   "tmp": (8, None, "local", "int")}
        replays, (lockstep, reference) = _replays_during(
            _lockstep_and_interpreter, source, buffers, {}, NDRange.linear(32, 8)
        )
        assert lockstep == reference
        assert replays == 1
        outputs = _run_all_engines(source, buffers, {}, NDRange.linear(32, 8))
        _assert_all_equal(outputs)
        assert outputs[0][0]["b"] == [1, 1, 1, 2]

    def test_cross_group_read_of_an_atomic_counter_after_barrier_replays(self):
        # Sequentially group g reads the counter after g + 1 increments; a
        # multi-group pass has applied all four before any group reads, so
        # only one group per chunk completes.
        source = (
            "__kernel void H(__global int* count, __global int* out, __local int* tmp) {\n"
            "  int lid = get_local_id(0);\n"
            "  tmp[lid] = lid;\n"
            "  if (lid == 0) { atomic_add(&count[0], 1); }\n"
            "  barrier(CLK_GLOBAL_MEM_FENCE);\n"
            "  if (lid == 0) { out[get_group_id(0)] = count[0] + tmp[1]; }\n}"
        )
        buffers = {"count": (1, [0], "global", "int"), "out": (4, None, "global", "int"),
                   "tmp": (8, None, "local", "int")}
        replays, (lockstep, reference) = _replays_during(
            _lockstep_and_interpreter, source, buffers, {}, NDRange.linear(32, 8)
        )
        assert lockstep == reference
        assert replays == 1
        outputs = _run_all_engines(source, buffers, {}, NDRange.linear(32, 8))
        _assert_all_equal(outputs)
        assert outputs[0][0]["out"] == [2, 3, 4, 5]

    def test_local_read_of_a_cell_the_group_has_not_written_replays(self):
        # Every group first reads __local cells it has not written; group 0
        # writes them only after the barrier, so sequentially groups 1-3
        # read group 0's values, which their slices do not hold.  One group
        # per chunk reads the buffer itself, with no slices.
        source = (
            "__kernel void C(__global int* out, __local int* tmp) {\n"
            "  int lid = get_local_id(0); int gid = get_global_id(0);\n"
            "  out[gid] = tmp[lid];\n"
            "  barrier(CLK_LOCAL_MEM_FENCE);\n"
            "  if (get_group_id(0) == 0) { tmp[lid] = gid + 100; }\n}"
        )
        buffers = {"out": (32, None, "global", "int"),
                   "tmp": (8, list(range(8)), "local", "int")}
        replays, (lockstep, reference) = _replays_during(
            _lockstep_and_interpreter, source, buffers, {}, NDRange.linear(32, 8)
        )
        assert lockstep == reference
        assert replays == 1
        outputs = _run_all_engines(source, buffers, {}, NDRange.linear(32, 8))
        _assert_all_equal(outputs)
        assert outputs[0][0]["out"] == list(range(8)) + list(range(100, 108)) * 3

    def test_groups_returning_before_a_barrier_count_no_barrier(self):
        source = (
            "__kernel void R(__global float* in, __global float* out, __local float* tmp) {\n"
            "  int lid = get_local_id(0); int gid = get_global_id(0);\n"
            "  if (get_group_id(0) % 2 == 1) { return; }\n"
            "  tmp[lid] = in[gid];\n"
            "  barrier(CLK_LOCAL_MEM_FENCE);\n"
            "  out[gid] = tmp[(lid + 1) % get_local_size(0)];\n}"
        )
        buffers = {"in": (32, [float(i) for i in range(32)], "global"),
                   "out": (32, None, "global"), "tmp": (8, None, "local")}
        lockstep, reference = _lockstep_and_interpreter(
            source, buffers, {}, NDRange.linear(32, 8)
        )
        assert lockstep == reference
        assert reference[1]["barriers_hit"] == 2
        _assert_all_equal(_run_all_engines(source, buffers, {}, NDRange.linear(32, 8)))

    def test_suite_group_kernels_complete_in_lockstep(self):
        # Coverage floor: at the pipeline (128/32) and measure-wide
        # (2048/32) launch shapes every suite group kernel completes in
        # lockstep without a replay, so a change cannot quietly send them
        # to the closure engine or to one-group chunks.
        group_kernels = 0
        for suite in all_suites():
            for benchmark in suite.benchmarks:
                kernel, vectorized = _suite_lockstep(benchmark)
                if vectorized is None or not vectorized._needs_groups:
                    continue
                group_kernels += 1
                for global_size in (128, 2048):
                    payload = _suite_payload(kernel, global_size)
                    where = f"{benchmark.qualified_name} at {global_size}/32"
                    replays = VECTORIZER_STATS.replays
                    try:
                        vectorized.execute(payload.pool, payload.scalar_args, payload.ndrange)
                    except LockstepBailout as bailout:
                        pytest.fail(f"{where}: {bailout}")
                    assert VECTORIZER_STATS.replays == replays, f"{where} needed a replay"
        assert group_kernels == 20


class TestReplay:
    """A memory hazard reruns the launch with at most half as many
    work-groups per chunk, down to one group; any other bailout falls back
    to the closure engine at once."""

    def test_flat_kernel_hazard_between_groups_replays_and_completes(self):
        # Item gid + 16 reads the cell item gid wrote: a hazard between the
        # groups of a 64/16 launch, which completes one group per chunk.
        source = (
            "__kernel void F(__global float* c) {\n"
            "  int gid = get_global_id(0);\n"
            "  c[gid % 16] = c[gid % 16] + 1.0f;\n}"
        )
        buffers = {"c": (16, None, "global")}
        replays, (lockstep, reference) = _replays_during(
            _lockstep_and_interpreter, source, buffers, {}, NDRange.linear(64, 16)
        )
        assert lockstep == reference
        assert replays == 1
        assert reference[0]["c"] == [4.0] * 16
        _assert_all_equal(_run_all_engines(source, buffers, {}, NDRange.linear(64, 16)))

    def test_neighbour_chain_inside_a_group_still_falls_back(self):
        # The Rodinia nw shape: every item reads its left neighbour's cell,
        # a hazard inside one group that no split removes.
        source = (
            "__kernel void N(__global int* score) {\n"
            "  int tid = get_local_id(0);\n"
            "  int base = get_group_id(0) * get_local_size(0);\n"
            "  if (tid > 0) { score[base + tid] = score[base + tid - 1] + 1; }\n}"
        )
        buffers = {"score": (64, [0] * 64, "global", "int")}
        bailouts, replays = VECTORIZER_STATS.bailouts, VECTORIZER_STATS.replays
        _assert_lockstep_bails(source, buffers, {}, NDRange.linear(64, 16), "hazard")
        assert VECTORIZER_STATS.bailouts == bailouts + 1
        assert VECTORIZER_STATS.replays == replays
        outputs = _run_all_engines(source, buffers, {}, NDRange.linear(64, 16))
        _assert_all_equal(outputs)
        assert outputs[0][0]["score"] == list(range(16)) * 4

    def test_bailout_that_is_not_a_hazard_runs_the_launch_once(self):
        source = (
            "__kernel void O(__global long* a) {\n"
            "  int i = get_global_id(0);\n"
            "  long v = LONG_MAX;\n"
            "  a[i] = v + i;\n}"
        )
        vectorized = try_vectorize(parse(source))
        caps = _spy_caps(vectorized)
        with pytest.raises(LockstepBailout, match="int64"):
            vectorized.execute(_pool(a=(64, None, "global", "long")), {}, NDRange.linear(64, 16))
        assert caps == [None]
        assert vectorized._disabled

    def test_every_launch_starts_with_no_cap(self):
        source = (
            "__kernel void F(__global float* c) {\n"
            "  int gid = get_global_id(0);\n"
            "  c[gid % 16] = c[gid % 16] + 1.0f;\n}"
        )
        vectorized = try_vectorize(parse(source))
        caps = _spy_caps(vectorized)
        replays = VECTORIZER_STATS.replays
        for _ in range(2):
            vectorized.execute(_pool(c=(16, None, "global")), {}, NDRange.linear(64, 16))
        assert caps == [None, 2, 1] * 2
        assert not vectorized._disabled
        assert VECTORIZER_STATS.replays == replays + 2

    @pytest.mark.parametrize("name", ["PolyBench.gemm", "PolyBench.syr2k", "Parboil.sgemm"])
    def test_gemm_family_completes_in_lockstep_at_measure_wide_shape(self, name):
        # Coverage floor: at 2048/32 the GEMM family's `C[(i * 32 + j) % n]`
        # makes items of different groups share a cell; replay keeps these
        # launches off the closure engine.
        benchmark = next(
            benchmark for suite in all_suites() for benchmark in suite.benchmarks
            if benchmark.qualified_name == name
        )
        kernel, vectorized = _suite_lockstep(benchmark)
        payload = _suite_payload(kernel, 2048)
        try:
            vectorized.execute(payload.pool, payload.scalar_args, payload.ndrange)
        except LockstepBailout as bailout:
            pytest.fail(f"{name} at 2048/32: {bailout}")


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

    def test_atomic_then_plain_read_of_the_cell_falls_back(self):
        # Sequentially item i reads the counter after i + 1 increments; a
        # lockstep read would see all eight.
        source = (
            "__kernel void A(__global int* a, __global int* out) {\n"
            "  int gid = get_global_id(0);\n"
            "  atomic_add(&a[0], 1);\n"
            "  out[gid] = a[0];\n}"
        )
        outputs = _run_all_engines(
            source, {"a": (1, [0], "global", "int"), "out": (8, None, "global", "int")},
            {}, NDRange.linear(8, 4),
        )
        _assert_all_equal(outputs)
        assert outputs[0][0]["out"] == list(range(1, 9))

    def test_xchg_then_add_on_one_cell_falls_back(self):
        # Item by item each xchg resets the cell before its own add.
        source = (
            "__kernel void X(__global int* a) {\n"
            "  int gid = get_global_id(0);\n"
            "  atomic_xchg(&a[0], gid);\n"
            "  atomic_add(&a[0], 1);\n}"
        )
        outputs = _run_all_engines(
            source, {"a": (1, [0], "global", "int")}, {}, NDRange.linear(64, 64)
        )
        _assert_all_equal(outputs)
        assert outputs[0][0]["a"] == [64]

    def test_repeated_float_atomic_add_falls_back(self):
        # Float addition does not reassociate: the scalar engines add each
        # item's three operands before the next item's.
        source = (
            "__kernel void F(__global float* a) {\n"
            "  int gid = get_global_id(0);\n"
            "  for (int k = 0; k < 3; k++) {\n"
            "    atomic_add(&a[0], 0.1f * (gid + 1) + 1.0e7f * k);\n"
            "  }\n}"
        )
        outputs = _run_all_engines(
            source, {"a": (1, [0.0], "global")}, {}, NDRange.linear(64, 64)
        )
        _assert_all_equal(outputs)

    def test_repeated_integer_atomics_of_one_family_stay_in_lockstep(self):
        source = (
            "__kernel void I(__global int* bins) {\n"
            "  int gid = get_global_id(0);\n"
            "  for (int k = 0; k < 3; k++) { atomic_add(&bins[gid % 4], k + 1); }\n"
            "  atomic_sub(&bins[gid % 4], 1);\n}"
        )
        buffers = {"bins": (4, [0] * 4, "global", "int")}
        lockstep, reference = _lockstep_and_interpreter(
            source, buffers, {}, NDRange.linear(32, 8)
        )
        assert lockstep == reference
        assert reference[0]["bins"] == [40] * 4
