"""Tests for the simulated OpenCL runtime: values, memory, NDRange, interpreter, devices."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.clc import parse
from repro.errors import ExecutionError, KernelTimeoutError
from repro.execution import (
    Buffer,
    KernelProfile,
    MemoryPool,
    NDRange,
    VectorValue,
    amd_platform,
    amd_tahiti_7970,
    intel_core_i7_3820,
    nvidia_gtx_970,
    nvidia_platform,
    run_kernel,
    values_equal,
)


class TestVectorValue:
    def test_component_access_xyzw_and_sN(self):
        v = VectorValue("float", [1.0, 2.0, 3.0, 4.0])
        assert v.get_member("x") == 1.0
        assert v.get_member("s3") == 4.0
        assert v.get_member("lo").values == [1.0, 2.0]
        assert v.get_member("odd").values == [2.0, 4.0]

    def test_with_member_replaces_components(self):
        v = VectorValue("float", [0.0] * 4).with_member("y", 5.0)
        assert v.values == [0.0, 5.0, 0.0, 0.0]

    def test_broadcast_arithmetic(self):
        v = VectorValue("float", [1.0, 2.0, 3.0, 4.0])
        assert (v * 2).values == [2.0, 4.0, 6.0, 8.0]
        assert (1 + v).values == [2.0, 3.0, 4.0, 5.0]

    def test_elementwise_arithmetic(self):
        a = VectorValue("int", [1, 2, 3, 4])
        b = VectorValue("int", [4, 3, 2, 1])
        assert (a + b).values == [5, 5, 5, 5]

    def test_division_by_zero_does_not_raise(self):
        v = VectorValue("float", [1.0, -1.0])
        result = v / 0
        assert result.values[0] == float("inf")

    def test_invalid_selector_raises(self):
        with pytest.raises(ValueError):
            VectorValue("float", [1.0, 2.0]).get_member("q")

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False, width=32),
                    min_size=2, max_size=8))
    def test_values_equal_is_reflexive(self, values):
        v = VectorValue("float", list(values))
        assert values_equal(v, VectorValue("float", list(values)))


class TestBuffer:
    def test_load_store_round_trip(self):
        buffer = Buffer("b", 8, "float")
        buffer.store(3, 2.5)
        assert buffer.load(3) == 2.5
        assert buffer.stats.reads == 1 and buffer.stats.writes == 1

    def test_out_of_bounds_is_clamped_and_counted(self):
        buffer = Buffer("b", 4, "int")
        buffer.store(99, 7)
        assert buffer.load(99) == 7
        assert buffer.stats.out_of_bounds == 2

    def test_strict_mode_raises(self):
        from repro.errors import KernelRuntimeError

        buffer = Buffer("b", 4, "int", strict=True)
        with pytest.raises(KernelRuntimeError):
            buffer.load(10)

    def test_clone_is_independent(self):
        buffer = Buffer("b", 4, "float")
        buffer.copy_from([1.0, 2.0, 3.0, 4.0])
        clone = buffer.clone()
        clone.store(0, 9.0)
        assert buffer.load(0) == 1.0

    def test_equals_with_epsilon(self):
        a = Buffer("a", 2, "float")
        b = Buffer("b", 2, "float")
        a.copy_from([1.0, 2.0])
        b.copy_from([1.0 + 1e-7, 2.0])
        assert a.equals(b)

    def test_integer_coercion(self):
        buffer = Buffer("b", 2, "int")
        buffer.store(0, 3.9)
        assert buffer.load(0) == 3

    def test_size_in_bytes(self):
        assert Buffer("b", 10, "float").size_in_bytes == 40
        assert Buffer("b", 10, "double").size_in_bytes == 80
        assert Buffer("b", 10, "float", vector_width=4).size_in_bytes == 160


class TestNDRange:
    def test_linear_properties(self):
        ndrange = NDRange.linear(128, 32)
        assert ndrange.total_work_items == 128
        assert ndrange.work_group_size == 32
        assert ndrange.total_groups == 4

    def test_default_local_size(self):
        assert NDRange.linear(16).work_group_size == 16
        assert NDRange.linear(1000).work_group_size == 64

    def test_two_dimensional_ids(self):
        ndrange = NDRange((4, 4), (2, 2))
        groups = list(ndrange.group_ids())
        assert len(groups) == 4
        assert ndrange.global_id((1, 1), (1, 1)) == (3, 3)

    def test_invalid_configuration_raises(self):
        with pytest.raises(ExecutionError):
            NDRange((0,))
        with pytest.raises(ExecutionError):
            NDRange((8,), (8, 8))

    @given(st.integers(min_value=1, max_value=512), st.integers(min_value=1, max_value=64))
    def test_group_iteration_covers_global_range(self, global_size, local_size):
        ndrange = NDRange.linear(global_size, local_size)
        covered = set()
        for group in ndrange.group_ids():
            for local in ndrange.local_ids():
                gid = ndrange.global_id(group, local)
                if ndrange.in_range(gid):
                    covered.add(gid[0])
        assert covered == set(range(global_size))


class TestInterpreter:
    def _run(self, source, kernel, buffers, scalars, ndrange):
        unit = parse(source)
        pool = MemoryPool()
        for name, (size, values, space) in buffers.items():
            buffer = pool.allocate(name, size, address_space=space)
            if values is not None:
                buffer.copy_from(values)
        return pool, run_kernel(unit, pool, scalars, ndrange, kernel_name=kernel)

    def test_vecadd_computes_expected_values(self, vecadd_source):
        n = 32
        pool, result = self._run(
            vecadd_source,
            "A",
            {"a": (n, [float(i) for i in range(n)], "global"),
             "b": (n, [2.0 * i for i in range(n)], "global"),
             "c": (n, None, "global")},
            {"d": n},
            NDRange.linear(n, 8),
        )
        assert pool.get("c").to_list() == [3.0 * i for i in range(n)]
        assert result.stats.work_items == n

    def test_local_memory_reduction(self, reduction_source):
        n, wg = 64, 16
        pool, result = self._run(
            reduction_source,
            "reduce",
            {"in": (n, [1.0] * n, "global"),
             "out": (n // wg, None, "global"),
             "tmp": (wg, None, "local")},
            {"n": n},
            NDRange.linear(n, wg),
        )
        assert pool.get("out").to_list() == [float(wg)] * (n // wg)
        assert result.stats.barriers_hit > 0
        assert result.stats.local_accesses > 0

    def test_branch_divergence_detected(self):
        source = ("__kernel void D(__global float* a, const int n) {\n"
                  "  int i = get_global_id(0);\n"
                  "  if (i % 2 == 0) { a[i] = 1.0f; } else { a[i] = 2.0f; }\n}")
        pool, result = self._run(source, "D", {"a": (16, None, "global")}, {"n": 16},
                                 NDRange.linear(16, 8))
        assert result.stats.divergence_fraction > 0.0

    def test_uniform_branch_is_not_divergent(self, vecadd_source):
        pool, result = self._run(
            vecadd_source, "A",
            {"a": (16, [1.0] * 16, "global"), "b": (16, [1.0] * 16, "global"),
             "c": (16, None, "global")},
            {"d": 16}, NDRange.linear(16, 8))
        assert result.stats.divergence_fraction == 0.0

    def test_atomic_add_accumulates(self):
        source = ("__kernel void H(__global int* bins, const int n) {\n"
                  "  atomic_add(&bins[0], 1);\n}")
        pool, _ = self._run(source, "H", {"bins": (4, [0, 0, 0, 0], "global")}, {"n": 16},
                            NDRange.linear(16, 4))
        assert pool.get("bins").load(0) == 16

    def test_vector_kernel(self):
        source = ("__kernel void V(__global float4* a, __global float4* b, const int n) {\n"
                  "  int i = get_global_id(0);\n"
                  "  float4 v = a[i];\n"
                  "  b[i] = v * 2.0f + (float4)(1.0f);\n}")
        unit = parse(source)
        pool = MemoryPool()
        a = pool.allocate("a", 4, vector_width=4)
        pool.allocate("b", 4, vector_width=4)
        a.copy_from([VectorValue("float", [1.0, 2.0, 3.0, 4.0])] * 4)
        run_kernel(unit, pool, {"n": 4}, NDRange.linear(4, 4))
        assert pool.get("b").load(0).values == [3.0, 5.0, 7.0, 9.0]

    def test_helper_function_call(self):
        source = ("float square(float x) { return x * x; }\n"
                  "__kernel void S(__global float* a, const int n) {\n"
                  "  int i = get_global_id(0);\n  a[i] = square(a[i]);\n}")
        pool, result = self._run(source, "S", {"a": (8, [2.0] * 8, "global")}, {"n": 8},
                                 NDRange.linear(8, 8))
        assert pool.get("a").to_list() == [4.0] * 8
        assert result.stats.helper_calls == 8

    def test_infinite_loop_hits_timeout(self):
        source = ("__kernel void L(__global float* a, const int n) {\n"
                  "  while (1) { a[0] = a[0] + 1.0f; }\n}")
        unit = parse(source)
        pool = MemoryPool()
        pool.allocate("a", 4)
        with pytest.raises(KernelTimeoutError):
            run_kernel(unit, pool, {"n": 4}, NDRange.linear(4, 4), max_steps_per_item=500)

    def test_missing_buffer_raises(self, vecadd_source):
        unit = parse(vecadd_source)
        with pytest.raises(ExecutionError):
            run_kernel(unit, MemoryPool(), {"d": 4}, NDRange.linear(4))


class TestDeviceModels:
    def _profile(self, ops, bytes_traffic, transfer, items=1 << 16, coalesced=1.0, divergence=0.0):
        return KernelProfile(
            work_items=items,
            work_group_size=64,
            total_operations=ops,
            global_traffic_bytes=bytes_traffic,
            local_traffic_bytes=0.0,
            coalesced_fraction=coalesced,
            divergence_fraction=divergence,
            transfer_bytes=transfer,
        )

    def test_table4_devices(self):
        cpu, amd, nvidia = intel_core_i7_3820(), amd_tahiti_7970(), nvidia_gtx_970()
        assert cpu.cores == 4 and not cpu.is_gpu
        assert amd.cores == 2048 and amd.peak_gflops == 3790
        assert nvidia.cores == 1664 and nvidia.peak_gflops == 3900

    def test_compute_heavy_kernel_prefers_gpu(self):
        profile = self._profile(ops=5e9, bytes_traffic=1e7, transfer=1e7)
        assert amd_platform().oracle_device(profile) == "gpu"
        assert nvidia_platform().oracle_device(profile) == "gpu"

    def test_transfer_bound_kernel_prefers_cpu(self):
        profile = self._profile(ops=1e6, bytes_traffic=1e6, transfer=5e8)
        assert amd_platform().oracle_device(profile) == "cpu"

    def test_uncoalesced_access_slows_gpu(self):
        coalesced = self._profile(ops=1e8, bytes_traffic=5e8, transfer=1e6, coalesced=1.0)
        scattered = self._profile(ops=1e8, bytes_traffic=5e8, transfer=1e6, coalesced=0.0)
        gpu = amd_tahiti_7970()
        assert gpu.estimate_runtime(scattered) > gpu.estimate_runtime(coalesced)

    def test_divergence_slows_gpu_only(self):
        uniform = self._profile(ops=1e9, bytes_traffic=1e6, transfer=1e6, divergence=0.0)
        divergent = self._profile(ops=1e9, bytes_traffic=1e6, transfer=1e6, divergence=1.0)
        assert amd_tahiti_7970().estimate_runtime(divergent) > amd_tahiti_7970().estimate_runtime(uniform)
        cpu = intel_core_i7_3820()
        assert cpu.estimate_runtime(divergent) == pytest.approx(cpu.estimate_runtime(uniform))

    def test_scaled_profile_scales_linearly(self):
        profile = self._profile(ops=1e6, bytes_traffic=1e6, transfer=1e6)
        scaled = profile.scaled(10)
        assert scaled.total_operations == pytest.approx(1e7)
        assert scaled.transfer_bytes == pytest.approx(1e7)

    @settings(max_examples=25)
    @given(st.floats(min_value=1e3, max_value=1e10), st.floats(min_value=1e3, max_value=1e9),
           st.floats(min_value=0.0, max_value=1.0))
    def test_runtimes_are_positive_and_finite(self, ops, traffic, coalesced):
        profile = self._profile(ops=ops, bytes_traffic=traffic, transfer=traffic,
                                coalesced=coalesced)
        for platform in (amd_platform(), nvidia_platform()):
            times = platform.runtimes(profile)
            assert times["cpu"] > 0 and times["gpu"] > 0
            assert times["cpu"] < 1e6 and times["gpu"] < 1e6


class TestRecursiveKernelGuard:
    """A self-recursive kernel (invalid OpenCL C, but the lenient frontend
    accepts it — full-scale synthesis produces them) must raise a catchable
    ExecutionError at the same call depth on every engine, not blow the
    Python stack mid-measurement (PR 4 regression)."""

    # Shape synthesized at full scale (the condition is taken, so the
    # self-call really recurses).
    RECURSIVE = """
    __kernel void A(__global float* a, __global float* b, __global float* c, const int d) {
      int e = get_global_id(0);
      if (d >= c) {
        b[d] = 0.0f;
        for (int f = 0; f < 16; f++) {
          a = A(a);
        }
        b[d] = tanh(a[d]);
      }
    }
    """

    @pytest.mark.parametrize("engine", ["compiled", "interpreter", "auto"])
    def test_every_engine_raises_execution_error(self, engine):
        from repro.driver.payload import PayloadConfig, PayloadGenerator
        from repro.execution.cache import cached_compile_source, run_kernel
        from repro.preprocess.shim import shim_include_resolver, with_shim

        compilation = cached_compile_source(
            with_shim(self.RECURSIVE),
            include_resolver=shim_include_resolver,
            strict=False,
        )
        kernel = compilation.unit.kernels[0]
        payload = PayloadGenerator(
            PayloadConfig(global_size=32, local_size=16, seed=0)
        ).generate(kernel, work_dim=1)
        with pytest.raises(ExecutionError, match="call depth"):
            run_kernel(
                compilation.unit,
                payload.pool,
                payload.scalar_args,
                payload.ndrange,
                kernel_name=kernel.name,
                engine=engine,
            )

    def test_driver_excludes_the_kernel(self):
        from repro.driver.harness import DriverConfig, HostDriver

        driver = HostDriver(
            config=DriverConfig(executed_global_size=32, local_size=16)
        )
        assert driver.measure_source(self.RECURSIVE) is None

    def test_bounded_helper_chains_still_run(self):
        from repro.driver.harness import DriverConfig, HostDriver

        source = """
        float f(float x) { return x + 1.0f; }
        float g(float x) { return f(x) * 2.0f; }
        __kernel void A(__global float* a, const int d) {
          int e = get_global_id(0);
          if (e < d) {
            a[e] = g(a[e]);
          }
        }
        """
        driver = HostDriver(
            config=DriverConfig(executed_global_size=32, local_size=16)
        )
        assert driver.measure_source(source) is not None


class TestFloatOverflowGuard:
    """A kernel whose integer arithmetic outgrows a Python float must raise
    a catchable KernelRuntimeError on every engine, so the driver drops it
    instead of crashing with a raw OverflowError (full-scale synthesis
    produced this shape)."""

    OVERFLOW = """
    __kernel void A(__global float* a, __global float* b, const int c) {
      int d = get_global_id(0);
      int e = d + 2;
      for (int i = 0; i < 16; i++) { e = ((e * e) * 0.5f) + 0.1f; }
      a[d] = e;
    }
    """

    ENGINES = ["auto", "vectorized", "compiled", "interpreter"]

    @pytest.mark.parametrize("engine", ENGINES)
    def test_every_engine_raises_kernel_runtime_error(self, engine):
        from repro.driver.payload import PayloadConfig, PayloadGenerator
        from repro.errors import KernelRuntimeError
        from repro.execution.cache import cached_compile_source

        compilation = cached_compile_source(self.OVERFLOW)
        kernel = compilation.unit.kernels[0]
        payload = PayloadGenerator(
            PayloadConfig(global_size=32, local_size=16, seed=0)
        ).generate(kernel, work_dim=1)
        with pytest.raises(KernelRuntimeError, match="overflow"):
            run_kernel(
                compilation.unit,
                payload.pool,
                payload.scalar_args,
                payload.ndrange,
                kernel_name=kernel.name,
                engine=engine,
            )

    @pytest.mark.parametrize("engine", ENGINES)
    def test_driver_excludes_the_kernel(self, engine):
        from repro.driver.harness import DriverConfig, HostDriver

        driver = HostDriver(
            config=DriverConfig(engine=engine, executed_global_size=32, local_size=16)
        )
        assert driver.measure_source(self.OVERFLOW) is None
