"""Per-bailout-cause fixtures for the classifier.

One fixture kernel per predicted cause class, asserting both the
classification and the concrete cause string: a rejection's cause is the
message ``vectorizer.py`` refuses the kernel with, a bailout's is phrased
like what ``vectorizer.py`` / ``memory.py`` raise.
"""

import pytest

from repro.analysis import Classification, analyze_source


def _verdict(source, kernel_name=None):
    verdict = analyze_source(source, kernel_name)
    assert verdict is not None
    return verdict


class TestSafeClass:
    def test_straight_line_map(self):
        verdict = _verdict(
            """
            kernel void k(global float* a, global float* b, global float* out) {
                int gid = get_global_id(0);
                out[gid] = a[gid] + b[gid];
            }
            """
        )
        assert verdict.classification is Classification.SAFE
        assert verdict.lockstep_safe
        assert not verdict.skip_vectorization
        assert verdict.bailout_class == 0

    def test_guarded_map_is_safe(self):
        verdict = _verdict(
            """
            kernel void k(global float* a, global float* out, const int n) {
                int gid = get_global_id(0);
                if (gid < n) { out[gid] = a[gid] * 2.0f; }
            }
            """
        )
        assert verdict.classification is Classification.SAFE

    def test_bounded_loop_is_safe(self):
        verdict = _verdict(
            """
            kernel void k(global float* a, global float* out) {
                int gid = get_global_id(0);
                float acc = 0.0f;
                for (int i = 0; i < 8; i++) { acc += a[gid] * i; }
                out[gid] = acc;
            }
            """
        )
        assert verdict.classification is Classification.SAFE

    def test_local_memory_never_safe(self):
        verdict = _verdict(
            """
            kernel void k(global float* a, local float* tmp) {
                int lid = get_local_id(0);
                tmp[lid] = a[lid];
                a[lid] = tmp[lid] * 2.0f;
            }
            """
        )
        assert verdict.classification is not Classification.SAFE

    def test_uniform_barrier_never_safe(self):
        verdict = _verdict(
            """
            kernel void k(global float* a, local float* tmp) {
                int lid = get_local_id(0);
                tmp[lid] = a[lid];
                barrier(CLK_LOCAL_MEM_FENCE);
                a[lid] = tmp[lid];
            }
            """
        )
        assert verdict.classification is not Classification.SAFE

    def test_scalar_shadowing_a_buffer_never_safe(self):
        # The local `x` is each lane's global id, so the guard diverges;
        # read as the buffer parameter `x` it looked uniform, and the
        # specialized tier mispredicted (a generated transpose archetype).
        verdict = _verdict(
            """
            __kernel void transpose(__global const double* x, __global double* z,
                                    const int width, const int ny) {
              int x = get_global_id(0);
              int y = get_global_id(1);
              if (x < width && y < ny) {
                z[x * ny + y] = x[y * width + x];
              }
            }
            """
        )
        assert verdict.classification is not Classification.SAFE
        assert not verdict.specialization.eligible


class TestBailoutCauses:
    def test_divergent_barrier_is_certain_bailout(self):
        verdict = _verdict(
            """
            kernel void k(global float* a, local float* tmp) {
                int gid = get_global_id(0);
                if (gid % 2 == 0) { barrier(CLK_LOCAL_MEM_FENCE); }
                a[gid] = 1.0f;
            }
            """
        )
        assert verdict.classification is Classification.BAILOUT
        assert verdict.skip_vectorization
        assert "divergent work-group barrier" in verdict.cause_strings()

    def test_uniform_write_race_is_certain_bailout(self):
        verdict = _verdict(
            """
            kernel void k(global float* a, global float* out) {
                int gid = get_global_id(0);
                out[0] = out[0] + a[gid];
            }
            """
        )
        assert verdict.classification is Classification.BAILOUT
        assert "cross-lane read-after-write hazard" in verdict.cause_strings()

    def test_step_budget_cause(self):
        verdict = _verdict(
            """
            kernel void k(global float* a, const int n) {
                int gid = get_global_id(0);
                for (int i = 0; i < n; ) { a[gid] += 1.0f; }
            }
            """
        )
        assert verdict.classification is Classification.UNKNOWN
        assert "step budget exceeded (possible timeout)" in verdict.cause_strings()

    def test_divergent_scatter_is_possible_not_certain(self):
        verdict = _verdict(
            """
            kernel void k(global int* idx, global float* out) {
                int gid = get_global_id(0);
                out[idx[gid]] = 1.0f;
            }
            """
        )
        # Collision depends on the data; must not be routed away.
        assert verdict.classification is Classification.UNKNOWN
        assert "cross-lane write-after-write hazard" in verdict.cause_strings()
        assert not verdict.skip_vectorization


class TestRejectionCauses:
    @pytest.mark.parametrize(
        "source,cause",
        [
            (
                """
                kernel void k(global float* a, global int* out) {
                    int gid = get_global_id(0);
                    float x = a[gid];
                    float* p = &x;
                    out[gid] = (int)(*p);
                }
                """,
                "address-of operator",
            ),
            (
                """
                kernel void k(global float* a, global float* out) {
                    int gid = get_global_id(0);
                    vstore4(vload4(gid, a), gid, out);
                }
                """,
                "vector load/store",
            ),
            (
                """
                int spin(int value) { return value <= 0 ? 0 : spin(value - 1); }
                kernel void k(global int* out) {
                    int gid = get_global_id(0);
                    out[gid] = spin(gid);
                }
                """,
                "call to a user function",
            ),
            (
                """
                kernel void k(global float* a, const int n) {
                    int gid = get_global_id(0);
                    int i = 0;
                    while (i < n) { a[gid] += 1.0f; }
                }
                """,
                "statement WhileStmt",
            ),
            (
                """
                kernel void k(global int* out) {
                    int gid = get_global_id(0);
                    int old = atomic_add(&out[0], gid);
                    out[gid] = old;
                }
                """,
                "atomic operation with a used result",
            ),
            (
                """
                kernel void k(global int* out) {
                    int gid = get_global_id(0);
                    atomic_cmpxchg(&out[0], 0, gid);
                }
                """,
                "order-dependent atomic 'cmpxchg'",
            ),
        ],
    )
    def test_rejection_cause(self, source, cause):
        verdict = _verdict(source)
        assert verdict.classification is Classification.REJECTED
        assert [c.cause for c in verdict.causes if c.kind == "rejection"] == [cause]
        # Rejections are informational: try_vectorize refuses these anyway,
        # so they must not drive the skip decision.
        assert not verdict.skip_vectorization

    def test_suite_rejections_are_the_vectorizers(self):
        """Over every suite kernel, ``rejected`` means ``try_vectorize``
        returns ``None``, and the one rejection cause is the message the
        vectorizer refuses the kernel with."""
        from repro.analysis import analyze_kernel
        from repro.execution.cache import cached_compile_source
        from repro.execution.vectorizer import (
            NotVectorizable,
            VectorizedKernel,
            try_vectorize,
        )
        from repro.preprocess.shim import shim_include_resolver, with_shim
        from repro.suites.registry import all_benchmarks

        for benchmark in all_benchmarks():
            name = benchmark.qualified_name
            unit = cached_compile_source(
                with_shim(benchmark.source),
                include_resolver=shim_include_resolver,
                strict=False,
            ).unit
            verdict = analyze_kernel(unit)
            rejections = [c.cause for c in verdict.causes if c.kind == "rejection"]
            if try_vectorize(unit) is not None:
                assert verdict.classification is not Classification.REJECTED, name
                assert rejections == [], name
                continue
            with pytest.raises(NotVectorizable) as refusal:
                VectorizedKernel(unit)
            assert verdict.classification is Classification.REJECTED, name
            assert rejections == [str(refusal.value)], name


class TestVerdictApi:
    def test_to_dict_round_trips_json(self):
        import json

        verdict = _verdict(
            """
            kernel void k(global float* a, local float* tmp) {
                int gid = get_global_id(0);
                if (gid % 2 == 0) { barrier(CLK_LOCAL_MEM_FENCE); }
                a[gid] = 1.0f;
            }
            """
        )
        payload = json.loads(json.dumps(verdict.to_dict()))
        assert payload["classification"] == "bailout"
        assert payload["divergent_barriers"] == 1
        assert any(
            cause["cause"] == "divergent work-group barrier" and cause["certain"]
            for cause in payload["causes"]
        )

    def test_bailout_class_codes_cover_all_classes(self):
        from repro.analysis import BAILOUT_CLASS_CODES

        assert set(BAILOUT_CLASS_CODES) == set(Classification)
        assert len(set(BAILOUT_CLASS_CODES.values())) == len(Classification)
