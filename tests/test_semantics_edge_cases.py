"""SemanticChecker edge cases: shadowing, call arity, for-init scoping,
value returns from void functions."""

import pytest

from repro.clc import compile_source, parse
from repro.clc.semantics import check
from repro.errors import SemanticError
from repro.preprocess.rejection import RejectionFilter, RejectionReason
from repro.preprocess.shim import shim_include_resolver, with_shim


def _issues(source, require_kernel=False):
    return check(parse(source), require_kernel=require_kernel).issues


class TestNestedScopeShadowing:
    def test_inner_declaration_shadows_outer(self):
        issues = _issues(
            """
            kernel void k(global float* a, const int n) {
                int value = n;
                {
                    float value = 1.0f;
                    a[0] = value;
                }
                a[1] = value;
            }
            """
        )
        assert issues == []

    def test_shadowed_name_not_visible_after_block(self):
        issues = _issues(
            """
            kernel void k(global float* a) {
                {
                    int inner = 3;
                    a[0] = inner;
                }
                a[1] = inner;
            }
            """
        )
        assert [issue.kind for issue in issues] == ["undeclared-identifier"]
        assert issues[0].name == "inner"

    def test_parameter_shadowed_by_local(self):
        issues = _issues(
            """
            kernel void k(global float* a, const int n) {
                float n = 2.0f;
                a[0] = n;
            }
            """
        )
        assert issues == []

    def test_for_loop_variable_shadows_outer(self):
        issues = _issues(
            """
            kernel void k(global float* a, const int n) {
                int i = 100;
                for (int i = 0; i < n; i++) { a[i] = i; }
                a[0] = i;
            }
            """
        )
        assert issues == []


class TestForInitScoping:
    def test_for_init_declaration_scoped_to_loop(self):
        issues = _issues(
            """
            kernel void k(global float* a, const int n) {
                for (int i = 0; i < n; i++) { a[i] = 1.0f; }
                a[0] = i;
            }
            """
        )
        assert [issue.name for issue in issues] == ["i"]

    def test_undeclared_identifier_in_for_init(self):
        issues = _issues(
            """
            kernel void k(global float* a, const int n) {
                for (int i = start; i < n; i++) { a[i] = 1.0f; }
            }
            """
        )
        assert [issue.name for issue in issues] == ["start"]

    def test_undeclared_bound_in_for_condition(self):
        issues = _issues(
            """
            kernel void k(global float* a) {
                for (int i = 0; i < limit; i++) { a[i] = 1.0f; }
            }
            """
        )
        assert [issue.name for issue in issues] == ["limit"]


class TestHelperCallArity:
    def test_correct_arity_accepted(self):
        issues = _issues(
            """
            float scale(float value, float factor) { return value * factor; }
            kernel void k(global float* a) {
                int gid = get_global_id(0);
                a[gid] = scale(a[gid], 2.0f);
            }
            """
        )
        assert issues == []

    def test_too_few_arguments_rejected(self):
        issues = _issues(
            """
            float scale(float value, float factor) { return value * factor; }
            kernel void k(global float* a) {
                int gid = get_global_id(0);
                a[gid] = scale(a[gid]);
            }
            """
        )
        assert [issue.kind for issue in issues] == ["wrong-arity"]
        assert "takes 2" in issues[0].message

    def test_too_many_arguments_rejected(self):
        issues = _issues(
            """
            float one(void) { return 1.0f; }
            kernel void k(global float* a) {
                a[0] = one(2.0f);
            }
            """
        )
        assert [issue.kind for issue in issues] == ["wrong-arity"]

    def test_builtins_not_arity_checked(self):
        # Builtins are genuinely overloaded (min/max/clamp across types);
        # the arity check only covers user-defined functions.
        issues = _issues(
            """
            kernel void k(global float* a) {
                int gid = get_global_id(0);
                a[gid] = max(a[gid], 0.0f);
            }
            """
        )
        assert issues == []

    def test_rejection_filter_maps_wrong_arity(self):
        result = RejectionFilter().check(
            """
            float scale(float value, float factor) { return value * factor; }
            kernel void k(global float* a) {
                int gid = get_global_id(0);
                a[gid] = scale(a[gid]);
            }
            """
        )
        assert not result.accepted
        assert result.reason is RejectionReason.WRONG_ARITY


class TestVoidReturnValue:
    """C11 6.8.6.4: a ``return`` with an expression shall not appear in a
    function whose return type is ``void``."""

    KERNEL = "__kernel void k(__global int* a) { a[0] = 1; return 2.5f; }"

    def test_strict_compile_raises(self):
        with pytest.raises(SemanticError, match="void function 'k' should not return a value"):
            compile_source(
                with_shim(self.KERNEL), include_resolver=shim_include_resolver, strict=True
            )

    def test_rejection_filter_maps_void_return_value(self):
        result = RejectionFilter().check(self.KERNEL)
        assert not result.accepted
        assert result.reason is RejectionReason.VOID_RETURN_VALUE

    def test_helper_returning_a_value_is_flagged(self):
        issues = _issues(
            """
            void store(global float* a) { a[0] = 1.0f; return a[1]; }
            kernel void k(global float* a) { store(a); }
            """
        )
        assert [(issue.kind, issue.function) for issue in issues] == [
            ("void-return-value", "store")
        ]
