"""Unit tests for the parser, semantic checker, code generator and printer."""

from __future__ import annotations

import pytest

from repro.clc import ast_nodes as ast
from repro.clc import check, compile_source, lower, parse, parse_kernel
from repro.clc.ir import IRFunction, OpCategory
from repro.clc.printer import print_source
from repro.clc.types import AddressSpace, PointerType, VectorType
from repro.errors import ParseError, SemanticError
from repro.preprocess.shim import shim_include_resolver, with_shim
from repro.suites.registry import all_benchmarks
from repro.synthesis import CLgen


class TestParser:
    def test_kernel_signature(self, vecadd_source):
        unit = parse(vecadd_source)
        kernel = unit.kernels[0]
        assert kernel.name == "A" and kernel.is_kernel
        assert len(kernel.parameters) == 4
        pointer = kernel.parameters[0].declared_type
        assert isinstance(pointer, PointerType)
        assert pointer.address_space is AddressSpace.GLOBAL

    def test_helper_function_and_kernel(self):
        unit = parse("inline float f(float a) { return a * 2.0f; }\n"
                     "__kernel void K(__global float* x) { x[0] = f(x[0]); }")
        assert [fn.name for fn in unit.helper_functions] == ["f"]
        assert [fn.name for fn in unit.kernels] == ["K"]

    def test_vector_literal_and_member_access(self):
        kernel = parse_kernel(
            "__kernel void V(__global float4* a) {\n"
            "  float4 v = (float4)(1.0f, 2.0f, 3.0f, 4.0f);\n"
            "  a[0] = v;\n  float s = v.x + v.s3;\n}"
        )
        declaration = kernel.body.statements[0]
        assert isinstance(declaration, ast.DeclStmt)
        assert isinstance(declaration.declarators[0].initializer, ast.VectorLiteral)

    def test_control_flow_statements(self):
        kernel = parse_kernel(
            "__kernel void C(__global int* a, const int n) {\n"
            "  int s = 0;\n"
            "  for (int i = 0; i < n; i++) { s += i; }\n"
            "  while (s > 100) { s -= 10; }\n"
            "  do { s++; } while (s < 0);\n"
            "  switch (s % 3) { case 0: s = 1; break; default: s = 2; }\n"
            "  if (s > 0) { a[0] = s; } else { a[0] = -s; }\n}"
        )
        kinds = {type(statement).__name__ for statement in ast.walk(kernel.body)}
        assert {"ForStmt", "WhileStmt", "DoWhileStmt", "SwitchStmt", "IfStmt"} <= kinds

    def test_ternary_and_compound_assignment(self):
        kernel = parse_kernel(
            "__kernel void T(__global float* a, const int n) {\n"
            "  int i = get_global_id(0);\n"
            "  a[i] += (i < n) ? 1.0f : 0.0f;\n}"
        )
        assignments = [n for n in ast.walk(kernel.body) if isinstance(n, ast.Assignment)]
        assert assignments[0].op == "+="

    def test_typedef_resolution(self):
        unit = parse("typedef float real;\n__kernel void K(__global real* x) { x[0] = 1.0f; }")
        parameter = unit.kernels[0].parameters[0]
        assert "float" in str(parameter.declared_type)

    def test_struct_typedef(self):
        unit = parse("typedef struct { float x; float y; } vec2;\n"
                     "__kernel void K(__global float* a) { a[0] = 1.0f; }")
        assert unit.typedefs[0].name == "vec2"

    def test_local_array_declaration(self):
        kernel = parse_kernel(
            "__kernel void L(__global float* a) {\n"
            "  __local float tile[64];\n"
            "  tile[get_local_id(0)] = a[get_global_id(0)];\n}"
        )
        declaration = kernel.body.statements[0]
        assert declaration.declarators[0].address_space is AddressSpace.LOCAL

    def test_attribute_is_parsed_and_recorded(self):
        unit = parse("__kernel __attribute__((reqd_work_group_size(64, 1, 1)))\n"
                     "void K(__global float* a) { a[0] = 1.0f; }")
        assert unit.kernels[0].attributes

    def test_parse_error_on_garbage(self):
        with pytest.raises(ParseError):
            parse("__kernel void K(__global float* a) { a[0] = ; }")

    def test_parse_error_on_unknown_type(self):
        with pytest.raises(ParseError):
            parse("__kernel void K(__global mystery_t* a) { a[0] = 1; }")

    def test_missing_kernel_raises_in_parse_kernel(self):
        with pytest.raises(ParseError):
            parse_kernel("float f(float a) { return a; }")

    def test_unsigned_spellings(self):
        kernel = parse_kernel(
            "__kernel void U(__global unsigned int* a, const unsigned int n) {\n"
            "  unsigned int i = get_global_id(0);\n  if (i < n) a[i] = i;\n}"
        )
        assert kernel.parameters[1].declared_type.kind == "uint"



def _nested_blocks(depth: int) -> str:
    return "__kernel void k(__global int* a) { " + "{" * depth + " a[0] = 1; " + "}" * depth + " }"


def _nested_parentheses(depth: int) -> str:
    return "__kernel void k(__global int* a) { a[0] = " + "(" * depth + "1" + ")" * depth + "; }"


def _nested_sums(depth: int) -> str:
    expression = "1"
    for _ in range(depth):
        expression = f"(1 + {expression})"
    return "__kernel void k(__global int* a) { a[0] = " + expression + "; }"


def _nested_subscripts(depth: int) -> str:
    expression = "0"
    for _ in range(depth):
        expression = f"a[{expression}]"
    return "__kernel void k(__global int* a) { a[0] = " + expression + "; }"


class TestNestingLimit:
    """Nesting past the parser's limit is a parse error, never a
    ``RecursionError`` out of the rejection filter."""

    @pytest.mark.parametrize(
        ("build", "depth"),
        [(_nested_parentheses, 400), (_nested_subscripts, 400), (_nested_blocks, 1000)],
    )
    def test_too_deep_is_a_parse_error_rejection(self, build, depth):
        from repro.preprocess.rejection import RejectionFilter, RejectionReason

        result = RejectionFilter().check(build(depth))
        assert result.reason is RejectionReason.PARSE_ERROR
        assert "nesting deeper than" in result.detail

    @pytest.mark.parametrize("build", [_nested_blocks, _nested_sums, _nested_subscripts])
    def test_a_kernel_at_the_limit_measures_on_every_engine(self, build):
        from repro.clc.parser import MAX_NESTING_DEPTH
        from repro.driver.harness import DriverConfig, HostDriver
        from repro.preprocess.rejection import RejectionFilter

        rejection_filter = RejectionFilter()
        # Every level of these shapes counts at least once, so MAX + 1 levels
        # are over the limit: bisect for the deepest accepted kernel.
        low, high = 1, MAX_NESTING_DEPTH + 1
        while high - low > 1:
            middle = (low + high) // 2
            if rejection_filter.check(build(middle)).accepted:
                low = middle
            else:
                high = middle
        assert rejection_filter.check(build(low)).accepted
        assert "nesting deeper than" in rejection_filter.check(build(low + 1)).detail
        for engine in ("auto", "vectorized", "compiled", "interpreter"):
            driver = HostDriver(
                config=DriverConfig(engine=engine, executed_global_size=32, local_size=16)
            )
            assert driver.measure_source(build(low)) is not None, engine


class TestSemantics:
    def test_accepts_well_formed_kernel(self, vecadd_source):
        report = check(parse(vecadd_source))
        assert report.ok

    def test_flags_undeclared_identifier(self):
        report = check(parse("__kernel void K(__global float* a) { a[0] = missing; }"))
        assert not report.ok
        assert "missing" in report.undeclared_identifiers

    def test_flags_undeclared_function(self):
        report = check(parse("__kernel void K(__global float* a) { a[0] = mystery(1.0f); }"))
        assert any(issue.kind == "undeclared-function" for issue in report.issues)

    def test_flags_missing_kernel(self):
        report = check(parse("float f(float a) { return a; }"))
        assert any(issue.kind == "no-kernel" for issue in report.issues)

    def test_builtins_are_not_flagged(self):
        source = ("__kernel void K(__global float* a) {\n"
                  "  a[get_global_id(0)] = fmax(sin(1.0f), M_PI_F);\n"
                  "  barrier(CLK_LOCAL_MEM_FENCE);\n}")
        assert check(parse(source)).ok

    def test_raise_if_failed(self):
        report = check(parse("__kernel void K(__global float* a) { a[0] = oops; }"))
        with pytest.raises(SemanticError):
            report.raise_if_failed()


class TestCodegen:
    def test_static_counts_for_vecadd(self, vecadd_source):
        module = lower(parse(vecadd_source))
        kernel = module.function("A")
        assert kernel.static_instruction_count >= 3
        assert kernel.global_memory_accesses == 3
        assert kernel.coalesced_memory_accesses == 3
        assert kernel.branch_operations == 1
        assert kernel.compute_operations >= 2

    def test_local_memory_accesses_counted(self, reduction_source):
        kernel = lower(parse(reduction_source)).function("reduce")
        assert kernel.local_memory_accesses >= 3
        assert kernel.branch_operations >= 2

    def test_strided_access_not_coalesced(self):
        source = ("__kernel void S(__global float* a, const int n) {\n"
                  "  int i = get_global_id(0);\n  a[i * 2] = 1.0f;\n}")
        kernel = lower(parse(source)).function("S")
        assert kernel.global_memory_accesses == 1
        assert kernel.coalesced_memory_accesses == 0

    def test_gid_alias_plus_offset_is_coalesced(self):
        source = ("__kernel void C(__global float* a, const int n) {\n"
                  "  int i = get_global_id(0);\n  a[i + 4] = a[i] + 1.0f;\n}")
        kernel = lower(parse(source)).function("C")
        assert kernel.coalesced_memory_accesses == 2

    def test_ir_renders_as_ptx_like_text(self, vecadd_source):
        module = lower(parse(vecadd_source))
        text = module.render()
        assert ".entry A" in text
        assert "ld.global" in text and "st.global" in text

    def test_compile_source_end_to_end(self, vecadd_source):
        result = compile_source(vecadd_source)
        assert result.static_instruction_count > 0
        assert [k.name for k in result.kernels] == ["A"]


def oracle_counts(function: IRFunction) -> tuple[int, int, int, int, int, int]:
    """The per-property counts, one generator per count, that the one-pass
    counts replaced: (static, compute, global, local, coalesced, branch)."""
    instructions = function.instructions
    compute = (
        OpCategory.ARITHMETIC, OpCategory.LOGICAL, OpCategory.COMPARISON, OpCategory.CONVERSION
    )
    return (
        sum(1 for inst in instructions if inst.category is not OpCategory.LABEL),
        sum(1 for inst in instructions if inst.category in compute),
        sum(1 for inst in instructions if inst.is_memory_access and inst.address_space == "global"),
        sum(1 for inst in instructions if inst.is_memory_access and inst.address_space == "local"),
        sum(
            1
            for inst in instructions
            if inst.is_memory_access and inst.address_space == "global" and inst.coalesced
        ),
        sum(1 for inst in instructions if inst.category is OpCategory.BRANCH),
    )


def counts(function: IRFunction) -> tuple[int, int, int, int, int, int]:
    return (
        function.static_instruction_count,
        function.compute_operations,
        function.global_memory_accesses,
        function.local_memory_accesses,
        function.coalesced_memory_accesses,
        function.branch_operations,
    )


class TestStaticCounts:
    def test_counts_match_the_oracle_on_suite_and_synthesized_kernels(self):
        suite_sources = [benchmark.source for benchmark in all_benchmarks()]
        synthesized = CLgen.from_github(40, seed=0).generate_kernels(100, seed=0).kernels
        assert len(suite_sources) == 71 and len(synthesized) >= 50
        functions = [
            function
            for source in suite_sources + [kernel.source for kernel in synthesized]
            for function in compile_source(
                with_shim(source), include_resolver=shim_include_resolver, strict=False
            ).ir.functions
        ]
        mismatches = [f.name for f in functions if counts(f) != oracle_counts(f)]
        assert mismatches == []
        assert sum(f.local_memory_accesses for f in functions) > 0
        assert sum(f.coalesced_memory_accesses for f in functions) > 0

    def test_counts_stay_out_of_repr_and_eq(self, vecadd_source):
        counted = lower(parse(vecadd_source)).function("A")
        fresh = lower(parse(vecadd_source)).function("A")
        before = repr(counted)
        assert counted.static_instruction_count > 0
        assert repr(counted) == before == repr(fresh)
        assert counted == fresh


class TestPrinter:
    def test_round_trip_parses_again(self, reduction_source):
        text = print_source(parse(reduction_source))
        reparsed = parse(text)
        assert [k.name for k in reparsed.kernels] == ["reduce"]

    def test_printer_normalizes_braces(self):
        source = "__kernel void K(__global float* a) { if (a[0] > 0.0f) a[0] = 1.0f; }"
        text = print_source(parse(source))
        assert "{" in text.split("if")[1]  # mandatory braces around the branch

    def test_printer_preserves_counts(self, vecadd_source):
        original = lower(parse(vecadd_source)).function("A")
        printed = lower(parse(print_source(parse(vecadd_source)))).function("A")
        assert printed.global_memory_accesses == original.global_memory_accesses
        assert printed.branch_operations == original.branch_operations
