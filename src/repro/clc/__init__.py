"""``repro.clc`` — a pure-Python OpenCL C frontend.

This package stands in for the Clang/LLVM + PTX toolchain used by the paper.
It provides preprocessing, lexing, parsing, semantic checking and lowering to
a PTX-like IR, and the single high-level entry point :func:`compile_source`
used by the rejection filter, the feature extractor and the execution
simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.clc import ast_nodes
from repro.clc.ast_nodes import FunctionDecl, TranslationUnit
from repro.clc.codegen import lower
from repro.clc.ir import IRModule
from repro.clc.lexer import Token, TokenKind, tokenize
from repro.clc.parser import Parser, parse, parse_kernel
from repro.clc.preprocessor import IncludeResolver, Preprocessor, PreprocessorResult, preprocess
from repro.clc.semantics import SemanticReport, check
from repro.clc.types import (
    AddressSpace,
    PointerType,
    ScalarType,
    StructType,
    Type,
    TypeTable,
    VectorType,
)
from repro.errors import CompileError

__all__ = [
    "AddressSpace",
    "CompilationResult",
    "CompileError",
    "FunctionDecl",
    "IRModule",
    "IncludeResolver",
    "Parser",
    "PointerType",
    "Preprocessor",
    "ScalarType",
    "SemanticReport",
    "StructType",
    "Token",
    "TokenKind",
    "TranslationUnit",
    "Type",
    "TypeTable",
    "VectorType",
    "ast_nodes",
    "check",
    "compile_parsed_body",
    "compile_source",
    "lower",
    "parse",
    "parse_kernel",
    "preprocess",
    "register_prelude",
    "tokenize",
]


@dataclass
class CompilationResult:
    """Everything produced by a successful compilation of one source input."""

    source: str
    preprocessed: str
    unit: TranslationUnit
    ir: IRModule
    semantics: SemanticReport
    included_headers: list[str] = field(default_factory=list)
    #: The translation unit of the input *body* alone: when a registered
    #: prelude fast-path compiled this source, ``unit`` is the merged
    #: prelude+body tree and this is the body subtree (sharing nodes with
    #: ``unit``); without a prelude the body is the whole unit.  The code
    #: rewriter's AST-reuse path consumes it to skip a second parse.
    body_unit: TranslationUnit | None = None

    @property
    def kernels(self) -> list[FunctionDecl]:
        return self.unit.kernels

    @property
    def static_instruction_count(self) -> int:
        return self.ir.static_instruction_count


class _Prelude:
    """A pre-compiled constant header shared by many compilations.

    The rejection filter and the host driver prepend the same shim header
    (~3 KB of typedefs and ``#define``s) to every input, and re-compiling it
    dominated frontend time for small kernels.  A registered prelude is
    preprocessed and parsed exactly once; sources that start with its text
    then compile only their body, seeded with the prelude's macro table and
    typedef type table, and the results are merged.
    """

    def __init__(self, text: str, include_resolver: IncludeResolver | None):
        self.text = text
        result = preprocess(text, include_resolver=include_resolver)
        self.preprocessed = result.text
        self.macros = result.macros
        self.included_headers = list(result.included_headers)
        parser = Parser(tokenize(self.preprocessed))
        self.unit = parser.parse_translation_unit()
        self.type_table = parser.type_table


_PRELUDES: dict[str, _Prelude] = {}


def register_prelude(text: str, include_resolver: IncludeResolver | None = None) -> None:
    """Pre-compile the constant header *text* for the compile fast path."""
    if text and text not in _PRELUDES:
        _PRELUDES[text] = _Prelude(text, include_resolver)


def _merge_with_prelude(
    prelude: _Prelude,
    body_unit: TranslationUnit,
    result: PreprocessorResult,
    source: str,
    require_kernel: bool,
    strict: bool,
) -> CompilationResult:
    """Check and lower the prelude's unit merged with *body_unit*, the parse
    of the body's preprocessing *result*."""
    unit = TranslationUnit(
        functions=prelude.unit.functions + body_unit.functions,
        typedefs=prelude.unit.typedefs + body_unit.typedefs,
        structs=prelude.unit.structs + body_unit.structs,
        globals=prelude.unit.globals + body_unit.globals,
    )
    report = check(unit, require_kernel=require_kernel)
    if strict:
        report.raise_if_failed()
    ir = lower(unit)
    return CompilationResult(
        source=source,
        preprocessed=prelude.preprocessed + result.text,
        unit=unit,
        ir=ir,
        semantics=report,
        included_headers=prelude.included_headers + result.included_headers,
        body_unit=body_unit,
    )


def _compile_with_prelude(
    prelude: _Prelude,
    body: str,
    source: str,
    include_resolver: IncludeResolver | None,
    require_kernel: bool,
    strict: bool,
) -> CompilationResult:
    preprocessor = Preprocessor(include_resolver, macro_table=prelude.macros)
    result = preprocessor.preprocess(body)
    parser = Parser(tokenize(result.text), type_table=prelude.type_table)
    body_unit = parser.parse_translation_unit()
    return _merge_with_prelude(prelude, body_unit, result, source, require_kernel, strict)


def compile_parsed_body(
    source: str,
    body_unit: TranslationUnit,
    include_resolver: IncludeResolver | None = None,
    require_kernel: bool = True,
    strict: bool = False,
) -> CompilationResult | None:
    """Compile *source* reusing *body_unit* as its already-parsed body.

    The synthesizer's normalization path prints the accepted candidate's
    renamed AST — so when the measurement harness later compiles that
    printed text, the tokenize + parse it pays would only rebuild the very
    tree the printer just consumed.  This entry point builds the
    :class:`CompilationResult` that :func:`compile_source` would return for
    *source*, skipping tokenize and parse: the body's translation unit is
    taken from *body_unit*, and only preprocessing (for the ``preprocessed``
    field), semantic checking and IR lowering run, all on the merged
    prelude+body tree exactly as in the prelude fast path.

    Soundness gates — returns ``None`` (caller falls back to a real
    compile) unless every one holds:

    * a registered prelude prefixes *source* (the shim header), so the
      parse environment *body_unit* was built under is the one a fresh
      compile would use; and
    * preprocessing the body is the identity (no directives, no macro
      expansion), so the text a fresh compile would parse is byte-for-byte
      the text *body_unit* prints as.

    Under those gates the result is interchangeable with a fresh
    ``compile_source(source, ...)`` — the parser/printer round-trip
    invariant (``parse(print(unit))`` re-prints identically) is covered by
    the seed-fidelity tests.  The one known divergence is AST ``line``/
    ``column`` metadata (the reused tree keeps pre-rename token positions);
    positions are consumed only by parse/semantic *error* reporting, which
    an accepted, issue-free body never reaches, and by nothing the
    analyzer, the execution engines or the feature extractor record.
    """
    for prelude in _PRELUDES.values():
        if source.startswith(prelude.text):
            break
    else:
        return None
    body_text = source[len(prelude.text):]
    preprocessor = Preprocessor(include_resolver, macro_table=prelude.macros)
    result = preprocessor.preprocess(body_text)
    if result.text != body_text:
        # A directive or macro expansion changed the body: a fresh compile
        # would parse different text than body_unit represents.
        return None
    return _merge_with_prelude(prelude, body_unit, result, source, require_kernel, strict)


def compile_source(
    source: str,
    include_resolver: IncludeResolver | None = None,
    require_kernel: bool = True,
    strict: bool = True,
) -> CompilationResult:
    """Compile OpenCL C *source* through the full frontend.

    Runs the preprocessor, parser, semantic checker and IR lowering.  With
    ``strict=True`` (the default, matching the rejection filter's behaviour)
    any semantic issue raises :class:`~repro.errors.CompileError`; with
    ``strict=False`` the issues are recorded on the result instead.

    Args:
        source: OpenCL C source text (a content file or a single kernel).
        include_resolver: Optional resolver for ``#include`` directives
            (for example, the shim header resolver).
        require_kernel: Require at least one ``__kernel`` function.
        strict: Raise on semantic issues instead of recording them.

    Returns:
        A :class:`CompilationResult`.

    Raises:
        CompileError: On preprocessing, lexing, parsing, semantic or
            lowering failures.
    """
    for prelude in _PRELUDES.values():
        if source.startswith(prelude.text):
            return _compile_with_prelude(
                prelude,
                source[len(prelude.text):],
                source,
                include_resolver,
                require_kernel,
                strict,
            )

    result = preprocess(source, include_resolver=include_resolver)
    unit = parse(result.text)
    report = check(unit, require_kernel=require_kernel)
    if strict:
        report.raise_if_failed()
    ir = lower(unit)
    return CompilationResult(
        source=source,
        preprocessed=result.text,
        unit=unit,
        ir=ir,
        semantics=report,
        included_headers=result.included_headers,
        body_unit=unit,
    )
