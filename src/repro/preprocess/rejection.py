"""The rejection filter (paper §4.1).

"The rejection filter accepts as input a content file and returns whether or
not it contains compilable, executable OpenCL code.  To do this we attempt
to compile the input to NVIDIA PTX bytecode and perform static analysis to
ensure a minimum static instruction count of three."

Here the compilation step uses the pure-Python frontend of :mod:`repro.clc`
and its PTX-like IR; the decision logic is identical: reject anything that
does not compile, contains no kernel, or lowers to fewer than three static
instructions.  The same filter is applied both to mined GitHub content files
and to candidate kernels sampled from the language model (§4.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.clc import CompilationResult, compile_source
from repro.errors import CompileError
from repro.preprocess.shim import shim_include_resolver, with_shim


class RejectionReason(Enum):
    """Why a content file or candidate kernel was rejected."""

    NONE = "accepted"
    PREPROCESSOR_ERROR = "preprocessor error"
    LEXER_ERROR = "lexer error"
    PARSE_ERROR = "parse error"
    UNDECLARED_IDENTIFIER = "undeclared identifier"
    UNDECLARED_FUNCTION = "undeclared function"
    WRONG_ARITY = "wrong call arity"
    VOID_RETURN_VALUE = "value returned from void function"
    NO_KERNEL = "no kernel function"
    TOO_FEW_INSTRUCTIONS = "fewer than minimum static instructions"
    CODEGEN_ERROR = "code generation error"


@dataclass
class RejectionResult:
    """The verdict of the rejection filter for one input."""

    accepted: bool
    reason: RejectionReason
    detail: str = ""
    compilation: CompilationResult | None = None

    @property
    def kernel_count(self) -> int:
        if self.compilation is None:
            return 0
        return len(self.compilation.kernels)


class RejectionFilter:
    """Accepts compilable, executable OpenCL inputs; rejects everything else."""

    def __init__(self, min_static_instructions: int = 3, use_shim: bool = True):
        self.min_static_instructions = min_static_instructions
        self.use_shim = use_shim

    def check(self, source: str) -> RejectionResult:
        """Classify *source*; never raises."""
        text = with_shim(source) if self.use_shim else source
        try:
            compilation = compile_source(
                text,
                include_resolver=shim_include_resolver,
                require_kernel=True,
                strict=False,
            )
        except CompileError as error:
            return RejectionResult(
                accepted=False, reason=self._classify_compile_error(error), detail=str(error)
            )

        report = compilation.semantics
        if not report.ok:
            first = report.issues[0]
            if first.kind == "no-kernel":
                return RejectionResult(
                    accepted=False,
                    reason=RejectionReason.NO_KERNEL,
                    detail=first.message,
                    compilation=compilation,
                )
            reason = {
                "undeclared-function": RejectionReason.UNDECLARED_FUNCTION,
                "wrong-arity": RejectionReason.WRONG_ARITY,
                "void-return-value": RejectionReason.VOID_RETURN_VALUE,
            }.get(first.kind, RejectionReason.UNDECLARED_IDENTIFIER)
            return RejectionResult(
                accepted=False, reason=reason, detail=first.message, compilation=compilation
            )

        # Count only the instructions of kernel functions plus their helpers,
        # excluding anything the shim itself might contribute.
        instruction_count = sum(
            function.static_instruction_count for function in compilation.ir.functions
        )
        if instruction_count < self.min_static_instructions:
            return RejectionResult(
                accepted=False,
                reason=RejectionReason.TOO_FEW_INSTRUCTIONS,
                detail=f"{instruction_count} static instructions",
                compilation=compilation,
            )

        return RejectionResult(
            accepted=True, reason=RejectionReason.NONE, compilation=compilation
        )

    def accepts(self, source: str) -> bool:
        """Convenience wrapper returning only the verdict."""
        return self.check(source).accepted

    @staticmethod
    def _classify_compile_error(error: CompileError) -> RejectionReason:
        from repro.errors import (  # local import to avoid a cycle at module load
            LexerError,
            ParseError,
            PreprocessorError,
            SemanticError,
        )

        if isinstance(error, PreprocessorError):
            return RejectionReason.PREPROCESSOR_ERROR
        if isinstance(error, LexerError):
            return RejectionReason.LEXER_ERROR
        if isinstance(error, ParseError):
            return RejectionReason.PARSE_ERROR
        if isinstance(error, SemanticError):
            return RejectionReason.UNDECLARED_IDENTIFIER
        return RejectionReason.CODEGEN_ERROR

