"""Exception hierarchy shared across the reproduction.

Every user-facing failure mode in the pipeline maps to one of these
exception classes so that callers (the rejection filter, the host driver,
the experiment harness) can discriminate *why* a kernel was rejected or an
execution failed without string-matching error messages.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class CompileError(ReproError):
    """The OpenCL C frontend could not compile an input.

    Attributes:
        message: Human readable description of the problem.
        line: 1-based source line on which the error was detected, if known.
        column: 1-based source column, if known.
    """

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.message = message
        self.line = line
        self.column = column
        location = ""
        if line is not None:
            location = f"{line}:{column or 0}: "
        super().__init__(f"{location}{message}")


class PreprocessorError(CompileError):
    """Raised for malformed preprocessor directives or unresolvable includes."""


class LexerError(CompileError):
    """Raised when the character stream cannot be tokenized."""


class ParseError(CompileError):
    """Raised when the token stream is not valid OpenCL C (our subset)."""


class SemanticError(CompileError):
    """Raised for undeclared identifiers, call-arity mismatches and the like."""


class CodegenError(CompileError):
    """Raised when a well-formed AST cannot be lowered to IR."""


class RewriterError(ReproError):
    """Raised when the source normalizer cannot rewrite an input."""


class ExecutionError(ReproError):
    """Base class for failures while executing a kernel on a simulated device."""


class KernelTimeoutError(ExecutionError):
    """The kernel exceeded the simulated execution budget (possible non-termination)."""


class KernelRuntimeError(ExecutionError):
    """The kernel performed an illegal operation (out-of-bounds access, etc.)."""


class LockstepBailout(ReproError):
    """The vectorized (SIMT) execution tier cannot preserve scalar semantics.

    Raised internally when a lockstep execution encounters a construct whose
    NumPy lowering would diverge from the scalar engines (memory hazards,
    int64 overflow, per-lane type divergence, step-budget overrun).  The
    engine router catches it and transparently re-executes the kernel on
    the closure engine — the memory pool is untouched at raise time, so the
    fallback is exact.  A :class:`LockstepHazard` is first replayed in
    smaller chunks by the lockstep tier itself.
    """


class LockstepHazard(LockstepBailout):
    """A memory-ordering hazard between lanes or work-groups of one chunk.

    These are the bailouts the lockstep tier replays: it runs the launch
    again with at most half as many work-groups per chunk, down to one,
    before the router falls back to the closure engine.  Every other
    bailout falls back at once, among them a barrier that the groups of a
    multi-group chunk reach divergently, although one group per chunk
    might complete it.

    Attributes:
        groups: Work-groups in the chunk the hazard stopped, set by the
            lockstep tier as the hazard leaves the chunk.
    """

    groups = 1


class PayloadError(ReproError):
    """The host driver could not construct a payload for a kernel signature."""


class DynamicCheckError(ReproError):
    """The dynamic checker determined that a kernel does not perform useful work."""


class ModelError(ReproError):
    """Raised for language-model configuration or checkpointing problems."""


class SynthesisError(ReproError):
    """Raised when the synthesizer cannot produce a candidate kernel."""


class BenchmarkError(ReproError):
    """Raised for problems loading or executing benchmark-suite programs."""


class PlanFailed(ReproError):
    """A queue-drained pipeline plan cannot complete: one of its tasks
    failed its whole retry budget and was quarantined.

    Raised by every worker awaiting or claiming the poison task — instead
    of the fleet re-stealing and re-crashing the same shard forever, the
    plan fails loudly in each participant, naming the task.  The full
    structured record (worker ids, per-attempt errors, tracebacks) lives in
    the failure artifact under ``queue/failures/`` in the store.

    Attributes:
        task_id: Store key of the quarantined task.
        record: The failure artifact's contents (may be empty if unreadable).
    """

    def __init__(self, task_id: str, record: dict | None = None):
        self.task_id = task_id
        self.record = record or {}
        attempts = self.record.get("attempts", [])
        last = attempts[-1].get("error", "unknown error") if attempts else "unknown error"
        super().__init__(
            f"task {task_id[:12]} quarantined after {len(attempts)} failed "
            f"attempt(s); last error: {last}"
        )
