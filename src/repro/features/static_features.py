"""Static code features (Table 2a of the paper).

The four static features of the Grewe et al. model — compute operations,
global memory accesses, local memory accesses and coalesced memory accesses
— plus the *branch* feature added in §8.2, are all defined over the PTX-like
IR produced by :mod:`repro.clc.codegen`, giving a single consistent
definition for the rejection filter, the feature extractor and the
feature-space comparisons of Figure 9.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.clc import CompilationResult, compile_source
from repro.clc.ir import IRFunction
from repro.errors import CompileError
from repro.preprocess.shim import shim_include_resolver, with_shim


@dataclass(frozen=True)
class StaticFeatures:
    """Static per-kernel feature counts."""

    comp: int  #: number of compute operations
    mem: int  #: number of accesses to global memory
    localmem: int  #: number of accesses to local memory
    coalesced: int  #: number of coalesced global memory accesses
    branches: int  #: number of branching operations (the §8.2 extension)
    static_instructions: int = 0

    def as_tuple(self) -> tuple[int, int, int, int]:
        """The Table 2a quadruple (without the branch extension)."""
        return (self.comp, self.mem, self.localmem, self.coalesced)

    def as_extended_tuple(self) -> tuple[int, int, int, int, int]:
        """The quadruple plus the branch feature."""
        return (self.comp, self.mem, self.localmem, self.coalesced, self.branches)

    @classmethod
    def from_ir_function(cls, function: IRFunction) -> "StaticFeatures":
        return cls(
            comp=function.compute_operations,
            mem=function.global_memory_accesses,
            localmem=function.local_memory_accesses,
            coalesced=function.coalesced_memory_accesses,
            branches=function.branch_operations,
            static_instructions=function.static_instruction_count,
        )

    @classmethod
    def from_compilation(
        cls, compilation: CompilationResult, kernel_name: str | None = None
    ) -> "StaticFeatures":
        """Features of one kernel (plus its helper functions' contributions)."""
        kernels = compilation.unit.kernels
        if not kernels:
            raise ValueError("compilation contains no kernels")
        target = kernel_name or kernels[0].name
        ir_function = compilation.ir.function(target)
        features = cls.from_ir_function(ir_function)

        # Helper functions called from the kernel contribute their operations
        # too (a compiler would inline them); add them once each.
        helper_totals = [
            cls.from_ir_function(f)
            for f in compilation.ir.functions
            if not f.is_kernel
        ]
        if not helper_totals:
            return features
        return cls(
            comp=features.comp + sum(h.comp for h in helper_totals),
            mem=features.mem + sum(h.mem for h in helper_totals),
            localmem=features.localmem + sum(h.localmem for h in helper_totals),
            coalesced=features.coalesced + sum(h.coalesced for h in helper_totals),
            branches=features.branches + sum(h.branches for h in helper_totals),
            static_instructions=features.static_instructions
            + sum(h.static_instructions for h in helper_totals),
        )


def extract_static_features(
    source: str, kernel_name: str | None = None
) -> StaticFeatures | None:
    """Compile *source* (with the shim) and extract static features.

    Returns ``None`` if the source does not compile — mirroring how kernels
    that fail to build are excluded from feature-space comparisons.
    """
    try:
        compilation = compile_source(
            with_shim(source), include_resolver=shim_include_resolver, strict=False
        )
    except CompileError:
        return None
    if not compilation.unit.kernels:
        return None
    return StaticFeatures.from_compilation(compilation, kernel_name)
