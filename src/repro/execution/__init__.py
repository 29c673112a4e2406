"""``repro.execution`` — a simulated OpenCL runtime.

Provides the NDRange kernel interpreter (a stand-in for a real OpenCL
driver stack), simulated memory objects, and analytic device models of the
paper's experimental platforms (Table 4).
"""

from repro.execution.device import (
    Device,
    DeviceType,
    KernelProfile,
    Platform,
    all_platforms,
    amd_platform,
    amd_tahiti_7970,
    intel_core_i7_3820,
    nvidia_gtx_970,
    nvidia_platform,
)
from repro.execution.cache import (
    GLOBAL_COMPILATION_CACHE,
    CompilationCache,
    cached_compile_source,
    compiled_kernel_for,
    run_kernel,
    vectorized_kernel_for,
)
from repro.execution.compiler import CompiledKernel, compile_kernel
from repro.execution.vectorizer import (
    VECTORIZER_STATS,
    NotVectorizable,
    VectorizedKernel,
    try_vectorize,
)
from repro.execution.interpreter import (
    ExecutionResult,
    ExecutionStats,
    KernelInterpreter,
)
from repro.execution.memory import Buffer, LockstepBuffer, MemoryPool
from repro.execution.ndrange import NDRange
from repro.execution.values import VectorValue, convert_scalar, values_equal

__all__ = [
    "Buffer",
    "CompilationCache",
    "CompiledKernel",
    "GLOBAL_COMPILATION_CACHE",
    "cached_compile_source",
    "compile_kernel",
    "compiled_kernel_for",
    "Device",
    "DeviceType",
    "ExecutionResult",
    "ExecutionStats",
    "KernelInterpreter",
    "KernelProfile",
    "LockstepBuffer",
    "MemoryPool",
    "NDRange",
    "NotVectorizable",
    "Platform",
    "VECTORIZER_STATS",
    "VectorValue",
    "VectorizedKernel",
    "try_vectorize",
    "vectorized_kernel_for",
    "all_platforms",
    "amd_platform",
    "amd_tahiti_7970",
    "convert_scalar",
    "intel_core_i7_3820",
    "nvidia_gtx_970",
    "nvidia_platform",
    "run_kernel",
    "values_equal",
]
