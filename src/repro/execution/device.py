"""Analytic device models for the experimental platforms of Table 4.

The paper measures kernels on a Core i7-3820 CPU, an AMD Tahiti 7970 and an
NVIDIA GTX 970.  Since no OpenCL hardware is available to this reproduction,
each device is modelled analytically from its headline characteristics
(throughput, memory bandwidth, PCIe transfer bandwidth, launch overhead) plus
first-order GPU effects — coalescing efficiency, branch divergence and
occupancy — which are exactly the effects the Grewe et al. features were
designed to capture.  The absolute times are not meaningful; the *relative*
CPU/GPU decision boundary is, and that is what the predictive-modeling
experiments consume.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.execution.interpreter import ExecutionStats


class DeviceType(Enum):
    CPU = "cpu"
    GPU = "gpu"


@dataclass(frozen=True)
class Device:
    """An analytically modelled OpenCL device."""

    name: str
    device_type: DeviceType
    cores: int
    frequency_mhz: float
    peak_gflops: float
    memory_bandwidth_gbs: float
    transfer_bandwidth_gbs: float
    launch_overhead_us: float
    memory_gb: float
    #: Effective fraction of peak throughput achievable by straight-line code.
    compute_efficiency: float = 0.6
    #: Bandwidth fraction achieved by fully uncoalesced access patterns.
    uncoalesced_efficiency: float = 0.15
    #: SIMD/warp width used for the divergence penalty.
    simd_width: int = 32

    @property
    def is_gpu(self) -> bool:
        return self.device_type is DeviceType.GPU

    # ------------------------------------------------------------------
    # Cost model.
    # ------------------------------------------------------------------

    def estimate_runtime(self, profile: "KernelProfile") -> float:
        """Estimated wall-clock execution time in seconds (including transfers)."""
        compute_seconds = self._compute_time(profile)
        memory_seconds = self._memory_time(profile)
        kernel_seconds = max(compute_seconds, memory_seconds)
        if self.is_gpu:
            kernel_seconds *= 1.0 + 1.5 * profile.divergence_fraction
            kernel_seconds += profile.local_traffic_bytes / (self.memory_bandwidth_gbs * 4e9 + 1)
        transfer_seconds = self._transfer_time(profile)
        overhead_seconds = self.launch_overhead_us * 1e-6
        return kernel_seconds + transfer_seconds + overhead_seconds

    def _occupancy(self, profile: "KernelProfile") -> float:
        """How much of the device the launch can keep busy."""
        if not self.is_gpu:
            parallel_capacity = self.cores * 8  # cores × SIMD lanes
            return min(1.0, max(profile.work_items, 1) / parallel_capacity) or 1.0
        resident_capacity = self.cores * 8
        occupancy = min(1.0, max(profile.work_items, 1) / resident_capacity)
        # Small work-groups underutilise compute units.
        if profile.work_group_size and profile.work_group_size < self.simd_width:
            occupancy *= profile.work_group_size / self.simd_width
        return max(occupancy, 1e-3)

    def _compute_time(self, profile: "KernelProfile") -> float:
        effective_gflops = self.peak_gflops * self.compute_efficiency * self._occupancy(profile)
        return profile.total_operations / (effective_gflops * 1e9 + 1)

    def _memory_time(self, profile: "KernelProfile") -> float:
        bandwidth = self.memory_bandwidth_gbs * 1e9
        if self.is_gpu:
            efficiency = (
                profile.coalesced_fraction
                + (1.0 - profile.coalesced_fraction) * self.uncoalesced_efficiency
            )
            bandwidth *= max(efficiency, self.uncoalesced_efficiency)
        else:
            # Caches hide most irregularity on the CPU.
            bandwidth *= 0.8
        return profile.global_traffic_bytes / (bandwidth + 1)

    def _transfer_time(self, profile: "KernelProfile") -> float:
        if not self.is_gpu:
            return 0.0
        bandwidth = self.transfer_bandwidth_gbs * 1e9
        per_transfer_overhead = 10e-6
        transfers = max(profile.transfer_count, 1)
        return profile.transfer_bytes / (bandwidth + 1) + per_transfer_overhead * transfers


@dataclass
class KernelProfile:
    """Everything the cost model needs to know about one kernel execution.

    Typically built from interpreter :class:`ExecutionStats` measured on a
    (possibly reduced) NDRange and then scaled to the full payload size with
    :meth:`scaled`.
    """

    work_items: int
    work_group_size: int
    total_operations: float
    global_traffic_bytes: float
    local_traffic_bytes: float
    coalesced_fraction: float
    divergence_fraction: float
    transfer_bytes: float
    transfer_count: int = 2

    @classmethod
    def from_stats(
        cls,
        stats: ExecutionStats,
        coalesced_fraction: float,
        transfer_bytes: float,
        work_group_size: int,
        element_bytes: int = 4,
        transfer_count: int = 2,
    ) -> "KernelProfile":
        return cls(
            work_items=max(stats.work_items, 1),
            work_group_size=work_group_size,
            total_operations=float(stats.dynamic_operations),
            global_traffic_bytes=float(stats.global_accesses * element_bytes),
            local_traffic_bytes=float(stats.local_accesses * element_bytes),
            coalesced_fraction=coalesced_fraction,
            divergence_fraction=stats.divergence_fraction,
            transfer_bytes=transfer_bytes,
            transfer_count=transfer_count,
        )

    def scaled(self, factor: float) -> "KernelProfile":
        """Scale per-work-item quantities to a payload *factor* times larger."""
        factor = max(factor, 1e-9)
        return KernelProfile(
            work_items=int(self.work_items * factor),
            work_group_size=self.work_group_size,
            total_operations=self.total_operations * factor,
            global_traffic_bytes=self.global_traffic_bytes * factor,
            local_traffic_bytes=self.local_traffic_bytes * factor,
            coalesced_fraction=self.coalesced_fraction,
            divergence_fraction=self.divergence_fraction,
            transfer_bytes=self.transfer_bytes * factor,
            transfer_count=self.transfer_count,
        )


# ---------------------------------------------------------------------------
# The experimental platforms of Table 4.
# ---------------------------------------------------------------------------


def intel_core_i7_3820() -> Device:
    """The host CPU used in both experimental platforms."""
    return Device(
        name="Intel Core i7-3820",
        device_type=DeviceType.CPU,
        cores=4,
        frequency_mhz=3600,
        peak_gflops=105,
        memory_bandwidth_gbs=51.2,
        transfer_bandwidth_gbs=0.0,
        launch_overhead_us=15.0,
        memory_gb=8.0,
        # OpenCL CPU runtimes rarely auto-vectorise irregular kernels, so the
        # sustained fraction of the AVX peak is low.
        compute_efficiency=0.35,
        simd_width=8,
    )


def amd_tahiti_7970() -> Device:
    """The AMD GPU of the first experimental platform."""
    return Device(
        name="AMD Tahiti 7970",
        device_type=DeviceType.GPU,
        cores=2048,
        frequency_mhz=1000,
        peak_gflops=3790,
        memory_bandwidth_gbs=264,
        transfer_bandwidth_gbs=5.0,
        launch_overhead_us=40.0,
        memory_gb=3.0,
        compute_efficiency=0.55,
        # Tahiti's L2 + wide memory bus soften the uncoalesced-access penalty
        # relative to a naive every-access-is-DRAM model.
        uncoalesced_efficiency=0.25,
        simd_width=64,
    )


def nvidia_gtx_970() -> Device:
    """The NVIDIA GPU of the second experimental platform."""
    return Device(
        name="NVIDIA GTX 970",
        device_type=DeviceType.GPU,
        cores=1664,
        frequency_mhz=1050,
        peak_gflops=3900,
        memory_bandwidth_gbs=224,
        # The NVIDIA system sits on a full PCIe 3.0 x16 link and a leaner
        # driver stack, which is why the paper's best static mapping is
        # GPU-only on this platform but CPU-only on the AMD one.
        transfer_bandwidth_gbs=11.0,
        launch_overhead_us=18.0,
        memory_gb=4.0,
        compute_efficiency=0.6,
        uncoalesced_efficiency=0.35,
        simd_width=32,
    )


@dataclass(frozen=True)
class Platform:
    """A CPU + GPU pair, as used in the paper's two experimental systems."""

    name: str
    cpu: Device
    gpu: Device

    def runtimes(self, profile: KernelProfile) -> dict[str, float]:
        """Estimated runtime on each device of the platform."""
        return {"cpu": self.cpu.estimate_runtime(profile), "gpu": self.gpu.estimate_runtime(profile)}

    def oracle_device(self, profile: KernelProfile) -> str:
        """The faster device ("cpu" or "gpu") for this kernel/payload."""
        times = self.runtimes(profile)
        return "cpu" if times["cpu"] <= times["gpu"] else "gpu"


def amd_platform() -> Platform:
    """Core i7-3820 + AMD Tahiti 7970 (the paper's first system)."""
    return Platform(name="AMD", cpu=intel_core_i7_3820(), gpu=amd_tahiti_7970())


def nvidia_platform() -> Platform:
    """Core i7-3820 + NVIDIA GTX 970 (the paper's second system)."""
    return Platform(name="NVIDIA", cpu=intel_core_i7_3820(), gpu=nvidia_gtx_970())


def all_platforms() -> list[Platform]:
    return [amd_platform(), nvidia_platform()]
