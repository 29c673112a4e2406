"""The dynamic checker (paper §5.2).

A synthesized kernel "performs useful work" if it predictably computes some
result.  The check runs the kernel four times over two distinct inputs
(each duplicated):

1. payloads ``A1, B1, A2, B2`` with ``A1 = A2``, ``B1 = B2``, ``A1 ≠ B1``;
2. executions ``k(A1) → A1out`` … ``k(B2) → B2out``;
3. assertions —
   * ``A1out ≠ A1in`` and ``B1out ≠ B1in``, else the kernel produced **no
     output** for these inputs;
   * ``A1out ≠ B1out`` and ``A2out ≠ B2out``, else the kernel is **input
     insensitive**;
   * ``A1out = A2out`` and ``B1out = B2out``, else the kernel is
     **non-deterministic**.

Floating-point comparisons use an epsilon, and a step-budget timeout marks
non-terminating kernels.  As in the paper this is a tailored differential
check, not a general verifier.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.clc.ast_nodes import TranslationUnit
from repro.driver.payload import Payload, PayloadConfig, PayloadGenerator
from repro.errors import ExecutionError, KernelTimeoutError
from repro.execution.cache import run_kernel
from repro.execution.interpreter import ExecutionResult


class CheckOutcome(Enum):
    """Classification of a kernel by the dynamic checker."""

    USEFUL = "useful work"
    NO_OUTPUT = "no output"
    INPUT_INSENSITIVE = "input insensitive"
    NON_DETERMINISTIC = "non-deterministic"
    TIMEOUT = "timeout"
    EXECUTION_ERROR = "execution error"
    NO_GLOBAL_OUTPUT_BUFFERS = "no writable global buffers"


@dataclass
class DynamicCheckResult:
    """The verdict plus the executions it was based on."""

    outcome: CheckOutcome
    detail: str = ""
    executions: int = 0
    representative: ExecutionResult | None = None

    @property
    def useful(self) -> bool:
        return self.outcome is CheckOutcome.USEFUL


class DynamicChecker:
    """Runs the four-execution differential check on a kernel."""

    def __init__(
        self,
        payload_config: PayloadConfig | None = None,
        epsilon: float = 1e-4,
        max_steps_per_item: int = 50_000,
        engine: str = "auto",
    ):
        self.payload_config = payload_config or PayloadConfig()
        self.epsilon = epsilon
        self.max_steps_per_item = max_steps_per_item
        self.engine = engine

    # ------------------------------------------------------------------

    def check(self, unit: TranslationUnit, kernel_name: str | None = None) -> DynamicCheckResult:
        kernels = unit.kernels
        if not kernels:
            return DynamicCheckResult(
                outcome=CheckOutcome.EXECUTION_ERROR, detail="no kernel in translation unit"
            )
        kernel = unit.kernel(kernel_name) if kernel_name else kernels[0]

        generator_a = PayloadGenerator(self._config_with_seed(self.payload_config.seed))
        generator_b = PayloadGenerator(self._config_with_seed(self.payload_config.seed + 7919))
        payload_a1 = generator_a.generate(kernel)
        payload_b1 = generator_b.generate(kernel)
        if not payload_a1.global_buffers():
            return DynamicCheckResult(outcome=CheckOutcome.NO_GLOBAL_OUTPUT_BUFFERS)
        payload_a2 = payload_a1.clone()
        payload_b2 = payload_b1.clone()

        inputs_a = self._snapshot(payload_a1)
        inputs_b = self._snapshot(payload_b1)

        executions = 0
        results = []
        try:
            # One compilation serves all four differential executions (the
            # compiled engine is fetched from the process-wide cache).
            for payload in (payload_a1, payload_b1, payload_a2, payload_b2):
                results.append(
                    run_kernel(
                        unit,
                        payload.pool,
                        payload.scalar_args,
                        payload.ndrange,
                        kernel_name=kernel.name,
                        max_steps_per_item=self.max_steps_per_item,
                        engine=self.engine,
                    )
                )
                executions += 1
        except KernelTimeoutError as error:
            return DynamicCheckResult(
                outcome=CheckOutcome.TIMEOUT, detail=str(error), executions=executions
            )
        except ExecutionError as error:
            return DynamicCheckResult(
                outcome=CheckOutcome.EXECUTION_ERROR, detail=str(error), executions=executions
            )

        out_a1 = self._snapshot(payload_a1)
        out_b1 = self._snapshot(payload_b1)
        out_a2 = self._snapshot(payload_a2)
        out_b2 = self._snapshot(payload_b2)

        if self._equal(out_a1, inputs_a) and self._equal(out_b1, inputs_b):
            return DynamicCheckResult(
                outcome=CheckOutcome.NO_OUTPUT,
                detail="outputs identical to inputs",
                executions=executions,
                representative=results[0],
            )
        if self._equal(out_a1, out_b1) and self._equal(out_a2, out_b2):
            return DynamicCheckResult(
                outcome=CheckOutcome.INPUT_INSENSITIVE,
                detail="different inputs produced identical outputs",
                executions=executions,
                representative=results[0],
            )
        if not self._equal(out_a1, out_a2) or not self._equal(out_b1, out_b2):
            return DynamicCheckResult(
                outcome=CheckOutcome.NON_DETERMINISTIC,
                detail="identical inputs produced different outputs",
                executions=executions,
                representative=results[0],
            )
        return DynamicCheckResult(
            outcome=CheckOutcome.USEFUL, executions=executions, representative=results[0]
        )

    # ------------------------------------------------------------------

    def _config_with_seed(self, seed: int) -> PayloadConfig:
        return PayloadConfig(
            global_size=self.payload_config.global_size,
            local_size=self.payload_config.local_size,
            seed=seed,
            value_range=self.payload_config.value_range,
        )

    @staticmethod
    def _snapshot(payload: Payload) -> dict[str, list]:
        return {
            name: buffer.to_list()
            for name, buffer in payload.pool.buffers.items()
            if buffer.address_space == "global"
        }

    def _equal(self, left: dict[str, list], right: dict[str, list]) -> bool:
        from repro.execution.values import values_equal

        if left.keys() != right.keys():
            return False
        for name in left:
            a, b = left[name], right[name]
            if len(a) != len(b):
                return False
            if not all(values_equal(x, y, self.epsilon) for x, y in zip(a, b)):
                return False
        return True
