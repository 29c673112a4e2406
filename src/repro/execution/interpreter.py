"""An NDRange interpreter for OpenCL kernels.

This module stands in for a real OpenCL runtime: it executes a parsed kernel
over every work-item of an :class:`NDRange`, with global and local memory,
work-group barriers, vector values and the common built-in functions.  Two
things come out of an execution:

* the final contents of all buffers — consumed by the dynamic checker
  (§5.2 of the paper) to decide whether a synthesized kernel "performs
  useful work", and
* dynamic execution statistics (instruction counts, memory traffic, branch
  divergence) — consumed by the device cost models to estimate CPU and GPU
  runtimes for the predictive-modeling experiments.

Work-items of a work-group are interleaved co-operatively: each work-item
runs as a Python generator that yields at ``barrier()`` calls, so kernels
that stage data through ``__local`` memory behave correctly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.clc import ast_nodes as ast
from repro.clc.builtins import SYNC_FUNCTIONS, WORK_ITEM_FUNCTIONS
from repro.clc.types import AddressSpace, PointerType, VectorType
from repro.errors import ExecutionError, KernelRuntimeError, KernelTimeoutError
from repro.execution.builtins_impl import evaluate_builtin
from repro.execution.memory import Buffer, MemoryPool
from repro.execution.ndrange import NDRange
from repro.execution.ops import (
    BARRIER as _BARRIER,
    BreakSignal as _Break,
    ContinueSignal as _Continue,
    ReturnSignal as _Return,
    apply_atomic,
    apply_binary,
    as_index,
    coerce_declared,
    collect_memory_stats,
    element_kind_of,
    eval_sizeof,
    lookup_constant_or_zero,
    store_to_identifier,
    truthy,
)
from repro.execution.values import VectorValue, convert_scalar


@dataclass
class ExecutionStats:
    """Aggregate dynamic statistics from one kernel execution."""

    work_items: int = 0
    work_groups: int = 0
    dynamic_operations: int = 0
    global_reads: int = 0
    global_writes: int = 0
    local_accesses: int = 0
    private_accesses: int = 0
    branch_evaluations: int = 0
    divergent_branch_sites: int = 0
    branch_sites: int = 0
    barriers_hit: int = 0
    helper_calls: int = 0
    out_of_bounds_accesses: int = 0

    @property
    def global_accesses(self) -> int:
        return self.global_reads + self.global_writes

    @property
    def divergence_fraction(self) -> float:
        """Fraction of static branch sites that saw divergent outcomes."""
        if self.branch_sites == 0:
            return 0.0
        return self.divergent_branch_sites / self.branch_sites


@dataclass
class ExecutionResult:
    """The outcome of executing one kernel over one NDRange."""

    kernel_name: str
    pool: MemoryPool
    stats: ExecutionStats
    returned_scalars: dict[str, object] = field(default_factory=dict)

    def buffer(self, name: str) -> Buffer:
        found = self.pool.get(name)
        if found is None:
            raise KeyError(name)
        return found


#: Bound on nested user-function calls per work-item.  OpenCL C forbids
#: recursion outright, so any chain this deep is a non-conformant kernel
#: (e.g. a synthesized kernel calling itself); both execution engines raise
#: :class:`ExecutionError` at the same depth so the driver excludes the
#: kernel identically whichever engine ran it — instead of dying on a
#: Python ``RecursionError`` mid-measurement.
MAX_CALL_DEPTH = 64


@dataclass
class _WorkItem:
    """Per-work-item execution context."""

    global_id: tuple[int, ...]
    local_id: tuple[int, ...]
    group_id: tuple[int, ...]
    env: dict = field(default_factory=dict)
    steps: int = 0
    call_depth: int = 0


class KernelInterpreter:
    """Executes one kernel of a translation unit over an NDRange."""

    def __init__(
        self,
        unit: ast.TranslationUnit,
        kernel_name: str | None = None,
        max_steps_per_item: int = 50_000,
    ):
        self._unit = unit
        kernels = unit.kernels
        if not kernels:
            raise ExecutionError("translation unit contains no kernels")
        if kernel_name is None:
            self._kernel = kernels[0]
        else:
            self._kernel = unit.kernel(kernel_name)
        self._functions = {f.name: f for f in unit.functions if f.body is not None}
        self._max_steps = max_steps_per_item
        self._globals_env: dict = {}
        self._stats = ExecutionStats()
        self._branch_outcomes: dict[tuple[int, int], set[bool]] = {}
        self._ndrange: NDRange | None = None
        self._group_locals: dict = {}

    @property
    def kernel(self) -> ast.FunctionDecl:
        return self._kernel

    # ------------------------------------------------------------------
    # Public API.
    # ------------------------------------------------------------------

    def execute(
        self,
        pool: MemoryPool,
        scalar_args: dict[str, object],
        ndrange: NDRange,
    ) -> ExecutionResult:
        """Run the kernel.

        Args:
            pool: Memory pool containing a buffer for every pointer argument
                (keyed by argument name).
            scalar_args: Values for the scalar arguments, keyed by name.
            ndrange: The launch configuration.

        Returns:
            An :class:`ExecutionResult` with final buffer contents and stats.

        Raises:
            KernelTimeoutError: If any work-item exceeds the step budget.
            ExecutionError: For launch-configuration problems.
        """
        self._stats = ExecutionStats()
        self._branch_outcomes = {}
        self._ndrange = ndrange
        self._init_globals()

        for buffer in pool.buffers.values():
            buffer.stats.reads = 0
            buffer.stats.writes = 0
            buffer.stats.out_of_bounds = 0

        for group_index, group_id in enumerate(ndrange.group_ids()):
            self._stats.work_groups += 1
            self._group_locals = {}
            self._execute_group(group_index, group_id, pool, scalar_args, ndrange)

        self._collect_memory_stats(pool)
        self._stats.branch_sites = len(self._branch_outcomes)
        self._stats.divergent_branch_sites = sum(
            1 for outcomes in self._branch_outcomes.values() if len(outcomes) > 1
        )
        return ExecutionResult(kernel_name=self._kernel.name, pool=pool, stats=self._stats)

    # ------------------------------------------------------------------
    # Group / work-item scheduling.
    # ------------------------------------------------------------------

    def _execute_group(
        self,
        group_index: int,
        group_id: tuple[int, ...],
        pool: MemoryPool,
        scalar_args: dict[str, object],
        ndrange: NDRange,
    ) -> None:
        items: list[_WorkItem] = []
        runners = []
        for local_id in ndrange.local_ids():
            global_id = ndrange.global_id(group_id, local_id)
            if not ndrange.in_range(global_id):
                continue
            item = _WorkItem(global_id=global_id, local_id=local_id, group_id=group_id)
            item.env = self._bind_arguments(pool, scalar_args)
            items.append(item)
            runners.append(self._run_work_item(item, group_index))
            self._stats.work_items += 1

        # Co-operative lock-step execution: advance every work-item until it
        # either finishes or reaches a barrier; repeat until all finish.
        active = list(runners)
        while active:
            still_active = []
            for runner in active:
                try:
                    signal = next(runner)
                    while signal is not _BARRIER:
                        signal = next(runner)
                    still_active.append(runner)
                except StopIteration:
                    pass
            if still_active:
                self._stats.barriers_hit += 1
            active = still_active

    def _bind_arguments(self, pool: MemoryPool, scalar_args: dict[str, object]) -> dict:
        env: dict = dict(self._globals_env)
        for parameter in self._kernel.parameters:
            name = parameter.name
            if isinstance(parameter.declared_type, PointerType):
                buffer = pool.get(name)
                if buffer is None:
                    raise ExecutionError(f"no buffer bound for pointer argument {name!r}")
                env[name] = buffer
            else:
                if name in scalar_args:
                    env[name] = scalar_args[name]
                else:
                    env[name] = 0
        return env

    def _run_work_item(self, item: _WorkItem, group_index: int):
        try:
            yield from self._exec_statement(self._kernel.body, item, group_index)
        except _Return:
            pass
        except (_Break, _Continue):
            pass

    def _init_globals(self) -> None:
        self._globals_env = {}
        for declaration in self._unit.globals:
            declarator = declaration.declarator
            if declarator is None:
                continue
            value = 0
            if declarator.initializer is not None:
                dummy = _WorkItem(global_id=(0,), local_id=(0,), group_id=(0,))
                dummy.env = dict(self._globals_env)
                try:
                    value = self._eval(declarator.initializer, dummy, 0)
                except Exception:
                    value = 0
            self._globals_env[declarator.name] = value

    def _collect_memory_stats(self, pool: MemoryPool) -> None:
        collect_memory_stats(self._stats, pool, self._group_locals)

    # ------------------------------------------------------------------
    # Statements (generators: yield _BARRIER at work-group barriers).
    # ------------------------------------------------------------------

    def _bump(self, item: _WorkItem, cost: int = 1) -> None:
        item.steps += cost
        self._stats.dynamic_operations += cost
        if item.steps > self._max_steps:
            raise KernelTimeoutError(
                f"work-item {item.global_id} exceeded {self._max_steps} steps "
                f"in kernel {self._kernel.name!r}"
            )

    def _exec_statement(self, statement: ast.Statement | None, item: _WorkItem, group_index: int):
        if statement is None or isinstance(statement, ast.EmptyStmt):
            return
        self._bump(item)

        if isinstance(statement, ast.CompoundStmt):
            for child in statement.statements:
                yield from self._exec_statement(child, item, group_index)
        elif isinstance(statement, ast.DeclStmt):
            self._exec_declaration(statement, item, group_index)
        elif isinstance(statement, ast.ExprStmt):
            if statement.expression is not None:
                if self._is_barrier_call(statement.expression):
                    self._stats.dynamic_operations += 1
                    yield _BARRIER
                else:
                    self._eval(statement.expression, item, group_index)
        elif isinstance(statement, ast.IfStmt):
            condition = self._truthy(self._eval(statement.condition, item, group_index))
            self._record_branch(statement, group_index, condition)
            if condition:
                yield from self._exec_statement(statement.then_branch, item, group_index)
            elif statement.else_branch is not None:
                yield from self._exec_statement(statement.else_branch, item, group_index)
        elif isinstance(statement, ast.ForStmt):
            yield from self._exec_for(statement, item, group_index)
        elif isinstance(statement, ast.WhileStmt):
            yield from self._exec_while(statement, item, group_index)
        elif isinstance(statement, ast.DoWhileStmt):
            yield from self._exec_do_while(statement, item, group_index)
        elif isinstance(statement, ast.ReturnStmt):
            value = (
                self._eval(statement.value, item, group_index)
                if statement.value is not None
                else None
            )
            raise _Return(value)
        elif isinstance(statement, ast.BreakStmt):
            raise _Break()
        elif isinstance(statement, ast.ContinueStmt):
            raise _Continue()
        elif isinstance(statement, ast.SwitchStmt):
            yield from self._exec_switch(statement, item, group_index)
        else:
            raise KernelRuntimeError(f"cannot execute statement {type(statement).__name__}")

    def _exec_declaration(self, statement: ast.DeclStmt, item: _WorkItem, group_index: int) -> None:
        for declarator in statement.declarators:
            if declarator.address_space is AddressSpace.LOCAL or (
                isinstance(declarator.declared_type, PointerType)
                and declarator.declared_type.address_space is AddressSpace.LOCAL
                and declarator.array_size is not None
            ):
                item.env[declarator.name] = self._group_local_buffer(declarator, item, group_index)
                continue
            if declarator.array_size is not None:
                size = int(self._eval(declarator.array_size, item, group_index) or 0)
                element_kind, width = self._element_kind_of(declarator)
                item.env[declarator.name] = Buffer(
                    declarator.name,
                    max(size, 1),
                    element_kind,
                    width,
                    address_space="private",
                )
                continue
            value = 0
            if declarator.initializer is not None:
                value = self._eval(declarator.initializer, item, group_index)
            value = self._coerce_declared(declarator, value)
            item.env[declarator.name] = value

    def _group_local_buffer(self, declarator: ast.Declarator, item: _WorkItem, group_index: int):
        existing = self._group_locals.get(declarator.name)
        if existing is not None:
            return existing
        size = 64
        if declarator.array_size is not None:
            size = int(self._eval(declarator.array_size, item, group_index) or 64)
        element_kind, width = self._element_kind_of(declarator)
        buffer = Buffer(declarator.name, max(size, 1), element_kind, width, address_space="local")
        self._group_locals[declarator.name] = buffer
        return buffer

    @staticmethod
    def _element_kind_of(declarator: ast.Declarator) -> tuple[str, int]:
        return element_kind_of(declarator)

    def _coerce_declared(self, declarator: ast.Declarator, value):
        return coerce_declared(declarator, value)

    def _exec_for(self, statement: ast.ForStmt, item: _WorkItem, group_index: int):
        if statement.init is not None:
            # Init is a statement but cannot contain barriers in practice.
            for _ in self._exec_statement(statement.init, item, group_index):
                pass
        while True:
            if statement.condition is not None:
                condition = self._truthy(self._eval(statement.condition, item, group_index))
                self._stats.branch_evaluations += 1
                if not condition:
                    break
            try:
                yield from self._exec_statement(statement.body, item, group_index)
            except _Break:
                break
            except _Continue:
                pass
            if statement.increment is not None:
                self._eval(statement.increment, item, group_index)

    def _exec_while(self, statement: ast.WhileStmt, item: _WorkItem, group_index: int):
        while True:
            condition = self._truthy(self._eval(statement.condition, item, group_index))
            self._stats.branch_evaluations += 1
            if not condition:
                break
            try:
                yield from self._exec_statement(statement.body, item, group_index)
            except _Break:
                break
            except _Continue:
                continue

    def _exec_do_while(self, statement: ast.DoWhileStmt, item: _WorkItem, group_index: int):
        while True:
            try:
                yield from self._exec_statement(statement.body, item, group_index)
            except _Break:
                break
            except _Continue:
                pass
            condition = self._truthy(self._eval(statement.condition, item, group_index))
            self._stats.branch_evaluations += 1
            if not condition:
                break

    def _exec_switch(self, statement: ast.SwitchStmt, item: _WorkItem, group_index: int):
        value = self._eval(statement.condition, item, group_index)
        matched = False
        try:
            for case in statement.cases:
                if not matched:
                    if case.value is None:
                        matched = True
                    else:
                        case_value = self._eval(case.value, item, group_index)
                        matched = value == case_value
                if matched:
                    for child in case.body:
                        yield from self._exec_statement(child, item, group_index)
        except _Break:
            pass

    def _record_branch(self, statement: ast.Statement, group_index: int, outcome: bool) -> None:
        """Record an ``if`` outcome for SIMD-divergence accounting.

        Only data-dependent ``if`` statements are tracked: loop conditions
        trivially see both outcomes over the iterations of a single work-item
        and would otherwise always read as "divergent".
        """
        self._stats.branch_evaluations += 1
        key = (id(statement), group_index)
        self._branch_outcomes.setdefault(key, set()).add(outcome)

    @staticmethod
    def _is_barrier_call(expression: ast.Expression) -> bool:
        return isinstance(expression, ast.Call) and expression.callee in SYNC_FUNCTIONS

    # ------------------------------------------------------------------
    # Expressions.
    # ------------------------------------------------------------------

    def _truthy(self, value) -> bool:
        return truthy(value)

    def _eval(self, expression: ast.Expression, item: _WorkItem, group_index: int):
        self._bump(item)

        if isinstance(expression, ast.IntLiteral):
            return expression.value
        if isinstance(expression, ast.FloatLiteral):
            return expression.value
        if isinstance(expression, ast.CharLiteral):
            text = expression.value.strip("'")
            return ord(text[0]) if text else 0
        if isinstance(expression, ast.StringLiteral):
            return 0
        if isinstance(expression, ast.Identifier):
            return self._lookup(expression.name, item)
        if isinstance(expression, ast.BinaryOp):
            return self._eval_binary(expression, item, group_index)
        if isinstance(expression, ast.UnaryOp):
            return self._eval_unary(expression, item, group_index)
        if isinstance(expression, ast.PostfixOp):
            return self._eval_postfix(expression, item, group_index)
        if isinstance(expression, ast.Assignment):
            return self._eval_assignment(expression, item, group_index)
        if isinstance(expression, ast.TernaryOp):
            condition = self._truthy(self._eval(expression.condition, item, group_index))
            branch = expression.if_true if condition else expression.if_false
            return self._eval(branch, item, group_index)
        if isinstance(expression, ast.Call):
            return self._eval_call(expression, item, group_index)
        if isinstance(expression, ast.Index):
            return self._eval_index(expression, item, group_index)
        if isinstance(expression, ast.Member):
            return self._eval_member(expression, item, group_index)
        if isinstance(expression, ast.Cast):
            return self._eval_cast(expression, item, group_index)
        if isinstance(expression, ast.VectorLiteral):
            return self._eval_vector_literal(expression, item, group_index)
        if isinstance(expression, ast.SizeOf):
            return self._eval_sizeof(expression)
        if isinstance(expression, ast.InitializerList):
            return [self._eval(element, item, group_index) for element in expression.elements]
        raise KernelRuntimeError(f"cannot evaluate expression {type(expression).__name__}")

    def _lookup(self, name: str, item: _WorkItem):
        if name in item.env:
            return item.env[name]
        if name in self._group_locals:
            return self._group_locals[name]
        return lookup_constant_or_zero(name)

    def _eval_binary(self, expression: ast.BinaryOp, item: _WorkItem, group_index: int):
        op = expression.op
        if op == "&&":
            left = self._truthy(self._eval(expression.left, item, group_index))
            if not left:
                return 0
            return 1 if self._truthy(self._eval(expression.right, item, group_index)) else 0
        if op == "||":
            left = self._truthy(self._eval(expression.left, item, group_index))
            if left:
                return 1
            return 1 if self._truthy(self._eval(expression.right, item, group_index)) else 0
        if op == ",":
            self._eval(expression.left, item, group_index)
            return self._eval(expression.right, item, group_index)

        left = self._eval(expression.left, item, group_index)
        right = self._eval(expression.right, item, group_index)
        return self._apply_binary(op, left, right)

    def _apply_binary(self, op: str, left, right):
        return apply_binary(op, left, right)

    def _eval_unary(self, expression: ast.UnaryOp, item: _WorkItem, group_index: int):
        op = expression.op
        if op in ("++", "--"):
            current = self._eval(expression.operand, item, group_index)
            updated = self._apply_binary("+" if op == "++" else "-", current, 1)
            self._store_to(expression.operand, updated, item, group_index)
            return updated
        if op == "*":
            pointer = self._eval(expression.operand, item, group_index)
            if isinstance(pointer, Buffer):
                return pointer.load(0)
            return pointer
        if op == "&":
            # Address-of: return the lvalue location as (buffer, index) when
            # possible so atomics can operate on it; otherwise the value.
            location = self._resolve_location(expression.operand, item, group_index)
            if location is not None:
                return location
            return self._eval(expression.operand, item, group_index)
        operand = self._eval(expression.operand, item, group_index)
        if op == "-":
            return -operand if not isinstance(operand, Buffer) else operand
        if op == "+":
            return operand
        if op == "!":
            return 0 if self._truthy(operand) else 1
        if op == "~":
            if isinstance(operand, VectorValue):
                return operand.map(lambda v: ~int(v))
            return ~int(operand)
        raise KernelRuntimeError(f"unsupported unary operator {op!r}")

    def _eval_postfix(self, expression: ast.PostfixOp, item: _WorkItem, group_index: int):
        current = self._eval(expression.operand, item, group_index)
        updated = self._apply_binary("+" if expression.op == "++" else "-", current, 1)
        self._store_to(expression.operand, updated, item, group_index)
        return current

    def _eval_assignment(self, expression: ast.Assignment, item: _WorkItem, group_index: int):
        value = self._eval(expression.value, item, group_index)
        if expression.op != "=":
            operator = expression.op[:-1]
            current = self._eval(expression.target, item, group_index)
            value = self._apply_binary(operator, current, value)
        self._store_to(expression.target, value, item, group_index)
        return value

    def _store_to(self, target: ast.Expression, value, item: _WorkItem, group_index: int) -> None:
        if isinstance(target, ast.Identifier):
            store_to_identifier(item.env, target.name, value)
            return
        if isinstance(target, ast.Index):
            base = self._eval(target.base, item, group_index)
            index = self._eval(target.index, item, group_index)
            if isinstance(base, Buffer):
                base.store(self._as_index(index), value)
            elif isinstance(base, VectorValue) and isinstance(target.base, ast.Identifier):
                item.env[target.base.name] = base.with_member(f"s{int(index):x}", value)
            return
        if isinstance(target, ast.Member):
            base_expr = target.base
            base = self._eval(base_expr, item, group_index)
            if isinstance(base, VectorValue):
                updated = base.with_member(target.member, value)
                self._store_to(base_expr, updated, item, group_index)
            return
        if isinstance(target, ast.UnaryOp) and target.op == "*":
            pointer = self._eval(target.operand, item, group_index)
            if isinstance(pointer, Buffer):
                pointer.store(0, value)
            elif isinstance(pointer, tuple) and len(pointer) == 2 and isinstance(pointer[0], Buffer):
                pointer[0].store(pointer[1], value)
            return
        if isinstance(target, ast.Cast):
            self._store_to(target.operand, value, item, group_index)
            return
        # Silently drop stores to unsupported lvalues (struct fields etc.).

    @staticmethod
    def _as_index(value) -> int:
        return as_index(value)

    def _resolve_location(self, expression: ast.Expression, item: _WorkItem, group_index: int):
        """Resolve an lvalue to a (buffer, index) pair, used by atomics."""
        if isinstance(expression, ast.Index):
            base = self._eval(expression.base, item, group_index)
            index = self._eval(expression.index, item, group_index)
            if isinstance(base, Buffer):
                return (base, self._as_index(index))
        if isinstance(expression, ast.Identifier):
            value = item.env.get(expression.name)
            if isinstance(value, Buffer):
                return (value, 0)
        return None

    def _eval_index(self, expression: ast.Index, item: _WorkItem, group_index: int):
        base = self._eval(expression.base, item, group_index)
        index = self._eval(expression.index, item, group_index)
        if isinstance(base, Buffer):
            return base.load(self._as_index(index))
        if isinstance(base, VectorValue):
            position = self._as_index(index) % max(1, base.width)
            return base.values[position]
        if isinstance(base, list):
            position = self._as_index(index)
            if 0 <= position < len(base):
                return base[position]
            return 0
        return 0

    def _eval_member(self, expression: ast.Member, item: _WorkItem, group_index: int):
        base = self._eval(expression.base, item, group_index)
        if isinstance(base, VectorValue):
            try:
                return base.get_member(expression.member)
            except ValueError:
                return 0
        if isinstance(base, dict):
            return base.get(expression.member, 0)
        return 0

    def _eval_cast(self, expression: ast.Cast, item: _WorkItem, group_index: int):
        value = self._eval(expression.operand, item, group_index)
        target = expression.target_type
        if isinstance(value, Buffer):
            return value
        if isinstance(target, VectorType):
            if isinstance(value, VectorValue):
                return VectorValue(
                    target.element.kind,
                    [convert_scalar(target.element.kind, v) for v in value.values[: target.width]],
                )
            return VectorValue.broadcast(target.element.kind, target.width, value)
        if isinstance(target, PointerType):
            return value
        if target is not None and hasattr(target, "kind"):
            return convert_scalar(target.kind, value)
        return value

    def _eval_vector_literal(self, expression: ast.VectorLiteral, item: _WorkItem, group_index: int):
        target = expression.target_type
        assert isinstance(target, VectorType)
        components = [self._eval(element, item, group_index) for element in expression.elements]
        return VectorValue.from_components(target.element.kind, target.width, components)

    @staticmethod
    def _eval_sizeof(expression: ast.SizeOf) -> int:
        return eval_sizeof(expression.target_type_name)

    # ------------------------------------------------------------------
    # Calls.
    # ------------------------------------------------------------------

    def _eval_call(self, expression: ast.Call, item: _WorkItem, group_index: int):
        name = expression.callee

        if name in WORK_ITEM_FUNCTIONS:
            dimension = 0
            if expression.arguments:
                dimension = self._as_index(self._eval(expression.arguments[0], item, group_index))
            return self._work_item_query(name, dimension, item)

        if name in SYNC_FUNCTIONS:
            # Barriers inside expressions are executed as no-ops; statement-level
            # barriers are handled by the scheduler.
            for argument in expression.arguments:
                self._eval(argument, item, group_index)
            return 0

        if name.startswith(("atomic_", "atom_")):
            return self._eval_atomic(name, expression, item, group_index)

        if name.startswith("vload"):
            return self._eval_vload(name, expression, item, group_index)
        if name.startswith("vstore"):
            return self._eval_vstore(name, expression, item, group_index)

        arguments = [self._eval(argument, item, group_index) for argument in expression.arguments]

        if name in self._functions:
            return self._call_user_function(self._functions[name], arguments, item, group_index)

        try:
            return evaluate_builtin(name, arguments)
        except KeyError:
            # Unknown call (e.g. undeclared function in lenient mode): return 0.
            return 0

    def _work_item_query(self, name: str, dimension: int, item: _WorkItem):
        assert self._ndrange is not None
        ndrange = self._ndrange
        dimension = max(0, min(dimension, ndrange.work_dim - 1))
        if name == "get_global_id":
            return item.global_id[dimension]
        if name == "get_local_id":
            return item.local_id[dimension]
        if name == "get_group_id":
            return item.group_id[dimension]
        if name == "get_global_size":
            return ndrange.global_size[dimension]
        if name == "get_local_size":
            return ndrange.effective_local_size[dimension]
        if name == "get_num_groups":
            return ndrange.num_groups[dimension]
        if name == "get_work_dim":
            return ndrange.work_dim
        if name == "get_global_offset":
            return 0
        return 0

    def _eval_atomic(self, name: str, expression: ast.Call, item: _WorkItem, group_index: int):
        if not expression.arguments:
            return 0
        location = self._resolve_location(self._strip_address_of(expression.arguments[0]), item, group_index)
        operand = 1
        if len(expression.arguments) > 1:
            operand = self._eval(expression.arguments[1], item, group_index)
        if location is None:
            return 0
        buffer, index = location
        old = buffer.load(index)
        operation = name.replace("atomic_", "").replace("atom_", "")
        if operation == "cmpxchg":
            compare = operand
            value = (
                self._eval(expression.arguments[2], item, group_index)
                if len(expression.arguments) > 2
                else old
            )
            new = value if old == compare else old
        else:
            new = apply_atomic(operation, old, operand)
        buffer.store(index, new)
        return old

    def _strip_address_of(self, expression: ast.Expression) -> ast.Expression:
        if isinstance(expression, ast.UnaryOp) and expression.op == "&":
            return expression.operand
        return expression

    def _eval_vload(self, name: str, expression: ast.Call, item: _WorkItem, group_index: int):
        width = int(name.replace("vload", "") or 1)
        offset = self._as_index(self._eval(expression.arguments[0], item, group_index)) if expression.arguments else 0
        pointer = (
            self._eval(expression.arguments[1], item, group_index)
            if len(expression.arguments) > 1
            else None
        )
        if isinstance(pointer, Buffer):
            values = [pointer.load(offset * width + i) for i in range(width)]
            kind = pointer.element_kind
            return VectorValue(kind, [float(v) if kind in ("float", "double") else v for v in values])
        return VectorValue.broadcast("float", width, 0.0)

    def _eval_vstore(self, name: str, expression: ast.Call, item: _WorkItem, group_index: int):
        width = int(name.replace("vstore", "") or 1)
        if len(expression.arguments) < 3:
            return 0
        value = self._eval(expression.arguments[0], item, group_index)
        offset = self._as_index(self._eval(expression.arguments[1], item, group_index))
        pointer = self._eval(expression.arguments[2], item, group_index)
        if isinstance(pointer, Buffer):
            values = value.values if isinstance(value, VectorValue) else [value] * width
            for position, element in enumerate(values[:width]):
                pointer.store(offset * width + position, element)
        return 0

    def _call_user_function(
        self, function: ast.FunctionDecl, arguments: list, item: _WorkItem, group_index: int
    ):
        self._stats.helper_calls += 1
        item.call_depth += 1
        if item.call_depth > MAX_CALL_DEPTH:
            raise ExecutionError(
                f"call depth exceeded {MAX_CALL_DEPTH} in kernel "
                f"{self._kernel.name!r} (recursion is not valid OpenCL C)"
            )
        saved_env = item.env
        call_env = dict(self._globals_env)
        for parameter, argument in zip(function.parameters, arguments):
            call_env[parameter.name] = argument
        item.env = call_env
        result = None
        try:
            # Helper functions cannot contain work-group barriers (the paper's
            # synthesizer never emits them there); drain the generator.
            for _ in self._exec_statement(function.body, item, group_index):
                pass
        except _Return as returned:
            result = returned.value
        finally:
            item.env = saved_env
            item.call_depth -= 1
        return result
