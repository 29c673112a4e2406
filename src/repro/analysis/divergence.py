"""Divergence analysis: which values are uniform across work-items.

This is the foundation pass of the static analyzer.  It abstractly
interprets one kernel (and, transitively, the helper functions it calls)
over the :mod:`repro.analysis.lattice` chain, seeded at the work-item query
builtins: ``get_global_id`` produces an AFFINE (per-lane injective) value,
``get_local_id``/``get_group_id`` produce DIVERGENT values (they repeat
across work-groups), and the size queries produce UNIFORM values.

Alongside the per-variable environment the pass records everything the
downstream passes consume:

* every shared-memory access (buffer, read/write/atomic, subscript
  divergence and canonical subscript form, control divergence at the site),
* every ``barrier()`` site with the control divergence it executes under,
* a set of construct flags (atomics, pointer tricks, helper pathologies)
  the bailout classifier maps onto possible
  :class:`~repro.errors.LockstepBailout` causes; which constructs the
  lockstep tier refuses outright is the vectorizer's own verdict,
* a worst-case per-work-item step estimate for the lockstep step budget.

Loops are analysed to a fixpoint (the lattice is a finite chain, so this
terminates); access sites and step costs are only recorded on the final,
stable pass so each static site is counted exactly once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.lattice import FIXPOINT_LIMIT, Div, join
from repro.clc import ast_nodes as ast
from repro.clc.builtins import ATOMIC_FUNCTIONS, WORK_ITEM_FUNCTIONS
from repro.clc.types import AddressSpace

#: Assumed trip count for loops bounded by a uniform, non-literal value.
#: Payloads give integral scalar arguments the value of the global size
#: (<= 256 everywhere in the pipeline), so 2048 leaves an 8x margin while
#: keeping single uniform loops inside the SAFE step allowance.
ASSUMED_UNIFORM_TRIPS = 2048.0

#: Trip estimate for shift-stepped loops (``s >>= 1`` style reductions).
SHIFT_LOOP_TRIPS = 64.0


# ---------------------------------------------------------------------------
# Facts produced by the pass.
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class AccessSite:
    """One static shared-memory access."""

    buffer: str
    space: str  # "global" | "local"
    kind: str  # "read" | "write" | "atomic"
    index_div: Div
    index_form: str | None
    control_div: Div
    loop_depth: int
    atomic_op: str | None = None
    #: True when the site may not execute: it sits under a data-dependent
    #: (lane-uniform) guard, or after a ``return``.  Certainty claims in the
    #: race pass require unconditional sites.
    conditional: bool = False


@dataclass(slots=True)
class BarrierSite:
    """One static ``barrier()`` call."""

    control_div: Div
    in_helper: bool = False
    #: Same may-not-execute marker as :attr:`AccessSite.conditional`; a
    #: divergent barrier is only a *certain* bailout when it must be reached.
    conditional: bool = False


@dataclass
class KernelFacts:
    """Everything the divergence pass learned about one kernel."""

    kernel_name: str
    accesses: list[AccessSite] = field(default_factory=list)
    barriers: list[BarrierSite] = field(default_factory=list)
    flags: set[str] = field(default_factory=set)
    #: Worst-case interpreter steps per work item (``inf`` = unbounded).
    step_estimate: float = 0.0
    #: Buffer name -> address space, for every shared buffer seen.
    buffer_spaces: dict[str, str] = field(default_factory=dict)
    #: Final abstract environment of the kernel body.
    env: dict[str, Div] = field(default_factory=dict)

    def accesses_for(self, buffer: str) -> list[AccessSite]:
        return [site for site in self.accesses if site.buffer == buffer]


# Construct flags.  Grouped by how the classifier treats them; the value is
# the flag string recorded in :attr:`KernelFacts.flags`.
FLAG_POINTER_DEREF = "pointer-deref"
FLAG_POINTER_DECL = "pointer-decl"
FLAG_POINTER_REBIND_DIVERGENT = "pointer-rebind-divergent"
FLAG_POINTER_TERNARY_DIVERGENT = "pointer-ternary-divergent"
FLAG_ATOMIC = "atomic"
FLAG_ATOMIC_PRIVATE = "atomic-private"
FLAG_HELPER_FALLOFF = "helper-falloff"
FLAG_HELPER_BARRIER = "helper-barrier"
FLAG_LOCAL_ARRAY = "local-array"
FLAG_PRIVATE_ARRAY_DIVERGENT_SIZE = "private-array-divergent-size"
FLAG_PRIVATE_ARRAY_DIVERGENT_DECL = "private-array-divergent-decl"
FLAG_OVERFLOW_RISK = "overflow-risk"
FLAG_UNKNOWN_CONSTRUCT = "unknown-construct"

_UNIFORM_QUERY_FORMS = {
    "get_global_size": "gsz",
    "get_local_size": "lsz",
    "get_num_groups": "ngrp",
    "get_work_dim": "wdim",
    "get_global_offset": "goff",
}

#: Cast targets wide enough to preserve per-lane injectivity of an id.
_WIDE_INT_CASTS = frozenset(
    {"int", "uint", "long", "ulong", "size_t", "unsigned", "unsigned int",
     "unsigned long", "ptrdiff_t", "intptr_t", "uintptr_t"}
)


def _is_pointer_type(declared) -> bool:
    return declared is not None and bool(getattr(declared, "is_pointer", False))


def _is_vector_type(declared) -> bool:
    return declared is not None and bool(getattr(declared, "is_vector", False))


def _space_name(address_space) -> str:
    if address_space in (AddressSpace.LOCAL,):
        return "local"
    return "global"


#: Queries whose dimension argument decides the dispatch rank in the driver.
_DIMENSIONED_ID_QUERIES = ("get_global_id", "get_group_id", "get_local_id")


def _queries_dimension_one(kernel: ast.FunctionDecl) -> bool:
    """Same detection the driver uses to pick a 2-D NDRange for a kernel."""
    if kernel.body is None:
        return False
    for node in ast.walk(kernel.body):
        if isinstance(node, ast.Call) and node.callee in _DIMENSIONED_ID_QUERIES:
            if node.arguments and getattr(node.arguments[0], "value", None) == 1:
                return True
    return False


@dataclass(slots=True)
class _Value:
    """Abstract value: divergence plus an optional canonical form string.

    Forms make subscript equality decidable (``out[gid + k]`` twice is the
    same cell per lane); they are only tracked while the defining chain is
    simple and are dropped (None) on anything loop-carried or reassigned.
    """

    div: Div
    form: str | None = None
    #: (canonical buffer name, space) when this value *is* a pointer — a bare
    #: buffer name, or pointer arithmetic that the lockstep engines collapse
    #: back to the pointer itself.  The mark travels through arithmetic and
    #: casts exactly like the runtime's ``_POINTERISH`` values; the only two
    #: places the engines dereference such a value (a store coerce and a
    #: builtin argument) record the hazard-tracked element-0 read.
    pointer: tuple[str, str] | None = None


_UNKNOWN = _Value(Div.DIVERGENT, None)


class DivergenceAnalysis:
    """Runs the divergence pass over one kernel of a translation unit."""

    def __init__(self, unit: ast.TranslationUnit, kernel_name: str | None = None):
        self.unit = unit
        kernels = unit.kernels
        if not kernels:
            raise ValueError("translation unit contains no kernels")
        self.kernel = unit.kernel(kernel_name) if kernel_name else kernels[0]
        self.functions = {
            f.name: f for f in unit.functions if f.body is not None and not f.is_kernel
        }
        #: Mirrors ``HostDriver._kernel_work_dim``: a dimension-1 work-item
        #: query in the kernel body means the driver dispatches a 2-D range.
        #: Linearised over the lane set, no single dimension's global id is
        #: injective there, so the AFFINE seeding must be switched off.
        self.multi_dim = _queries_dimension_one(self.kernel)

    def run(self) -> KernelFacts:
        facts = KernelFacts(kernel_name=self.kernel.name)
        analyzer = _FunctionAnalyzer(self, facts, active=frozenset())
        analyzer.bind_kernel_parameters(self.kernel)
        analyzer.analyze_body(self.kernel.body)
        facts.env = {name: value.div for name, value in analyzer.env.items()}
        facts.step_estimate = analyzer.steps
        return facts


class _FunctionAnalyzer:
    """Abstract interpreter for one function body (kernel or helper)."""

    def __init__(
        self,
        analysis: DivergenceAnalysis,
        facts: KernelFacts,
        active: frozenset[str],
        base_control: Div = Div.UNIFORM,
        in_helper: bool = False,
        recording: bool = True,
        base_conditional: bool = False,
    ):
        self.analysis = analysis
        self.facts = facts
        self.active = active
        self.env: dict[str, _Value] = {}
        #: name -> (canonical buffer name, space) for pointer-valued names.
        self.buffers: dict[str, tuple[str, str]] = {}
        self.private_arrays: set[str] = set()
        self.control: list[Div] = [base_control]
        #: Residual divergence after a divergent break/continue (restored at
        #: the enclosing loop's exit).
        self.extra_control: Div = Div.BOTTOM
        #: Residual divergence after a divergent early return — sticky for
        #: the rest of the function: once some lanes have left, every later
        #: barrier executes with a partial mask.
        self.return_taint: Div = Div.BOTTOM
        #: Depth of enclosing data-dependent lane-uniform guards (an ``if``
        #: whose condition is uniform executes all-or-nothing at runtime).
        self.guard_depth = 0
        #: Sticky after any ``return`` statement: later sites may be dead.
        self.maybe_returned = False
        #: Inherited may-not-execute context (helper called under a guard).
        self.base_conditional = base_conditional
        self.in_helper = in_helper
        self.recording = recording
        self.loop_depth = 0
        self.steps = 0.0
        self.trip_multiplier = 1.0
        self.return_div: Div = Div.BOTTOM

    # -- setup ----------------------------------------------------------

    def bind_kernel_parameters(self, kernel: ast.FunctionDecl) -> None:
        for parameter in kernel.parameters:
            if not parameter.name:
                continue
            declared = parameter.declared_type
            if _is_pointer_type(declared):
                space = _space_name(parameter.address_space)
                self.buffers[parameter.name] = (parameter.name, space)
                self.facts.buffer_spaces.setdefault(parameter.name, space)
                if space == "local":
                    self.flag(FLAG_LOCAL_ARRAY)
            elif _is_vector_type(declared):
                self.env[parameter.name] = _Value(Div.UNIFORM)
            else:
                # Scalar arguments are identical on every lane; their form is
                # their own name, so `a[gid + n]` matches `b[gid + n]`.
                self.env[parameter.name] = _Value(Div.UNIFORM, parameter.name)

    # -- bookkeeping ----------------------------------------------------

    def flag(self, name: str) -> None:
        self.facts.flags.add(name)

    @property
    def control_div(self) -> Div:
        return join(self.extra_control, self.return_taint, *self.control)

    @property
    def conditional(self) -> bool:
        return self.base_conditional or self.guard_depth > 0 or self.maybe_returned

    def tick(self, count: float = 1.0) -> None:
        if self.recording:
            self.steps += count * self.trip_multiplier

    def record_access(
        self,
        buffer: str,
        space: str,
        kind: str,
        index: _Value,
        atomic_op: str | None = None,
    ) -> None:
        if not self.recording:
            return
        self.facts.buffer_spaces.setdefault(buffer, space)
        self.facts.accesses.append(
            AccessSite(
                buffer=buffer,
                space=space,
                kind=kind,
                index_div=index.div,
                index_form=index.form,
                control_div=self.control_div,
                loop_depth=self.loop_depth,
                atomic_op=atomic_op,
                conditional=self.conditional,
            )
        )

    def _pointer_value_read(self, value: _Value) -> None:
        """Record the tracked element-0 read of a pointer used as data.

        Mirrors ``LockstepBuffer.first_element``: the engines reach it from
        exactly two places — coercing a pointer into a stored cell, and
        scalarizing a pointer builtin argument.
        """
        if value.pointer is not None:
            buffer, space = value.pointer
            self.record_access(buffer, space, "read", _Value(Div.UNIFORM, "0"))

    def record_barrier(self) -> None:
        if not self.recording:
            return
        self.facts.barriers.append(
            BarrierSite(
                control_div=self.control_div,
                in_helper=self.in_helper,
                # A barrier inside a loop may never be reached (zero trips).
                conditional=self.conditional or self.loop_depth > 0,
            )
        )
        if self.in_helper:
            self.flag(FLAG_HELPER_BARRIER)

    # -- statements -----------------------------------------------------

    def analyze_body(self, body: ast.CompoundStmt | None) -> None:
        if body is None:
            return
        self.statement(body)

    def statement(self, stmt: ast.Statement | None) -> None:
        if stmt is None:
            return
        self.tick()
        if isinstance(stmt, ast.CompoundStmt):
            for child in stmt.statements:
                self.statement(child)
        elif isinstance(stmt, ast.DeclStmt):
            for declarator in stmt.declarators:
                self._declare(declarator)
        elif isinstance(stmt, ast.ExprStmt):
            if stmt.expression is not None:
                self.eval(stmt.expression)
        elif isinstance(stmt, ast.IfStmt):
            self._if(stmt)
        elif isinstance(stmt, ast.ForStmt):
            self._for(stmt)
        elif isinstance(stmt, ast.WhileStmt):
            self._loop(stmt.condition, stmt.body, trips=float("inf"))
        elif isinstance(stmt, ast.DoWhileStmt):
            self._loop(stmt.condition, stmt.body, trips=float("inf"))
        elif isinstance(stmt, ast.ReturnStmt):
            value = Div.UNIFORM
            if stmt.value is not None:
                returned = self.eval(stmt.value)
                value = returned.div
                if returned.pointer is not None and self.in_helper:
                    # The call site loses the pointer mark, so a helper that
                    # hands a pointer back must keep the kernel out of SAFE.
                    self.flag(FLAG_POINTER_DECL)
            self.return_div = join(self.return_div, value, self.control_div)
            if self.control_div > Div.UNIFORM:
                self.return_taint = Div.DIVERGENT
            # Anything after a return is dead for at least some inputs.
            self.maybe_returned = True
        elif isinstance(stmt, (ast.BreakStmt, ast.ContinueStmt)):
            if self.control_div > Div.UNIFORM:
                self.extra_control = Div.DIVERGENT
        elif isinstance(stmt, ast.SwitchStmt):
            self._switch(stmt)
        elif isinstance(stmt, ast.EmptyStmt):
            pass
        else:
            self.flag(FLAG_UNKNOWN_CONSTRUCT)

    def _declare(self, declarator: ast.Declarator) -> None:
        name = declarator.name
        declared = declarator.declared_type
        if name in self.buffers or name in self.private_arrays:
            # A declaration shadowing a pointer or array (e.g. `int x =
            # get_global_id(0)` over a buffer parameter `x`): the flat name
            # model cannot tell which binding a later use means, so keep the
            # kernel out of SAFE.  The engines do not scope names either (a
            # declaration inside a block stays visible after it ends), so
            # scoped tables must land here and in every engine together.
            self.flag(FLAG_UNKNOWN_CONSTRUCT)
        if declarator.array_size is not None:
            size = self.eval(declarator.array_size)
            if declarator.address_space == AddressSpace.LOCAL:
                self.flag(FLAG_LOCAL_ARRAY)
                self.buffers[name] = (name, "local")
                self.facts.buffer_spaces.setdefault(name, "local")
            else:
                self.private_arrays.add(name)
                if size.div > Div.UNIFORM:
                    self.flag(FLAG_PRIVATE_ARRAY_DIVERGENT_SIZE)
                if self.control_div > Div.UNIFORM:
                    self.flag(FLAG_PRIVATE_ARRAY_DIVERGENT_DECL)
            return
        if _is_pointer_type(declared):
            self._bind_pointer(name, declarator.initializer)
            return
        if declarator.initializer is not None:
            value = self.eval(declarator.initializer)
            # A declaration is scoped inside whatever branch declares it, so
            # (unlike an outer-scope assignment) a divergent-control context
            # does not by itself make the value lane-dependent.
            self.env[name] = value
        else:
            self.env[name] = _Value(Div.UNIFORM, None)

    def _bind_pointer(self, name: str, initializer: ast.Expression | None) -> None:
        if initializer is None:
            self.flag(FLAG_POINTER_DECL)
            self.buffers[name] = (f"<unknown:{name}>", "global")
            return
        if isinstance(initializer, ast.Identifier) and initializer.name in self.buffers:
            if self.control_div > Div.UNIFORM:
                self.flag(FLAG_POINTER_REBIND_DIVERGENT)
            self.buffers[name] = self.buffers[initializer.name]
            return
        value = self.eval(initializer)
        if value.pointer is not None:
            # Pointer arithmetic collapses to the base pointer at runtime,
            # so the alias is exact — accesses through it hit that buffer.
            if self.control_div > Div.UNIFORM:
                self.flag(FLAG_POINTER_REBIND_DIVERGENT)
            self.buffers[name] = value.pointer
            return
        self.flag(FLAG_POINTER_DECL)
        self.buffers[name] = (f"<unknown:{name}>", "global")

    def _if(self, stmt: ast.IfStmt) -> None:
        condition = self.eval(stmt.condition)
        self.control.append(condition.div)
        if condition.div <= Div.UNIFORM:
            # Lane-uniform guard: the branch runs all-or-nothing depending
            # on data, so its sites cannot back a *certain* verdict.
            self.guard_depth += 1
        before_env = dict(self.env)
        before_buffers = dict(self.buffers)
        self.statement(stmt.then_branch)
        then_env, self.env = self.env, before_env
        then_buffers, self.buffers = self.buffers, before_buffers
        if stmt.else_branch is not None:
            self.statement(stmt.else_branch)
        if condition.div <= Div.UNIFORM:
            self.guard_depth -= 1
        self.control.pop()
        self._merge_env(then_env)
        self._merge_buffers(then_buffers, condition.div)

    def _switch(self, stmt: ast.SwitchStmt) -> None:
        condition = self.eval(stmt.condition)
        self.control.append(condition.div)
        if condition.div <= Div.UNIFORM:
            self.guard_depth += 1
        merged = dict(self.env)
        base = dict(self.env)
        for case in stmt.cases:
            if case.value is not None:
                self.eval(case.value)
            self.env = dict(base)
            for child in case.body:
                self.statement(child)
            merged = self._joined(merged, self.env)
        self.env = merged
        if condition.div <= Div.UNIFORM:
            self.guard_depth -= 1
        self.control.pop()

    def _for(self, stmt: ast.ForStmt) -> None:
        if stmt.init is not None:
            self.statement(stmt.init)
        trips = self._for_trips(stmt)
        self._loop(stmt.condition, stmt.body, trips=trips, increment=stmt.increment)

    def _loop(
        self,
        condition: ast.Expression | None,
        body: ast.Statement | None,
        trips: float,
        increment: ast.Expression | None = None,
    ) -> None:
        # Loop-carried names lose their canonical forms: a subscript like
        # `out[gid + i]` must not look like a single fixed cell per lane.
        for name in self._assigned_names(body, increment):
            value = self.env.get(name)
            if value is not None and value.form is not None:
                self.env[name] = _Value(value.div, None)

        saved_recording = self.recording
        self.recording = False
        for _ in range(FIXPOINT_LIMIT):
            before = {name: value.div for name, value in self.env.items()}
            self._loop_pass(condition, body, increment)
            after = {name: value.div for name, value in self.env.items()}
            if after == before:
                break
        self.recording = saved_recording

        # The recorded pass runs on the stable environment.
        saved_multiplier = self.trip_multiplier
        bounded = min(trips, 1e9)
        self.trip_multiplier *= max(bounded, 1.0)
        if trips == float("inf") and self.recording:
            self.steps = float("inf")
        self.loop_depth += 1
        self._loop_pass(condition, body, increment)
        self.loop_depth -= 1
        self.trip_multiplier = saved_multiplier

    def _loop_pass(
        self,
        condition: ast.Expression | None,
        body: ast.Statement | None,
        increment: ast.Expression | None,
    ) -> None:
        condition_div = Div.UNIFORM
        if condition is not None:
            condition_div = self.eval(condition).div
        self.control.append(condition_div)
        saved_extra = self.extra_control
        self.statement(body)
        if increment is not None:
            self.eval(increment)
        self.extra_control = saved_extra
        self.control.pop()

    def _for_trips(self, stmt: ast.ForStmt) -> float:
        condition = stmt.condition
        if condition is None:
            return float("inf")
        if isinstance(condition, ast.IntLiteral):
            return float("inf") if condition.value else 0.0
        if stmt.increment is None:
            return float("inf")
        induction = self._induction_name(stmt.increment)
        if induction is None:
            return float("inf")
        if body_assigns := self._assigned_names(stmt.body, None):
            if induction in body_assigns:
                return float("inf")
        if self._is_shift_increment(stmt.increment):
            return SHIFT_LOOP_TRIPS
        bound = self._comparison_bound(condition, induction)
        if bound is None:
            return float("inf")
        if isinstance(bound, ast.IntLiteral):
            return float(abs(bound.value)) + 1.0
        if self.eval(bound).div <= Div.UNIFORM:
            return ASSUMED_UNIFORM_TRIPS
        # A divergent bound (e.g. `i < gid`) is still capped by the lane
        # values the payload provides, which the uniform assumption covers.
        return ASSUMED_UNIFORM_TRIPS

    @staticmethod
    def _induction_name(increment: ast.Expression) -> str | None:
        if isinstance(increment, (ast.PostfixOp, ast.UnaryOp)) and increment.op in ("++", "--"):
            operand = increment.operand
            if isinstance(operand, ast.Identifier):
                return operand.name
        if isinstance(increment, ast.Assignment) and isinstance(increment.target, ast.Identifier):
            return increment.target.name
        return None

    @staticmethod
    def _is_shift_increment(increment: ast.Expression) -> bool:
        return isinstance(increment, ast.Assignment) and increment.op in ("<<=", ">>=")

    @staticmethod
    def _comparison_bound(condition: ast.Expression, induction: str):
        if not isinstance(condition, ast.BinaryOp):
            return None
        if condition.op not in ("<", "<=", ">", ">=", "!="):
            return None
        left, right = condition.left, condition.right
        if isinstance(left, ast.Identifier) and left.name == induction:
            return right
        if isinstance(right, ast.Identifier) and right.name == induction:
            return left
        return None

    @staticmethod
    def _assigned_names(
        body: ast.Statement | None, increment: ast.Expression | None
    ) -> set[str]:
        names: set[str] = set()
        for root in (body, increment):
            if root is None:
                continue
            for node in ast.walk(root):
                if isinstance(node, ast.Assignment) and isinstance(node.target, ast.Identifier):
                    names.add(node.target.name)
                elif (
                    isinstance(node, (ast.PostfixOp, ast.UnaryOp))
                    and node.op in ("++", "--")
                    and isinstance(node.operand, ast.Identifier)
                ):
                    names.add(node.operand.name)
                elif isinstance(node, ast.Declarator):
                    names.add(node.name)
        return names

    def _merge_env(self, other: dict[str, _Value]) -> None:
        self.env = self._joined(self.env, other)

    def _joined(
        self, left: dict[str, _Value], right: dict[str, _Value]
    ) -> dict[str, _Value]:
        merged = dict(left)
        for name, value in right.items():
            existing = merged.get(name)
            if existing is None:
                merged[name] = value
            elif existing.div != value.div or existing.form != value.form:
                merged[name] = _Value(join(existing.div, value.div), None)
        return merged

    def _merge_buffers(self, other: dict[str, tuple[str, str]], condition_div: Div) -> None:
        for name, binding in other.items():
            existing = self.buffers.get(name)
            if existing is None:
                self.buffers[name] = binding
            elif existing != binding:
                if condition_div > Div.UNIFORM:
                    self.flag(FLAG_POINTER_REBIND_DIVERGENT)
                else:
                    self.flag(FLAG_POINTER_DECL)
                self.buffers[name] = (f"<unknown:{name}>", existing[1])

    # -- expressions ----------------------------------------------------

    def eval(self, expression: ast.Expression) -> _Value:
        if isinstance(expression, ast.IntLiteral):
            return _Value(Div.UNIFORM, str(expression.value))
        if isinstance(expression, (ast.FloatLiteral, ast.CharLiteral, ast.StringLiteral)):
            return _Value(Div.UNIFORM, None)
        if isinstance(expression, ast.SizeOf):
            return _Value(Div.UNIFORM, None)
        if isinstance(expression, ast.Identifier):
            return self._identifier(expression.name)
        if isinstance(expression, ast.BinaryOp):
            return self._binary(expression)
        if isinstance(expression, ast.UnaryOp):
            return self._unary(expression)
        if isinstance(expression, ast.PostfixOp):
            return self._increment_like(expression)
        if isinstance(expression, ast.Assignment):
            return self._assignment(expression)
        if isinstance(expression, ast.TernaryOp):
            return self._ternary(expression)
        if isinstance(expression, ast.Call):
            return self._call(expression)
        if isinstance(expression, ast.Index):
            return self._index_read(expression)
        if isinstance(expression, ast.Member):
            base = self.eval(expression.base)
            return _Value(base.div, None)
        if isinstance(expression, ast.Cast):
            return self._cast(expression)
        if isinstance(expression, (ast.VectorLiteral, ast.InitializerList)):
            divs = [self.eval(element).div for element in expression.elements]
            return _Value(join(*divs) if divs else Div.UNIFORM, None)
        self.flag(FLAG_UNKNOWN_CONSTRUCT)
        return _UNKNOWN

    def _identifier(self, name: str) -> _Value:
        if name in self.buffers:
            # A bare pointer name evaluated as a value stays a pointer in
            # the lockstep engines (arithmetic, comparisons and casts all
            # pass ``_POINTERISH`` values through untouched); the mark makes
            # the two dereference points — a store coerce and a builtin
            # argument — record the hazard-tracked element-0 read.
            return _Value(Div.UNIFORM, None, pointer=self.buffers[name])
        if name in self.private_arrays:
            # Per-lane storage collapses to each lane's own element 0: no
            # cross-lane hazard, but the value itself is lane-dependent.
            return _Value(Div.DIVERGENT, None)
        value = self.env.get(name)
        if value is not None:
            return value
        # Undeclared names are the semantic checker's problem; assume the
        # worst so they can never launder into a "safe" verdict.
        return _UNKNOWN

    _AFFINE_KEEPERS = ("+", "-")

    def _binary(self, expression: ast.BinaryOp) -> _Value:
        left = self.eval(expression.left)
        right = self.eval(expression.right)
        op = expression.op
        if left.pointer is not None or right.pointer is not None:
            # Mirrors the runtime's ``_binary_values``: pointer equality is
            # an identity test (plain int), every other operator returns the
            # pointer operand itself — no memory is touched.
            if op in ("==", "!="):
                return _Value(Div.UNIFORM, None)
            return left if left.pointer is not None else right
        form = None
        if left.form is not None and right.form is not None:
            form = f"({left.form}{op}{right.form})"
        highest = join(left.div, right.div)
        if highest <= Div.UNIFORM:
            return _Value(highest, form)
        if Div.AFFINE in (left.div, right.div) and Div.DIVERGENT not in (left.div, right.div):
            affine, other = (left, right) if left.div == Div.AFFINE else (right, left)
            if other.div == Div.AFFINE:
                return _Value(Div.DIVERGENT, None)
            if op in self._AFFINE_KEEPERS:
                return _Value(Div.AFFINE, form)
            if op == "*" and self._nonzero_literal(expression.left, expression.right):
                return _Value(Div.AFFINE, form)
            return _Value(Div.DIVERGENT, None)
        return _Value(Div.DIVERGENT, None)

    @staticmethod
    def _nonzero_literal(*operands: ast.Expression) -> bool:
        return any(
            isinstance(operand, ast.IntLiteral) and operand.value != 0
            for operand in operands
        )

    def _unary(self, expression: ast.UnaryOp) -> _Value:
        op = expression.op
        if op == "&":
            self.eval(expression.operand)
            return _UNKNOWN
        if op == "*":
            self.flag(FLAG_POINTER_DEREF)
            return self._deref_read(expression.operand)
        if op in ("++", "--"):
            return self._increment_like(expression)
        operand = self.eval(expression.operand)
        if operand.pointer is not None:
            # Runtime rules: ``-p``/``+p`` keep the pointer, ``!p`` is the
            # constant 0, ``~p`` is an immediate lockstep bailout.
            if op == "!":
                return _Value(Div.UNIFORM, None)
            if op == "~":
                self.flag(FLAG_UNKNOWN_CONSTRUCT)
                return _UNKNOWN
            return operand
        if op in ("-", "+"):
            form = f"({op}{operand.form})" if operand.form is not None else None
            return _Value(operand.div, form)
        if operand.div == Div.AFFINE:
            return _Value(Div.DIVERGENT, None)
        return _Value(operand.div, None)

    def _increment_like(self, expression) -> _Value:
        operand = expression.operand
        value = self.eval(operand)
        if isinstance(operand, ast.Identifier) and operand.name in self.env:
            div = value.div
            if self.control_div > Div.UNIFORM:
                div = Div.DIVERGENT
            elif div == Div.AFFINE:
                div = Div.AFFINE  # gid++ stays injective
            self.env[operand.name] = _Value(div, None)
        elif isinstance(operand, ast.Index):
            self._index_write(operand, compound=True)
        return value

    def _assignment(self, expression: ast.Assignment) -> _Value:
        target = expression.target
        value = self.eval(expression.value)
        compound = expression.op != "="
        if compound and expression.op in ("*=", "<<="):
            # Multiplicative accumulation inside a loop can push a uniform
            # Python int past int64, which only the scalar engines survive.
            # `loop_depth` covers the recorded pass, `not recording` the
            # fixpoint passes that only ever run inside loop analysis.
            if self.loop_depth > 0 or not self.recording:
                self.flag(FLAG_OVERFLOW_RISK)
        if isinstance(target, ast.Identifier):
            name = target.name
            if name in self.buffers:
                # Rebinding a pointer variable.
                if self.control_div > Div.UNIFORM:
                    self.flag(FLAG_POINTER_REBIND_DIVERGENT)
                if compound:
                    # `p += k` collapses to the pointer itself at runtime:
                    # the binding is unchanged.
                    return _Value(Div.UNIFORM, None, pointer=self.buffers[name])
                if value.pointer is not None:
                    # Pointer copy (possibly through arithmetic, which the
                    # engines collapse back to the pointer): exact rebind,
                    # and element 0 is never touched.
                    self.buffers[name] = value.pointer
                else:
                    self.flag(FLAG_POINTER_DECL)
                    self.buffers[name] = (f"<unknown:{name}>", self.buffers[name][1])
                return value
            old = self.env.get(name, _Value(Div.BOTTOM, None))
            if self.control_div > Div.UNIFORM:
                # A masked assignment: lanes that skip it keep the old value,
                # so the merged value is lane-dependent.
                new = _Value(Div.DIVERGENT, None, pointer=value.pointer)
            elif compound:
                new = _Value(
                    join(old.div, value.div), None, pointer=value.pointer or old.pointer
                )
            else:
                new = value
            self.env[name] = new
            return new
        if isinstance(target, ast.Index):
            # Storing a pointer into a data cell coerces it to element 0 —
            # the one arithmetic context where the engines really do read.
            self._pointer_value_read(value)
            self._index_write(target, compound=compound)
            return _Value(join(value.div, Div.UNIFORM), None)
        if isinstance(target, ast.Member):
            self.eval(target.base)
            return value
        if isinstance(target, ast.UnaryOp) and target.op == "*":
            self.flag(FLAG_POINTER_DEREF)
            self._pointer_value_read(value)
            self._deref_write(target.operand)
            return value
        self.flag(FLAG_UNKNOWN_CONSTRUCT)
        return _UNKNOWN

    def _self_multiplicative(self, expression: ast.Assignment) -> bool:
        return expression.op in ("*=", "<<=")

    def _ternary(self, expression: ast.TernaryOp) -> _Value:
        condition = self.eval(expression.condition)
        if_true = self.eval(expression.if_true)
        if_false = self.eval(expression.if_false)
        if if_true.pointer is not None or if_false.pointer is not None:
            if condition.div > Div.UNIFORM:
                self.flag(FLAG_POINTER_TERNARY_DIVERGENT)
            else:
                self.flag(FLAG_POINTER_DECL)
            if if_true.pointer == if_false.pointer:
                # Both arms are the same buffer: the selection is a no-op.
                return _Value(Div.UNIFORM, None, pointer=if_true.pointer)
        div = join(condition.div, if_true.div, if_false.div)
        if condition.div > Div.UNIFORM:
            div = Div.DIVERGENT
        return _Value(div, None)

    def _cast(self, expression: ast.Cast) -> _Value:
        if _is_vector_type(expression.target_type):
            self.eval(expression.operand)
            return _UNKNOWN
        value = self.eval(expression.operand)
        if value.pointer is not None:
            # Casting a pointer passes it through unchanged at runtime.
            return value
        if value.div == Div.AFFINE:
            name = (expression.target_type_name or "").replace("const ", "").strip()
            if name not in _WIDE_INT_CASTS:
                # Narrow casts (char, short...) wrap and can collapse
                # distinct lanes onto one value.
                return _Value(Div.DIVERGENT, None)
        return value

    # -- memory ---------------------------------------------------------

    def _resolve_buffer(self, base: ast.Expression) -> tuple[str, str] | None:
        if isinstance(base, ast.Identifier):
            binding = self.buffers.get(base.name)
            if binding is not None:
                return binding
            if base.name in self.private_arrays:
                return None
            # A scalar variable that a pointer value flowed into still
            # indexes that buffer at runtime.
            value = self.env.get(base.name)
            if value is not None and value.pointer is not None:
                return value.pointer
        if isinstance(base, ast.TernaryOp):
            self.eval(base)
            return ("<unknown:ternary>", "global")
        return None

    def _index_read(self, expression: ast.Index) -> _Value:
        index = self._index_value(expression.index)
        base = expression.base
        if isinstance(base, ast.Identifier) and base.name in self.private_arrays:
            # Per-lane storage: no cross-lane hazards possible.
            return _Value(Div.DIVERGENT if index.div > Div.UNIFORM else Div.UNIFORM, None)
        binding = self._resolve_buffer(base)
        if binding is None:
            self.eval(base)
            self.flag(FLAG_UNKNOWN_CONSTRUCT)
            return _UNKNOWN
        buffer, space = binding
        self.record_access(buffer, space, "read", index)
        return _Value(Div.UNIFORM if index.div <= Div.UNIFORM else Div.DIVERGENT, None)

    def _index_write(self, expression: ast.Index, compound: bool = False) -> None:
        index = self._index_value(expression.index)
        base = expression.base
        if isinstance(base, ast.Identifier) and base.name in self.private_arrays:
            return
        binding = self._resolve_buffer(base)
        if binding is None:
            self.eval(base)
            self.flag(FLAG_UNKNOWN_CONSTRUCT)
            return
        buffer, space = binding
        if compound:
            self.record_access(buffer, space, "read", index)
        self.record_access(buffer, space, "write", index)

    def _index_value(self, expression: ast.Expression) -> _Value:
        """Evaluate a subscript; a pointer used as an index collapses to 0."""
        index = self.eval(expression)
        if index.pointer is not None:
            return _Value(Div.UNIFORM, "0")
        return index

    def _deref_read(self, operand: ast.Expression) -> _Value:
        binding = self._resolve_buffer(operand)
        if binding is not None:
            buffer, space = binding
            self.record_access(buffer, space, "read", _Value(Div.UNIFORM, "0"))
            return _Value(Div.UNIFORM, None)
        self.eval(operand)
        return _UNKNOWN

    def _deref_write(self, operand: ast.Expression) -> None:
        binding = self._resolve_buffer(operand)
        if binding is not None:
            buffer, space = binding
            self.record_access(buffer, space, "write", _Value(Div.UNIFORM, "0"))
        else:
            self.eval(operand)
            self.flag(FLAG_UNKNOWN_CONSTRUCT)

    # -- calls ----------------------------------------------------------

    def _call(self, expression: ast.Call) -> _Value:
        name = expression.callee
        if name in WORK_ITEM_FUNCTIONS:
            return self._work_item_query(name, expression)
        if name == "barrier":
            for argument in expression.arguments:
                self.eval(argument)
            self.record_barrier()
            return _Value(Div.UNIFORM, None)
        if name in ("mem_fence", "read_mem_fence", "write_mem_fence"):
            for argument in expression.arguments:
                self.eval(argument)
            return _Value(Div.UNIFORM, None)
        if name in ATOMIC_FUNCTIONS:
            return self._atomic(name, expression)
        if name.startswith(("vload", "vstore")):
            for argument in expression.arguments:
                self.eval(argument)
            return _UNKNOWN
        if name.startswith("async_work_group") or name == "prefetch":
            self.flag(FLAG_UNKNOWN_CONSTRUCT)
            for argument in expression.arguments:
                self.eval(argument)
            return _UNKNOWN
        helper = self.analysis.functions.get(name)
        if helper is not None:
            return self._helper_call(helper, expression)
        # Pure math builtin (or an undeclared call, which the semantic
        # checker rejects upstream): divergence of the arguments.  A pointer
        # argument is scalarized to its element 0 — a hazard-tracked read.
        values = [self.eval(argument) for argument in expression.arguments]
        for value in values:
            self._pointer_value_read(value)
        divs = [value.div for value in values]
        div = join(*divs) if divs else Div.UNIFORM
        if div == Div.AFFINE:
            div = Div.DIVERGENT
        return _Value(div, None)

    def _work_item_query(self, name: str, expression: ast.Call) -> _Value:
        dimension: int | None = None
        if expression.arguments:
            argument = expression.arguments[0]
            if isinstance(argument, ast.IntLiteral):
                dimension = argument.value
            else:
                self.eval(argument)
        else:
            dimension = 0
        if name == "get_global_id":
            if dimension == 0 and not self.analysis.multi_dim:
                return _Value(Div.AFFINE, "g0")
            # A 2-D dispatch linearises the lane set, so neither dimension's
            # id is injective over all lanes; a higher dimension queried in a
            # 1-D dispatch is the constant 0 (every lane writes through it to
            # the same cell).  Either way the affinity claim would be wrong.
            return _Value(Div.DIVERGENT, None)
        if name in ("get_local_id", "get_group_id"):
            # Repeats across (or constant within) work-groups: lane-dependent
            # but never injective over the whole dispatch.
            return _Value(Div.DIVERGENT, None)
        form = _UNIFORM_QUERY_FORMS.get(name)
        if form is not None and dimension is not None:
            return _Value(Div.UNIFORM, f"{form}{dimension}")
        return _Value(Div.UNIFORM, None)

    def _atomic(self, name: str, expression: ast.Call) -> _Value:
        self.flag(FLAG_ATOMIC)
        operation = name.replace("atomic_", "").replace("atom_", "")
        if expression.arguments:
            location = expression.arguments[0]
            if isinstance(location, ast.UnaryOp) and location.op == "&":
                location = location.operand
            if isinstance(location, ast.Index):
                index = self.eval(location.index)
                base = location.base
                if isinstance(base, ast.Identifier) and base.name in self.private_arrays:
                    self.flag(FLAG_ATOMIC_PRIVATE)
                else:
                    binding = self._resolve_buffer(base)
                    if binding is not None:
                        buffer, space = binding
                        self.record_access(
                            buffer, space, "atomic", index, atomic_op=operation
                        )
                    else:
                        self.flag(FLAG_UNKNOWN_CONSTRUCT)
            elif isinstance(location, ast.Identifier):
                binding = self.buffers.get(location.name)
                if binding is not None:
                    buffer, space = binding
                    self.record_access(
                        buffer, space, "atomic", _Value(Div.UNIFORM, "0"), atomic_op=operation
                    )
                elif location.name in self.private_arrays:
                    self.flag(FLAG_ATOMIC_PRIVATE)
                else:
                    self.flag(FLAG_UNKNOWN_CONSTRUCT)
            else:
                self.eval(location)
                self.flag(FLAG_UNKNOWN_CONSTRUCT)
            for argument in expression.arguments[1:]:
                self.eval(argument)
        return _Value(Div.DIVERGENT, None)

    def _helper_call(self, helper: ast.FunctionDecl, expression: ast.Call) -> _Value:
        if helper.name in self.active:
            for argument in expression.arguments:
                self.eval(argument)
            return _UNKNOWN
        child = _FunctionAnalyzer(
            self.analysis,
            self.facts,
            active=self.active | {helper.name},
            base_control=self.control_div,
            in_helper=True,
            recording=self.recording,
        )
        child.loop_depth = self.loop_depth
        child.trip_multiplier = self.trip_multiplier
        for parameter, argument in zip(helper.parameters, expression.arguments):
            value = self.eval(argument)
            if not parameter.name:
                continue
            if _is_pointer_type(parameter.declared_type):
                # Passed by reference: no element-0 read at the call site.
                if value.pointer is not None:
                    child.buffers[parameter.name] = value.pointer
                else:
                    self.flag(FLAG_POINTER_DECL)
                    child.buffers[parameter.name] = (
                        f"<unknown:{helper.name}.{parameter.name}>",
                        "global",
                    )
            else:
                # A pointer handed to a scalar parameter stays a pointer in
                # the callee's slot; keep the mark so its eventual deref in
                # the helper body records the read.
                child.env[parameter.name] = _Value(
                    value.div, None, pointer=value.pointer
                )
        for argument in expression.arguments[len(helper.parameters):]:
            self.eval(argument)
        child.analyze_body(helper.body)
        if self.recording:
            self.steps += child.steps
        if helper.return_type_name != "void" and not _all_paths_return(helper.body):
            self.flag(FLAG_HELPER_FALLOFF)
        div = child.return_div if child.return_div != Div.BOTTOM else Div.UNIFORM
        return _Value(div, None)


def _all_paths_return(statement: ast.Statement | None) -> bool:
    """Whether every control path through *statement* executes a return."""
    if statement is None:
        return False
    if isinstance(statement, ast.ReturnStmt):
        return True
    if isinstance(statement, ast.CompoundStmt):
        return any(_all_paths_return(child) for child in statement.statements)
    if isinstance(statement, ast.IfStmt):
        return (
            statement.else_branch is not None
            and _all_paths_return(statement.then_branch)
            and _all_paths_return(statement.else_branch)
        )
    # Loops may run zero times; switches may miss every case.
    return False
