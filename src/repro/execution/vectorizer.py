"""Vectorized lockstep (SIMT) execution of OpenCL kernels.

The closure engine (:mod:`repro.execution.compiler`) executes one work-item
at a time; this module lowers a kernel to closures that advance **all**
work-items of an NDRange in lockstep, with every runtime scalar held as a
``(n_items,)`` NumPy lane array and boolean divergence masks selecting the
active lanes through ``if``, ``for``, ``break`` and ``return``.  Loads and
stores become masked gathers/scatters against :class:`LockstepBuffer` views
of the memory pool.

The tier is a *bit-identical* stand-in for the scalar engines — equal
buffer contents and :class:`ExecutionStats` on every kernel it accepts,
asserted by the four-way differential (interpreter, closure, generic
lockstep, specialized lockstep).  That guarantee is kept structural through
three mechanisms:

* **Static rejection** (:class:`NotVectorizable`): kernels using atomics
  whose result is used or whose order matters, OpenCL vector types,
  ``vload``/``vstore`` or address-of compile to ``None`` and run on the
  closure engine: a lockstep pass cannot reproduce their scheduling or
  values.  Result-discarded, order-independent atomics run in lockstep
  through ``np.ufunc.at``.  Kernels using ``while``, ``do``, ``switch``,
  ``continue``, a call to a function defined in the unit, a private array,
  a ``__local`` array declaration or a program-scope variable are refused
  too: the closure engine runs them bit-identically, and neither the
  benchmark suites nor the synthesized kernels use them.  These raises are
  the only statement of the subset: the static analyzer's ``rejected``
  class is :func:`lockstep_rejection`.
* **Dynamic bailout** (:class:`~repro.errors.LockstepBailout`): cross-lane
  memory hazards, int64 overflow, per-lane int/float type divergence and
  step-budget overruns abort the lockstep pass *before the memory pool is
  touched* (all work happens on ndarray copies).  A memory hazard first
  replays the launch in smaller chunks (below); a bailout that remains
  makes the router re-execute on the closure engine.
* **Exact accounting**: step counts, branch evaluations, divergence sites
  and memory-access counters are maintained per lane/mask in exactly the
  places the scalar engines bump them.

The only analyzer fact the tier consumes is ``eligible`` (see
:mod:`repro.analysis.specialize`): a SAFE kernel has no race site, so its
specialized instance skips the per-cell writer/reader bookkeeping on every
buffer.  A generic instance is the same compile with the bookkeeping on.

A launch runs as an ordered list of **chunks**, each a contiguous run of
whole work-groups executed as one lockstep pass that sees every earlier
chunk's writes; the memory pool is written only after the last chunk
succeeds.  A kernel without barriers or ``__local`` memory is one chunk of
every group.  A *group kernel* (one with either) puts each maximal run of
full work-groups in one chunk and each partial group in its own.  A
statement-level ``barrier()`` is a hazard-epoch boundary — the scalar
engines advance every work-item of a group to the barrier before any
proceeds, so pre-barrier writes are committed state for post-barrier reads
and the per-lane writer/reader trackers reset.  Barriers must be convergent
(reached by every live lane of the chunk); divergent barrier masks bail out.
The scalar engines finish group g before group g + 1 starts, so in a chunk
of several groups, order between groups must also hold across barriers:
chunk-wide per-cell trackers bail when a group touches a cell another group
wrote, or writes a cell a higher group read.  A ``__local`` pointer
argument gets one slice per group, filled with the buffer's contents at
the start of the chunk; a group may read only cells it has written in the
chunk, and at the end each cell takes the value of the last group that
wrote it (see :class:`~repro.execution.memory.LockstepBuffer`).  A memory
hazard (:class:`~repro.errors.LockstepHazard`) in a chunk of ``g > 1``
groups runs the launch again from its first chunk with at most ``g // 2``
groups per chunk; every launch starts with no cap.  A hazard in a
one-group chunk, or any other bailout (a barrier that the groups of a
chunk reach divergently included), falls back to the closure engine,
whose generator scheduler handles divergent barriers.
"""

from __future__ import annotations

import numpy as np

from repro.clc import ast_nodes as ast
from repro.clc.builtins import SYNC_FUNCTIONS, WORK_ITEM_FUNCTIONS
from repro.clc.types import AddressSpace, PointerType, VectorType
from repro.errors import ExecutionError, LockstepBailout, LockstepHazard
from repro.execution.builtins_impl import evaluate_builtin_lockstep
from repro.execution.interpreter import ExecutionResult, ExecutionStats
from repro.execution.memory import LockstepBuffer, MemoryPool
from repro.execution.ndrange import NDRange
from repro.execution.ops import CONSTANTS, collect_memory_stats, eval_sizeof
from repro.execution.values import VectorValue
from repro.execution.vec_ops import (
    FLOAT_KIND,
    INT_KIND,
    binary,
    convert,
    invert,
    logical_not,
    mask_and,
    mask_andnot,
    mask_any,
    mask_count,
    mask_minus,
    mask_or,
    merge,
    negate,
    select,
    to_array,
    to_float_data,
    to_int_data,
    truthy,
)

_MISSING = object()

_FLOAT_TYPE_KINDS = ("float", "double", "half")
_INT_TYPE_KINDS = ("int", "uint", "long", "ulong", "short", "ushort", "char",
                   "uchar", "size_t", "bool")


class NotVectorizable(Exception):
    """The kernel uses a construct outside the lockstep-executable subset."""


class VectorizerStats:
    """Process-wide counters for engine-selection observability."""

    def __init__(self):
        self.kernels_specialized = 0
        self.executions = 0
        self.bailouts = 0
        #: Launches that completed in lockstep only after a hazard split
        #: them into smaller chunks.
        self.replays = 0

    def reset(self) -> None:
        self.__init__()


VECTORIZER_STATS = VectorizerStats()


# ---------------------------------------------------------------------------
# Runtime containers.
# ---------------------------------------------------------------------------


class _PartialBinding:
    """A variable bound on only some lanes (declared in a divergent branch).

    Lanes outside ``bound`` behave like the scalar engines' *unbound*
    lookup (builtin-constant fallback); the conflict between bound and
    fallback kinds is resolved lazily at the first genuinely mixed read,
    where it bails out if irreconcilable.
    """

    __slots__ = ("value", "bound")

    def __init__(self, value, bound):
        self.value = value  # (kind, data) lane value
        self.bound = bound  # bool ndarray


class _Ctx:
    """Per-execution lockstep state shared by all compiled closures."""

    __slots__ = (
        "n", "lane_ids", "steps", "steps_flat", "extra_ops",
        "max_steps", "stats", "env", "gids", "lids", "grpids",
        "group_of", "groups_with_lanes", "n_groups", "chunk_groups", "global_size",
        "local_size", "num_groups", "work_dim", "branch_sites",
        "break_stack", "finished", "buffer_views",
    )

    def __init__(self, n: int, max_steps: int, stats: ExecutionStats):
        self.n = n
        self.lane_ids = np.arange(n, dtype=np.int64)
        self.steps = None  # lazily allocated per-lane step counters
        self.steps_flat = 0  # bumps applied to every lane (full-mask path)
        self.extra_ops = 0  # statement-barrier bookkeeping ops (mirror rt.extra_ops)
        self.max_steps = max_steps
        self.stats = stats
        self.env: dict = {}
        self.gids: list = []
        self.lids: list = []
        self.grpids: list = []
        self.group_of = None
        self.groups_with_lanes = None
        self.n_groups = 0
        #: Work-groups in this pass's chunk (the scalar engines count
        #: barriers per group).
        self.chunk_groups = 1
        self.global_size = ()
        self.local_size = ()
        self.num_groups = ()
        self.work_dim = 1
        self.branch_sites: dict = {}
        #: One mask per enclosing ``for`` loop: the lanes that broke out.
        self.break_stack: list = []
        #: Lanes that left the kernel body: by ``return``, or by a ``break``
        #: outside any loop (the scalar engines end the item).
        self.finished = False
        #: Every LockstepBuffer view — barrier epoch resets walk this.
        self.buffer_views: list = []

    # ------------------------------------------------------------------

    def bump(self, mask) -> None:
        if mask is None:
            self.steps_flat += 1
        else:
            if self.steps is None:
                self.steps = np.zeros(self.n, dtype=np.int64)
            self.steps += mask

    def steps_upper_bound(self) -> int:
        bound = self.steps_flat
        if self.steps is not None:
            bound += int(self.steps.max())
        return bound

    def check_budget(self) -> None:
        if self.steps_upper_bound() > self.max_steps:
            raise LockstepBailout("step budget exceeded (possible timeout)")

    def record_branch(self, site: int, mask, cond) -> None:
        entry = self.branch_sites.get(site)
        if entry is None:
            entry = (
                np.zeros(self.n_groups, dtype=bool),
                np.zeros(self.n_groups, dtype=bool),
            )
            self.branch_sites[site] = entry
        seen_true, seen_false = entry
        if isinstance(cond, (bool, np.bool_)):
            target = seen_true if cond else seen_false
            self._mark_groups(target, mask)
        else:
            true_mask = mask_and(mask, cond)
            false_mask = mask_andnot(mask, cond)
            if true_mask is not False:
                self._mark_groups(seen_true, true_mask)
            if false_mask is not False:
                self._mark_groups(seen_false, false_mask)

    def _mark_groups(self, target: np.ndarray, mask) -> None:
        if mask is None:
            target |= self.groups_with_lanes
        else:
            target |= np.bincount(
                self.group_of[mask], minlength=self.n_groups
            ).astype(bool)


def _truthy_of(value):
    """C truthiness of any lockstep runtime value (pointers are truthy)."""
    if isinstance(value, LockstepBuffer):
        return True
    kind, data = value
    return truthy(kind, data)


def _binary_values(op: str, left, right, mask):
    """apply_binary over lockstep values, including the pointer rules."""
    if type(left) is tuple and type(right) is tuple:
        return binary(op, left, right, mask)
    if op in ("==", "!="):
        return (INT_KIND, 1 if (left is right) == (op == "==") else 0)
    return left if isinstance(left, LockstepBuffer) else right


def _as_index_of(value, mask):
    """Mirror ops.as_index: pointers collapse to index 0."""
    if isinstance(value, LockstepBuffer):
        return 0
    kind, data = value
    return to_int_data(kind, data, mask)


# ---------------------------------------------------------------------------
# Lane layout (interpreter iteration order), cached per NDRange.
# ---------------------------------------------------------------------------

_LANE_LAYOUT_CACHE: dict[NDRange, tuple] = {}


def _lane_layout(ndrange: NDRange):
    cached = _LANE_LAYOUT_CACHE.get(ndrange)
    if cached is not None:
        return cached
    gids_cols: list[list[int]] = [[] for _ in range(ndrange.work_dim)]
    lids_cols: list[list[int]] = [[] for _ in range(ndrange.work_dim)]
    grp_cols: list[list[int]] = [[] for _ in range(ndrange.work_dim)]
    group_of: list[int] = []
    local_ids = list(ndrange.local_ids())
    n_groups = 0
    for group_index, group_id in enumerate(ndrange.group_ids()):
        n_groups += 1
        for local_id in local_ids:
            global_id = ndrange.global_id(group_id, local_id)
            if not ndrange.in_range(global_id):
                continue
            for dim in range(ndrange.work_dim):
                gids_cols[dim].append(global_id[dim])
                lids_cols[dim].append(local_id[dim])
                grp_cols[dim].append(group_id[dim])
            group_of.append(group_index)
    layout = (
        [np.array(col, dtype=np.int64) for col in gids_cols],
        [np.array(col, dtype=np.int64) for col in lids_cols],
        [np.array(col, dtype=np.int64) for col in grp_cols],
        np.array(group_of, dtype=np.int64),
        n_groups,
    )
    if len(_LANE_LAYOUT_CACHE) > 128:
        _LANE_LAYOUT_CACHE.clear()
    _LANE_LAYOUT_CACHE[ndrange] = layout
    return layout


# ---------------------------------------------------------------------------
# The compiler.
# ---------------------------------------------------------------------------


class VectorizedKernel:
    """One kernel lowered to lockstep NumPy closures.

    Construction raises :class:`NotVectorizable` when the kernel falls
    outside the lockstep subset; use :func:`try_vectorize` for the
    ``None``-on-rejection convenience wrapper.
    """

    def __init__(
        self,
        unit: ast.TranslationUnit,
        kernel_name: str | None = None,
        max_steps_per_item: int = 50_000,
        specialization=None,
    ):
        kernels = unit.kernels
        if not kernels:
            raise ExecutionError("translation unit contains no kernels")
        #: Off for the specialized tier: its SAFE verdict proves every
        #: buffer free of cross-lane hazards.
        self._track_hazards = specialization is None
        self._kernel = kernels[0] if kernel_name is None else unit.kernel(kernel_name)
        self._functions = {f.name for f in unit.functions if f.body is not None}
        self._max_steps = max_steps_per_item
        self._site_count = 0
        #: Set after a dynamic bailout: the hazards that trigger one are a
        #: property of the kernel's access pattern far more than of the
        #: payload, so later executions skip straight to the closure engine
        #: instead of re-running the doomed lockstep pass.
        self._disabled = False
        #: Kernels with a barrier or a __local pointer parameter are *group
        #: kernels*: a chunk of their launch holds whole work-groups (set
        #: during compilation when either construct is seen).
        self._needs_groups = False

        #: (name, is_pointer) per kernel parameter, in order.
        self._param_plan = []
        for parameter in self._kernel.parameters:
            declared = parameter.declared_type
            if isinstance(declared, PointerType):
                if isinstance(declared.pointee, VectorType):
                    raise NotVectorizable("vector-element pointer parameter")
                if declared.address_space is AddressSpace.LOCAL:
                    self._needs_groups = True
                self._param_plan.append((parameter.name, True))
            else:
                if isinstance(declared, VectorType):
                    raise NotVectorizable("vector-typed scalar parameter")
                self._param_plan.append((parameter.name, False))

        if any(declaration.declarator is not None for declaration in unit.globals):
            raise NotVectorizable("program-scope variable")

        self._body_fn = self._compile_statement(self._kernel.body)
        if specialization is not None and self._needs_groups:
            # The race pass's hazard proof assumes one flat lane vector with
            # no barrier epochs; the analyzer never marks group kernels
            # eligible, so this is a defensive consistency check.
            raise NotVectorizable("specialized tier does not run group kernels")

    @property
    def kernel(self) -> ast.FunctionDecl:
        return self._kernel

    @property
    def max_steps_per_item(self) -> int:
        return self._max_steps

    # ------------------------------------------------------------------
    # Execution.
    # ------------------------------------------------------------------

    def execute(
        self,
        pool: MemoryPool,
        scalar_args: dict[str, object],
        ndrange: NDRange,
    ) -> ExecutionResult:
        """Run the kernel in lockstep; same contract as the other engines.

        A :class:`~repro.errors.LockstepHazard` in a chunk of ``g > 1``
        work-groups runs the launch again from its first chunk with at most
        ``g // 2`` groups per chunk.  A hazard in a one-group chunk, or any
        other bailout, raises :class:`~repro.errors.LockstepBailout` — with
        the memory pool untouched — and the router then falls back to the
        closure engine.
        """
        if self._disabled:
            raise LockstepBailout("disabled after a prior bailout")
        VECTORIZER_STATS.executions += 1
        cap = None
        try:
            with np.errstate(all="ignore"):
                while True:
                    try:
                        result = self._execute(pool, scalar_args, ndrange, cap)
                        break
                    except LockstepHazard as hazard:
                        if hazard.groups <= 1:
                            raise
                        cap = hazard.groups // 2
        except LockstepBailout:
            self._disabled = True
            VECTORIZER_STATS.bailouts += 1
            raise
        if cap is not None:
            VECTORIZER_STATS.replays += 1
        return result

    def _chunks(
        self, group_of: np.ndarray, n_groups: int, group_size: int, cap: int | None = None
    ) -> list:
        """The launch as ``[begin, end, groups]`` lane ranges in group order.

        A flat kernel is one chunk.  A group kernel puts each maximal run of
        full work-groups in one chunk and each partial group in a chunk of
        its own: a partial group leaves cells of a shared ``__local`` tile
        unwritten, and sequentially those cells keep the previous group's
        values, which no multi-group pass reproduces.  A *cap* splits each
        of these chunks into runs of at most *cap* whole groups; a flat
        kernel's lanes are in the scalar engines' item order, so its chunks
        need nothing more.
        """
        if not self._needs_groups and cap is None:
            return [[0, int(group_of.size), n_groups]]
        limit = cap or n_groups
        bounds = np.searchsorted(group_of, np.arange(n_groups + 1)).tolist()
        chunks: list = []
        extendable = False
        for group in range(n_groups):
            begin, end = bounds[group], bounds[group + 1]
            if begin == end:
                extendable = False
                continue
            joins = not self._needs_groups or end - begin == group_size
            if joins and extendable and chunks[-1][2] < limit:
                chunks[-1][1] = end
                chunks[-1][2] += 1
            else:
                chunks.append([begin, end, 1])
            extendable = joins
        return chunks

    def _execute(self, pool, scalar_args, ndrange, cap=None) -> ExecutionResult:
        gids, lids, grpids, group_of, n_groups = _lane_layout(ndrange)
        n = int(group_of.size)

        stats = ExecutionStats()
        stats.work_groups = n_groups
        stats.work_items = n

        lockstep_buffers: dict[str, LockstepBuffer] = {}
        for name, buffer in pool.buffers.items():
            if buffer.address_space == "local" and not self._needs_groups:
                raise LockstepBailout("unexpected __local buffer in lockstep pool")
            lockstep_buffers[name] = LockstepBuffer(buffer, track_hazards=self._track_hazards)
        views = list(lockstep_buffers.values())

        base_env: dict = {}
        for name, is_pointer in self._param_plan:
            if is_pointer:
                view = lockstep_buffers.get(name)
                if view is None:
                    raise ExecutionError(f"no buffer bound for pointer argument {name!r}")
                base_env[name] = view
            else:
                value = scalar_args[name] if name in scalar_args else 0
                if isinstance(value, VectorValue):
                    raise LockstepBailout("vector-valued scalar argument")
                if isinstance(value, float):
                    base_env[name] = (FLOAT_KIND, value)
                elif isinstance(value, int):
                    base_env[name] = (INT_KIND, int(value))
                else:
                    raise LockstepBailout(f"unsupported scalar argument type {type(value).__name__}")

        branch_sites: dict = {}
        total_steps = 0

        # Chunks run in group order, each one lockstep pass that sees every
        # earlier chunk's writes; the pool is written only after the last.
        for begin, end, groups in self._chunks(
            group_of, n_groups, ndrange.work_group_size, cap
        ):
            count = end - begin
            ctx = _Ctx(count, self._max_steps, stats)
            ctx.global_size = ndrange.global_size
            ctx.local_size = ndrange.effective_local_size
            ctx.num_groups = ndrange.num_groups
            ctx.work_dim = ndrange.work_dim
            ctx.n_groups = n_groups
            ctx.chunk_groups = groups
            ctx.branch_sites = branch_sites
            ctx.env = dict(base_env)
            ctx.gids = [column[begin:end] for column in gids]
            ctx.lids = [column[begin:end] for column in lids]
            ctx.grpids = [column[begin:end] for column in grpids]
            ctx.group_of = group_of[begin:end]
            ctx.groups_with_lanes = np.bincount(ctx.group_of, minlength=n_groups).astype(bool)
            multi_group = self._needs_groups and groups > 1
            lane_group = ctx.group_of - ctx.group_of[0] if multi_group else None
            for view in views:
                view.begin_chunk(lane_group, groups)
            ctx.buffer_views = views
            try:
                if self._body_fn is not None:
                    self._body_fn(ctx, None)
            except LockstepHazard as hazard:
                hazard.groups = groups
                raise
            ctx.check_budget()
            for view in views:
                view.end_chunk()
            total_steps += ctx.steps_flat * count + ctx.extra_ops
            if ctx.steps is not None:
                total_steps += int(ctx.steps.sum())

        # Success: commit ndarray views and counters back into the pool
        # (every pool buffer has a view, so commit() replaces all stats).
        for view in views:
            view.commit()

        stats.dynamic_operations = total_steps
        collect_memory_stats(stats, pool, {})
        stats.branch_sites = sum(
            int((seen_true | seen_false).sum())
            for seen_true, seen_false in branch_sites.values()
        )
        stats.divergent_branch_sites = sum(
            int((seen_true & seen_false).sum())
            for seen_true, seen_false in branch_sites.values()
        )
        return ExecutionResult(kernel_name=self._kernel.name, pool=pool, stats=stats)

    # ------------------------------------------------------------------
    # Statement compilation: each compiles to ``fn(ctx, mask) -> mask`` that
    # returns the lanes still falling through (break lanes are recorded in
    # the enclosing loop's ``ctx.break_stack`` entry, finished lanes in
    # ``ctx.finished``).  ``None`` for empty statements.  Callers never
    # invoke a statement with an empty mask.
    # ------------------------------------------------------------------

    def _compile_statement(self, statement):
        if statement is None or isinstance(statement, ast.EmptyStmt):
            return None
        handler = _STATEMENT_COMPILERS.get(type(statement))
        if handler is None:
            raise NotVectorizable(f"statement {type(statement).__name__}")
        return handler(self, statement)

    def _compile_compound(self, statement: ast.CompoundStmt):
        children = [self._compile_statement(child) for child in statement.statements]
        children = [fn for fn in children if fn is not None]

        def run(ctx, mask):
            ctx.bump(mask)
            for fn in children:
                mask = fn(ctx, mask)
                if not mask_any(mask):
                    return False
            return mask

        return run

    def _compile_decl(self, statement: ast.DeclStmt):
        actions = [self._compile_declarator(d) for d in statement.declarators]

        def run(ctx, mask):
            ctx.bump(mask)
            for action in actions:
                action(ctx, mask)
            return mask

        return run

    def _compile_declarator(self, declarator: ast.Declarator):
        name = declarator.name
        declared = declarator.declared_type
        if declarator.address_space is AddressSpace.LOCAL or (
            isinstance(declared, PointerType)
            and declared.address_space is AddressSpace.LOCAL
            and declarator.array_size is not None
        ):
            raise NotVectorizable("__local array declaration")
        if isinstance(declared, VectorType):
            raise NotVectorizable("vector-typed declaration")
        if declarator.array_size is not None:
            raise NotVectorizable("private array")

        init_fn = (
            self._compile_expression(declarator.initializer)
            if declarator.initializer is not None
            else None
        )
        coerce = _compile_decl_coercion(declared)

        def scalar_action(ctx, mask):
            value = init_fn(ctx, mask) if init_fn is not None else (INT_KIND, 0)
            value = coerce(value, mask)
            _declare_into_env(ctx, name, value, mask)

        return scalar_action

    def _compile_expr_stmt(self, statement: ast.ExprStmt):
        expression = statement.expression
        if expression is None:

            def run_empty(ctx, mask):
                ctx.bump(mask)
                return mask

            return run_empty

        if isinstance(expression, ast.Call) and expression.callee in SYNC_FUNCTIONS:
            self._needs_groups = True

            def run_barrier(ctx, mask):
                ctx.bump(mask)
                ctx.extra_ops += mask_count(mask, ctx.n)
                # Every live lane of the chunk must reach this barrier: the
                # generator scheduler can pair lanes waiting at *different*
                # barriers, which one lockstep pass cannot reproduce.
                live = mask_minus(None, ctx.finished)
                if mask_minus(live, mask) is not False:
                    raise LockstepBailout("divergent work-group barrier")
                # The scalar engines count a barrier once per group that
                # reaches it.
                groups = ctx.chunk_groups
                if mask is not None and groups > 1:
                    groups = int(np.unique(ctx.group_of[mask]).size)
                ctx.stats.barriers_hit += groups
                # Pre-barrier writes are committed: reset the hazard epochs.
                for view in ctx.buffer_views:
                    view.new_epoch()
                return mask

            return run_barrier

        expr_fn = self._compile_expression(expression, result_used=False)

        def run(ctx, mask):
            ctx.bump(mask)
            expr_fn(ctx, mask)
            return mask

        return run

    def _compile_if(self, statement: ast.IfStmt):
        condition_fn = self._compile_expression(statement.condition)
        then_fn = self._compile_statement(statement.then_branch)
        has_else = statement.else_branch is not None
        else_fn = self._compile_statement(statement.else_branch)
        site = self._site_count
        self._site_count += 1

        def run(ctx, mask):
            ctx.bump(mask)
            outcome = _truthy_of(condition_fn(ctx, mask))
            ctx.stats.branch_evaluations += mask_count(mask, ctx.n)
            ctx.record_branch(site, mask, outcome)
            then_mask = mask_and(mask, outcome)
            else_mask = mask_andnot(mask, outcome)
            survivors = False
            if mask_any(then_mask):
                survivors = then_fn(ctx, then_mask) if then_fn is not None else then_mask
            if has_else:
                if mask_any(else_mask):
                    else_out = else_fn(ctx, else_mask) if else_fn is not None else else_mask
                    survivors = mask_or(survivors, else_out)
            else:
                survivors = mask_or(survivors, else_mask)
            return survivors

        return run

    def _compile_for(self, statement: ast.ForStmt):
        init_fn = self._compile_statement(statement.init)
        condition_fn = (
            self._compile_expression(statement.condition)
            if statement.condition is not None
            else None
        )
        increment_fn = (
            self._compile_expression(statement.increment, result_used=False)
            if statement.increment is not None
            else None
        )
        body_fn = self._compile_statement(statement.body)

        def run(ctx, mask):
            ctx.bump(mask)
            live = init_fn(ctx, mask) if init_fn is not None else mask
            # A bailout discards ctx, so the stack needs no unwinding.
            ctx.break_stack.append(False)
            exited = False
            while mask_any(live):
                ctx.check_budget()
                if condition_fn is not None:
                    outcome = _truthy_of(condition_fn(ctx, live))
                    ctx.stats.branch_evaluations += mask_count(live, ctx.n)
                    exited = mask_or(exited, mask_andnot(live, outcome))
                    live = mask_and(live, outcome)
                    if not mask_any(live):
                        break
                if body_fn is not None:
                    live = body_fn(ctx, live)
                if increment_fn is not None and mask_any(live):
                    increment_fn(ctx, live)
            return mask_or(exited, ctx.break_stack.pop())

        return run

    def _compile_return(self, statement: ast.ReturnStmt):
        # Only the kernel body runs, so a returned value is evaluated (for
        # its steps and side effects) and dropped, as the scalar engines do.
        value_fn = (
            self._compile_expression(statement.value) if statement.value is not None else None
        )

        def run(ctx, mask):
            ctx.bump(mask)
            if value_fn is not None:
                value_fn(ctx, mask)
            ctx.finished = mask_or(ctx.finished, mask)
            return False

        return run

    def _compile_break(self, statement: ast.BreakStmt):
        def run(ctx, mask):
            ctx.bump(mask)
            if ctx.break_stack:
                ctx.break_stack[-1] = mask_or(ctx.break_stack[-1], mask)
            else:
                # No enclosing loop: the scalar engines end the item.
                ctx.finished = mask_or(ctx.finished, mask)
            return False

        return run

    # ------------------------------------------------------------------
    # Expression compilation: ``fn(ctx, mask) -> lane value``.
    # ------------------------------------------------------------------

    def _compile_expression(self, expression, result_used: bool = True):
        handler = _EXPRESSION_COMPILERS.get(type(expression))
        if handler is None:
            raise NotVectorizable(f"expression {type(expression).__name__}")
        if handler is VectorizedKernel._compile_call:
            return handler(self, expression, result_used)
        return handler(self, expression)

    def _compile_constant(self, kind, value):
        constant = (kind, value)

        def fn(ctx, mask):
            ctx.bump(mask)
            return constant

        return fn

    def _compile_int_literal(self, expression: ast.IntLiteral):
        return self._compile_constant(INT_KIND, expression.value)

    def _compile_float_literal(self, expression: ast.FloatLiteral):
        return self._compile_constant(FLOAT_KIND, expression.value)

    def _compile_char_literal(self, expression: ast.CharLiteral):
        text = expression.value.strip("'")
        return self._compile_constant(INT_KIND, ord(text[0]) if text else 0)

    def _compile_string_literal(self, expression: ast.StringLiteral):
        return self._compile_constant(INT_KIND, 0)

    def _compile_sizeof(self, expression: ast.SizeOf):
        return self._compile_constant(INT_KIND, eval_sizeof(expression.target_type_name))

    def _compile_identifier(self, expression: ast.Identifier):
        name = expression.name
        fallback_value = CONSTANTS.get(name, 0)
        fallback = (
            FLOAT_KIND if isinstance(fallback_value, float) else INT_KIND,
            fallback_value,
        )

        def fn(ctx, mask):
            ctx.bump(mask)
            value = ctx.env.get(name, _MISSING)
            if value is _MISSING:
                return fallback
            if isinstance(value, _PartialBinding):
                return _resolve_partial(ctx, value, fallback, mask)
            return value

        return fn

    def _compile_binary(self, expression: ast.BinaryOp):
        op = expression.op
        left_fn = self._compile_expression(expression.left)
        right_fn = self._compile_expression(expression.right)

        if op == "&&":

            def fn_and(ctx, mask):
                ctx.bump(mask)
                left_outcome = _truthy_of(left_fn(ctx, mask))
                if left_outcome is True:
                    right_outcome = _truthy_of(right_fn(ctx, mask))
                elif left_outcome is False:
                    return (INT_KIND, 0)
                else:
                    right_mask = mask_and(mask, left_outcome)
                    if not mask_any(right_mask):
                        return (INT_KIND, 0)
                    right_outcome = _truthy_of(right_fn(ctx, right_mask))
                return _combine_logical(left_outcome, right_outcome, "and")

            return fn_and

        if op == "||":

            def fn_or(ctx, mask):
                ctx.bump(mask)
                left_outcome = _truthy_of(left_fn(ctx, mask))
                if left_outcome is True:
                    return (INT_KIND, 1)
                if left_outcome is False:
                    right_outcome = _truthy_of(right_fn(ctx, mask))
                else:
                    right_mask = mask_andnot(mask, left_outcome)
                    if not mask_any(right_mask):
                        right_outcome = False
                    else:
                        right_outcome = _truthy_of(right_fn(ctx, right_mask))
                return _combine_logical(left_outcome, right_outcome, "or")

            return fn_or

        if op == ",":

            def fn_comma(ctx, mask):
                ctx.bump(mask)
                left_fn(ctx, mask)
                return right_fn(ctx, mask)

            return fn_comma

        def fn(ctx, mask):
            ctx.bump(mask)
            return _binary_values(op, left_fn(ctx, mask), right_fn(ctx, mask), mask)

        return fn

    def _compile_unary(self, expression: ast.UnaryOp):
        op = expression.op
        if op == "&":
            raise NotVectorizable("address-of operator")

        if op in ("++", "--"):
            operand_fn = self._compile_expression(expression.operand)
            store_fn = self._compile_store(expression.operand)
            arith = "+" if op == "++" else "-"

            def fn_incdec(ctx, mask):
                ctx.bump(mask)
                updated = _binary_values(arith, operand_fn(ctx, mask), (INT_KIND, 1), mask)
                store_fn(ctx, mask, updated)
                return updated

            return fn_incdec

        operand_fn = self._compile_expression(expression.operand)

        if op == "*":

            def fn_deref(ctx, mask):
                ctx.bump(mask)
                pointer = operand_fn(ctx, mask)
                if isinstance(pointer, LockstepBuffer):
                    return pointer.load(0, mask, ctx.n, ctx.lane_ids)
                return pointer

            return fn_deref

        if op == "-":

            def fn_neg(ctx, mask):
                ctx.bump(mask)
                operand = operand_fn(ctx, mask)
                if isinstance(operand, LockstepBuffer):
                    return operand
                return negate(operand, mask)

            return fn_neg

        if op == "+":

            def fn_pos(ctx, mask):
                ctx.bump(mask)
                return operand_fn(ctx, mask)

            return fn_pos

        if op == "!":

            def fn_not(ctx, mask):
                ctx.bump(mask)
                operand = operand_fn(ctx, mask)
                if isinstance(operand, LockstepBuffer):
                    return (INT_KIND, 0)
                return logical_not(operand)

            return fn_not

        if op == "~":

            def fn_invert(ctx, mask):
                ctx.bump(mask)
                operand = operand_fn(ctx, mask)
                if isinstance(operand, LockstepBuffer):
                    raise LockstepBailout("bitwise-not of a pointer")
                return invert(operand, mask)

            return fn_invert

        raise NotVectorizable(f"unary operator {op!r}")

    def _compile_postfix(self, expression: ast.PostfixOp):
        operand_fn = self._compile_expression(expression.operand)
        store_fn = self._compile_store(expression.operand)
        arith = "+" if expression.op == "++" else "-"

        def fn(ctx, mask):
            ctx.bump(mask)
            current = operand_fn(ctx, mask)
            store_fn(ctx, mask, _binary_values(arith, current, (INT_KIND, 1), mask))
            return current

        return fn

    def _compile_assignment(self, expression: ast.Assignment):
        value_fn = self._compile_expression(expression.value)
        store_fn = self._compile_store(expression.target)

        if expression.op == "=":

            def fn_assign(ctx, mask):
                ctx.bump(mask)
                value = value_fn(ctx, mask)
                store_fn(ctx, mask, value)
                return value

            return fn_assign

        target_fn = self._compile_expression(expression.target)
        operator = expression.op[:-1]

        def fn_compound(ctx, mask):
            ctx.bump(mask)
            value = value_fn(ctx, mask)
            value = _binary_values(operator, target_fn(ctx, mask), value, mask)
            store_fn(ctx, mask, value)
            return value

        return fn_compound

    def _compile_ternary(self, expression: ast.TernaryOp):
        condition_fn = self._compile_expression(expression.condition)
        true_fn = self._compile_expression(expression.if_true)
        false_fn = self._compile_expression(expression.if_false)

        def fn(ctx, mask):
            ctx.bump(mask)
            outcome = _truthy_of(condition_fn(ctx, mask))
            if outcome is True:
                return true_fn(ctx, mask)
            if outcome is False:
                return false_fn(ctx, mask)
            true_mask = mask_and(mask, outcome)
            false_mask = mask_andnot(mask, outcome)
            if not mask_any(true_mask):
                return false_fn(ctx, false_mask)
            if not mask_any(false_mask):
                return true_fn(ctx, true_mask)
            when_true = true_fn(ctx, true_mask)
            when_false = false_fn(ctx, false_mask)
            if isinstance(when_true, LockstepBuffer) or isinstance(when_false, LockstepBuffer):
                if when_true is when_false:
                    return when_true
                raise LockstepBailout("divergent pointer-valued ternary")
            return select(outcome, when_true, when_false, ctx.n)

        return fn

    def _compile_index(self, expression: ast.Index):
        base_fn = self._compile_expression(expression.base)
        index_fn = self._compile_expression(expression.index)

        def fn(ctx, mask):
            ctx.bump(mask)
            base = base_fn(ctx, mask)
            index = index_fn(ctx, mask)
            if isinstance(base, LockstepBuffer):
                return base.load(_as_index_of(index, mask), mask, ctx.n, ctx.lane_ids)
            # Indexing a scalar value yields 0 in the scalar engines.
            return (INT_KIND, 0)

        return fn

    def _compile_cast(self, expression: ast.Cast):
        operand_fn = self._compile_expression(expression.operand)
        target = expression.target_type
        if isinstance(target, VectorType):
            raise NotVectorizable("vector cast")

        if target is not None and not isinstance(target, PointerType) and hasattr(target, "kind"):
            kind = target.kind

            def fn_scalar(ctx, mask):
                ctx.bump(mask)
                value = operand_fn(ctx, mask)
                if isinstance(value, LockstepBuffer):
                    return value
                return convert(kind, value, mask)

            return fn_scalar

        def fn_passthrough(ctx, mask):
            ctx.bump(mask)
            return operand_fn(ctx, mask)

        return fn_passthrough

    # ------------------------------------------------------------------
    # Calls.
    # ------------------------------------------------------------------

    def _compile_call(self, expression: ast.Call, result_used: bool = True):
        name = expression.callee

        if name in WORK_ITEM_FUNCTIONS:
            return self._compile_work_item_query(name, expression)

        if name in SYNC_FUNCTIONS:
            # Expression-position sync calls: arguments evaluated, result 0.
            argument_fns = [self._compile_expression(a) for a in expression.arguments]

            def fn_sync(ctx, mask):
                ctx.bump(mask)
                for argument_fn in argument_fns:
                    argument_fn(ctx, mask)
                return (INT_KIND, 0)

            return fn_sync

        if name.startswith(("atomic_", "atom_")):
            return self._compile_atomic(name, expression, result_used)
        if name.startswith(("vload", "vstore")):
            raise NotVectorizable("vector load/store")
        if name in self._functions:
            raise NotVectorizable("call to a user function")

        argument_fns = [self._compile_expression(a) for a in expression.arguments]

        def fn_builtin(ctx, mask):
            ctx.bump(mask)
            arguments = []
            for argument_fn in argument_fns:
                value = argument_fn(ctx, mask)
                # Mirror builtins_impl._scalarize: a pointer argument
                # collapses to its first element.
                if isinstance(value, LockstepBuffer):
                    scalar = value.first_element(mask, ctx.lane_ids)
                    value = (
                        FLOAT_KIND if isinstance(scalar, float) else INT_KIND,
                        scalar,
                    )
                arguments.append(value)
            try:
                return evaluate_builtin_lockstep(name, arguments, mask, ctx.n)
            except KeyError:
                return (INT_KIND, 0)

        return fn_builtin

    def _compile_work_item_query(self, name: str, expression: ast.Call):
        dimension_fn = (
            self._compile_expression(expression.arguments[0])
            if expression.arguments
            else None
        )
        id_attr = {"get_global_id": "gids", "get_local_id": "lids", "get_group_id": "grpids"}.get(name)
        size_attr = {
            "get_global_size": "global_size",
            "get_local_size": "local_size",
            "get_num_groups": "num_groups",
        }.get(name)
        if id_attr is None and size_attr is None and name not in (
            "get_work_dim", "get_global_offset"
        ):
            return self._compile_constant(INT_KIND, 0)

        def fn(ctx, mask):
            ctx.bump(mask)
            if dimension_fn is not None:
                dimension = _as_index_of(dimension_fn(ctx, mask), mask)
            else:
                dimension = 0
            if name == "get_work_dim":
                return (INT_KIND, ctx.work_dim)
            if name == "get_global_offset":
                return (INT_KIND, 0)
            work_dim = ctx.work_dim
            if isinstance(dimension, np.ndarray):
                dimension = np.clip(dimension, 0, work_dim - 1)
                if id_attr is not None:
                    stacked = np.stack(getattr(ctx, id_attr))
                    return (INT_KIND, stacked[dimension, ctx.lane_ids])
                sizes = np.asarray(getattr(ctx, size_attr), dtype=np.int64)
                return (INT_KIND, sizes[dimension])
            dimension = 0 if dimension < 0 else (work_dim - 1 if dimension >= work_dim else dimension)
            if id_attr is not None:
                return (INT_KIND, getattr(ctx, id_attr)[dimension])
            return (INT_KIND, getattr(ctx, size_attr)[dimension])

        return fn

    _ORDER_INDEPENDENT_ATOMICS = (
        "add", "sub", "inc", "dec", "min", "max", "and", "or", "xor", "xchg",
    )

    def _compile_atomic(self, name: str, expression: ast.Call, result_used: bool):
        """Result-discarded atomics whose lane-order application is exact.

        The scalar engines run the per-item read-modify-writes in ascending
        lane order; ``np.ufunc.at`` applies duplicate indices in exactly
        that order, so the final cell values match bit for bit.  Atomics
        whose *result* is consumed would need the per-lane intermediate
        values — those kernels stay on the closure engine.
        """
        if result_used:
            raise NotVectorizable("atomic operation with a used result")
        operation = name.replace("atomic_", "").replace("atom_", "")
        if operation not in self._ORDER_INDEPENDENT_ATOMICS:
            raise NotVectorizable(f"order-dependent atomic {operation!r}")
        if not expression.arguments:
            return self._compile_constant(INT_KIND, 0)

        first = expression.arguments[0]
        if isinstance(first, ast.UnaryOp) and first.op == "&":
            first = first.operand
        # Location resolution mirrors the scalar engines: only Index and
        # Identifier lvalues resolve (the Identifier peek is not a counted
        # evaluation), anything else degrades to a no-op returning 0.
        base_fn = index_fn = None
        identifier_name = None
        if isinstance(first, ast.Index):
            base_fn = self._compile_expression(first.base)
            index_fn = self._compile_expression(first.index)
        elif isinstance(first, ast.Identifier):
            identifier_name = first.name
        operand_fn = (
            self._compile_expression(expression.arguments[1])
            if len(expression.arguments) > 1
            else None
        )

        def fn(ctx, mask):
            ctx.bump(mask)
            target = None
            index = (INT_KIND, 0)
            if base_fn is not None:
                base = base_fn(ctx, mask)
                index = index_fn(ctx, mask)
                if isinstance(base, LockstepBuffer):
                    target = base
            elif identifier_name is not None:
                value = ctx.env.get(identifier_name)
                if isinstance(value, LockstepBuffer):
                    target = value
            operand = operand_fn(ctx, mask) if operand_fn is not None else (INT_KIND, 1)
            if target is None:
                return (INT_KIND, 0)
            if isinstance(operand, LockstepBuffer):
                raise LockstepBailout("pointer operand to an atomic")
            target.atomic_update(
                operation, _as_index_of(index, mask), operand, mask, ctx.n, ctx.lane_ids
            )
            return (INT_KIND, 0)

        return fn

    # ------------------------------------------------------------------
    # L-value stores: ``fn(ctx, mask, value)``.
    # ------------------------------------------------------------------

    def _compile_store(self, target):
        if isinstance(target, ast.Identifier):
            name = target.name

            def store_identifier(ctx, mask, value):
                _store_into_env(ctx, name, value, mask)

            return store_identifier

        if isinstance(target, ast.Index):
            base_fn = self._compile_expression(target.base)
            index_fn = self._compile_expression(target.index)

            def store_index(ctx, mask, value):
                base = base_fn(ctx, mask)
                index = index_fn(ctx, mask)
                if isinstance(base, LockstepBuffer):
                    _store_to_pointer(ctx, base, _as_index_of(index, mask), value, mask)
                # Stores through scalar bases are dropped, like the engines.

            return store_index

        if isinstance(target, ast.UnaryOp) and target.op == "*":
            pointer_fn = self._compile_expression(target.operand)

            def store_deref(ctx, mask, value):
                pointer = pointer_fn(ctx, mask)
                if isinstance(pointer, LockstepBuffer):
                    _store_to_pointer(ctx, pointer, 0, value, mask)

            return store_deref

        if isinstance(target, ast.Cast):
            return self._compile_store(target.operand)

        if isinstance(target, ast.Member):
            raise NotVectorizable("vector member store")

        def store_noop(ctx, mask, value):
            return None

        return store_noop


# ---------------------------------------------------------------------------
# Environment plumbing (mirrors ops.store_to_identifier + unbound fallback).
# ---------------------------------------------------------------------------


def _resolve_partial(ctx, binding: _PartialBinding, fallback, mask):
    unbound = mask_andnot(mask, binding.bound)
    if not mask_any(unbound):
        return binding.value
    bound_active = mask_and(mask, binding.bound)
    if not mask_any(bound_active):
        return fallback
    kind, data = binding.value
    fallback_kind, fallback_data = fallback
    if kind != fallback_kind:
        raise LockstepBailout("partially-bound variable read with mixed kinds")
    return (
        kind,
        np.where(
            binding.bound,
            to_array(kind, data, ctx.n),
            to_array(fallback_kind, fallback_data, ctx.n),
        ),
    )


def _store_into_env(ctx, name: str, value, mask) -> None:
    """Masked assignment with the slot-flavour rules of store_to_identifier."""
    existing = ctx.env.get(name, _MISSING)
    if isinstance(value, LockstepBuffer):
        if existing is value:
            return
        if mask is None:
            ctx.env[name] = value
            return
        raise LockstepBailout("per-lane pointer rebinding")
    if isinstance(existing, tuple):
        existing_kind = existing[0]
        value_kind = value[0]
        if existing_kind == FLOAT_KIND and value_kind == INT_KIND:
            value = (FLOAT_KIND, to_float_data(INT_KIND, value[1]))
        elif existing_kind == INT_KIND and value_kind == FLOAT_KIND:
            value = (INT_KIND, to_int_data(FLOAT_KIND, value[1], mask))
        ctx.env[name] = merge(mask, value, existing, ctx.n)
        return
    if existing is _MISSING:
        if mask is None:
            ctx.env[name] = value
        else:
            ctx.env[name] = _PartialBinding(value, np.array(mask))
        return
    if isinstance(existing, _PartialBinding):
        existing_kind = existing.value[0]
        if mask is None:
            ctx.env[name] = value
            return
        if value[0] != existing_kind:
            raise LockstepBailout("kind-changing store to partially-bound variable")
        merged = merge(mask, value, existing.value, ctx.n)
        bound = existing.bound | mask
        if bound.all():
            ctx.env[name] = merged
        else:
            ctx.env[name] = _PartialBinding(merged, bound)
        return
    # Existing is a pointer: raw rebinding, full mask only.
    if mask is None:
        ctx.env[name] = value
    else:
        raise LockstepBailout("per-lane rebinding of a pointer slot")


def _declare_into_env(ctx, name: str, value, mask) -> None:
    """Masked declaration: replaces the slot kind (no flavour preservation)."""
    if mask is None:
        ctx.env[name] = value
        return
    if isinstance(value, LockstepBuffer):
        if ctx.env.get(name) is value:
            return
        raise LockstepBailout("divergent pointer declaration")
    existing = ctx.env.get(name, _MISSING)
    if existing is _MISSING:
        ctx.env[name] = _PartialBinding(value, np.array(mask))
        return
    if isinstance(existing, tuple):
        if existing[0] != value[0]:
            raise LockstepBailout("kind-changing divergent declaration")
        ctx.env[name] = merge(mask, value, existing, ctx.n)
        return
    if isinstance(existing, _PartialBinding):
        if existing.value[0] != value[0]:
            raise LockstepBailout("kind-changing divergent declaration")
        merged = merge(mask, value, existing.value, ctx.n)
        bound = existing.bound | mask
        ctx.env[name] = (
            merged if bound.all() else _PartialBinding(merged, bound)
        )
        return
    raise LockstepBailout("divergent redeclaration of a pointer slot")


def _store_to_pointer(ctx, target, index_data, value, mask) -> None:
    """Coerce *value* to the target's element flavour and scatter."""
    if isinstance(value, LockstepBuffer):
        # Buffer._coerce stores the first element of a pointer value.
        scalar = value.first_element(mask, ctx.lane_ids)
        value = (FLOAT_KIND if isinstance(scalar, float) else INT_KIND, scalar)
    kind, data = value
    coerced = (
        to_float_data(kind, data) if target.is_float else to_int_data(kind, data, mask)
    )
    target.store(index_data, coerced, mask, ctx.n, ctx.lane_ids)


def _combine_logical(left_outcome, right_outcome, operation: str):
    """0/1 result of ``&&``/``||`` from (possibly array) truthiness values."""
    if operation == "and":
        if right_outcome is True:
            combined = left_outcome
        elif right_outcome is False:
            return (INT_KIND, 0)
        elif left_outcome is True:
            combined = right_outcome
        else:
            combined = left_outcome & right_outcome
    else:  # or
        if right_outcome is False:
            combined = left_outcome
        elif right_outcome is True:
            return (INT_KIND, 1)
        elif left_outcome is False:
            combined = right_outcome
        else:
            combined = left_outcome | right_outcome
    if isinstance(combined, bool):
        return (INT_KIND, 1 if combined else 0)
    return (INT_KIND, combined.astype(np.int64))


def _compile_decl_coercion(declared):
    """Compile-time specialization of ops.coerce_declared for lane values."""
    if isinstance(declared, PointerType):
        return lambda value, mask: value

    text = str(declared) if declared is not None else "int"
    if text in _FLOAT_TYPE_KINDS:

        def coerce_float(value, mask):
            if isinstance(value, LockstepBuffer):
                return value
            kind, data = value
            return (FLOAT_KIND, to_float_data(kind, data))

        return coerce_float

    if text in _INT_TYPE_KINDS:

        def coerce_int(value, mask):
            if isinstance(value, LockstepBuffer):
                return value
            kind, data = value
            if kind == INT_KIND:
                return value
            return (INT_KIND, to_int_data(kind, data, mask))

        return coerce_int

    return lambda value, mask: value


_STATEMENT_COMPILERS = {
    ast.CompoundStmt: VectorizedKernel._compile_compound,
    ast.DeclStmt: VectorizedKernel._compile_decl,
    ast.ExprStmt: VectorizedKernel._compile_expr_stmt,
    ast.IfStmt: VectorizedKernel._compile_if,
    ast.ForStmt: VectorizedKernel._compile_for,
    ast.ReturnStmt: VectorizedKernel._compile_return,
    ast.BreakStmt: VectorizedKernel._compile_break,
}

_EXPRESSION_COMPILERS = {
    ast.IntLiteral: VectorizedKernel._compile_int_literal,
    ast.FloatLiteral: VectorizedKernel._compile_float_literal,
    ast.CharLiteral: VectorizedKernel._compile_char_literal,
    ast.StringLiteral: VectorizedKernel._compile_string_literal,
    ast.Identifier: VectorizedKernel._compile_identifier,
    ast.BinaryOp: VectorizedKernel._compile_binary,
    ast.UnaryOp: VectorizedKernel._compile_unary,
    ast.PostfixOp: VectorizedKernel._compile_postfix,
    ast.Assignment: VectorizedKernel._compile_assignment,
    ast.TernaryOp: VectorizedKernel._compile_ternary,
    ast.Call: VectorizedKernel._compile_call,
    ast.Index: VectorizedKernel._compile_index,
    ast.Cast: VectorizedKernel._compile_cast,
    ast.SizeOf: VectorizedKernel._compile_sizeof,
}


def try_vectorize(
    unit: ast.TranslationUnit,
    kernel_name: str | None = None,
    max_steps_per_item: int = 50_000,
) -> VectorizedKernel | None:
    """Compile *unit*'s kernel for the lockstep tier, or ``None`` when the
    kernel is outside the vectorizable subset."""
    try:
        return VectorizedKernel(unit, kernel_name, max_steps_per_item)
    except NotVectorizable:
        return None


def lockstep_rejection(unit: ast.TranslationUnit, kernel_name: str | None) -> str | None:
    """Why the lockstep tier refuses *unit*'s kernel, or ``None`` if it
    accepts it: the :class:`NotVectorizable` message of building the
    generic instance.  Uncached; the static analyzer's verdict, which the
    compilation cache keeps, carries the answer."""
    try:
        VectorizedKernel(unit, kernel_name)
    except NotVectorizable as error:
        return str(error)
    return None
