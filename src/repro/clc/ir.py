"""A small PTX-like intermediate representation.

The paper's rejection filter compiles candidate kernels to NVIDIA PTX and
requires a minimum static instruction count of three.  We lower our AST to
this register-based IR to provide the same signal, and the static feature
extractor (Grewe et al. features, Table 2a) is computed over the same
instructions so that "compute operation", "global memory access",
"local memory access" and "branch" have a single, consistent definition
throughout the reproduction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum, auto
from functools import cached_property


class OpCategory(Enum):
    """Coarse instruction categories used by instruction counting and features."""

    ARITHMETIC = auto()
    COMPARISON = auto()
    LOGICAL = auto()
    CONVERSION = auto()
    MOVE = auto()
    LOAD = auto()
    STORE = auto()
    BRANCH = auto()
    CALL = auto()
    SYNC = auto()
    RETURN = auto()
    LABEL = auto()
    OTHER = auto()


#: Mapping from opcode mnemonics to categories.
_OPCODE_CATEGORIES: dict[str, OpCategory] = {
    "add": OpCategory.ARITHMETIC,
    "sub": OpCategory.ARITHMETIC,
    "mul": OpCategory.ARITHMETIC,
    "div": OpCategory.ARITHMETIC,
    "rem": OpCategory.ARITHMETIC,
    "mad": OpCategory.ARITHMETIC,
    "neg": OpCategory.ARITHMETIC,
    "abs": OpCategory.ARITHMETIC,
    "min": OpCategory.ARITHMETIC,
    "max": OpCategory.ARITHMETIC,
    "fma": OpCategory.ARITHMETIC,
    "sqrt": OpCategory.ARITHMETIC,
    "rsqrt": OpCategory.ARITHMETIC,
    "sin": OpCategory.ARITHMETIC,
    "cos": OpCategory.ARITHMETIC,
    "ex2": OpCategory.ARITHMETIC,
    "lg2": OpCategory.ARITHMETIC,
    "and": OpCategory.LOGICAL,
    "or": OpCategory.LOGICAL,
    "xor": OpCategory.LOGICAL,
    "not": OpCategory.LOGICAL,
    "shl": OpCategory.LOGICAL,
    "shr": OpCategory.LOGICAL,
    "setp": OpCategory.COMPARISON,
    "selp": OpCategory.MOVE,
    "cvt": OpCategory.CONVERSION,
    "mov": OpCategory.MOVE,
    "ld": OpCategory.LOAD,
    "st": OpCategory.STORE,
    "bra": OpCategory.BRANCH,
    "call": OpCategory.CALL,
    "bar": OpCategory.SYNC,
    "ret": OpCategory.RETURN,
    "label": OpCategory.LABEL,
    "atom": OpCategory.STORE,
}

#: The categories that count as compute operations.
_COMPUTE_CATEGORIES = frozenset(
    (OpCategory.ARITHMETIC, OpCategory.LOGICAL, OpCategory.COMPARISON, OpCategory.CONVERSION)
)


@dataclass
class Instruction:
    """A single IR instruction.

    Attributes:
        opcode: Mnemonic, e.g. ``"add"``, ``"ld"``, ``"bra"``.
        result: Destination register name, or ``None``.
        operands: Source operands (register names, immediates or labels).
        address_space: For loads/stores, the OpenCL address space
            (``"global"``, ``"local"``, ``"constant"``, ``"private"``,
            ``"param"``).
        type_suffix: Textual operand type, e.g. ``"f32"``, ``"s32"``.
        coalesced: For global loads/stores, whether the access pattern is
            coalesced (consecutive work-items touch consecutive elements).
        comment: Free-form annotation used in dumps and tests.
    """

    opcode: str
    result: str | None = None
    operands: tuple[str, ...] = ()
    address_space: str | None = None
    type_suffix: str = "b32"
    coalesced: bool = False
    comment: str = ""

    @property
    def category(self) -> OpCategory:
        return _OPCODE_CATEGORIES.get(self.opcode, OpCategory.OTHER)

    @property
    def is_memory_access(self) -> bool:
        return self.category in (OpCategory.LOAD, OpCategory.STORE)

    def render(self) -> str:
        """Render the instruction in a PTX-flavoured textual form."""
        if self.category is OpCategory.LABEL:
            return f"{self.operands[0]}:"
        parts = [self.opcode]
        if self.address_space:
            parts[0] = f"{self.opcode}.{self.address_space}"
        parts[0] = f"{parts[0]}.{self.type_suffix}"
        rendered_operands = []
        if self.result:
            rendered_operands.append(self.result)
        rendered_operands.extend(self.operands)
        text = f"    {parts[0]} " + ", ".join(rendered_operands) + ";"
        if self.comment:
            text += f"  // {self.comment}"
        return text


@dataclass
class IRFunction:
    """The lowered form of a single OpenCL function."""

    name: str
    is_kernel: bool = False
    parameters: tuple[str, ...] = ()
    instructions: list[Instruction] = field(default_factory=list)

    # ------------------------------------------------------------------
    # Static counts (the numbers the rejection filter and the Grewe feature
    # extractor are built from).  Only lowering appends instructions, so a
    # finished function is counted once, on first read, in one pass.
    # ------------------------------------------------------------------

    @cached_property
    def _counts(self) -> tuple[int, int, int, int, int, int]:
        """(static, compute, global, local, coalesced, branch) counts."""
        static = compute = global_ = local = coalesced = branch = 0
        for inst in self.instructions:
            category = inst.category
            if category is OpCategory.LABEL:
                continue
            static += 1
            if category in _COMPUTE_CATEGORIES:
                compute += 1
            elif category is OpCategory.BRANCH:
                branch += 1
            elif inst.is_memory_access:
                if inst.address_space == "global":
                    global_ += 1
                    if inst.coalesced:
                        coalesced += 1
                elif inst.address_space == "local":
                    local += 1
        return static, compute, global_, local, coalesced, branch

    @property
    def static_instruction_count(self) -> int:
        """Number of real (non-label) static instructions."""
        return self._counts[0]

    @property
    def compute_operations(self) -> int:
        """Arithmetic, logical, comparison and conversion operations."""
        return self._counts[1]

    @property
    def global_memory_accesses(self) -> int:
        return self._counts[2]

    @property
    def local_memory_accesses(self) -> int:
        return self._counts[3]

    @property
    def coalesced_memory_accesses(self) -> int:
        return self._counts[4]

    @property
    def branch_operations(self) -> int:
        return self._counts[5]

    def render(self) -> str:
        """Render the function as PTX-flavoured text."""
        qualifier = ".entry" if self.is_kernel else ".func"
        header = f"{qualifier} {self.name}(" + ", ".join(self.parameters) + ")"
        body = "\n".join(inst.render() for inst in self.instructions)
        return f"{header}\n{{\n{body}\n}}\n"


@dataclass
class IRModule:
    """The lowered form of a translation unit."""

    functions: list[IRFunction] = field(default_factory=list)

    @property
    def kernels(self) -> list[IRFunction]:
        return [f for f in self.functions if f.is_kernel]

    def function(self, name: str) -> IRFunction:
        for func in self.functions:
            if func.name == name:
                return func
        raise KeyError(name)

    @property
    def static_instruction_count(self) -> int:
        return sum(f.static_instruction_count for f in self.functions)

    def render(self) -> str:
        header = "//\n// Generated by repro.clc (PTX-like IR)\n//\n.version 5.0\n.target sm_52\n\n"
        return header + "\n".join(f.render() for f in self.functions)
