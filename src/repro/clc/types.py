"""Type system for the OpenCL C subset.

Types are modelled as immutable dataclasses.  The parser resolves type names
(including typedefs introduced by the shim header) against
:class:`TypeTable`, and the execution simulator uses the same objects to
allocate buffers and interpret vector component accesses.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class AddressSpace(Enum):
    """OpenCL address space qualifiers."""

    PRIVATE = "private"
    GLOBAL = "global"
    LOCAL = "local"
    CONSTANT = "constant"

    @classmethod
    def from_qualifier(cls, qualifier: str) -> "AddressSpace":
        name = qualifier.lstrip("_")
        mapping = {
            "global": cls.GLOBAL,
            "local": cls.LOCAL,
            "constant": cls.CONSTANT,
            "private": cls.PRIVATE,
        }
        return mapping.get(name, cls.PRIVATE)


@dataclass(frozen=True)
class Type:
    """Base class for all types."""

    def __str__(self) -> str:  # pragma: no cover - overridden
        return "type"

    @property
    def is_scalar(self) -> bool:
        return isinstance(self, ScalarType)

    @property
    def is_vector(self) -> bool:
        return isinstance(self, VectorType)

    @property
    def is_pointer(self) -> bool:
        return isinstance(self, PointerType)

    @property
    def is_void(self) -> bool:
        return isinstance(self, VoidType)

    @property
    def is_integer(self) -> bool:
        return isinstance(self, ScalarType) and self.kind in _INTEGER_KINDS

    @property
    def is_floating(self) -> bool:
        return isinstance(self, ScalarType) and self.kind in _FLOAT_KINDS


@dataclass(frozen=True)
class VoidType(Type):
    def __str__(self) -> str:
        return "void"


@dataclass(frozen=True)
class ScalarType(Type):
    """A scalar OpenCL type such as ``int``, ``float`` or ``ulong``."""

    kind: str  # e.g. "int", "uint", "float", ...

    def __str__(self) -> str:
        return self.kind

    @property
    def size_in_bytes(self) -> int:
        return _SCALAR_SIZES[self.kind]

    @property
    def is_signed(self) -> bool:
        return self.kind in ("char", "short", "int", "long", "half", "float", "double")


@dataclass(frozen=True)
class VectorType(Type):
    """An OpenCL vector type such as ``float4`` or ``int16``."""

    element: ScalarType
    width: int

    def __str__(self) -> str:
        return f"{self.element.kind}{self.width}"

    @property
    def size_in_bytes(self) -> int:
        return self.element.size_in_bytes * self.width


@dataclass(frozen=True)
class PointerType(Type):
    """A pointer, carrying its address space and access qualifiers."""

    pointee: Type
    address_space: AddressSpace = AddressSpace.PRIVATE
    is_const: bool = False
    access: str | None = None  # "read_only" / "write_only" / None

    def __str__(self) -> str:
        space = f"__{self.address_space.value} " if self.address_space != AddressSpace.PRIVATE else ""
        const = "const " if self.is_const else ""
        return f"{space}{const}{self.pointee}*"


@dataclass(frozen=True)
class StructType(Type):
    """A (possibly incompletely parsed) struct type."""

    name: str
    fields: tuple[tuple[str, Type], ...] = ()

    def __str__(self) -> str:
        return f"struct {self.name}"

    @property
    def size_in_bytes(self) -> int:
        return sum(
            field_type.size_in_bytes if hasattr(field_type, "size_in_bytes") else 4
            for _, field_type in self.fields
        ) or 4


_INTEGER_KINDS = frozenset(
    {"bool", "char", "uchar", "short", "ushort", "int", "uint", "long", "ulong", "size_t"}
)
_FLOAT_KINDS = frozenset({"half", "float", "double"})

_SCALAR_SIZES = {
    "bool": 1,
    "char": 1,
    "uchar": 1,
    "short": 2,
    "ushort": 2,
    "int": 4,
    "uint": 4,
    "long": 8,
    "ulong": 8,
    "size_t": 8,
    "half": 2,
    "float": 4,
    "double": 8,
}

#: Scalar type singletons.
VOID = VoidType()
BOOL = ScalarType("bool")
CHAR = ScalarType("char")
UCHAR = ScalarType("uchar")
SHORT = ScalarType("short")
USHORT = ScalarType("ushort")
INT = ScalarType("int")
UINT = ScalarType("uint")
LONG = ScalarType("long")
ULONG = ScalarType("ulong")
SIZE_T = ScalarType("size_t")
HALF = ScalarType("half")
FLOAT = ScalarType("float")
DOUBLE = ScalarType("double")

_SCALARS: dict[str, ScalarType] = {
    scalar.kind: scalar
    for scalar in (
        BOOL,
        CHAR,
        UCHAR,
        SHORT,
        USHORT,
        INT,
        UINT,
        LONG,
        ULONG,
        SIZE_T,
        HALF,
        FLOAT,
        DOUBLE,
    )
}

_VECTOR_WIDTHS = (2, 3, 4, 8, 16)


def _builtin_type_names() -> dict[str, Type]:
    names: dict[str, Type] = {"void": VOID}
    names.update(_SCALARS)
    # C-style spellings.
    names["unsigned"] = UINT
    names["unsigned int"] = UINT
    names["unsigned char"] = UCHAR
    names["unsigned short"] = USHORT
    names["unsigned long"] = ULONG
    names["signed int"] = INT
    names["long long"] = LONG
    names["unsigned long long"] = ULONG
    for scalar in _SCALARS.values():
        if scalar.kind in ("bool", "size_t"):
            continue
        for width in _VECTOR_WIDTHS:
            names[f"{scalar.kind}{width}"] = VectorType(scalar, width)
    return names


#: Built once and copied per table: every compile makes a TypeTable, and the
#: Type values are immutable, so only the dict itself needs to be fresh.
_BUILTIN_TYPE_NAMES = _builtin_type_names()


class TypeTable:
    """Maps type names (builtins plus typedefs) to :class:`Type` objects."""

    def __init__(self) -> None:
        self._names: dict[str, Type] = dict(_BUILTIN_TYPE_NAMES)
        self._structs: dict[str, StructType] = {}

    def is_type_name(self, name: str) -> bool:
        return name in self._names

    def lookup(self, name: str) -> Type | None:
        return self._names.get(name)

    def define_typedef(self, name: str, target: Type) -> None:
        self._names[name] = target

    def define_struct(self, struct: StructType) -> None:
        self._structs[struct.name] = struct
        self._names[f"struct {struct.name}"] = struct

    def lookup_struct(self, name: str) -> StructType | None:
        return self._structs.get(name)

    def copy(self) -> "TypeTable":
        table = TypeTable()
        table._names = dict(self._names)
        table._structs = dict(self._structs)
        return table


def scalar(name: str) -> ScalarType:
    """Return the scalar type named *name* (raises ``KeyError`` if unknown)."""
    return _SCALARS[name]


def vector(element_name: str, width: int) -> VectorType:
    """Return the vector type ``<element_name><width>``."""
    return VectorType(scalar(element_name), width)

