"""Simulated OpenCL memory objects.

The host driver allocates :class:`Buffer` objects for pointer kernel
arguments (global and local), the interpreter reads and writes them with
bounds checking, and the dynamic checker compares their contents across
executions.  Out-of-bounds accesses are clamped and recorded rather than
raising by default — real GPUs do not fault on modest overruns, and the
paper's pipeline relies on many slightly-sloppy GitHub kernels still
"running"; strict mode is available for tests.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from repro.errors import KernelRuntimeError, LockstepBailout, LockstepHazard
from repro.execution.values import VectorValue, values_equal


@dataclass
class AccessStats:
    """Counts of accesses observed on a buffer during one execution."""

    reads: int = 0
    writes: int = 0
    out_of_bounds: int = 0


class Buffer:
    """A typed, bounds-checked array living in a simulated address space."""

    def __init__(
        self,
        name: str,
        size: int,
        element_kind: str = "float",
        vector_width: int = 1,
        address_space: str = "global",
        fill=0,
        strict: bool = False,
    ):
        if size < 0:
            raise KernelRuntimeError(f"negative buffer size for {name!r}: {size}")
        self.name = name
        self.size = size
        self.element_kind = element_kind
        self.vector_width = vector_width
        self.address_space = address_space
        self.strict = strict
        self.stats = AccessStats()
        if vector_width == 1:
            # Scalars are immutable, so the fill element can be shared.
            self._data: list = [self._make_element(fill)] * size
        else:
            self._data = [self._make_element(fill) for _ in range(size)]

    def _make_element(self, value):
        if self.vector_width > 1:
            if isinstance(value, VectorValue):
                return value
            return VectorValue.broadcast(self.element_kind, self.vector_width, value)
        if self.element_kind in ("float", "double", "half"):
            return float(value)
        return int(value)

    # ------------------------------------------------------------------
    # Element access.
    # ------------------------------------------------------------------

    def _clamp_index(self, index: int) -> int | None:
        if 0 <= index < self.size:
            return int(index)
        self.stats.out_of_bounds += 1
        if self.strict:
            raise KernelRuntimeError(
                f"out-of-bounds access to buffer {self.name!r}: index {index} of {self.size}"
            )
        if self.size == 0:
            return None
        return min(max(int(index), 0), self.size - 1)

    def load(self, index: int):
        """Read the element at *index* (clamped when out of bounds)."""
        self.stats.reads += 1
        clamped = self._clamp_index(int(index))
        if clamped is None:
            return self._make_element(0)
        value = self._data[clamped]
        return copy.copy(value) if isinstance(value, VectorValue) else value

    def store(self, index: int, value) -> None:
        """Write *value* at *index* (clamped when out of bounds)."""
        self.stats.writes += 1
        clamped = self._clamp_index(int(index))
        if clamped is None:
            return
        self._data[clamped] = self._coerce(value)

    def _coerce(self, value):
        if isinstance(value, Buffer):
            # Storing a pointer value into a data buffer (synthesized kernels
            # sometimes do this); store its first element instead of faulting.
            value = value._data[0] if value._data else 0
        if self.vector_width > 1:
            if isinstance(value, VectorValue):
                return value
            return VectorValue.broadcast(self.element_kind, self.vector_width, value)
        if isinstance(value, VectorValue):
            value = value.values[0] if value.values else 0
        if self.element_kind in ("float", "double", "half"):
            return float(value)
        if isinstance(value, float):
            return int(value)
        return int(value)

    # ------------------------------------------------------------------
    # Whole-buffer operations (used by the host driver / dynamic checker).
    # ------------------------------------------------------------------

    def to_list(self) -> list:
        return [copy.copy(v) if isinstance(v, VectorValue) else v for v in self._data]

    def copy_from(self, values: list) -> None:
        self._data = [self._coerce(v) for v in values[: self.size]]
        if len(values) < self.size:
            self._data.extend(self._make_element(0) for _ in range(self.size - len(values)))

    def fill_trusted(self, values: list) -> None:
        """Adopt *values* verbatim: exactly ``size`` elements, pre-coerced.

        The payload generator's fast path — it generates values in the
        buffer's element type already (and :meth:`copy_from`'s per-element
        coercion passes :class:`VectorValue` through untouched), so the
        element-by-element ``_coerce`` would be an identity walk.  The
        caller hands over ownership of the list.
        """
        if len(values) != self.size:
            raise KernelRuntimeError(
                f"trusted fill for {self.name!r}: expected {self.size} values, "
                f"got {len(values)}"
            )
        self._data = values

    def clone(self, name: str | None = None) -> "Buffer":
        """A deep copy of this buffer (fresh access statistics)."""
        out = Buffer(
            name or self.name,
            self.size,
            self.element_kind,
            self.vector_width,
            self.address_space,
            strict=self.strict,
        )
        out.copy_from(self.to_list())
        return out

    def equals(self, other: "Buffer", epsilon: float = 1e-4) -> bool:
        """Approximate content equality (the dynamic checker's comparison)."""
        if self.size != other.size:
            return False
        return all(values_equal(a, b, epsilon) for a, b in zip(self._data, other._data))

    @property
    def size_in_bytes(self) -> int:
        element_bytes = {"char": 1, "uchar": 1, "short": 2, "ushort": 2, "half": 2,
                         "int": 4, "uint": 4, "float": 4,
                         "long": 8, "ulong": 8, "double": 8, "size_t": 8}.get(self.element_kind, 4)
        return self.size * element_bytes * max(1, self.vector_width)

    def __len__(self) -> int:
        return self.size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Buffer({self.name!r}, size={self.size}, kind={self.element_kind}"
            f"x{self.vector_width}, space={self.address_space})"
        )


#: Commutative atomic families: two integer atomic executions of one family
#: leave a cell with the same value in either order.  Every other atomic
#: (xchg, and any atomic on a float buffer) is family 0.
_ATOMIC_FAMILIES = {
    "add": 1, "sub": 1, "inc": 1, "dec": 1, "min": 2, "max": 3, "and": 4, "or": 5, "xor": 6,
}


class LockstepBuffer:
    """A NumPy view of one :class:`Buffer` for the vectorized (SIMT) tier.

    The scalar engines index list-backed :class:`Buffer` objects one element
    at a time; the lockstep tier instead gathers/scatters whole lane vectors
    against an ndarray copy of the data, with the same clamping and access
    accounting.  Nothing touches the source buffer until :meth:`commit` —
    a :class:`~repro.errors.LockstepBailout` mid-execution therefore leaves
    the memory pool pristine for the closure-engine fallback.

    Cross-lane hazards are detected dynamically: the scalar engines run each
    work-item to completion before the next starts, so lane ``L`` observes
    the *final* writes of every lane below ``L`` and none of the writes of
    lanes above it — an ordering one lockstep pass cannot reproduce when
    lanes communicate through a buffer.  Two per-cell trackers make the
    check exact:

    * ``writer`` — the lane that last wrote the cell.  A load (or store) of
      a cell written by a *different* lane bails out.
    * ``reader_max`` — the highest lane that has read the cell.  A store
      bails out when a higher lane already read the cell: in sequential
      order that lane would have observed this write, but in lockstep order
      it read the stale value.

    Lane-private reuse (the overwhelmingly common ``a[gid] = f(a[gid])``
    pattern) passes untouched, and duplicate indices within one scatter
    match sequential order because NumPy fancy assignment is
    last-write-wins in lane order.

    Atomics poison the cells they update: ``writer`` becomes
    ``-2 - family`` (see ``_ATOMIC_FAMILIES``).  Any later plain access to a
    poisoned cell bails out, by whichever lane: lockstep has applied every
    lane's update, sequential order only the lower lanes'.  A later atomic
    on a poisoned cell is exact only when both executions are integer
    updates of one commutative family — {add, sub, inc, dec}, or the same
    one of min, max, and, or, xor — because the scalar engines interleave
    the two item by item and lockstep runs them statement by statement.

    **Chunks of several work-groups.**  Between :meth:`begin_chunk` and
    :meth:`end_chunk` the lanes span several work-groups in group order
    (``lane_group``).  Barriers reset the per-lane trackers, but the scalar
    engines finish group g before group g + 1 starts, so order between
    groups must hold across barriers too.  Global and constant buffers keep
    chunk-wide trackers: ``group_writer`` (the highest group that wrote the
    cell) and ``group_reader_max`` (the highest group that read it).  A
    group that reads or writes a cell another group wrote, or writes a cell
    a higher group read, bails out; an atomic counts as a write here.

    A ``__local`` buffer is instead split into one *slice* per group, each
    filled with the buffer's contents at the start of the chunk; lane ``L``
    sees its group's slice at ``lane_offset[L]``.  Sequentially, group g
    starts from group g - 1's final contents, which its slice does not
    hold, so a read (or atomic) of a cell its group has not written in the
    chunk bails out.  :meth:`end_chunk` gives every cell the value of the
    last group that wrote it.  Access counts are the slices' sum.

    Each of these ordering checks raises
    :class:`~repro.errors.LockstepHazard`, which the lockstep tier replays
    with fewer work-groups per chunk; every other bailout stays a plain
    :class:`~repro.errors.LockstepBailout`.
    """

    __slots__ = (
        "source", "name", "size", "element_kind", "is_float", "address_space",
        "data", "writer", "reader_max", "reads", "writes", "out_of_bounds",
        "track_hazards", "lane_group", "group_writer", "group_reader_max",
        "lane_offset", "chunk_start", "written",
    )

    def __init__(self, source: Buffer, *, track_hazards: bool = True):
        if source.vector_width > 1:
            raise LockstepBailout("vector-element buffers are not lockstep-executable")
        if source.strict:
            raise LockstepBailout("strict bounds-checked buffers fall back to scalar engines")
        self.source = source
        self.name = source.name
        self.size = source.size
        self.element_kind = source.element_kind
        self.is_float = source.element_kind in ("float", "double", "half")
        self.address_space = source.address_space
        #: False in the specialized tier, whose SAFE verdict proves the
        #: kernel race-free: the trackers below exist only to detect the
        #: hazards that proof rules out.
        self.track_hazards = track_hazards
        try:
            # Scalar buffers hold plain floats/ints (vector elements bailed
            # above), so ``_data`` converts directly, with no ``to_list()``
            # copy.
            self.data = np.array(
                source._data, dtype=np.float64 if self.is_float else np.int64
            )
        except (OverflowError, TypeError, ValueError) as error:
            raise LockstepBailout(f"buffer {source.name!r} not int64/float64 representable") from error
        self.writer: np.ndarray | None = None  # allocated on first store
        self.reader_max: np.ndarray | None = None  # allocated on first load
        self.reads = 0
        self.writes = 0
        self.out_of_bounds = 0
        # Multi-group chunk state (see the class docstring); None outside one.
        self.lane_group: np.ndarray | None = None
        self.group_writer = self.group_reader_max = None
        self.lane_offset: np.ndarray | None = None
        self.chunk_start = self.written = None

    @staticmethod
    def _tracker(size: int) -> np.ndarray:
        """A fresh ``(size,)`` int64 tracker initialised to -1 (nobody)."""
        return np.full(size, -1, dtype=np.int64)

    # ------------------------------------------------------------------
    # Barrier epochs and chunks.
    # ------------------------------------------------------------------

    def new_epoch(self) -> None:
        """Forget per-lane accesses: earlier writes are committed state."""
        self.writer = None
        self.reader_max = None

    def begin_chunk(self, lane_group: np.ndarray | None, groups: int) -> None:
        """Start a lockstep pass; *lane_group* maps each lane to its group
        within a chunk of several work-groups, ``None`` for any other pass."""
        self.new_epoch()
        if lane_group is None:
            return
        self.lane_group = lane_group
        if self.address_space == "local":
            self.chunk_start = self.data
            self.data = np.tile(self.data, groups)
            self.lane_offset = lane_group * self.size
            self.written = np.zeros(self.data.size, dtype=bool)

    def end_chunk(self) -> None:
        """Finish a multi-group chunk: merge the ``__local`` slices."""
        if self.lane_offset is not None:
            if self.size:
                groups = self.data.size // self.size
                written = self.written.reshape(groups, self.size)
                cells = np.flatnonzero(written.any(axis=0))
                last = groups - 1 - np.argmax(written[::-1, cells], axis=0)
                self.chunk_start[cells] = self.data.reshape(groups, self.size)[last, cells]
            self.data = self.chunk_start
        self.lane_group = self.group_writer = self.group_reader_max = None
        self.lane_offset = self.chunk_start = self.written = None

    # ------------------------------------------------------------------

    def first_element(self, mask=None, lane_ids: np.ndarray | None = None):
        """The scalar the engines use when a pointer is abused as a scalar.

        Mirrors ``Buffer.to_list()[0]``: no access statistics — but when
        *lane_ids* is given the peek is hazard-tracked like a load, since
        the value observed sequentially depends on other lanes' writes.
        """
        if self.size == 0:
            return 0
        if self.lane_offset is not None:
            raise LockstepHazard(f"pointer-as-scalar read of sliced __local {self.name!r}")
        if lane_ids is not None and self.track_hazards:
            # _record_read checks hazards and tracks readers without touching
            # the read/write counters (to_list() is not a counted access).
            readers = lane_ids if mask is None else lane_ids[mask]
            self._record_read(np.zeros(readers.size, dtype=np.int64), readers)
        value = self.data[0]
        return float(value) if self.is_float else int(value)

    def _clamp(self, indices: np.ndarray, mask) -> np.ndarray:
        """Clamp *indices* like ``Buffer._clamp_index`` and count OOB lanes."""
        in_range = (indices >= 0) & (indices < self.size)
        oob = ~in_range
        if mask is not None:
            oob = oob & mask
        oob_count = int(oob.sum())
        if oob_count:
            self.out_of_bounds += oob_count
        if self.size == 0:
            return indices  # caller handles the empty-buffer case
        return np.clip(indices, 0, self.size - 1)

    def load(self, index_data, mask, n: int, lane_ids: np.ndarray):
        """Masked gather; returns ``(kind, data)`` lane values."""
        kind = "f" if self.is_float else "i"
        count = n if mask is None else int(mask.sum())
        self.reads += count
        if np.ndim(index_data) == 0 and self.lane_offset is not None:
            # Each group reads its own slice, so the lanes' values differ.
            # Clamping to [-1, size] keeps the out-of-bounds verdict.
            index = min(max(int(index_data), -1), self.size)
            index_data = np.full(n, index, dtype=np.int64)
        if np.ndim(index_data) == 0:
            index = int(index_data)
            if not 0 <= index < self.size:
                self.out_of_bounds += count
                if self.size == 0:
                    return (kind, 0.0 if self.is_float else 0)
                index = min(max(index, 0), self.size - 1)
            if self.track_hazards:
                readers = lane_ids if mask is None else lane_ids[mask]
                self._record_read(np.full(readers.size, index, dtype=np.int64), readers)
            value = self.data[index]
            return (kind, float(value) if self.is_float else int(value))
        if mask is None:
            clamped = self._clamp(index_data, None)
            if self.size == 0:
                return (kind, np.zeros(n, dtype=self.data.dtype))
            return (kind, self.data[self._record_read(clamped, lane_ids)])
        sub_index = index_data[mask]
        in_range = (sub_index >= 0) & (sub_index < self.size)
        oob_count = int((~in_range).sum())
        if oob_count:
            self.out_of_bounds += oob_count
        out = np.zeros(n, dtype=self.data.dtype)
        if self.size == 0:
            return (kind, out)
        clamped = np.clip(sub_index, 0, self.size - 1)
        out[mask] = self.data[self._record_read(clamped, lane_ids[mask])]
        return (kind, out)

    # ------------------------------------------------------------------
    # Access bookkeeping: each takes logical cells and the accessing lanes,
    # bails out on a hazard, and returns the cells' positions in ``data``.
    # ------------------------------------------------------------------

    def _spots(self, cells: np.ndarray, lanes: np.ndarray) -> np.ndarray:
        return cells if self.lane_offset is None else cells + self.lane_offset[lanes]

    def _group_tracked(self) -> bool:
        return self.lane_group is not None and self.lane_offset is None

    def _check_slice_read(self, spots: np.ndarray) -> None:
        """Bail unless each lane's group wrote the slice cell it reads."""
        if not self.written[spots].all():
            raise LockstepHazard(
                f"__local read of a cell its group has not written on {self.name!r}"
            )

    def _record_group_write(self, cells: np.ndarray, lanes: np.ndarray) -> None:
        """Check a write against the other groups of the chunk."""
        groups = self.lane_group[lanes]
        if self.group_writer is None:
            self.group_writer = self._tracker(self.size)
        else:
            owners = self.group_writer[cells]
            if np.any((owners != -1) & (owners != groups)):
                raise LockstepHazard(f"cross-group write-after-write hazard on {self.name!r}")
        if self.group_reader_max is not None and np.any(self.group_reader_max[cells] > groups):
            raise LockstepHazard(f"cross-group write-after-read hazard on {self.name!r}")
        self.group_writer[cells] = groups

    def _record_read(self, cells: np.ndarray, readers: np.ndarray) -> np.ndarray:
        """Check the read against past writers and remember the reader."""
        spots = self._spots(cells, readers)
        if self.lane_offset is not None:
            self._check_slice_read(spots)
        if not self.track_hazards:
            return spots
        if self.writer is not None:
            owners = self.writer[spots]
            if np.any((owners != -1) & (owners != readers)):
                raise LockstepHazard(f"cross-lane read-after-write hazard on {self.name!r}")
        if self.reader_max is None:
            self.reader_max = self._tracker(self.data.size)
        # Lane ids ascend within a scatter, so last-write-wins keeps the max
        # even for duplicate cells.
        self.reader_max[spots] = np.maximum(self.reader_max[spots], readers)
        if self._group_tracked():
            groups = self.lane_group[readers]
            if self.group_writer is not None:
                owners = self.group_writer[cells]
                if np.any((owners != -1) & (owners != groups)):
                    raise LockstepHazard(f"cross-group read-after-write hazard on {self.name!r}")
            if self.group_reader_max is None:
                self.group_reader_max = self._tracker(self.size)
            self.group_reader_max[cells] = np.maximum(self.group_reader_max[cells], groups)
        return spots

    def _record_write(self, cells: np.ndarray, writers: np.ndarray) -> np.ndarray:
        """Check a plain write against past accesses and remember the writer."""
        spots = self._spots(cells, writers)
        if self.lane_offset is not None:
            self.written[spots] = True
        if not self.track_hazards:
            return spots
        if self.writer is None:
            self.writer = self._tracker(self.data.size)
        else:
            owners = self.writer[spots]
            if np.any((owners != -1) & (owners != writers)):
                raise LockstepHazard(f"cross-lane write-after-write hazard on {self.name!r}")
        if self.reader_max is not None and np.any(self.reader_max[spots] > writers):
            # A higher lane already read this cell: sequentially it would
            # have observed this write, but in lockstep it read stale data.
            raise LockstepHazard(f"cross-lane write-after-read hazard on {self.name!r}")
        self.writer[spots] = writers
        if self._group_tracked():
            self._record_group_write(cells, writers)
        return spots

    def _record_atomic(self, cells: np.ndarray, lanes: np.ndarray, family: int) -> np.ndarray:
        """Check an atomic update against past accesses and poison its cells."""
        spots = self._spots(cells, lanes)
        if self.lane_offset is not None:
            # The atomic reads the cell, so its group must have written it.
            self._check_slice_read(spots)
        if not self.track_hazards:
            return spots
        poison = -2 - family
        if self.writer is None:
            self.writer = self._tracker(self.data.size)
        else:
            owners = self.writer[spots]
            # A plain write by another lane, or an earlier atomic execution
            # unless both are integer updates of one commutative family.
            allowed = poison if family else -1
            if np.any((owners != -1) & (owners != lanes) & (owners != allowed)):
                raise LockstepHazard(f"atomic after a conflicting update on {self.name!r}")
        if self.reader_max is not None and np.any(self.reader_max[spots] > lanes):
            raise LockstepHazard(f"atomic after cross-lane read on {self.name!r}")
        self.writer[spots] = poison
        if self._group_tracked():
            self._record_group_write(cells, lanes)
        return spots

    def store(self, index_data, value_data, mask, n: int, lane_ids: np.ndarray) -> None:
        """Masked scatter with hazard tracking; *value_data* is a lane array
        or uniform already coerced to this buffer's element flavour."""
        count = n if mask is None else int(mask.sum())
        self.writes += count
        if mask is None:
            indices = np.asarray(index_data) if np.ndim(index_data) else np.full(n, int(index_data), dtype=np.int64)
            writers = lane_ids
            values = value_data
        else:
            indices = (index_data[mask] if np.ndim(index_data) else
                       np.full(count, int(index_data), dtype=np.int64))
            writers = lane_ids[mask]
            values = value_data[mask] if np.ndim(value_data) else value_data
        in_range = (indices >= 0) & (indices < self.size)
        oob_count = int((~in_range).sum())
        if oob_count:
            self.out_of_bounds += oob_count
        if self.size == 0:
            return
        spots = self._record_write(np.clip(indices, 0, self.size - 1), writers)
        try:
            self.data[spots] = values
        except OverflowError as error:
            # A uniform Python int beyond int64: the scalar engines store
            # arbitrary-precision values, so fall back to them.
            raise LockstepBailout(f"stored value exceeds int64 on {self.name!r}") from error

    # ------------------------------------------------------------------

    _ATOMIC_UFUNCS = {
        "add": np.add,
        "sub": np.subtract,
        "inc": np.add,
        "dec": np.subtract,
        "min": np.minimum,
        "max": np.maximum,
        "and": np.bitwise_and,
        "or": np.bitwise_or,
        "xor": np.bitwise_xor,
    }

    def atomic_update(self, operation: str, index_data, operand, mask, n: int, lane_ids) -> None:
        """A result-discarded atomic read-modify-write over the active lanes.

        ``np.ufunc.at`` applies duplicate indices sequentially in lane order
        — the exact order the scalar engines execute the per-item atomics —
        so the final cell values of one atomic execution are bit-identical
        for these operations.  Two executions on one cell follow the poison
        and family rules of the class docstring.
        """
        kind, operand_data = operand
        count = n if mask is None else int(mask.sum())
        self.reads += count
        self.writes += count
        lanes = lane_ids if mask is None else lane_ids[mask]
        if np.ndim(index_data) == 0:
            indices = np.full(lanes.size, int(index_data), dtype=np.int64)
        else:
            indices = index_data if mask is None else index_data[mask]
        in_range = (indices >= 0) & (indices < self.size)
        oob_count = int((~in_range).sum())
        if oob_count:
            # Both the load and the store halves clamp (and count) the index.
            self.out_of_bounds += 2 * oob_count
        if self.size == 0:
            return
        family = 0 if self.is_float else _ATOMIC_FAMILIES.get(operation, 0)
        spots = self._record_atomic(np.clip(indices, 0, self.size - 1), lanes, family)

        if operation in ("inc", "dec"):
            values = np.float64(1.0) if self.is_float else np.int64(1)
        else:
            values = operand_data if mask is None or np.ndim(operand_data) == 0 else operand_data[mask]
            if self.is_float:
                if kind == "i":
                    values = np.asarray(values, dtype=np.float64)
            elif kind == "f":
                # int(old + float_operand) truncates at *every* step of the
                # sequential chain; no order-independent equivalent exists.
                raise LockstepBailout("float-operand atomic on an integer buffer")
            else:
                try:
                    values = np.asarray(values, dtype=np.int64)
                except OverflowError as error:
                    raise LockstepBailout("atomic operand exceeds int64") from error

        if operation == "xchg":
            self.data[spots] = np.asarray(values, dtype=self.data.dtype)
        else:
            ufunc = self._ATOMIC_UFUNCS.get(operation)
            if ufunc is None:
                raise LockstepBailout(f"order-dependent atomic {operation!r}")
            if self.is_float:
                if operation in ("min", "max"):
                    # Python min/max and np.minimum/maximum disagree on NaN
                    # propagation and signed-zero ties.
                    raise LockstepBailout("float atomic min/max")
                if not bool(np.isfinite(self.data).all()) or not bool(
                    np.isfinite(values).all() if np.ndim(values) else np.isfinite(values)
                ):
                    raise LockstepBailout("non-finite float atomic accumulation")
            else:
                if operation in ("add", "sub"):
                    magnitude = float(np.abs(self.data).max()) if self.size else 0.0
                    magnitude += float(np.abs(values).sum()) if np.ndim(values) else abs(float(values)) * lanes.size
                    if magnitude >= 2.0**62:
                        raise LockstepBailout("possible int64 overflow in atomic accumulation")
            ufunc.at(self.data, spots, values)

    def commit(self) -> None:
        """Fold data and access counters back into the source buffer."""
        source = self.source
        source._data = self.data.tolist()
        source.stats.reads = self.reads
        source.stats.writes = self.writes
        source.stats.out_of_bounds = self.out_of_bounds


@dataclass
class MemoryPool:
    """All buffers bound for a single kernel execution, keyed by argument name."""

    buffers: dict[str, Buffer] = field(default_factory=dict)

    def allocate(
        self,
        name: str,
        size: int,
        element_kind: str = "float",
        vector_width: int = 1,
        address_space: str = "global",
        fill=0,
    ) -> Buffer:
        buffer = Buffer(name, size, element_kind, vector_width, address_space, fill)
        self.buffers[name] = buffer
        return buffer

    def get(self, name: str) -> Buffer | None:
        return self.buffers.get(name)

    @property
    def global_buffers(self) -> list[Buffer]:
        return [b for b in self.buffers.values() if b.address_space == "global"]

    @property
    def local_buffers(self) -> list[Buffer]:
        return [b for b in self.buffers.values() if b.address_space == "local"]

    @property
    def total_global_bytes(self) -> int:
        return sum(b.size_in_bytes for b in self.global_buffers)
