"""Lockstep (SIMT) operator semantics over NumPy lane arrays.

The vectorized execution tier advances *all* work-items of an NDRange at
once: every runtime scalar becomes a lane value ``(kind, data)`` where
``kind`` is ``"i"`` (C integer, stored as int64) or ``"f"`` (C float,
stored as float64) and ``data`` is either a ``(n_lanes,)`` ndarray or a
plain Python number for values that are uniform across lanes.

Every function in this module mirrors one operation of
:mod:`repro.execution.ops` / :mod:`repro.execution.values` **exactly** —
the differential test suite asserts bit-identical buffers and stats against
the scalar engines, so "close enough" is not close enough.  Where int64 (or
float64 round-tripping) cannot represent what the arbitrary-precision
Python semantics would produce, the operation raises
:class:`~repro.errors.LockstepBailout` and the engine router re-executes
the kernel on the closure engine instead.  Uniform × uniform operations are
delegated straight to :func:`repro.execution.ops.apply_binary`, which makes
them exact by construction.

Masks select the active lanes: ``None`` means *all lanes active* (the hot
path — fully convergent control flow never materialises a mask), ``False``
means *no lane active*, and a bool ndarray means partial divergence.
Inactive lanes may hold garbage; guards and hazard checks only ever inspect
active lanes.
"""

from __future__ import annotations

import numpy as np

from repro.errors import LockstepBailout
from repro.execution.ops import apply_binary
from repro.execution.values import _INT_RANGES

INT_KIND = "i"
FLOAT_KIND = "f"

#: int64 bounds and the magnitude below which int<->float64 conversion and
#: float64 division of integers are exact.
_I64_MIN = -(2**63)
_I64_MAX = 2**63 - 1
_EXACT_INT = 2**53

_FLOAT_TYPE_KINDS = ("float", "double", "half")


# ---------------------------------------------------------------------------
# Masks.  None = all lanes, False = no lane, ndarray(bool) = some lanes.
# ---------------------------------------------------------------------------


def mask_any(mask) -> bool:
    if mask is None:
        return True
    if mask is False:
        return False
    return bool(mask.any())


def mask_count(mask, n: int) -> int:
    if mask is None:
        return n
    if mask is False:
        return 0
    return int(mask.sum())


def _normalized(combined: np.ndarray):
    """Collapse a bool mask to False (no lanes) or None (all lanes).

    Keeping fully-convergent control flow on the ``None`` fast path matters:
    an all-True ndarray mask would push every downstream node onto the
    masked gather/merge path for no semantic difference.
    """
    if not combined.any():
        return False
    if combined.all():
        return None
    return combined


def mask_and(mask, cond):
    """Intersect *mask* with a truthiness outcome (bool or bool ndarray)."""
    if cond is True:
        return mask
    if cond is False:
        return False
    if mask is None:
        return _normalized(cond)
    if mask is False:
        return False
    return _normalized(mask & cond)


def mask_andnot(mask, cond):
    if cond is True:
        return False
    if cond is False:
        return mask
    return mask_and(mask, ~cond)


def mask_minus(a, b):
    """Lanes active in mask *a* but not in mask *b* (both mask-valued)."""
    if b is None or a is False:
        return False
    if b is False:
        return a
    complement = ~b
    if a is not None:
        complement = a & complement
    return _normalized(complement)


def mask_or(a, b):
    if a is None or b is None:
        return None
    if a is False:
        return b
    if b is False:
        return a
    return _normalized(a | b)


def _active_any(flags, mask) -> bool:
    """Whether any *active* lane has its flag set (guards ignore dead lanes)."""
    if mask is None:
        return bool(np.any(flags))
    return bool(np.any(flags & mask))


# ---------------------------------------------------------------------------
# Lane-value helpers.
# ---------------------------------------------------------------------------


def is_uniform(data) -> bool:
    return not isinstance(data, np.ndarray)

def to_array(kind: str, data, n: int) -> np.ndarray:
    """Materialise a lane value as a full ``(n,)`` ndarray."""
    if isinstance(data, np.ndarray):
        return data
    dtype = np.float64 if kind == FLOAT_KIND else np.int64
    if kind == INT_KIND and not _I64_MIN <= data <= _I64_MAX:
        raise LockstepBailout(f"uniform integer {data} exceeds int64")
    return np.full(n, data, dtype=dtype)


def _np_operand(kind: str, data):
    """An operand numpy can broadcast: ndarray, or an int64-safe scalar."""
    if isinstance(data, np.ndarray):
        return data
    if kind == INT_KIND and not _I64_MIN <= data <= _I64_MAX:
        raise LockstepBailout(f"uniform integer {data} exceeds int64")
    return data


def kind_of_python(value) -> str:
    return FLOAT_KIND if isinstance(value, float) else INT_KIND


def truthy(kind: str, data):
    """C truthiness: bool for uniforms, bool ndarray for varying lanes."""
    if is_uniform(data):
        return bool(data)
    return data != 0


def to_float_data(kind: str, data):
    """``float(value)`` per lane (int64 -> float64 is correctly rounded,
    exactly like Python's ``float(int)``)."""
    if kind == FLOAT_KIND:
        return data
    if is_uniform(data):
        return float(data)
    return data.astype(np.float64)


def to_int_data(kind: str, data, mask):
    """``int(value)`` per lane: truncation toward zero, with bailout where
    Python would raise (non-finite) or the value exceeds int64 (uniform
    Python ints are arbitrary precision; downstream NumPy consumers are
    not)."""
    if kind == INT_KIND:
        if is_uniform(data) and not _I64_MIN <= data <= _I64_MAX:
            raise LockstepBailout("integer value exceeds int64")
        return data
    if is_uniform(data):
        if data != data or data in (float("inf"), float("-inf")):
            raise LockstepBailout("int() of non-finite float")
        if not _I64_MIN <= data < 2**63:
            raise LockstepBailout("int() of float exceeds int64")
        return int(data)
    finite = np.isfinite(data)
    if _active_any(~finite, mask):
        raise LockstepBailout("int() of non-finite float")
    truncated = np.trunc(data)
    if _active_any((truncated < _I64_MIN) | (truncated >= 2**63), mask):
        raise LockstepBailout("int() of float exceeds int64")
    # Dead lanes may hold NaN/inf; neutralise them before the cast so numpy
    # does not trip on undefined float->int conversions.
    if mask is not None:
        truncated = np.where(finite, truncated, 0.0)
    return truncated.astype(np.int64)


# ---------------------------------------------------------------------------
# Overflow guards (exact-or-bailout integer arithmetic).
# ---------------------------------------------------------------------------


def _guard_add(a, b, result, mask):
    overflow = ((a ^ result) & (b ^ result)) < 0
    if _active_any(overflow, mask):
        raise LockstepBailout("int64 overflow in addition")


def _guard_sub(a, b, result, mask):
    overflow = ((a ^ b) & (a ^ result)) < 0
    if _active_any(overflow, mask):
        raise LockstepBailout("int64 overflow in subtraction")


def _guard_mul(a, b, mask):
    approx = np.multiply(
        np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    )
    if _active_any(np.abs(approx) >= 2.0**62, mask):
        raise LockstepBailout("possible int64 overflow in multiplication")


# ---------------------------------------------------------------------------
# Binary operators.
# ---------------------------------------------------------------------------

_COMPARISONS = ("==", "!=", "<", ">", "<=", ">=")

_COMPARE_UFUNC = {
    "==": np.equal,
    "!=": np.not_equal,
    "<": np.less,
    ">": np.greater,
    "<=": np.less_equal,
    ">=": np.greater_equal,
}


_FLOAT_ARITH_UFUNC = {"+": np.add, "-": np.subtract, "*": np.multiply}


def binary(op: str, left, right, mask):
    """Evaluate *op* over lane values ``left``/``right`` = ``(kind, data)``.

    Mirrors :func:`repro.execution.ops.apply_binary` lane-wise; returns a
    ``(kind, data)`` pair.  Buffers and vectors never reach this function —
    the compiler handles pointer operands before calling in.
    """
    lk, ld = left
    rk, rd = right
    if is_uniform(ld) and is_uniform(rd):
        result = apply_binary(op, ld, rd)
        return (kind_of_python(result), result)

    if lk == FLOAT_KIND and rk == FLOAT_KIND:
        # Pure float64 lane arithmetic is IEEE-exact with no guards — the
        # hottest path in numeric kernels.
        ufunc = _FLOAT_ARITH_UFUNC.get(op)
        if ufunc is not None:
            return (FLOAT_KIND, ufunc(ld, rd))
        ufunc = _COMPARE_UFUNC.get(op)
        if ufunc is not None:
            return (INT_KIND, ufunc(ld, rd).astype(np.int64))

    if op in _COMPARISONS:
        return _compare(op, lk, ld, rk, rd, mask)

    if op == "+" or op == "-" or op == "*":
        return _arith(op, lk, ld, rk, rd, mask)
    if op == "/":
        return _divide(lk, ld, rk, rd, mask)
    if op == "%":
        return _modulo(lk, ld, rk, rd, mask)
    if op in ("&", "|", "^"):
        li = to_int_data(lk, ld, mask)
        ri = to_int_data(rk, rd, mask)
        ufunc = {"&": np.bitwise_and, "|": np.bitwise_or, "^": np.bitwise_xor}[op]
        return (INT_KIND, ufunc(_np_operand(INT_KIND, li), _np_operand(INT_KIND, ri)))
    if op == "<<":
        return _shift_left(lk, ld, rk, rd, mask)
    if op == ">>":
        li = _np_operand(INT_KIND, to_int_data(lk, ld, mask))
        shift = np.mod(_np_operand(INT_KIND, to_int_data(rk, rd, mask)), 64)
        return (INT_KIND, np.right_shift(li, shift))
    raise LockstepBailout(f"unsupported binary operator {op!r} in lockstep tier")


def _mixed_compare_guard(lk, ld, rk, rd, mask):
    """Python compares int to float exactly; numpy promotes both to float64.
    Bail out when an integer operand is large enough for that to differ."""
    if lk == rk:
        return
    int_side = ld if lk == INT_KIND else rd
    if is_uniform(int_side):
        if not -_EXACT_INT <= int_side <= _EXACT_INT:
            raise LockstepBailout("mixed int/float comparison beyond 2**53")
    elif _active_any(np.abs(int_side) >= _EXACT_INT, mask):
        raise LockstepBailout("mixed int/float comparison beyond 2**53")


def _compare(op, lk, ld, rk, rd, mask):
    _mixed_compare_guard(lk, ld, rk, rd, mask)
    outcome = _COMPARE_UFUNC[op](_np_operand(lk, ld), _np_operand(rk, rd))
    return (INT_KIND, outcome.astype(np.int64))


def _arith(op, lk, ld, rk, rd, mask):
    both_int = lk == INT_KIND and rk == INT_KIND
    a = _np_operand(lk, ld)
    b = _np_operand(rk, rd)
    if both_int:
        if op == "*":
            _guard_mul(a, b, mask)
            return (INT_KIND, np.multiply(a, b))
        if op == "+":
            result = np.add(a, b)
            _guard_add(np.asarray(a), np.asarray(b), result, mask)
            return (INT_KIND, result)
        result = np.subtract(a, b)
        _guard_sub(np.asarray(a), np.asarray(b), result, mask)
        return (INT_KIND, result)
    # Mixed or float arithmetic: Python converts the int side with float()
    # (correctly rounded), numpy casts int64 -> float64 identically.
    ufunc = {"+": np.add, "-": np.subtract, "*": np.multiply}[op]
    return (FLOAT_KIND, ufunc(to_float_data(lk, a), to_float_data(rk, b)))


def _check_exact_int_operands(ld, rd, mask, what: str) -> None:
    """Both operands must convert to float64 exactly (|value| < 2**53)."""
    flags = None
    for data in (ld, rd):
        if is_uniform(data):
            if not -_EXACT_INT <= data <= _EXACT_INT:
                raise LockstepBailout(f"integer {what} beyond 2**53")
        else:
            outside = np.abs(data) >= _EXACT_INT
            flags = outside if flags is None else (flags | outside)
    if flags is not None and _active_any(flags, mask):
        raise LockstepBailout(f"integer {what} beyond 2**53")


def _divide(lk, ld, rk, rd, mask):
    both_int = lk == INT_KIND and rk == INT_KIND
    if both_int:
        # ops.apply_binary computes int(left / right): a correctly-rounded
        # float64 quotient truncated toward zero.  float64(l)/float64(r) is
        # the same correctly-rounded quotient only while the operands convert
        # exactly.
        _check_exact_int_operands(ld, rd, mask, "division")
        lf = to_float_data(lk, _np_operand(lk, ld))
        rf = to_float_data(rk, _np_operand(rk, rd))
        with np.errstate(divide="ignore", invalid="ignore"):
            quotient = np.trunc(np.divide(lf, rf))
        quotient = np.where(np.asarray(rf) == 0.0, 0.0, quotient)
        return (INT_KIND, quotient.astype(np.int64))
    lf = to_float_data(lk, _np_operand(lk, ld))
    rf = to_float_data(rk, _np_operand(rk, rd))
    with np.errstate(divide="ignore", invalid="ignore"):
        quotient = np.divide(lf, rf)
    zero = np.asarray(rf) == 0.0
    if np.any(zero):
        lf_arr = np.asarray(lf, dtype=np.float64)
        patched = np.where(
            lf_arr > 0, np.inf, np.where(lf_arr < 0, -np.inf, np.nan)
        )
        quotient = np.where(zero, patched, quotient)
    return (FLOAT_KIND, quotient)


def _modulo(lk, ld, rk, rd, mask):
    both_int = lk == INT_KIND and rk == INT_KIND
    if both_int:
        _check_exact_int_operands(ld, rd, mask, "modulo")
        a = _np_operand(lk, ld)
        b = _np_operand(rk, rd)
        with np.errstate(divide="ignore", invalid="ignore"):
            quotient = np.trunc(np.divide(np.asarray(a, np.float64), np.asarray(b, np.float64)))
        quotient = np.where(np.asarray(b) == 0, 0.0, quotient).astype(np.int64)
        remainder = np.asarray(a) - quotient * np.asarray(b)
        return (INT_KIND, np.where(np.asarray(b) == 0, 0, remainder))
    # ops.apply_binary returns the *int* 0 when the divisor is zero but
    # math.fmod (a float) otherwise — representable only when the zero-divisor
    # lanes are uniform across the active set.
    rf = to_float_data(rk, _np_operand(rk, rd))
    zero = np.asarray(rf) == 0.0
    if zero.ndim == 0:
        if bool(zero):
            return (INT_KIND, 0)
    elif _active_any(zero, mask):
        if not _active_any(~zero, mask):
            return (INT_KIND, 0)
        raise LockstepBailout("per-lane int/float kind split in % by zero")
    lf = to_float_data(lk, _np_operand(lk, ld))
    # math.fmod raises ValueError on an infinite dividend where np.fmod
    # would return NaN; the scalar engines crash there, so refuse.
    if is_uniform(lf):
        if lf == float("inf") or lf == float("-inf"):
            raise LockstepBailout("fmod of an infinite dividend")
    elif _active_any(np.isinf(lf), mask):
        raise LockstepBailout("fmod of an infinite dividend")
    with np.errstate(invalid="ignore"):
        return (FLOAT_KIND, np.fmod(lf, rf))


def _shift_left(lk, ld, rk, rd, mask):
    li = _np_operand(INT_KIND, to_int_data(lk, ld, mask))
    shift = np.mod(_np_operand(INT_KIND, to_int_data(rk, rd, mask)), 64)
    result = np.left_shift(li, shift)
    # Exact only when shifting back recovers the operand (no bits lost off
    # the top, sign preserved); Python would widen instead of wrapping.
    if _active_any(np.right_shift(result, shift) != li, mask):
        raise LockstepBailout("int64 overflow in left shift")
    return (INT_KIND, result)


# ---------------------------------------------------------------------------
# Unary operators.
# ---------------------------------------------------------------------------


def negate(value, mask):
    kind, data = value
    if is_uniform(data):
        return (kind, -data)
    if kind == INT_KIND and _active_any(data == _I64_MIN, mask):
        raise LockstepBailout("negation of int64 minimum")
    return (kind, -data)


def logical_not(value):
    kind, data = value
    outcome = truthy(kind, data)
    if isinstance(outcome, bool):
        return (INT_KIND, 0 if outcome else 1)
    return (INT_KIND, (~outcome).astype(np.int64))


def invert(value, mask):
    kind, data = value
    as_int = to_int_data(kind, data, mask)
    if is_uniform(as_int):
        return (INT_KIND, ~as_int)
    return (INT_KIND, np.invert(as_int))


# ---------------------------------------------------------------------------
# Type conversion (mirror of values.convert_scalar).
# ---------------------------------------------------------------------------


def convert(target_kind: str, value, mask):
    """``convert_scalar(target_kind, value)`` per lane."""
    kind, data = value
    if target_kind in _FLOAT_TYPE_KINDS:
        return (FLOAT_KIND, to_float_data(kind, data))
    if target_kind == "bool":
        outcome = truthy(kind, data)
        if isinstance(outcome, bool):
            return (INT_KIND, 1 if outcome else 0)
        return (INT_KIND, outcome.astype(np.int64))
    low, high = _INT_RANGES.get(target_kind, _INT_RANGES["int"])
    if is_uniform(data):
        # Uniform Python ints wrap with arbitrary precision, exactly like
        # wrap_integer — including values far outside int64 (which is why
        # the int kind bypasses to_int_data's int64 guard here).
        as_int = data if kind == INT_KIND else to_int_data(kind, data, mask)
        wrapped = (as_int - low) % (high - low + 1) + low
        if not _I64_MIN <= wrapped <= _I64_MAX:
            raise LockstepBailout(f"{target_kind} cast result exceeds int64")
        return (INT_KIND, wrapped)
    as_int = to_int_data(kind, data, mask)
    if low == _I64_MIN and high == _I64_MAX:  # long: int64 is already the range
        return (INT_KIND, as_int)
    if high == 2**64 - 1:  # ulong/size_t: negative values wrap beyond int64
        if _active_any(as_int < 0, mask):
            raise LockstepBailout("negative value wrapped into ulong range")
        return (INT_KIND, as_int)
    span = high - low + 1
    remainder = np.mod(as_int, span)
    return (INT_KIND, np.where(remainder > high, remainder - span, remainder))


# ---------------------------------------------------------------------------
# Masked merge (SSA-style select used by stores and ternaries).
# ---------------------------------------------------------------------------


def select(cond_mask, when_true, when_false, n: int):
    """Per-lane select between two lane values of the *same* kind."""
    tk, td = when_true
    fk, fd = when_false
    if tk != fk:
        raise LockstepBailout("per-lane int/float kind divergence in select")
    if cond_mask is None:
        return when_true
    if cond_mask is False:
        return when_false
    return (tk, np.where(cond_mask, to_array(tk, td, n), to_array(fk, fd, n)))


def merge(mask, new, old, n: int):
    """Keep *new* on active lanes and *old* elsewhere (assignment merge)."""
    if mask is None:
        return new
    if mask is False:
        return old
    return select(mask, new, old, n)
