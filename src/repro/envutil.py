"""Hardened parsing of ``REPRO_*`` environment knobs.

Every environment variable the pipeline reads goes through these helpers so
a malformed value (a typo'd retry count, a negative lease, a store path
pointing at a regular file) degrades to the documented default with a
:class:`RuntimeWarning` instead of crashing the pipeline mid-run or being
silently misread.
"""

from __future__ import annotations

import os
import warnings


def _warn(message: str) -> None:
    warnings.warn(message, RuntimeWarning, stacklevel=3)


def env_int(name: str, default: int = 0, minimum: int | None = None) -> int:
    """The integer value of ``$name``, or *default* when unset or malformed.

    Values below *minimum* (when given) are clamped up to it, so e.g. a
    negative retry count reads as "no retries" rather than being misread.
    """
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return default
    try:
        value = int(raw.strip())
    except ValueError:
        _warn(f"ignoring malformed {name}={raw!r} (expected an integer); using {default}")
        return default
    if minimum is not None and value < minimum:
        # As loud as the malformed case: a typo'd sign should not silently
        # change behavior either.
        _warn(f"clamping {name}={raw!r} to the minimum of {minimum}")
        return minimum
    return value


def env_float(name: str, default: float = 0.0, minimum: float | None = None) -> float:
    """The float value of ``$name``, or *default* when unset or malformed.

    Same contract as :func:`env_int` (used for e.g. the work-stealing
    queue's ``REPRO_QUEUE_LEASE`` lease seconds).
    """
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return default
    try:
        value = float(raw.strip())
    except ValueError:
        _warn(f"ignoring malformed {name}={raw!r} (expected a number); using {default}")
        return default
    if value != value:  # NaN compares unequal to itself
        _warn(f"ignoring malformed {name}={raw!r} (NaN); using {default}")
        return default
    if minimum is not None and value < minimum:
        _warn(f"clamping {name}={raw!r} to the minimum of {minimum}")
        return minimum
    return value


def parse_size(text: str) -> int:
    """``"500M"`` / ``"2G"`` / plain bytes → bytes.

    Raises :class:`ValueError` on malformed input or a negative size (the
    CLI and the env parser wrap this with their own error reporting).
    """
    units = {"k": 1 << 10, "m": 1 << 20, "g": 1 << 30, "t": 1 << 40}
    raw = text.strip().lower().removesuffix("b")
    if raw and raw[-1] in units:
        value = int(float(raw[:-1]) * units[raw[-1]])
    else:
        value = int(raw)
    if value < 0:
        raise ValueError(f"size must be >= 0, got {text!r}")
    return value


def env_size(name: str, default: int | None = None) -> int | None:
    """The byte-size value of ``$name`` (suffixes: 500M, 2G, ...), or *default*.

    Used for the ``REPRO_STORE_MAX_BYTES`` auto-gc watermark; malformed
    values degrade to *default* with a warning so a typo cannot either
    crash a pipeline or silently wipe a shared store.
    """
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return default
    try:
        return parse_size(raw)
    except (ValueError, OverflowError):
        _warn(
            f"ignoring malformed {name}={raw!r} (expected a byte size like "
            f"500M or 2G); using {default}"
        )
        return default


def env_text(name: str, default: str | None = None) -> str | None:
    """The raw (stripped) text value of ``$name``, or *default* when unset
    or blank.

    For knobs whose grammar is owned by a dedicated parser (e.g. the
    ``REPRO_FAULTS`` fault specs): this helper only normalizes "unset",
    "empty" and "whitespace" to one answer so every caller agrees on what
    "off" looks like.
    """
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return default
    return raw.strip()


def env_directory(name: str) -> str | None:
    """The directory path named by ``$name``, or ``None``.

    A path that exists but is not a directory cannot back a store — it is
    ignored with a warning rather than producing write errors on every
    artifact (a nonexistent path is fine: the store creates it lazily).
    """
    raw = os.environ.get(name)
    if not raw:
        return None
    if os.path.exists(raw) and not os.path.isdir(raw):
        _warn(f"ignoring {name}={raw!r}: it exists but is not a directory")
        return None
    return raw
