"""Resource caps, the inner categories, and ``_Memo``, the dict that computes
a missing value on lookup.

This is the leaf module: every layer may import it, and it imports no layer.

Each cap has a default, overridable through an environment variable (read at
first use):

    FREEWREATH_ENUM_CAP    maximum number of ground points a partition/diagram
                           enumeration will accept, and the longest star word
                           of a transform in freeprob that sums over block
                           choices (default 14); it bounds no plain order
    FREEWREATH_ENTRY_CAP   maximum number of stored entries of a sparse linear
                           map, a Gram matrix or a fusion table, and of the
                           label triples a file table's associativity check
                           takes, the partition pairs the Weingarten index
                           listing tests for refinement, the product rows
                           the category check compares, the points of the
                           stacked pairs the collapsing-isomorphism check
                           takes, the random
                           products the dimension check fuses, the 2k
                           points of the nested pairing and the N^(2k)
                           entries of the two products the conjugate-equation
                           check compares,
                           the letters of the words a fuse command prints,
                           the coefficient products of a character
                           polynomial,
                           and the steps of freeprob's plain orders, Hom
                           route and classical recursion, a closed-form
                           count checked before the first block moment
                           (default 10**7)

A value that is not a positive integer raises ValueError.  Exceeding a cap
raises :class:`CapExceededError`, which the command line interface maps to
exit code 2; its message names the count, a lower bound "or more", or past
2,000 bits its size.  Tests set a cap by the variables or by replacing caps().
"""

from __future__ import annotations

import os
from functools import cache
from typing import Callable


# the inner categories of the Weingarten calculus, declared here so that the
# command line parser lists them without importing the weingarten layer
CATEGORIES = ("noncrossing", "all", "singletons")


class _Memo(dict):
    """A dict that computes a missing value as fn(key) and keeps it."""

    def __init__(self, fn: Callable):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


class CapExceededError(Exception):
    """An enumeration or sparse object would exceed a configured resource cap."""


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"{name} must be an integer, got {raw!r}") from exc
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value}")
    return value


@cache
def caps() -> tuple[int, int]:
    """(enumeration cap, entry cap) from the environment, read on first use."""
    return (_env_int("FREEWREATH_ENUM_CAP", 14),
            _env_int("FREEWREATH_ENTRY_CAP", 10**7))


# a count of more bits is shown by its size: 2,000 bits are 603 digits, fewer
# than the least limit Python may set on converting an int to a string (640)
_SHOWN_BITS = 2000


def _shown(count: int) -> str:
    bits = count.bit_length()
    return str(count) if bits <= _SHOWN_BITS else f"2^{bits - 1} or more"


def _check(count: int, limit: int, what: str) -> None:
    """Refuse a count over limit; what names it, with {} for the count."""
    if count > limit:
        raise CapExceededError(
            f"{what.format(_shown(count))} exceeds the cap of {limit}")


def check_enum_cap(points: int) -> None:
    _check(points, caps()[0], "enumeration over {} points")


def check_entry_cap(entries: int) -> None:
    _check(entries, caps()[1], "storing {} entries")


def check_work_cap(count: int, work: str) -> None:
    """Refuse count steps of a check beyond the entry cap; work names them,
    with {} for the count ("comparing {} product rows")."""
    _check(count, caps()[1], work)


def check_power_cap(base: int, exponent: int, work: str) -> None:
    """:func:`check_work_cap` on base**exponent, by bit length first: the
    power is at least 2^(exponent (bitlen(base) - 1)), and a bound past both
    the cap and the counts shown in digits refuses before the power is
    taken."""
    low = exponent * (base.bit_length() - 1)
    limit = caps()[1]
    if low > max(_SHOWN_BITS, limit.bit_length()):
        raise CapExceededError(
            f"{work.format(f'2^{low} or more')} exceeds the cap of {limit}")
    check_work_cap(base ** exponent, work)

