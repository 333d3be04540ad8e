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
                           takes, the product rows the category check
                           compares, the points of the stacked pairs the
                           collapsing-isomorphism check takes, the random
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
exit code 2.  Tests lower a cap through the variables or by replacing caps().
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


def _check(count: int, limit: int, what: str) -> None:
    if count > limit:
        raise CapExceededError(f"{what} exceeds the cap of {limit}")


def check_enum_cap(points: int) -> None:
    _check(points, caps()[0], f"enumeration over {points} points")


def check_entry_cap(entries: int) -> None:
    _check(entries, caps()[1], f"storing {entries} entries")


def check_work_cap(count: int, work: str) -> None:
    """Refuse count steps of a check beyond the entry cap; work names them,
    with {} for the count ("comparing {} product rows")."""
    _check(count, caps()[1], work.format(count))
