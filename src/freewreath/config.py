"""Resource caps, the inner categories, the base of the value classes, and
``_Memo``, the dict that computes a missing value on lookup.

This is the leaf module: every layer may import it, and it imports no layer.

Each cap has a default, overridable through an environment variable (read at
first use):

    FREEWREATH_ENUM_CAP    maximum number of ground points a partition/diagram
                           enumeration will accept, and the longest word or
                           order of a character law in freeprob (default 14)
    FREEWREATH_ENTRY_CAP   maximum number of stored entries of a sparse linear
                           map, a Gram matrix or a fusion table, and of the
                           label triples a file table's associativity check
                           takes, the product rows the category check
                           compares, the pairs the collapsing-isomorphism
                           check takes and the random products the dimension
                           check fuses (default 10**7)

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


class Value:
    """Base of the package's small value classes.

    A subclass names its fields in ``_fields`` and writes its own
    ``__init__``.  Values are equal when they are of the same class and their
    fields are equal, and hash over their fields.  They are frozen unless
    ``_frozen`` is false; a frozen ``__init__`` sets its fields with
    ``object.__setattr__``.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _frozen = True

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        if self._frozen:
            raise AttributeError(f"cannot assign to field {name!r}")
        object.__setattr__(self, name, value)

    def __delattr__(self, name):
        if self._frozen:
            raise AttributeError(f"cannot delete field {name!r}")
        object.__delattr__(self, name)


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
