"""Partitions of two-row point sets and their category operations.

Conventions, fixed once and used everywhere:

* A partition ``p`` with ``k`` upper and ``l`` lower points lives on the
  ground set {1, ..., k+l}: points 1..k are the upper row read left to right,
  points k+1..k+l are the lower row read left to right.

* Crossings are judged on the boundary circle: the traversal visits the upper
  row left to right, then the lower row right to left (so the wrap gap between
  the last visited point and the first is the *left* edge of the picture, and
  the gap after point k is the right edge).  ``p`` is noncrossing when no two
  blocks interleave in this cyclic order.  Cutting the circle at the left edge
  turns this into the usual linear noncrossing condition, which is what the
  stack test below checks.

* A partition stores its labels, the block index of each point 1..k+l with
  blocks numbered 0, 1, ... by smallest point, so equal partitions compare
  and hash equal.  ``blocks`` is a view: sorted blocks, ordered likewise.

Operations: ``tensor`` is horizontal concatenation, ``compose`` is vertical
concatenation (lower row of the top factor glued to the upper row of the
bottom factor), as the pair (partition, count of closed blocks),
``involute`` turns the picture upside down, ``join`` is the common
coarsening in the full partition lattice of the ground set, ``refines`` the
comparison, and ``kernel`` the level-set partition of an index tuple.  All
run on labels, which come out canonical, so each result is built from them
unchecked.  Compose and join merge blocks by the one union-find, ``_merge``:
its points are any ints, and n is how many there are, so block t of one
factor is the point t and block c of the other the point ~c.

``enumerate_partitions`` lists a category by name from one table, each
result built unchecked: one first-block recursion on the circle cut open at
the left edge, whose positions ``_circle`` maps to points, gives the
noncrossing families.

Partition literals render as ``{1,2|3} (k=0,l=3)`` and the parser accepts the
same grammar with arbitrary whitespace.
"""

from __future__ import annotations

import re
from functools import cache
from itertools import chain, combinations
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

from .config import Value, check_enum_cap

Block = tuple[int, ...]
# the block index of each point 1..k+l; blocks are numbered by their smallest
# point, so equal partitions have equal labels
Labels = tuple[int, ...]


def _labels(n: int, blocks: Iterable[Block]) -> Labels:
    """The labels of sorted blocks of 1..n, listed by their first point."""
    labels = [0] * n
    for i, b in enumerate(blocks):
        for pt in b:
            labels[pt - 1] = i
    return tuple(labels)


def _merge(n: int, chains: Iterable[Sequence[int]],
           boundary: Iterable[int]) -> tuple[Labels, int]:
    """Union-find on n points that merges the points of each chain.

    Points are any ints, and n is how many there are; a point that no chain
    or boundary names is a class of its own.  Returns the block labels of
    the points of ``boundary`` in the order listed, the classes numbered
    0, 1, ... by first appearance, and the number of classes that miss
    ``boundary``.
    """
    # a point is a root when it is not a key; each union adds one key
    parent: dict[int, int] = {}
    for pts in chains:
        it = iter(pts)
        root = next(it)
        while root in parent:
            root = parent[root]
        for pt in it:
            while pt in parent:
                pt = parent[pt]
            if pt != root:
                parent[pt] = root
    ids: dict[int, int] = {}
    labels = []
    for pt in boundary:
        while pt in parent:
            pt = parent[pt]
        labels.append(ids.setdefault(pt, len(ids)))
    return tuple(labels), n - len(parent) - len(ids)


def _join_counts(parts: Sequence[Partition],
                 rows: Sequence[int] | None = None) -> tuple[bytes, ...]:
    """Rows of b(x v y), the block count of the join, over parts x and y.

    With ``rows``, only the rows of the parts at those positions.  Every Gram
    matrix of the package is a power of these counts.
    """
    blocks = [p.blocks for p in parts]
    return tuple(bytes(_merge(parts[r].points, blocks[r] + y, ())[1]
                       for y in blocks)
                 for r in (range(len(parts)) if rows is None else rows))


# -- category operations on block labels ------------------------------------


def _canonical_labels(raw: Iterable[int]) -> Labels:
    """Blocks renumbered 0, 1, ... in the order of their first point."""
    first: dict[int, int] = {}
    return tuple(first.setdefault(b, len(first)) for b in raw)


def _tensor_labels(k1: int, a: Labels, k2: int, b: Labels) -> Labels:
    """a tensor b, for a with k1 and b with k2 upper points."""
    shift = max(a, default=-1) + 1
    moved = [x + shift for x in b]
    return _canonical_labels(chain(a[:k1], moved[:k2], a[k1:], moved[k2:]))


def _compose_labels(k: int, m: int, top: Labels,
                    bottom: Labels) -> tuple[Labels, int]:
    """top, with k upper and m lower points, stacked on bottom.

    The blocks of both are the points of the union-find: top's block t is
    the point t and bottom's block c the point ~c, and the middle row joins
    the two.  Returns the labels of the result and the number of closed
    blocks.
    """
    return _merge(max(top, default=-1) + max(bottom, default=-1) + 2,
                  zip(top[k:], [~c for c in bottom[:m]]),
                  top[:k] + tuple(~c for c in bottom[m:]))


def _involute_labels(k: int, a: Labels) -> Labels:
    """a turned upside down, for a with k upper points."""
    return _canonical_labels(a[k:] + a[:k])


def _from_labels(k: int, l: int, labels: Labels, cls: type | None = None):
    """The Partition (or cls) with these canonical labels, unchecked."""
    p = object.__new__(cls or Partition)
    object.__setattr__(p, "upper", k)
    object.__setattr__(p, "lower", l)
    object.__setattr__(p, "labels", labels)
    return p


class Partition(Value):
    """A partition of 1..upper+lower into ``blocks``, stored as its labels."""

    __slots__ = _fields = ("upper", "lower", "labels")

    def __init__(self, upper: int, lower: int,
                 blocks: Iterable[Iterable[int]]):
        out = []
        for b in blocks:
            t = tuple(sorted(b))
            if not t:
                raise ValueError("empty block")
            out.append(t)
        out.sort(key=itemgetter(0))
        if upper < 0 or lower < 0:
            raise ValueError("arities must be nonnegative")
        n = upper + lower
        if sorted(chain.from_iterable(out)) != list(range(1, n + 1)):
            raise ValueError(
                f"blocks {tuple(out)} do not partition 1..{n} "
                f"(upper={upper}, lower={lower})"
            )
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "labels", _labels(n, out))

    @property
    def points(self) -> int:
        return self.upper + self.lower

    def block_count(self) -> int:
        return max(self.labels, default=-1) + 1

    @property
    def blocks(self) -> tuple[Block, ...]:
        blocks: list[list[int]] = [[] for _ in range(self.block_count())]
        for pt, b in enumerate(self.labels, 1):
            blocks[b].append(pt)
        return tuple(map(tuple, blocks))

    # -- circular order ----------------------------------------------------

    def is_noncrossing(self) -> bool:
        labels = self.labels
        remaining = [labels.count(b) for b in range(self.block_count())]
        stack: list[int] = []
        for pt in _circle(self.upper, self.lower):
            b = labels[pt - 1]
            if b not in stack:  # a closed block has no point left to visit
                stack.append(b)
            elif stack[-1] != b:
                return False
            remaining[b] -= 1
            if remaining[b] == 0:
                stack.pop()
        return True

    # -- category operations ----------------------------------------------

    def tensor(self, other: "Partition") -> "Partition":
        """Horizontal concatenation: self on the left, other on the right."""
        return _from_labels(self.upper + other.upper, self.lower + other.lower,
                            _tensor_labels(self.upper, self.labels,
                                           other.upper, other.labels))

    def compose(self, top: "Partition") -> tuple["Partition", int]:
        """Vertical concatenation with ``top`` above ``self``.

        Requires lower(top) == upper(self); the middle rows are identified
        point by point.  Returns the pair (partition, closed): the induced
        partition on upper(top) and lower(self), and the number of closed
        blocks (components living entirely in the middle), each of which
        contributes one factor of N on the linear-map side.
        """
        if top.lower != self.upper:
            raise ValueError(
                f"cannot compose: top has {top.lower} lower points, "
                f"bottom has {self.upper} upper points"
            )
        labels, closed = _compose_labels(top.upper, self.upper, top.labels,
                                         self.labels)
        return _from_labels(top.upper, self.lower, labels), closed

    def involute(self) -> "Partition":
        """Upside-down reflection: upper and lower rows trade places."""
        return _from_labels(self.lower, self.upper,
                            _involute_labels(self.upper, self.labels))

    # -- lattice operations ------------------------------------------------

    def join(self, other: "Partition") -> "Partition":
        """Common coarsening in the partition lattice of the ground set."""
        if (self.upper, self.lower) != (other.upper, other.lower):
            raise ValueError("join requires identical point sets")
        labels, _ = _merge(self.block_count() + other.block_count(),
                           zip(self.labels, [~c for c in other.labels]),
                           self.labels)
        return _from_labels(self.upper, self.lower, labels)

    def refines(self, other: "Partition") -> bool:
        """True when every block of self lies inside a block of other."""
        if (self.upper, self.lower) != (other.upper, other.lower):
            raise ValueError("refinement requires identical point sets")
        return len(set(zip(self.labels, other.labels))) == self.block_count()

    # -- rendering ---------------------------------------------------------

    def render(self) -> str:
        inner = "|".join(",".join(str(p) for p in b) for b in self.blocks)
        return f"{{{inner}}} (k={self.upper},l={self.lower})"

    __str__ = render

    def __repr__(self):
        return f"Partition({self.render()})"


_LITERAL = re.compile(r"^\{(?P<blocks>[^{}]*)\}\(k=(?P<k>\d+),l=(?P<l>\d+)\)$")


def parse_partition(text: str) -> Partition:
    compact = re.sub(r"\s+", "", text)
    m = _LITERAL.match(compact)
    if not m:
        raise ValueError(f"cannot parse {text!r} as a partition literal")
    k, l = int(m.group("k")), int(m.group("l"))
    body = m.group("blocks")
    if body:
        blocks = [tuple(int(x) for x in part.split(",")) for part in body.split("|")]
    else:
        blocks = []
    return Partition(k, l, blocks)


# ---------------------------------------------------------------------------
# constructions


def identity_partition(k: int) -> Partition:
    """The through-strings partition pairing upper i with lower i."""
    return Partition(k, k, [(i, k + i) for i in range(1, k + 1)])


def full_block(k: int, l: int) -> Partition:
    if k + l == 0:
        return Partition(0, 0, [])
    return Partition(k, l, [tuple(range(1, k + l + 1))])


def discrete_partition(k: int, l: int) -> Partition:
    return Partition(k, l, [(i,) for i in range(1, k + l + 1)])


def nested_pairing(k: int) -> Partition:
    """The pairing {i, 2k+1-i} of 2k lower points (fully nested arcs).

    This is the duality partition: its map solves the conjugate equations for
    the identity object tensored k times.
    """
    return Partition(0, 2 * k, [(i, 2 * k + 1 - i) for i in range(1, k + 1)])


def kernel(values: tuple) -> Partition:
    """Level-set partition of an index tuple, as a partition of (0, r): the
    values renumbered by first occurrence are its labels."""
    return _from_labels(0, len(values), _canonical_labels(values))


# ---------------------------------------------------------------------------
# enumeration


@cache
def _circle(k: int, l: int) -> tuple[int, ...]:
    """The point at each position 0..k+l-1 of the boundary circle cut open at
    the left edge: the upper row left to right, then the lower row right to
    left."""
    return tuple(range(1, k + 1)) + tuple(range(k + l, k, -1))


@cache
def _nc_shapes(n: int, size: int) -> tuple[tuple[Block, ...], ...]:
    """The noncrossing partitions of the linearly ordered points 0..n-1 whose
    blocks all have ``size`` points, or any number of points for size 0."""
    if n == 0:
        return ((),)
    out: list[tuple[Block, ...]] = []
    rest = range(1, n)
    for t in (size - 1,) if size else range(n):
        for chosen in combinations(rest, t):
            first_block = (0,) + chosen
            bounds = list(first_block) + [n]
            gaps = [(bounds[i] + 1, bounds[i + 1]) for i in range(len(first_block))]
            partial: list[tuple[Block, ...]] = [(first_block,)]
            for lo, hi in gaps:
                sub = _nc_shapes(hi - lo, size)
                partial = [
                    acc + tuple(tuple(x + lo for x in blk) for blk in shape)
                    for acc in partial
                    for shape in sub
                ]
            out.extend(partial)
    return tuple(out)


def _all_shapes(n: int) -> Iterator[tuple[Block, ...]]:
    """All set partitions of 0..n-1 (restricted-growth order)."""
    if n == 0:
        yield ()
        return
    blocks: list[list[int]] = []

    def rec(i: int) -> Iterator[tuple[Block, ...]]:
        if i == n:
            yield tuple(tuple(b) for b in blocks)
            return
        for b in blocks:
            b.append(i)
            yield from rec(i + 1)
            b.pop()
        blocks.append([i])
        yield from rec(i + 1)
        blocks.pop()

    yield from rec(0)


# the category of partitions named by each mode, as the shapes on n points
_FAMILIES = {
    "noncrossing": lambda n: _nc_shapes(n, 0),
    "pairings": lambda n: _nc_shapes(n, 2),
    "singletons": lambda n: _nc_shapes(n, 1),
    "all": _all_shapes,
}


def enumerate_partitions(k: int, l: int,
                         mode: str = "noncrossing") -> tuple[Partition, ...]:
    """All partitions of a category with k upper and l lower points.

    ``mode`` names the category: "noncrossing", "pairings" (noncrossing, every
    block of two points), "singletons" (every block of one point) or "all"
    (every set partition).  The noncrossing families are generated directly
    in the boundary-circle order, with no filtering.  The result is sorted by
    the sorted blocks of each shape, and each is built unchecked from their
    labels, as the shapes are partitions by construction.  The ground-point
    cap (default 14) guards against runaway enumeration.
    """
    n = k + l
    check_enum_cap(n)
    if mode not in _FAMILIES:
        raise ValueError(f"unknown mode {mode!r}")
    point = _circle(k, l).__getitem__
    keyed = sorted(sorted(tuple(sorted(map(point, blk))) for blk in shape)
                   for shape in _FAMILIES[mode](n))
    return tuple(_from_labels(k, l, _labels(n, blocks)) for blocks in keyed)
