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

``enumerate_partitions`` lists every category from one recursion that emits
canonical labels in the order of the sorted blocks, each result built
unchecked; a category is a block size, and all but "all" keep every block
inside one arc of each closed block on the circle cut open at the left edge.

Partition literals render as ``{1,2|3} (k=0,l=3)`` and the parser accepts the
same grammar with arbitrary whitespace.
"""

from __future__ import annotations

import re
from bisect import bisect
from functools import cache
from itertools import chain
from operator import itemgetter
from typing import Iterable, Sequence

from .config import check_enum_cap

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
    matrix of the package is a power of these counts.  Each distinct pair of
    parts is joined once: a row is read through the position of each part
    among the distinct ones.
    """
    position = {x: t for t, x in enumerate(dict.fromkeys(parts))}
    blocks = [x.blocks for x in position]
    rows = range(len(parts)) if rows is None else rows
    counts = {x: bytes(_merge(x.points, blocks[position[x]] + y, ())[1]
                       for y in blocks)
              for x in dict.fromkeys(parts[r] for r in rows)}
    where = [position[x] for x in parts]
    return tuple(bytes(map(counts[parts[r]].__getitem__, where))
                 for r in rows)


# -- category operations on block labels ------------------------------------


def _canonical_labels(raw: Iterable[int]) -> Labels:
    """Blocks renumbered 0, 1, ... in the order of their first point."""
    first: dict[int, int] = {}
    return tuple([first.setdefault(b, len(first)) for b in raw])


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


class Partition:
    """A partition of 1..upper+lower into ``blocks``, stored as its labels.

    Frozen: equal to a partition of the same class, upper and labels (which
    fix lower), and hashed over its arities and labels."""

    __slots__ = ("upper", "lower", "labels")

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

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.upper == other.upper and self.labels == other.labels

    def __hash__(self):
        return hash((self.upper, self.lower, self.labels))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


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


# the size of every block of each category, 0 for any size
_BLOCK_SIZE = {"noncrossing": 0, "pairings": 2, "singletons": 1, "all": 0}


def enumerate_partitions(k: int, l: int,
                         mode: str = "noncrossing") -> tuple[Partition, ...]:
    """All partitions of a category with k upper and l lower points.

    ``mode`` names the category: "noncrossing", "pairings" (noncrossing, every
    block of two points), "singletons" (every block of one point) or "all"
    (every set partition).  One recursion lists every category, in the order
    of the sorted blocks ``p.blocks``: the smallest free point opens the
    block with the next label, which is closed as it stands and then
    extended by each later free point in increasing order.  Outside "all" a
    block takes only points of one region, the points that lie in the same
    arc of every closed block on the boundary circle, so no filtering is
    needed.  Pairings stop where a region would be left an odd count of
    free points, as no pairing completes it.  Each result is built
    unchecked from its labels.  The ground-point cap (default 14) guards
    against runaway enumeration.
    """
    if k < 0 or l < 0:
        raise ValueError("arities must be nonnegative")
    n = k + l
    check_enum_cap(n)
    if mode not in _BLOCK_SIZE:
        raise ValueError(f"unknown mode {mode!r}")
    size = _BLOCK_SIZE[mode]
    if size == 2 and n % 2:
        return ()
    # points are counted from 0 here; the place of each on the circle cut
    # open at the left edge, the inverse of _circle
    position = [*range(k), *range(n - 1, k - 1, -1)]
    labels = [-1] * n
    out: list[Partition] = []

    def open_block(label: int, free: dict[int, int]) -> None:
        """Open the block of the smallest free point, or emit the labels.

        ``free`` maps each free point, in increasing order, to its region.
        """
        if not free:
            out.append(_from_labels(k, l, tuple(labels)))
            return
        p = next(iter(free))
        labels[p] = label
        grow(label, [p], free)
        labels[p] = -1

    def grow(label: int, block: list[int], free: dict[int, int]) -> None:
        r = free[block[0]]
        if not size or len(block) == size:
            if mode == "all":
                rest = {q: g for q, g in free.items() if labels[q] == -1}
            else:
                # the closed block cuts its region into arcs, each named by
                # the position of the block point that starts it
                cut = sorted(position[q] for q in block)
                rest = {q: cut[bisect(cut, position[q]) - 1] if g == r else g
                        for q, g in free.items() if labels[q] == -1}
                if size == 2 and [*rest.values()].count(cut[0]) % 2:
                    return
            open_block(label + 1, rest)
        if len(block) != size:
            for q, g in free.items():
                if q > block[-1] and g == r:
                    labels[q] = label
                    grow(label, block + [q], free)
                    labels[q] = -1

    open_block(0, dict.fromkeys(range(n), 0))
    return tuple(out)
