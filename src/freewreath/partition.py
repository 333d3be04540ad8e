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

* Blocks are stored sorted ascending, and the tuple of blocks is ordered by
  smallest element ("the block containing the smallest uncovered point comes
  first"), so equal partitions compare and hash equal.

Operations: ``tensor`` is horizontal concatenation, ``compose`` is vertical
concatenation (lower row of the top factor glued to the upper row of the
bottom factor) together with the count of closed blocks it produces,
``involute`` turns the picture upside down.  All three run on block labels,
the block index of each point: tensor and involute reorder and renumber
them, and compose joins the top's lower row to the bottom's upper row by the
one union-find, ``_merge``, over block ids.  ``join`` is the common coarsening
in the full partition lattice of the ground set, ``refines`` the comparison,
and ``kernel`` the level-set partition of an index tuple.

Partition literals render as ``{1,2|3} (k=0,l=3)`` and the parser accepts the
same grammar with arbitrary whitespace.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cache
from itertools import chain, combinations
from typing import Iterable, Iterator, Literal, Sequence

from .config import check_enum_cap

Block = tuple[int, ...]
# the block index of each point 1..k+l; blocks are ordered by their smallest
# point, so equal partitions have equal labels
Labels = tuple[int, ...]


def _canonical_blocks(blocks: Iterable[Iterable[int]]) -> tuple[Block, ...]:
    out = []
    for b in blocks:
        t = tuple(sorted(b))
        if not t:
            raise ValueError("empty block")
        out.append(t)
    return tuple(sorted(out, key=lambda b: b[0]))


def _block_index(blocks: Iterable[Block]) -> dict[int, int]:
    """Each point mapped to the position of its block."""
    return {pt: i for i, b in enumerate(blocks) for pt in b}


def _merge(n: int, chains: Iterable[Sequence[int]],
           boundary: Iterable[int]) -> tuple[Labels, int]:
    """Union-find on the points 1..n that merges the points of each chain.

    Returns the block labels of the points of ``boundary`` in the order
    listed, the classes numbered 0, 1, ... by first appearance, and the
    number of classes that miss ``boundary``.
    """
    parent = list(range(n + 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    classes = n
    for pts in chains:
        root = find(pts[0])
        for pt in pts[1:]:
            other = find(pt)
            if other != root:
                parent[other] = root
                classes -= 1
    ids: dict[int, int] = {}
    labels = tuple([ids.setdefault(find(pt), len(ids)) for pt in boundary])
    return labels, classes - len(ids)


def _join_counts(parts: Sequence[Partition],
                 rows: Sequence[int] | None = None) -> tuple[bytes, ...]:
    """Rows of b(x v y), the block count of the join, over parts x and y.

    With ``rows``, only the rows of the parts at those positions.  Every Gram
    matrix of the package is a power of these counts.
    """
    xs = parts if rows is None else [parts[r] for r in rows]
    return tuple(bytes(_merge(x.points, x.blocks + y.blocks, ())[1]
                       for y in parts)
                 for x in xs)


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

    The blocks of both are the points of the union-find: top's block b is
    b + 1 and bottom's block c is c + 1 + (top's block count), and the middle
    row joins the two.  Returns the labels of the result and the number of
    closed blocks.
    """
    shift = max(top, default=-1) + 1
    return _merge(
        shift + max(bottom, default=-1) + 1,
        [(t + 1, shift + c + 1) for t, c in zip(top[k:], bottom[:m])],
        [t + 1 for t in top[:k]] + [shift + c + 1 for c in bottom[m:]])


def _involute_labels(k: int, a: Labels) -> Labels:
    """a turned upside down, for a with k upper points."""
    return _canonical_labels(a[k:] + a[:k])


def _from_labels(k: int, l: int, labels: Labels) -> Partition:
    blocks: list[list[int]] = [[] for _ in range(max(labels, default=-1) + 1)]
    for pt, b in enumerate(labels, 1):
        blocks[b].append(pt)
    return Partition(k, l, blocks)


@dataclass(frozen=True)
class Partition:
    upper: int
    lower: int
    blocks: tuple[Block, ...]

    def __post_init__(self):
        object.__setattr__(self, "blocks", _canonical_blocks(self.blocks))
        if self.upper < 0 or self.lower < 0:
            raise ValueError("arities must be nonnegative")
        n = self.upper + self.lower
        seen: list[int] = []
        for b in self.blocks:
            seen.extend(b)
        if sorted(seen) != list(range(1, n + 1)):
            raise ValueError(
                f"blocks {self.blocks} do not partition 1..{n} "
                f"(upper={self.upper}, lower={self.lower})"
            )

    @property
    def points(self) -> int:
        return self.upper + self.lower

    def block_count(self) -> int:
        return len(self.blocks)

    @property
    def labels(self) -> Labels:
        """The block index of each point 1..k+l."""
        labels = [0] * self.points
        for b, block in enumerate(self.blocks):
            for pt in block:
                labels[pt - 1] = b
        return tuple(labels)

    # -- circular order ----------------------------------------------------

    def traversal(self) -> tuple[int, ...]:
        """Ground points in boundary-circle order (top L-to-R, bottom R-to-L)."""
        ups = tuple(range(1, self.upper + 1))
        lows = tuple(range(self.points, self.upper, -1))
        return ups + lows

    def is_noncrossing(self) -> bool:
        block_id = _block_index(self.blocks)
        remaining = [len(b) for b in self.blocks]
        stack: list[int] = []
        for pt in self.traversal():
            i = block_id[pt]
            if remaining[i] == len(self.blocks[i]):
                stack.append(i)
            elif not stack or stack[-1] != i:
                return False
            remaining[i] -= 1
            if remaining[i] == 0:
                stack.pop()
        return True

    # -- category operations ----------------------------------------------

    def tensor(self, other: "Partition") -> "Partition":
        """Horizontal concatenation: self on the left, other on the right."""
        return _from_labels(self.upper + other.upper, self.lower + other.lower,
                            _tensor_labels(self.upper, self.labels,
                                           other.upper, other.labels))

    def compose(self, top: "Partition") -> "ComposeResult":
        """Vertical concatenation with ``top`` above ``self``.

        Requires lower(top) == upper(self); the middle rows are identified
        point by point.  Returns the induced partition on upper(top) and
        lower(self) plus the number of closed blocks (components living
        entirely in the middle), each of which contributes one factor of N on
        the linear-map side.
        """
        if top.lower != self.upper:
            raise ValueError(
                f"cannot compose: top has {top.lower} lower points, "
                f"bottom has {self.upper} upper points"
            )
        labels, closed = _compose_labels(top.upper, self.upper, top.labels,
                                         self.labels)
        return ComposeResult(_from_labels(top.upper, self.lower, labels), closed)

    def involute(self) -> "Partition":
        """Upside-down reflection: upper and lower rows trade places."""
        return _from_labels(self.lower, self.upper,
                            _involute_labels(self.upper, self.labels))

    # -- lattice operations ------------------------------------------------

    def join(self, other: "Partition") -> "Partition":
        """Common coarsening in the partition lattice of the ground set."""
        if (self.upper, self.lower) != (other.upper, other.lower):
            raise ValueError("join requires identical point sets")
        labels, _ = _merge(self.points, self.blocks + other.blocks,
                           range(1, self.points + 1))
        return _from_labels(self.upper, self.lower, labels)

    def refines(self, other: "Partition") -> bool:
        """True when every block of self lies inside a block of other."""
        if (self.upper, self.lower) != (other.upper, other.lower):
            raise ValueError("refinement requires identical point sets")
        owner = _block_index(other.blocks)
        return all(len({owner[pt] for pt in b}) == 1 for b in self.blocks)

    # -- rendering ---------------------------------------------------------

    def render(self) -> str:
        inner = "|".join(",".join(str(p) for p in b) for b in self.blocks)
        return f"{{{inner}}} (k={self.upper},l={self.lower})"

    __str__ = render

    def __repr__(self):
        return f"Partition({self.render()})"


@dataclass(frozen=True)
class ComposeResult:
    partition: Partition
    closed_blocks: int


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
    """Level-set partition of an index tuple, as a partition of (0, r)."""
    groups: dict = {}
    for pos, v in enumerate(values, start=1):
        groups.setdefault(v, []).append(pos)
    return Partition(0, len(values), [tuple(g) for g in groups.values()])


# ---------------------------------------------------------------------------
# enumeration


@cache
def _nc_shapes(n: int) -> tuple[tuple[Block, ...], ...]:
    """All noncrossing partitions of the linearly ordered points 0..n-1."""
    if n == 0:
        return ((),)
    out: list[tuple[Block, ...]] = []
    rest = range(1, n)
    for t in range(0, n):
        for chosen in combinations(rest, t):
            first_block = (0,) + chosen
            bounds = list(first_block) + [n]
            gaps = [(bounds[i] + 1, bounds[i + 1]) for i in range(len(first_block))]
            partial: list[tuple[Block, ...]] = [(first_block,)]
            for lo, hi in gaps:
                sub = _nc_shapes(hi - lo)
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


def _position_to_point(k: int, l: int):
    def conv(t: int) -> int:
        return t + 1 if t < k else 2 * k + l - t

    return conv


Mode = Literal["noncrossing", "all"]


def enumerate_partitions(
    k: int, l: int, mode: Mode = "noncrossing"
) -> tuple[Partition, ...]:
    """All partitions with k upper and l lower points, canonically ordered.

    ``mode="noncrossing"`` generates the noncrossing ones directly in the
    boundary-circle order (no filtering); ``mode="all"`` generates every set
    partition.  The result is sorted by the canonical block-tuple key.  The
    ground-point cap (default 14) guards against runaway enumeration.
    """
    n = k + l
    check_enum_cap(n)
    conv = _position_to_point(k, l)
    if mode == "noncrossing":
        shapes: Iterable[tuple[Block, ...]] = _nc_shapes(n)
    elif mode == "all":
        shapes = _all_shapes(n)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    parts = [
        Partition(k, l, [tuple(conv(t) for t in blk) for blk in shape])
        for shape in shapes
    ]
    parts.sort(key=lambda p: p.blocks)
    return tuple(parts)
