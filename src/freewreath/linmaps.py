"""Partition-indexed linear maps on tensor powers of C^N, exactly.

To a partition p with k upper and l lower points and an integer N >= 1 is
attached the map T_p : (C^N)^{tensor k} -> (C^N)^{tensor l} whose matrix entry
at (lower multi-index j, upper multi-index i) is 1 when the combined index
assignment is constant on every block of p and 0 otherwise.  These maps
satisfy

    T_{p tensor q} = T_p tensor T_q
    T_{p compose q} = N^{-closed_blocks(p,q)} T_p T_q
    T_{p involuted} = (T_p)*

and the nested pairing solves the conjugate equations.  The family
{T_p : p noncrossing} is linearly independent iff N >= 4; its Gram matrix is
<T_p, T_q> = Tr(T_p* T_q) = N^{blocks(join(p,q))}, computed here both through
the join formula and by brute force, counting the index assignments where
both maps are nonzero (the two must agree; the brute force never takes a
join, so it is an independent oracle).

A map is a :class:`SparseMap`: a dict from (out_index, in_index) pairs to
nonzero Fractions, with tensor, compose and adjoint; the conjugate equations
and the Gram brute force use it.  The category check turns each T_p from
:func:`build_tp` into 0/1 bit rows and columns, one Python int each, and
compares the three relations through shifts, ANDs and popcounts; its
partition side (the pairs and their products) is computed once per point
bound.  A configurable cap (default 10**7) bounds the number of stored
entries; exceeding it raises CapExceededError rather than thrashing.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from itertools import product

from .config import check_entry_cap, check_enum_cap
from .exactmat import bareiss_det_rank, kernel_vector
from .partition import (Partition, _block_index, enumerate_partitions,
                        nested_pairing)
from .report import VerificationReport

Index = tuple[int, ...]


class SparseMap:
    """Exact sparse linear map (C^N)^{in_arity} -> (C^N)^{out_arity}.

    Entries are keyed (out_index, in_index) by tuples over 1..N; only nonzero
    values are stored.
    """

    def __init__(self, dim: int, in_arity: int, out_arity: int,
                 entries: dict | None = None,
                 cap: int | None = None):
        if dim < 1:
            raise ValueError(f"dimension must be positive, got {dim}")
        self.dim = dim
        self.in_arity = in_arity
        self.out_arity = out_arity
        # values are exact ints or Fractions; zeros are dropped
        self.entries: dict[tuple[Index, Index], Fraction | int] = \
            {key: val for key, val in entries.items() if val} if entries else {}
        check_entry_cap(len(self.entries), cap)

    def __eq__(self, other):
        if not isinstance(other, SparseMap):
            return NotImplemented
        return (self.dim, self.in_arity, self.out_arity) == \
            (other.dim, other.in_arity, other.out_arity) and \
            self.entries == other.entries

    def __repr__(self):
        return (f"SparseMap(N={self.dim}, in={self.in_arity}, "
                f"out={self.out_arity}, nnz={len(self.entries)})")

    def scale(self, c) -> "SparseMap":
        if not isinstance(c, (int, Fraction)):
            c = Fraction(c)
        if c == 0:
            return SparseMap(self.dim, self.in_arity, self.out_arity, {})
        return SparseMap(self.dim, self.in_arity, self.out_arity,
                         {k: v * c for k, v in self.entries.items()})

    def tensor(self, other: "SparseMap") -> "SparseMap":
        if self.dim != other.dim:
            raise ValueError("tensor factors must share the dimension N")
        check_entry_cap(len(self.entries) * len(other.entries))
        entries = {}
        for (o1, i1), v1 in self.entries.items():
            for (o2, i2), v2 in other.entries.items():
                entries[(o1 + o2, i1 + i2)] = v1 * v2
        return SparseMap(self.dim, self.in_arity + other.in_arity,
                         self.out_arity + other.out_arity, entries)

    def compose(self, other: "SparseMap") -> "SparseMap":
        """self after other (matrix product self . other)."""
        if self.dim != other.dim:
            raise ValueError("composition requires equal dimension N")
        if self.in_arity != other.out_arity:
            raise ValueError(
                f"arity mismatch: composing in_arity {self.in_arity} "
                f"with out_arity {other.out_arity}")
        by_mid: dict[Index, list] = {}
        for (o, mid), v in self.entries.items():
            by_mid.setdefault(mid, []).append((o, v))
        acc: dict[tuple[Index, Index], Fraction | int] = {}
        get = by_mid.get
        for (mid, i), v2 in other.entries.items():
            hits = get(mid)
            if not hits:
                continue
            for o, v1 in hits:
                key = (o, i)
                prev = acc.get(key)
                acc[key] = v1 * v2 if prev is None else prev + v1 * v2
        return SparseMap(self.dim, other.in_arity, self.out_arity, acc)

    def adjoint(self) -> "SparseMap":
        return SparseMap(self.dim, self.out_arity, self.in_arity,
                         {(i, o): v for (o, i), v in self.entries.items()})

    def trace(self) -> Fraction:
        if self.in_arity != self.out_arity:
            raise ValueError("trace requires a square map")
        return Fraction(sum(v for (o, i), v in self.entries.items() if o == i))

    def inner(self, other: "SparseMap") -> Fraction:
        """Hilbert-Schmidt inner product Tr(self* other), entrywise."""
        if (self.dim, self.in_arity, self.out_arity) != \
                (other.dim, other.in_arity, other.out_arity):
            raise ValueError("inner product requires equal shapes")
        small, big = self.entries, other.entries
        if len(big) < len(small):
            small, big = big, small
        return Fraction(sum(v * big[k] for k, v in small.items() if k in big))


def identity_map(k: int, dim: int) -> SparseMap:
    entries = {(i, i): 1 for i in product(range(1, dim + 1), repeat=k)}
    return SparseMap(dim, k, k, entries)


def build_tp(p: Partition, dim: int, cap: int | None = None) -> SparseMap:
    """The map T_p: one entry per assignment of a value in 1..N to each block."""
    check_entry_cap(dim ** p.block_count(), cap)
    k, l = p.upper, p.lower
    # block index feeding each boundary point, split into the two rows
    owner = _block_index(p.blocks)
    upper_sel = [owner[pt] for pt in range(1, k + 1)]
    lower_sel = [owner[pt] for pt in range(k + 1, k + l + 1)]
    entries = {}
    for values in product(range(1, dim + 1), repeat=p.block_count()):
        i = tuple(map(values.__getitem__, upper_sel))
        j = tuple(map(values.__getitem__, lower_sel))
        entries[(j, i)] = 1
    return SparseMap(dim, k, l, entries, cap)


# ---------------------------------------------------------------------------
# category relation verification


@cache
def _category_pairs(max_points: int):
    """The partition side of the category check; it does not depend on N.

    Returns the noncrossing diagrams on at most max_points points and, as
    indices into that tuple: (p, q, p tensor q) for every pair with at most
    max_points points in all; (top, bottom, result, closed blocks) for every
    composable pair whose stacked picture has at most max_points points; and
    the index of p* for each p.
    """
    diagrams = tuple(d for total in range(max_points + 1)
                     for k in range(total + 1)
                     for d in enumerate_partitions(k, total - k, "noncrossing"))
    index = {d: n for n, d in enumerate(diagrams)}
    by_points: dict[int, list[int]] = {}
    by_shape: dict[tuple[int, int], list[int]] = {}
    for n, d in enumerate(diagrams):
        by_points.setdefault(d.points, []).append(n)
        by_shape.setdefault((d.upper, d.lower), []).append(n)
    tensors = [(a, b, index[p.tensor(diagrams[b])])
               for a, p in enumerate(diagrams)
               for total in range(max_points - p.points + 1)
               for b in by_points[total]]
    composes = []
    for (k, m), tops in by_shape.items():
        for l in range(max_points - k - m + 1):
            for t in tops:
                for b in by_shape[m, l]:
                    res = diagrams[b].compose(diagrams[t])
                    composes.append((t, b, index[res.partition],
                                     res.closed_blocks))
    involutes = [index[d.involute()] for d in diagrams]
    return diagrams, tensors, composes, involutes


def _bit_rows(p: Partition, dim: int, position: dict[Index, int]):
    """T_p from :func:`build_tp` as one bitmask per row and one per column.

    Row j has bit i set when T_p[j, i] = 1, column i has bit j set; a
    multi-index is read as a base-N number, first letter most significant.
    Returns None when a stored value is not 1.
    """
    rows = [0] * dim ** p.lower
    cols = [0] * dim ** p.upper
    for (j, i), v in build_tp(p, dim).entries.items():
        if v != 1:
            return None
        j, i = position[j], position[i]
        rows[j] |= 1 << i
        cols[i] |= 1 << j
    return rows, cols


def _spread(x: int, stride: int) -> int:
    """Move bit b of x to bit b * stride."""
    return int(("0" * (stride - 1)).join(format(x, "b")), 2)


def _product_is(rows: list[int], cols: list[int], want: list[int],
                scale: int) -> bool:
    """Whether rows times cols is scale times the 0/1 matrix with rows want.

    Entry (o, i) of the product is the popcount of rows[o] & cols[i]; every
    entry is compared, zeros included.
    """
    for row, want_row in zip(rows, want):
        if not row:
            if want_row:
                return False
            continue
        expected = [0] * len(cols)
        while want_row:
            low = want_row & -want_row
            expected[low.bit_length() - 1] = scale
            want_row ^= low
        if list(map(int.bit_count, map(row.__and__, cols))) != expected:
            return False
    return True


def verify_category_relations(dim: int, max_points: int = 6) -> VerificationReport:
    """Exhaustively check the three structure relations against brute force.

    Pair ranges: for the tensor relation, all noncrossing pairs whose
    concatenation has at most max_points points; for composition, all
    composable pairs whose stacked picture (upper row of the top factor,
    glued middle row, lower row of the bottom factor) has at most max_points
    points, so the dense work is bounded by N**max_points; the involution
    relation runs over single diagrams up to max_points.

    Each T_p comes from :func:`build_tp` and is compared entry by entry,
    zeros included, as 0/1 bit rows: the Kronecker row of T_p tensor T_q at
    (j1, j2) is the row of T_p at j1 with bit b moved to b * N^upper(q),
    times the row of T_q at j2; the (o, i) entry of T_bottom T_top is the
    popcount of row o of T_bottom and column i of T_top.
    """
    if max_points < 0:
        raise ValueError(f"max_points must be nonnegative, got {max_points}")
    if dim < 1:
        raise ValueError(f"dimension must be positive, got {dim}")
    # refuse before any work: the discrete partition on max_points points is
    # among the diagrams, and its map has N**max_points entries
    check_enum_cap(max_points)
    check_entry_cap(dim ** max_points)
    rep = VerificationReport(f"category relations at N={dim}")
    diagrams, tensors, composes, involutes = _category_pairs(max_points)
    position = {index: n for r in range(max_points + 1)
                for n, index in enumerate(product(range(1, dim + 1), repeat=r))}
    maps = [_bit_rows(d, dim, position) for d in diagrams]

    failures = 0
    spread: dict[tuple[int, int], list[int]] = {}
    for a, b, ab in tensors:
        if None in (maps[a], maps[b], maps[ab]):
            failures += 1
            continue
        stride = dim ** diagrams[b].upper
        left = spread.get((a, stride))
        if left is None:
            rows = maps[a][0]
            # rows of T_p repeat, so each distinct one is spread once
            moved = {r: _spread(r, stride) for r in set(rows)}
            left = spread[a, stride] = list(map(moved.__getitem__, rows))
        kron = [x * y for x in left for y in maps[b][0]]
        if kron != maps[ab][0]:
            failures += 1
    rep.add(f"T_(p tensor q) = T_p tensor T_q on {len(tensors)} pairs",
            failures == 0, f"{failures} failures")

    failures = 0
    for top, bottom, res, closed in composes:
        if None in (maps[top], maps[bottom], maps[res]) or not _product_is(
                maps[bottom][0], maps[top][1], maps[res][0], dim ** closed):
            failures += 1
    rep.add("T_(p compose q) * N^closed = T_p . T_q "
            f"on {len(composes)} stacked pairs", failures == 0,
            f"{failures} failures")

    failures = 0
    for p, star in enumerate(involutes):
        if None in (maps[p], maps[star]) or maps[star][0] != maps[p][1]:
            failures += 1
    rep.add(f"T_(p*) = (T_p)* on {len(diagrams)} diagrams",
            failures == 0, f"{failures} failures")
    return rep


def verify_conjugate_equations(k: int, dim: int) -> VerificationReport:
    """Check (T_r* tensor id) . (id tensor T_r) = id with r the nested pairing."""
    rep = VerificationReport(f"conjugate equations k={k}, N={dim}")
    r = nested_pairing(k)
    t_r = build_tp(r, dim)
    ident = identity_map(k, dim)
    left = t_r.adjoint().tensor(ident)
    right = ident.tensor(t_r)
    rep.add("(T_r* tensor id) . (id tensor T_r) = id",
            left.compose(right) == ident)
    rep.add("(id tensor T_r*) . (T_r tensor id) = id",
            ident.tensor(t_r.adjoint()).compose(t_r.tensor(ident)) == ident)
    return rep


# ---------------------------------------------------------------------------
# Gram matrices


@dataclass
class GramMatrix:
    partitions: tuple[Partition, ...]
    dim: int
    entries: tuple[tuple[int, ...], ...]

    def size(self) -> int:
        return len(self.partitions)

    @cached_property
    def _rank_det(self) -> tuple[int, int]:
        return bareiss_det_rank(self.entries)

    def rank(self) -> int:
        return self._rank_det[0]

    def det(self) -> int:
        return self._rank_det[1]

    def is_singular(self) -> bool:
        return self.det() == 0

    def kernel_vector(self):
        """A nonzero rational dependence among the T_p, or None."""
        return kernel_vector(self.entries)


def gram_entry_brute(p: Partition, q: Partition, dim: int) -> int:
    """Tr(T_p* T_q) as the number of nonzero entries T_p and T_q share.

    Both maps come from :func:`build_tp`, which enumerates the index
    assignments constant on each partition's blocks; no join is taken, so
    the count is an independent check of the join formula.
    """
    if (p.upper, p.lower) != (q.upper, q.lower):
        raise ValueError("Gram entries need partitions on the same point set")
    return int(build_tp(p, dim).inner(build_tp(q, dim)))


def gram_nc(k: int, l: int, dim: int, method: str = "join_formula",
            partitions: tuple[Partition, ...] | None = None) -> GramMatrix:
    """Gram matrix of {T_p} over the noncrossing partitions of (k, l).

    method="join_formula" computes N^{blocks(join(p,q))}; method="brute_force"
    counts the entries the maps share, as gram_entry_brute does, building
    each T_p once.  Both are exact and must agree; verify_gram_methods
    compares them.
    """
    if partitions is None:
        partitions = enumerate_partitions(k, l, "noncrossing")
    if method == "join_formula":
        rows = tuple(tuple(dim ** p.join(q).block_count() for q in partitions)
                     for p in partitions)
    elif method == "brute_force":
        maps = [build_tp(p, dim) for p in partitions]
        rows = tuple(tuple(int(a.inner(b)) for b in maps) for a in maps)
    else:
        raise ValueError(f"unknown Gram method {method!r}")
    return GramMatrix(tuple(partitions), dim, rows)


def verify_gram_methods(k: int, l: int, dim: int) -> VerificationReport:
    rep = VerificationReport(f"Gram methods NC({k},{l}) at N={dim}")
    a = gram_nc(k, l, dim, "join_formula")
    b = gram_nc(k, l, dim, "brute_force")
    rep.add(f"join formula equals brute force on {a.size()}x{a.size()} entries",
            a.entries == b.entries)
    return rep


# ---------------------------------------------------------------------------
# group-dual decorated maps


def group_dual_block_admissible(group, upper_dec, lower_dec) -> bool:
    """Ordered product of upper decorations equals that of lower decorations."""
    top = group.identity
    for g in upper_dec:
        top = group.mult(top, g)
    bot = group.identity
    for g in lower_dec:
        bot = group.mult(bot, g)
    return top == bot


def build_group_dual_tp(p: Partition, dim: int, group,
                        upper_dec, lower_dec) -> SparseMap | None:
    """T_p for the dual of a finite group, with group-element decorations.

    upper_dec/lower_dec attach one group element to each upper/lower point.
    The decorated map exists iff in every block the ordered product of the
    upper decorations equals the ordered product of the lower ones; returns
    None otherwise, and plain T_p on the nose when it exists (the decoration
    only gates existence for a group dual, it does not change the matrix).
    """
    if len(upper_dec) != p.upper or len(lower_dec) != p.lower:
        raise ValueError("decoration lengths must match the point counts")
    for b in p.blocks:
        ups = [upper_dec[pt - 1] for pt in b if pt <= p.upper]
        lows = [lower_dec[pt - p.upper - 1] for pt in b if pt > p.upper]
        if not group_dual_block_admissible(group, ups, lows):
            return None
    return build_tp(p, dim)
