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

Everything is a :class:`SparseMap`: a dict from (out_index, in_index) pairs to
nonzero Fractions.  A configurable cap (default 10**7) bounds the number of
stored entries; exceeding it raises CapExceededError rather than thrashing.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product

from .config import check_entry_cap
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
        i = tuple(values[s] for s in upper_sel)
        j = tuple(values[s] for s in lower_sel)
        entries[(j, i)] = 1
    return SparseMap(dim, k, l, entries, cap)


# ---------------------------------------------------------------------------
# category relation verification


def _nc_shapes_up_to(max_points: int) -> list[Partition]:
    out = []
    for total in range(max_points + 1):
        for k in range(total + 1):
            out.extend(enumerate_partitions(k, total - k, "noncrossing"))
    return out


def verify_category_relations(dim: int, max_points: int = 6) -> VerificationReport:
    """Exhaustively check the three structure relations against brute force.

    Pair ranges: for the tensor relation, all noncrossing pairs whose
    concatenation has at most max_points points; for composition, all
    composable pairs whose stacked picture (upper row of the top factor,
    glued middle row, lower row of the bottom factor) has at most max_points
    points, so the dense work is bounded by N**max_points; the involution
    relation runs over single diagrams up to max_points.
    """
    if max_points < 0:
        raise ValueError(f"max_points must be nonnegative, got {max_points}")
    rep = VerificationReport(f"category relations at N={dim}")
    diagrams = _nc_shapes_up_to(max_points)
    cache: dict[Partition, SparseMap] = {}

    def tp(p: Partition) -> SparseMap:
        m = cache.get(p)
        if m is None:
            m = cache[p] = build_tp(p, dim)
        return m

    failures = 0
    checked = 0
    for p in diagrams:
        for q in diagrams:
            if p.points + q.points > max_points:
                continue
            checked += 1
            lhs = tp(p.tensor(q))
            rhs = tp(p).tensor(tp(q))
            if lhs != rhs:
                failures += 1
    rep.add(f"T_(p tensor q) = T_p tensor T_q on {checked} pairs",
            failures == 0, f"{failures} failures")

    failures = 0
    checked = 0
    by_shape: dict[tuple[int, int], list[Partition]] = {}
    for d in diagrams:
        by_shape.setdefault((d.upper, d.lower), []).append(d)
    for (k, m), tops in by_shape.items():
        for (m2, l), bottoms in by_shape.items():
            if m2 != m or k + m + l > max_points:
                continue
            for top in tops:
                t_top = tp(top)
                for bottom in bottoms:
                    checked += 1
                    res = bottom.compose(top)
                    lhs = tp(res.partition).scale(dim ** res.closed_blocks)
                    rhs = tp(bottom).compose(t_top)
                    if lhs != rhs:
                        failures += 1
    rep.add("T_(p compose q) * N^closed = T_p . T_q "
            f"on {checked} stacked pairs", failures == 0, f"{failures} failures")

    failures = 0
    for p in diagrams:
        if tp(p.involute()) != tp(p).adjoint():
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
