"""Weingarten calculus for free wreath products of quantum permutation groups.

For the free wreath product of an inner (quantum) permutation group on s
points by the quantum permutation group on N points, the fixed vectors of the
k-th tensor power of the basic representation are indexed by pairs (p, a):
an outer noncrossing partition p of k points and an inner partition a
refining p, drawn from the inner group's category:

* "noncrossing": inner quantum permutations, a noncrossing;
* "all": inner classical permutations, a arbitrary;
* "singletons": trivial inner group (s = 1), a the singleton partition.

The Gram matrix of these vectors is N^{b(p v q)} * s^{b(a v b)} with b the
block count and v the join; its inverse is the Weingarten matrix, which turns
Haar-state integration of matrix entries into a finite double sum over
compatible index pairs.

As N grows with s fixed, the Weingarten matrix concentrates: the entry at
((p, a), (q, b)) approaches delta_{p,q} N^{-b(p)} times the product over the
blocks of p of the *inner* Weingarten matrices at the block sizes.  The
certification routine checks this on a ladder of perfect squares, where the
natural scale sqrt(N)^{b(p)+b(q)} is an exact integer, demanding the scaled
error at least halve with each quadrupling of N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Sequence

from .config import check_entry_cap
from .exactmat import bareiss_inverse
from .partition import (Partition, _join_counts, discrete_partition,
                        enumerate_partitions, kernel)
from .report import VerificationReport

CATEGORIES = ("noncrossing", "all", "singletons")

# the values of N the certification compares, each four times the last
LADDER = (16, 64, 256)

Index = tuple  # (outer Partition, inner Partition)


def inner_partitions(k: int, category: str) -> tuple[Partition, ...]:
    if category == "noncrossing":
        return enumerate_partitions(0, k, mode="noncrossing")
    if category == "all":
        return enumerate_partitions(0, k, mode="all")
    if category == "singletons":
        return (discrete_partition(0, k),)
    raise ValueError(f"unknown category {category!r}, expected one of {CATEGORIES}")


def _category_in_effect(s: int, category: str | None) -> str:
    """The inner category in effect.

    s = 1 forces "singletons"; otherwise None means "noncrossing".
    """
    if s == 1:
        return "singletons"
    return "noncrossing" if category is None else category


@cache
def wg_indices(k: int, category: str = "noncrossing") -> tuple[Index, ...]:
    """All pairs (outer noncrossing p, inner a refining p)."""
    inners = inner_partitions(k, category)
    out = []
    for p in enumerate_partitions(0, k, mode="noncrossing"):
        for a in inners:
            if a.refines(p):
                out.append((p, a))
    return tuple(out)


@cache
def _join_block_counts(k: int, category: str) -> tuple[tuple[bytes, ...], ...]:
    """Rows of b(p v q) and of b(a v b) over wg_indices, one bytes per row."""
    return tuple(map(_join_counts, zip(*wg_indices(k, category))))


def wg_gram(k: int, n: int, s: int,
            category: str = "noncrossing") -> list[list[int]]:
    outer, inner = _join_block_counts(k, category)
    return [[n ** b * s ** c for b, c in zip(orow, irow)]
            for orow, irow in zip(outer, inner)]


@dataclass(frozen=True)
class WeingartenTable:
    k: int
    n: int
    s: int
    category: str
    indices: tuple
    gram: tuple
    winv: tuple


def wg_table(k: int, n: int, s: int = 1,
             category: str | None = None) -> WeingartenTable:
    """Build the Gram matrix and its exact inverse.

    With s = 1 the category degenerates to "singletons" automatically; the
    default otherwise is "noncrossing".  Raises ZeroDivisionError when the
    Gram matrix is singular (the parameters sit outside the free range).
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if n < 1 or s < 1:
        raise ValueError("N and s must be positive")
    # at least Catalan(k) indices, so at least Catalan(k)**2 Gram entries
    check_entry_cap((math.comb(2 * k, k) // (k + 1)) ** 2)
    category = _category_in_effect(s, category)
    indices = wg_indices(k, category)
    gram = wg_gram(k, n, s, category)
    winv = bareiss_inverse(gram)
    return WeingartenTable(k, n, s, category, indices,
                           tuple(tuple(row) for row in gram), winv)


def haar_state(table: WeingartenTable, inner_row: Sequence[int],
               inner_col: Sequence[int], outer_row: Sequence[int],
               outer_col: Sequence[int]) -> Fraction:
    """Haar state of a product of k matrix entries of the basic unitary.

    The basic representation has entries indexed by (inner, outer) pairs; the
    arguments give, in tensor order, the inner and outer indices of the rows
    and columns, each a k-tuple (inner in 1..s, outer in 1..N).  The value is
    the double sum of Weingarten entries over index pairs whose outer
    partitions refine the outer kernels, inner ones the inner kernels.
    """
    k = table.k
    for name, tup, hi in (("inner_row", inner_row, table.s),
                          ("inner_col", inner_col, table.s),
                          ("outer_row", outer_row, table.n),
                          ("outer_col", outer_col, table.n)):
        if len(tup) != k:
            raise ValueError(f"{name} must have length {k}")
        if any(not (1 <= x <= hi) for x in tup):
            raise ValueError(f"{name} entries must lie in 1..{hi}")
    rows = _support(k, table.category, _pattern(outer_row), _pattern(inner_row))
    cols = _support(k, table.category, _pattern(outer_col), _pattern(inner_col))
    total = Fraction(0)
    for t in rows:
        wrow = table.winv[t]
        for u in cols:
            total += wrow[u]
    return total


def _pattern(values: Sequence[int]) -> tuple[int, ...]:
    """An index tuple relabelled by first occurrence: its kernel as a tuple."""
    first: dict[int, int] = {}
    return tuple(first.setdefault(v, len(first)) for v in values)


@cache
def _support(k: int, category: str, outer: tuple[int, ...],
             inner: tuple[int, ...]) -> tuple[int, ...]:
    """Positions in wg_indices(k, category) of the (p, a) with p refining the
    outer kernel and a the inner one; the same for every N and s."""
    ker_outer, ker_inner = kernel(outer), kernel(inner)
    return tuple(t for t, (p, a) in enumerate(wg_indices(k, category))
                 if p.refines(ker_outer) and a.refines(ker_inner))


# ---------------------------------------------------------------------------
# asymptotics


@cache
def _inner_weingarten(m: int, s: int, category: str):
    """Partitions and inverse Gram of the inner group alone at order m."""
    parts = inner_partitions(m, category)
    gram = [[s ** c for c in row] for row in _join_counts(parts)]
    return parts, bareiss_inverse(gram)


def _restrict(a: Partition, points: Sequence[int]) -> Partition:
    """Restriction of a partition to a subset of its points, relabeled 1..m."""
    pos = {pt: i + 1 for i, pt in enumerate(sorted(points))}
    blocks = []
    for block in a.blocks:
        inside = [pos[pt] for pt in block if pt in pos]
        if inside:
            if len(inside) != len(block):
                raise ValueError("partition does not refine the block structure")
            blocks.append(tuple(inside))
    return Partition(0, len(points), tuple(blocks))


def wg_leading_coeff(idx1: Index, idx2: Index, s: int,
                     category: str) -> Fraction:
    """Coefficient c of the large-N law W -> c * N^{-b(p)} at this entry.

    Zero unless the outer partitions agree; otherwise the product over the
    outer blocks of the inner Weingarten entries at the restricted inner
    partitions.
    """
    p, a = idx1
    q, b = idx2
    if p != q:
        return Fraction(0)
    coeff = Fraction(1)
    for block in p.blocks:
        parts, winner = _inner_weingarten(len(block), s, category)
        ra = _restrict(a, block)
        rb = _restrict(b, block)
        coeff *= winner[parts.index(ra)][parts.index(rb)]
    return coeff


def wg_scaled_errors(k: int, n: int, s: int, category: str | None) -> dict:
    """Scaled deviations |W - leading| * sqrt(N)^{b(p)+b(q)}, exact Fractions.

    Requires N to be a perfect square so the scale is an integer.
    """
    root = math.isqrt(n)
    if root * root != n:
        raise ValueError(f"N = {n} must be a perfect square")
    category = _category_in_effect(s, category)
    table = wg_table(k, n, s, category)
    coeffs = _leading_coeffs(k, s, category)
    blocks = [len(p.blocks) for p, _ in table.indices]
    errors = {}
    for t, bp in enumerate(blocks):
        for u, bq in enumerate(blocks):
            leading = coeffs[t][u] * Fraction(1, n ** bp)
            err = abs(table.winv[t][u] - leading) * root ** (bp + bq)
            errors[(t, u)] = err
    return errors


@cache
def _leading_coeffs(k: int, s: int,
                    category: str) -> tuple[tuple[Fraction, ...], ...]:
    """wg_leading_coeff over all index pairs; it does not depend on N."""
    indices = wg_indices(k, category)
    return tuple(tuple(wg_leading_coeff(idx1, idx2, s, category)
                       for idx2 in indices)
                 for idx1 in indices)


def wg_certify_asymptotics(k: int, s: int,
                           category: str | None) -> VerificationReport:
    """Check the Weingarten concentration along the quadrupling LADDER of N.

    Every scaled error must at least halve at each step (entrywise, allowing
    zero to stay zero), which also forces monotone decrease.  As everywhere,
    s = 1 degenerates the category to singletons.
    """
    category = _category_in_effect(s, category)
    report = VerificationReport(f"weingarten asymptotics k={k} s={s} {category}")
    error_maps = [wg_scaled_errors(k, n, s, category) for n in LADDER]
    n_entries = len(error_maps[0])
    for step in range(len(LADDER) - 1):
        prev, nxt = error_maps[step], error_maps[step + 1]
        bad = [key for key in prev if nxt[key] * 2 > prev[key]]
        report.add(
            f"scaled error halves from N={LADDER[step]} to N={LADDER[step+1]} "
            f"on all {n_entries} entries",
            not bad,
            f"violations at index pairs {bad[:4]}" if bad else
            f"max scaled error {max(nxt.values())} at N={LADDER[step+1]}")
    worst = [max(em.values()) for em in error_maps]
    report.add(
        "largest scaled error decreases monotonically along the ladder",
        all(x > y for x, y in zip(worst, worst[1:])) or worst[0] == 0,
        " -> ".join(str(w) for w in worst))
    return report


# ---------------------------------------------------------------------------
# consistency helpers


def trace_identity(table: WeingartenTable) -> tuple[Fraction, int]:
    """Tr(W G) against the index count; equal when the inversion is sound."""
    total = Fraction(0)
    m = len(table.indices)
    for t in range(m):
        for u in range(m):
            total += table.winv[t][u] * table.gram[u][t]
    return total, m
