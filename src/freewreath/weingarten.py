"""Weingarten calculus for free wreath products of quantum permutation groups.

For the free wreath product of an inner (quantum) permutation group on s
points by the quantum permutation group on N points, the fixed vectors of the
k-th tensor power of the basic representation are indexed by pairs (p, a):
an outer noncrossing partition p of k points and an inner partition a
refining p, drawn from the inner group's category, which
:func:`~freewreath.partition.enumerate_partitions` lists by name:

* "noncrossing": inner quantum permutations, a noncrossing;
* "all": inner classical permutations, a arbitrary;
* "singletons": trivial inner group (s = 1), a the singleton partition.

The Gram matrix of these vectors is N^{b(p v q)} * s^{b(a v b)} with b the
block count and v the join; its inverse is the Weingarten matrix, which turns
Haar-state integration of matrix entries into a finite double sum over
compatible index pairs.  Both matrices are invariant under rotating the k
points, so only the rows of one index per rotation orbit are computed.

As N grows with s fixed, the Weingarten matrix concentrates: the entry at
((p, a), (q, b)) approaches delta_{p,q} N^{-b(p)} times the product over the
blocks of p of the *inner* Weingarten matrices at the block sizes.  For one
p these products are the inverse of the inner Gram block [s^{b(a v b)}] over
the indices (p, a): a refines p block by block and b(a v b) adds over the
blocks, so that block is a Kronecker product of inner Gram matrices.  The
certification routine checks this on a ladder of perfect squares, where the
natural scale sqrt(N)^{b(p)+b(q)} is an exact integer, demanding the scaled
error at least halve with each quadrupling of N.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache
from itertools import accumulate, count, groupby
from operator import add, gt, mul
from typing import Iterator, NamedTuple, Sequence

from .config import CATEGORIES, check_work_cap
from .exactmat import bareiss_inverse
from .partition import (_canonical_labels, _join_counts,
                        enumerate_partitions, kernel)
from .qnum import _plain_moments
from .report import VerificationReport

# the values of N the certification compares, each four times the last
LADDER = (16, 64, 256)

Index = tuple  # (outer Partition, inner Partition)


def _check_category(category: str, s: int = 1) -> None:
    """Refuse an unknown category, and "singletons", the trivial inner group
    on one point, at s != 1."""
    if category not in CATEGORIES:
        raise ValueError(
            f"unknown category {category!r}, expected one of {CATEGORIES}")
    if category == "singletons" and s != 1:
        raise ValueError(f"category 'singletons' is the trivial inner group, "
                         f"which needs s = 1, got s = {s}")


def _check_sizes(k: int, n: int, s: int) -> None:
    """Refuse an order k < 1 and sizes N, s < 1, which name no quantum group."""
    if k < 1:
        raise ValueError("k must be at least 1")
    if n < 1 or s < 1:
        raise ValueError("N and s must be positive")


def _category_in_effect(s: int, category: str | None) -> str:
    """The inner category in effect, once :func:`_check_category` has passed
    the name given, None meaning "noncrossing": s = 1 forces "singletons"."""
    if category is None:
        category = "noncrossing"
    _check_category(category, s)
    return "singletons" if s == 1 else category


@cache
def wg_indices(k: int, category: str = "noncrossing") -> tuple[Index, ...]:
    """All pairs (outer noncrossing p, inner a refining p).

    Each pair of NC(k) and the category is tested once, and that count is
    refused past the entry cap, as :func:`_check_orders` takes it, before
    any partition is listed."""
    _check_category(category)
    _check_orders((_category_size(m, "noncrossing") * _category_size(
        m, category) for m in count(1)), k,
        "testing {} partition pairs for refinement")
    inners = enumerate_partitions(0, k, category)
    return tuple((p, a) for p in enumerate_partitions(0, k, "noncrossing")
                 for a in inners if a.refines(p))


@cache
def _category_size(m: int, category: str) -> int:
    """The partitions of m points in the category, in closed form: 1 for
    "singletons", Catalan(m) for "noncrossing", and for "all" the Bell
    number B(m), the first entry of row m of the Bell triangle: row m + 1
    is the running sums of row m, started at its last entry."""
    if category == "singletons":
        return 1
    if category == "noncrossing":
        return math.comb(2 * m, m) // (m + 1)
    row = [1]
    for _ in range(m):
        row = list(accumulate(row, initial=row[-1]))
    return row[0]


def _check_orders(counts: Iterator[int], k: int, work: str) -> None:
    """Refuse the count of order k past the entry cap, named by work with {}
    for the count.  ``counts`` yields the nondecreasing counts of orders
    1, 2, ..., taken in turn: the first order whose count passes the cap
    refuses, as "or more" below k, so a huge k refuses at once."""
    for _ in range(1, k):
        check_work_cap(next(counts), work.format("{} or more"))
    check_work_cap(next(counts), work)


def _check_gram_size(k: int, category: str) -> None:
    """Refuse len(wg_indices(k, category))^2 Gram entries past the entry cap.

    An index is p in NC(k) with a partition of the category on each block,
    so the counts are the plain moments whose free cumulants are the
    category's sizes (Nica-Speicher, Lectures 10 and 16).  They grow with
    the order, and :func:`_check_orders` takes their squares.
    """
    counts = _plain_moments(lambda m: _category_size(m, category))
    next(counts)  # order 0
    _check_orders((c * c for c in counts), k, "storing {} entries")


class _IndexSpace(NamedTuple):
    """The indices of one order and category, with their rotation.

    The rotation r of the k points, point i to i + 1 mod k, maps NC(k) and
    each inner category to itself and preserves refinement and b(x v y), so
    it permutes the indices by sigma(p, a) = (rp, ra), and the Gram and
    Weingarten matrices X satisfy X[sigma t][sigma u] = X[t][u].  ``reps``
    holds the least index of each orbit of sigma, ``keys`` one bytes row
    per index of the join counts packed as b(p v q) (k + 1) + b(a v b),
    both at most k: a byte for every k <= 15, past the orders that the
    default enumeration cap of 14 points lets through.
    """

    indices: tuple[Index, ...]
    position: dict[Index, int]
    sigma: tuple[int, ...]
    unsigma: tuple[int, ...]
    reps: tuple[int, ...]
    keys: tuple[bytes, ...]

    def fill(self, rep_rows: Sequence, kind=tuple) -> tuple:
        """Every row of a rotation-invariant matrix from the rows at reps:
        walking each orbit, row sigma(t) is row t read through sigma^-1."""
        rows = [None] * len(self.sigma)
        for t, row in zip(self.reps, rep_rows):
            while rows[t] is None:
                rows[t] = row = kind(row)
                row = map(row.__getitem__, self.unsigma)
                t = self.sigma[t]
        return tuple(rows)


@cache
def _index_space(k: int, category: str) -> _IndexSpace:
    """The index space of wg_indices(k, category); the join counts are
    computed on the orbit representatives' rows only."""
    indices = wg_indices(k, category)
    position = {idx: t for t, idx in enumerate(indices)}
    # a partition rotated by one is the kernel of its rotated labels
    sigma = tuple(position[tuple(kernel(x.labels[-1:] + x.labels[:-1])
                                 for x in idx)] for idx in indices)
    # the positions sorted by their image: the inverse permutation
    unsigma = tuple(sorted(range(len(sigma)), key=sigma.__getitem__))
    reps, seen = [], set()
    for t in range(len(sigma)):
        if t not in seen:
            reps.append(t)
            while t not in seen:
                seen.add(t)
                t = sigma[t]
    outer, inner = (_join_counts(parts, reps) for parts in zip(*indices))
    space = _IndexSpace(indices, position, sigma, unsigma, tuple(reps), ())
    return space._replace(keys=space.fill(
        (bytes(map(add, map((k + 1).__mul__, o), i))
         for o, i in zip(outer, inner)), bytes))


def wg_gram(k: int, n: int, s: int,
            category: str = "noncrossing") -> list[list[int]]:
    """The Gram matrix [N^b(p v q) * s^b(a v b)] over wg_indices(k, category),
    read from one table of the powers at the index space's keys.
    ValueError for k < 1, N < 1 or s < 1, an unknown category and for
    "singletons" with s != 1; CapExceededError past the entry cap."""
    _check_sizes(k, n, s)
    _check_category(category, s)
    _check_gram_size(k, category)
    powers = [n ** b * s ** c for b in range(k + 1) for c in range(k + 1)]
    return [list(map(powers.__getitem__, row))
            for row in _index_space(k, category).keys]


class WeingartenTable(NamedTuple):
    """The Gram matrix of the (p, a) indices and its inverse W.

    W is held as one integer matrix over one positive denominator:
    W = wnum / wden, with wden the least common denominator of W's entries.
    """

    k: int
    n: int
    s: int
    category: str
    indices: tuple
    gram: tuple
    wnum: tuple
    wden: int


def wg_table(k: int, n: int, s: int = 1,
             category: str | None = None) -> WeingartenTable:
    """Build the Gram matrix and its exact inverse.

    With s = 1 the category degenerates to "singletons" automatically; the
    default otherwise is "noncrossing".  Raises ZeroDivisionError when the
    Gram matrix is singular (the parameters sit outside the free range).
    Only the columns of W at the rotation orbit representatives are solved
    for; W is symmetric, so they are the representatives' rows, and the
    rest follows by rotation invariance.
    """
    _check_sizes(k, n, s)
    category = _category_in_effect(s, category)
    gram = wg_gram(k, n, s, category)
    space = _index_space(k, category)
    columns = bareiss_inverse(gram, space.reps)
    wden = math.lcm(*{x.denominator for row in columns for x in row})
    rep_rows = [[x.numerator * (wden // x.denominator) for x in col]
                for col in zip(*columns)]
    return WeingartenTable(k, n, s, category, space.indices,
                           tuple(tuple(row) for row in gram),
                           space.fill(rep_rows), wden)


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
        if min(tup) < 1 or max(tup) > hi:
            raise ValueError(f"{name} entries must lie in 1..{hi}")
    # an index tuple relabelled by first occurrence is its kernel as a tuple
    rows = _support(k, table.category, _canonical_labels(outer_row),
                    _canonical_labels(inner_row))
    cols = _support(k, table.category, _canonical_labels(outer_col),
                    _canonical_labels(inner_col))
    wnum = table.wnum
    return Fraction(sum(sum(map(wnum[t].__getitem__, cols)) for t in rows),
                    table.wden)


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


def wg_leading_coeff(idx1: Index, idx2: Index, s: int,
                     category: str) -> Fraction:
    """Coefficient c of the large-N law W -> c * N^{-b(p)} at this entry.

    Zero unless the outer partitions agree; otherwise the entry of the
    inverse inner Gram block of that outer partition.  ValueError for an
    unknown category, for "singletons" with s != 1, and for an index not in
    wg_indices; CapExceededError where :func:`wg_gram` raises it.
    """
    _check_category(category, s)
    k = idx1[0].points
    _check_gram_size(k, category)
    position = _index_space(k, category).position
    for idx in (idx1, idx2):
        if idx not in position:
            raise ValueError(f"{idx!r} is not an index of order {k} "
                             f"in the {category!r} category")
    cnum, cden = _leading_coeffs(k, s, category)
    return Fraction(cnum[position[idx1]][position[idx2]], cden)


@cache
def _leading_coeffs(k: int, s: int, category: str
                    ) -> tuple[tuple[tuple[int, ...], ...], int]:
    """wg_leading_coeff over all index pairs; it does not depend on N.

    Held as a WeingartenTable holds W: one integer matrix over one positive
    denominator, the least common one.  wg_indices lists the indices of one
    outer p in a run: one inverse each.
    """
    space = _index_space(k, category)
    indices, keys = space.indices, space.keys
    blocks = []
    for _, run in groupby(range(len(indices)), key=lambda t: indices[t][0]):
        run = list(run)
        # the inner join count is the key's remainder mod k + 1
        blocks.append((run, bareiss_inverse(
            [[s ** (keys[t][u] % (k + 1)) for u in run] for t in run])))
    cden = math.lcm(*{x.denominator for _, block in blocks
                      for row in block for x in row})
    cnum = [[0] * len(indices) for _ in indices]
    for run, block in blocks:
        for t, row in zip(run, block):
            cnum[t][run[0]:run[-1] + 1] = [
                x.numerator * (cden // x.denominator) for x in row]
    return tuple(map(tuple, cnum)), cden


def wg_certify_asymptotics(k: int, s: int,
                           category: str | None) -> VerificationReport:
    """Check the Weingarten concentration along the quadrupling LADDER of N.

    Every scaled error |W - c N^{-b(p)}| sqrt(N)^{b(p)+b(q)} must at least
    halve at each step (entrywise, allowing zero to stay zero), which also
    forces monotone decrease.  One pass over the index pairs keeps only each
    N's maximum and each step's first four violations.  As everywhere,
    s = 1 degenerates the category to singletons.

    The pass runs on integers.  With W = wnum / wden, c = cnum / cden over
    the common denominator of the leading coefficients, and N = r^2, the
    scaled error at (t, u) is X r^(b(q)-b(p)+k) / (wden cden r^k), where
    X = |wnum r^(2 b(p)) cden - cnum wden|: a numerator per entry over one
    denominator D per N, so the halving test is the cross-multiplication
    2 X' D > X D' and each N's maximum a maximum of numerators.  Only the
    maxima become Fractions.
    """
    if s < 1:
        raise ValueError(f"s must be positive, got {s}")
    category = _category_in_effect(s, category)
    report = VerificationReport(f"weingarten asymptotics k={k} s={s} {category}")
    tables = [wg_table(k, n, s, category) for n in LADDER]
    cnum, cden = _leading_coeffs(k, s, category)
    blocks = [p.block_count() for p, _ in tables[0].indices]
    roots = [math.isqrt(n) for n in LADDER]
    dens = [w.wden * cden * r ** k for r, w in zip(roots, tables)]
    # at each N and b(p): r^(2 b(p)) cden, and the row of r^(b(q)-b(p)+k)
    lifts = [[r ** (2 * b) * cden for b in range(k + 1)] for r in roots]
    scales = [[[r ** (bq - b + k) for bq in blocks] for b in range(k + 1)]
              for r in roots]
    # 2 X' D > X D' at each step, as the products with these factors
    steps = [(2 * d0, d1) for d0, d1 in zip(dens, dens[1:])]
    worst = [0] * len(LADDER)
    bad = [[] for _ in LADDER[1:]]
    for t, bp in enumerate(blocks):
        crow = cnum[t]
        errors = [[abs(x * lift[bp] - c * w.wden) * q
                   for x, c, q in zip(w.wnum[t], crow, scale[bp])]
                  for w, lift, scale in zip(tables, lifts, scales)]
        for (d0, d1), e0, e1, violations in zip(steps, errors, errors[1:],
                                                 bad):
            if len(violations) < 4 and any(
                    map(gt, map(d0.__mul__, e1), map(d1.__mul__, e0))):
                violations.extend(
                    (t, u) for u, (x0, x1) in enumerate(zip(e0, e1))
                    if x1 * d0 > x0 * d1)
                del violations[4:]
        worst = list(map(max, worst, map(max, errors)))
    worst = [Fraction(x, d) for x, d in zip(worst, dens)]
    for step, violations in enumerate(bad):
        report.add(
            f"scaled error halves from N={LADDER[step]} to N={LADDER[step+1]} "
            f"on all {len(blocks) ** 2} entries",
            not violations,
            f"violations at index pairs {violations}" if violations else
            f"max scaled error {worst[step + 1]} at N={LADDER[step+1]}")
    report.add(
        "largest scaled error decreases monotonically along the ladder",
        all(x > y for x, y in zip(worst, worst[1:])) or worst[0] == 0,
        " -> ".join(str(w) for w in worst))
    return report


# ---------------------------------------------------------------------------
# consistency helpers


def trace_identity(table: WeingartenTable) -> tuple[Fraction, int]:
    """Tr(W G) against the index count; equal when the inversion is sound."""
    total = sum(sum(map(mul, wrow, gcol))
                for wrow, gcol in zip(table.wnum, zip(*table.gram)))
    return Fraction(total, table.wden), len(table.indices)
