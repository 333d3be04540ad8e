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
<T_p, T_q> = Tr(T_p* T_q) = N^{blocks(join(p,q))}, which
``weingarten.wg_gram`` builds from the join counts (the "singletons"
category); the tests' brute-force Gram, ``gram_brute`` in
``tests/builders.py``, counts the index assignments where both maps are
nonzero instead (the two must agree; the brute force never takes a join, so
it is an independent oracle).

The support of T_p is enumerated once, by ``_support``: each block has a
base-N weight in the upper and in the lower multi-index, and each of the
N^blocks value assignments gives one position (j, i) as a pair of integers.
A map is a :class:`SparseMap`: a dict from (out_index, in_index) pairs of
such integers to nonzero Fractions, with tensor, compose and adjoint;
:func:`build_tp` keys T_p by its support for the tests' oracles.  The
category check holds T_p as 0/1 bit rows and columns, one Python int each,
built from the same block weights: a nonzero row is the mask of every
assignment of the upper-only blocks shifted by the through-block values that
the row fixes, and a column likewise with the rows swapped.  It compares the
three relations through shifts, ANDs and popcounts, a tensor product on
the shorter of its rows and columns, each distinct mask spread from its
lowest set bit once per call; the popcount rows of a product are
computed once per top, a repeated expected row once per call,
and its partition side (the pairs and their products, on block labels) once
per point bound, held as columns of typed arrays: 13 bytes a stacked pair
and 12 a tensor triple.  A composite is read off the labels of its stacked
picture, joined one link at a time: each link is a memo from labels to
joined labels, exact because canonical labels name one partition, so the
43,371 stacked pairs on six points take 2,874 union-finds, one per distinct
(labels, link).
A configurable cap (default 10**7) bounds the number of stored entries, and
the number of product rows the category check compares; exceeding it raises
CapExceededError rather than thrashing.
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Sequence
from fractions import Fraction
from functools import cache, lru_cache, partial
from itertools import repeat

from .config import (_Memo, check_entry_cap, check_enum_cap, check_power_cap,
                     check_work_cap)
from .partition import (Labels, Partition, _canonical_labels,
                        _involute_labels, _merge, _tensor_labels,
                        enumerate_partitions, nested_pairing)
from .report import VerificationReport


class SparseMap:
    """Exact sparse linear map (C^N)^{in_arity} -> (C^N)^{out_arity}.

    Entries are keyed (out_index, in_index) by multi-indices read as base-N
    integers, first letter most significant; only nonzero values are stored.
    """

    def __init__(self, dim: int, in_arity: int, out_arity: int,
                 entries: dict | None = None):
        if dim < 1:
            raise ValueError(f"dimension must be positive, got {dim}")
        self.dim = dim
        self.in_arity = in_arity
        self.out_arity = out_arity
        # values are exact ints or Fractions; zeros are dropped
        self.entries: dict[tuple[int, int], Fraction | int] = \
            {key: val for key, val in entries.items() if val} if entries else {}
        check_entry_cap(len(self.entries))

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
        return SparseMap(self.dim, self.in_arity, self.out_arity,
                         {k: v * c for k, v in self.entries.items()})

    def tensor(self, other: "SparseMap") -> "SparseMap":
        if self.dim != other.dim:
            raise ValueError("tensor factors must share the dimension N")
        check_entry_cap(len(self.entries) * len(other.entries))
        out_shift = self.dim ** other.out_arity
        in_shift = self.dim ** other.in_arity
        entries = {}
        for (o1, i1), v1 in self.entries.items():
            for (o2, i2), v2 in other.entries.items():
                entries[(o1 * out_shift + o2, i1 * in_shift + i2)] = v1 * v2
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
        by_mid: dict[int, list] = {}
        for (o, mid), v in self.entries.items():
            by_mid.setdefault(mid, []).append((o, v))
        acc: dict[tuple[int, int], Fraction | int] = {}
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


def _block_weights(p: Partition, dim: int) -> list[list[int]]:
    """Each block's base-N weights [u, w] in the upper and the lower row.

    A multi-index is read as a base-N number, first letter most
    significant, so a block whose points take the value v adds v * w to the
    lower index j and v * u to the upper index i.
    """
    k, n = p.upper, p.points
    weights = [[0, 0] for _ in range(p.block_count())]
    for pt, b in enumerate(p.labels):
        if pt < k:
            weights[b][0] += dim ** (k - 1 - pt)
        else:
            weights[b][1] += dim ** (n - 1 - pt)
    return weights


def _positions(weights, dim: int) -> list[tuple[int, int]]:
    """The pairs (sum of v_b w_b, sum of v_b u_b), for blocks b with weights
    (u_b, w_b), over every value v_b in 0..N-1 of each block."""
    cells = [(0, 0)]
    for u, w in weights:
        steps = [(v * w, v * u) for v in range(dim)]
        cells = [(j + dj, i + di) for j, i in cells for dj, di in steps]
    return cells


def _support(p: Partition, dim: int) -> list[tuple[int, int]]:
    """The nonzero positions (j, i) of T_p, one per block assignment."""
    check_entry_cap(dim ** p.block_count())
    return _positions(_block_weights(p, dim), dim)


def build_tp(p: Partition, dim: int) -> SparseMap:
    """The map T_p: a 1 at each position of :func:`_support`."""
    return SparseMap(dim, p.upper, p.lower,
                     dict.fromkeys(_support(p, dim), 1))


# ---------------------------------------------------------------------------
# category relation verification


def _chain(labels: Labels) -> list[tuple[int, int]]:
    """(previous point of its block, point) for each point that does not
    open its block."""
    last: dict[int, int] = {}
    out = []
    for pt, b in enumerate(labels):
        if b in last:
            out.append((last[b], pt))
        last[b] = pt
    return out


def _joined(a: int, b: int, state: Labels) -> Labels:
    """The canonical labels of state with the blocks of points a and b
    merged; the union-find's count of unnamed classes is not read."""
    return _merge(len(state), [(state[a], state[b])], state)[0]


def _outcome(k: int, lower: int, results: dict, state: Labels
             ) -> tuple[int, int]:
    """The stacked picture state read off its upper points, before k, and its
    lower points, from lower on: the index in results of its labels there,
    and the number of blocks that reach neither."""
    outer = state[:k] + state[lower:]
    return (results[_canonical_labels(outer)],
            max(state, default=-1) + 1 - len(set(outer)))


class _Pairs(Sequence):
    """Tuples of ints held as columns, one typed array each.

    An item is a plain tuple of ints, and iteration zips the columns, so a
    reader sees a list of tuples; a stacked pair takes 4 + 4 + 4 + 1 bytes
    where a tuple of four ints in a list takes 96 or more.
    """

    def __init__(self, typecodes: str):
        self.columns = tuple(map(array, typecodes))

    def __len__(self):
        return len(self.columns[0])

    def __getitem__(self, n):
        return tuple(column[n] for column in self.columns)

    def __iter__(self):
        return zip(*self.columns)


@cache
def _category_pairs(max_points: int):
    """The partition side of the category check; it does not depend on N.

    Returns the noncrossing diagrams on at most max_points points and, as
    indices into that tuple: (p, q, p tensor q) for every pair with at most
    max_points points in all; (top, bottom, result, closed blocks) for every
    composable pair whose stacked picture has at most max_points points; and
    the index of p* for each p.  The products are taken on block labels and
    looked up by shape, then labels; no Partition is built per pair.  The
    triples and the stacked pairs are :class:`_Pairs`, an index an unsigned
    32-bit int (the 54,177,741 diagrams on at most 14 points overflow 16
    bits from 9 points on) and a closed count a byte: 12 and 13 bytes each.
    The pairs of one top over one group of bottoms share its index and the
    group's, so those two columns grow by whole runs.

    A compose is walked on the stacked picture's k + m + l points, its state
    the canonical labels of the partition joined so far: a top starts as its
    own labels, each lower point a block of its own, and a bottom is a chain
    of links, each of its points joined to the previous point of its block,
    shifted by k.  Canonical labels name a partition, and joining two points
    of a partition gives one partition, so a memo from state to joined state
    per link is exact; a miss calls ``_merge`` once.  The final state fixes
    the result, its labels on the upper and lower points, and the closed
    blocks, those that reach neither; a memo per (k, m, l) keeps them.
    """
    diagrams = tuple(d for total in range(max_points + 1)
                     for k in range(total + 1)
                     for d in enumerate_partitions(k, total - k, "noncrossing"))
    shapes = [(d.upper, d.lower) for d in diagrams]
    labels = [d.labels for d in diagrams]
    by_points: dict[int, list[int]] = {}
    by_shape: dict[tuple[int, int], list[int]] = {}
    for n, (k, l) in enumerate(shapes):
        by_points.setdefault(k + l, []).append(n)
        by_shape.setdefault((k, l), []).append(n)
    index = {shape: {labels[n]: n for n in group}
             for shape, group in by_shape.items()}
    tensors = _Pairs("III")
    firsts, seconds, products = tensors.columns
    for a, (k1, l1) in enumerate(shapes):
        group = array("I", [b for total in range(max_points - k1 - l1 + 1)
                            for b in by_points[total]])
        firsts.extend(repeat(a, len(group)))
        seconds.extend(group)
        for b in group:
            k2, l2 = shapes[b]
            products.append(index[k1 + k2, l1 + l2][_tensor_labels(
                k1, labels[a], k2, labels[b])])
    blocks = [max(lab, default=-1) + 1 for lab in labels]
    chains = [_chain(lab) for lab in labels]
    # one object per distinct state, so that the memos share their tuples
    states = _Memo(lambda state: state)
    links = _Memo(lambda pair: _Memo(
        lambda state: states[_joined(*pair, state)]))
    composes = _Pairs("IIIB")
    top_col, bottom_col, results, closed = composes.columns
    for (k, m), tops in by_shape.items():
        for l in range(max_points - k - m + 1):
            final = _Memo(partial(_outcome, k, k + m, index[k, l]))
            group = array("I", by_shape[m, l])
            chained = [[links[k + a, k + pt] for a, pt in chains[b]]
                       for b in group]
            for t in tops:
                top_col.extend(repeat(t, len(group)))
                bottom_col.extend(group)
                start = labels[t] + tuple(range(blocks[t], blocks[t] + l))
                for chain in chained:
                    state = start
                    for link in chain:
                        state = link[state]
                    res, shut = final[state]
                    results.append(res)
                    closed.append(shut)
    involutes = [index[l, k][_involute_labels(k, lab)]
                 for (k, l), lab in zip(shapes, labels)]
    return diagrams, tensors, composes, involutes


def _compose_row_count(max_points: int, dim: int) -> int:
    """The rows the compose check compares: N^l for each of the Cat(k+m)
    Cat(m+l) noncrossing pairs of shapes (k, m) over (m, l), summed over
    k + m + l <= max_points; at N = 1, the pairs ``_category_pairs`` lists."""
    cat = [math.comb(2 * n, n) // (n + 1) for n in range(max_points + 1)]
    return sum(cat[k + m] * cat[m + l] * dim ** l
               for k in range(max_points + 1)
               for m in range(max_points + 1 - k)
               for l in range(max_points + 1 - k - m))


def _fibres(weights, dim: int, size: int) -> list[int]:
    """The size rows of the 0/1 matrix with a 1 at each of
    :func:`_positions` of weights.

    Only the blocks with w_b > 0 move the row index: a row that their values
    reach is M << s, where s is the sum of v_b u_b those values give and M
    has a bit at each sum over the other blocks.  Each of those adds v u_b
    for v < N, so it multiplies M by the repunit 1 + 2^u_b + ... +
    2^((N-1) u_b): distinct values give distinct base-N positions, so the N
    shifted copies of M are disjoint and their union is their sum.
    """
    free = 1
    for u, w in weights:
        if not w:
            free *= ((1 << u * dim) - 1) // ((1 << u) - 1)
    rows = [0] * size
    for j, s in _positions([b for b in weights if b[1]], dim):
        rows[j] = free << s
    return rows


def _bit_rows(p: Partition, dim: int) -> tuple[list[int], list[int]]:
    """T_p as one bitmask per row and one per column, from its blocks.

    Row j has bit i set when T_p[j, i] = 1, column i has bit j set.  A
    nonzero row is the mask of every assignment of the upper-only blocks,
    shifted by the upper offset of the through-block values that j fixes; a
    column is the same with the rows swapped.
    """
    weights = _block_weights(p, dim)
    return (_fibres(weights, dim, dim ** p.lower),
            _fibres([(w, u) for u, w in weights], dim, dim ** p.upper))


def _spread(x: int, stride: int) -> int:
    """Move bit b of x to bit b * stride."""
    return int(("0" * (stride - 1)).join(format(x, "b")), 2)


def _scaled(row: int, scale: int, width: int) -> list[int]:
    """The first width bits of row, low bit first, with each 1 as scale."""
    return [scale if bit == "1" else 0
            for bit in reversed(format(row, f"0{width}b"))]


def _products_hold(maps: list[tuple[list[int], list[int]]],
                   composes: Sequence[tuple[int, int, int, int]], dim: int):
    """For each stacked pair (top, bottom, result, closed): whether
    T_bottom . T_top is N^closed T_result.

    Entry (o, i) of the product is the popcount of row o of T_bottom and
    column i of T_top; every entry is compared, zeros included.  The pairs
    of one top come together, so each distinct bottom row is counted
    against the top's columns once per top.  An expected row is kept for the
    rest of the call from its second request on: most rows of the widest
    tops are asked for once, and holding them would add to the peak memory.
    """
    last = None
    expected, asked = {}, set()
    for top, bottom, res, closed in composes:
        if top != last:
            last, cols, products = top, maps[top][1], {}
            width = len(cols)
        scale = dim ** closed
        ok = True
        for row, want_row in zip(maps[bottom][0], maps[res][0]):
            if not row:
                if want_row:
                    ok = False
                    break
                continue
            got = products.get(row)
            if got is None:
                got = products[row] = list(map(int.bit_count,
                                               map(row.__and__, cols)))
            key = want_row, scale, width
            want = expected.get(key)
            if want is None:
                want = _scaled(*key)
                if key in asked:
                    expected[key] = want
                asked.add(key)
            if got != want:
                ok = False
                break
        yield ok


def verify_category_relations(dim: int, max_points: int = 6) -> VerificationReport:
    """Exhaustively check the three structure relations against brute force.

    Pair ranges: for the tensor relation, all noncrossing pairs whose
    concatenation has at most max_points points; for composition, all
    composable pairs whose stacked picture (upper row of the top factor,
    glued middle row, lower row of the bottom factor) has at most max_points
    points, so the dense work is bounded by N**max_points; the involution
    relation runs over single diagrams up to max_points.

    Each T_p is compared entry by entry, zeros included, as 0/1 bit rows
    and columns built from its blocks.  A tensor pair is walked on the
    shorter side of T_p tensor T_q, chosen by its arities: the Kronecker
    row at (j1, j2) is the row of T_p at j1 with bit b moved to
    b * N^upper(q), times the row of T_q at j2, and the column at (i1, i2)
    is the column of T_p at i1 with bit b moved to b * N^lower(q), times the
    column of T_q at i2.  The (o, i) entry of T_bottom T_top is the
    popcount of row o of T_bottom and column i of T_top.
    """
    if max_points < 0:
        raise ValueError(f"max_points must be nonnegative, got {max_points}")
    if dim < 1:
        raise ValueError(f"dimension must be positive, got {dim}")
    # refuse before any work: the discrete partition on max_points points is
    # among the diagrams, and its map has N**max_points entries; the compose
    # check compares no fewer rows than it lists pairs
    check_enum_cap(max_points)
    check_entry_cap(dim ** max_points)
    check_work_cap(_compose_row_count(max_points, dim),
                   "comparing {} product rows")
    rep = VerificationReport(f"category relations at N={dim}")
    diagrams, tensors, composes, involutes = _category_pairs(max_points)
    maps = [_bit_rows(d, dim) for d in diagrams]

    # spread(x << s) = spread(x) << s * stride, and the nonzero rows of T_p
    # are one mask shifted: a mask is spread from its lowest set bit, once
    lowest = _Memo(lambda key: _spread(*key))

    # the triples come grouped by their first diagram, which asks for at
    # most two sides at max_points + 1 strides: one diagram's rows are held
    @lru_cache(maxsize=2 * (max_points + 1))
    def spread(a: int, side: int, stride: int) -> list[int]:
        """The rows (side 0) or columns (side 1) of T_a with bit b moved to
        b * stride."""
        masks = maps[a][side]
        moved = {0: 0}
        for r in set(masks).difference(moved):
            s = (r & -r).bit_length() - 1
            moved[r] = lowest[r >> s, stride] << s * stride
        return list(map(moved.__getitem__, masks))

    def tensor_holds(a: int, b: int, ab: int) -> bool:
        # the rows of T_ab or its columns, whichever are fewer at every N
        side = int(diagrams[ab].lower > diagrams[ab].upper)
        q = diagrams[b]
        stride = dim ** (q.lower if side else q.upper)
        return [x * y for x in spread(a, side, stride)
                for y in maps[b][side]] == maps[ab][side]

    rep.tally("T_(p tensor q) = T_p tensor T_q on {} pairs",
              (tensor_holds(*triple) for triple in tensors))
    # not read again: the compose check runs without them in memory
    spread.cache_clear()
    lowest.clear()
    rep.tally("T_(p compose q) * N^closed = T_p . T_q on {} stacked pairs",
              _products_hold(maps, composes, dim))
    rep.tally("T_(p*) = (T_p)* on {} diagrams", (
        maps[star][0] == maps[p][1] for p, star in enumerate(involutes)))
    return rep


def verify_conjugate_equations(k: int, dim: int) -> VerificationReport:
    """Check (T_r* tensor id) . (id tensor T_r) = id with r the nested pairing.

    The support of T_r, split into halves (a, b), is a relation a -> b on
    the basis of (C^N)^{tensor k}.  The first product sends e_y to the sum
    of e_b over b in succ[a], a in succ[y]; the second to the sum of e_a over
    a in pred[b], b in pred[y].  Each must be e_y: that list must be [y].
    """
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    if dim < 1:
        raise ValueError(f"dimension must be positive, got {dim}")
    # refuse before any work: the pairing has 2k points, and the two products
    # compared hold N**(2k) entries
    check_work_cap(2 * k, "building the nested pairing on {} points")
    check_power_cap(dim, 2 * k, "comparing {} entries of the two products")
    r = nested_pairing(k)
    rep = VerificationReport(f"conjugate equations k={k}, N={dim}")
    size = dim ** k
    succ = [[] for _ in range(size)]
    pred = [[] for _ in range(size)]
    for j, _ in _support(r, dim):
        a, b = divmod(j, size)
        succ[a].append(b)
        pred[b].append(a)
    rep.add("(T_r* tensor id) . (id tensor T_r) = id", all(
        [b for a in succ[y] for b in succ[a]] == [y] for y in range(size)))
    rep.add("(id tensor T_r*) . (T_r tensor id) = id", all(
        [a for b in pred[y] for a in pred[b]] == [y] for y in range(size)))
    return rep
