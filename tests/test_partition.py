import functools
import hashlib
import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from freewreath import config
from freewreath.config import CATEGORIES, CapExceededError
from freewreath.partition import (Partition, _circle, _merge,
                                  discrete_partition, enumerate_partitions,
                                  full_block, identity_partition, kernel,
                                  nested_pairing, parse_partition)
from freewreath.tl import TLDiagram, collapse, tl_compose, tl_enumerate
from freewreath.weingarten import wg_indices


@pytest.mark.parametrize("call, message", [
    (lambda: Partition(1, 1, [(1, 2), ()]), "empty block"),
    (lambda: full_block(1, 1).join(full_block(0, 2)),
     "join requires identical point sets"),
    (lambda: full_block(1, 1).refines(full_block(1, 2)),
     "refinement requires identical point sets"),
], ids=["empty-block", "join", "refines"])
def test_partition_refusals(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize("k, l", [(-1, 1), (2, -2), (-1, 0)])
def test_full_block_refuses_negative_arities(k, l):
    # the arities are checked before the blocks, so neither the empty
    # partition nor an empty block stands in for them
    with pytest.raises(ValueError) as info:
        full_block(k, l)
    assert str(info.value) == "arities must be nonnegative"

def test_canonicalization():
    p = Partition(1, 2, [(3, 2), (1,)])
    assert p.blocks == ((1,), (2, 3))
    q = Partition(1, 2, [[1], [2, 3]])
    assert p == q
    assert hash(p) == hash(q)


def test_validation():
    with pytest.raises(ValueError):
        Partition(1, 1, [(1,)])             # point 2 missing
    with pytest.raises(ValueError):
        Partition(1, 1, [(1, 2), (2,)])     # duplicate point
    with pytest.raises(ValueError):
        Partition(0, 1, [(1, 2)])            # point out of range
    with pytest.raises(ValueError):
        Partition(-1, 1, [])


def test_constructors():
    assert identity_partition(2) == Partition(2, 2, [(1, 3), (2, 4)])
    assert full_block(1, 2) == Partition(1, 2, [(1, 2, 3)])
    assert discrete_partition(1, 1) == Partition(1, 1, [(1,), (2,)])
    assert nested_pairing(2) == Partition(0, 4, [(1, 4), (2, 3)])
    assert full_block(0, 0) == Partition(0, 0, [])


def test_traversal_order():
    # upper left to right, then lower right to left
    assert _circle(2, 3) == (1, 2, 5, 4, 3)


def test_noncrossing():
    assert Partition(0, 4, [(1, 4), (2, 3)]).is_noncrossing()
    assert Partition(0, 4, [(1, 2), (3, 4)]).is_noncrossing()
    assert not Partition(0, 4, [(1, 3), (2, 4)]).is_noncrossing()
    # the identity is noncrossing although blocks interleave as written
    assert identity_partition(3).is_noncrossing()
    # pairing upper i with lower i straight down stays planar; the "cross"
    # pairing upper 1 - lower 2, upper 2 - lower 1 does not
    assert not Partition(2, 2, [(1, 4), (2, 3)]).is_noncrossing()


def test_tensor():
    p = full_block(1, 1)
    q = discrete_partition(1, 1)
    t = p.tensor(q)
    assert t.upper == 2 and t.lower == 2
    assert t == Partition(2, 2, [(1, 3), (2,), (4,)])


def test_compose_cup_cap():
    cup = full_block(2, 0)
    cap = full_block(0, 2)
    assert cup.compose(cap) == (Partition(0, 0, []), 1)


def test_compose_identity():
    p = Partition(2, 1, [(1, 3), (2,)])
    assert p.compose(identity_partition(2)) == (p, 0)
    assert identity_partition(1).compose(p) == (p, 0)


def test_compose_shape_mismatch():
    with pytest.raises(ValueError):
        full_block(1, 1).compose(full_block(1, 2))  # needs top.lower == self.upper


def test_involute():
    p = Partition(1, 2, [(1, 2), (3,)])
    q = p.involute()
    assert (q.upper, q.lower) == (2, 1)
    assert q.involute() == p
    # upper i <-> lower i: the block {up1, low1} maps to {up1, low1}
    assert full_block(1, 1).involute() == full_block(1, 1)


def test_join_and_refines():
    a = Partition(0, 4, [(1, 2), (3, 4)])
    b = Partition(0, 4, [(2, 3), (1,), (4,)])
    assert a.join(b) == full_block(0, 4)
    assert discrete_partition(0, 3).refines(full_block(0, 3))
    assert not full_block(0, 3).refines(discrete_partition(0, 3))
    assert a.refines(a)


def test_merge_on_any_int_points():
    # points -2, -1, 0, 1, 2 and a sixth, 5, that nothing names: the chains
    # join -2 with 1 and -1 with 0 with 2, so there are three classes
    chains = [(-2, 1), (0, -1), (2, 0)]
    assert _merge(6, chains, [1, 2, -2, 0]) == ((0, 1, 0, 1), 1)
    assert _merge(6, chains, [-1]) == ((0,), 2)
    assert _merge(6, chains, ()) == ((), 3)
    # the same picture on the points 1..6 gives the same answer
    shifted = [tuple(pt + 3 for pt in c) for c in chains]
    assert _merge(6, shifted, [4, 5, 1, 3]) == ((0, 1, 0, 1), 1)
    # ~c, the bottom blocks of a stacked pair, next to the top blocks 0, 1
    assert _merge(4, zip((0, 1), (~0, ~0)), (~1,)) == ((0,), 1)


def test_kernel():
    assert kernel((5, 7, 5)) == Partition(0, 3, [(1, 3), (2,)])
    assert kernel(()) == Partition(0, 0, [])
    assert kernel(("x", "x", "y", "x")) == Partition(0, 4, [(1, 2, 4), (3,)])


def test_render_parse():
    p = Partition(1, 2, [(1, 3), (2,)])
    assert p.render() == "{1,3|2} (k=1,l=2)"
    assert parse_partition(p.render()) == p
    assert parse_partition("{} (k=0,l=0)") == Partition(0, 0, [])
    assert parse_partition(" { 1 , 2 } ( k = 0 , l = 2 ) ") == full_block(0, 2)
    with pytest.raises(ValueError):
        parse_partition("{1,2}")
    with pytest.raises(ValueError):
        parse_partition("{1|1} (k=0,l=2)")


def test_enumerate_noncrossing_counts():
    # Catalan numbers 1, 1, 2, 5, 14, 42, 132, ..., 16796
    for n, cat in enumerate((1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862,
                             16796)):
        assert len(enumerate_partitions(0, n, mode="noncrossing")) == cat


def test_enumerate_all_counts():
    # Bell numbers 1, 1, 2, 5, 15, 52, 203, 877, 4140
    for n, bell in enumerate((1, 1, 2, 5, 15, 52, 203, 877, 4140)):
        assert len(enumerate_partitions(0, n, mode="all")) == bell


def _restricted_growth(n: int) -> list[tuple[int, ...]]:
    """Every set partition of n points as a restricted-growth string: each
    entry at most one more than the largest before it."""
    strings = [()]
    for _ in range(n):
        strings = [s + (b,) for s in strings
                   for b in range(max(s, default=-1) + 2)]
    return strings


def _brute_force(k: int, l: int) -> dict[str, set[Partition]]:
    """Each category with k upper and l lower points, filtered from every
    restricted-growth string."""
    found: dict[str, set[Partition]] = {
        mode: set() for mode in ("all", "noncrossing", "pairings",
                                 "singletons")}
    for s in _restricted_growth(k + l):
        p = Partition(k, l, [[pt for pt, x in enumerate(s, 1) if x == b]
                             for b in range(max(s, default=-1) + 1)])
        found["all"].add(p)
        if p.is_noncrossing():
            found["noncrossing"].add(p)
            for mode, size in (("pairings", 2), ("singletons", 1)):
                if all(len(b) == size for b in p.blocks):
                    found[mode].add(p)
    return found


def test_enumeration_is_sorted_by_blocks_and_complete():
    # the Weingarten index order, the Gram rows and hom_terms all read this
    # order, so it is pinned: strictly increasing in the sorted blocks, and
    # as a set every restricted-growth string of the category
    for n in range(9):
        for k in range(n + 1):
            for mode, expected in _brute_force(k, n - k).items():
                got = enumerate_partitions(k, n - k, mode)
                keys = [p.blocks for p in got]
                assert all(a < b for a, b in zip(keys, keys[1:]))
                assert set(got) == expected


def test_enumerate_split_shapes():
    # the count only depends on k + l
    assert len(enumerate_partitions(2, 2, mode="noncrossing")) == 14
    assert len(enumerate_partitions(1, 3, mode="all")) == 15
    ps = enumerate_partitions(2, 1, mode="noncrossing")
    assert all(p.upper == 2 and p.lower == 1 for p in ps)
    assert len(set(ps)) == len(ps)


def test_enumerate_noncrossing_subset_of_all():
    nc = set(enumerate_partitions(2, 2, mode="noncrossing"))
    allp = set(enumerate_partitions(2, 2, mode="all"))
    assert nc < allp
    assert all(p.is_noncrossing() for p in nc)
    assert all(not p.is_noncrossing() for p in allp - nc)


def test_enumerate_block_size_families():
    # "pairings" and "singletons" are the noncrossing partitions whose blocks
    # all have two points, or one
    for n in range(9):
        for k in range(n + 1):
            nc = enumerate_partitions(k, n - k, mode="noncrossing")
            assert enumerate_partitions(k, n - k, mode="pairings") == tuple(
                p for p in nc if all(len(b) == 2 for b in p.blocks))
            assert enumerate_partitions(k, n - k, mode="singletons") == (
                discrete_partition(k, n - k),)


def test_every_category_enumerates():
    for category in CATEGORIES:
        assert enumerate_partitions(1, 2, mode=category)
    with pytest.raises(ValueError, match="unknown mode 'nope'"):
        enumerate_partitions(1, 2, mode="nope")


def test_enumerate_deterministic_order():
    a = enumerate_partitions(1, 2, mode="noncrossing")
    b = enumerate_partitions(1, 2, mode="noncrossing")
    assert a == b


def test_enumeration_cap(monkeypatch):
    with pytest.raises(CapExceededError):
        enumerate_partitions(0, 40, mode="noncrossing")
    # a lowered cap holds as well
    monkeypatch.setattr(config, "caps", lambda: (3, 10 ** 7))
    assert enumerate_partitions(0, 3, mode="all")
    with pytest.raises(CapExceededError):
        enumerate_partitions(0, 4, mode="all")


def test_enumeration_refuses_negative_arities():
    # as the constructor does, and before the cap or the mode is read
    for call in (lambda: enumerate_partitions(-1, 2),
                 lambda: enumerate_partitions(2, -1, mode="nope"),
                 lambda: enumerate_partitions(-1, 40),
                 lambda: tl_enumerate(-1, 3),
                 lambda: wg_indices(-1)):
        with pytest.raises(ValueError, match="arities must be nonnegative"):
            call()



def _join_tables(max_points: int):
    """(parts, {(a, b): a.join(b)}) for every shape (k, l), k + l <= max_points."""
    for n in range(max_points + 1):
        for k in range(n + 1):
            parts = enumerate_partitions(k, n - k, mode="all")
            yield parts, {(a, b): a.join(b) for a in parts for b in parts}


def test_join_commutative_idempotent_upper_bound():
    for parts, join in _join_tables(5):
        for a in parts:
            assert join[a, a] == a
            for b in parts:
                assert join[a, b] == join[b, a]
                assert a.refines(join[a, b]) and b.refines(join[a, b])


def test_join_associative():
    # joins of partitions of a shape stay in that shape, so every nested
    # join is in the table
    for parts, join in _join_tables(4):
        for a in parts:
            for b in parts:
                for c in parts:
                    assert join[join[a, b], c] == join[a, join[b, c]]


def test_compose_associative_with_closed_blocks():
    # every noncrossing partition with rows of at most 2 points; compose
    # keeps the rows, so every nested composition is in the table
    nc = [p for k in range(3) for l in range(3)
          for p in enumerate_partitions(k, l, mode="noncrossing")]
    comp = {(a, b): a.compose(b) for a in nc for b in nc if b.lower == a.upper}
    for (a, b), (ab, ab_closed) in comp.items():
        for c in nc:
            if c.lower == b.upper:
                bc, bc_closed = comp[b, c]
                left, left_closed = comp[ab, c]
                right, right_closed = comp[a, bc]
                assert left == right
                assert ab_closed + left_closed == bc_closed + right_closed


@functools.cache
def _listed(k: int, l: int, mode: str):
    return enumerate_partitions(k, l, mode=mode)


@st.composite
def composable_triples(draw, mode: str):
    """(bottom, middle, top) of the category, top glued above middle above
    bottom, every row of at most 4 points."""
    rows = [draw(st.integers(0, 4)) for _ in range(4)]
    return tuple(draw(st.sampled_from(_listed(upper, lower, mode)))
                 for lower, upper in zip(rows, rows[1:]))


@given(st.sampled_from(("noncrossing", "all")).flatmap(composable_triples))
def test_compose_associative_on_random_triples(case):
    # past the rows of the exhaustive test above, crossing partitions
    # included: both bracketings give one partition and one closed count
    bottom, middle, top = case
    lower, lower_closed = bottom.compose(middle)
    left, left_closed = lower.compose(top)
    upper, upper_closed = middle.compose(top)
    right, right_closed = bottom.compose(upper)
    assert left == right
    assert (left.upper, left.lower) == (top.upper, bottom.lower)
    assert lower_closed + left_closed == upper_closed + right_closed


def _nc_upto(max_points: int):
    return [p for n in range(max_points + 1) for k in range(n + 1)
            for p in enumerate_partitions(k, n - k, mode="noncrossing")]


def _composable(max_points: int):
    """(top, bottom) over noncrossing diagrams whose stacked picture has at
    most max_points points, by stacked point count."""
    nc = _nc_upto(max_points)
    out = {n: [] for n in range(max_points + 1)}
    for top in nc:
        for bottom in nc:
            n = top.points + bottom.lower
            if bottom.upper == top.lower and n <= max_points:
                out[n].append((top, bottom))
    return out


# sha256 of "<render> <closed>" lines of bottom.compose(top) over every pair
# of partitions, crossing ones included, with at most 5 stacked points, in
# the order of the loops below; taken from the point-based compose
COMPOSE_ALL_5 = \
    "45878d231b165351ac0b827266299d24238eba567a8f7a857b4b3701bc01a335"


def test_compose_digest_all_partitions():
    h = hashlib.sha256()
    for k in range(6):
        for m in range(6 - k):
            for l in range(6 - k - m):
                for top in enumerate_partitions(k, m, mode="all"):
                    for bottom in enumerate_partitions(m, l, mode="all"):
                        res, closed = bottom.compose(top)
                        h.update(f"{res.render()} {closed}\n".encode())
    assert h.hexdigest() == COMPOSE_ALL_5


def test_involute_reverses_compose():
    for pairs in _composable(5).values():
        for top, bottom in pairs:
            res, closed = bottom.compose(top)
            star, star_closed = top.involute().compose(bottom.involute())
            assert star == res.involute() and star_closed == closed
            assert res.involute().involute() == res


def test_interchange_law():
    # (p tensor q) . (r tensor s) = (p . r) tensor (q . s), r over p and s
    # over q, with closed blocks adding up
    by_points = _composable(5)
    for n1, first in by_points.items():
        for n2 in range(6 - n1):
            for r, p in first:
                pr, pr_closed = p.compose(r)
                for s, q in by_points[n2]:
                    qs, qs_closed = q.compose(s)
                    assert p.tensor(q).compose(r.tensor(s)) == \
                        (pr.tensor(qs), pr_closed + qs_closed)


def test_identities_are_neutral():
    empty = Partition(0, 0, [])
    for p in _nc_upto(5):
        for res in (p.compose(identity_partition(p.upper)),
                    identity_partition(p.lower).compose(p)):
            assert res == (p, 0)
        assert p.tensor(empty) == empty.tensor(p) == p


def _assert_canonical(p: Partition, cls: type = Partition):
    """p is the partition (or diagram, for cls TLDiagram) its blocks give,
    and its labels number the blocks 0, 1, 2, ... by their first point."""
    assert type(p) is cls
    assert p == cls(p.upper, p.lower, p.blocks)
    assert hash(p) == hash(cls(p.upper, p.lower, p.blocks))
    assert list(dict.fromkeys(p.labels)) == list(range(p.block_count()))


def test_operation_results_have_canonical_labels():
    # _nc_upto lists by point count, so a prefix holds the smaller diagrams
    nc, upto = _nc_upto(6), [len(_nc_upto(n)) for n in range(7)]
    for p in nc:
        _assert_canonical(p.involute())
        for q in nc[:upto[6 - p.points]]:
            _assert_canonical(p.tensor(q))
    for pairs in _composable(6).values():
        for top, bottom in pairs:
            _assert_canonical(bottom.compose(top)[0])
    for parts, join in _join_tables(5):
        for (a, b), ab in join.items():
            _assert_canonical(ab)
            assert a.refines(b) == all(
                any(set(x) <= set(y) for y in b.blocks) for x in a.blocks)
    for r in range(6):
        for values in itertools.product((1, 2, 3), repeat=r):
            _assert_canonical(kernel(values))
    for k in range(5):
        for l in range(5 - k):
            for d in tl_enumerate(2 * k, 2 * l):
                _assert_canonical(collapse(d))
    # diagram results are built unchecked, so the checks run here
    tl = [d for n in range(11) for a in range(n + 1)
          for d in tl_enumerate(a, n - a)]
    upto = [sum(d.points <= n for d in tl) for n in range(7)]
    for d in tl:
        _assert_canonical(d, TLDiagram)
    for d in tl[:upto[6]]:
        _assert_canonical(d.involute(), TLDiagram)
        for e in tl[:upto[6 - d.points]]:
            _assert_canonical(d.tensor(e), TLDiagram)
        for bottom in tl[:upto[6]]:
            if bottom.upper == d.lower:
                _assert_canonical(tl_compose(bottom, d)[0], TLDiagram)


def test_enumerated_partitions_pass_the_checks():
    # enumeration builds its results unchecked from the shapes it generates
    for mode in CATEGORIES + ("pairings",):
        for n in range(9):
            for k in range(n + 1):
                for p in enumerate_partitions(k, n - k, mode):
                    _assert_canonical(p)
