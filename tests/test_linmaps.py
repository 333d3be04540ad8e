import functools
import hashlib
import itertools
import math
import random
import re
from array import array
from fractions import Fraction

import pytest

from freewreath import config, linmaps
from freewreath.config import CapExceededError
from freewreath.exactmat import bareiss_det_rank
from builders import (S3_ELEMENTS, cyclic_names, cyclic_product, gram_brute,
                      group_dual_json, hom_terms, kept_bytes, s3_product)
from freewreath.fusion import (conj_word, cyclic_fusion, fusion_from_json,
                               tensor_fold)
from freewreath.linmaps import (build_tp, verify_category_relations,
                                verify_conjugate_equations)
from freewreath.partition import (Partition, discrete_partition,
                                  enumerate_partitions, full_block,
                                  identity_partition, nested_pairing)
from freewreath.weingarten import wg_gram


def test_build_tp_identity():
    t = build_tp(identity_partition(2), 3)
    assert t.entries == {(i, i): 1 for i in range(9)}
    assert t.entries[(0, 0)] == 1
    assert len(t.entries) == 9


def test_build_tp_full_block():
    # one block forces all indices equal: dim nonzero entries
    t = build_tp(full_block(2, 1), 3)
    assert len(t.entries) == 3
    # lower index (1,) and upper (1, 1) is position (0, 0); upper (1, 2) is 1
    assert t.entries[(0, 0)] == 1
    assert (0, 1) not in t.entries


def test_build_tp_discrete():
    # all singletons: every entry 1
    t = build_tp(discrete_partition(1, 1), 2)
    assert len(t.entries) == 4
    assert all(v == 1 for v in t.entries.values())


def test_entry_cap(monkeypatch):
    monkeypatch.setattr(config, "caps", lambda: (14, 10 ** 6))
    with pytest.raises(CapExceededError):
        build_tp(discrete_partition(0, 10), 10)


def test_tensor_of_maps():
    n = 3
    p = full_block(1, 1)
    q = discrete_partition(1, 1)
    lhs = build_tp(p.tensor(q), n)
    rhs = build_tp(p, n).tensor(build_tp(q, n))
    assert lhs == rhs


def test_compose_with_loop_factor():
    n = 4
    cup = full_block(2, 0)
    cap_ = full_block(0, 2)
    res, closed = cup.compose(cap_)
    lhs = build_tp(cup, n).compose(build_tp(cap_, n))
    rhs = build_tp(res, n).scale(Fraction(n) ** closed)
    assert lhs == rhs
    # the scalar map value is N
    assert lhs.entries[(0, 0)] == n


def test_adjoint_is_involution_transpose():
    n = 3
    p = Partition(2, 1, [(1, 3), (2,)])
    assert build_tp(p, n).adjoint() == build_tp(p.involute(), n)


def test_category_relations_random_pairs():
    rng = random.Random(5)
    n = 3
    shapes = [(k, l) for k in range(3) for l in range(3) if 0 < k + l <= 3]
    for _ in range(25):
        k1, l1 = rng.choice(shapes)
        k2, l2 = rng.choice(shapes)
        ps = enumerate_partitions(k1, l1, mode="noncrossing")
        qs = enumerate_partitions(k2, l2, mode="noncrossing")
        p, q = rng.choice(ps), rng.choice(qs)
        assert build_tp(p.tensor(q), n) == build_tp(p, n).tensor(build_tp(q, n))


def _pair_counts(report):
    return tuple(int(re.search(r" on (\d+) ", c.description).group(1))
                 for c in report.checks)


def _failure_counts(report):
    return tuple(int(c.detail.split()[0]) for c in report.checks)


def test_verify_category_relations():
    for n, max_points, counts in ((2, 4, (341, 597, 99)),
                                  (3, 4, (341, 597, 99)),
                                  (2, 5, (1365, 4758, 351))):
        report = verify_category_relations(n, max_points=max_points)
        assert report.passed, report.render()
        assert _pair_counts(report) == counts


def test_compose_pair_count_closed_form():
    # the rows the compose check compares: N^lower of each listed bottom
    for p in range(7):
        diagrams, _, composes, _ = linmaps._category_pairs(p)
        for n in (1, 2, 5):
            assert linmaps._compose_row_count(p, n) == \
                sum(n ** diagrams[bottom].lower for _, bottom, _, _ in composes)
        assert linmaps._compose_row_count(p, 1) == len(composes)


# sha256 of _category_pairs(p): each diagram's render() on its own line,
# then the repr of the tensor triples and the stacked pairs, each as a list
# of tuples, and of the involutes; taken from the tables built with Partition
# objects
CATEGORY_PAIRS_DIGESTS = (
    "e62bde35711813e8fe9e7035a31042cbd1d9af3e9cd69a406a8eb2aca4af3370",
    "2df17ecc440d5d70c2f878dbfe9d9b69828b449499444da618c55b5c21bde9f6",
    "ecfcda4d34b07db63135e7b7a971781cc0439582fd846628331ea0d4c3e2bf28",
    "513137262816a220a0ec6a73c69e332d9bd94c7d11fa6f5f791b064088a8b75e",
    "f2d421c4ee03ca974a2084a209700c99a65041f5c82bff4e5157377876083dee",
    "21f8a51d492fa69790dd8def6803e3d72659992fae1c824b639982ee7b6d4b96",
    "49dec30196ba9a77c081844489f575a273e03044eeebf2edda4a68b7df871e82",
)


@pytest.mark.parametrize("max_points", range(7))
def test_category_pairs_digest(max_points):
    diagrams, tensors, composes, involutes = \
        linmaps._category_pairs(max_points)
    h = hashlib.sha256()
    for d in diagrams:
        h.update(d.render().encode() + b"\n")
    h.update(repr((list(tensors), list(composes), involutes)).encode())
    assert h.hexdigest() == CATEGORY_PAIRS_DIGESTS[max_points]


def test_category_pairs_keep_compact_tables():
    # 5,461 tensor triples and 43,371 stacked pairs in typed arrays, 12 and
    # 13 bytes each; lists of tuples would keep about 4 MiB
    linmaps._category_pairs(6)      # the enumeration caches, filled
    kept = kept_bytes(lambda: linmaps._category_pairs.__wrapped__(6)[1:3])
    assert kept < 2 ** 20


def test_category_pairs_typecodes_hold_the_enumeration_cap():
    # the diagrams on at most the cap's points, (n + 1) Cat(n) on n points,
    # are indexed by the tensor columns and all but the last compose column;
    # a closed count is at most the cap
    _, tensors, composes, _ = linmaps._category_pairs(0)
    *indices, closed = composes.columns
    codes = {column.typecode for column in tensors.columns + tuple(indices)}
    cap = config.caps()[0]

    def diagrams(points):
        return sum(math.comb(2 * n, n) for n in range(points + 1))

    assert [diagrams(p) for p in range(6)] == \
        [len(linmaps._category_pairs(p)[0]) for p in range(6)]
    assert diagrams(cap) == 54177741
    for code in codes:
        assert array(code, [diagrams(cap) - 1])
    assert array(closed.typecode, [cap])


def _number(index, n):
    """A multi-index over 0..n-1 as a base-n number, first letter most
    significant."""
    out = 0
    for x in index:
        out = out * n + x
    return out


def test_support_matches_brute_force():
    # the positions (j, i) of the index tuples, upper row then lower row,
    # that are constant on every block
    for points in range(5):
        for k in range(points + 1):
            for mode in ("noncrossing", "all"):
                for p in enumerate_partitions(k, points - k, mode):
                    for n in (1, 2, 3):
                        want = {(_number(idx[k:], n), _number(idx[:k], n))
                                for idx in itertools.product(range(n),
                                                             repeat=points)
                                if all(len({idx[pt - 1] for pt in b}) == 1
                                       for b in p.blocks)}
                        got = linmaps._support(p, n)
                        assert len(got) == len(want) and set(got) == want


def test_category_pairs_compose_like_partitions():
    # every pair up to five points, a seeded sample of the 43,371 on six
    for max_points in range(7):
        diagrams, _, composes, _ = linmaps._category_pairs(max_points)
        if max_points == 6:
            composes = random.Random(6).sample(composes, 2000)
        for top, bottom, res, closed in composes:
            assert diagrams[bottom].compose(diagrams[top]) == \
                (diagrams[res], closed)


def test_category_pairs_join_once_per_state_and_link(monkeypatch):
    # the stacked pairs on six points share their joins: one union-find per
    # distinct (link, state), far fewer than one per pair
    merges, joins = [], []
    merge, joined = linmaps._merge, linmaps._joined

    def counted_merge(*args):
        merges.append(args)
        return merge(*args)

    def counted_join(a, b, state):
        joins.append((a, b, state))
        return joined(a, b, state)

    monkeypatch.setattr(linmaps, "_merge", counted_merge)
    monkeypatch.setattr(linmaps, "_joined", counted_join)
    composes = linmaps._category_pairs.__wrapped__(6)[2]
    assert len(composes) == 43371
    assert len(merges) == len(joins) == len(set(joins)) == 2874


def test_bit_rows_match_build_tp():
    # N = 1..4 up to 5 points, and N = 5 up to 4
    for points in range(6):
        for k in range(points + 1):
            for p in enumerate_partitions(k, points - k, "all"):
                for n in range(1, 5 + (points <= 4)):
                    rows, cols = [0] * n ** p.lower, [0] * n ** p.upper
                    for (j, i), v in build_tp(p, n).entries.items():
                        rows[j] |= v << i
                        cols[i] |= v << j
                    assert linmaps._bit_rows(p, n) == (rows, cols)


def _drop_first(rows, cols):
    # position (j, i) = (0, 0), every index 1
    rows[0] &= ~1
    cols[0] &= ~1


def _add_spurious(rows, cols):
    # a 1 at lower (2, 1), upper (1,), off the support: j = 1 * 3 + 0, i = 0
    rows[3] |= 1
    cols[0] |= 1 << 3


# the counts are the ones the check gave when it read the same corruption
# from build_tp's entries dict
@pytest.mark.parametrize("corrupt, failures", [(_drop_first, (5, 9, 2)),
                                               (_add_spurious, (5, 6, 2))])
def test_verify_category_relations_catches_a_corrupt_map(monkeypatch, corrupt,
                                                         failures):
    target = Partition(1, 2, [(1, 2), (3,)])
    bit_rows = linmaps._bit_rows

    def corrupted_bit_rows(p, dim):
        rows, cols = bit_rows(p, dim)
        if p == target:
            corrupt(rows, cols)
        return rows, cols

    monkeypatch.setattr(linmaps, "_bit_rows", corrupted_bit_rows)
    report = verify_category_relations(3, max_points=4)
    assert _failure_counts(report) == failures, report.render()


def _patched_pairs(monkeypatch, max_points, edit):
    """Make the category check read _category_pairs(max_points) with its
    compose list passed through edit."""
    diagrams, tensors, composes, involutes = \
        linmaps._category_pairs(max_points)
    pairs = (diagrams, tensors, edit(list(composes)), involutes)
    monkeypatch.setattr(linmaps, "_category_pairs", lambda _: pairs)


def test_compose_check_catches_a_wrong_pair(monkeypatch):
    def closed_off_by_one(composes):
        top, bottom, res, closed = composes[100]
        composes[100] = (top, bottom, res, closed + 1)
        return composes

    _patched_pairs(monkeypatch, 4, closed_off_by_one)
    for n in (2, 3):
        assert _failure_counts(verify_category_relations(n, 4)) == (0, 1, 0)


def test_compose_check_catches_swapped_results(monkeypatch):
    # two pairs of one top, over bottoms of one shape, with different
    # results: each now names the other's
    diagrams, _, composes, _ = linmaps._category_pairs(4)
    first = next(n for n, (top, bottom, _, _) in enumerate(composes)
                 if diagrams[top].upper == 1 and diagrams[bottom].lower == 2)
    top, bottom, res, _ = composes[first]
    second = next(n for n, (t, b, r, _) in enumerate(composes)
                  if t == top and r != res and
                  diagrams[b].lower == diagrams[bottom].lower)

    def swap(composes):
        (t, b, r, c), (t2, b2, r2, c2) = composes[first], composes[second]
        composes[first], composes[second] = (t, b, r2, c), (t2, b2, r, c2)
        return composes

    _patched_pairs(monkeypatch, 4, swap)
    for n in (2, 3):
        assert _failure_counts(verify_category_relations(n, 4)) == (0, 2, 0)


def _conjugate_products(r, k, n):
    """Whether (T_r* tensor id)(id tensor T_r) and (id tensor T_r*)(T_r
    tensor id) are the identity, by SparseMap composition."""
    tr = build_tp(r, n)
    ident = build_tp(identity_partition(k), n)
    return (tr.adjoint().tensor(ident).compose(ident.tensor(tr)) == ident,
            ident.tensor(tr.adjoint()).compose(tr.tensor(ident)) == ident)


def test_verify_conjugate_equations(monkeypatch):
    # the nested pairing satisfies both equations
    for k in range(4):
        for n in range(1, 5):
            report = verify_conjugate_equations(k, n)
            assert report.passed, report.render()
            assert _conjugate_products(nested_pairing(k), k, n) == (True, True)
    # any partition of 2k points in place of r: both checks agree with the
    # composition, failures included
    for k in range(3):
        for r in enumerate_partitions(0, 2 * k, "all"):
            monkeypatch.setattr(linmaps, "nested_pairing", lambda _, r=r: r)
            for n in range(1, 4):
                checks = verify_conjugate_equations(k, n).checks
                assert tuple(c.passed for c in checks) == \
                    _conjugate_products(r, k, n), (r, n)
    # partitions that are no duality fail both equations once N >= 2
    for r, k in ((discrete_partition(0, 2), 1), (discrete_partition(0, 4), 2),
                 (full_block(0, 4), 2)):
        monkeypatch.setattr(linmaps, "nested_pairing", lambda _, r=r: r)
        for n in (2, 3):
            checks = verify_conjugate_equations(k, n).checks
            assert [c.passed for c in checks] == [False, False], (r, n)


def test_conjugate_equations_build_no_sparse_map(monkeypatch):
    # both sides are read off the support of T_r; no map is stored
    def never(self, *args, **kwargs):
        raise AssertionError("SparseMap built")

    monkeypatch.setattr(linmaps.SparseMap, "__init__", never)
    assert verify_conjugate_equations(3, 4).passed


def test_gram_entries_match_brute_force():
    cases = [(k, l, n) for n in (2, 3)
             for k, l in ((0, 2), (1, 1), (0, 3), (2, 1), (1, 2))]
    for k, l, n in cases + [(0, 4, 3), (0, 5, 2), (0, 5, 4), (2, 2, 3)]:
        ps = enumerate_partitions(k, l, mode="noncrossing")
        joins = [[n ** len(p.join(q).blocks) for q in ps] for p in ps]
        assert gram_brute(k, l, n) == joins, (k, l, n)


def test_gram_brute_is_the_singleton_weingarten_gram():
    for k in range(1, 6):
        for n in range(2, 5):
            assert gram_brute(0, k, n) == wg_gram(k, n, 1, "singletons")


def test_gram_rank_small():
    # NC(0,4) Gram at N=2: the vectors span the fixed space of S_2 acting on
    # (C^2)^{x4}, of dimension (tr(id)^4 + tr(swap)^4)/2 = (16 + 0)/2 = 8 < 14
    assert bareiss_det_rank(wg_gram(4, 2, 1, "singletons")) == (8, 0)
    # at N=4 the 14 vectors are independent
    rank, det = bareiss_det_rank(wg_gram(4, 4, 1, "singletons"))
    assert det != 0
    assert rank == 14


# (elements, identity first; their product; the dual), the products
# computed on the group and not read from the ring
GROUPS = ((S3_ELEMENTS, s3_product,
           fusion_from_json(group_dual_json(S3_ELEMENTS, s3_product))),
          (cyclic_names(3), cyclic_product(3), cyclic_fusion(3)))


def test_group_dual_admissibility():
    # for a group dual a block carries the trivial rep, once, exactly when the
    # ordered product of its upper decorations equals that of its lower ones
    for elements, mult, fd in GROUPS:
        words = [w for n in range(4)
                 for w in itertools.product(elements, repeat=n)]
        for up in words:
            for down in words:
                if len(up) + len(down) <= 3:
                    agree = (functools.reduce(mult, up, elements[0])
                             == functools.reduce(mult, down, elements[0]))
                    block = tensor_fold(fd, conj_word(up, fd) + down)
                    assert block.get(fd.trivial(), 0) == int(agree)


def test_group_dual_map():
    # the decoration only gates existence for a group dual: a noncrossing p
    # is a Hom term, with multiplicity 1 on each block, exactly when every
    # block's upper and lower ordered products agree
    elements, mult, fd = GROUPS[1]

    def product(letters):
        return functools.reduce(mult, letters, elements[0])

    for up, down in ((("g",), ("g",)), (("g",), ("1",)), (("g", "g"), ("g2",)),
                     (("g", "g2"), ("1", "g")), (("g2", "g"), ("g", "g2"))):
        k = len(up)
        expected = [p for p in enumerate_partitions(k, len(down))
                    if all(product([up[pt - 1] for pt in b if pt <= k])
                           == product([down[pt - k - 1] for pt in b if pt > k])
                           for b in p.blocks)]
        terms = hom_terms(up, down, fd)
        assert [p for p, _ in terms] == expected
        assert all(set(dims) == {1} for _, dims in terms)
    assert hom_terms(("g",), ("1",), fd) == ()


def test_sparse_map_trace_inner():
    n = 3
    ident = build_tp(identity_partition(2), n)
    assert ident.trace() == n ** 2
    t = build_tp(full_block(1, 1), n)
    assert t.inner(t) == n
    assert ident.inner(ident) == n ** 2
    with pytest.raises(ValueError):
        ident.inner(t)


def _tp(k: int, n: int):
    return build_tp(identity_partition(k), n)


@pytest.mark.parametrize("call, message", [
    (lambda: linmaps.SparseMap(0, 1, 1), "dimension must be positive, got 0"),
    (lambda: _tp(1, 2).tensor(_tp(1, 3)),
     "tensor factors must share the dimension N"),
    (lambda: _tp(1, 2).compose(_tp(1, 3)),
     "composition requires equal dimension N"),
    (lambda: _tp(1, 2).compose(_tp(2, 2)),
     "arity mismatch: composing in_arity 1 with out_arity 2"),
    (lambda: build_tp(nested_pairing(1), 2).trace(),
     "trace requires a square map"),
    (lambda: verify_conjugate_equations(1, 0),
     "dimension must be positive, got 0"),
], ids=["dimension", "tensor-N", "compose-N", "compose-arity", "trace",
        "conjugate-N"])
def test_linmaps_refusals(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


def test_sparse_map_compares_repr_and_scales():
    t = build_tp(full_block(2, 1), 3)
    # a map equals no other type, and says so by NotImplemented
    assert t.__eq__("t") is NotImplemented and t != "t"
    assert repr(t) == "SparseMap(N=3, in=2, out=1, nnz=3)"
    # a scalar that is neither int nor Fraction is taken as a Fraction
    half = t.scale(0.5)
    assert all(type(v) is Fraction for v in half.entries.values())
    assert half == t.scale(Fraction(1, 2))


def test_scale_by_zero_is_the_empty_map():
    t = build_tp(full_block(2, 1), 3)
    for zero in (0, Fraction(0)):
        assert t.scale(zero) == linmaps.SparseMap(3, 2, 1)


@pytest.mark.parametrize("n", [1, 2])
def test_conjugate_check_counts_the_pairing_before_building_it(monkeypatch, n):
    # at N = 1 the products compare one entry, but the pairing of 2k points
    # is still built; at N = 2 the entry count would be a 2 * 10**30-bit int
    def never(k):
        raise AssertionError("nested pairing built before the cap")

    monkeypatch.setattr(config, "caps", lambda: (14, 10 ** 7))
    monkeypatch.setattr(linmaps, "nested_pairing", never)
    with pytest.raises(CapExceededError) as info:
        verify_conjugate_equations(10 ** 30, n)
    assert str(info.value) == (f"building the nested pairing on {2 * 10 ** 30} "
                               "points exceeds the cap of 10000000")
