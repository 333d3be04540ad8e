import itertools
import math
import random
from fractions import Fraction
from functools import cache
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freewreath import partition, weingarten
from freewreath.exactmat import bareiss_inverse, gauss_jordan_inverse
from freewreath.freeprob import character_moment_wreath, plain_eps
from freewreath.fusion import quantum_permutation_fusion
from freewreath.partition import (Partition, _join_counts, discrete_partition,
                                  kernel)
from freewreath.weingarten import (CATEGORIES, haar_state, inner_partitions,
                                   trace_identity, wg_certify_asymptotics,
                                   wg_gram, wg_indices, wg_leading_coeff,
                                   wg_scaled_errors, wg_table)


def test_index_counts():
    for k, count in ((1, 1), (2, 3), (3, 12)):
        assert len(wg_indices(k, "noncrossing")) == count
        assert len(wg_indices(k, "all")) == count
    assert len(wg_indices(4, "noncrossing")) == 55
    assert len(wg_indices(4, "all")) == 56
    assert len(wg_indices(3, "singletons")) == 5     # one inner per outer


def test_index_count_is_character_moment():
    # the number of indices equals the k-th character moment of the basic
    # representation over the quantum permutation inner fusion ring
    fd = quantum_permutation_fusion(4)
    rep = {0: 1, 1: 1}
    for k in range(1, 5):
        assert len(wg_indices(k, "noncrossing")) == \
            character_moment_wreath(fd, rep, plain_eps(k))
    # frozen sequence 1, 3, 12, 55
    assert [len(wg_indices(k, "noncrossing")) for k in range(1, 5)] == \
        [1, 3, 12, 55]


def test_inner_partitions_categories():
    assert len(inner_partitions(3, "noncrossing")) == 5
    assert len(inner_partitions(3, "all")) == 5
    assert len(inner_partitions(4, "all")) == 15
    assert len(inner_partitions(4, "noncrossing")) == 14
    assert inner_partitions(3, "singletons") == (discrete_partition(0, 3),)
    with pytest.raises(ValueError):
        inner_partitions(2, "nope")


def test_gram_small():
    # k=2, N=4, s=1: indices (discrete, discrete), (full, discrete-inner?):
    # with singletons the inner join has 2 blocks always except paired outer
    g = wg_gram(2, 4, 1, "singletons")
    assert g == [[16, 4], [4, 4]]


def test_k1_table():
    t = wg_table(1, 5, 1)
    assert t.winv[0][0] == Fraction(1, 5)
    t2 = wg_table(1, 6, 2, "noncrossing")
    assert t2.winv[0][0] == Fraction(1, 12)


def test_trace_identity():
    for (k, n, s, cat) in ((2, 4, 1, None), (2, 5, 4, "noncrossing"),
                           (3, 7, 3, "all")):
        t = wg_table(k, n, s, cat)
        total, m = trace_identity(t)
        assert total == m


def test_singular_gram_raises():
    # N below the rank threshold makes the outer Gram singular
    with pytest.raises(ZeroDivisionError):
        wg_table(4, 2, 1)


def test_s1_degenerates_to_singletons():
    t = wg_table(2, 4, 1, "noncrossing")
    assert t.category == "singletons"
    assert len(t.indices) == 2


def test_s1_certification_degenerates_too():
    # same rule at the asymptotics level, not a singular inner Gram
    report = wg_certify_asymptotics(2, 1, "noncrossing")
    assert "singletons" in report.name
    assert report.passed, report.render()


def test_haar_state_matches_projection_s1(projection_oracle):
    # at s=1 the Haar state of u_{r1 c1} ... u_{rk ck} is the matrix entry of
    # the projection onto the noncrossing span
    for k, n in ((2, 4), (2, 5), (3, 4)):
        table = wg_table(k, n, 1)
        entry = projection_oracle(k, n)
        for row in itertools.product(range(1, n + 1), repeat=k):
            for col in itertools.product(range(1, n + 1), repeat=k):
                got = haar_state(table, (1,) * k, (1,) * k, row, col)
                assert got == entry(row, col), (k, n, row, col)


def test_haar_state_row_sums():
    # rows of the basic unitary sum to one: summing the column outer index
    # over 1..N at fixed everything else gives the (k-1)-point state
    k, n = 2, 5
    table = wg_table(k, n, 1)
    table1 = wg_table(1, n, 1)
    for r in itertools.product(range(1, n + 1), repeat=2):
        total = sum(haar_state(table, (1, 1), (1, 1), r, (r[0], c))
                    for c in range(1, n + 1))
        assert total == haar_state(table1, (1,), (1,), (r[0],), (r[0],))


def _haar_oracle(table, inner_row, inner_col, outer_row, outer_col):
    """The Weingarten double sum over indices refining the four kernels."""
    def support(outer, inner):
        return [t for t, (p, a) in enumerate(table.indices)
                if p.refines(kernel(outer)) and a.refines(kernel(inner))]
    return sum((table.winv[t][u] for t in support(outer_row, inner_row)
                for u in support(outer_col, inner_col)), Fraction(0))


def _queries(k, n, s):
    inner = list(itertools.product(range(1, s + 1), repeat=k))
    outer = list(itertools.product(range(1, n + 1), repeat=k))
    return itertools.product(inner, inner, outer, outer)


@pytest.mark.parametrize("category", ("noncrossing", "all"))
def test_haar_state_matches_oracle_inner(category):
    for k in (1, 2):
        table = wg_table(k, 4, 2, category)
        for query in _queries(k, 4, 2):
            assert haar_state(table, *query) == _haar_oracle(table, *query)
    # k = 3, where the two inner categories differ, on a seeded sample
    table = wg_table(3, 4, 4, category)
    rng = random.Random(8)
    for _ in range(300):
        query = [tuple(rng.randint(1, 4) for _ in range(3)) for _ in range(4)]
        assert haar_state(table, *query) == _haar_oracle(table, *query)


def test_haar_state_tables_share_supports():
    # the supports are cached per (k, category); two tables that differ in
    # N and s, queried in alternation, must each get their own values
    weingarten._support.cache_clear()
    tables = (wg_table(2, 4, 2, "all"), wg_table(2, 5, 3, "all"))
    differ = 0
    for query in _queries(2, 4, 2):
        values = [haar_state(t, *query) for t in tables]
        assert values == [_haar_oracle(t, *query) for t in tables]
        differ += values[0] != values[1]
    assert differ > 0


def test_haar_state_validates():
    table = wg_table(2, 4, 1)
    with pytest.raises(ValueError):
        haar_state(table, (1,), (1, 1), (1, 1), (1, 1))
    with pytest.raises(ValueError):
        haar_state(table, (1, 1), (1, 1), (1, 5), (1, 1))
    with pytest.raises(ValueError):
        haar_state(table, (1, 2), (1, 1), (1, 1), (1, 1))   # inner above s


def test_leading_coefficient():
    # diagonal leading term at k=1: the single index has coefficient 1/s
    idx = wg_indices(1, "noncrossing")[0]
    assert wg_leading_coeff(idx, idx, 4, "noncrossing") == Fraction(1, 4)
    # off-diagonal outer mismatch vanishes
    ids2 = wg_indices(2, "noncrossing")
    pairs = [(i, j) for i in ids2 for j in ids2 if i[0] != j[0]]
    assert all(wg_leading_coeff(a, b, 4, "noncrossing") == 0
               for a, b in pairs)


def test_scaled_errors_zero_at_k1():
    errs = wg_scaled_errors(1, 16, 4, "noncrossing")
    assert set(errs.values()) == {Fraction(0)}


def test_scaled_errors_need_square():
    with pytest.raises(ValueError):
        wg_scaled_errors(2, 5, 1, "singletons")


def test_certification_passes():
    for s, cat in ((4, "noncrossing"), (3, "all"), (1, "singletons")):
        for k in (2, 3):
            report = wg_certify_asymptotics(k, s, cat)
            assert report.passed, report.render()


# ---------------------------------------------------------------------------
# rotation orbits and the integer table

DERANDOMIZED = settings(derandomize=True, deadline=None, max_examples=30,
                        database=None)


def _rotation(k, category):
    """sigma(t): the position of the index t with its k points rotated by
    one, i -> i + 1 mod k; built here from the partitions themselves."""
    indices = wg_indices(k, category)
    position = {idx: t for t, idx in enumerate(indices)}

    def rotate(p):
        return Partition(0, k, [[pt % k + 1 for pt in b] for b in p.blocks])

    return [position[rotate(p), rotate(a)] for p, a in indices]


@cache
def _full_join_counts(k, category):
    """Every row of b(p v q) and b(a v b), with no orbit map."""
    return tuple(_join_counts(parts) for parts in zip(*wg_indices(k, category)))


@st.composite
def table_parameters(draw):
    category = draw(st.sampled_from(CATEGORIES))
    k = draw(st.integers(1, 5))
    n = draw(st.sampled_from((4, 5, 9)))
    # inner Grams regular: S_s^+ needs s >= 4, S_s needs s >= k
    low = {"noncrossing": 4, "all": max(k, 2), "singletons": 1}[category]
    return k, n, draw(st.integers(low, low + 3)), category


@DERANDOMIZED
@given(table_parameters())
def test_gram_and_weingarten_are_rotation_invariant(params):
    # G and W computed at full width, without the orbit map, satisfy
    # X[sigma t][sigma u] = X[t][u]; the table built from the orbit
    # representatives equals them
    k, n, s, category = params
    outer, inner = _full_join_counts(k, category)
    gram = [[n ** b * s ** c for b, c in zip(orow, irow)]
            for orow, irow in zip(outer, inner)]
    winv = bareiss_inverse(gram)
    sigma = _rotation(k, category)
    m = len(sigma)
    for matrix in (gram, winv):
        assert all(matrix[sigma[t]][sigma[u]] == matrix[t][u]
                   for t in range(m) for u in range(m))
    table = wg_table(k, n, s, category)
    assert [list(row) for row in table.gram] == gram
    assert [list(row) for row in table.winv] == winv


@pytest.mark.parametrize("category, n, s, top", (
    ("noncrossing", 5, 4, 4), ("all", 4, 4, 4), ("singletons", 4, 1, 5)))
def test_table_matches_gauss_jordan(category, n, s, top):
    # the Fraction oracle takes tens of seconds at the 273 and 288 indices
    # of k = 5 in the two inner categories; the property test above
    # compares those with the full-width integer inverse
    for k in range(1, top + 1):
        table = wg_table(k, n, s, category)
        assert [list(row) for row in table.winv] == \
            gauss_jordan_inverse(wg_gram(k, n, s, category))
        assert table.wden > 0
        assert math.gcd(table.wden, *(x for row in table.wnum for x in row)) == 1


def _assert_integer_columns(table, cols):
    """Columns cols of wnum G equal those of wden I, in integers."""
    m = len(table.indices)
    for u in cols:
        column = [row[u] for row in table.gram]
        assert [sum(map(mul, row, column)) for row in table.wnum] == \
            [table.wden * (t == u) for t in range(m)], u


def test_integer_inverse_k6_full():
    table = wg_table(6, 4, 1)
    _assert_integer_columns(table, range(len(table.indices)))


def test_integer_inverse_k7_representative_columns():
    # wnum G is rotation invariant with W and G, so its columns at the
    # orbit representatives determine it
    table = wg_table(7, 4, 1)
    reps = weingarten._orbits(7, "singletons")[0]
    assert len(table.indices) == 429 and len(reps) == 63
    _assert_integer_columns(table, reps)


class _Stop(Exception):
    pass


@pytest.mark.parametrize("k, orbits, m", ((6, 28, 132), (7, 63, 429)))
def test_work_scales_with_the_orbits(monkeypatch, k, orbits, m):
    # join rows and inverse columns only at the orbit representatives:
    # one outer and one inner join per representative row and index, one
    # inverse column per representative
    merges = []
    merge = partition._merge

    def counted(*args):
        merges.append(1)
        return merge(*args)

    weingarten._join_block_counts.cache_clear()
    monkeypatch.setattr(partition, "_merge", counted)
    weingarten._join_block_counts(k, "singletons")
    monkeypatch.setattr(partition, "_merge", merge)
    weingarten._join_block_counts.cache_clear()
    assert len(merges) == 2 * orbits * m

    calls = []

    def stop(matrix, cols=None):
        calls.append((len(matrix), list(cols)))
        raise _Stop     # the elimination itself is not needed here

    monkeypatch.setattr(weingarten, "bareiss_inverse", stop)
    with pytest.raises(_Stop):
        wg_table(k, 4, 1)
    assert calls == [(m, list(weingarten._orbits(k, "singletons")[0]))]
    assert len(calls[0][1]) == orbits


def test_orbit_counts():
    for k, category, orbits, m in ((4, "noncrossing", 19, 55),
                                   (6, "singletons", 28, 132),
                                   (7, "singletons", 63, 429)):
        reps, source, back = weingarten._orbits(k, category)
        assert (len(reps), len(source)) == (orbits, m)
        sigma = _rotation(k, category)
        for t, (j, e) in enumerate(source):
            u = reps[j]
            for _ in range(e):
                u = sigma[u]
            assert u == t
        assert all(back[e][sigma[t]] == back[e - 1][t]
                   for e in range(1, k) for t in range(m))
