import itertools
import random
from fractions import Fraction

import pytest

from freewreath import weingarten
from freewreath.exactmat import bareiss_inverse
from freewreath.freeprob import character_moment_wreath, plain_eps
from freewreath.fusion import quantum_permutation_fusion
from freewreath.linmaps import build_tp
from freewreath.partition import (discrete_partition, enumerate_partitions,
                                  kernel)
from freewreath.weingarten import (character_moment_via_indices, haar_state,
                                   inner_partitions, trace_identity,
                                   wg_certify_asymptotics, wg_gram,
                                   wg_indices, wg_leading_coeff,
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
        assert character_moment_via_indices(k, "noncrossing") == \
            character_moment_wreath(fd, rep, plain_eps(k))
    # frozen sequence 1, 3, 12, 55
    assert [character_moment_via_indices(k) for k in range(1, 5)] == \
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


def _projection_oracle(k: int, n: int):
    """Entries of the orthogonal projection onto the span of the T_p at s=1."""
    parts = enumerate_partitions(0, k, mode="noncrossing")
    gram = [[n ** len(p.join(q).blocks) for q in parts] for p in parts]
    winv = bareiss_inverse(gram)
    vecs = [build_tp(p, n) for p in parts]

    def entry(row: tuple, col: tuple) -> Fraction:
        total = Fraction(0)
        for i, vi in enumerate(vecs):
            ci = vi.entries.get((col, ()), 0)
            if not ci:
                continue
            for j, vj in enumerate(vecs):
                rj = vj.entries.get((row, ()), 0)
                if rj:
                    total += rj * winv[j][i] * ci
        return total
    return entry


def test_haar_state_matches_projection_s1():
    # at s=1 the Haar state of u_{r1 c1} ... u_{rk ck} is the matrix entry of
    # the projection onto the noncrossing span
    for k, n in ((2, 4), (2, 5), (3, 4)):
        table = wg_table(k, n, 1)
        entry = _projection_oracle(k, n)
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


def test_certification_needs_ladder():
    with pytest.raises(ValueError):
        wg_certify_asymptotics(2, 4, "noncrossing", ladder=(16,))
