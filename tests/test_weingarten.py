import hashlib
import itertools
import math
import random
import time
from fractions import Fraction
from functools import cache
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freewreath import config, partition, weingarten
from freewreath.config import CapExceededError
from freewreath.exactmat import bareiss_inverse, gauss_jordan_inverse
from freewreath.freeprob import character_moment_wreath, plain_eps
from freewreath.fusion import QuantumPermutationFusion
from freewreath.partition import (Partition, _join_counts, discrete_partition,
                                  enumerate_partitions, full_block, kernel)
from freewreath.report import VerificationReport
from freewreath.weingarten import (CATEGORIES, LADDER, haar_state,
                                   trace_identity, wg_certify_asymptotics,
                                   wg_gram, wg_indices, wg_leading_coeff,
                                   wg_table)


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
    fd = QuantumPermutationFusion(4)
    rep = {0: 1, 1: 1}
    for k in range(1, 5):
        assert len(wg_indices(k, "noncrossing")) == \
            character_moment_wreath(fd, rep, plain_eps(k))
    # frozen sequence 1, 3, 12, 55
    assert [len(wg_indices(k, "noncrossing")) for k in range(1, 5)] == \
        [1, 3, 12, 55]


def test_inner_partitions_categories():
    assert len(enumerate_partitions(0, 3, "noncrossing")) == 5
    assert len(enumerate_partitions(0, 3, "all")) == 5
    assert len(enumerate_partitions(0, 4, "all")) == 15
    assert len(enumerate_partitions(0, 4, "noncrossing")) == 14
    assert enumerate_partitions(0, 3, "singletons") == (discrete_partition(0, 3),)
    # every partition of the category refines the full block, so the inner
    # partitions of the indices are exactly the category's enumeration
    for category in CATEGORIES:
        for k in range(1, 5):
            assert {a for _, a in wg_indices(k, category)} == \
                set(enumerate_partitions(0, k, category))
    with pytest.raises(ValueError):
        wg_indices(2, "nope")


def test_weingarten_refuses_pairings():
    # the partition layer enumerates "pairings"; the Weingarten calculus
    # does not offer it as an inner category
    message = ("unknown category 'pairings', expected one of "
               "('noncrossing', 'all', 'singletons')")
    idx = wg_indices(2, "noncrossing")[0]
    for call in (lambda: wg_indices(2, "pairings"),
                 lambda: wg_table(2, 4, 2, "pairings"),
                 lambda: wg_leading_coeff(idx, idx, 2, "pairings")):
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == message


@pytest.mark.parametrize("category", ("bogus", "pairings"))
def test_unknown_category_refused_at_s1(category):
    # s = 1 forces "singletons", but only once the name given has passed
    # the check, and before any cap: order 30 would exceed the entry cap
    message = (f"unknown category {category!r}, expected one of "
               "('noncrossing', 'all', 'singletons')")
    for call in (lambda: wg_table(2, 4, 1, category),
                 lambda: wg_table(30, 4, 1, category),
                 lambda: wg_certify_asymptotics(2, 1, category)):
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == message


def gram_size_refusal(k: int, category: str, cap: int) -> str | None:
    """The size check's refusal of order k under an entry cap, or None."""
    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(config, "caps", lambda: (14, cap))
        try:
            weingarten._check_gram_size(k, category)
        except CapExceededError as exc:
            return str(exc)
    return None


def test_index_count_without_listing():
    # the plain free moment whose cumulants are the category's sizes: the
    # check refuses exactly the squares of the listed counts
    def counted(k, category, count):
        assert gram_size_refusal(k, category, count ** 2) is None
        return gram_size_refusal(k, category, count ** 2 - 1) == \
            f"storing {count ** 2} entries exceeds the cap of {count ** 2 - 1}"

    for category in CATEGORIES:
        for k in range(1, 7):
            assert counted(k, category, len(wg_indices(k, category)))
    assert all(counted(k, "noncrossing", count) for k, count in
               enumerate([1, 3, 12, 55, 273, 1428, 7752], 1))


@pytest.mark.parametrize("k, category, refusal", [
    # the first order whose count squared passes the cap, and a later one
    (9, "singletons", "storing 23639044 entries"),
    (10 ** 30, "singletons", "storing 23639044 or more entries"),
    # "noncrossing" and "all" pass the cap at order 7, with their own counts
    (9, "noncrossing", "storing 60093504 or more entries"),
    (9, "all", "storing 84658401 or more entries"),
], ids=["singletons-9", "singletons-huge", "noncrossing-9", "all-9"])
def test_gram_size_refusals(k, category, refusal):
    assert gram_size_refusal(k, category, 10 ** 7) == \
        f"{refusal} exceeds the cap of 10000000"


def test_gram_size_passes_what_fits():
    # order 8 at s = 1: Catalan(8)**2 = 2,044,900 entries
    assert gram_size_refusal(8, "singletons", 10 ** 7) is None


def test_category_sizes_in_closed_form():
    # Catalan, Bell and 1, against the partition layer's listing
    for category in CATEGORIES:
        assert [weingarten._category_size(m, category) for m in range(10)] \
            == [len(enumerate_partitions(0, m, category)) for m in range(10)]
    assert weingarten._category_size(20, "noncrossing") == 6564120420
    assert weingarten._category_size(20, "all") == 51724158235372


def listing_refusal(k: int, category: str, cap: int) -> str | None:
    """wg_indices(k, category)'s refusal from a cold cache under an entry
    cap, or None."""
    wg_indices.cache_clear()
    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(config, "caps", lambda: (14, cap))
        try:
            wg_indices(k, category)
        except CapExceededError as exc:
            return str(exc)
    return None


def test_index_listing_counts_its_refinement_tests(monkeypatch):
    # the count checked before the listing is the number of refines calls
    tested = []
    refines = Partition.refines
    monkeypatch.setattr(Partition, "refines",
                        lambda a, p: tested.append(a) or refines(a, p))
    for category in CATEGORIES:
        for k in range(1, 6):
            tested.clear()
            assert listing_refusal(k, category, 10 ** 7) is None
            count = len(tested)
            assert count == math.comb(2 * k, k) // (k + 1) * len(
                enumerate_partitions(0, k, category))
            assert listing_refusal(k, category, count - 1) == (
                f"testing {count} partition pairs for refinement exceeds "
                f"the cap of {count - 1}")
    wg_indices.cache_clear()


@pytest.mark.parametrize("k, category, refusal", [
    # "all" passes the cap at order 9, Catalan(9) * Bell(9) tests, and
    # "singletons" at order 16, Catalan(16) tests
    (9, "all", "testing 102816714 partition pairs for refinement"),
    (10 ** 30, "all", "testing 102816714 or more partition pairs for "
                      "refinement"),
    (10 ** 30, "singletons", "testing 35357670 or more partition pairs for "
                             "refinement"),
], ids=["all-9", "all-huge", "singletons-huge"])
def test_index_listing_refuses_at_once(k, category, refusal):
    start = time.perf_counter()
    with pytest.raises(CapExceededError) as info:
        wg_indices(k, category)
    assert str(info.value) == f"{refusal} exceeds the cap of 10000000"
    assert time.perf_counter() - start < 1


def test_every_gram_entry_point_refuses_at_once():
    # order 9 at s = 2 would list 246,675 indices; both refuse before any
    idx = (full_block(0, 9), discrete_partition(0, 9))
    message = "storing 60093504 or more entries exceeds the cap of 10000000"
    for call in (lambda: wg_gram(9, 4, 2),
                 lambda: wg_table(9, 4, 2),
                 lambda: wg_leading_coeff(idx, idx, 2, "noncrossing")):
        start = time.perf_counter()
        with pytest.raises(CapExceededError) as info:
            call()
        assert str(info.value) == message
        assert time.perf_counter() - start < 1


def test_gram_small():
    # k=2, N=4, s=1: indices (discrete, discrete), (full, discrete-inner?):
    # with singletons the inner join has 2 blocks always except paired outer
    g = wg_gram(2, 4, 1, "singletons")
    assert g == [[16, 4], [4, 4]]


def test_k1_table():
    t = wg_table(1, 5, 1)
    assert Fraction(t.wnum[0][0], t.wden) == Fraction(1, 5)
    t2 = wg_table(1, 6, 2, "noncrossing")
    assert Fraction(t2.wnum[0][0], t2.wden) == Fraction(1, 12)


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


def test_singletons_needs_s1():
    # "singletons" is the trivial inner group on one point; with s > 1 its
    # Gram and certificate belong to no quantum group, so both refuse
    for s in (2, 3, 5):
        with pytest.raises(ValueError, match=f"needs s = 1, got s = {s}"):
            wg_table(2, 4, s, "singletons")
        with pytest.raises(ValueError, match=f"needs s = 1, got s = {s}"):
            wg_certify_asymptotics(1, s, "singletons")
    assert wg_table(2, 4, 1, "singletons").category == "singletons"


def test_wg_gram_refuses_singletons_without_s1():
    # "singletons" is the trivial inner group; the join formula at s = 3
    # would give [[144, 36], [36, 36]], the Gram of no quantum group
    for k, s in ((1, 2), (2, 3), (3, 5)):
        with pytest.raises(ValueError, match=f"needs s = 1, got s = {s}"):
            wg_gram(k, 4, s, "singletons")
    assert wg_gram(2, 4, 1, "singletons") == [[16, 4], [4, 4]]
    assert wg_gram(2, 4, 3, "noncrossing")[0] == [144, 36, 12]


def test_wg_gram_refuses_what_wg_table_refuses():
    # an order or a size below 1 names no quantum group; the join formula
    # would still give a first row [144, -48, -12] at N = -3, a zero matrix
    # at N = 0 and [[1]] at k = 0
    for k, n, s, message in ((2, -3, 4, "N and s must be positive"),
                             (2, 0, 4, "N and s must be positive"),
                             (2, 4, 0, "N and s must be positive"),
                             (0, 4, 1, "k must be at least 1")):
        for build in (wg_gram, wg_table):
            with pytest.raises(ValueError, match=f"^{message}$"):
                build(k, n, s, "noncrossing")


def test_wg_leading_coeff_refuses_singletons_without_s1():
    # "singletons" is the trivial inner group; at s = 3 the inverse inner
    # Gram would give 1/9 on the first index of order 2, for no quantum group
    for k, s in ((1, 2), (2, 3), (3, 5)):
        first = wg_indices(k, "singletons")[0]
        with pytest.raises(ValueError, match=f"needs s = 1, got s = {s}"):
            wg_leading_coeff(first, first, s, "singletons")
    first = wg_indices(2, "singletons")[0]
    assert wg_leading_coeff(first, first, 1, "singletons") == 1


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
    return sum((Fraction(table.wnum[t][u], table.wden)
                for t in support(outer_row, inner_row)
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


# sha256 of wg_leading_coeff over every index pair, rows in wg_indices order,
# entries as str(Fraction) joined by spaces and rows by newlines; the values
# of the product over the outer blocks of p of the inner Weingarten entries
# at the restricted inner partitions, computed block by block; "singletons"
# only at s = 1, the trivial inner group's one s
LEADING_DIGESTS = {
    ("noncrossing", 4, 1):
        "f70b94aeb67de2a5eb4bd8c2ea85128f13776cb545a661abe422b378a6cf3099",
    ("noncrossing", 4, 2):
        "0d64d3e7ab346dfca7ba075efccef8cff8d1f24b0c237e971c9b3f61afe83072",
    ("noncrossing", 4, 3):
        "328e69691c7eeb62ffa2298fc7c26911145d3ed1d0e745bdf8aeaf928c89fcc8",
    ("noncrossing", 4, 4):
        "b1a786d2e2795a64e30b5f09d91c9cd247a4b7d4df2e8640f05b393bee463ec1",
    ("noncrossing", 4, 5):
        "ade07596e7e994feaae9be50c9bd88ec53874699ac10e4dd5be33688488fa16a",
    ("all", 5, 1):
        "bd82a28b1f088b3a186737712fb16fe7323aecb3abc234b38c9534349aaa1757",
    ("all", 5, 2):
        "e71fd44ea68fc500acf7d48ca0cd10f28cb59a39bb57cc819ea400a035366b19",
    ("all", 5, 3):
        "a5a7ee6b213559550d22cf08318cbaec76eede882e9a8d56a4432c3069f337c8",
    ("all", 5, 4):
        "e6a6cc9f1e82e049cd4ed0b62130ba5703478911b34a9c12e6a4eae43685d2cf",
    ("singletons", 1, 1):
        "6b86b273ff34fce19d6b804eff5a3f5747ada4eaa22f1d49c01e52ddb7875b4b",
    ("singletons", 1, 2):
        "efff5df765588565b88b1ded5d6014ff6808f137207cd5be6973b119e1c5c26b",
    ("singletons", 1, 3):
        "814c218eb642191eab0a5180d75abf70ba2f3099fa3388ea6b989556ca47cd2a",
    ("singletons", 1, 4):
        "651b8c2953b77f9df30aae9b65b801bf8493d3278b8076ee846fa6542722902e",
    ("singletons", 1, 5):
        "cfd72a14c1e7759a3a7383acf8958842106cce1178602a379309243e50dca5f0",
    ("singletons", 1, 6):
        "5aa76dc8f5799ec81f02cbe498d1b682ed3cd477c308152f8e2196cc7170022d",
}


def test_leading_coeff_digest():
    for (category, s, k), digest in LEADING_DIGESTS.items():
        indices = wg_indices(k, category)
        text = "\n".join(" ".join(str(wg_leading_coeff(a, b, s, category))
                                   for b in indices) for a in indices)
        assert hashlib.sha256(text.encode()).hexdigest() == digest, \
            (category, s, k)


@pytest.mark.parametrize("k, s, category", [
    (k, s, c) for k in (1, 2, 3, 4)
    for s, c in ((4, "noncrossing"), (5, "all"), (3, "singletons"))])
def test_leading_coeff_inverts_inner_gram_blocks(k, s, category):
    # for one outer p, the coefficients times [s^b(a v b)] over the inner
    # partitions a of the indices (p, a) give the identity; across p, zero
    indices = wg_indices(k, category)
    if category == "singletons":
        # the trivial inner group is refused at s != 1 and checked at s = 1
        with pytest.raises(ValueError, match=f"needs s = 1, got s = {s}"):
            wg_leading_coeff(indices[0], indices[0], s, category)
        s = 1
    for p in {p for p, _ in indices}:
        run = [idx for idx in indices if idx[0] == p]
        gram = [[s ** c for c in row]
                for row in _join_counts([a for _, a in run], range(len(run)))]
        coeffs = [[wg_leading_coeff(x, y, s, category) for y in run]
                  for x in run]
        assert [[sum(map(mul, row, col)) for col in zip(*gram)]
                for row in coeffs] == \
            [[int(i == j) for j in range(len(run))] for i in range(len(run))]
    assert all(wg_leading_coeff(x, y, s, category) == 0
               for x in indices for y in indices if x[0] != y[0])


def test_leading_coeff_refusals():
    whole = Partition(0, 4, [[1, 2, 3, 4]])
    crossing = Partition(0, 4, [[1, 3], [2, 4]])
    with pytest.raises(ValueError):     # a crossing inner partition
        wg_leading_coeff((whole, crossing), (whole, crossing), 4,
                         "noncrossing")
    with pytest.raises(ValueError):     # an outer partition that crosses
        wg_leading_coeff((crossing, crossing), (crossing, crossing), 4, "all")
    # both indices are looked up before their outer partitions are compared:
    # an index of another order is refused, in either place
    one = wg_indices(1, "noncrossing")[0]
    for pair in ((one, (whole, whole)), ((whole, whole), one)):
        with pytest.raises(ValueError, match="is not an index of order"):
            wg_leading_coeff(*pair, 4, "noncrossing")
    with pytest.raises(ValueError, match="is not an index of order 1"):
        wg_leading_coeff(wg_indices(1)[0], wg_indices(2)[0], 1, "singletons")
    # the category is checked before the outer partitions are compared
    for category in ("nope", "pairings"):
        with pytest.raises(ValueError, match="unknown category"):
            wg_leading_coeff(*wg_indices(2)[:2], 4, category)
    with pytest.raises(ZeroDivisionError, match="matrix is singular"):
        wg_leading_coeff((whole, whole), (whole, whole), 3, "all")


def test_scaled_errors_zero_at_k1():
    # one index, and W = 1/(N s) is its own leading term at every N
    report = wg_certify_asymptotics(1, 4, "noncrossing")
    assert report.passed
    assert [c.detail for c in report.checks] == [
        "max scaled error 0 at N=64", "max scaled error 0 at N=256",
        "0 -> 0 -> 0"]


def test_scaled_errors_need_square():
    # the scale sqrt(N)^(b(p)+b(q)) is an exact integer only at squares,
    # and the ladder quadruples N from one
    assert all(math.isqrt(n) ** 2 == n for n in LADDER)
    assert all(b == 4 * a for a, b in zip(LADDER, LADDER[1:]))


def _scaled_leading(monkeypatch, factor):
    leading = weingarten._leading_coeffs

    def scaled(k, s, c):
        cnum, cden = leading(k, s, c)
        return tuple(tuple(factor * x for x in row) for row in cnum), cden

    monkeypatch.setattr(weingarten, "_leading_coeffs", scaled)


def test_certification_reports_violations(monkeypatch):
    # a leading term twice too large: the errors settle at c/2 and stop
    # halving; the first four violating index pairs are named at each step
    _scaled_leading(monkeypatch, 2)
    assert wg_certify_asymptotics(2, 4, "noncrossing").render() == (
        "verify weingarten asymptotics k=2 s=4 noncrossing: FAIL\n"
        "  FAIL: scaled error halves from N=16 to N=64 on all 9 entries "
        "[violations at index pairs [(0, 0), (1, 1), (1, 2), (2, 1)]]\n"
        "  FAIL: scaled error halves from N=64 to N=256 on all 9 entries "
        "[violations at index pairs [(0, 0), (1, 1), (1, 2), (2, 1)]]\n"
        "  FAIL: largest scaled error decreases monotonically along the "
        "ladder [1/3 -> 1/3 -> 1/3]")
    # a zero leading term: the diagonal errors shrink but do not halve
    _scaled_leading(monkeypatch, 0)
    assert wg_certify_asymptotics(2, 1, None).render() == (
        "verify weingarten asymptotics k=2 s=1 singletons: FAIL\n"
        "  FAIL: scaled error halves from N=16 to N=64 on all 4 entries "
        "[violations at index pairs [(0, 0), (1, 1)]]\n"
        "  FAIL: scaled error halves from N=64 to N=256 on all 4 entries "
        "[violations at index pairs [(0, 0), (1, 1)]]\n"
        "  ok: largest scaled error decreases monotonically along the "
        "ladder [16/15 -> 64/63 -> 256/255]")


def test_certification_passes():
    for s, cat in ((4, "noncrossing"), (3, "all"), (1, "singletons")):
        for k in (2, 3):
            report = wg_certify_asymptotics(k, s, cat)
            assert report.passed, report.render()


def fraction_certify(k, s, category):
    """The certification pass over Fractions, three scaled errors per entry,
    with the leading coefficients read one by one: the oracle of
    wg_certify_asymptotics's integer pass.  Its tables are read through
    weingarten.wg_table, so a test that replaces that reaches both."""
    if s < 1:
        raise ValueError(f"s must be positive, got {s}")
    category = weingarten._category_in_effect(s, category)
    report = VerificationReport(f"weingarten asymptotics k={k} s={s} {category}")
    tables = [weingarten.wg_table(k, n, s, category) for n in LADDER]
    indices = tables[0].indices
    coeffs = [[wg_leading_coeff(x, y, s, category) for y in indices]
              for x in indices]
    blocks = [p.block_count() for p, _ in indices]
    worst = [Fraction(0)] * len(LADDER)
    bad = [[] for _ in LADDER[1:]]
    for t, bp in enumerate(blocks):
        for u, bq in enumerate(blocks):
            c = coeffs[t][u]
            # |wnum/wden - c/N^b(p)| * sqrt(N)^(b(p)+b(q)), each N a square
            errors = [Fraction(abs(w.wnum[t][u] * n ** bp * c.denominator
                                   - c.numerator * w.wden)
                               * math.isqrt(n) ** (bp + bq),
                               w.wden * n ** bp * c.denominator)
                      for n, w in zip(LADDER, tables)]
            for e0, e1, violations in zip(errors, errors[1:], bad):
                if e1 * 2 > e0 and len(violations) < 4:
                    violations.append((t, u))
            worst = list(map(max, worst, errors))
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


def _outcome(certify, *args):
    """The rendered report, or the type and message of what was raised."""
    try:
        return certify(*args).render()
    except (ValueError, ArithmeticError) as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("category", (*CATEGORIES, None))
@pytest.mark.parametrize("s", (1, 2, 3, 4, 5))
def test_integer_certification_matches_fraction_oracle(s, category):
    # every order to 4, the singular inner Grams included (S_s with s < k,
    # S_s^+ with s < 4), raise as the oracle does or render as it does
    outcomes = [(k, _outcome(wg_certify_asymptotics, k, s, category))
                for k in range(1, 5)]
    assert outcomes == [(k, _outcome(fraction_certify, k, s, category))
                        for k in range(1, 5)]
    if category == "singletons" and s != 1:
        # the trivial inner group needs s = 1, so every order refuses
        assert outcomes == [(k, ("ValueError", "category 'singletons' is the "
                                 "trivial inner group, which needs s = 1, "
                                 f"got s = {s}")) for k in range(1, 5)]
        return
    in_effect = weingarten._category_in_effect(s, category)
    assert [k for k, o in outcomes if isinstance(o, tuple)] == \
        [k for k in range(1, 5) if (k, s, in_effect) in SINGULAR]


# the orders, s and categories up to k = 4 whose Gram matrices are singular
SINGULAR = {(3, 2, "noncrossing"), (4, 2, "noncrossing"), (3, 2, "all"),
            (4, 2, "all"), (4, 3, "all")}


@pytest.mark.parametrize("k, s, category, rung, entry", [
    (3, 4, "noncrossing", 1, (4, 7)), (4, 1, "singletons", 2, (3, 3)),
    (4, 5, "all", 2, (10, 2)), (2, 4, "noncrossing", 1, (0, 0))])
def test_perturbed_table_reports_as_the_oracle(monkeypatch, k, s, category,
                                               rung, entry):
    # one Weingarten entry moved by 1 at one N past the first, so that its
    # scaled error cannot halve into that N: both passes name the same
    # violations and the same maxima
    table = weingarten.wg_table

    def perturbed(k, n, s, category):
        w = table(k, n, s, category)
        if n != LADDER[rung]:
            return w
        rows = [list(row) for row in w.wnum]
        t, u = entry
        rows[t][u] += w.wden
        return w._replace(wnum=tuple(map(tuple, rows)))

    monkeypatch.setattr(weingarten, "wg_table", perturbed)
    report = wg_certify_asymptotics(k, s, category)
    assert report.render() == fraction_certify(k, s, category).render()
    assert not report.passed


@pytest.mark.parametrize("factor", (0, 2, 3))
def test_scaled_leading_terms_report_as_the_oracle(monkeypatch, factor):
    # leading terms off by a factor: the scaled errors settle instead of
    # halving, near the boundary of the halving test
    _scaled_leading(monkeypatch, factor)
    for k, s, category in ((2, 4, "noncrossing"), (3, 1, None),
                           (3, 5, "all"), (4, 4, "noncrossing")):
        report = wg_certify_asymptotics(k, s, category)
        assert report.render() == fraction_certify(k, s, category).render()
        assert not report.passed


def test_certification_makes_one_fraction_per_rung(monkeypatch):
    # the scaled errors stay integers; only each N's maximum is a Fraction,
    # on a cold cache of leading coefficients too
    made = []
    monkeypatch.setattr(weingarten, "Fraction",
                        lambda *args: made.append(args) or Fraction(*args))
    weingarten._leading_coeffs.cache_clear()
    for k, s, category in ((4, 4, "noncrossing"), (5, 1, None),
                           (3, 5, "all")):
        del made[:]
        assert wg_certify_asymptotics(k, s, category).passed
        assert len(made) <= len(LADDER), (k, s, category)


# ---------------------------------------------------------------------------
# rotation orbits and the integer table


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
    return tuple(_join_counts(parts, range(len(parts)))
                 for parts in zip(*wg_indices(k, category)))


@st.composite
def table_parameters(draw):
    category = draw(st.sampled_from(CATEGORIES))
    k = draw(st.integers(1, 5))
    n = draw(st.sampled_from((4, 5, 9)))
    # inner Grams regular: S_s^+ needs s >= 4, S_s needs s >= k; the
    # trivial inner group acts on one point, s = 1, whatever s is drawn
    low = {"noncrossing": 4, "all": max(k, 2), "singletons": 1}[category]
    s = draw(st.integers(low, low + 3))
    return k, n, 1 if category == "singletons" else s, category


@settings(max_examples=30)
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
    assert [[Fraction(x, table.wden) for x in row]
            for row in table.wnum] == winv


@pytest.mark.parametrize("category, n, s, top", (
    ("noncrossing", 5, 4, 4), ("all", 4, 4, 4), ("singletons", 4, 1, 5)))
def test_table_matches_gauss_jordan(category, n, s, top):
    # the Fraction oracle takes tens of seconds at the 273 and 288 indices
    # of k = 5 in the two inner categories; the property test above
    # compares those with the full-width integer inverse
    for k in range(1, top + 1):
        table = wg_table(k, n, s, category)
        assert [[Fraction(x, table.wden) for x in row]
                for row in table.wnum] == gauss_jordan_inverse(wg_gram(k, n, s, category))
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
    reps = weingarten._index_space(7, "singletons").reps
    assert len(table.indices) == 429 and len(reps) == 63
    _assert_integer_columns(table, reps)


class _Stop(Exception):
    pass


@pytest.mark.parametrize("k, orbits, m", ((6, 28, 132), (7, 63, 429)))
def test_work_scales_with_the_orbits(monkeypatch, k, orbits, m):
    # join rows and inverse columns only at the orbit representatives, and
    # one join per distinct pair of partitions: one outer join per
    # representative row and index (the outer partitions of "singletons"
    # are distinct), one inner join (its inner partitions are one), and one
    # inverse column per representative
    merges = []
    merge = partition._merge

    def counted(*args):
        merges.append(1)
        return merge(*args)

    weingarten._index_space.cache_clear()
    monkeypatch.setattr(partition, "_merge", counted)
    weingarten._index_space(k, "singletons")
    monkeypatch.setattr(partition, "_merge", merge)
    weingarten._index_space.cache_clear()
    assert len(merges) == orbits * m + 1

    calls = []

    def stop(matrix, cols=None):
        calls.append((len(matrix), list(cols)))
        raise _Stop     # the elimination itself is not needed here

    monkeypatch.setattr(weingarten, "bareiss_inverse", stop)
    with pytest.raises(_Stop):
        wg_table(k, 4, 1)
    assert calls == [(m, list(weingarten._index_space(k, "singletons").reps))]
    assert len(calls[0][1]) == orbits


def test_orbit_counts():
    for k, category, orbits, m in ((4, "noncrossing", 19, 55),
                                   (6, "singletons", 28, 132),
                                   (7, "singletons", 63, 429)):
        space = weingarten._index_space(k, category)
        assert (len(space.reps), len(space.sigma)) == (orbits, m)
        assert space.indices == wg_indices(k, category)
        assert [space.position[idx] for idx in space.indices] == list(range(m))
        # sigma is the rotation, a permutation of order dividing k
        assert list(space.sigma) == _rotation(k, category)
        assert sorted(space.sigma) == list(range(m))
        assert all(space.sigma[space.unsigma[t]] == t for t in range(m))
        power = list(range(m))
        for _ in range(k):
            power = [space.sigma[t] for t in power]
        assert power == list(range(m))
        # each representative is the least index of its orbit, and the
        # orbits cover the indices
        covered = []
        for t in space.reps:
            orbit = [t]
            while space.sigma[orbit[-1]] != t:
                orbit.append(space.sigma[orbit[-1]])
            assert min(orbit) == t
            covered += orbit
        assert sorted(covered) == list(range(m))
