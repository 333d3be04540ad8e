import itertools
import math
import random
import sys
import traceback
from fractions import Fraction

import pytest

from freewreath import config, freeprob, homspaces
from freewreath.config import CapExceededError
from freewreath.freeprob import (all_eps, brute_force_z2_s3_moments,
                                 character_moment_wreath,
                                 classical_wreath_moment,
                                 compound_poisson_law,
                                 compound_poisson_moments,
                                 free_cumulants_to_moments, moment_of_rep,
                                 moments_to_free_cumulants, parse_eps,
                                 partial_trace_moments, plain_eps,
                                 render_eps, rep_block_moment,
                                 z2_block_moment)
from builders import S3_ELEMENTS, group_dual_json, s3_product
from freewreath.fusion import (cyclic_fusion, fusion_from_json, rep_as_dict,
                               symmetric_group_3_fusion)
from freewreath.homspaces import dim_hom_wreath
from freewreath.partition import enumerate_partitions

Z2 = cyclic_fusion(2)
Z3 = cyclic_fusion(3)
S3 = symmetric_group_3_fusion()
# noncommutative letters
S3_DUAL = fusion_from_json(group_dual_json(S3_ELEMENTS, s3_product))
# reducible representations: two constituents each
REDUCIBLE = ((S3, {"std": 1, "sgn": 1}), (Z3, {"g": 2, "1": 1}),
             (S3_DUAL, {"213": 1, "231": 2}))


def partition_sum(n, mode, term):
    """Oracle: sum of term(blocks) over every partition of the points 1..n."""
    return sum(term(p.blocks) for p in enumerate_partitions(0, n, mode=mode))


def nc_cumulant_sum(cumulants, eps):
    """Oracle: sum over NC(|eps|) of prod over blocks of k(eps|block)."""
    return partition_sum(len(eps), "noncrossing", lambda blocks: math.prod(
        cumulants[tuple(eps[i - 1] for i in b)] for b in blocks))


def test_eps_parsing():
    # one character per tensor position: '1' plain, '*' starred
    assert parse_eps("11*1") == (False, False, True, False)
    assert parse_eps("*1") == (True, False)
    assert parse_eps("") == ()
    assert render_eps((False, True)) == "1*"
    assert render_eps(()) == ""
    assert parse_eps(render_eps((True, False, True))) == (True, False, True)
    with pytest.raises(ValueError):
        parse_eps("x")
    assert list(all_eps(1)) == [(False,), (True,)]
    assert plain_eps(3) == (False, False, False)


def test_rep_as_dict():
    assert rep_as_dict(Z2, "g") == {"g": 1}
    assert rep_as_dict(Z3, {"g": 2, "1": 1}) == {"g": 2, "1": 1}
    with pytest.raises(ValueError):
        rep_as_dict(Z2, "nope")


def test_moment_of_rep():
    # chi_g over Z/2 takes values +-1: even moments 1, odd moments 0
    for k in range(1, 6):
        expect = 1 if k % 2 == 0 else 0
        assert moment_of_rep(Z2, "g", plain_eps(k)) == expect
    # std character of S3: moments are multiplicities of triv in std^k
    assert moment_of_rep(S3, "std", plain_eps(2)) == 1
    assert moment_of_rep(S3, "std", plain_eps(3)) == 1
    assert moment_of_rep(S3, "std", plain_eps(4)) == 3
    # over Z/3 the star matters
    assert moment_of_rep(Z3, "g", (False, False)) == 0
    assert moment_of_rep(Z3, "g", (False, True)) == 1


def test_cumulant_transform_round_trip():
    rng = random.Random(31)
    keys = [eps for k in range(1, 5) for eps in all_eps(k)]
    cum = {eps: Fraction(rng.randrange(-4, 5)) for eps in keys}
    mom = free_cumulants_to_moments(cum)
    back = moments_to_free_cumulants(mom)
    assert back == cum


def test_transforms_match_partition_oracle():
    rng = random.Random(7)
    keys = [eps for k in range(7) for eps in all_eps(k)]  # () included
    cum = {eps: Fraction(rng.randrange(-5, 6), rng.randrange(1, 5))
           for eps in keys}
    assert free_cumulants_to_moments(cum) == \
        {eps: nc_cumulant_sum(cum, eps) for eps in keys}
    mom = {eps: Fraction(rng.randrange(-5, 6), rng.randrange(1, 5))
           for eps in keys}
    expect: dict = {}
    for eps in keys:  # by increasing length; the one-block term counts 0
        expect[eps] = 0
        expect[eps] = mom[eps] - nc_cumulant_sum(expect, eps)
    assert moments_to_free_cumulants(mom) == expect


def test_semicircle_from_cumulants():
    # second cumulant 1, all else 0: Catalan moments on even lengths
    keys = [eps for k in range(1, 7) for eps in all_eps(k)]
    cum = {eps: Fraction(1) if len(eps) == 2 else Fraction(0) for eps in keys}
    mom = free_cumulants_to_moments(cum)
    assert [mom[plain_eps(k)] for k in (2, 4, 6)] == [1, 2, 5]
    assert mom[plain_eps(3)] == 0


def test_free_poisson_from_cumulants():
    # all cumulants 1: moments are Bell-like noncrossing counts (Catalan)
    keys = [eps for k in range(1, 5) for eps in all_eps(k)]
    cum = {eps: Fraction(1) for eps in keys}
    mom = free_cumulants_to_moments(cum)
    assert [mom[plain_eps(k)] for k in (1, 2, 3, 4)] == [1, 2, 5, 14]


def test_character_is_free_compound_poisson():
    # the character law of r(rep) has free cumulants equal to the G-moments
    for fd, rep in ((Z2, "g"), (Z3, "g"), (S3, "std"), (Z2, "1"),
                    (S3, {"std": 1, "sgn": 1})):
        wreath = {eps: character_moment_wreath(fd, rep, eps)
                  for k in range(1, 5) for eps in all_eps(k)}
        poisson = compound_poisson_moments(fd, rep, 4)
        assert wreath == poisson, (fd, rep)


def test_single_word_compound_poisson_moment():
    # one word from its own subwords equals that word in the full table
    for fd, rep in ((Z2, "g"), (Z3, "g"), (S3, "std"), (S3, {"std": 1, "sgn": 1})):
        table = compound_poisson_moments(fd, rep, 6)
        for eps, value in table.items():
            assert compound_poisson_law(fd, rep)[eps] == value, (rep, eps)


def expanded_character_moment(fd, rep, eps):
    """Oracle: one Hom count per choice of a constituent at every position,
    weighted by the product of the chosen multiplicities."""
    rd = rep_as_dict(fd, rep)
    rd_bar = {fd.conj(a): m for a, m in rd.items()}
    total = 0
    for choices in itertools.product(*((rd_bar if star else rd).items()
                                       for star in eps)):
        letters = tuple(a for a, _ in choices)
        total += math.prod(m for _, m in choices) * \
            dim_hom_wreath((), letters, fd, method="partition")
    return total


def test_ring_element_letters_match_the_constituent_expansion():
    for fd, rep in REDUCIBLE:
        for k in range(7):
            for eps in all_eps(k):
                assert character_moment_wreath(fd, rep, eps) == \
                    expanded_character_moment(fd, rep, eps), (rep, eps)


def test_ring_element_letters_make_quadratically_many_tensor_calls():
    # one recursion with the two-constituent rep as every letter: one tensor
    # step per (start, end) pair, each at most one tensor call per pair of an
    # irreducible in the carried element and a constituent of the letter
    fd = symmetric_group_3_fusion()
    calls = []
    tensor = fd.tensor

    def counted(a, b):
        calls.append((a, b))
        return tensor(a, b)

    fd.tensor = counted
    rep, n = {"std": 1, "sgn": 1}, 10
    value = character_moment_wreath(fd, rep, plain_eps(n))
    assert len(calls) <= 2 * len(fd.labels()) * n * (n - 1) // 2
    assert value == compound_poisson_law(S3, rep)[plain_eps(n)]


def test_character_moment_trivial_letter_catalan():
    for k, c in enumerate((1, 2, 5, 14), start=1):
        assert character_moment_wreath(Z2, "1", plain_eps(k)) == c


def test_partial_trace_moments():
    half = Fraction(1, 2)
    bm = rep_block_moment(cyclic_fusion(1), "1")
    vals = [partial_trace_moments(half, bm, k) for k in (1, 2, 3, 4)]
    assert vals == [half, Fraction(3, 4), Fraction(11, 8), Fraction(45, 16)]
    # rate 1 recovers the untruncated moments
    for k in (1, 2, 3, 4):
        assert partial_trace_moments(1, bm, k) == \
            character_moment_wreath(cyclic_fusion(1), "1", plain_eps(k))
    for t, k in ((2, 3), (-1, 3), (half, -1)):
        with pytest.raises(ValueError):
            partial_trace_moments(t, bm, k)


def test_partial_trace_matches_partition_oracle():
    for fd, rep in ((Z2, "1"), (Z2, "g"), (S3, "std")):
        bm = rep_block_moment(fd, rep)
        for t in (0, Fraction(1, 3), Fraction(1, 2), 1):
            for k in range(9):
                expect = partition_sum(k, "noncrossing", lambda blocks: (
                    Fraction(t) ** len(blocks)
                    * math.prod(bm(len(b)) for b in blocks)))
                assert partial_trace_moments(t, bm, k) == expect, (rep, t, k)


def test_classical_matches_partition_oracle():
    for rep in ("sign", "regular"):
        bm = z2_block_moment(rep)
        for n in range(6):
            for k in range(9):
                expect = partition_sum(k, "all", lambda blocks: (
                    math.prod(bm(len(b)) for b in blocks)
                    if len(blocks) <= n else 0))
                assert classical_wreath_moment(bm, n, k) == expect, (rep, n, k)


def test_cap_checked_before_any_sum(monkeypatch):
    # the transforms that sum over block choices refuse a word of 15 letters,
    # over the default enumeration cap of 14, before any shorter word is
    # summed; the plain orders, the Hom route and the classical recursion
    # refuse a count of work over the entry cap before any block moment is
    # taken, and a t with a huge denominator is such a count at order 3
    def refuse(*args):
        raise AssertionError("summed before the cap was checked")

    # the first-block sum over block choices is replaced, and so are the
    # Hom partition route's own recursion and the tensor_fold it runs on
    monkeypatch.setattr(freeprob, "_nc_sum", refuse)
    monkeypatch.setattr(freeprob, "_plain_moments", refuse)
    monkeypatch.setattr(freeprob, "_boundary_moments", refuse)
    monkeypatch.setattr(homspaces, "_boundary_moments", refuse)
    monkeypatch.setattr(homspaces, "tensor_fold", refuse)
    with pytest.raises(CapExceededError):
        compound_poisson_moments(Z2, "g", 15)
    with pytest.raises(CapExceededError):
        dim_hom_wreath(("g",) * 5, ("g",) * 10, Z2, "partition")
    with pytest.raises(CapExceededError, match="order 100000"):
        partial_trace_moments(Fraction(1, 2), refuse, 10 ** 5)
    with pytest.raises(CapExceededError, match="order 3 "):
        partial_trace_moments(Fraction(1, 10 ** 10 ** 6), refuse, 3)
    with pytest.raises(CapExceededError, match="order 100000"):
        classical_wreath_moment(refuse, 3, 10 ** 5)
    with pytest.raises(CapExceededError, match="order 100000"):
        classical_wreath_moment(refuse, 10 ** 30, 10 ** 5)
    with pytest.raises(CapExceededError, match="length 100000"):
        character_moment_wreath(Z2, "g", plain_eps(10 ** 5))
    with pytest.raises(CapExceededError, match="length 100000"):
        freeprob.plain_character_moments(Z2, "g", 10 ** 5)
    with pytest.raises(CapExceededError, match="order 100000"):
        config.check_work_cap(freeprob.char_law_work(Z2, "g", 10 ** 5),
                              "{} steps for the moments to order 100000")


# ---------------------------------------------------------------------------
# the plain-word solver against its oracles

RATES = (0, Fraction(1, 3), Fraction(2, 7), Fraction(1, 2), 1)
RINGS = (cyclic_fusion(1), Z2, Z3, S3, S3_DUAL)


def scaled_first_block_sums(t, bm, k):
    """Oracle: b^n m_n for n <= k from the first-block sum, with the integer
    cumulants a bm(s) b^(s-1) of the plain words, t = a/b."""
    t = Fraction(t)
    a, b = t.numerator, t.denominator
    return free_cumulants_to_moments(
        {plain_eps(s): a * bm(s) * b ** (s - 1) for s in range(1, k + 1)})


def test_plain_solver_matches_free_poisson_closed_form():
    # the trivial block moment: the free Poisson law of rate t, whose k-th
    # moment is the Narayana sum of C(k, j) C(k, j-1) / k t^j
    bm = rep_block_moment(cyclic_fusion(1), "1")
    for t in RATES:
        law = freeprob.partial_trace_law(t, bm, 60)
        assert law[0] == 1
        for k in range(1, 61):
            assert law[k] == sum(
                Fraction(math.comb(k, j) * math.comb(k, j - 1), k)
                * Fraction(t) ** j for j in range(1, k + 1)), (t, k)


def test_plain_solver_matches_first_block_sum():
    # every label of every ring the tests build, and a reducible element, at
    # every rate to order 8; each ring at one rate to order 14, the oracle's
    # enumeration cap
    for i, fd in enumerate(RINGS):
        reps = (*fd.labels(), *(rep for ring, rep in REDUCIBLE if ring is fd))
        for rep in reps:
            bm = rep_block_moment(fd, rep)
            for t in RATES:
                law = freeprob.partial_trace_law(t, bm, 8)
                oracle = scaled_first_block_sums(t, bm, 8)
                assert [law[n] * Fraction(t).denominator ** n
                        for n in range(1, 9)] == \
                    [oracle[plain_eps(n)] for n in range(1, 9)], (rep, t)
        t, bm = RATES[i], rep_block_moment(fd, reps[-1])
        law = freeprob.partial_trace_law(t, bm, 14)
        assert law[14] * Fraction(t).denominator ** 14 == \
            scaled_first_block_sums(t, bm, 14)[plain_eps(14)], (reps[-1], t)


def test_plain_solver_matches_hom_route_to_order_40():
    # the law at rate 1 is the untruncated character law
    rep = {"triv": 1, "std": 1}
    law = freeprob.partial_trace_law(1, rep_block_moment(S3, rep), 40)
    assert law[1:] == \
        [character_moment_wreath(S3, rep, plain_eps(k)) for k in range(1, 41)]


# ---------------------------------------------------------------------------
# the capped counts bound the work they count


def instrument(monkeypatch):
    """Patch freeprob's ``mul`` and ``check_work_cap``; returns the weights
    of the products (one plus the 64-bit words of the larger operand) and
    the counts checked against the cap, in order."""
    weights, counts = [], []
    check = freeprob.check_work_cap

    def counted(x, y):
        weights.append(1 + max(x.bit_length(), y.bit_length()) // 64)
        return x * y

    monkeypatch.setattr(freeprob, "mul", counted)
    monkeypatch.setattr(freeprob, "check_work_cap",
                        lambda count, work: counts.append(count) or
                        check(count, work))
    return weights, counts


def digits(values):
    return sum(len(str(Fraction(v).numerator))
               + len(str(Fraction(v).denominator)) for v in values)


def test_plain_work_bounds_the_solver(monkeypatch):
    weights, counts = instrument(monkeypatch)
    for fd, rep in ((cyclic_fusion(1), "1"), (Z2, "g"), (S3, "std"),
                    (S3, {"std": 2, "sgn": 1})):
        bm = rep_block_moment(fd, rep)
        for t in (*RATES, Fraction(1, 10 ** 30),
                  Fraction(10 ** 20 - 1, 10 ** 20)):
            for k in range(13):
                del weights[:], counts[:]
                law = freeprob.partial_trace_law(t, bm, k)
                assert len(counts) == 2 and counts[0] <= counts[1]
                assert sum(weights) + digits(law[1:]) <= counts[1], (rep, t, k)


def test_classical_work_bounds_the_recursion(monkeypatch):
    weights, counts = instrument(monkeypatch)
    block_moments = (z2_block_moment("sign"), z2_block_moment("regular"),
                     lambda s: 7 ** s - 1)
    for bm in block_moments:
        for n in (0, 1, 3, 7, 20):
            for k in range(15):
                del weights[:], counts[:]
                values = freeprob.classical_wreath_moments(bm, n, k)
                assert len(counts) == 2 and counts[0] <= counts[1]
                # the table of binomials times block moments takes k(k+1)/2
                # products by ``*``, counted here at their largest weight;
                # the moment of order 0 is 1
                table = k * (k + 1) // 2 * (1 + max(
                    (math.comb(k - 1, s - 1) * bm(s)).bit_length()
                    for s in range(1, k + 1)) // 64) if k else 0
                work = sum(weights) + table + digits(values[1:])
                assert work <= counts[1], (n, k)


def test_char_law_work_bounds_both_routes(monkeypatch):
    # the path of char-law --order k: the tensor calls of both routes, the
    # solver's weighted products and the digits of the moments; and the Hom
    # route's tensor calls against the count it checks for its one word
    weights, counts = instrument(monkeypatch)
    for fd, rep in ((cyclic_fusion(2), "g"), (cyclic_fusion(3), "g"),
                    (symmetric_group_3_fusion(), "std"),
                    (symmetric_group_3_fusion(), {"triv": 1, "std": 1}),
                    (fusion_from_json(group_dual_json(S3_ELEMENTS, s3_product)),
                     "231")):
        calls = []
        tensor = fd.tensor
        fd.tensor = lambda a, b: calls.append(1) or tensor(a, b)
        for k in range(1, 13):
            # the counts bound a cold run: no row kept from a shorter word
            homspaces._ROWS.clear()
            del weights[:], counts[:], calls[:]
            law = freeprob.partial_trace_law(1, rep_block_moment(fd, rep), k)
            law_calls = len(calls)
            values = freeprob.plain_character_moments(fd, rep, k)[1:]
            # the law's two checks, then the Hom route's
            assert len(counts) == 3
            assert len(calls) - law_calls <= counts[-1], (rep, k)
            assert law[1:] == values
            assert len(calls) + sum(weights) + digits(values) <= \
                freeprob.char_law_work(fd, rep, k), (rep, k)


@pytest.mark.parametrize("fd, rep", [
    (Z2, "g"), (S3, "std"), (S3, {"triv": 1, "std": 1})])
def test_plain_character_moments_match_each_order(fd, rep):
    # one Hom-route run on the word of 40 letters against one run per order
    assert freeprob.plain_character_moments(fd, rep, 40) == [1] + [
        character_moment_wreath(fd, rep, plain_eps(k)) for k in range(1, 41)]
    assert freeprob.plain_character_moments(fd, rep, 0) == [1]


def test_plain_character_moments_need_no_recursion():
    # the rows are filled shortest suffix first, so an order above the
    # recursion limit still answers: the trivial letter's moments are the
    # Catalan numbers
    order = len(traceback.extract_stack()) + 100
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(order - 70)
    try:
        values = freeprob.plain_character_moments(Z2, "1", order)
    finally:
        sys.setrecursionlimit(limit)
    assert values == [math.comb(2 * k, k) // (k + 1) for k in range(order + 1)]


def test_classical_wreath_small_n_brute_force():
    for rep in ("sign", "regular"):
        brute = brute_force_z2_s3_moments(rep, 4)
        bm = z2_block_moment(rep)
        for k in range(5):
            assert classical_wreath_moment(bm, 3, k) == brute[k], (rep, k)


def test_classical_wreath_frozen_values():
    bm = z2_block_moment("regular")
    assert [classical_wreath_moment(bm, 3, k) for k in range(5)] == \
        [1, 1, 3, 11, 48]
    bm_sign = z2_block_moment("sign")
    assert [classical_wreath_moment(bm_sign, 3, k) for k in range(5)] == \
        [1, 0, 1, 0, 4]


def test_classical_limit_exceeds_truncation():
    bm = z2_block_moment("regular")
    assert classical_wreath_moment(bm, 4, 4) == 49
    assert classical_wreath_moment(bm, 3, 4) == 48
    # monotone in n: more blocks allowed, nonnegative terms
    vals = [classical_wreath_moment(bm, n, 4) for n in (1, 2, 3, 4, 5)]
    assert vals == sorted(vals)
    assert vals[-1] == 49


def test_star_structure_over_z3():
    # chi of r(g) over Z/3 is not self adjoint: eps-moments see the stars
    m_plain = character_moment_wreath(Z3, "g", (False, False, False))
    m_star = character_moment_wreath(Z3, "g", (False, True, False))
    assert (m_plain, m_star) == (1, 0)


@pytest.mark.parametrize("call, message", [
    (lambda: freeprob.classical_wreath_moments(z2_block_moment("regular"),
                                               -1, 3),
     "classical moments need n, k >= 0, got n=-1, k=3"),
    (lambda: z2_block_moment("x"), "unknown representation 'x'"),
    (lambda: brute_force_z2_s3_moments("x", 3), "unknown representation 'x'"),
    (lambda: freeprob.plain_character_moments(Z2, "g", -1),
     "k must be nonnegative, got -1"),
], ids=["classical-n", "block-rep", "brute-force-rep", "plain-order"])
def test_freeprob_refusals(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message
