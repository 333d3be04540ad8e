import itertools
import math
import random
from fractions import Fraction

import pytest

from freewreath import freeprob, homspaces
from freewreath.config import CapExceededError
from freewreath.freeprob import (all_eps, brute_force_z2_s3_moments,
                                 character_moment_wreath,
                                 character_moments_wreath,
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
        wreath = character_moments_wreath(fd, rep, 4)
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
    assert value == compound_poisson_moments(S3, rep, n)[plain_eps(n)]


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
    # order 15 is over the default cap of 14: refused before any shorter
    # word is summed, and classical and the truncated character law before
    # any block moment is taken
    def refuse(*args):
        raise AssertionError("summed before the cap was checked")

    # the first-block sum over block choices is replaced, and so are the
    # Hom partition route's own recursion and the tensor_fold it runs on
    monkeypatch.setattr(freeprob, "_nc_sum", refuse)
    monkeypatch.setattr(freeprob, "_boundary_moment", refuse)
    monkeypatch.setattr(homspaces, "_boundary_moment", refuse)
    monkeypatch.setattr(homspaces, "tensor_fold", refuse)
    with pytest.raises(CapExceededError):
        compound_poisson_moments(Z2, "g", 15)
    with pytest.raises(CapExceededError):
        character_moment_wreath(Z2, "g", plain_eps(15))
    with pytest.raises(CapExceededError):
        homspaces.dim_hom_partition(("g",) * 5, ("g",) * 10, Z2)
    with pytest.raises(CapExceededError):
        partial_trace_moments(Fraction(1, 2), refuse, 15)
    with pytest.raises(CapExceededError):
        character_moments_wreath(Z2, "g", 15)
    with pytest.raises(CapExceededError):
        classical_wreath_moment(refuse, 3, 15)


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
