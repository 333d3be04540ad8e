"""Acceptance suite: ten structural criteria, one printed line each.

Every criterion is exact (integer or rational equality); the Weingarten
asymptotics criterion alone is a monotone ratio test along an N-ladder, since
it certifies a limit statement rather than an identity.
"""

import itertools
import random

from freewreath.exactmat import bareiss_det_rank
from freewreath.freeprob import (all_eps, brute_force_z2_s3_moments,
                                 character_moment_wreath,
                                 classical_wreath_moment,
                                 compound_poisson_moments, plain_eps,
                                 z2_block_moment)
from freewreath.fusion import (central_char_poly, cyclic_fusion, dim_wreath,
                               symmetric_group_3_fusion,
                               verify_dim_multiplicativity)
from freewreath.homspaces import dim_hom_wreath
from freewreath.linmaps import verify_category_relations
from freewreath.tl import verify_phi
from freewreath.weingarten import (haar_state, wg_certify_asymptotics, wg_gram,
                                   wg_table)

Z2 = cyclic_fusion(2)
Z3 = cyclic_fusion(3)
S3 = symmetric_group_3_fusion()
TEST_FUSION = (Z2, Z3, S3)


def _report(num: int, ok: bool, text: str) -> bool:
    print(f"criterion {num:2d} {'PASS' if ok else 'FAIL'}: {text}")
    return ok


def test_criterion_1_category_relations():
    ok = True
    for n in (2, 3, 4, 5):
        report = verify_category_relations(n, max_points=6)
        ok = ok and report.passed
    assert _report(1, ok, "partition map category relations, N in 2..5, "
                          "up to 6 points")


def test_criterion_2_linear_independence_threshold():
    rank4, det4 = bareiss_det_rank(wg_gram(6, 4, 1, "singletons"))
    rank3, det3 = bareiss_det_rank(wg_gram(6, 3, 1, "singletons"))
    ok = det4 != 0 and rank4 == 132 and det3 == 0 and rank3 == 122
    assert _report(2, ok, "NC(6) Gram rank 132 at N=4, rank 122 at N=3")


def test_criterion_3_collapsing_isomorphism():
    report = verify_phi(max_points=6)
    assert _report(3, report.passed,
                   "collapsing isomorphism respects compose, tensor, "
                   "involution, and the traces up to 6 points")


def test_criterion_4_dimension_multiplicativity():
    rng = random.Random(2024)
    checked, ok = 0, True
    for fd in TEST_FUSION:
        for n in (4, 9):
            report = verify_dim_multiplicativity(fd, n, rng, 40)
            checked += 40
            ok = ok and report.passed
    assert checked >= 200
    assert _report(4, ok, f"dimension multiplicative on {checked} random "
                          "fusion products at N=4 and N=9")


def test_criterion_5_dual_path_hom_dimensions():
    ok = True
    for fd in TEST_FUSION:
        labels = fd.labels()
        for k in range(0, 5):
            for tup in itertools.product(labels, repeat=k):
                a = dim_hom_wreath((), tup, fd, method="partition")
                b = dim_hom_wreath((), tup, fd, method="fusion")
                ok = ok and a == b
    assert _report(5, ok, "invariant dimensions agree between the partition "
                          "count and iterated fusion, all words up to "
                          "length 4")


def test_criterion_6_compound_poisson_character_law():
    ok = True
    for fd, rep in ((Z2, "g"), (Z2, "1"), (Z3, "g"), (S3, "std"), (S3, "sgn")):
        wreath = {eps: character_moment_wreath(fd, rep, eps)
                  for k in range(1, 6) for eps in all_eps(k)}
        poisson = compound_poisson_moments(fd, rep, 5)
        ok = ok and wreath == poisson
    catalan = [character_moment_wreath(Z2, "1", plain_eps(k))
               for k in (1, 2, 3, 4)]
    ok = ok and catalan == [1, 2, 5, 14]
    assert _report(6, ok, "character of a basic representation is free "
                          "compound Poisson, all eps words up to length 5")


def test_criterion_7_classical_brute_force():
    ok = True
    for rep in ("sign", "regular"):
        brute = brute_force_z2_s3_moments(rep, 4)
        bm = z2_block_moment(rep)
        formula = [classical_wreath_moment(bm, 3, k) for k in range(5)]
        ok = ok and formula == brute
    assert _report(7, ok, "classical wreath moments equal the 48-element "
                          "group average, both representations, k <= 4")


def test_criterion_8_weingarten_degeneration(projection_oracle):
    ok = True
    for n in (4, 5):
        for k in (1, 2, 3):
            table = wg_table(k, n, 1)
            entry = projection_oracle(k, n)
            for row in itertools.product(range(1, n + 1), repeat=k):
                for col in itertools.product(range(1, n + 1), repeat=k):
                    got = haar_state(table, (1,) * k, (1,) * k, row, col)
                    ok = ok and got == entry(row, col)
    # magic unitary marginals: row sums are the identity in expectation
    for n in (4, 5):
        t1 = wg_table(1, n, 1)
        total = sum(haar_state(t1, (1,), (1,), (1,), (c,))
                    for c in range(1, n + 1))
        ok = ok and total == 1
        t2 = wg_table(2, n, 1)
        for r in ((1, 1), (1, 2)):
            s2 = sum(haar_state(t2, (1, 1), (1, 1), r, (r[0], c))
                     for c in range(1, n + 1))
            ok = ok and s2 == haar_state(t1, (1,), (1,), (r[0],), (r[0],))
    assert _report(8, ok, "s=1 Haar states equal the projection onto the "
                          "noncrossing span at N=4,5, words up to length 3, "
                          "with unit row sums")


def test_criterion_9_weingarten_asymptotics():
    ok = True
    for s, category in ((4, "noncrossing"), (3, "all"), (1, "singletons")):
        for k in (1, 2, 3):
            report = wg_certify_asymptotics(k, s, category)
            ok = ok and report.passed
    assert _report(9, ok, "Weingarten entries concentrate on the leading "
                          "term, scaled errors at least halving per "
                          "N-quadrupling, k <= 3")


def test_criterion_10_central_character_polynomial():
    rng = random.Random(777)
    ok = True
    for _ in range(100):
        fd = TEST_FUSION[rng.randrange(3)]
        labels = fd.labels()
        word = tuple(rng.choice(labels) for _ in range(rng.randrange(5)))
        poly = central_char_poly(word, fd)
        for n in (4, 9):
            value = sum(c * n ** i for i, c in enumerate(poly))
            ok = ok and value == dim_wreath(word, fd, n)
    assert _report(10, ok, "central character polynomial evaluates to the "
                           "dimension on 100 random words at N=4 and N=9")
