import random
import re
from fractions import Fraction

import pytest

from freewreath import linmaps
from freewreath.config import CapExceededError
from freewreath.fusion import cyclic_group, symmetric_group_3
from freewreath.linmaps import (GramMatrix, SparseMap, build_group_dual_tp,
                                build_tp, gram_entry_brute, gram_nc,
                                group_dual_block_admissible, identity_map,
                                verify_category_relations,
                                verify_conjugate_equations,
                                verify_gram_methods)
from freewreath.partition import (Partition, discrete_partition,
                                  enumerate_partitions, full_block,
                                  identity_partition, nested_pairing)


def test_build_tp_identity():
    t = build_tp(identity_partition(2), 3)
    assert t == identity_map(2, 3)
    assert t.entries[((1, 1), (1, 1))] == 1
    assert len(t.entries) == 9


def test_build_tp_full_block():
    # one block forces all indices equal: dim nonzero entries
    t = build_tp(full_block(2, 1), 3)
    assert len(t.entries) == 3
    assert t.entries[((1,), (1, 1))] == 1
    assert ((0,), (0, 1)) not in t.entries


def test_build_tp_discrete():
    # all singletons: every entry 1
    t = build_tp(discrete_partition(1, 1), 2)
    assert len(t.entries) == 4
    assert all(v == 1 for v in t.entries.values())


def test_entry_cap():
    with pytest.raises(CapExceededError):
        build_tp(discrete_partition(0, 10), 10, cap=10 ** 6)


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
    res = cup.compose(cap_)
    lhs = build_tp(cup, n).compose(build_tp(cap_, n))
    rhs = build_tp(res.partition, n).scale(Fraction(n) ** res.closed_blocks)
    assert lhs == rhs
    # the scalar map value is N
    assert lhs.entries[((), ())] == n


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


def _drop_first(entries):
    del entries[next(iter(entries))]


def _first_to_two(entries):
    entries[next(iter(entries))] = 2


# a map holding a value other than 1 fails every relation it enters, even
# p tensor (empty) = p, where both sides carry the same corrupt entry
@pytest.mark.parametrize("corrupt, failures", [(_drop_first, (5, 9, 2)),
                                               (_first_to_two, (7, 10, 2))])
def test_verify_category_relations_catches_a_corrupt_map(monkeypatch, corrupt,
                                                         failures):
    target = Partition(1, 2, [(1, 2), (3,)])

    def corrupted_tp(p, dim, cap=None):
        t = build_tp(p, dim, cap)
        if p == target:
            corrupt(t.entries)
        return t

    monkeypatch.setattr(linmaps, "build_tp", corrupted_tp)
    report = verify_category_relations(3, max_points=4)
    assert _failure_counts(report) == failures, report.render()


def test_verify_conjugate_equations():
    for k in (1, 2):
        for n in (2, 4):
            report = verify_conjugate_equations(k, n)
            assert report.passed, report.render()
    # the nested pairing satisfies (T_r* tensor id)(id tensor T_r) = id
    r = nested_pairing(2)
    n = 3
    tr = build_tp(r, n)
    lhs = tr.adjoint().tensor(identity_map(2, n)).compose(
        identity_map(2, n).tensor(tr))
    assert lhs == identity_map(2, n)


def test_gram_entries_match_brute_force():
    rng = random.Random(9)
    for n in (2, 3):
        for k, l in ((0, 2), (1, 1), (0, 3), (2, 1)):
            ps = enumerate_partitions(k, l, mode="noncrossing")
            for _ in range(6):
                p, q = rng.choice(ps), rng.choice(ps)
                join_count = n ** len(p.join(q).blocks)
                assert gram_entry_brute(p, q, n) == join_count


def test_verify_gram_methods():
    for k, l, n in ((0, 4, 3), (0, 5, 2), (0, 5, 4), (2, 2, 3)):
        report = verify_gram_methods(k, l, n)
        assert report.passed, report.render()


def test_gram_rank_small():
    # NC(0,4) Gram at N=2: the vectors span the fixed space of S_2 acting on
    # (C^2)^{x4}, of dimension (tr(id)^4 + tr(swap)^4)/2 = (16 + 0)/2 = 8 < 14
    g = gram_nc(0, 4, 2)
    assert g.is_singular()
    assert g.rank() == 8
    # at N=4 the 14 vectors are independent
    g4 = gram_nc(0, 4, 4)
    assert not g4.is_singular()
    assert g4.rank() == 14


def test_gram_kernel_vector():
    g = gram_nc(0, 4, 2)
    vec = g.kernel_vector()
    assert vec is not None
    m = g.entries
    prod = [sum(m[i][j] * vec[j] for j in range(len(vec)))
            for i in range(len(vec))]
    assert all(x == 0 for x in prod)
    assert any(v != 0 for v in vec)


def test_gram_methods_agree():
    a = gram_nc(1, 2, 3, method="join_formula")
    b = gram_nc(1, 2, 3, method="brute_force")
    assert a.entries == b.entries
    with pytest.raises(ValueError):
        gram_nc(1, 1, 3, method="nonsense")


def test_group_dual_admissibility():
    g3 = symmetric_group_3()
    # ordered product of upper decorations must equal the lower product
    assert group_dual_block_admissible(g3, ("213", "132"), ("213", "132"))
    prod = g3.mult("213", "132")
    assert group_dual_block_admissible(g3, (prod,), ())  is (prod == g3.identity)
    z3 = cyclic_group(3)
    assert group_dual_block_admissible(z3, ("g", "g"), ("g2",))
    assert not group_dual_block_admissible(z3, ("g",), ("g2",))


def test_group_dual_map():
    z2 = cyclic_group(2)
    p = full_block(1, 1)
    t = build_group_dual_tp(p, 3, z2, ("g",), ("g",))
    assert t == build_tp(p, 3)
    assert build_group_dual_tp(p, 3, z2, ("g",), ("1",)) is None


def test_sparse_map_trace_inner():
    n = 3
    ident = identity_map(2, n)
    assert ident.trace() == n ** 2
    t = build_tp(full_block(1, 1), n)
    assert t.inner(t) == n
    assert ident.inner(ident) == n ** 2
    with pytest.raises(ValueError):
        ident.inner(t)
