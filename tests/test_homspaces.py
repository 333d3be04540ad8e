import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freewreath import fusion, homspaces
from freewreath.freeprob import _nc_moment
from freewreath.fusion import (cyclic_fusion, fuse, fuse_direct,
                               fuse_via_reduced, group_dual_fusion,
                               integers_fusion, quantum_permutation_fusion,
                               symmetric_group_3, symmetric_group_3_fusion,
                               trivial_fusion)
from freewreath.homspaces import (block_trivial_mult, dim_hom_fusion,
                                  dim_hom_partition, dim_hom_wreath,
                                  hom_terms, parse_star_list, tensor_fold,
                                  trivial_mult, word_tensor_decomposition)
Z2 = cyclic_fusion(2)
Z3 = cyclic_fusion(3)
S3 = symmetric_group_3_fusion()
TRIV = trivial_fusion()
S3_DUAL = group_dual_fusion(symmetric_group_3())  # noncommutative letters
INTEGERS = integers_fusion()  # infinitely many labels: labels() is None

DERANDOMIZED = settings(derandomize=True, deadline=None, max_examples=150,
                        database=None)


def test_tensor_fold():
    assert tensor_fold(Z2, ()) == {"1": 1}
    assert tensor_fold(Z2, ("g", "g")) == {"1": 1}
    assert tensor_fold(S3, ("std", "std")) == {"triv": 1, "sgn": 1, "std": 1}
    assert trivial_mult(S3, ("std", "std", "std")) == 1
    # a start vector is multiplied on the left of the factors
    assert tensor_fold(S3, ("std",), {"sgn": 2, "std": 1}) == \
        {"std": 3, "triv": 1, "sgn": 1}
    swap, cycle = "213", "231"
    assert tensor_fold(S3_DUAL, (cycle,), {swap: 1}) == \
        tensor_fold(S3_DUAL, (swap, cycle)) != \
        tensor_fold(S3_DUAL, (cycle, swap))


def test_block_trivial_mult_conjugates_upper():
    # upper g, lower g over Z/3: conj(g) x g = g2 x g contains the trivial
    assert block_trivial_mult(Z3, ("g",), ("g",)) == 1
    assert block_trivial_mult(Z3, (), ("g", "g")) == 0
    assert block_trivial_mult(Z3, (), ("g", "g", "g")) == 1
    # reversal matters for noncommutative rings only through conj order; for
    # S3 the standard rep is self conjugate
    assert block_trivial_mult(S3, ("std",), ("std",)) == 1


def test_hom_single_letters():
    # End r(alpha) is 1-dimensional for nontrivial alpha, 2-dimensional for
    # the trivial letter (r(1) = 1 + omega(1))
    assert dim_hom_wreath(("g",), ("g",), Z2) == 1
    assert dim_hom_wreath(("1",), ("1",), Z2) == 2
    assert dim_hom_wreath(("g",), ("g2",), Z3) == 0
    assert dim_hom_wreath((), ("g",), Z2) == 0
    assert dim_hom_wreath((), ("1",), Z2) == 1


def test_hom_trivial_group_counts_partitions():
    # over the trivial group every block is admissible: |NC(k,l)|
    assert dim_hom_wreath(("1", "1"), ("1", "1"), TRIV) == 14
    assert dim_hom_wreath((), ("1", "1", "1"), TRIV) == 5
    assert dim_hom_wreath(("1",), ("1", "1"), TRIV) == 5


def test_hom_catalan_tower():
    for k, c in enumerate((1, 2, 5, 14), start=1):
        assert dim_hom_wreath((), ("1",) * k, Z2) == c


def test_dual_routes_agree_random():
    rng = random.Random(23)
    for fd in (Z2, Z3, S3):
        labels = fd.labels()
        for _ in range(30):
            up = tuple(rng.choice(labels) for _ in range(rng.randrange(3)))
            down = tuple(rng.choice(labels) for _ in range(rng.randrange(3)))
            a = dim_hom_wreath(up, down, fd, method="partition")
            b = dim_hom_wreath(up, down, fd, method="fusion")
            assert a == b, (up, down)


def test_dual_routes_agree_length_four():
    for fd in (Z2, Z3):
        g = "g"
        for up, down in ((("1", g), (g, "1")), ((g, g), (g, g, g, g)),
                         ((g, g, g, g), (g, g)), (("1", "1"), (g, g))):
            assert dim_hom_partition(up, down, fd) == \
                dim_hom_fusion(up, down, fd)


def test_basic_rep_decomposition():
    # r(a) is the irreducible word (a), and r(1) = () + (1)
    assert word_tensor_decomposition(("g",), Z2) == {("g",): 1}
    assert word_tensor_decomposition(("1",), Z2) == {(): 1, ("1",): 1}


def _fold_with(route, letters, fd):
    """The decomposition as a fold of general word fusions with r(a)."""
    acc = Counter({(): 1})
    for a in letters:
        basic = Counter({(a,): 1})
        if a == fd.trivial():
            basic[()] += 1
        nxt = Counter()
        for w, m in acc.items():
            for w1, m1 in basic.items():
                for w2, m2 in route(w, w1, fd).items():
                    nxt[w2] += m * m1 * m2
        acc = nxt
    return acc


def test_letter_fold_matches_both_fusion_routes():
    cases = [(Z3, Z3.labels(), 5), (S3, S3.labels(), 5),
             (quantum_permutation_fusion(5), (0, 1, 2), 4),
             (INTEGERS, tuple(range(-2, 3)), 4)]
    for fd, labels, max_len in cases:
        for n in range(max_len + 1):
            for word in itertools.product(labels, repeat=n):
                dec = word_tensor_decomposition(word, fd)
                assert dec == _fold_with(fuse_direct, word, fd), word
                assert dec == _fold_with(fuse_via_reduced, word, fd), word


def test_fusion_route_calls_no_word_fusion(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the fusion route called a word fusion")

    # homspaces keeps a copied binding of fuse; it is refused there too
    for name in ("fuse", "fuse_direct", "fuse_via_reduced", "conj_word"):
        for module in (fusion, homspaces):
            monkeypatch.setattr(module, name, refuse, raising=False)
    up, down = ("g", "1", "g2", "g"), ("1", "g", "g", "g", "1")
    assert dim_hom_fusion(up, down, Z3) == dim_hom_partition(up, down, Z3)


@pytest.mark.parametrize("fd, bad", [(Z3, "g3"), (S3, "g")])
def test_unknown_labels_refused(fd, bad):
    good, message = fd.labels()[1], f"unknown irreducible label {bad!r}"
    for x, y in (((good,), (bad,)), ((bad,), ())):
        with pytest.raises(ValueError, match=message):
            fuse(x, y, fd)
    with pytest.raises(ValueError, match=message):
        tensor_fold(fd, (good, bad))
    for method in ("partition", "fusion"):
        for up, down in (((bad,), ()), ((good,), (good, bad))):
            with pytest.raises(ValueError, match=message):
                dim_hom_wreath(up, down, fd, method)


def test_word_tensor_decomposition():
    # r(g) x r(g) over Z/2 as irreducible words
    dec = word_tensor_decomposition(("g", "g"), Z2)
    assert dec == {(): 1, ("1",): 1, ("g", "g"): 1}
    # dimensions match at any N
    from freewreath.fusion import dim_wreath
    for n in (4, 9):
        total = sum(m * dim_wreath(w, Z2, n) for w, m in dec.items())
        assert total == dim_wreath(("g",), Z2, n) ** 2


def test_hom_terms_admissibility():
    terms = hom_terms(("g",), ("g",), Z2, admissible_only=False)
    admissible = hom_terms(("g",), ("g",), Z2)
    assert len(terms) == 2            # {1,2} and {1|2}
    assert len(admissible) == 1       # the singleton blocks have no invariants
    assert admissible[0].weight() == 1


def test_weights_multiply_over_blocks():
    # upper (g,g), lower (g,g) over Z/2: full partition set NC(2,2), each
    # block weight 0 or 1, total is the End dimension
    total = sum(dp.weight() for dp in hom_terms(("g", "g"), ("g", "g"), Z2,
                                                admissible_only=False))
    assert total == dim_hom_wreath(("g", "g"), ("g", "g"), Z2)


def test_parse_star_list():
    assert parse_star_list("g,g2*,1", Z3) == ("g", "g", "1")
    assert parse_star_list("(g,g)", Z2) == ("g", "g")
    assert parse_star_list("", Z2) == ()
    assert parse_star_list("()", Z2) == ()
    assert parse_star_list("std*", S3) == ("std",)
    with pytest.raises(ValueError):
        parse_star_list("nope", Z2)


def _words(fd, max_len):
    for n in range(max_len + 1):
        yield from itertools.product(fd.labels(), repeat=n)


def _oracle(up, down, fd):
    return sum(dp.weight() for dp in hom_terms(up, down, fd))


def test_first_block_sum_matches_enumeration():
    # the enumerated decorated partitions are the oracle of the partition route
    for fd in (Z2, Z3, S3):
        for word in _words(fd, 5):
            assert dim_hom_partition((), word, fd) == _oracle((), word, fd), word
    for word in _words(S3, 5):
        for k in range(len(word) + 1):
            up, down = word[:k], word[k:]
            assert dim_hom_partition(up, down, S3) == _oracle(up, down, S3), \
                (up, down)


def test_first_block_sum_matches_fusion_route_std_powers():
    # up to 14 letters, the enumeration cap
    values = [dim_hom_partition((), ("std",) * n, S3) for n in range(15)]
    assert values == [dim_hom_fusion((), ("std",) * n, S3) for n in range(15)]
    assert values[12] == 35537
    assert values[14] == 394873


def test_first_block_recursion_makes_quadratically_many_tensor_calls():
    # the partial blocks from one start are carried as one fusion-ring
    # element: one tensor step per (start, end) pair, each at most one
    # tensor call per irreducible in its support
    fd = symmetric_group_3_fusion()
    calls = []
    tensor = fd.tensor

    def counted(a, b):
        calls.append((a, b))
        return tensor(a, b)

    fd.tensor = counted
    word = ("std", "sgn", "std", "triv", "std", "std", "sgn") * 2
    up, down = word[:5], word[5:]
    n = len(word)
    value = dim_hom_partition(up, down, fd)
    assert len(calls) <= len(fd.labels()) * n * (n + 1) // 2
    assert value == dim_hom_fusion(up, down, S3)


def _bend(up, fd):
    return tuple(fd.conj(a) for a in reversed(up))


@st.composite
def ring_and_split(draw, max_len):
    fd = draw(st.sampled_from((Z2, Z3, S3, S3_DUAL)))
    letters = st.lists(st.sampled_from(fd.labels()), max_size=max_len)
    return fd, tuple(draw(letters)), tuple(draw(letters))


@st.composite
def ring_and_word_split(draw, max_len):
    fd, labels = draw(st.sampled_from(
        [(fd, fd.labels()) for fd in (Z2, Z3, S3, S3_DUAL)]
        + [(INTEGERS, tuple(range(-2, 3)))]))
    word = tuple(draw(st.lists(st.sampled_from(labels), max_size=max_len)))
    k = draw(st.integers(0, len(word)))
    return fd, word[:k], word[k:]


@DERANDOMIZED
@given(ring_and_word_split(8))
def test_three_partition_routes_agree(case):
    # the fusion-ring-valued recursion, the first-block sum over block
    # choices with memoised trivial multiplicities, and the enumeration
    fd, up, down = case
    by_blocks = _nc_moment(lambda letters: trivial_mult(fd, letters),
                           _bend(up, fd) + down)
    assert dim_hom_partition(up, down, fd) == by_blocks == \
        _oracle(up, down, fd)


@DERANDOMIZED
@given(ring_and_split(4))
def test_frobenius_reciprocity(case):
    # bending the upper letters down: Hom(a, b) = Hom(1, conj(reversed a) b)
    fd, up, down = case
    for method in ("partition", "fusion"):
        assert dim_hom_wreath(up, down, fd, method) == \
            dim_hom_wreath((), _bend(up, fd) + down, fd, method), method


@DERANDOMIZED
@given(ring_and_split(6))
def test_rotation_invariance(case):
    # the first-block sum reads the boundary word linearly, so rotating it
    # moves the first letter into another block
    fd, up, down = case
    word = up + down
    value = dim_hom_partition((), word, fd)
    assert value == dim_hom_partition((), word[1:] + word[:1], fd)
    assert value == dim_hom_fusion((), word, fd)
