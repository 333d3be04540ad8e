import itertools
import math
import random
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from freewreath import fusion, homspaces
from freewreath.freeprob import _Memo, _nc_moments
from builders import (S3_ELEMENTS, group_dual_json, hom_terms, kept_bytes,
                      s3_product)
from freewreath.fusion import (IntegersFusion, QuantumPermutationFusion,
                               cyclic_fusion, fuse, fuse_direct,
                               fuse_via_reduced, fusion_from_json,
                               parse_star_list, symmetric_group_3_fusion,
                               tensor_fold)
from freewreath.homspaces import (dim_hom_fusion, dim_hom_partition,
                                  dim_hom_wreath, word_tensor_decomposition)
from freewreath.partition import full_block
Z2 = cyclic_fusion(2)
Z3 = cyclic_fusion(3)
S3 = symmetric_group_3_fusion()
TRIV = cyclic_fusion(1)
# noncommutative letters
S3_DUAL = fusion_from_json(group_dual_json(S3_ELEMENTS, s3_product))
INTEGERS = IntegersFusion()  # infinitely many labels: labels() is None


def test_tensor_fold():
    assert tensor_fold(Z2, ()) == {"1": 1}
    assert tensor_fold(Z2, ("g", "g")) == {"1": 1}
    assert tensor_fold(S3, ("std", "std")) == {"triv": 1, "sgn": 1, "std": 1}
    assert tensor_fold(S3, ("std", "std", "std"))["triv"] == 1
    # a start vector is multiplied on the left of the factors
    assert tensor_fold(S3, ("std",), {"sgn": 2, "std": 1}) == \
        {"std": 3, "triv": 1, "sgn": 1}
    swap, cycle = "213", "231"
    assert tensor_fold(S3_DUAL, (cycle,), {swap: 1}) == \
        tensor_fold(S3_DUAL, (swap, cycle)) != \
        tensor_fold(S3_DUAL, (cycle, swap))


def _full_block_mult(fd, up, down):
    """The multiplicity hom_terms gives the one-block partition of a nonempty
    split, 0 when it leaves that partition out."""
    terms = dict(hom_terms(up, down, fd))
    return terms.get(full_block(len(up), len(down)), (0,))[0]


def test_block_trivial_mult_conjugates_upper():
    # upper g, lower g over Z/3: conj(g) x g = g2 x g contains the trivial
    assert _full_block_mult(Z3, ("g",), ("g",)) == 1
    assert _full_block_mult(Z3, (), ("g", "g")) == 0
    assert _full_block_mult(Z3, (), ("g", "g", "g")) == 1
    # reversal matters for noncommutative rings only through conj order; for
    # S3 the standard rep is self conjugate
    assert _full_block_mult(S3, ("std",), ("std",)) == 1


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
    assert word_tensor_decomposition(("g",), Z2, 1) == {("g",): 1}
    assert word_tensor_decomposition(("1",), Z2, 1) == {(): 1, ("1",): 1}


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
             (QuantumPermutationFusion(5), (0, 1, 2), 4),
             (INTEGERS, tuple(range(-2, 3)), 4)]
    for fd, labels, max_len in cases:
        for n in range(max_len + 1):
            for word in itertools.product(labels, repeat=n):
                dec = word_tensor_decomposition(word, fd, len(word))
                assert dec == _fold_with(fuse_direct, word, fd), word
                assert dec == _fold_with(fuse_via_reduced, word, fd), word


def test_bounded_decomposition_keeps_the_short_words_exactly():
    # the bound drops words only once they cannot end short enough, so the
    # words it keeps have their full multiplicities
    cases = [(Z2, Z2.labels(), 6), (Z3, Z3.labels(), 6), (S3, S3.labels(), 6),
             (QuantumPermutationFusion(5), (0, 1, 2), 5),
             (INTEGERS, tuple(range(-2, 3)), 5)]
    for fd, labels, max_len in cases:
        for n in range(max_len + 1):
            for word in itertools.product(labels, repeat=n):
                full = word_tensor_decomposition(word, fd, len(word))
                for longest in range(n + 1):
                    assert word_tensor_decomposition(word, fd, longest) == {
                        w: m for w, m in full.items() if len(w) <= longest
                    }, (word, longest)


def test_fusion_route_decomposes_only_what_can_pair():
    # the empty upper word pairs only with the empty word, so the fold of
    # std^12 keeps only the words that can still shrink to nothing
    fd = symmetric_group_3_fusion()
    calls = []
    tensor = fd.tensor

    def counted(a, b):
        calls.append((a, b))
        return tensor(a, b)

    fd.tensor = counted
    assert dim_hom_fusion((), ("std",) * 12, fd) == 35537
    assert len(calls) < 400


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


@pytest.mark.parametrize("fd, down", [
    (QuantumPermutationFusion(4), ("x", "x")), (INTEGERS, (1.5, -1.5))],
    ids=["qperm", "integers"])
def test_both_hom_routes_refuse_an_unknown_letter_alike(fd, down):
    # the letters are checked once, at the one entry, for either route
    message = f"unknown irreducible label {down[0]!r}"
    for method in ("partition", "fusion"):
        with pytest.raises(ValueError) as info:
            dim_hom_wreath((), down, fd, method)
        assert str(info.value) == message


def test_word_tensor_decomposition():
    # r(g) x r(g) over Z/2 as irreducible words
    dec = word_tensor_decomposition(("g", "g"), Z2, 2)
    assert dec == {(): 1, ("1",): 1, ("g", "g"): 1}
    # dimensions match at any N
    from freewreath.fusion import dim_wreath
    for n in (4, 9):
        total = sum(m * dim_wreath(w, Z2, n) for w, m in dec.items())
        assert total == dim_wreath(("g",), Z2, n) ** 2


def test_hom_terms_admissibility():
    # of {1,2} and {1|2}, only {1,2}, with multiplicity 1: the singleton
    # blocks have no invariants
    assert hom_terms(("g",), ("g",), Z2) == ((full_block(1, 1), (1,)),)


def test_weights_multiply_over_blocks():
    # upper (g,g), lower (g,g) over Z/2: the admissible part of NC(2,2), each
    # block weight 1, total is the End dimension
    terms = hom_terms(("g", "g"), ("g", "g"), Z2)
    assert all(set(dims) == {1} for _, dims in terms)
    total = sum(math.prod(dims) for _, dims in terms)
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
    return sum(math.prod(dims) for _, dims in hom_terms(up, down, fd))


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
    # tensor call per irreducible in its support; a fresh ring has no kept
    # rows, so this is the cost of a cold run
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


def _counted_tensor(fd) -> list:
    calls = []
    tensor = fd.tensor
    fd.tensor = lambda a, b: calls.append((a, b)) or tensor(a, b)
    return calls


def test_kept_suffix_rows_leave_one_row_per_word():
    # once every proper suffix of w is kept, w costs one new row: at most
    # |w| - 1 tensor steps, each one call per irreducible it carries
    fd = symmetric_group_3_fusion()
    calls = _counted_tensor(fd)
    word = ("std", "sgn", "std", "triv", "std", "std", "sgn") * 2
    dim_hom_partition((), word[1:], fd)
    del calls[:]
    value = dim_hom_partition((), word, fd)
    assert len(calls) <= len(fd.labels()) * (len(word) - 1)
    assert value == dim_hom_fusion((), word, S3)


def test_kept_rows_do_not_mix_rings():
    # Z/2 and Z/3 share the labels "1" and "g": g x g is trivial in one and
    # not in the other, so rows kept for one ring must not serve the other
    words = list(itertools.product(("1", "g"), repeat=5))
    for order in ((2, 3), (3, 2)):
        rings = [cyclic_fusion(s) for s in order]
        for fd in rings:
            for word in words:
                assert dim_hom_partition(word[:2], word[2:], fd) == \
                    dim_hom_fusion(word[:2], word[2:], fd), (order, word)


def _empty_kept_rows():
    for table in (homspaces._ROWS, homspaces._LETTERS,
                  homspaces._LABEL_LETTERS):
        table.clear()


def test_kept_rows_stay_within_their_bound(monkeypatch):
    # a sweep that makes more rows than the bound keeps at most that many
    _empty_kept_rows()
    monkeypatch.setattr(homspaces, "_MAX_ROWS", 20)
    fd = symmetric_group_3_fusion()
    for word in _words(fd, 4):
        assert dim_hom_partition((), word, fd) == dim_hom_fusion((), word, fd)
        assert len(homspaces._ROWS) <= 20


def test_kept_rows_memory_budget():
    # every word of up to 5 letters over Z/2, Z/3 and S3: 788 suffixes, one
    # row each, whose keys share one object per letter
    _empty_kept_rows()
    rings = [cyclic_fusion(2), cyclic_fusion(3), symmetric_group_3_fusion()]

    def sweep():
        for fd in rings:
            for word in _words(fd, 5):
                dim_hom_partition((), word, fd)

    kept = kept_bytes(sweep)
    assert len(homspaces._ROWS) == 2 + 4 + 8 + 16 + 32 + 2 * (
        3 + 9 + 27 + 81 + 243)
    assert kept < 250_000, kept  # about 170 KB on Python 3.11


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


@given(ring_and_word_split(8))
def test_three_partition_routes_agree(case):
    # the fusion-ring-valued recursion, the first-block sum over block
    # choices with memoised trivial multiplicities, and the enumeration
    fd, up, down = case
    one = fd.trivial()
    cumulants = _Memo(lambda letters: tensor_fold(fd, letters).get(one, 0))
    by_blocks = _nc_moments(cumulants)[_bend(up, fd) + down]
    assert dim_hom_partition(up, down, fd) == by_blocks == \
        _oracle(up, down, fd)


@given(ring_and_split(4))
def test_frobenius_reciprocity(case):
    # bending the upper letters down: Hom(a, b) = Hom(1, conj(reversed a) b)
    fd, up, down = case
    for method in ("partition", "fusion"):
        assert dim_hom_wreath(up, down, fd, method) == \
            dim_hom_wreath((), _bend(up, fd) + down, fd, method), method


@given(ring_and_split(6))
def test_rotation_invariance(case):
    # the first-block sum reads the boundary word linearly, so rotating it
    # moves the first letter into another block
    fd, up, down = case
    word = up + down
    value = dim_hom_partition((), word, fd)
    assert value == dim_hom_partition((), word[1:] + word[:1], fd)
    assert value == dim_hom_fusion((), word, fd)


@pytest.mark.parametrize("method", ["x", "Fusion"])
def test_dim_hom_wreath_refuses_an_unknown_method(method):
    with pytest.raises(ValueError) as info:
        dim_hom_wreath(("g",), ("g",), Z2, method=method)
    assert str(info.value) == f"unknown hom method {method!r}"
