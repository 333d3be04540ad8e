"""Algebraic laws of word fusion, as property tests.

The profile is derandomised, so every run draws the same examples.
"""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from builders import (S3_ELEMENTS, check_reduced_form, group_dual_json,
                      s3_product)
from freewreath.fusion import (IntegersFusion, conj_word, cyclic_fusion,
                               fuse_direct, fuse_via_reduced, fusion_from_json,
                               symmetric_group_3_fusion)

DERANDOMIZED = settings(derandomize=True, deadline=None, max_examples=150,
                        database=None)

S3_DUAL = fusion_from_json(group_dual_json(S3_ELEMENTS, s3_product))
RINGS = [(fd, fd.labels()) for fd in (cyclic_fusion(2), cyclic_fusion(3),
                                      symmetric_group_3_fusion(), S3_DUAL)]
RINGS.append((IntegersFusion(), tuple(range(-3, 4))))


@st.composite
def ring_and_words(draw, count, max_len=10):
    fd, labels = draw(st.sampled_from(RINGS))
    letters = st.lists(st.sampled_from(labels), max_size=max_len).map(tuple)
    return (fd,) + tuple(draw(letters) for _ in range(count))


def s3_words(max_len, fd=S3_DUAL):
    return st.lists(st.sampled_from(fd.labels()), max_size=max_len).map(tuple)


@DERANDOMIZED
@given(ring_and_words(2))
def test_fusion_routes_agree(case):
    fd, x, y = case
    assert +fuse_via_reduced(x, y, fd) == +fuse_direct(x, y, fd)


@DERANDOMIZED
@given(ring_and_words(1))
def test_reduce_expand_round_trip(case):
    fd, w = case
    check_reduced_form(w, fd)


@DERANDOMIZED
@given(s3_words(5), s3_words(5), s3_words(6))
def test_frobenius_reciprocity(x, y, z):
    # mult(z, x (x) y) = mult(x, z (x) conj(y)), on the dual of S3
    xy = fuse_via_reduced(x, y, S3_DUAL)
    y_bar = conj_word(y, S3_DUAL)
    for w in set(xy) | {z}:
        assert xy[w] == fuse_via_reduced(w, y_bar, S3_DUAL)[x]


def test_routes_agree_past_old_recursion_limit():
    fd = cyclic_fusion(2)
    x = ("g", "1", "g") * 400
    assert fuse_via_reduced(x, x[::-1], fd) == fuse_direct(x, x[::-1], fd)


def _fuse_sum(left: Counter, right: Counter, fd) -> Counter:
    out = Counter()
    for x, m in left.items():
        for y, n in right.items():
            for w, k in fuse_direct(x, y, fd).items():
                out[w] += m * n * k
    return +out


@DERANDOMIZED
@given(st.sampled_from([symmetric_group_3_fusion(), S3_DUAL]).flatmap(
    lambda fd: st.tuples(st.just(fd), *[s3_words(3, fd)] * 3)))
def test_fusion_associative(case):
    # (x (x) y) (x) z = x (x) (y (x) z), over a commutative and a
    # non-commutative ring
    fd, x, y, z = case
    assert _fuse_sum(fuse_direct(x, y, fd), Counter([z]), fd) == \
        _fuse_sum(Counter([x]), fuse_direct(y, z, fd), fd)
