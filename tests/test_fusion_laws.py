"""Algebraic laws of word fusion, as property tests.

The profile is derandomised, so every run draws the same examples.
"""

import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from builders import (S3_ELEMENTS, check_reduced_form, group_dual_json,
                      s3_product)
from freewreath.fusion import (IntegersFusion, QuantumPermutationFusion,
                               central_char_poly, conj_word, cyclic_fusion,
                               dim_wreath, fuse_direct, fuse_via_reduced,
                               fusion_from_json, reduce_word,
                               symmetric_group_3_fusion)
from freewreath.qnum import cheb_int_factor, poly_eval

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


@given(ring_and_words(2))
def test_fusion_routes_agree(case):
    fd, x, y = case
    assert +fuse_via_reduced(x, y, fd) == +fuse_direct(x, y, fd)


@given(ring_and_words(1))
def test_reduce_expand_round_trip(case):
    fd, w = case
    check_reduced_form(w, fd)


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


@given(st.sampled_from([symmetric_group_3_fusion(), S3_DUAL]).flatmap(
    lambda fd: st.tuples(st.just(fd), *[s3_words(3, fd)] * 3)))
def test_fusion_associative(case):
    # (x (x) y) (x) z = x (x) (y (x) z), over a commutative and a
    # non-commutative ring
    fd, x, y, z = case
    assert _fuse_sum(fuse_direct(x, y, fd), Counter([z]), fd) == \
        _fuse_sum(Counter([x]), fuse_direct(y, z, fd), fd)


# every built-in ring, with the letters drawn from each
BUILTIN_RINGS = [(fd, fd.labels()) for fd in (
    cyclic_fusion(1), cyclic_fusion(2), cyclic_fusion(3),
    symmetric_group_3_fusion())]
BUILTIN_RINGS += [(IntegersFusion(), tuple(range(-3, 4))),
                  (QuantumPermutationFusion(4), tuple(range(4)))]


def dim_by_reduced_form(word, fd, n):
    """N**(odd // 2) * prod dim(letters) * prod a_l(N), read off the reduced
    form that reduce_word builds: the product dim_wreath took before its
    single scan of the word."""
    exponents, letters = reduce_word(word, fd)
    odd = sum(e % 2 for e in exponents)
    return (n ** (odd // 2) * math.prod(map(fd.dim, letters))
            * math.prod(cheb_int_factor(e, n) for e in exponents))


def check_word_dimension(fd, word):
    # the character polynomial is a product over the reduced exponents, so
    # it checks the scan by a route that never reads dim_wreath
    poly = central_char_poly(word, fd)
    for n in range(4, 10):
        assert dim_wreath(word, fd, n) == dim_by_reduced_form(word, fd, n) \
            == poly_eval(poly, n), (word, n)


@st.composite
def ring_and_short_word(draw):
    """A ring and a word of up to 12 letters, or of up to 600 trivial ones."""
    fd, labels = draw(st.sampled_from(BUILTIN_RINGS))
    if draw(st.booleans()):
        return fd, (fd.trivial(),) * draw(st.integers(0, 600))
    return fd, tuple(draw(st.lists(st.sampled_from(labels), max_size=12)))


@settings(max_examples=60)
@given(ring_and_short_word())
def test_word_dimension_matches_the_reduced_form_and_the_character(case):
    check_word_dimension(*case)


@pytest.mark.parametrize("fd, labels", BUILTIN_RINGS, ids=(
    "trivial", "cyclic2", "cyclic3", "s3", "integers", "quantum4"))
def test_dimension_of_a_600_letter_word(fd, labels):
    rng = random.Random(600)
    check_word_dimension(fd, ())
    check_word_dimension(fd, tuple(rng.choice(labels) for _ in range(600)))
