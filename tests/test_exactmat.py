import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freewreath.exactmat import (bareiss_det_rank, bareiss_inverse,
                                 gauss_jordan_inverse)
from freewreath.weingarten import CATEGORIES, wg_gram, wg_indices, wg_table

DERANDOMIZED = settings(derandomize=True, deadline=None, max_examples=150,
                        database=None)


def assert_integer_inverse(winv, matrix):
    """W M = I, checked in integers as (d W) M = d I."""
    d = math.lcm(*(x.denominator for row in winv for x in row))
    columns = list(zip(*matrix))
    for i, row in enumerate(winv):
        scaled = [int(x * d) for x in row]
        assert [sum(a * b for a, b in zip(scaled, col)) for col in columns] \
            == [d * (i == j) for j in range(len(matrix))]


@pytest.mark.parametrize("s", (1, 4))
@pytest.mark.parametrize("n", (4, 5))
def test_gauss_jordan_oracle_matches_bareiss(n, s):
    category = "singletons" if s == 1 else "noncrossing"
    top = 5 if (n, s) == (4, 1) else 4
    for k in range(1, top + 1):
        gram = wg_gram(k, n, s, category)
        winv = gauss_jordan_inverse(gram)
        assert winv == bareiss_inverse(gram)
        assert_integer_inverse(winv, gram)


def test_weingarten_inverse_k6():
    table = wg_table(6, 4, 1)
    assert len(table.indices) == 132
    assert_integer_inverse(table.winv, table.gram)


def square_matrices(max_size=6):
    return st.integers(1, max_size).flatmap(lambda n: st.lists(
        st.lists(st.integers(-4, 4), min_size=n, max_size=n),
        min_size=n, max_size=n))


@DERANDOMIZED
@given(square_matrices())
def test_inverse_matches_oracle(matrix):
    rank, _ = bareiss_det_rank(matrix)
    if rank < len(matrix):
        with pytest.raises(ZeroDivisionError):
            bareiss_inverse(matrix)
        return
    winv = bareiss_inverse(matrix)
    assert winv == gauss_jordan_inverse(matrix)
    assert_integer_inverse(winv, matrix)


@DERANDOMIZED
@given(square_matrices(), st.lists(st.integers(-3, 3), min_size=5, max_size=5))
def test_singular_inverse_refused(matrix, coeffs):
    # the last row becomes a combination of the others (zero for one row)
    matrix[-1] = [sum(c * x for c, x in zip(coeffs, column))
                  for column in zip(*matrix[:-1])] or [0]
    assert bareiss_det_rank(matrix)[0] < len(matrix)
    with pytest.raises(ZeroDivisionError):
        bareiss_inverse(matrix)


@pytest.mark.parametrize("category", CATEGORIES)
def test_gram_matches_join_formula(category):
    for k in range(1, 5):
        indices = wg_indices(k, category)
        for n, s in ((1, 1), (4, 1), (5, 4), (3, 2)):
            assert wg_gram(k, n, s, category) == [
                [n ** len(p.join(q).blocks) * s ** len(a.join(b).blocks)
                 for q, b in indices] for p, a in indices]


def test_gram_is_fresh():
    gram = wg_gram(3, 4, 2)
    expected = [row[:] for row in gram]
    gram[0][0] = -1
    gram.pop()
    assert wg_gram(3, 4, 2) == expected
