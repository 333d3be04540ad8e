import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freewreath.exactmat import (_reduce_rows, bareiss_det_rank,
                                 bareiss_inverse, gauss_jordan_inverse,
                                 kernel_vector)
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


def leibniz_det(matrix) -> int:
    n = len(matrix)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j]
                         for i, j in itertools.combinations(range(n), 2))
        total += (-1) ** inversions * math.prod(
            row[c] for row, c in zip(matrix, perm))
    return total


def make_dependent(matrix, dependent, coeffs) -> int:
    """Make the last `dependent` rows combinations of the leading ones, in
    place; returns the number of leading rows kept."""
    n = len(matrix)
    free = n - min(dependent, n)
    for i in range(free, n):
        matrix[i] = [sum(c * x for c, x in zip(coeffs[6 * i:], column))
                     for column in zip(*matrix[:free])] or [0] * n
    return free


DEPENDENT_ROWS = (square_matrices(), st.integers(0, 6),
                  st.lists(st.integers(-2, 2), min_size=36, max_size=36))


@DERANDOMIZED
@given(*DEPENDENT_ROWS)
def test_det_rank_matches_leibniz_and_reduction(matrix, dependent, coeffs):
    n = len(matrix)
    free = make_dependent(matrix, dependent, coeffs)
    rank, det = bareiss_det_rank(matrix)
    assert det == leibniz_det(matrix)
    assert rank == len(_reduce_rows([[Fraction(x) for x in row]
                                     for row in matrix], n))
    assert rank <= free
    assert (det == 0) == (rank < n)


@DERANDOMIZED
@given(*DEPENDENT_ROWS)
def test_kernel_vector_matches_reduction(matrix, dependent, coeffs):
    make_dependent(matrix, dependent, coeffs)
    n = len(matrix)
    # the oracle: the first free column of the reduced row echelon form
    a = [[Fraction(x) for x in row] for row in matrix]
    pivots = _reduce_rows(a, n)
    free_col = next((c for c in range(n) if c not in pivots), None)
    expected = None
    if free_col is not None:
        expected = [Fraction(c == free_col) for c in range(n)]
        for r, c in enumerate(pivots):
            expected[c] = -a[r][free_col]
    vec = kernel_vector(matrix)
    assert vec == expected
    assert (vec is None) == (bareiss_det_rank(matrix)[0] == n)
    if vec is not None:
        assert [sum(x * v for x, v in zip(row, vec)) for row in matrix] \
            == [0] * n


@DERANDOMIZED
@given(*DEPENDENT_ROWS, st.lists(st.integers(0, 5), max_size=8))
def test_inverse_columns_match_full_inverse(matrix, dependent, coeffs, picks):
    # any columns, in any order and with repeats; singular matrices refused
    make_dependent(matrix, dependent, coeffs)
    n = len(matrix)
    cols = [c % n for c in picks]
    if bareiss_det_rank(matrix)[0] < n:
        with pytest.raises(ZeroDivisionError):
            bareiss_inverse(matrix, cols)
        return
    full = gauss_jordan_inverse(matrix)
    assert bareiss_inverse(matrix, cols) == \
        [[row[c] for c in cols] for row in full]


@pytest.mark.parametrize("matrix", ([[1, 2]], [[1], [2]], [[1, 2], [3]],
                                    [[1, 2, 3], [4, 5, 6]]))
def test_inverse_columns_non_square_refused(matrix):
    with pytest.raises(ValueError, match="matrix must be square"):
        bareiss_inverse(matrix, [0])


@pytest.mark.parametrize("cols", ([2], [-1], [0, 3]))
def test_inverse_columns_out_of_range_refused(cols):
    with pytest.raises(ValueError, match="column indices"):
        bareiss_inverse([[2, 1], [1, 2]], cols)


@pytest.mark.parametrize("function",
                         (bareiss_det_rank, bareiss_inverse, kernel_vector))
@pytest.mark.parametrize("matrix", ([[1, 2]], [[1], [2]], [[1, 2], [3]],
                                    [[1, 2, 3], [4, 5, 6]]))
def test_non_square_refused(function, matrix):
    with pytest.raises(ValueError, match="matrix must be square"):
        function(matrix)


@pytest.mark.parametrize("function",
                         (bareiss_det_rank, bareiss_inverse, kernel_vector))
def test_non_integer_refused(function):
    # int() would truncate 1/2 to 0 and turn this singular matrix regular
    with pytest.raises(TypeError):
        function([[Fraction(1, 2), 1], [1, 2]])


def meander_factors(k: int, n: int, cheb_qnum) -> list:
    """Di Francesco's product sqrt(N)^{C_k} prod_j U_j(sqrt N)^{a_{k,j}}, as
    its factors in Q[sqrt(N)]."""
    def binom(top, bottom):
        return math.comb(top, bottom) if bottom >= 0 else 0

    factors = [(0, 1)] * (math.comb(2 * k, k) // (k + 1))
    for j in range(1, k + 1):
        a = (binom(2 * k, k - j) - 2 * binom(2 * k, k - j - 1)
             + binom(2 * k, k - j - 2))
        factors += [cheb_qnum(j, n)] * a
    return factors


@pytest.mark.parametrize("k, ns", [(k, (1, 2, 3, 4, 5, 7, 9)) for k in range(1, 6)]
                         + [(6, (2, 3, 4, 5))])
def test_gram_det_is_meander_product(k, ns, cheb_qnum, qnum_prod):
    for n in ns:
        det = qnum_prod(meander_factors(k, n, cheb_qnum), n)
        assert (bareiss_det_rank(wg_gram(k, n, 1, "singletons"))[1], 0) \
            == det, (k, n)
