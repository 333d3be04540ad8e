import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from freewreath.exactmat import (_back, _forward, bareiss_det_rank,
                                 bareiss_inverse, gauss_jordan_inverse)
from freewreath import weingarten
from freewreath.weingarten import CATEGORIES, wg_gram, wg_indices, wg_table


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
    assert_integer_inverse([[Fraction(x, table.wden) for x in row]
                            for row in table.wnum], table.gram)


def square_matrices(max_size=6):
    return st.integers(1, max_size).flatmap(lambda n: st.lists(
        st.lists(st.integers(-4, 4), min_size=n, max_size=n),
        min_size=n, max_size=n))


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
            if category == "singletons" and s != 1:
                # the trivial inner group is refused at s != 1
                with pytest.raises(ValueError, match=f"got s = {s}"):
                    wg_gram(k, n, s, category)
                continue
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


def fraction_rank_det(matrix) -> tuple[int, Fraction]:
    """(rank, determinant) of a square matrix by Fraction Gaussian
    elimination: the determinant is the signed product of the pivots."""
    a = [[Fraction(x) for x in row] for row in matrix]
    rank, det = 0, Fraction(1)
    for col in range(len(a)):
        piv = next((r for r in range(rank, len(a)) if a[r][col]), None)
        if piv is None:
            det = Fraction(0)
            continue
        if piv != rank:
            a[rank], a[piv] = a[piv], a[rank]
            det = -det
        det *= a[rank][col]
        for r in range(rank + 1, len(a)):
            fac = a[r][col] / a[rank][col]
            a[r] = [x - fac * y for x, y in zip(a[r], a[rank])]
        rank += 1
    return rank, det


DEPENDENT_ROWS = (square_matrices(), st.integers(0, 6),
                  st.lists(st.integers(-2, 2), min_size=36, max_size=36))


@given(*DEPENDENT_ROWS)
def test_det_rank_matches_leibniz_and_reduction(matrix, dependent, coeffs):
    n = len(matrix)
    free = make_dependent(matrix, dependent, coeffs)
    rank, det = bareiss_det_rank(matrix)
    assert det == leibniz_det(matrix)
    assert rank == fraction_rank_det(matrix)[0]
    assert rank <= free
    assert (det == 0) == (rank < n)


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


def sparse_matrices(max_size=10):
    """Square matrices of up to max_size rows, about half of whose entries
    are zero, so that rows meet with zero spans in many places."""
    entry = st.integers(-6, 6).map(lambda x: x if abs(x) > 3 else 0)
    return st.integers(1, max_size).flatmap(lambda n: st.lists(
        st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))


def check_against_fractions(matrix, cols):
    """bareiss_det_rank against Fraction elimination, and bareiss_inverse
    on the columns cols against the Fraction Gauss-Jordan inverse, or
    refused with it when singular."""
    rank, det = bareiss_det_rank(matrix)
    assert (rank, det) == fraction_rank_det(matrix)
    if rank < len(matrix):
        with pytest.raises(ZeroDivisionError):
            bareiss_inverse(matrix, cols)
        with pytest.raises(ZeroDivisionError):
            gauss_jordan_inverse(matrix)
        return
    full = gauss_jordan_inverse(matrix)
    assert bareiss_inverse(matrix, cols) == \
        [[row[c] for c in cols] for row in full]


@given(sparse_matrices(), st.lists(st.integers(0, 9), max_size=12))
def test_sparse_elimination_matches_fractions(matrix, picks):
    check_against_fractions(matrix, [c % len(matrix) for c in picks])


@given(sparse_matrices(8), st.integers(1, 4),
       st.lists(st.integers(-2, 2), min_size=48, max_size=48),
       st.permutations(range(8)))
def test_rank_deficient_elimination_matches_fractions(matrix, dependent,
                                                      coeffs, order):
    # the dependent rows moved among the others, so that the forward pass
    # meets a zero column below its pivots and skips it
    n = len(matrix)
    make_dependent(matrix, dependent, coeffs)
    matrix = [matrix[i] for i in order if i < n]
    check_against_fractions(matrix, range(n))
    assert bareiss_det_rank(matrix)[0] < n or dependent >= n


@given(sparse_matrices(8), st.permutations(range(8)),
       st.lists(st.integers(0, 7), max_size=8))
def test_back_pass_leaves_the_square_part_diagonal(matrix, order, picks):
    # a diagonally dominant matrix is full rank; its rows shuffled, so that
    # the forward pass swaps, and some columns of I appended
    n = len(matrix)
    for i, row in enumerate(matrix):
        row[i] = 1 + sum(map(abs, row))
    a = [matrix[i] + [int(i == c % n) for c in picks]
         for i in order if i < n]
    assert len(_forward(a, n)[0]) == n
    _back(a, n)
    assert [[x != 0 for x in row[:n]] for row in a] == \
        [[r == c for c in range(n)] for r in range(n)]


@pytest.mark.parametrize("k, n, s, category", [
    (2, 5, 4, "noncrossing"), (3, 16, 4, "noncrossing"),
    (4, 4, 4, "noncrossing"), (3, 64, 5, "all"), (4, 4, 1, "singletons"),
    (5, 5, 1, "singletons"), (5, 3, 1, "singletons"),
    (3, 2, 2, "all")])
def test_workload_grams_match_fractions(k, n, s, category):
    # Gram matrices as the weingarten benchmark and the certification
    # ladder invert them, on their orbit representatives' columns; the last
    # two are singular, as NC(5) is at N = 3 and S_2's category at k = 3
    gram = wg_gram(k, n, s, category)
    check_against_fractions(gram, weingarten._index_space(k, category).reps)
    assert (bareiss_det_rank(gram)[0] < len(gram)) == (n < 4)


@pytest.mark.parametrize("matrix", ([[1, 2]], [[1], [2]], [[1, 2], [3]],
                                    [[1, 2, 3], [4, 5, 6]]))
def test_inverse_columns_non_square_refused(matrix):
    with pytest.raises(ValueError, match="matrix must be square"):
        bareiss_inverse(matrix, [0])


@pytest.mark.parametrize("cols", ([2], [-1], [0, 3]))
def test_inverse_columns_out_of_range_refused(cols):
    with pytest.raises(ValueError, match="column indices"):
        bareiss_inverse([[2, 1], [1, 2]], cols)


@pytest.mark.parametrize("function", (bareiss_det_rank, bareiss_inverse))
@pytest.mark.parametrize("matrix", ([[1, 2]], [[1], [2]], [[1, 2], [3]],
                                    [[1, 2, 3], [4, 5, 6]]))
def test_non_square_refused(function, matrix):
    with pytest.raises(ValueError, match="matrix must be square"):
        function(matrix)


@pytest.mark.parametrize("function", (bareiss_det_rank, bareiss_inverse))
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
