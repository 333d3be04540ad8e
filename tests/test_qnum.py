import pytest

from freewreath.qnum import (cheb_int_factor, cheb_poly, poly_eval, poly_mul,
                             poly_trim, render_poly)


def test_poly_helpers():
    assert poly_trim((1, 2, 0, 0)) == (1, 2)
    assert poly_mul((1, 1), (1, -1)) == (1, 0, -1)
    assert poly_eval((1, 0, -1), 3) == -8
    assert render_poly((0, -1, 1)) == "X^2 - X"
    assert render_poly((1,)) == "1"
    assert render_poly(()) == "0"


def test_chebyshev_coefficients():
    # A_0=1, A_1=t, A_2=t^2-1, A_3=t^3-2t, A_4=t^4-3t^2+1
    assert cheb_poly(0) == (1,)
    assert cheb_poly(1) == (0, 1)
    assert cheb_poly(2) == (-1, 0, 1)
    assert cheb_poly(3) == (0, -2, 0, 1)
    assert cheb_poly(4) == (1, 0, -3, 0, 1)


def test_chebyshev_at_two():
    # A_l(2) = l + 1
    for l in range(0, 9):
        assert poly_eval(cheb_poly(l), 2) == l + 1


def test_cheb_eval_sqrt():
    # A_l(sqrt(N)) = sqrt(N)^(l mod 2) * a_l(N): A_2(sqrt(7)) = 6,
    # A_1(sqrt(5)) = sqrt(5), A_3(2) = 4 = 2*sqrt(4), A_4(3) = 81 - 27 + 1
    assert cheb_int_factor(2, 7) == 6
    assert cheb_int_factor(1, 5) == 1
    assert cheb_int_factor(3, 4) == 2
    assert cheb_int_factor(4, 9) == 9 * 9 - 3 * 9 + 1


def test_cheb_eval_sqrt_matches_horner(cheb_qnum):
    # sqrt(n) stays formal in the oracle, so the parity split is exact for
    # perfect squares too
    for n in range(1, 31):
        for l in range(25):
            a = cheb_int_factor(l, n)
            assert cheb_qnum(l, n) == ((0, a) if l % 2 else (a, 0)), (l, n)


def test_cheb_recursion():
    # A_{l+1} = t A_l - A_{l-1}
    for l in range(1, 60):
        t_a = poly_mul((0, 1), cheb_poly(l))
        prev = cheb_poly(l - 1)
        rhs = [c - (prev[i] if i < len(prev) else 0) for i, c in enumerate(t_a)]
        assert cheb_poly(l + 1) == poly_trim(rhs)


class _Counted(int):
    """An int that counts the products it is the left factor of."""
    taken = 0

    def __mul__(self, other):
        _Counted.taken += 1
        return int(self) * other


def test_poly_mul_takes_one_product_per_nonzero_pair():
    # A_e is zero at every other coefficient; so are the products of A_e
    factors = [cheb_poly(e) for e in range(9)] + [
        (0, 0, 3), (2, 0, 0, -1, 0), (5,), (0, 1), (1, 1, 1)]
    for a in factors:
        for b in factors:
            _Counted.taken = 0
            got = poly_mul(tuple(map(_Counted, a)), b)
            assert _Counted.taken == \
                sum(map(bool, a)) * sum(map(bool, b)), (a, b)
            dense = [0] * (len(a) + len(b) - 1)
            for i, x in enumerate(a):
                for j, y in enumerate(b):
                    dense[i + j] += x * y
            assert got == poly_trim(dense)


@pytest.mark.parametrize("l", [-1, -4])
def test_cheb_poly_refuses_a_negative_index(l):
    with pytest.raises(ValueError) as info:
        cheb_poly(l)
    assert str(info.value) == f"negative Chebyshev index {l}"


@pytest.mark.parametrize("b", [(), (0,), (1,), (0, 2, 3)])
def test_poly_mul_by_the_empty_polynomial_is_empty(b):
    assert poly_mul((), b) == poly_mul(b, ()) == ()
