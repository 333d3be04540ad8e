from fractions import Fraction

import pytest

from freewreath.qnum import (QNum, cheb_eval_sqrtN, cheb_poly, poly_add,
                             poly_eval, poly_mul, poly_trim, render_poly)


def test_rational_constructors():
    assert QNum.rational(3).as_fraction() == 3
    assert QNum.rational(Fraction(2, 5)).rat == Fraction(2, 5)
    assert QNum.rational(7).is_rational()
    assert not QNum.sqrt(5).is_rational()


def test_zero_surd_normalizes_base():
    z = QNum.sqrt(5) - QNum.sqrt(5)
    assert z == QNum.rational(0)
    assert z.base is None


def test_arithmetic():
    a = QNum.rational(1) + QNum.sqrt(2)          # 1 + sqrt2
    b = QNum.rational(1) - QNum.sqrt(2)
    assert a * b == QNum.rational(-1)
    assert a + b == QNum.rational(2)
    assert QNum.sqrt(2) * QNum.sqrt(2) == QNum.rational(2)
    assert 3 * QNum.sqrt(2) - QNum.sqrt(2) == QNum.sqrt(2) * 2


def test_mixed_base_rejected():
    with pytest.raises(ValueError):
        QNum.sqrt(2) + QNum.sqrt(3)
    with pytest.raises(ValueError):
        QNum.sqrt(2) * QNum.sqrt(5)


def test_division():
    a = QNum.rational(1) + QNum.sqrt(2)
    assert (a * a) / a == a
    assert QNum.rational(2) / QNum.sqrt(2) == QNum.sqrt(2)
    inv = 1 / (QNum.rational(3) + QNum.sqrt(7))
    assert inv * (QNum.rational(3) + QNum.sqrt(7)) == QNum.rational(1)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        QNum.rational(1) / QNum.rational(0)
    # 2 - sqrt(4) folds to the rational zero at construction
    bad = QNum(Fraction(2), Fraction(-1), 4)
    assert bad == QNum.rational(0)
    with pytest.raises(ZeroDivisionError):
        QNum.rational(1) / bad


def test_perfect_square_base_folds():
    assert QNum.sqrt(9) == QNum.rational(3)
    assert QNum.sqrt(1) == QNum.rational(1)
    assert QNum.sqrt(9).base is None
    v = QNum(Fraction(1, 2), Fraction(3), 16)     # 1/2 + 3*4
    assert v.is_rational() and v.as_fraction() == Fraction(25, 2)
    # non-squares stay symbolic
    assert not QNum.sqrt(8).is_rational()


def test_sign_and_comparison():
    assert (QNum.sqrt(2) - QNum.rational(1)).sign() == 1
    assert (QNum.rational(1) - QNum.sqrt(2)).sign() == -1
    assert (QNum.rational(3) - QNum.sqrt(9)).sign() == 0
    assert QNum.sqrt(2) < QNum.rational(2)
    assert QNum.sqrt(5) > QNum.rational(2)
    assert abs(QNum.rational(-3)) == QNum.rational(3)


def test_float():
    assert float(QNum.sqrt(2)) == pytest.approx(2 ** 0.5)
    assert float(QNum.rational(Fraction(1, 4))) == 0.25


def test_render_parse_round_trip():
    vals = [QNum.rational(Fraction(-3, 2)),
            QNum.sqrt(5),
            QNum.rational(2) + QNum.sqrt(3) * Fraction(1, 2),
            QNum.rational(0)]
    for v in vals:
        assert QNum.parse(v.render()) == v
    assert QNum.parse("1/2 + 3*sqrt(7)") == \
        QNum.rational(Fraction(1, 2)) + 3 * QNum.sqrt(7)


def test_parse_rejects_garbage():
    for bad in ("", "sqrt(2)x", "1 + sqrt(2)", "one"):
        with pytest.raises(ValueError):
            QNum.parse(bad)


def test_poly_helpers():
    assert poly_trim((1, 2, 0, 0)) == (1, 2)
    assert poly_add((1, 2), (0, 0, 3)) == (1, 2, 3)
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
    # A_2(sqrt(N)) = N - 1 is rational; A_1(sqrt(5)) = sqrt(5) is not
    assert cheb_eval_sqrtN(2, 7).as_fraction() == 6
    assert cheb_eval_sqrtN(1, 5) == QNum.sqrt(5)
    assert cheb_eval_sqrtN(3, 4) == QNum.sqrt(4) * 2  # A_3(2) = 4 = 2*sqrt(4)
    v = cheb_eval_sqrtN(4, 9)
    assert v.as_fraction() == 9 * 9 - 3 * 9 + 1


def test_cheb_eval_sqrt_matches_horner(cheb_qnum):
    # perfect squares fold sqrt(n) into the rational part on both sides
    for n in range(1, 31):
        for l in range(25):
            assert cheb_eval_sqrtN(l, n) == cheb_qnum(l, n), (l, n)


def test_cheb_recursion():
    # A_{l+1} = t A_l - A_{l-1}
    for l in range(1, 8):
        lhs = cheb_poly(l + 1)
        rhs = poly_add(poly_mul((0, 1), cheb_poly(l)),
                       tuple(-c for c in cheb_poly(l - 1)))
        assert lhs == poly_trim(rhs)
