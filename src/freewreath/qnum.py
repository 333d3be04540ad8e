"""Exact arithmetic in Q[sqrt(N)] and dilated Chebyshev polynomials.

Every quantity the engine produces lives in the ring Q[sqrt(N)] for a fixed
positive integer N: elements are ``rat + surd*sqrt(N)`` with rational parts,
and sqrt(N) is treated formally with (sqrt(N))**2 = N.  No floating point is
ever involved; floats appear only as an optional display convenience.

A :class:`QNum` carries its base N with it.  Mixing two bases in one operation
is a hard error rather than a silent coercion, except that base-less rationals
(plain ints/Fractions, or a QNum with zero surd part whose base is None) embed
into any base.

The dilated Chebyshev polynomials are the family

    A_0 = 1,  A_1 = X,  A_1 * A_k = A_{k+1} + A_{k-1},

so A_2 = X**2 - 1, A_3 = X**3 - 2X, A_4 = X**4 - 3X**2 + 1, and A_l(2) = l+1.
They are the dimension polynomials of the engine: ``cheb_eval_sqrtN(l, N)``
returns A_l(sqrt(N)) as a QNum with base N.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Union

RatLike = Union[int, Fraction]


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an integer or Fraction, got {type(x).__name__}")


def _render_rational(x: Fraction) -> str:
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


@dataclass(frozen=True)
class QNum:
    """An element rat + surd*sqrt(base) of Q[sqrt(base)], exact.

    ``base`` is None iff the element is plain rational (surd == 0); such
    elements combine with any base.  A perfect-square base folds into the
    rational part at construction, so sqrt(4) is stored as 2 and equality
    of values coincides with structural equality.  The textual form is
    ``"a"`` for rationals
    and ``"a + b*sqrt(N)"`` otherwise, with rationals rendered ``p`` or
    ``p/q``; :func:`QNum.parse` accepts exactly that grammar (whitespace
    insensitive).
    """

    rat: Fraction
    surd: Fraction
    base: int | None

    def __post_init__(self):
        object.__setattr__(self, "rat", _as_fraction(self.rat))
        object.__setattr__(self, "surd", _as_fraction(self.surd))
        if self.surd != 0:
            if self.base is None:
                raise ValueError("nonzero surd part requires a base")
            if not (isinstance(self.base, int) and self.base >= 1):
                raise ValueError(f"base must be a positive integer, got {self.base!r}")
            root = math.isqrt(self.base)
            if root * root == self.base:
                # sqrt(base) is an integer: fold the surd into the rational part
                object.__setattr__(self, "rat", self.rat + self.surd * root)
                object.__setattr__(self, "surd", Fraction(0))
        if self.surd == 0:
            object.__setattr__(self, "base", None)

    @staticmethod
    def rational(x: RatLike) -> "QNum":
        return QNum(_as_fraction(x), Fraction(0), None)

    @staticmethod
    def sqrt(base: int) -> "QNum":
        return QNum(Fraction(0), Fraction(1), base)

    def _coerce(self, other) -> "QNum":
        if isinstance(other, QNum):
            return other
        return QNum.rational(_as_fraction(other))

    def _joint_base(self, other: "QNum") -> int | None:
        if self.base is None:
            return other.base
        if other.base is None or other.base == self.base:
            return self.base
        raise ValueError(
            f"mixed surd bases: sqrt({self.base}) versus sqrt({other.base})"
        )

    def __add__(self, other):
        other = self._coerce(other)
        base = self._joint_base(other)
        return QNum(self.rat + other.rat, self.surd + other.surd, base)

    __radd__ = __add__

    def __neg__(self):
        return QNum(-self.rat, -self.surd, self.base)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        other = self._coerce(other)
        base = self._joint_base(other)
        n = 0 if base is None else base
        return QNum(
            self.rat * other.rat + self.surd * other.surd * n,
            self.rat * other.surd + self.surd * other.rat,
            base,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        base = self._joint_base(other)
        if other.rat == 0 and other.surd == 0:
            raise ZeroDivisionError("division by zero")
        n = 0 if base is None else base
        # base is never a perfect square here, so the norm of a nonzero
        # element cannot vanish
        norm = other.rat * other.rat - other.surd * other.surd * n
        conj = QNum(other.rat, -other.surd, other.base)
        num = self * conj
        return QNum(num.rat / norm, num.surd / norm, num.base)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QNum.rational(other)
        if not isinstance(other, QNum):
            return NotImplemented
        if self.rat != other.rat or self.surd != other.surd:
            return False
        return self.surd == 0 or self.base == other.base

    def __hash__(self):
        return hash((self.rat, self.surd, self.base))

    def is_rational(self) -> bool:
        return self.surd == 0

    def as_fraction(self) -> Fraction:
        if self.surd != 0:
            raise ValueError(f"{self} has a nonzero surd part")
        return self.rat

    def sign(self) -> int:
        """Sign of the real value, with sqrt(base) the positive real root."""
        a, b = self.rat, self.surd
        if b == 0:
            return (a > 0) - (a < 0)
        if a == 0:
            return (b > 0) - (b < 0)
        if (a > 0) == (b > 0):
            return 1 if a > 0 else -1
        # opposite signs: compare a^2 with b^2 * base
        lhs, rhs = a * a, b * b * self.base
        if lhs == rhs:
            return 0
        bigger_rat = lhs > rhs
        return (1 if a > 0 else -1) if bigger_rat else (1 if b > 0 else -1)

    def __abs__(self):
        return self if self.sign() >= 0 else -self

    def __lt__(self, other):
        return (self - self._coerce(other)).sign() < 0

    def __le__(self, other):
        return (self - self._coerce(other)).sign() <= 0

    def __gt__(self, other):
        return (self - self._coerce(other)).sign() > 0

    def __ge__(self, other):
        return (self - self._coerce(other)).sign() >= 0

    def __float__(self):
        val = float(self.rat)
        if self.surd != 0:
            val += float(self.surd) * float(self.base) ** 0.5
        return val

    def render(self) -> str:
        if self.surd == 0:
            return _render_rational(self.rat)
        return (
            f"{_render_rational(self.rat)} + "
            f"{_render_rational(self.surd)}*sqrt({self.base})"
        )

    __str__ = render

    def __repr__(self):
        return f"QNum({self.render()})"

    _GRAMMAR = re.compile(
        r"^(?P<rat>-?\d+(?:/\d+)?)"
        r"(?:\+(?P<surd>-?\d+(?:/\d+)?)\*sqrt\((?P<base>\d+)\))?$"
    )

    @staticmethod
    def parse(text: str) -> "QNum":
        compact = re.sub(r"\s+", "", text)
        m = QNum._GRAMMAR.match(compact)
        if not m:
            raise ValueError(f"cannot parse {text!r} as a QNum")
        rat = Fraction(m.group("rat"))
        if m.group("surd") is None:
            return QNum.rational(rat)
        return QNum(rat, Fraction(m.group("surd")), int(m.group("base")))


# ---------------------------------------------------------------------------
# integer polynomials (dense coefficient tuples, low degree first)


def poly_trim(coeffs) -> tuple[int, ...]:
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def poly_add(a, b) -> tuple[int, ...]:
    n = max(len(a), len(b))
    return poly_trim(
        (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)
    )


def poly_mul(a, b) -> tuple[int, ...]:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return poly_trim(out)


def poly_eval(coeffs, x):
    val = 0
    for c in reversed(coeffs):
        val = val * x + c
    return val


def render_poly(coeffs, var: str = "X") -> str:
    """Deterministic human-readable form, highest power first; "0" if zero."""
    terms = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if c == 0:
            continue
        if i == 0:
            body = str(abs(c))
        else:
            head = "" if abs(c) == 1 else f"{abs(c)}*"
            body = f"{head}{var}" if i == 1 else f"{head}{var}^{i}"
        if not terms:
            terms.append(body if c > 0 else f"-{body}")
        else:
            terms.append(f" + {body}" if c > 0 else f" - {body}")
    return "".join(terms) if terms else "0"


@cache
def cheb_poly(l: int) -> tuple[int, ...]:
    """Coefficient tuple of the dilated Chebyshev polynomial A_l.

    Closed form: A_l = sum over 0 <= j <= l/2 of (-1)^j C(l-j, j) X^(l-2j).
    """
    if l < 0:
        raise ValueError(f"negative Chebyshev index {l}")
    coeffs = [0] * (l + 1)
    for j in range(l // 2 + 1):
        coeffs[l - 2 * j] = (-1) ** j * math.comb(l - j, j)
    return tuple(coeffs)


def cheb_eval_sqrtN(l: int, n: int) -> QNum:
    """A_l(sqrt(n)) as an exact QNum with base n.

    Even coefficients contribute n**(i/2) to the rational part; odd ones
    contribute n**((i-1)/2) to the surd part.
    """
    if not (isinstance(n, int) and n >= 1):
        raise ValueError(f"base must be a positive integer, got {n!r}")
    rat = Fraction(0)
    surd = Fraction(0)
    for i, c in enumerate(cheb_poly(l)):
        if c == 0:
            continue
        if i % 2 == 0:
            rat += c * n ** (i // 2)
        else:
            surd += c * n ** ((i - 1) // 2)
    return QNum(rat, surd, n if surd != 0 else None)
