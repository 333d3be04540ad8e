"""Integer polynomials, Chebyshev polynomials and the plain-word moments.

Polynomials are dense tuples of integer coefficients, lowest degree first.
The dilated Chebyshev polynomials are the family

    A_0 = 1,  A_1 = X,  A_1 * A_k = A_{k+1} + A_{k-1},

so A_2 = X**2 - 1, A_3 = X**3 - 2X, A_4 = X**4 - 3X**2 + 1, and A_l(2) = l+1.
They are the dimension polynomials of the engine.  A_l holds only powers of X
of the parity of l, so A_l(sqrt(N)) = sqrt(N)**(l mod 2) * a_l(N), where the
integer a_l(N) = sum_j (-1)^j C(l-j, j) N^(l//2 - j) is ``cheb_int_factor``.
No value of Q[sqrt(N)] is ever formed: callers keep the power of sqrt(N) as
an integer exponent.
"""

from __future__ import annotations

import itertools
from functools import cache
from operator import mul
from typing import Callable, Iterator


def poly_trim(coeffs) -> tuple[int, ...]:
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def poly_mul(a, b) -> tuple[int, ...]:
    """The product, one multiplication per pair of nonzero coefficients."""
    out = [0] * (len(a) + len(b) - 1)
    terms = [(i, x) for i, x in enumerate(a) if x]
    for j, y in enumerate(b):
        if y:
            for i, x in terms:
                out[i + j] += x * y
    return poly_trim(out)


def poly_eval(coeffs, x):
    val = 0
    for c in reversed(coeffs):
        val = val * x + c
    return val


def render_poly(coeffs) -> str:
    """Deterministic readable form in X, highest power first; "0" if zero."""
    terms = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if c == 0:
            continue
        if i == 0:
            body = str(abs(c))
        else:
            head = "" if abs(c) == 1 else f"{abs(c)}*"
            body = f"{head}X" if i == 1 else f"{head}X^{i}"
        if not terms:
            terms.append(body if c > 0 else f"-{body}")
        else:
            terms.append(f" + {body}" if c > 0 else f" - {body}")
    return "".join(terms) if terms else "0"


@cache
def cheb_poly(l: int) -> tuple[int, ...]:
    """Coefficient tuple of the dilated Chebyshev polynomial A_l.

    Closed form: A_l = sum over 0 <= j <= l/2 of (-1)^j C(l-j, j) X^(l-2j).
    Each binomial is the previous one times (l-2j)/(l-j), then (l-2j-1)/(j+1);
    taken in that order, each division is exact.
    """
    if l < 0:
        raise ValueError(f"negative Chebyshev index {l}")
    coeffs = [0] * (l + 1)
    c = 1
    for j in range(l // 2 + 1):
        coeffs[l - 2 * j] = -c if j % 2 else c
        if j < l // 2:
            c = c * (l - 2 * j) // (l - j) * (l - 2 * j - 1) // (j + 1)
    return tuple(coeffs)


@cache
def cheb_int_factor(l: int, n: int) -> int:
    """a_l(n): the coefficients of A_l of l's parity, evaluated at X**2 = n."""
    return poly_eval(cheb_poly(l)[l % 2::2], n)


def _plain_moments(cumulant: Callable[[int], int]) -> Iterator[int]:
    """The moments m_0 = 1, m_1, m_2, ... of the plain words whose free
    cumulant at length s is cumulant(s), asked for once each, in order.

    The first block of a plain word of length n has some size s, and its s
    gaps are plain words of any lengths, so the first-block sum collapses to
    the functional equation M(z) = 1 + sum_s k_s z^s M(z)^s (Nica-Speicher,
    Lectures 10 and 16): m_n = sum over 1 <= s <= n of k_s [z^(n-s)] M^s.
    powers[s-1] holds [z^j] M^s for j + s <= n, and step n adds one
    coefficient to each power, [z^j] M^s = sum over i <= j of
    m_i [z^(j-i)] M^(s-1): at most n(n+1)/2 products, each through ``mul``.
    """
    moments, powers, cumulants = [1], [[]], []
    yield 1
    for n in itertools.count(1):
        # from the top down, so that M^(s-1) is still one degree short
        for s in range(n - 1, 1, -1):
            powers[s - 1].append(sum(map(mul, moments,
                                         reversed(powers[s - 2]))))
        powers[0].append(moments[-1])
        powers.append([1])
        cumulants.append(cumulant(n))
        moments.append(sum(map(mul, cumulants, (p[-1] for p in powers))))
        yield moments[-1]
