from fractions import Fraction
from functools import cache

import pytest
from hypothesis import settings

from freewreath.exactmat import gauss_jordan_inverse
from freewreath.linmaps import build_tp
from freewreath.partition import enumerate_partitions
from freewreath.qnum import cheb_poly

# every property test draws the same cases on every run; the slow ones take
# fewer examples through their own settings
settings.register_profile("freewreath", derandomize=True, deadline=None,
                          database=None, max_examples=150)
settings.load_profile("freewreath")


def _position(index: tuple, n: int) -> int:
    """A multi-index over 1..n as a base-n number, first letter most
    significant: the key of its entry in a SparseMap."""
    out = 0
    for x in index:
        out = out * n + x - 1
    return out


def _projection_oracle(k: int, n: int):
    """Entries of the orthogonal projection onto the span of the T_p at s=1.

    The Gram matrix is built from Partition.join here, independently of the
    join counts the library shares between its Gram matrices, and inverted
    by Fraction Gauss-Jordan, not by the elimination the library uses.
    """
    parts = enumerate_partitions(0, k, mode="noncrossing")
    gram = [[n ** len(p.join(q).blocks) for q in parts] for p in parts]
    winv = gauss_jordan_inverse(gram)
    vecs = [build_tp(p, n) for p in parts]

    def entry(row: tuple, col: tuple) -> Fraction:
        total = Fraction(0)
        row, col = _position(row, n), _position(col, n)
        for i, vi in enumerate(vecs):
            ci = vi.entries.get((col, 0), 0)
            if not ci:
                continue
            for j, vj in enumerate(vecs):
                rj = vj.entries.get((row, 0), 0)
                if rj:
                    total += rj * winv[j][i] * ci
        return total
    return entry


@pytest.fixture
def projection_oracle():
    """(k, n) -> entry(row, col) of the s=1 projection, the Haar-state oracle."""
    return _projection_oracle


# Q[sqrt(n)] as (rational, surd) pairs a + b*sqrt(n), sqrt(n) kept formal even
# for a square n; the oracle of the integer parity split of A_l(sqrt(n)).


@cache
def _cheb_qnum(l: int, n: int) -> tuple:
    """A_l(sqrt(n)) by Horner's rule on cheb_poly(l): (a, b) -> (b*n + c, a)."""
    a, b = 0, 0
    for c in reversed(cheb_poly(l)):
        a, b = b * n + c, a
    return a, b


def _qnum_prod(factors, n: int) -> tuple:
    """The product of (rational, surd) pairs in Q[sqrt(n)]."""
    a, b = 1, 0
    for c, d in factors:
        a, b = a * c + b * d * n, a * d + b * c
    return a, b


@pytest.fixture
def cheb_qnum():
    """(l, n) -> A_l(sqrt(n)) as a (rational, surd) pair."""
    return _cheb_qnum


@pytest.fixture
def qnum_prod():
    """(factors, n) -> the product of (rational, surd) pairs in Q[sqrt(n)]."""
    return _qnum_prod
