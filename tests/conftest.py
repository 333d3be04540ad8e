from fractions import Fraction
from functools import cache

import pytest

from freewreath.exactmat import bareiss_inverse
from freewreath.linmaps import build_tp
from freewreath.partition import enumerate_partitions
from freewreath.qnum import QNum, cheb_poly


def _projection_oracle(k: int, n: int):
    """Entries of the orthogonal projection onto the span of the T_p at s=1.

    The Gram matrix is built from Partition.join here, independently of the
    join counts the library shares between its Gram matrices.
    """
    parts = enumerate_partitions(0, k, mode="noncrossing")
    gram = [[n ** len(p.join(q).blocks) for q in parts] for p in parts]
    winv = bareiss_inverse(gram)
    vecs = [build_tp(p, n) for p in parts]

    def entry(row: tuple, col: tuple) -> Fraction:
        total = Fraction(0)
        for i, vi in enumerate(vecs):
            ci = vi.entries.get((col, ()), 0)
            if not ci:
                continue
            for j, vj in enumerate(vecs):
                rj = vj.entries.get((row, ()), 0)
                if rj:
                    total += rj * winv[j][i] * ci
        return total
    return entry


@pytest.fixture
def projection_oracle():
    """(k, n) -> entry(row, col) of the s=1 projection, the Haar-state oracle."""
    return _projection_oracle


@cache
def _cheb_qnum(l: int, n: int) -> QNum:
    """A_l(sqrt(n)) by Horner's rule on cheb_poly(l), in Q[sqrt(n)] arithmetic."""
    value, x = QNum.rational(0), QNum.sqrt(n)
    for c in reversed(cheb_poly(l)):
        value = value * x + c
    return value


@pytest.fixture
def cheb_qnum():
    """(l, n) -> A_l(sqrt(n)) as a QNum, the oracle for the integer route."""
    return _cheb_qnum
