from fractions import Fraction

import pytest

from freewreath.exactmat import bareiss_inverse
from freewreath.linmaps import build_tp
from freewreath.partition import enumerate_partitions


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
