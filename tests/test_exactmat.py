import math

import pytest

from freewreath.exactmat import bareiss_inverse, gauss_jordan_inverse
from freewreath.weingarten import wg_gram


@pytest.mark.parametrize("s", (1, 4))
@pytest.mark.parametrize("n", (4, 5))
def test_gauss_jordan_oracle_matches_bareiss(n, s):
    category = "singletons" if s == 1 else "noncrossing"
    for k in range(1, 5):
        gram = wg_gram(k, n, s, category)
        winv = gauss_jordan_inverse(gram)
        assert winv == bareiss_inverse(gram)
        # W G = I, checked in integers as (d W) G = d I
        d = math.lcm(*(x.denominator for row in winv for x in row))
        columns = list(zip(*gram))
        for i, row in enumerate(winv):
            scaled = [int(x * d) for x in row]
            assert [sum(a * b for a, b in zip(scaled, col)) for col in columns] \
                == [d * (i == j) for j in range(len(gram))]
