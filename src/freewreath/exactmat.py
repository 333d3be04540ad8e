"""Exact integer/rational matrix elimination (no floating point).

One integer elimination, ``_eliminate``, gives rank and determinant from its
forward pass, and the inverse and kernel vectors from an optional backward
pass.  The inverse can be asked for on chosen columns only: the elimination
then runs on [M | those columns of I], n + |cols| entries a row, not 2n.
One plain Fraction Gauss-Jordan is the oracle independent of it: as
``gauss_jordan_inverse`` tests/ check it against ``bareiss_inverse``, and
the weingarten workload of perfbench/ builds its Haar-state oracle with it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import index
from typing import Sequence

IntMatrix = list[list[int]]
FracMatrix = list[list[Fraction]]


def _square_ints(matrix) -> IntMatrix:
    """A fresh copy of a square matrix of ints; ValueError if not square."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix must be square")
    return [[index(x) for x in row] for row in matrix]


def _clear(a: IntMatrix, r: int, top: int, col: int) -> tuple[int, int]:
    """Clear a[r][col] != 0 with the pivot row a[top]; returns (c, p)."""
    pv, fac = a[top][col], a[r][col]
    g = math.gcd(pv, fac)
    p, f = pv // g, fac // g
    row = [p * x - f * y for x, y in zip(a[r], a[top])]
    content = math.gcd(*row)
    a[r] = [x // content for x in row] if content > 1 else row
    return content, p


def _eliminate(a: IntMatrix, cols: int, back: bool
               ) -> tuple[list[int], int, int]:
    """Integer elimination on the first cols columns of the rows a, in place.

    A row with entry fac in the column of the pivot pv becomes p*row -
    f*pivot_row, p, f = pv/g, fac/g for g = gcd(pv, fac), divided by its
    content c: every division is exact, and entries stay near result size.
    The forward pass leaves a in row echelon form and returns the pivot
    columns and num/den, the product of -1 per swap and of c/p per step:
    for square a, det = num * (product of the diagonal) / den.  The backward
    pass (if back), last pivot first, then clears the entries above the
    pivots, leaving each pivot row a multiple of its reduced echelon row.
    """
    num = den = 1
    pivots: list[int] = []
    for col in range(cols):
        top = len(pivots)
        piv = next((r for r in range(top, len(a)) if a[r][col] != 0), None)
        if piv is None:
            continue
        if piv != top:
            a[top], a[piv] = a[piv], a[top]
            num = -num
        pivots.append(col)
        for r in range(top + 1, len(a)):
            if a[r][col] != 0:
                content, p = _clear(a, r, top, col)
                num *= content
                den *= p
    for top in reversed(range(len(pivots)) if back else ()):
        for r in range(top):
            if a[r][pivots[top]] != 0:
                _clear(a, r, top, pivots[top])
    return pivots, num, den


def bareiss_det_rank(matrix) -> tuple[int, int]:
    """(rank, determinant) of a square integer matrix; det is 0 when singular.

    The forward pass of ``_eliminate``.  The former Bareiss name stays:
    perfbench/tracer.py hooks it and perfbench/'s weingarten workload calls it.
    """
    a = _square_ints(matrix)
    n = len(a)
    pivots, num, den = _eliminate(a, n, back=False)
    return len(pivots), num * math.prod(a[r][r] for r in range(n)) // den


def bareiss_inverse(matrix, cols: Sequence[int] | None = None) -> FracMatrix:
    """Exact inverse of a square integer matrix via fraction-free elimination.

    Both passes of ``_eliminate`` on [M | E] leave row r as a[r][r] * e_r |
    a[r][r] * W_r E for the inverse W, where E holds the columns ``cols`` of
    the identity (all of them by default): row r of the result is W[r][c]
    for c in cols.  ZeroDivisionError if M is singular.  The former
    Bareiss-Jordan name stays: perfbench/tracer.py hooks it and reads its
    Fraction denominators, and perfbench/'s inverse sweeps call it.
    """
    a = _square_ints(matrix)
    n = len(a)
    cols = range(n) if cols is None else cols
    if any(not 0 <= c < n for c in cols):
        raise ValueError(f"column indices must lie in 0..{n - 1}")
    for i, row in enumerate(a):
        row.extend(int(i == c) for c in cols)
    if len(_eliminate(a, n, back=True)[0]) < n:
        raise ZeroDivisionError("matrix is singular")
    return [[Fraction(x, a[r][r]) for x in a[r][n:]] for r in range(n)]


def kernel_vector(matrix) -> list[Fraction] | None:
    """A nonzero rational kernel vector of a square integer matrix, or None.

    Both passes of ``_eliminate``; the first free column c gets 1 and pivot
    column p_r gets -a[r][c] / a[r][p_r], as in the reduced echelon form.
    """
    a = _square_ints(matrix)
    n = len(a)
    pivots = _eliminate(a, n, back=True)[0]
    if len(pivots) == n:
        return None
    free_col = next(c for c in range(n) if c not in pivots)
    vec = [Fraction(c == free_col) for c in range(n)]
    for r, c in enumerate(pivots):
        vec[c] = Fraction(-a[r][free_col], a[r][c])
    return vec


def _reduce_rows(a: FracMatrix, cols: int) -> list[int]:
    """Gauss-Jordan on the first cols columns of a, in place; returns the
    pivot column of each leading row, fewer than cols when a is singular."""
    pivots: list[int] = []
    for col in range(cols):
        row = len(pivots)
        piv = next((r for r in range(row, len(a)) if a[r][col] != 0), None)
        if piv is None:
            continue
        a[row], a[piv] = a[piv], a[row]
        pv = a[row][col]
        a[row] = [x / pv for x in a[row]]
        for r in range(len(a)):
            if r != row and a[r][col] != 0:
                fac = a[r][col]
                a[r] = [x - fac * y for x, y in zip(a[r], a[row])]
        pivots.append(col)
    return pivots


def gauss_jordan_inverse(matrix) -> FracMatrix:
    """Fraction Gauss-Jordan inverse; independent oracle for bareiss_inverse."""
    n = len(matrix)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(matrix)]
    if len(_reduce_rows(a, n)) < n:
        raise ZeroDivisionError("matrix is singular")
    return [row[n:] for row in a]
