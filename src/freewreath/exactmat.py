"""Exact integer/rational matrix elimination (no floating point).

One integer elimination gives rank and determinant from its forward pass,
``_forward``, and the inverse from a backward pass, ``_back``, run only at
full rank, since a singular matrix has no inverse.  The inverse can be asked
for on chosen columns only: the elimination then runs on [M | those columns
of I], n + |cols| entries a row, not 2n.

Each step combines two rows, and only where either can be nonzero; the
skipped spans are zero in both rows, so they stay zero and add nothing to a
row's content, and the rows come out entry for entry as from combining
them whole.  Forward, both rows are zero left of the pivot column.
Backward at full rank, the later pivots have already cleared both rows
between the pivot column and the augmented columns, and the pivot row is
zero left of its pivot, so the cleared row is only scaled there.  One plain
Fraction Gauss-Jordan, ``gauss_jordan_inverse``, is the oracle independent
of it: tests/ check ``bareiss_inverse`` against it and build their
Haar-state oracle with it, as the weingarten workload of perfbench/ does.
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


def _combine(p: int, f: int, row: list[int], pivot: list[int]) -> list[int]:
    """p*row - f*pivot, entrywise."""
    return [p * x - f * y for x, y in zip(row, pivot)]


def _primitive(row: list[int]) -> tuple[list[int], int]:
    """row divided by its content c, and c (0 for a zero row)."""
    content = math.gcd(*row)
    return ([x // content for x in row] if content > 1 else row), content


def _forward(a: IntMatrix, cols: int) -> tuple[list[int], int, int]:
    """Row echelon form of the first cols columns of the rows a, in place.

    A row with entry fac in the column of the pivot pv becomes p*row -
    f*pivot_row, p, f = pv/g, fac/g for g = gcd(pv, fac), divided by its
    content c: every division is exact, and entries stay near result size.
    Both rows are zero left of the pivot column, so only the entries from
    it on are combined.  Returns the pivot columns and num/den, the product
    of -1 per swap and of c/p per step: for square a, det = num * (product
    of the diagonal) / den.
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
        pivot = a[top][col:]
        pv = pivot[0]
        for r in range(top + 1, len(a)):
            fac = a[r][col]
            if fac != 0:
                g = math.gcd(pv, fac)
                tail, content = _primitive(
                    _combine(pv // g, fac // g, a[r][col:], pivot))
                a[r][col:] = tail
                num *= content
                den *= pv // g
    return pivots, num, den


def _back(a: IntMatrix, n: int) -> None:
    """Clear the entries above the diagonal of a full-rank echelon form whose
    rows hold n columns of a square matrix and then its augmented columns.

    Last pivot first, as in :func:`_forward`.  When the pivot of column top
    clears row r < top, the later pivots have already cleared both rows past
    column top up to the augmented columns, and the pivot row is zero left
    of its pivot: row r is only scaled on columns r..top-1, column top
    becomes zero, and the rows are combined on the augmented columns alone.
    Only those spans are written; the zeros left of r and past top stay.
    Each row ends as a multiple of its reduced echelon row.
    """
    for top in reversed(range(n)):
        pv, aug = a[top][top], a[top][n:]
        for r in range(top):
            row = a[r]
            fac = row[top]
            if fac != 0:
                g = math.gcd(pv, fac)
                p = pv // g
                head = _primitive([p * x for x in row[r:top]]
                                  + _combine(p, fac // g, row[n:], aug))[0]
                row[r:top] = head[:top - r]
                row[top] = 0
                row[n:] = head[top - r:]


def bareiss_det_rank(matrix) -> tuple[int, int]:
    """(rank, determinant) of a square integer matrix; det is 0 when singular.

    The forward pass, :func:`_forward`.  The former Bareiss name stays:
    perfbench/tracer.py hooks it and perfbench/'s weingarten workload calls it.
    """
    a = _square_ints(matrix)
    n = len(a)
    pivots, num, den = _forward(a, n)
    return len(pivots), num * math.prod(a[r][r] for r in range(n)) // den


def bareiss_inverse(matrix, cols: Sequence[int] | None = None) -> FracMatrix:
    """Exact inverse of a square integer matrix via fraction-free elimination.

    :func:`_forward` and, at full rank, :func:`_back` on [M | E] leave row
    r as a[r][r] * e_r | a[r][r] * W_r E for the inverse W, where E holds
    the columns ``cols`` of the identity (all of them by default): row r of
    the result is W[r][c] for c in cols.  ZeroDivisionError if M is
    singular.  The former Bareiss-Jordan name stays: perfbench/tracer.py
    hooks it and reads its Fraction denominators, and perfbench/'s inverse
    sweeps call it.
    """
    a = _square_ints(matrix)
    n = len(a)
    cols = range(n) if cols is None else cols
    if any(not 0 <= c < n for c in cols):
        raise ValueError(f"column indices must lie in 0..{n - 1}")
    for i, row in enumerate(a):
        row.extend(int(i == c) for c in cols)
    if len(_forward(a, n)[0]) < n:
        raise ZeroDivisionError("matrix is singular")
    _back(a, n)
    return [[Fraction(x, a[r][r]) for x in a[r][n:]] for r in range(n)]


def gauss_jordan_inverse(matrix) -> FracMatrix:
    """Fraction Gauss-Jordan inverse; independent oracle for bareiss_inverse."""
    n = len(matrix)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(matrix)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            raise ZeroDivisionError("matrix is singular")
        a[col], a[piv] = a[piv], a[col]
        pv = a[col][col]
        a[col] = [x / pv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                fac = a[r][col]
                a[r] = [x - fac * y for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a]
