"""Exact integer/rational matrix elimination (no floating point).

Integer elimination keeps every row primitive by dividing out its content,
so entries stay near the size of the result instead of growing to
determinant-sized minors.  Forward elimination gives rank and determinant,
the latter through an exact rational factor that undoes each row scaling;
Gauss-Jordan on [M | I] gives the exact inverse.  One
plain Fraction Gauss-Jordan, which tolerates rank deficiency, gives kernel
vectors of singular matrices and, as ``gauss_jordan_inverse``, an oracle
independent of the integer route: tests/ check it against ``bareiss_inverse``,
and the weingarten workload of perfbench/ builds its Haar-state oracle with it.
"""

from __future__ import annotations

import math
from fractions import Fraction

IntMatrix = list[list[int]]
FracMatrix = list[list[Fraction]]


def bareiss_det_rank(matrix) -> tuple[int, int]:
    """(rank, determinant) of a square integer matrix; det is 0 when singular.

    Integer forward elimination that keeps rows primitive, as
    ``bareiss_inverse`` does: a row below the pivot becomes
    (pv/g)*row - (fac/g)*pivot_row and is then divided by its content c.
    Each such step scales the determinant by (pv/g)/c, so the exact rational
    factor -1 per swap, times c, divided by pv/g undoes them all, and
    det = factor * (product of the pivots).  The rank is the number of
    pivots.  The name is kept from the former Bareiss version:
    perfbench/tracer.py hooks it and the weingarten workload of perfbench/
    calls it.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix must be square")
    a = [[int(x) for x in row] for row in matrix]
    factor = Fraction(1)
    pivots: list[int] = []
    for col in range(n):
        top = len(pivots)
        piv = next((r for r in range(top, n) if a[r][col] != 0), None)
        if piv is None:
            continue
        if piv != top:
            a[top], a[piv] = a[piv], a[top]
            factor = -factor
        pivot_row = a[top]
        pv = pivot_row[col]
        for r in range(top + 1, n):
            fac = a[r][col]
            if fac == 0:
                continue
            g = math.gcd(pv, fac)
            p, f = pv // g, fac // g
            row = [p * x - f * y for x, y in zip(a[r], pivot_row)]
            content = math.gcd(*row)
            if content > 1:
                row = [x // content for x in row]
                factor *= content
            a[r] = row
            factor /= p
        pivots.append(pv)
    if len(pivots) < n:
        return len(pivots), 0
    return n, int(factor * math.prod(pivots))


def bareiss_inverse(matrix) -> FracMatrix:
    """Exact inverse of a square integer matrix via fraction-free elimination.

    Integer Gauss-Jordan on the augmented [M | I]: each elimination step
    replaces a row by (pv/g)*row - (fac/g)*pivot_row with g = gcd(pv, fac),
    and then divides the row by the gcd of its entries, so every division is
    exact and entries stay near the size of the result instead of growing to
    determinant size.  Row r then reads a[r][r] * e_r | a[r][r] * (row r of
    the inverse).  Raises ZeroDivisionError on singular input.  The name is
    kept from the former Bareiss-Jordan version: perfbench/tracer.py hooks it
    and the exactmat.inverse_s sweeps of perfbench/ call it.
    """
    n = len(matrix)
    a = [[int(x) for x in row] + [int(i == j) for j in range(n)]
         for i, row in enumerate(matrix)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            raise ZeroDivisionError("matrix is singular")
        a[col], a[piv] = a[piv], a[col]
        pivot_row = a[col]
        pv = pivot_row[col]
        for r in range(n):
            fac = a[r][col]
            if r == col or fac == 0:
                continue
            g = math.gcd(pv, fac)
            p, f = pv // g, fac // g
            row = [p * x - f * y for x, y in zip(a[r], pivot_row)]
            content = math.gcd(*row)
            a[r] = [x // content for x in row] if content > 1 else row
    return [[Fraction(x, a[r][r]) for x in a[r][n:]] for r in range(n)]


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


def kernel_vector(matrix) -> list[Fraction] | None:
    """A nonzero rational kernel vector of a square matrix, or None."""
    n = len(matrix)
    a = [[Fraction(x) for x in row] for row in matrix]
    pivots = _reduce_rows(a, n)
    if len(pivots) == n:
        return None
    free_col = next(c for c in range(n) if c not in pivots)
    vec = [Fraction(0)] * n
    vec[free_col] = Fraction(1)
    for r, c in enumerate(pivots):
        vec[c] = -a[r][free_col]
    return vec
