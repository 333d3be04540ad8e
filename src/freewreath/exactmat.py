"""Exact integer/rational matrix elimination (no floating point).

The workhorses are Bareiss fraction-free elimination for determinant and rank
of integer matrices (intermediate values are minors, so they stay integral and
their bit growth is controlled) and a Bareiss-Jordan variant that produces the
exact inverse.  One plain Fraction Gauss-Jordan, which tolerates rank
deficiency, gives kernel vectors of singular matrices and, as
``gauss_jordan_inverse``, an oracle independent of Bareiss: tests/ check it
against ``bareiss_inverse`` on Weingarten Gram matrices, and the weingarten
workload of perfbench/ builds its Haar-state oracle with it.
"""

from __future__ import annotations

from fractions import Fraction

IntMatrix = list[list[int]]
FracMatrix = list[list[Fraction]]


def bareiss_det_rank(matrix) -> tuple[int, int]:
    """(rank, determinant) of a square integer matrix; det is 0 when singular."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix must be square")
    a = [[int(x) for x in row] for row in matrix]
    sign = 1
    prev = 1
    rank = 0
    row = 0
    for col in range(n):
        piv = next((r for r in range(row, n) if a[r][col] != 0), None)
        if piv is None:
            continue
        if piv != row:
            a[row], a[piv] = a[piv], a[row]
            sign = -sign
        for r in range(row + 1, n):
            for c in range(col + 1, n):
                a[r][c] = (a[row][col] * a[r][c] - a[r][col] * a[row][c]) // prev
            a[r][col] = 0
        prev = a[row][col]
        rank += 1
        row += 1
    det = sign * prev if rank == n else 0
    return rank, det


def bareiss_inverse(matrix) -> FracMatrix:
    """Exact inverse of a square integer matrix via fraction-free elimination.

    Runs Bareiss-Jordan on the augmented [M | I]; all intermediate entries are
    integers (divisions are exact), and the final right block divided by the
    determinant is the inverse.  Raises ZeroDivisionError on singular input.
    """
    n = len(matrix)
    a = [[int(x) for x in row] + [int(i == j) for j in range(n)]
         for i, row in enumerate(matrix)]
    sign = 1
    prev = 1
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            raise ZeroDivisionError("matrix is singular")
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            sign = -sign
        pv = a[col][col]
        for r in range(n):
            if r == col:
                continue
            fac = a[r][col]
            for c in range(2 * n):
                num = pv * a[r][c] - fac * a[col][c]
                q, rem = divmod(num, prev)
                if rem:
                    raise ArithmeticError("inexact division in Bareiss step")
                a[r][c] = q
        prev = pv
    det = sign * prev
    if det == 0:
        raise ZeroDivisionError("matrix is singular")
    # after full Jordan elimination each row r of the left block is
    # a[r][r] * e_r with a[r][r] == prev (+- the running pivot); divide row by it
    out = []
    for r in range(n):
        d = a[r][r]
        if d == 0:
            raise ZeroDivisionError("matrix is singular")
        out.append([Fraction(a[r][n + c] * sign, d * sign) for c in range(n)])
    return out


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
