"""Small exact linear algebra helpers: rational matrix rank and integer
determinants, both read off one exact Gaussian elimination."""

from __future__ import annotations

from fractions import Fraction
from math import prod
from typing import Sequence


def _pivots(rows: Sequence[Sequence[Fraction]]) -> tuple[list[Fraction], int]:
    """Exact Gaussian elimination: the pivot of each column that takes
    one, left to right, and the sign of the row swaps that brought them
    up.  Their count is the rank, and a square matrix of full rank has
    the signed product of its pivots as determinant."""
    m = [list(map(Fraction, row)) for row in rows]
    cols = len(m[0]) if m else 0
    pivots: list[Fraction] = []
    sign = 1
    for c in range(cols):
        r = len(pivots)
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        if pivot != r:
            m[r], m[pivot] = m[pivot], m[r]
            sign = -sign
        pv = m[r][c]
        for i in range(r + 1, len(m)):
            if m[i][c] != 0:
                f = m[i][c] / pv
                for j in range(c, cols):
                    m[i][j] -= f * m[r][j]
        pivots.append(pv)
    return pivots, sign


def det_int(matrix: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix, exactly."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix must be square")
    pivots, sign = _pivots(matrix)
    return sign * int(prod(pivots)) if len(pivots) == n else 0


def rank(rows: Sequence[Sequence[Fraction]]) -> int:
    """Rank of a rational matrix by exact Gaussian elimination."""
    return len(_pivots(rows)[0])
