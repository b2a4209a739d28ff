"""Small exact linear algebra helpers: integer matrix rank and
determinants, both read off one fraction-free (Bareiss) elimination on
ints."""

from __future__ import annotations

from typing import Sequence


def _eliminate(rows: Sequence[Sequence[int]]) -> tuple[int, int, int]:
    """Fraction-free Gaussian elimination of an int matrix (Bareiss): its
    rank, the sign of the row swaps that brought the pivots up, and the
    last pivot.

    Columns are taken left to right, and one that has no nonzero entry
    left below the pivots so far takes no pivot.  After k pivots each
    entry below them is the k+1 minor of the permuted matrix on the pivot
    rows and columns and its own row and column, so every update
    (p·a - b·c) divides exactly by the previous pivot (Sylvester's
    identity), and the entries stay as large as those minors.  The last
    pivot of a square matrix of full rank is its determinant times the
    swaps' sign."""
    m = [list(row) for row in rows]
    cols = len(m[0]) if m else 0
    r, sign, prev = 0, 1, 1
    for c in range(cols):
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        if pivot != r:
            m[r], m[pivot] = m[pivot], m[r]
            sign = -sign
        top = m[r]
        pv = top[c]
        for row in m[r + 1:]:
            f = row[c]
            for j in range(c + 1, cols):
                row[j] = (pv * row[j] - f * top[j]) // prev
        prev = pv
        r += 1
    return r, sign, prev


def det_int(matrix: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix, exactly."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix must be square")
    r, sign, last = _eliminate(matrix)
    return sign * last if r == n else 0


def rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank of an integer matrix, exactly."""
    return _eliminate(rows)[0]
