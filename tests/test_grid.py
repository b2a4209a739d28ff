"""Exhaustive small grids: every apex matrix with entries in {-1, 0, 1}
and last column 0, degenerate ones included.

The (2,3) and (3,3) grids run by default.  ``--grid`` adds the larger
ones: (3,3) and (2,4) against the Fraction oracle, and dual subdivision
against lower envelope on the 6,561 inputs at (4,3).
"""

from itertools import product

import pytest

from troparr import (
    Arrangement,
    arrangement_heights,
    enumerate_realizations,
    realizable,
    regular_subdivision,
)
from troparr.duality import _subdivision_of

from conftest import realizations_oracle


def grid(n: int, d: int):
    rows = [list(head) + [0] for head in product((-1, 0, 1), repeat=d - 1)]
    for choice in product(rows, repeat=n):
        yield Arrangement.from_rows(choice)


@pytest.mark.parametrize(
    "n, d",
    [(2, 3), pytest.param(3, 3, marks=pytest.mark.large_grid), pytest.param(2, 4, marks=pytest.mark.large_grid)],
)
def test_realizations_match_oracle_on_grid(n, d):
    for arr in grid(n, d):
        expected = realizations_oracle(arr)
        assert enumerate_realizations(arr) == expected, arr.rows()
        for T, result in expected.items():
            assert realizable(arr, T) == result


@pytest.mark.parametrize("n, d", [(2, 3), (3, 3), pytest.param(4, 3, marks=pytest.mark.large_grid)])
def test_dual_subdivision_matches_envelope_on_grid(n, d):
    for arr in grid(n, d):
        dual = _subdivision_of(arr, enumerate_realizations(arr))
        assert dual == regular_subdivision(arrangement_heights(arr)), arr.rows()
