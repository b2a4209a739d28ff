"""Seeded input generator for the troparr benchmark.

Every arrangement is drawn from a ``random.Random`` seeded by the
benchmark's ``--seed``, so a seed fixes the inputs.  The filters below are
computed here, from apex rows, and never by calling troparr: the input
set must stay the same when the library's own genericity test changes.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from itertools import combinations, permutations

#: Bounded retries for the filtered draws; every slice the benchmark
#: uses accepts a draw within a few tries, so hitting this is a bug.
MAX_TRIES = 10_000


def _rational(rng: random.Random, max_den: int = 100, span: int = 3) -> Fraction:
    q = rng.randint(1, max_den)
    return Fraction(rng.randint(-span * q, span * q), q)


def _rational_rows(rng: random.Random, n: int, d: int) -> list[list[Fraction]]:
    return [[_rational(rng) for _ in range(d)] for _ in range(n)]


def _integer_rows(rng: random.Random, n: int, d: int) -> list[list[Fraction]]:
    return [[Fraction(rng.randint(-2, 2)) for _ in range(d)] for _ in range(n)]


def sector_labels(apex, point) -> frozenset[int]:
    """Labels j maximizing point_j - apex_j: the fan face of the
    hyperplane with this apex that contains the point."""
    diffs = [x - v for x, v in zip(point, apex)]
    top = max(diffs)
    return frozenset(j for j, v in enumerate(diffs, 1) if v == top)


def apex_incidences(rows) -> list[tuple[int, int, frozenset[int]]]:
    """(k, i, labels) for every apex k lying on a proper face of
    hyperplane i's fan (two or more maximizing labels), 1-based."""
    out = []
    for k, point in enumerate(rows, 1):
        for i, apex in enumerate(rows, 1):
            if i != k:
                labels = sector_labels(apex, point)
                if len(labels) >= 2:
                    out.append((k, i, labels))
    return out


def tropically_generic(rows) -> bool:
    """Every square minor of the apex matrix has a min-plus tropical
    determinant attained by exactly one permutation."""
    n, d = len(rows), len(rows[0])
    for size in range(2, min(n, d) + 1):
        perms = list(permutations(range(size)))
        for rsel in combinations(range(n), size):
            for csel in combinations(range(d), size):
                sums = sorted(
                    sum(rows[rsel[a]][csel[p[a]]] for a in range(size)) for p in perms
                )
                if sums[0] == sums[1]:
                    return False
    return True


def _draw(rng: random.Random, make, accept):
    for _ in range(MAX_TRIES):
        rows = make()
        if accept(rows):
            return rows
    raise RuntimeError("input generator exhausted its retries")


def _on_ray(rng: random.Random, n: int, d: int) -> list[list[Fraction]]:
    """Last apex strictly on a ray-or-higher face {j,k} of hyperplane 1,
    and no other apex incidence."""

    def make():
        base = _rational_rows(rng, n - 1, d)
        j, k = sorted(rng.sample(range(d), 2))
        t = Fraction(rng.randint(1, 200), rng.randint(1, 50))
        victim = [x + t if c in (j, k) else x for c, x in enumerate(base[0])]
        return base + [victim]

    return _draw(rng, make, lambda rows: len(apex_incidences(rows)) == 1)


def _on_apex(rng: random.Random, n: int, d: int) -> list[list[Fraction]]:
    """Last apex equal to apex 1, and no other apex incidence."""

    def make():
        base = _rational_rows(rng, n - 1, d)
        return base + [list(base[0])]

    return _draw(rng, make, lambda rows: len(apex_incidences(rows)) == 2)


#: Slice kinds: how one arrangement of a given shape is drawn.
KINDS = {
    # generic random rationals, denominators <= 100
    "rational": lambda rng, n, d: _draw(
        rng, lambda: _rational_rows(rng, n, d), tropically_generic
    ),
    # unfiltered small-integer draws, entries in [-2, 2]
    "integer": _integer_rows,
    # small-integer draws with some apex on a proper face of another fan
    "integer_incident": lambda rng, n, d: _draw(
        rng, lambda: _integer_rows(rng, n, d), apex_incidences
    ),
    "on_ray": _on_ray,
    "on_apex": _on_apex,
}


def draw(rng: random.Random, kind: str, n: int, d: int) -> list[list[Fraction]]:
    return KINDS[kind](rng, n, d)


def to_json(rows) -> str:
    doc = {"n": len(rows), "d": len(rows[0]), "apexes": [[str(x) for x in r] for r in rows]}
    return json.dumps(doc, sort_keys=True) + "\n"
