"""Foundations: exact rationals, projective points, arrangements, point
types, ordered partitions, and bipartite cell graphs.

Every coordinate in this package is a ``fractions.Fraction``; nothing is
ever rounded.  Hyperplane indices live in {1, ..., n} and coordinate
labels in {1, ..., d}; all public data structures, diagnostics and text
forms use these 1-based labels.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Iterator, Sequence, Union

Rational = Fraction
RationalLike = Union[Fraction, int, str]

#: Cap on the feasibility steps (candidate entries generated on a
#: feasible prefix and tested) one type enumeration may take; a generic
#: (5,4) takes 735, one per realizable prefix.
DEFAULT_BUDGET = 200_000


class ResourceLimitError(RuntimeError):
    """A computation exceeded its configured budget or work cap."""


_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/(\d+)|\.(\d{1,18}))?$")


def parse_rational(text: str) -> Fraction:
    """Parse ``p``, ``p/q`` or a decimal with at most 18 fractional digits."""
    s = text.strip()
    m = _RATIONAL_RE.match(s)
    if m is None:
        raise ValueError(f"not a rational literal: {text!r}")
    if m.group(1) is not None and int(m.group(1)) == 0:
        raise ValueError(f"zero denominator: {text!r}")
    return Fraction(s)


def format_rational(value: Fraction) -> str:
    """Canonical text form, ``p`` or ``p/q`` in lowest terms."""
    return str(value)


def to_fraction(value: RationalLike) -> Fraction:
    """Coerce an exact input to Fraction; floats are rejected outright."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("bool is not a coordinate")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    if isinstance(value, float):
        raise TypeError("floating point input is not allowed; pass Fraction, int or str")
    raise TypeError(f"cannot interpret {type(value).__name__} as an exact rational")


@dataclass(frozen=True)
class ProjectivePoint:
    """A point of max-plus projective (d-1)-space.

    Coordinate vectors differing by a common additive constant describe
    the same point; :meth:`normalized` picks the representative whose
    last coordinate is zero.
    """

    coords: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "coords", tuple(to_fraction(c) for c in self.coords))
        if len(self.coords) < 2:
            raise ValueError("a projective point needs at least 2 coordinates")

    @property
    def d(self) -> int:
        return len(self.coords)

    def normalized(self) -> "ProjectivePoint":
        last = self.coords[-1]
        if last == 0:
            return self
        return ProjectivePoint(tuple(c - last for c in self.coords))

    def shifted(self, delta: Sequence[RationalLike]) -> "ProjectivePoint":
        if len(delta) != self.d:
            raise ValueError("shift has wrong length")
        return ProjectivePoint(tuple(c + to_fraction(e) for c, e in zip(self.coords, delta)))

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.coords)

    def __len__(self) -> int:
        return len(self.coords)

    def __getitem__(self, idx: int) -> Fraction:
        return self.coords[idx]


def normalize(point: ProjectivePoint) -> ProjectivePoint:
    """Canonical representative (last coordinate zero).  Idempotent."""
    return point.normalized()


def _as_point(row, d: int | None = None) -> ProjectivePoint:
    point = row if isinstance(row, ProjectivePoint) else ProjectivePoint(tuple(row))
    if d is not None and point.d != d:
        raise ValueError(f"expected {d} coordinates, got {point.d}")
    return point


@dataclass(frozen=True)
class Arrangement:
    """n max-plus hyperplanes in projective (d-1)-space, one apex per row.

    Rows are stored in canonical projective form, so arrangements compare
    equal exactly when their hyperplanes coincide as point sets.
    """

    apexes: tuple[ProjectivePoint, ...]

    def __post_init__(self) -> None:
        rows = tuple(_as_point(r).normalized() for r in self.apexes)
        if not rows:
            raise ValueError("an arrangement needs at least one hyperplane")
        d = rows[0].d
        if d < 2:
            raise ValueError("ambient parameter d must be at least 2")
        if any(r.d != d for r in rows):
            raise ValueError("all apex rows must have the same length")
        object.__setattr__(self, "apexes", rows)

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[RationalLike]]) -> "Arrangement":
        return cls(tuple(ProjectivePoint(tuple(r)) for r in rows))

    @property
    def n(self) -> int:
        return len(self.apexes)

    @property
    def d(self) -> int:
        return self.apexes[0].d

    def apex(self, i: int) -> ProjectivePoint:
        """Apex of hyperplane i (1-based)."""
        if not 1 <= i <= self.n:
            raise IndexError(f"hyperplane index {i} out of range 1..{self.n}")
        return self.apexes[i - 1]

    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(p.coords for p in self.apexes)


def _as_label_set(entry) -> frozenset[int]:
    labels = frozenset(entry)
    if not labels:
        raise ValueError("type entries must be nonempty")
    for x in labels:
        if not isinstance(x, int) or isinstance(x, bool) or x < 1:
            raise ValueError(f"labels must be positive integers, got {x!r}")
    return labels


@dataclass(frozen=True)
class TypeVector:
    """An n-tuple of nonempty coordinate-label subsets: one sector set per
    hyperplane."""

    entries: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        entries = tuple(_as_label_set(e) for e in self.entries)
        if not entries:
            raise ValueError("a type vector needs at least one entry")
        object.__setattr__(self, "entries", entries)

    @classmethod
    def of(cls, *entries: Iterable[int]) -> "TypeVector":
        return cls(tuple(frozenset(e) for e in entries))

    @property
    def n(self) -> int:
        return len(self.entries)

    def max_label(self) -> int:
        return max(max(e) for e in self.entries)

    def entry(self, i: int) -> frozenset[int]:
        """Entry at hyperplane i (1-based)."""
        if not 1 <= i <= self.n:
            raise IndexError(f"position {i} out of range 1..{self.n}")
        return self.entries[i - 1]

    def with_entry(self, i: int, labels: Iterable[int]) -> "TypeVector":
        """Copy with the entry at position i (1-based) replaced."""
        if not 1 <= i <= self.n:
            raise IndexError(f"position {i} out of range 1..{self.n}")
        entries = list(self.entries)
        entries[i - 1] = frozenset(labels)
        return TypeVector(tuple(entries))

    def key(self) -> tuple[tuple[int, ...], ...]:
        """Canonical sort key (entries as ascending label tuples)."""
        return tuple(tuple(sorted(e)) for e in self.entries)

    def text(self) -> str:
        parts = ("{" + ",".join(str(x) for x in sorted(e)) + "}" for e in self.entries)
        return "(" + ",".join(parts) + ")"

    @classmethod
    def parse(cls, text: str) -> "TypeVector":
        """Inverse of :meth:`text`; rejects anything not in canonical form."""
        s = text.strip()
        if not (s.startswith("(") and s.endswith(")")):
            raise ValueError(f"not a type literal: {text!r}")
        body = s[1:-1]
        entries = []
        while True:
            m = re.match(r"\{(\d+(?:,\d+)*)\}", body)
            if m is None:
                raise ValueError(f"not a type literal: {text!r}")
            labels = [int(x) for x in m.group(1).split(",")]
            if labels != sorted(set(labels)):
                raise ValueError(f"labels must be strictly ascending: {text!r}")
            entries.append(frozenset(labels))
            body = body[m.end():]
            if not body:
                break
            if not body.startswith(","):
                raise ValueError(f"not a type literal: {text!r}")
            body = body[1:]
        return cls(tuple(entries))

    def __str__(self) -> str:
        return self.text()


def type_total_size(T: TypeVector) -> int:
    """Total number of labels summed over the entries."""
    return sum(len(e) for e in T.entries)


@dataclass(frozen=True)
class OrderedPartition:
    """Ordered sequence of disjoint nonempty blocks covering {1, ..., d}."""

    blocks: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        blocks = tuple(_as_label_set(b) for b in self.blocks)
        if not blocks:
            raise ValueError("an ordered partition needs at least one block")
        seen: set[int] = set()
        for b in blocks:
            if seen & b:
                raise ValueError("blocks must be pairwise disjoint")
            seen |= b
        if seen != set(range(1, len(seen) + 1)):
            raise ValueError("blocks must cover {1, ..., d} with no gaps")
        object.__setattr__(self, "blocks", blocks)

    @property
    def d(self) -> int:
        return sum(len(b) for b in self.blocks)

    def text(self) -> str:
        parts = ("{" + ",".join(str(x) for x in sorted(b)) + "}" for b in self.blocks)
        return "(" + "|".join(parts) + ")"

    def __str__(self) -> str:
        return self.text()


def enumerate_ordered_partitions(d: int) -> list[OrderedPartition]:
    """All ordered partitions of {1, ..., d}, each exactly once.

    Deterministic order: first block chosen by ascending size then
    lexicographically, recursing on the remainder.  The count is the
    Fubini number of d (1, 3, 13, 75, ... for d = 1, 2, 3, 4).
    """
    if d < 1:
        raise ValueError("d must be at least 1")

    def rec(remaining: tuple[int, ...]):
        if not remaining:
            yield ()
            return
        for size in range(1, len(remaining) + 1):
            for first in combinations(remaining, size):
                fs = frozenset(first)
                rest = tuple(x for x in remaining if x not in fs)
                for tail in rec(rest):
                    yield (fs,) + tail

    return [OrderedPartition(blocks) for blocks in rec(tuple(range(1, d + 1)))]


@dataclass(frozen=True)
class CellGraph:
    """Bipartite graph on hyperplane nodes {1..n} and coordinate nodes
    {1..d}; the dual encoding of a type as a cell of the product of
    simplices."""

    n: int
    d: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        edges = frozenset((int(i), int(j)) for i, j in self.edges)
        for i, j in edges:
            if not (1 <= i <= self.n and 1 <= j <= self.d):
                raise ValueError(f"edge ({i},{j}) outside 1..{self.n} x 1..{self.d}")
        object.__setattr__(self, "edges", edges)

    def sorted_edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self.edges))

    def text(self) -> str:
        return "[" + ",".join(f"({i},{j})" for i, j in self.sorted_edges()) + "]"

    def __str__(self) -> str:
        return self.text()
