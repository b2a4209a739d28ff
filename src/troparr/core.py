"""Foundations: exact rationals, projective points, arrangements, point
types, ordered partitions, and bipartite cell graphs.

Coordinates enter and leave this package as ``fractions.Fraction``s, and
nothing is ever rounded; inside, every kernel reads one integer form of
the apex matrix, computed once per arrangement (:func:`_integer_rows`).
Hyperplane indices live in {1, ..., n} and coordinate labels in
{1, ..., d}; all public data structures, diagnostics and text forms use
these 1-based labels.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import lcm
from typing import Iterable, Iterator, Sequence, Union

Rational = Fraction
RationalLike = Union[Fraction, int, str]

#: A :class:`Meter`'s limit when no budget is given.
DEFAULT_BUDGET = 200_000


class ResourceLimitError(RuntimeError):
    """A computation exceeded its configured budget or work cap."""


class Meter:
    """One run's budget: ``limit`` units of work, ``spent`` so far.

    A public function makes one meter from its ``budget``, None meaning
    ``DEFAULT_BUDGET``, and passes it down, so every walk of one run draws
    on it.  The type enumeration counts its feasibility steps, the entries
    it generates on a feasible prefix and tests, as it goes; a pivot walk
    over the full n x d support is charged its C(n+d-2, n-1) trees before
    it starts.  Past the limit a :class:`ResourceLimitError` names the
    stage and, for work charged whole, the running total, or for work
    counted as it goes, the first unit past the limit.
    """

    __slots__ = ("limit", "spent")

    def __init__(self, budget: int | None = None) -> None:
        limit = DEFAULT_BUDGET if budget is None else budget
        if not isinstance(limit, int) or isinstance(limit, bool):
            raise TypeError(f"budget must be an int, got {type(limit).__name__}")
        if limit < 0:
            raise ValueError(f"budget must be non-negative, got {limit}")
        self.limit, self.spent = limit, 0

    @classmethod
    def of(cls, budget: int | Meter | None) -> Meter:
        """``budget`` itself when it is a meter, else a new one."""
        return budget if isinstance(budget, Meter) else cls(budget)

    def charge(self, stage: str, units: int, unit: str) -> None:
        """Add ``units`` of work charged whole, before any of it is done."""
        self.spent += units
        if self.spent > self.limit:
            raise ResourceLimitError(f"{stage}: {self.spent} {unit} exceed budget {self.limit}")

    def count(self, stage: str, units: int, unit: str, *, ahead: bool = False) -> None:
        """Add ``units`` of work counted as it goes, or, ``ahead`` of a
        walk, only refuse one that takes at least that many."""
        if self.spent + units > self.limit:
            raise ResourceLimitError(f"{stage}: {self.limit + 1} {unit} exceed budget {self.limit}")
        if not ahead:
            self.spent += units


_RATIONAL_RE = re.compile(r"^[+-]?[0-9]+(?:/([0-9]+)|\.([0-9]{1,18}))?$")


def parse_rational(text: str) -> Fraction:
    """Parse ``p``, ``p/q`` or a decimal with at most 18 fractional digits."""
    s = text.strip()
    m = _RATIONAL_RE.match(s)
    if m is None:
        raise ValueError(f"not a rational literal: {text!r}")
    if m.group(1) is not None and int(m.group(1)) == 0:
        raise ValueError(f"zero denominator: {text!r}")
    return Fraction(s)


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
        """Canonical representative (last coordinate zero).  Idempotent."""
        last = self.coords[-1]
        if last == 0:
            return self
        return ProjectivePoint(tuple(c - last for c in self.coords))

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.coords)

    def __len__(self) -> int:
        return len(self.coords)

    def __getitem__(self, idx: int) -> Fraction:
        return self.coords[idx]


def _as_point(row) -> ProjectivePoint:
    return row if isinstance(row, ProjectivePoint) else ProjectivePoint(tuple(row))


def _integer_rows(rows: Sequence[Sequence[Fraction]]) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """D, the lcm of the denominators of ``rows``, and the rows times D,
    each entry its numerator times D over its denominator: ints, and int
    rows come back as they are, with D = 1.

    Counting in units of 1/D keeps every answer the kernels give.  The
    positive D maps a point x to D·x and each apex row w_i to D·w_i, and
    D·x_j - D·w_ij is largest at the same labels j as x_j - w_ij, so every
    point keeps its type: the types, their realization sets' dimensions
    and the vertices are kept, and a witness in units of 1/D divides by D
    to one of the input.  Each alternating sum around a cycle of K_{n,d}
    is scaled by D too and keeps its sign, so each square minor's min-plus
    determinant is attained by the same permutations and the lower
    envelope has the same cells."""
    D = lcm(*(x.denominator for row in rows for x in row))
    return D, tuple(tuple(x.numerator * (D // x.denominator) for x in row) for row in rows)


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

    @classmethod
    def _trusted_ints(cls, rows: Sequence[tuple[int, ...]]) -> "Arrangement":
        """An arrangement from int rows of one length d >= 2, at least one,
        each ending in 0, as ``secondary._moved`` builds them, kept as ints
        with no Fraction built and nothing re-validated.  An int compares
        and hashes like the Fraction it equals, and the rows are their own
        integer form, with D = 1."""
        apexes = []
        for row in rows:
            p = object.__new__(ProjectivePoint)
            object.__setattr__(p, "coords", row)
            apexes.append(p)
        arr = object.__new__(cls)
        object.__setattr__(arr, "apexes", tuple(apexes))
        object.__setattr__(arr, "_integer_form", (1, tuple(rows)))
        return arr

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

    @cached_property
    def _integer_form(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """:func:`_integer_rows` of the apexes, computed on first use and
        kept outside the fields, so ``==`` and ``hash`` read the apexes."""
        return _integer_rows(self.rows())


def _as_label_set(entry) -> frozenset[int]:
    labels = frozenset(entry)
    if not labels:
        raise ValueError("type entries must be nonempty")
    for x in labels:
        if not isinstance(x, int) or isinstance(x, bool) or x < 1:
            raise ValueError(f"labels must be positive integers, got {x!r}")
    return labels


#: The largest label a public :class:`TypeVector` takes.
MAX_LABEL = 2 ** 16


def _label_mask(entry) -> int:
    """The validated label set ``entry`` as a label mask, bit j for label j."""
    labels = _as_label_set(entry)
    if max(labels) > MAX_LABEL:
        raise ValueError(f"labels must be at most MAX_LABEL = {MAX_LABEL}, got {max(labels)}")
    return sum(1 << j for j in labels)


_TYPE_ENTRY = r"\{[1-9][0-9]*(?:,[1-9][0-9]*)*\}"
_TYPE_RE = re.compile(rf"\({_TYPE_ENTRY}(?:,{_TYPE_ENTRY})*\)")


@dataclass(frozen=True, init=False)
class TypeVector:
    """An n-tuple of nonempty coordinate-label subsets: one sector set per
    hyperplane.

    The package's one label encoding: entry i is the label mask
    ``masks[i-1]``, an int with bit j set for each label j (bit 0 never
    is), as the type enumeration, the feasibility kernel, the planar
    read-off and the axiom checks build and read it.  Its set bits,
    lowest first, are the labels in ascending order, and ``entries``,
    :meth:`entry`, :meth:`key`, :meth:`text` and :meth:`max_label` are
    read off them.  A mask holds a bit per label up to its largest, so
    every public way in refuses a label past ``MAX_LABEL`` = 2^16."""

    masks: tuple[int, ...]

    def __init__(self, entries: Iterable[Iterable[int]]) -> None:
        masks = tuple(_label_mask(e) for e in entries)
        if not masks:
            raise ValueError("a type vector needs at least one entry")
        object.__setattr__(self, "masks", masks)

    @classmethod
    def of(cls, *entries: Iterable[int]) -> "TypeVector":
        return cls(entries)

    @classmethod
    def _trusted(cls, masks: tuple[int, ...]) -> "TypeVector":
        """A type from label masks known to be nonzero with bit 0 clear,
        as the type walk builds them, without re-validating them."""
        T = object.__new__(cls)
        object.__setattr__(T, "masks", masks)
        return T

    @cached_property
    def entries(self) -> tuple[frozenset[int], ...]:
        """The entries as label sets, read off the masks on first use and
        kept outside the fields, so ``==`` and ``hash`` read the masks."""
        return tuple(frozenset(_bits(m)) for m in self.masks)

    @property
    def n(self) -> int:
        return len(self.masks)

    def max_label(self) -> int:
        return max(self.masks).bit_length() - 1

    def entry(self, i: int) -> frozenset[int]:
        """Entry at hyperplane i (1-based)."""
        if not 1 <= i <= self.n:
            raise IndexError(f"position {i} out of range 1..{self.n}")
        return self.entries[i - 1]

    def with_entry(self, i: int, labels: Iterable[int]) -> "TypeVector":
        """Copy with the entry at position i (1-based) replaced."""
        if not 1 <= i <= self.n:
            raise IndexError(f"position {i} out of range 1..{self.n}")
        return TypeVector._trusted(self.masks[:i - 1] + (_label_mask(labels),) + self.masks[i:])

    def key(self) -> tuple[tuple[int, ...], ...]:
        """Canonical sort key (entries as ascending label tuples)."""
        return tuple(tuple(_bits(m)) for m in self.masks)

    def text(self) -> str:
        parts = ("{" + ",".join(map(str, _bits(m))) + "}" for m in self.masks)
        return "(" + ",".join(parts) + ")"

    @classmethod
    def parse(cls, text: str) -> "TypeVector":
        """Inverse of :meth:`text`; rejects anything not in canonical form,
        whose labels are ASCII decimals with no leading zero, ascending."""
        s = text.strip()
        if not _TYPE_RE.fullmatch(s):
            raise ValueError(f"not a type literal: {text!r}")
        entries = [[int(x) for x in e.split(",")] for e in s[2:-2].split("},{")]
        if any(labels != sorted(set(labels)) for labels in entries):
            raise ValueError(f"labels must be strictly ascending: {text!r}")
        return cls(entries)

    def __str__(self) -> str:
        return self.text()


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

    Deterministic order, that of :func:`_partition_masks`.  The count is
    the Fubini number of d (1, 3, 13, 75, ... for d = 1, 2, 3, 4).
    """
    if d < 1:
        raise ValueError("d must be at least 1")
    return [OrderedPartition(tuple(frozenset(_bits(b)) for b in blocks)) for blocks in _partition_masks(d)]


def _partition_masks(d: int) -> list[tuple[int, ...]]:
    """The blocks of every ordered partition of {1, ..., d} as label masks:
    the first block by ascending size, then lexicographically, then the
    rest's.  The partitions of each set of labels left over are built
    once per call."""
    tails: dict[int, list[tuple[int, ...]]] = {0: [()]}

    def of(bits: tuple[int, ...]) -> list[tuple[int, ...]]:
        left = sum(bits)
        if left not in tails:
            tails[left] = [
                (block,) + tail
                for size in range(1, len(bits) + 1)
                for block in map(sum, combinations(bits, size))
                for tail in of(tuple(b for b in bits if not b & block))
            ]
        return tails[left]

    return of(tuple(1 << j for j in range(1, d + 1)))


def _bits(mask: int) -> list[int]:
    """The set bits of a nonnegative ``mask``, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


@dataclass(frozen=True, init=False)
class CellGraph:
    """Bipartite graph on hyperplane nodes {1..n} and coordinate nodes
    {1..d}; the dual encoding of a type as a cell of the product of
    simplices.

    The edges are one int, ``mask``, with bit (i-1)·d + (j-1) set for
    edge (i, j).  The bits are row-major, and j - 1 < d, so edge (i, j)
    comes before (i', j') exactly when its bit is lower: the set bits,
    lowest first, are the edges in sorted order, and ``edges``,
    :meth:`sorted_edges` and :meth:`text` are read off them, with no sort.
    """

    n: int
    d: int
    mask: int

    def __init__(self, n: int, d: int, edges: Iterable[tuple[int, int]]) -> None:
        mask = 0
        for i, j in edges:
            if any(not isinstance(x, int) or isinstance(x, bool) for x in (i, j)):
                raise ValueError(f"edge ({i!r},{j!r}) has an index that is not an int")
            if not (1 <= i <= n and 1 <= j <= d):
                raise ValueError(f"edge ({i},{j}) outside 1..{n} x 1..{d}")
            mask |= 1 << (i - 1) * d + j - 1
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "mask", mask)

    @classmethod
    def _trusted(cls, n: int, d: int, mask: int) -> "CellGraph":
        """A cell graph from a mask known to hold only bits below n·d, as
        the walks read them, without checking it."""
        g = object.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "d", d)
        object.__setattr__(g, "mask", mask)
        return g

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        """The edges (i, j), read off the set bits."""
        return frozenset(self.sorted_edges())

    def sorted_edges(self) -> tuple[tuple[int, int], ...]:
        """The edges in ascending order: the set bits, lowest first."""
        d = self.d
        return tuple([(k // d + 1, k % d + 1) for k in _bits(self.mask)])

    def text(self) -> str:
        return "[" + ",".join(f"({i},{j})" for i, j in self.sorted_edges()) + "]"

    def __str__(self) -> str:
        return self.text()
