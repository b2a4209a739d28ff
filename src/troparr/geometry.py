"""Types of points, exact realizability of candidate types, genericity,
full type enumeration, refinements, and safe perturbations.

A candidate type imposes, hyperplane by hyperplane, that the listed
coordinates tie (after subtracting the apex row) and strictly beat the
rest.  The ties merge coordinates into rigid groups carrying exact
offsets (union-find); the strict part becomes a system of strict
difference constraints between group representatives, decided by an
exact all-pairs max-plus closure.  A closed, consistent system always
admits a rational witness, found by greedy interval assignment.

The feasibility kernel runs on ints: the apex matrix is scaled once per
arrangement by D, the lcm of its denominators, so every offset and
bound is an integer multiple of 1/D.  Fractions come back only in the
witness, which divides by D at the end and so is the same point the
greedy assignment gives on the unscaled rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import lcm
from typing import Iterable

from .core import (
    DEFAULT_BUDGET,
    Arrangement,
    OrderedPartition,
    ProjectivePoint,
    ResourceLimitError,
    TypeVector,
    _as_point,
    to_fraction,
    type_total_size,
)


@dataclass(frozen=True)
class RealizationResult:
    """Outcome of an exact feasibility test for one candidate type.

    ``dimension`` is the affine dimension of the realization set inside
    projective space (the all-ones direction is already quotiented out).
    """

    realizable: bool
    witness: ProjectivePoint | None = None
    dimension: int | None = None

    def __post_init__(self) -> None:
        if self.realizable != (self.witness is not None):
            raise ValueError("witness present iff realizable")
        if self.realizable != (self.dimension is not None):
            raise ValueError("dimension present iff realizable")
        if self.dimension is not None and self.dimension < 0:
            raise ValueError("dimension must be nonnegative")


class _TieGroups:
    """Union-find over coordinate labels with exact offsets: merged labels
    carry a fixed integer difference (in scaled units) to their root."""

    __slots__ = ("parent", "shift")

    def __init__(self, d: int):
        self.parent = list(range(d + 1))
        self.shift = [0] * (d + 1)

    def copy(self) -> "_TieGroups":
        g = _TieGroups.__new__(_TieGroups)
        g.parent = self.parent[:]
        g.shift = self.shift[:]
        return g

    def find(self, v: int) -> tuple[int, int]:
        """Root of v's group and the exact offset x_v - x_root.

        Compresses the path; nodes nearer the root are rewritten first so
        each offset accumulates over still-unmodified parent links.
        """
        path = []
        while self.parent[v] != v:
            path.append(v)
            v = self.parent[v]
        root = v
        acc = 0
        for node in reversed(path):
            acc += self.shift[node]
            self.parent[node] = root
            self.shift[node] = acc
        offset = self.shift[path[0]] if path else 0
        return root, offset

    def union(self, j: int, k: int, delta: int) -> bool:
        """Impose x_j - x_k = delta; False iff it contradicts the state."""
        rj, oj = self.find(j)
        rk, ok = self.find(k)
        if rj == rk:
            return oj - ok == delta
        self.parent[rj] = rk
        self.shift[rj] = delta - oj + ok
        return True


class _Feasibility:
    """Incrementally built feasibility state for one arrangement.

    Coordinates are counted in units of 1/scale, scale the lcm of the
    apex matrix's denominators, so ``rows`` and every bound are ints.
    ``lower[(a, b)]`` is the tightest known strict bound x_a - x_b > c
    between group roots; it is kept transitively closed, so inconsistency
    surfaces as soon as it exists and witnesses can be read off greedily.
    """

    __slots__ = ("d", "scale", "rows", "groups", "lower")

    def __init__(self, arr: Arrangement):
        self.d = arr.d
        self.scale = lcm(*(c.denominator for p in arr.apexes for c in p.coords))
        self.rows = tuple(
            tuple(c.numerator * (self.scale // c.denominator) for c in p.coords)
            for p in arr.apexes
        )
        self.groups = _TieGroups(arr.d)
        self.lower: dict[tuple[int, int], int] = {}

    def copy(self) -> "_Feasibility":
        st = _Feasibility.__new__(_Feasibility)
        st.d, st.scale, st.rows = self.d, self.scale, self.rows
        st.groups = self.groups.copy()
        st.lower = dict(self.lower)
        return st

    def add_hyperplane(self, i: int, labels: Iterable[int]) -> bool:
        """Impose entry ``labels`` for hyperplane i; False iff infeasible."""
        row = self.rows[i - 1]
        members = sorted(labels)
        base = members[0]
        for j in members[1:]:
            if not self.groups.union(j, base, row[j - 1] - row[base - 1]):
                return False

        lower: dict[tuple[int, int], int] = {}

        def put(a: int, b: int, c: int) -> bool:
            if a == b:
                return c < 0
            key = (a, b)
            old = lower.get(key)
            if old is None or c > old:
                lower[key] = c
            return True

        for (a, b), c in self.lower.items():
            ra, oa = self.groups.find(a)
            rb, ob = self.groups.find(b)
            if not put(ra, rb, c - oa + ob):
                return False
        member_set = set(members)
        outside = [k for k in range(1, self.d + 1) if k not in member_set]
        for j in members:
            rj, oj = self.groups.find(j)
            for k in outside:
                rk, ok = self.groups.find(k)
                # x_j - x_k > v_ij - v_ik
                if not put(rj, rk, row[j - 1] - row[k - 1] - oj + ok):
                    return False
        self.lower = lower
        return self._close()

    def _close(self) -> bool:
        lower = self.lower
        nodes = sorted({a for a, _ in lower} | {b for _, b in lower})
        for mid in nodes:
            for a in nodes:
                if a == mid:
                    continue
                c1 = lower.get((a, mid))
                if c1 is None:
                    continue
                for b in nodes:
                    if b == mid:
                        continue
                    c2 = lower.get((mid, b))
                    if c2 is None:
                        continue
                    c = c1 + c2
                    if a == b:
                        if c >= 0:
                            return False
                        continue
                    old = lower.get((a, b))
                    if old is None or c > old:
                        lower[(a, b)] = c
        return True

    def roots(self) -> list[int]:
        return sorted({self.groups.find(v)[0] for v in range(1, self.d + 1)})

    def dimension(self) -> int:
        return len(self.roots()) - 1

    def witness(self) -> ProjectivePoint:
        """A rational point satisfying every recorded constraint strictly.

        Roots get 0, lo + 1, hi - 1 or (lo + hi) / 2 in the arrangement's
        units, that is 0, lo + scale, hi - scale or (lo + hi) / 2 in scaled
        ones; only the midpoint can leave the integers.
        """
        values: dict[int, int | Fraction] = {}
        for r in self.roots():
            lo = hi = None
            for a, val in values.items():
                c = self.lower.get((r, a))
                if c is not None and (lo is None or val + c > lo):
                    lo = val + c
                c = self.lower.get((a, r))
                if c is not None and (hi is None or val - c < hi):
                    hi = val - c
            if lo is None and hi is None:
                values[r] = 0
            elif hi is None:
                values[r] = lo + self.scale
            elif lo is None:
                values[r] = hi - self.scale
            else:
                assert lo < hi, "closed strict system must leave an open interval"
                values[r] = Fraction(lo + hi, 2)
        coords = []
        for j in range(1, self.d + 1):
            root, off = self.groups.find(j)
            coords.append(Fraction(values[root] + off, self.scale))
        return ProjectivePoint(tuple(coords)).normalized()


def type_of_point(arr: Arrangement, point) -> TypeVector:
    """The type of a point: entry i lists the coordinates maximizing
    x_j - v_ij over hyperplane i's apex row."""
    x = _as_point(point)
    if x.d != arr.d:
        raise ValueError(f"point has {x.d} coordinates, arrangement has d={arr.d}")
    entries = []
    for apex in arr.apexes:
        diffs = [xc - vc for xc, vc in zip(x.coords, apex.coords)]
        top = max(diffs)
        entries.append(frozenset(j + 1 for j, v in enumerate(diffs) if v == top))
    return TypeVector(tuple(entries))


def apex_type(arr: Arrangement, i: int) -> TypeVector:
    """Type of hyperplane i's own apex; its i-th entry is all of {1..d}."""
    return type_of_point(arr, arr.apex(i))


@dataclass(frozen=True)
class ApexStatus:
    """Genericity data for one apex: its type, the total label count, the
    n+d-1 reference bound, and the positions (other hyperplanes) whose
    entry has 2 or more labels."""

    index: int
    type: TypeVector
    total: int
    bound: int
    offending: tuple[int, ...]

    @property
    def generic(self) -> bool:
        return self.total == self.bound


@dataclass(frozen=True)
class GenericityReport:
    generic: bool
    apexes: tuple[ApexStatus, ...]

    def __bool__(self) -> bool:
        return self.generic


def is_generic(arr: Arrangement) -> GenericityReport:
    """Whether no apex lies on a proper face of another hyperplane's fan.

    Equivalently, every apex type has total size exactly n+d-1; an apex
    sitting on a proper fan face picks up extra labels and exceeds it.
    """
    bound = arr.n + arr.d - 1
    statuses = []
    for i in range(1, arr.n + 1):
        T = apex_type(arr, i)
        offending = tuple(
            pos for pos, entry in enumerate(T.entries, 1) if pos != i and len(entry) >= 2
        )
        statuses.append(ApexStatus(i, T, type_total_size(T), bound, offending))
    return GenericityReport(all(s.generic for s in statuses), tuple(statuses))


def realizable(arr: Arrangement, T: TypeVector) -> RealizationResult:
    """Exact feasibility of a candidate type, with witness and dimension.

    Infeasibility is a normal result, not an error.
    """
    if T.n != arr.n:
        raise ValueError(f"type has {T.n} entries, arrangement has n={arr.n}")
    if T.max_label() > arr.d:
        raise ValueError(f"type labels exceed d={arr.d}")
    state = _Feasibility(arr)
    for i, entry in enumerate(T.entries, 1):
        if not state.add_hyperplane(i, entry):
            return RealizationResult(False)
    return RealizationResult(True, state.witness(), state.dimension())


def _nonempty_subsets(d: int) -> tuple[frozenset[int], ...]:
    labels = range(1, d + 1)
    out = []
    for size in range(1, d + 1):
        out.extend(frozenset(c) for c in combinations(labels, size))
    return tuple(out)


def enumerate_realizations(
    arr: Arrangement, budget: int | None = None
) -> dict[TypeVector, RealizationResult]:
    """Every realizable type with its witness and dimension.

    Depth-first over candidate entries, pruning any prefix whose partial
    constraint system is already infeasible.  ``budget`` caps the
    feasibility steps (one per entry tried on a feasible prefix); the
    walk raises :class:`ResourceLimitError` as soon as it needs more.

    Every one of the m = 2^d - 1 entries of the first hyperplane is
    feasible, and each such prefix tries all m entries of the second, so
    the walk takes at least m + m^2 steps (m if n = 1).  Past the budget
    it raises at once with the message the walk would reach, before
    building the m candidate entries.
    """
    budget = DEFAULT_BUDGET if budget is None else budget
    m = 2 ** arr.d - 1
    if m * (1 + m * (arr.n >= 2)) > budget:
        raise ResourceLimitError(
            f"type enumeration: {budget + 1} feasibility steps exceed budget {budget}"
        )
    subsets = _nonempty_subsets(arr.d)
    out: dict[TypeVector, RealizationResult] = {}
    steps = 0

    def walk(i: int, state: _Feasibility, prefix: tuple[frozenset[int], ...]) -> None:
        nonlocal steps
        if i > arr.n:
            out[TypeVector(prefix)] = RealizationResult(
                True, state.witness(), state.dimension()
            )
            return
        for entry in subsets:
            steps += 1
            if steps > budget:
                raise ResourceLimitError(
                    f"type enumeration: {steps} feasibility steps exceed budget {budget}"
                )
            child = state.copy()
            if child.add_hyperplane(i, entry):
                walk(i + 1, child, prefix + (entry,))

    walk(1, _Feasibility(arr), ())
    return out


def enumerate_types(arr: Arrangement, budget: int | None = None) -> frozenset[TypeVector]:
    """The set of all realizable types of the arrangement."""
    return frozenset(enumerate_realizations(arr, budget))


def refine(T: TypeVector, P: OrderedPartition) -> TypeVector:
    """Refinement of a type by an ordered partition: each entry is cut to
    its intersection with the first block it meets.

    This is the type reached by an infinitesimal move in a direction that
    is constant on blocks and strictly larger on earlier blocks.
    """
    entries = []
    for A in T.entries:
        for block in P.blocks:
            hit = A & block
            if hit:
                entries.append(hit)
                break
        else:
            raise ValueError("partition does not cover the type's labels")
    return TypeVector(tuple(entries))


def perturb(arr: Arrangement, i: int, delta: Iterable) -> Arrangement:
    """New arrangement with apex i translated by delta (then renormalized)."""
    delta = tuple(to_fraction(x) for x in delta)
    moved = arr.apex(i).shifted(delta)
    rows = list(arr.apexes)
    rows[i - 1] = moved
    return Arrangement(tuple(rows))


def safe_radius(arr: Arrangement) -> Fraction:
    """A coordinate step small enough that no nonzero incidence quantity
    can change sign: 1/1000 of the smallest nonzero gap between two
    hyperplanes' apex coordinate differences (same coordinate pair).
    """
    best: Fraction | None = None
    for j in range(arr.d):
        for k in range(j + 1, arr.d):
            vals = sorted(p.coords[j] - p.coords[k] for p in arr.apexes)
            for a, b in zip(vals, vals[1:]):
                gap = b - a
                if gap != 0 and (best is None or gap < best):
                    best = gap
    if best is None:
        best = Fraction(1)
    return best / 1000
