"""Types of points, exact realizability of candidate types, genericity,
full type enumeration, refinements, and safe perturbations.

A candidate type imposes, hyperplane by hyperplane, that the listed
coordinates tie (after subtracting the apex row) and strictly beat the
rest.  The ties merge coordinates into rigid groups carrying exact
offsets (union-find); the strict part becomes a system of strict
difference constraints between group representatives, kept closed
under max-plus composition (longest paths).  Each hyperplane is added
incrementally: a merge and the new strict bounds are relaxed through
the closed bounds in O(roots^2), with no all-pairs re-closure.  A
closed, consistent system always admits a rational witness, found by
greedy interval assignment.

The enumeration of all types generates, on each feasible prefix, only
the entries that pass pairwise tests read off the closed bounds (every
two members can still tie, every member can still beat every
non-member), as cliques of a tie relation closed under the labels each
member forces in; its work grows with the types, not with 2^d.

The feasibility kernel runs on ints: the apex matrix is scaled once per
arrangement by D, the lcm of its denominators, so every offset and
bound is an integer multiple of 1/D.  Fractions come back only in the
witness, which divides at the end and so is the same point the greedy
assignment gives on the unscaled rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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


class _Feasibility:
    """Incrementally built feasibility state for one arrangement.

    Coordinates are counted in units of 1/scale, scale the lcm of the
    apex matrix's denominators, so ``rows`` and every bound are ints.
    ``lower[a * (d + 1) + b]`` is the tightest known strict bound
    x_a - x_b > c between group roots a != b, or None.  It is kept
    transitively closed: each entry is the longest path over the bounds
    imposed so far, which depends on those bounds alone and not on the
    order they came in.  So inconsistency surfaces as soon as it exists
    and witnesses can be read off greedily.
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
        self.lower: list[int | None] = [None] * (arr.d + 1) ** 2

    def copy(self) -> "_Feasibility":
        st = _Feasibility.__new__(_Feasibility)
        st.d, st.scale, st.rows = self.d, self.scale, self.rows
        st.groups = self.groups.copy()
        st.lower = self.lower[:]
        return st

    def add_hyperplane(self, i: int, labels: Iterable[int]) -> bool:
        """Impose entry ``labels`` for hyperplane i; False iff infeasible.

        The labels tie into one group, whose root then strictly beats
        every other group by the hyperplane's apex differences.  Each
        merge, and the new strict bounds together, are relaxed through
        the closed bounds in O(roots^2) instead of a full re-closure: a
        longest path uses a new bound at most once, since a second use
        would close a cycle, and cycles are negative in a consistent
        system.
        """
        row = self.rows[i - 1]
        members = sorted(labels)
        base = members[0]
        find = self.groups.find
        for j in members[1:]:
            rj, oj = find(j)
            rb, ob = find(base)
            # the root difference x_rj - x_rb that gives x_j - x_base = v_ij - v_ib
            s = row[j - 1] - row[base - 1] - oj + ob
            if rj == rb:
                if s != 0:
                    return False
            elif not self._merge(rj, rb, s):
                return False
        r, o = find(base)
        member_set = set(members)
        new: dict[int, int] = {}
        for k in range(1, self.d + 1):
            if k in member_set:
                continue
            rk, ok = find(k)
            # x_base - x_k > v_ib - v_ik, the same bound for every member
            c = row[base - 1] - row[k - 1] - o + ok
            if rk == r:
                if c >= 0:
                    return False
                continue
            old = new.get(rk)
            if old is None or c > old:
                new[rk] = c
        return not new or self._relax(r, new)

    def _merge(self, a: int, b: int, s: int) -> bool:
        """Tie root a into root b's group at x_a - x_b = s; False iff
        the closed bounds between a and b leave no room for s."""
        lower, w = self.lower, self.d + 1
        c = lower[a * w + b]
        if c is not None and c >= s:
            return False
        c = lower[b * w + a]
        if c is not None and c >= -s:
            return False
        ins, outs = [], []
        for x in self.roots():
            if x == a or x == b:
                continue
            c, via = lower[x * w + b], lower[x * w + a]
            if via is not None and (c is None or via + s > c):
                c = via + s
            if c is not None:
                ins.append((x, c))
            c, via = lower[b * w + x], lower[a * w + x]
            if via is not None and (c is None or via - s > c):
                c = via - s
            if c is not None:
                outs.append((x, c))
        for v in range(w):
            lower[a * w + v] = lower[v * w + a] = None
        self.groups.parent[a] = b
        self.groups.shift[a] = s
        self._join(b, ins, outs)
        return True

    def _relax(self, r: int, new: dict[int, int]) -> bool:
        """Add the strict bounds x_r - x_z > new[z] between roots."""
        lower, w = self.lower, self.d + 1
        for z, c in new.items():
            back = lower[z * w + r]
            if back is not None and back + c >= 0:
                return False
        roots = self.roots()
        outs = []
        for y in roots:
            if y == r:
                continue
            best = lower[r * w + y]
            for z, c in new.items():
                tail = 0 if z == y else lower[z * w + y]
                if tail is not None and (best is None or c + tail > best):
                    best = c + tail
            if best is not None:
                outs.append((y, best))
        ins = [(x, lower[x * w + r]) for x in roots if x != r and lower[x * w + r] is not None]
        self._join(r, ins, outs)
        return True

    def _join(self, r: int, ins: list[tuple[int, int]], outs: list[tuple[int, int]]) -> None:
        """Store the closed bounds x_x - x_r > c into root r and
        x_r - x_y > c out of it, and every bound through r."""
        lower, w = self.lower, self.d + 1
        for x, cx in ins:
            lower[x * w + r] = cx
            for y, cy in outs:
                if y != x:
                    c = cx + cy
                    old = lower[x * w + y]
                    if old is None or c > old:
                        lower[x * w + y] = c
        for y, cy in outs:
            lower[r * w + y] = cy

    def entries(self, i: int) -> list[frozenset[int]]:
        """The entries for hyperplane i that pass every pairwise test.

        With y_j = x_j - v_ij, an entry S is feasible only if, for each
        j in S, every other label of S can still tie y_j (``tie[j]``) and
        every label outside S can still lose to it; the labels that
        cannot are ``force[j]``, which S must contain.  The tests read
        the closed bounds between the labels' groups, which give the
        exact range of each root difference.
        """
        d, w, lower, row = self.d, self.d + 1, self.lower, self.rows[i - 1]
        anchor: list[tuple[int, int]] = [(0, 0)]
        for j in range(1, d + 1):
            r, o = self.groups.find(j)
            anchor.append((r, o - row[j - 1]))  # y_j = x_r + o - v_ij
        tie = [1 << j for j in range(w)]
        force = [0] * w
        for j in range(1, d + 1):
            rj, aj = anchor[j]
            for k in range(j + 1, d + 1):
                rk, ak = anchor[k]
                t = ak - aj  # y_j - y_k = x_rj - x_rk - t
                if rj == rk:
                    j_wins, k_wins, ties = t < 0, t > 0, t == 0
                else:
                    up, down = lower[rj * w + rk], lower[rk * w + rj]
                    j_wins = down is None or down + t < 0
                    k_wins = up is None or up < t
                    ties = j_wins and k_wins
                if ties:
                    tie[j] |= 1 << k
                    tie[k] |= 1 << j
                if not j_wins:
                    force[j] |= 1 << k
                if not k_wins:
                    force[k] |= 1 << j
        return [
            frozenset(j for j in range(1, d + 1) if S >> j & 1)
            for S in _cliques(tie, force, (1 << w) - 2)
        ]

    def roots(self) -> list[int]:
        parent = self.groups.parent
        return [v for v in range(1, self.d + 1) if parent[v] == v]

    def dimension(self) -> int:
        return len(self.roots()) - 1

    def witness(self) -> ProjectivePoint:
        """A rational point satisfying every recorded constraint strictly.

        Roots get 0, lo + 1, hi - 1 or (lo + hi) / 2 in the arrangement's
        units, in sorted order.  The k-th value halves at most k times, so
        counting in units of 1/(scale * 2^roots) keeps every value an int;
        the last coordinate is subtracted before dividing, so each
        coordinate is one Fraction and the point comes out normalized.
        """
        lower, w = self.lower, self.d + 1
        roots = self.roots()
        m = 1 << len(roots)
        one = self.scale * m
        values: dict[int, int] = {}
        for r in roots:
            lo = hi = None
            for a, val in values.items():
                c = lower[r * w + a]
                if c is not None and (lo is None or val + c * m > lo):
                    lo = val + c * m
                c = lower[a * w + r]
                if c is not None and (hi is None or val - c * m < hi):
                    hi = val - c * m
            if lo is None and hi is None:
                values[r] = 0
            elif hi is None:
                values[r] = lo + one
            elif lo is None:
                values[r] = hi - one
            else:
                assert lo < hi, "closed strict system must leave an open interval"
                values[r] = (lo + hi) // 2
        shifted = []
        for j in range(1, self.d + 1):
            root, off = self.groups.find(j)
            shifted.append(values[root] + off * m)
        last = shifted[-1]
        return ProjectivePoint(tuple(Fraction(v - last, one) for v in shifted))


def _cliques(tie: list[int], force: list[int], full: int) -> list[int]:
    """Every nonempty label set S (bit j for label j, inside ``full``)
    with S inside tie[j] and force[j] inside S for each j in S.

    Depth first over growing sets: each node is such a set, and each
    child adds the smallest allowed label that no earlier sibling added,
    then every label the members force, so each set is reached once and
    costs at most d closures of O(d) bit operations.
    """
    out: list[int] = []

    def grow(S: int, allowed: int, banned: int) -> None:
        options = allowed & ~S & ~banned
        while options:
            e = options & -options
            options ^= e
            T, room, todo = S | e, allowed, e
            while todo:
                bit = todo & -todo
                todo ^= bit
                j = bit.bit_length() - 1
                room &= tie[j]
                extra = force[j] & ~T
                T |= extra
                todo |= extra
            if not T & ~room and not T & banned:
                out.append(T)
                grow(T, room, banned)
            banned |= e

    grow(0, full, 0)
    return out


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


def enumerate_realizations(
    arr: Arrangement, budget: int | None = None
) -> dict[TypeVector, RealizationResult]:
    """Every realizable type with its witness and dimension.

    Depth-first over the entries of each hyperplane in turn.  On a
    feasible prefix only the entries passing the pairwise tests of
    :meth:`_Feasibility.entries` are generated, and each is confirmed
    by :meth:`_Feasibility.add_hyperplane`.  ``budget`` caps those
    feasibility steps (one per generated entry); the walk raises
    :class:`ResourceLimitError` as soon as it needs more.

    All m = 2^d - 1 entries of the first hyperplane are feasible, and
    each such prefix has at least one feasible entry for the second, so
    the walk takes at least 2m steps (m if n = 1).  Past the budget it
    raises at once with the message the walk would reach, before
    generating any entry.
    """
    budget = DEFAULT_BUDGET if budget is None else budget
    m = 2 ** arr.d - 1
    if m * (1 + (arr.n >= 2)) > budget:
        raise ResourceLimitError(
            f"type enumeration: {budget + 1} feasibility steps exceed budget {budget}"
        )
    out: dict[TypeVector, RealizationResult] = {}
    steps = 0

    def walk(i: int, state: _Feasibility, prefix: tuple[frozenset[int], ...]) -> None:
        nonlocal steps
        if i > arr.n:
            out[TypeVector(prefix)] = RealizationResult(
                True, state.witness(), state.dimension()
            )
            return
        for entry in state.entries(i):
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
