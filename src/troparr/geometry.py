"""Types of points, exact realizability of candidate types, genericity,
full type enumeration and the vertex walk.

Genericity is tropical: every square minor of the apex matrix has a
min-plus determinant attained by one permutation only.  It is read off
the pivot walk over the lower envelope of the apex matrix (see
:mod:`troparr.duality`), which names a tied minor when there is one.

A candidate type imposes, hyperplane by hyperplane, that the listed
coordinates tie (after subtracting the apex row) and strictly beat the
rest.  The ties merge coordinates into rigid groups carrying exact
offsets, kept in two flat arrays: each label's group root and its
offset to that root; the strict part becomes a system of strict
difference constraints between group representatives, kept closed
under max-plus composition (longest paths).  Each hyperplane is added
incrementally: a merge and the new strict bounds are relaxed through
the closed bounds in O(roots^2), with no all-pairs re-closure.  A
closed, consistent system always admits a rational witness, found by
greedy interval assignment.

Entries are label masks, bit j for label j, from the pairwise tests
through :meth:`_Feasibility.add_hyperplane`.  One depth-first walk
generates, on each feasible prefix, only the entries that pass pairwise
tests read off the closed bounds (every two members can still tie,
every member can still beat every non-member), as cliques of a tie
relation closed under the labels each member forces in; its work grows
with the types, not with 2^d.  Every entry the tests pass is feasible.
The walk settles the last hyperplanes in one of two ways:

* the enumeration of all types walks hyperplanes 1..n-1 and takes every
  entry the tests pass for hyperplane n as a type, recorded with its
  dimension without imposing it;
* the vertex walk, which gives the dual subdivision its maximal cells,
  keeps only the 0-dimensional types.  It walks hyperplanes 1..n-3
  only, and settles each entry e the tests pass for hyperplane n-2
  together with hyperplanes n-1 and n in closed form, with no copy and
  no closure.  Let e's labels tie, and for i = n-1, n let c_ig be the
  least v_ij - offset_j over group g's labels, reached at the label
  mask M_ig: with y_g the value of g's root, the largest x_j - v_ij
  over g is y_g - c_ig, reached exactly at M_ig.  A type is
  0-dimensional iff its ties merge every group into one.  Entry n-1
  meets the groups A where y_g - c_(n-1)g is largest, entry n the
  groups B where y_g - c_ng is, and they join every group iff A and B
  cover the groups and share one.  Shift y so that the first largest
  value is 0 and call the second t: y_g <= c_(n-1)g with equality on A,
  and y_g <= t + c_ng with equality on B.
  Covering forces y_g = min(c_(n-1)g, t + c_ng), and a shared group g
  forces t = δ_g = c_(n-1)g - c_ng.  So every vertex lies at one of
  these points, one per distinct t among the δ_g, where A = {δ_g <= t}
  and B = {δ_g >= t}: it is (prefix, e, the union of M_(n-1)g over A,
  the union of M_ng over B).  These are the staircase triangulations of
  Δ_1 × Δ_(k-1), k the number of groups (De Loera, Rambau and Santos,
  "Triangulations", §6.2).  Distinct t give distinct points, so each
  vertex comes once.  At each point every tie holds by construction,
  and hyperplanes n-1 and n have A and B as argmax, so the type holds
  there, and is a vertex, iff hyperplane n-2's argmax is exactly e and
  the point meets every closed strict bound of the (n-3)-prefix.  That
  is the point test alone, with no closure: a point meets the closure
  of a set of strict difference bounds iff it meets each of them, since
  a longest path sums strict inequalities that the point meets.  Inside
  one group both tests hold already, as e is feasible, so each is a
  bound y_a - y_b > c between groups, O(roots^2) of them per point.  For
  n = 2 the staircase runs on the empty prefix, with no e; for n = 1 the
  one vertex is the apex, where every label ties.

Everything the staircases read but e lives on the (n-3)-prefix, so
:class:`_Staircases` sets it up once per prefix: its groups' least
values and masks on hyperplanes n-2, n-1 and n, and its closed strict
bounds between roots.  Each group g is read through z_g = y_g -
c_(n-2)g, its largest x_j - v_(n-2)j.  Tying e's labels then leaves
the bounds as they are and only joins the groups e meets into one, at a
common z, whose least values on hyperplanes n-1 and n are the least of
theirs: O(groups + bounds) per entry, with no scan of the closed bounds
and no scratch copy.

The dual subdivision is the lower envelope of the apex matrix as heights
on the vertices (i, j) of Δ_(n-1) × Δ_(d-1), and swapping the factors
keeps each height, so the transposed matrix's subdivision is the
transpose and the vertex walk may run on either side.  Its steps on a
generic n x d input are W(n, d) = T(1, d) + ... + T(n-3, d) +
2 T(n-2, d) for n >= 3 and 1 for n <= 2, where T(k, d), the number of
types of a generic arrangement of k hyperplanes with d coordinates, is
1 at k = 0 or d = 1 and T(k - 1, d) + 2 T(k, d - 1) otherwise: every
entry the tests pass is feasible, so the walk generates one entry per
type of each of its prefixes' sub-arrangements.  :func:`_transposes`
walks the transpose iff n >= 2 and W(d, n) < W(n, d), a rule on the
shape alone.  The enumeration of all types keeps the given side, as
its types belong to the given arrangement.

A witness comes from :func:`realizable`, which imposes all of a type's
entries in the walk's order.

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
from typing import Callable, Iterator, NamedTuple

from .core import (
    DEFAULT_BUDGET,
    Arrangement,
    ProjectivePoint,
    ResourceLimitError,
    TypeVector,
    _as_point,
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


class _Feasibility:
    """Incrementally built feasibility state for one arrangement.

    Coordinates are counted in units of 1/scale, scale the lcm of the
    apex matrix's denominators, so ``rows`` and every bound are ints.
    Labels 1..d tie into groups, kept in two flat arrays: ``root[v]`` is
    the root of label v's group and ``offset[v]`` the fixed difference
    x_v - x_root.  A merge relabels every label of one group in O(d), so
    each lookup is two index reads.  ``lower[a * (d + 1) + b]`` is the
    tightest known strict bound x_a - x_b > c between group roots
    a != b, or None.  It is kept transitively closed: each entry is the
    longest path over the bounds imposed so far, which depends on those
    bounds alone and not on the order they came in.  So inconsistency
    surfaces as soon as it exists and witnesses can be read off greedily.
    """

    __slots__ = ("d", "scale", "rows", "root", "offset", "lower")

    def __init__(self, arr: Arrangement, transpose: bool = False):
        """The empty prefix of ``arr``, or with ``transpose`` of the
        arrangement whose apex rows are the columns of ``arr``'s scaled
        matrix: d and n swap, and the columns are read as they are, since
        the walk does not depend on each row's projective normalization."""
        self.scale = lcm(*(c.denominator for p in arr.apexes for c in p.coords))
        self.rows = tuple(
            tuple(c.numerator * (self.scale // c.denominator) for c in p.coords)
            for p in arr.apexes
        )
        if transpose:
            self.rows = tuple(zip(*self.rows))
        self.d = d = len(self.rows[0])
        self.root = list(range(d + 1))
        self.offset = [0] * (d + 1)
        self.lower: list[int | None] = [None] * (d + 1) ** 2

    def copy(self) -> "_Feasibility":
        st = _Feasibility.__new__(_Feasibility)
        st.d, st.scale, st.rows = self.d, self.scale, self.rows
        st.root, st.offset = self.root[:], self.offset[:]
        st.lower = self.lower[:]
        return st

    def add_hyperplane(self, i: int, mask: int) -> bool:
        """Impose the entry with label set ``mask`` (bit j for label j)
        for hyperplane i; False iff infeasible.

        The labels tie into one group, whose root then strictly beats
        every other group by the hyperplane's apex differences.  Each
        merge, and the new strict bounds together, are relaxed through
        the closed bounds in O(roots^2) instead of a full re-closure: a
        longest path uses a new bound at most once, since a second use
        would close a cycle, and cycles are negative in a consistent
        system.
        """
        row = self.rows[i - 1]
        low = mask & -mask
        base = low.bit_length() - 1
        root, offset = self.root, self.offset
        # every merge keeps the base's root, so its root and offset stay put
        r, o = root[base], offset[base]
        rest = mask ^ low
        while rest:
            bit = rest & -rest
            rest ^= bit
            j = bit.bit_length() - 1
            # the root difference x_rj - x_r that gives x_j - x_base = v_ij - v_ib
            s = row[j - 1] - row[base - 1] - offset[j] + o
            if root[j] == r:
                if s != 0:
                    return False
            elif not self._merge(root[j], r, s):
                return False
        new: dict[int, int] = {}
        for k in range(1, self.d + 1):
            if mask >> k & 1:
                continue
            rk = root[k]
            # x_base - x_k > v_ib - v_ik, the same bound for every member
            c = row[base - 1] - row[k - 1] - o + offset[k]
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
        for v in range(1, w):
            if self.root[v] == a:
                self.root[v] = b
                self.offset[v] += s
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

    def entries(self, i: int) -> list[int]:
        """The entries for hyperplane i that pass every pairwise test, as
        label masks (bit j for label j).

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
            anchor.append((self.root[j], self.offset[j] - row[j - 1]))  # y_j = x_r + o - v_ij
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
        return _cliques(tie, force, (1 << w) - 2)

    def roots(self) -> list[int]:
        return [v for v in range(1, self.d + 1) if self.root[v] == v]

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
        shifted = [values[self.root[j]] + self.offset[j] * m for j in range(1, self.d + 1)]
        last = shifted[-1]
        return ProjectivePoint(tuple(Fraction(v - last, one) for v in shifted))


def _least(row: tuple[int, ...], root: list[int], offset: list[int]) -> tuple[list, list[int]]:
    """Each group root's least v_j - offset_j over its labels j, row v,
    and the mask of the labels reaching it; None and 0 off the roots."""
    least: list[int | None] = [None] * len(root)
    mask = [0] * len(root)
    for j in range(1, len(root)):
        r, c = root[j], row[j - 1] - offset[j]
        m = least[r]
        if m is None or c < m:
            least[r], mask[r] = c, 1 << j
        elif c == m:
            mask[r] |= 1 << j
    return least, mask


class _Staircases:
    """The staircases over hyperplanes i and i + 1 on one prefix state,
    set up once for every entry of hyperplane i - 1 they settle.

    For each group g of the prefix and h = i - 1, i, i + 1, let c_hg be
    the least v_hj - offset_j over g's labels, reached at the mask M_hg
    (c_(i-1)g = 0 and M_(i-1)g empty when i = 1).  Group g is read
    through z_g = y_g - c_(i-1)g, its largest x_j - v_(i-1)j.  The set-up
    keeps a_g = c_ig - c_(i-1)g and b_g = c_(i+1)g - c_(i-1)g with their
    masks M_ig and M_(i+1)g, the mask M_(i-1)g, and each closed strict
    bound of the prefix between two roots as a bound on z.  The module
    docstring has the proof.
    """

    __slots__ = ("groups", "a", "b", "first", "second", "top", "bounds", "high")

    def __init__(self, state: _Feasibility, i: int):
        root, offset, lower, w = state.root, state.offset, state.lower, state.d + 1
        self.groups = groups = state.roots()
        self.a, self.first = _least(state.rows[i - 1], root, offset)
        self.b, self.second = _least(state.rows[i], root, offset)
        a, b = self.a, self.b
        if i > 1:
            prev, self.top = _least(state.rows[i - 2], root, offset)
            for g in groups:
                a[g] -= prev[g]
                b[g] -= prev[g]
            # z_p - z_q > c for each closed bound y_p - y_q > c between roots
            self.bounds = [
                (p, q, lower[p * w + q] - prev[p] + prev[q])
                for p in groups
                for q in groups
                if lower[p * w + q] is not None
            ]
        else:
            self.top, self.bounds = [0] * w, []
        # above every z_g, as z_g <= a_g
        self.high = max(a[g] for g in groups) + 1

    def pairs(self, pending: int = 0) -> list[tuple[int, int]]:
        """The pairs of entries for hyperplanes i and i + 1, as label masks,
        that close a 0-dimensional type after ``pending``, an entry for
        hyperplane i - 1 that passed :meth:`_Feasibility.entries` (0 when
        i = 1).

        Pending's labels are the M_(i-1)g of the groups it meets, which tie
        into one group E at a common z: E's a and b are the least of theirs,
        at the union of their masks.  One point is tried per distinct t
        among the δ_g = a_g - b_g of E and the other groups: z_g = min(a_g,
        t + b_g), shared by every group of E.  It is accepted iff every
        other group's z is below E's, so that hyperplane i - 1's argmax is
        pending, and it meets every prefix bound; the bounds inside E hold,
        as pending is feasible.
        """
        a, b, top, firsts, seconds = self.a, self.b, self.top, self.first, self.second
        tied, rest = [], []
        for g in self.groups:
            if top[g] & pending:
                tied.append(g)
            else:
                rest.append(g)
        # (δ_g, M_ig, M_(i+1)g) of every group but E's, then E's
        parts = [(a[g] - b[g], firsts[g], seconds[g]) for g in rest]
        if tied:
            g = tied[0]
            ae, be, first, second = a[g], b[g], firsts[g], seconds[g]
            for g in tied[1:]:
                if a[g] < ae:
                    ae, first = a[g], firsts[g]
                elif a[g] == ae:
                    first |= firsts[g]
                if b[g] < be:
                    be, second = b[g], seconds[g]
                elif b[g] == be:
                    second |= seconds[g]
            parts.append((ae - be, first, second))
        ze, bounds = self.high, self.bounds
        z = [0] * len(a)
        out = []
        for t in {part[0] for part in parts}:
            if tied:
                c = t + be
                ze = c if c < ae else ae
                for g in tied:
                    z[g] = ze
            for g in rest:
                c = t + b[g]
                if c > a[g]:
                    c = a[g]
                if c >= ze:
                    break  # E does not beat g on hyperplane i - 1
                z[g] = c
            else:
                for p, q, c in bounds:
                    if z[p] - z[q] <= c:
                        break
                else:
                    first = second = 0
                    for dg, m, m2 in parts:
                        if dg <= t:
                            first |= m
                        if dg >= t:
                            second |= m2
                    out.append((first, second))
        return out


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


class TiedMinor(NamedTuple):
    """A square minor of the apex matrix, rows by columns (1-based,
    ascending), and two distinct perfect matchings of it, each a sorted
    tuple of (row, column) pairs, whose sums both reach the minor's
    min-plus determinant."""

    rows: tuple[int, ...]
    columns: tuple[int, ...]
    matchings: tuple[tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]]


@dataclass(frozen=True)
class GenericityReport:
    """``minor``: None when the arrangement is tropically generic, that
    is, when its lower-envelope subdivision is a triangulation, else a
    :class:`TiedMinor` certifying that it is not."""

    minor: TiedMinor | None

    @property
    def generic(self) -> bool:
        return self.minor is None

    def __bool__(self) -> bool:
        return self.generic


def is_generic(arr: Arrangement) -> GenericityReport:
    """Whether every square minor of the apex matrix has a min-plus
    determinant attained by exactly one permutation, with a tied minor
    when not.

    That holds exactly when the lower-envelope subdivision of the apex
    matrix is a triangulation (Develin-Sturmfels): a tie puts both
    optimal matchings of the minor into one cell, which is then no
    spanning tree, and conversely any cycle in a cell alternates between
    two matchings of one minor that are both tight.  The pivot walk over
    the envelope stops at the first cell that is not a tree and reads
    the minor off its first cycle.
    """
    from .duality import _first_tied_minor  # duality imports this module at load time

    return GenericityReport(_first_tied_minor(arr.rows()))


def realizable(arr: Arrangement, T: TypeVector) -> RealizationResult:
    """Exact feasibility of a candidate type, with witness and dimension.

    Infeasibility is a normal result, not an error.  The entries are
    imposed in the order :func:`enumerate_realizations` imposes them on
    its way to T, and the closed bounds depend on the bounds alone, so
    the witness is read off the same closed state the walk reaches.
    """
    if T.n != arr.n:
        raise ValueError(f"type has {T.n} entries, arrangement has n={arr.n}")
    if T.max_label() > arr.d:
        raise ValueError(f"type labels exceed d={arr.d}")
    state = _Feasibility(arr)
    for i, entry in enumerate(T.entries, 1):
        if not state.add_hyperplane(i, sum(1 << j for j in entry)):
            return RealizationResult(False)
    return RealizationResult(True, state.witness(), state.dimension())


def _labels(mask: int) -> list[int]:
    """The labels of a label mask (bit j for label j), ascending."""
    return [j for j in range(1, mask.bit_length()) if mask >> j & 1]


class _LabelSets(dict):
    """Label mask -> frozenset of its labels, each built once."""

    def __missing__(self, mask: int) -> frozenset[int]:
        labels = self[mask] = frozenset(_labels(mask))
        return labels


def _over(stage: str, budget: int) -> ResourceLimitError:
    return ResourceLimitError(f"{stage}: {budget + 1} feasibility steps exceed budget {budget}")


def _walk(
    stage: str,
    start: _Feasibility,
    budget: int | None,
    floor: int,
    depth: int,
    last: Callable[[_Feasibility, tuple[int, ...]], int],
) -> None:
    """Depth first from the empty prefix ``start`` over the entries of
    hyperplanes 1..depth, calling ``last(state, prefix)`` on the closed
    state of every feasible prefix of ``depth`` entries, given as label
    masks; ``last`` settles the hyperplanes past ``depth`` and returns
    the feasibility steps it took.

    The walk keeps an explicit stack, one frame per hyperplane of the
    current prefix, so its depth is not bounded by Python's recursion
    limit.  On a feasible prefix only the entries passing the pairwise
    tests of :meth:`_Feasibility.entries` are generated, and each is
    imposed by :meth:`_Feasibility.add_hyperplane` on a copy of the
    prefix's state, which the next hyperplane extends.

    ``budget`` caps the feasibility steps: one per entry generated on
    hyperplanes 1..depth, plus those ``last`` reports.  The walk raises
    :class:`ResourceLimitError`, its message led by the caller's
    ``stage``, once they exceed it, and at once,
    before generating any entry, when ``floor``, the fewest steps the
    walk can take on any input of this shape, does.  A negative budget is
    a ValueError.
    """
    budget = DEFAULT_BUDGET if budget is None else budget
    if budget < 0:
        raise ValueError(f"budget must be non-negative, got {budget}")
    if floor > budget:
        raise _over(stage, budget)
    steps = 0
    # frames (hyperplane i, state after the prefix, prefix, i's entries left)
    stack: list[tuple[int, _Feasibility, tuple[int, ...], Iterator[int]]] = []

    def reach(state: _Feasibility, prefix: tuple[int, ...]) -> None:
        nonlocal steps
        i = len(prefix) + 1
        if i > depth:
            steps += last(state, prefix)
        else:
            entries = state.entries(i)
            steps += len(entries)
            stack.append((i, state, prefix, iter(entries)))
        if steps > budget:
            raise _over(stage, budget)

    reach(start, ())
    while stack:
        i, state, prefix, entries = stack[-1]
        entry = next(entries, 0)
        if not entry:
            stack.pop()
            continue
        child = state.copy()
        if child.add_hyperplane(i, entry):
            reach(child, prefix + (entry,))


def enumerate_realizations(arr: Arrangement, budget: int | None = None) -> dict[TypeVector, int]:
    """Every realizable type, mapped to the affine dimension of its
    realization set; :func:`realizable` gives a type's witness.

    The walk over hyperplanes 1..n-1 is :func:`_walk`'s.  On each of its
    prefixes every entry the pairwise tests pass for hyperplane n is a
    type, and it is recorded without a copy or a closure: merging its k
    groups removes k - 1 roots, and strict bounds leave the dimension as
    it is.  That is exact because the pairwise tests are.  The entry adds
    two kinds of bounds to the closed prefix system.  Its groups tie at
    fixed differences, and each pair of them ties inside the open
    interval its closed bounds leave; around any cycle those differences
    sum to 0.  The merged group then strictly beats every other group,
    and every new strict bound leaves it.  An infeasible system has a
    simple cycle whose bounds sum to 0 or more, with one strict bound at
    least.  Its runs of old bounds close to single old bounds.  Old
    bounds alone are feasible, so it meets the merged group, and being
    simple, once: it enters at one member and leaves at another.  If it
    leaves by an old bound, it is a cycle between two members' groups,
    which the pairwise tie test rules out.  If it leaves by a new strict
    bound to a label k, it returns at its first entry into the group, so
    it pits one member against k, which the pairwise win test rules out.
    (A path-consistent system of difference constraints is decomposable:
    Dechter, Meiri and Pearl, "Temporal constraint networks", 1991.)

    ``budget`` caps the feasibility steps, one per generated entry, the
    last hyperplane's included.  All m = 2^d - 1 entries of the first
    hyperplane are feasible, and each such prefix has at least one
    feasible entry for the second, so the walk takes at least 2m steps
    (m if n = 1); past the budget it raises at once, before generating
    any entry.
    """
    out: dict[TypeVector, int] = {}
    sets = _LabelSets()

    def last(state: _Feasibility, prefix: tuple[int, ...]) -> int:
        head = tuple(sets[mask] for mask in prefix)
        root, roots = state.root, state.dimension() + 1
        entries = state.entries(arr.n)
        for mask in entries:
            entry = sets[mask]
            # exact without add_hyperplane, as the docstring shows
            out[TypeVector._trusted(head + (entry,))] = roots - len({root[j] for j in entry})
        return len(entries)

    m = 2 ** arr.d - 1
    _walk("type enumeration", _Feasibility(arr), budget, m * (1 + (arr.n >= 2)), arr.n - 1, last)
    return out


def _vertices(arr: Arrangement, budget: int | None = None, transpose: bool = False) -> list[tuple[int, ...]]:
    """The 0-dimensional types, the arrangement's vertices, each as its
    entries' label masks, by :func:`_walk` over hyperplanes 1..n-3.  With
    ``transpose`` the walk runs on the arrangement whose apex rows are the
    columns of the apex matrix, n and d swapped, and gives its vertices.
    On each prefix of the walk one :class:`_Staircases` set-up settles
    every entry e the pairwise tests pass for hyperplane n-2 with
    hyperplanes n-1 and n, with no copy and no closure.  For n = 2 the
    staircase runs on the empty prefix; for n = 1 the one vertex is the
    apex, where every label ties.

    ``budget`` caps the feasibility steps, counted on the side walked:
    one per entry generated on hyperplanes 1..n-2 and one per staircase.
    For n >= 3 all m = 2^d - 1 entries of the first hyperplane are
    feasible, and each leads to one staircase at least, so the walk takes
    at least 2m steps, and past the budget it raises at once; for n <= 2
    it takes one step.  On a generic input it takes exactly
    :func:`_walk_steps` (n, d).
    """
    start = _Feasibility(arr, transpose)
    n, d = len(start.rows), start.d
    out: list[tuple[int, ...]] = []

    def last(state: _Feasibility, prefix: tuple[int, ...]) -> int:
        if n == 1:
            out.append(((1 << (d + 1)) - 2,))
            return 1
        if n == 2:
            out.extend(_Staircases(state, 1).pairs())
            return 1
        entries = state.entries(n - 2)
        stairs = _Staircases(state, n - 1)
        for entry in entries:
            out.extend(prefix + (entry,) + pair for pair in stairs.pairs(entry))
        return 2 * len(entries)

    _walk("vertex walk", start, budget, 2 * (2 ** d - 1) if n >= 3 else 1, max(n - 3, 0), last)
    return out


def _type_counts(m: int, d: int) -> list[int]:
    """T(0, d), ..., T(m, d): T(k, d) is the number of types of a generic
    arrangement of k hyperplanes with d coordinates, the feasible
    k-prefixes the walks reach on one.  T(0, d) = T(k, 1) = 1 and
    T(k, d) = T(k - 1, d) + 2 T(k, d - 1), computed one d at a time."""
    counts = [1] * (m + 1)
    for _ in range(d - 1):
        for k in range(1, m + 1):
            counts[k] = counts[k - 1] + 2 * counts[k]
    return counts


def _walk_steps(n: int, d: int) -> int:
    """W(n, d), the steps :func:`_vertices` takes on a generic n x d input:
    T(k, d) entries for each hyperplane k <= n - 3, and for hyperplane
    n - 2 its T(n - 2, d) entries and one staircase each; 1 for n <= 2."""
    if n <= 2:
        return 1
    counts = _type_counts(n - 2, d)
    return sum(counts[1 : n - 2]) + 2 * counts[n - 2]


def _transposes(n: int, d: int) -> bool:
    """Whether the vertex walk of an n x d apex matrix runs on its
    transpose: iff n >= 2 and W(d, n) < W(n, d).  It reads the shape
    alone, so the side walked, and the steps ``budget`` counts, follow
    from the input; the cells are the same on either side."""
    return n >= 2 and _walk_steps(d, n) < _walk_steps(n, d)
