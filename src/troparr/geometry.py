"""Types of points, exact realizability of candidate types, genericity
and full type enumeration.

Genericity is tropical: every square minor of the apex matrix has a
min-plus determinant attained by one permutation only.  It is read off
the pivot walk over the lower envelope of the apex matrix (see
:mod:`troparr.envelope`), which names a tied minor when there is one.
The walk's head, its cells up to and including the first that is not a
spanning tree, is kept on the arrangement by :func:`_walk_head`: the
type enumeration walks it first, under its budget, and
:func:`is_generic` reads it, so a run walks the envelope once.

:func:`enumerate_realizations` finds the types by one of two routes.

On a generic arrangement they are read off the head, every tree of the
triangulation (Develin-Sturmfels, "Tropical convexity", 2004).  A
point x has the type F whose graph holds edge (i, j) where x_j - v_ij
is largest in row i.  With z = x and u_i that largest value, z_j - u_i
<= v_ij on every edge, with equality on F's, so F is the set of edges
a feasible potential of the envelope makes tight: a face of the lower
envelope subdivision, and one that meets every row.  Conversely a
potential tight on a face that meets every row makes each u_i row i's
largest value, so z has that face as its type.  The types are the
faces of the subdivision's cells that meet every row.  A cell that is
a tree is a simplex, whose edges are its vertices, and every subset of
a simplex's vertices spans a face of it; so the types of a
triangulation are the subforests of its trees that meet every row: for
each tree, every product over rows of a nonempty subset of that row's
tree edges.  The potentials tight on F fix the differences inside each
component of F, over all n + d nodes, and leave each component one free
translation, so the realization set has the dimension of the components
less one, n + d - 1 - |F| for a forest of |F| edges.  A generic
arrangement has T(n, d) types, T(0, d) = T(k, 1) = 1 and T(k, d) =
T(k - 1, d) + 2 T(k, d - 1) (:func:`_type_counts`), and the route finds
exactly that many distinct faces or raises :class:`RuntimeError`: the
count is the certificate, since the tree verdict :func:`is_generic`
gives is read off the same walk.

On any other arrangement a depth-first search over difference
constraints finds them.  A candidate type imposes, hyperplane by
hyperplane, that the listed coordinates tie (after subtracting the apex
row) and strictly beat the rest.  The ties merge coordinates into rigid
groups carrying exact offsets, kept in two flat arrays: each label's
group root and its offset to that root; the strict part becomes a
system of strict difference constraints between group representatives,
kept closed under max-plus composition (longest paths).  Each
hyperplane is added incrementally: a merge and the new strict bounds
are relaxed through the closed bounds in O(roots^2), with no all-pairs
re-closure.  A closed, consistent system always admits a rational
witness, found by greedy interval assignment.

Entries are label masks, in the one label encoding of
:class:`~troparr.core.TypeVector`, from the pairwise tests through
:meth:`_Feasibility.add_hyperplane` to the types the enumeration records,
which keep the walk's masks as they are.  The search is one depth-first
loop in :func:`enumerate_realizations`: it walks hyperplanes 1..n-1 and
generates, on each feasible prefix, only the entries that pass pairwise
tests read off the closed bounds (every two members can still tie, every
member can still beat every non-member), as cliques of a tie relation
closed under the labels each member forces in; its work grows with the
types, not with 2^d.  Every entry the tests pass is feasible, so the
loop takes each that hyperplane n passes as a type, recorded with its
dimension without imposing it, and raises on any that an earlier
hyperplane refuses.

A witness comes from :func:`realizable`, which imposes all of a type's
entries in the search's order, on either route.

The feasibility kernel runs on ints, on the arrangement's integer form
(:func:`~troparr.core._integer_rows`), so every offset and bound is an
integer multiple of 1/D.  Fractions come back only in the witness, which
divides at the end.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterator

from .core import Arrangement, Meter, ProjectivePoint, TypeVector, _as_point, _bits
from .envelope import TiedMinor, _full_walk, _tied_minor


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

    Coordinates are counted in units of 1/scale, ``scale`` and ``rows``
    the arrangement's integer form, so every bound is an int.
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

    def __init__(self, arr: Arrangement):
        """The empty prefix of ``arr``."""
        self.scale, self.rows = arr._integer_form
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
        """Impose the entry with label mask ``mask`` for hyperplane i;
        False iff infeasible.

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
        label masks.

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
        A closed, consistent system leaves each root an open interval, so
        one that is shut is a fault of the kernel and raises
        :class:`RuntimeError`.
        """
        stage = "realization witness"
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
            elif lo < hi:
                values[r] = (lo + hi) // 2
            else:
                raise RuntimeError(f"{stage}: the closed bounds leave label {r}'s group no open interval")
        shifted = [values[self.root[j]] + self.offset[j] * m for j in range(1, self.d + 1)]
        last = shifted[-1]
        return ProjectivePoint(tuple(Fraction(v - last, one) for v in shifted))


def _cliques(tie: list[int], force: list[int], full: int) -> list[int]:
    """Every nonempty label mask S inside ``full`` with S inside tie[j]
    and force[j] inside S for each j in S.

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
    masks = []
    for apex in arr.apexes:
        diffs = [xc - vc for xc, vc in zip(x.coords, apex.coords)]
        top = max(diffs)
        masks.append(sum(2 << j for j, v in enumerate(diffs) if v == top))
    return TypeVector._trusted(tuple(masks))


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
    the envelope stops at the first cell that is not a tree, and the
    minor is read off that cell's first cycle.  The walk is the one whose
    head the arrangement keeps (:func:`_walk_head`), so after
    :func:`enumerate_realizations` nothing is walked again.
    """
    last = _walk_head(arr)[-1]
    if last.bit_count() == arr.n + arr.d - 1:
        return GenericityReport(None)
    return GenericityReport(_tied_minor(arr.n, arr.d, last))


def _walk_head(arr: Arrangement, meter: Meter | None = None, stage: str = "") -> tuple[int, ...]:
    """The cells of the pivot walk over the lower envelope of ``arr``'s
    apex matrix, as edge masks (:class:`~troparr.core.CellGraph`), up to
    and including the first that is not a spanning tree: on a generic
    arrangement, every tree of its triangulation.  Walked on first use
    and kept on ``arr``, outside its fields, so one run walks the
    envelope once for its types and its genericity.

    Under a ``meter`` the walk stops, refused in ``stage``'s feasibility
    steps, once its trees outnumber the steps left.  Each tree is a cell,
    and so a distinct 0-dimensional type, which the search of
    :func:`enumerate_realizations` takes a step to generate: a refused
    walk is an enumeration the budget refuses, with the same message, and
    keeps no head."""
    if "_walk_head" not in vars(arr):
        n, d = arr.n, arr.d
        head: list[int] = []
        for cell in _full_walk(n, d, arr._integer_form[1]):
            head.append(cell)
            if cell.bit_count() != n + d - 1:
                break
            if meter is not None:
                meter.count(stage, len(head), "feasibility steps", ahead=True)
        object.__setattr__(arr, "_walk_head", tuple(head))
    return arr._walk_head


def _type_counts(n: int, d: int) -> list[int]:
    """T(0, d), ..., T(n, d): T(k, d) types has every generic arrangement
    of k hyperplanes with d coordinates, T(0, d) = T(k, 1) = 1 and
    T(k, d) = T(k - 1, d) + 2 T(k, d - 1), one d at a time."""
    counts = [1] * (n + 1)
    for _ in range(d - 1):
        for k in range(1, n + 1):
            counts[k] = counts[k - 1] + 2 * counts[k]
    return counts


def _tree_types(n: int, d: int, trees: tuple[int, ...]) -> dict[TypeVector, int]:
    """The distinct subforests of the n x d spanning ``trees``, edge masks,
    that meet every row, as types mapped to their dimensions, n + d - 1
    less their edges: for each tree, every product over rows of a
    nonempty subset of that row's edges, row i's label mask the row's
    d bits shifted up by one (:class:`~troparr.core.TypeVector`)."""
    full, top = (1 << d) - 1, n + d - 1
    faces: dict[tuple[int, ...], int] = {}
    for tree in trees:
        rows = []
        for i in range(n):
            row = subset = (tree >> i * d & full) << 1
            subsets = []
            while subset:
                subsets.append(subset)
                subset = subset - 1 & row
            rows.append(subsets)
        for face in product(*rows):
            if face not in faces:
                faces[face] = top - sum(mask.bit_count() for mask in face)
    return {TypeVector._trusted(face): dim for face, dim in faces.items()}


def realizable(arr: Arrangement, T: TypeVector) -> RealizationResult:
    """Exact feasibility of a candidate type, with witness and dimension.

    Infeasibility is a normal result, not an error.  The entries are
    imposed in the order the search of :func:`enumerate_realizations`
    imposes them on its way to T, and the closed bounds depend on the
    bounds alone, so the witness is read off the same closed state the
    search reaches.
    """
    if T.n != arr.n:
        raise ValueError(f"type has {T.n} entries, arrangement has n={arr.n}")
    if T.max_label() > arr.d:
        raise ValueError(f"type labels exceed d={arr.d}")
    state = _Feasibility(arr)
    for i, mask in enumerate(T.masks, 1):
        if not state.add_hyperplane(i, mask):
            return RealizationResult(False)
    return RealizationResult(True, state.witness(), state.dimension())


def enumerate_realizations(arr: Arrangement, budget: int | None = None) -> dict[TypeVector, int]:
    """Every realizable type, mapped to the affine dimension of its
    realization set; :func:`realizable` gives a type's witness.

    The walk over the lower envelope comes first, up to its first cell
    that is not a tree, and is kept on ``arr`` for :func:`is_generic`
    (:func:`_walk_head`).  When every cell is a tree the input is
    generic, and its types are the subforests of the trees that meet
    every row, each of dimension n + d - 1 less its edges
    (:func:`_tree_types`; the module docstring has the proof): a type is
    a face of the envelope subdivision that meets every row, every
    subset of a simplex's vertices is a face of it, and a realization
    set's dimension is its face's components less one.  Exactly T(n, d)
    distinct faces must come out, or the route raises
    :class:`RuntimeError`.

    Any other input is searched.  The search walks hyperplanes 1..n-1
    depth first from the empty prefix, on an explicit stack of one frame
    per hyperplane of the current prefix, so its depth is not bounded by
    Python's recursion limit.  On a feasible prefix only the entries
    passing the pairwise tests of :meth:`_Feasibility.entries` are
    generated, and each is imposed by :meth:`_Feasibility.add_hyperplane`
    on a copy of the prefix's state, which the next hyperplane extends.
    The argument below shows every such entry feasible, so one that
    ``add_hyperplane`` refuses is a fault of the kernel and raises
    :class:`RuntimeError`.

    On each prefix of n - 1 entries every entry the pairwise tests pass
    for hyperplane n is a type, and it is recorded without a copy or a
    closure: merging its k groups removes k - 1 roots, and strict bounds
    leave the dimension as it is.  That is exact because the pairwise
    tests are.  The entry adds two kinds of bounds to the closed prefix
    system.  Its groups tie at fixed differences, and each pair of them
    ties inside the open interval its closed bounds leave; around any
    cycle those differences sum to 0.  The merged group then strictly
    beats every other group, and every new strict bound leaves it.  An
    infeasible system has a simple cycle whose bounds sum to 0 or more,
    with one strict bound at least.  Its runs of old bounds close to
    single old bounds.  Old bounds alone are feasible, so it meets the
    merged group, and being simple, once: it enters at one member and
    leaves at another.  If it leaves by an old bound, it is a cycle
    between two members' groups, which the pairwise tie test rules
    out.  If it leaves by a new strict bound to a label k, it returns at
    its first entry into the group, so it pits one member against k,
    which the pairwise win test rules out.  (A path-consistent system of
    difference constraints is decomposable: Dechter, Meiri and Pearl,
    "Temporal constraint networks", 1991.)

    The :class:`~troparr.core.Meter` of ``budget`` counts feasibility
    steps, one per entry the search generates, the last hyperplane's
    included, once each list is recorded.  All m = 2^d - 1 entries of
    hyperplane 1 are feasible, each with a feasible entry for hyperplane
    2 after it, so the search takes at least 2m steps (m if n = 1), and
    the meter refuses it up front when that floor does not fit.  The
    walk then refuses once its trees outnumber the steps left, each a
    distinct 0-dimensional type the search would generate; a head walked
    before with no meter, by :func:`is_generic`, is refused by the count
    below or by the search, with the same message.  Both routes
    spend the same steps: on hyperplane i the search generates one entry
    per type of the first i hyperplanes, a generic arrangement too when
    the whole is, so a generic input is charged the sum S of T(i, d)
    over i = 1..n in one count, before any type is built.  Every verdict
    and message of the budget is the search's.
    """
    stage, n, d = "type enumeration", arr.n, arr.d
    meter = Meter(budget)
    meter.count(stage, (2**d - 1) * (1 + (n >= 2)), "feasibility steps", ahead=True)
    walked = _walk_head(arr, meter, stage)
    if walked[-1].bit_count() == n + d - 1:
        counts = _type_counts(n, d)
        meter.count(stage, sum(counts[1:]), "feasibility steps")
        types = _tree_types(n, d, walked)
        if len(types) != counts[n]:
            raise RuntimeError(
                f"{stage}: the {len(walked)} trees of a generic {n}x{d} triangulation give {len(types)} types, not T({n},{d}) = {counts[n]}"
            )
        return types
    out: dict[TypeVector, int] = {}
    # frames (hyperplane i, state after the prefix, prefix, i's entries left)
    stack: list[tuple[int, _Feasibility, tuple[int, ...], Iterator[int]]] = []
    state: _Feasibility | None = _Feasibility(arr)
    prefix: tuple[int, ...] = ()
    while state is not None:
        i = len(prefix) + 1
        entries = state.entries(i)
        if i < n:
            stack.append((i, state, prefix, iter(entries)))
        else:
            root, roots = state.root, state.dimension() + 1
            for mask in entries:
                out[TypeVector._trusted(prefix + (mask,))] = roots - len({root[j] for j in _bits(mask)})
        meter.count(stage, len(entries), "feasibility steps")
        state = None
        while stack and state is None:
            i, parent, head, left = stack[-1]
            entry = next(left, 0)
            if not entry:
                stack.pop()
                continue
            state, prefix = parent.copy(), head + (entry,)
            if not state.add_hyperplane(i, entry):
                labels = ",".join(map(str, _bits(entry)))
                raise RuntimeError(f"{stage}: hyperplane {i} refuses entry {{{labels}}}, which its pairwise tests pass")
    return out
