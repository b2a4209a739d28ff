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

The types are the faces of the lower envelope's maximal cells that
meet every row (Develin-Sturmfels, "Tropical convexity", 2004).  A
point x has the type F whose graph holds edge (i, j) where x_j - v_ij
is largest in row i.  With z = x and u_i that largest value, z_j - u_i
<= v_ij on every edge, with equality on F's, so F is the set of edges
a feasible potential of the envelope makes tight: a face of the lower
envelope subdivision, and one that meets every row.  Conversely a
potential tight on a face that meets every row makes each u_i row i's
largest value, so z has that face as its type.  Every face lies in a
maximal cell, and the potentials tight on F fix the differences inside
each component of F, over all n + d nodes, and leave each component
one free translation, so the realization set has the dimension of the
components less one: the label groups F ties, less one, as each row
joins the group of its labels.

:func:`enumerate_realizations` reads the types off the cells by one
computation, :func:`_faces`.  On a generic arrangement the cells are
the head's trees.  A tree is a simplex, whose edges are its vertices,
and every subset of a simplex's vertices spans a face of it, so its
types are the products over rows of a nonempty subset of each row's
tree edges, each of dimension n + d - 1 less its edges.  A generic
arrangement has T(n, d) types, T(0, d) = T(k, 1) = 1 and T(k, d) =
T(k - 1, d) + 2 T(k, d - 1) (:func:`_type_count`), and the route finds
exactly that many distinct faces or raises :class:`RuntimeError`: the
count is the certificate, since the tree verdict :func:`is_generic`
gives is read off the same walk.  On any other arrangement the cells
come from the walk over cells (:func:`~troparr.envelope._cell_walk`),
started at the head's first cell that is not a tree, and the faces of
each cell that is not a tree are its closure under two-block cuts.

Entries are label masks, in the one label encoding of
:class:`~troparr.core.TypeVector`, from the cells' rows of edges to the
types the enumeration records.  A witness comes from
:func:`realizable`, one Bellman-Ford pass over the n + d nodes on the
arrangement's integer form (:func:`~troparr.core._integer_rows`), so
every potential is an int; Fractions come back only in the witness,
which divides at the end.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterable

from .core import Arrangement, Meter, ProjectivePoint, ResourceLimitError, TypeVector, _as_point
from .envelope import TiedMinor, _cell_walk, _full_walk, _tied_minor

#: Cap on the work of closing the cells' faces under cuts, in entries
#: built: each face cut tries 2^|U| - 2 label masks, an n-entry type each.
MAX_CUT_WORK = 5_000_000


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

    Under a ``meter`` the walk stops, refused in ``stage``'s types, once
    its trees outnumber the types left.  Each tree is a cell, and so a
    distinct 0-dimensional type: a refused walk is an enumeration the
    budget refuses, with the same message, and keeps no head."""
    if "_walk_head" not in vars(arr):
        n, d = arr.n, arr.d
        head: list[int] = []
        for cell in _full_walk(n, d, arr._integer_form[1]):
            head.append(cell)
            if cell.bit_count() != n + d - 1:
                break
            if meter is not None:
                meter.count(stage, len(head), "types", ahead=True)
        object.__setattr__(arr, "_walk_head", tuple(head))
    return arr._walk_head


def _type_count(n: int, d: int) -> int:
    """T(n, d), the types of every generic arrangement of n hyperplanes
    with d coordinates: T(0, d) = T(k, 1) = 1 and T(k, d) = T(k - 1, d)
    + 2 T(k, d - 1), one d at a time."""
    counts = [1] * (n + 1)
    for _ in range(d - 1):
        for k in range(1, n + 1):
            counts[k] = counts[k - 1] + 2 * counts[k]
    return counts[n]


def _groups(face: tuple[int, ...], d: int) -> int:
    """The label groups of a type given as label masks: the labels its
    entries tie together, each label of no entry with two labels or more
    a group of its own."""
    groups: list[int] = []
    for mask in face:
        if mask & mask - 1:
            rest = [g for g in groups if not g & mask]
            groups = rest + [mask | sum(g for g in groups if g & mask)]
    return len(groups) + d - sum(groups).bit_count()


def _faces(n: int, d: int, cells: Iterable[int], meter: Meter, stage: str) -> dict[TypeVector, int]:
    """The faces of the n x d maximal ``cells``, edge masks, that meet
    every row, as types mapped to their dimensions, the label groups less
    one; row i's label mask is the cell's row of d bits shifted up by one
    (:class:`~troparr.core.TypeVector`).

    A tree's faces are the products over rows of a nonempty subset of
    each row's edges: every subset of a simplex's vertices spans a face,
    a forest whose dimension is n + d - 1 less its edges.  Any other
    cell's are its closure under two-block cuts: a face's cut by a label
    mask Q keeps, of each entry meeting Q, the labels in Q, the type of
    the points a move that raises Q's labels reaches.  Cuts by the proper
    nonempty submasks of the union U of the face's entries with two
    labels or more are all the cuts that can move it, as a cut by Q
    moves the face only as Q ∩ U does: 2^|U| - 2 cuts, never more than
    the 2^d - 2 two-block refinements :func:`~troparr.axioms.check_surrounding`
    looks up for the same type.  Every face of a cell that meets every
    row is the cell's type refined by an ordered partition (B_1, ..., B_k),
    the cuts by B_1, ..., B_(k-1) one after another, so the closure holds
    every face; a face first met as a tree's is not cut again, as its
    faces are that tree's.

    The ``meter`` counts each new face as one type of ``stage``, once per
    cell and once per cut face, so it refuses exactly when the faces
    outnumber its budget.  The cuts are not types: a face cut tries
    2^|U| - 2 masks however few new faces they find, about 3^d tries for
    the 2^d - 1 faces of d tied labels, and each try builds an n-entry
    type.  So the run is refused before a face whose tries, times n,
    would take it past ``MAX_CUT_WORK`` entries."""
    full, top, tries = (1 << d) - 1, n + d - 1, 0
    faces: dict[tuple[int, ...], int] = {}
    uncut: list[tuple[int, ...]] = []
    for cell in cells:
        entries = tuple((cell >> i * d & full) << 1 for i in range(n))
        if cell.bit_count() == top:
            subsets = []
            for row in entries:
                subset, below = row, []
                while subset:
                    below.append(subset)
                    subset = subset - 1 & row
                subsets.append(below)
            new = [face for face in product(*subsets) if face not in faces]
            for face in new:
                faces[face] = top - sum(mask.bit_count() for mask in face)
        else:
            new = [] if entries in faces else [entries]
            for face in new:
                faces[face] = _groups(face, d) - 1
            uncut += new
        meter.count(stage, len(new), "types")
        while uncut:
            face = uncut.pop()
            union = 0
            for mask in face:
                if mask & mask - 1:
                    union |= mask
            if union:
                tries += (1 << union.bit_count()) - 2
                if tries * n > MAX_CUT_WORK:
                    raise ResourceLimitError(
                        f"type enumeration: {tries} cuts x {n} entries = {tries * n} entries exceed the cap of {MAX_CUT_WORK}"
                    )
            new, q = [], union - 1 & union
            while q:
                cut = tuple([mask & q or mask for mask in face])
                if cut not in faces:
                    faces[cut] = _groups(cut, d) - 1
                    new.append(cut)
                q = q - 1 & union
            meter.count(stage, len(new), "types")
            uncut += new
    return {TypeVector._trusted(face): dim for face, dim in faces.items()}


def realizable(arr: Arrangement, T: TypeVector) -> RealizationResult:
    """Exact feasibility of a candidate type, with witness and dimension.

    Infeasibility is a normal result, not an error.  A point x has type T
    exactly when some potentials u_i over the rows and z = x over the
    labels have z_j - u_i = v_ij on T's edges and z_j - u_i < v_ij on the
    rest: difference constraints over the n + d nodes, solved by one
    Bellman-Ford pass on the arrangement's integer form.  The heights are
    scaled by N = n + d and each strict bound tightened by 1.  That is
    exact: a system of difference constraints is feasible iff no cycle
    sums below 0, or to 0 through a strict bound; a simple cycle holds at
    most N arcs, so one that sums to s >= 1 in the integer form sums to
    at least N s - N >= 0 once scaled and tightened, one that sums to 0
    through a strict bound below 0, and one below 0 stays below 0.  The
    witness is read off the potentials, which meet every tightened bound
    and so every strict one.  The dimension is the type's label groups
    less one: the realization set is open in the span its ties leave.
    A vertex is one point, so its witness does not depend on the pass.
    """
    if T.n != arr.n:
        raise ValueError(f"type has {T.n} entries, arrangement has n={arr.n}")
    if T.max_label() > arr.d:
        raise ValueError(f"type labels exceed d={arr.d}")
    n, d = arr.n, arr.d
    scale, rows = arr._integer_form
    size = n + d
    # arcs (a, b, c) for the bounds p_b <= p_a + c, row i node i - 1 and label j node n + j - 1
    arcs = []
    for i, (row, mask) in enumerate(zip(rows, T.masks)):
        for j, v in enumerate(row, 1):
            if mask >> j & 1:
                arcs += [(i, n + j - 1, size * v), (n + j - 1, i, -size * v)]
            else:
                arcs.append((i, n + j - 1, size * v - 1))
    p = [0] * size
    for _ in range(size):
        relaxed = False
        for a, b, c in arcs:
            if p[a] + c < p[b]:
                p[b] = p[a] + c
                relaxed = True
        if not relaxed:
            break
    else:
        return RealizationResult(False)
    last, one = p[-1], size * scale
    witness = ProjectivePoint(tuple(Fraction(z - last, one) for z in p[n:]))
    return RealizationResult(True, witness, _groups(T.masks, d) - 1)


def enumerate_realizations(arr: Arrangement, budget: int | None = None) -> dict[TypeVector, int]:
    """Every realizable type, mapped to the affine dimension of its
    realization set; :func:`realizable` gives a type's witness.

    The types are the faces of the lower envelope's maximal cells that
    meet every row (the module docstring has the proof), read off by
    :func:`_faces`.  The pivot walk comes first, up to its first cell
    that is not a tree, and is kept on ``arr`` for :func:`is_generic`
    (:func:`_walk_head`).  When every cell is a tree the input is
    generic, its cells are the walk's trees, and exactly T(n, d) distinct
    faces must come out, or the route raises :class:`RuntimeError`.  Any
    other input's cells come from the walk over cells,
    :func:`~troparr.envelope._cell_walk`, started at the first cell that
    is not a tree.

    The :class:`~troparr.core.Meter` of ``budget`` counts the types, so
    a run is refused exactly when the arrangement has more types than
    its budget, always with the one message that the limit plus one types
    exceed the limit.  Every nonempty label mask is hyperplane 1's entry
    in some type, so there are 2^d - 1 types at least, and the meter
    refuses up front when that floor does not fit.  The pivot walk then
    refuses once its trees, each a distinct 0-dimensional type, outnumber
    the budget, and :func:`_faces` counts the types as it builds them; a
    head walked before with no meter, by :func:`is_generic`, is refused
    there, with the same message.  The cuts that close a cell's faces
    have a fixed cap of their own, ``MAX_CUT_WORK`` entries built,
    whatever the budget.
    """
    stage, n, d = "type enumeration", arr.n, arr.d
    meter = Meter(budget)
    meter.count(stage, 2**d - 1, "types", ahead=True)
    walked = _walk_head(arr, meter, stage)
    generic = walked[-1].bit_count() == n + d - 1
    types = _faces(n, d, walked if generic else _cell_walk(n, d, arr._integer_form[1], walked[-1]), meter, stage)
    if generic and len(types) != (count := _type_count(n, d)):
        raise RuntimeError(
            f"{stage}: the {len(walked)} trees of a generic {n}x{d} triangulation give {len(types)} types, not T({n},{d}) = {count}"
        )
    return types
