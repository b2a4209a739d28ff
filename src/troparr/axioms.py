"""Axiom checks for collections of types: boundary, elimination,
comparability, surrounding, plus the single-coordinate local-refinement
probe, aggregated into a verdict with first-counterexample diagnostics.

Surrounding and local refinement are deliberately distinct predicates.
Surrounding quantifies over ordered-partition refinements (a single
infinitesimal move, which may cut several entries at once); local
refinement replaces one non-singleton entry by one of its labels while
freezing everything else.  Only the former enters the final verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, partial, reduce
from itertools import permutations
from math import comb
from operator import and_, or_
from typing import Collection

from .core import ResourceLimitError, TypeVector, enumerate_ordered_partitions

#: Cap on the surrounding check's work, |types| x Fubini(d) refinement
#: lookups.
MAX_SURROUNDING_WORK = 5_000_000


@dataclass(frozen=True)
class ComparabilityGraph:
    """Semidirected graph on coordinate labels built from a pair of types.

    A directed edge j -> k records the strict relation "j beats k" forced
    at some hyperplane; an undirected edge records equality.  Any
    coordinate contributing a directed orientation overrides undirected
    contributions for that pair.
    """

    d: int
    undirected_edges: frozenset[frozenset[int]]
    directed_edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        labels = {x for edge in self.directed_edges for x in edge}.union(*self.undirected_edges)
        if not labels <= set(range(1, self.d + 1)):
            raise ValueError("edges must join labels in 1..d")
        for j, k in self.directed_edges:
            if j == k:
                raise ValueError("no self-loops")
        for pair in self.undirected_edges:
            if len(pair) != 2:
                raise ValueError("undirected edges join two distinct labels")
            j, k = sorted(pair)
            if (j, k) in self.directed_edges or (k, j) in self.directed_edges:
                raise ValueError("a pair may appear in only one edge set")


@dataclass(frozen=True)
class CheckResult:
    """Pass/fail plus the first counterexample in canonical order (types
    sorted lexicographically); the payload shape is check-specific."""

    passed: bool
    counterexample: object = None

    def __bool__(self) -> bool:
        return self.passed


@dataclass(frozen=True)
class AxiomReport:
    boundary: CheckResult
    elimination: CheckResult
    comparability: CheckResult
    surrounding: CheckResult
    local_refinement: CheckResult
    is_tom: bool


def _sorted_types(types: Collection[TypeVector], d: int | None = None) -> list[TypeVector]:
    ordered = sorted(types, key=lambda t: t.key())
    if ordered and any(t.n != ordered[0].n for t in ordered):
        raise ValueError("collection mixes types of different lengths")
    if d is not None and any(t.max_label() > d for t in ordered):
        raise ValueError(f"collection has labels beyond d={d}")
    return ordered


def check_boundary(types: Collection[TypeVector], n: int, d: int) -> CheckResult:
    """Every constant type (j, ..., j) must be present."""
    present = set(types)
    missing = tuple(
        j for j in range(1, d + 1)
        if TypeVector(tuple(frozenset((j,)) for _ in range(n))) not in present
    )
    return CheckResult(not missing, missing or None)


def check_elimination(types: Collection[TypeVector]) -> CheckResult:
    """For each pair (A, B) and position j, some C in the collection must
    take the union at j and one of A_k, B_k, A_k u B_k everywhere.

    Bitset kernel: bit t of ``masks[k][E]`` marks the t-th sorted type
    whose k-th entry is E.  The types matching (A, B) are the AND over k
    of the masks of A_k, B_k and A_k u B_k, and j fails when none of them
    has A_j u B_j: O(T^2 n) operations on T-bit integers for T types
    (plus one table per position over its pairs of distinct entries).
    """
    ordered = _sorted_types(types)
    masks: list[dict] = [{} for _ in ordered[0].entries] if ordered else []
    for bit, t in enumerate(ordered):
        for m, entry in zip(masks, t.entries):
            m[entry] = m.get(entry, 0) | 1 << bit
    # per position and entry pair (a, b): (masks of a, b or a u b; mask of a u b)
    cells = [{(a, b): (m[a] | m[b] | m.get(a | b, 0), m.get(a | b, 0)) for a in m for b in m}
             for m in masks]
    for ia, A in enumerate(ordered):
        for B in ordered[ia:]:
            pair = [c[ab] for c, ab in zip(cells, zip(A.entries, B.entries))]
            match = reduce(and_, (either for either, _ in pair))
            for j, (_, union) in enumerate(pair, 1):
                if not match & union:
                    return CheckResult(False, (A, B, j))
    return CheckResult(True)


def comparability_graph(A: TypeVector, B: TypeVector, d: int | None = None) -> ComparabilityGraph:
    """Edges j ~ k for j in A_i, k in B_i (j != k): undirected when both
    labels lie in A_i n B_i, otherwise directed j -> k; a directed
    contribution from any coordinate overrides undirected ones."""
    if A.n != B.n:
        raise ValueError("types must have the same number of entries")
    if d is None:
        d = max(A.max_label(), B.max_label())
    undirected: set[frozenset[int]] = set()
    directed: set[tuple[int, int]] = set()
    for ai, bi in zip(A.entries, B.entries):
        both = ai & bi
        for j in ai:
            for k in bi:
                if j == k:
                    continue
                if j in both and k in both:
                    undirected.add(frozenset((j, k)))
                else:
                    directed.add((j, k))
    undirected -= {frozenset((j, k)) for j, k in directed}
    return ComparabilityGraph(d, frozenset(undirected), frozenset(directed))


def _packed(g: ComparabilityGraph) -> int:
    """The graph as three d x d bit matrices (bit (j-1)*d + k-1 is j -> k),
    packed into one int: directed edges, their reversals, undirected edges."""
    edges = [(j, k, 0) for j, k in g.directed_edges] + [(k, j, 1) for j, k in g.directed_edges]
    edges += [(j, k, 2) for e in g.undirected_edges for j, k in permutations(e)]
    return sum(1 << field * g.d * g.d + (j - 1) * g.d + k - 1 for j, k, field in edges)


def _acyclic(edges: int, d: int) -> bool:
    """:func:`is_acyclic` on a :func:`_packed` graph, in O(d) operations on
    d^2-bit ints.  Warshall's closure ORs row m into every row reaching m
    with one multiplication; an edge j -> k is on a cycle when k reaches j."""
    directed, reversed_, undirected = (edges >> i * d * d & (1 << d * d) - 1 for i in range(3))
    reach = directed | (undirected & ~(directed | reversed_))
    column = sum(1 << a * d for a in range(d))
    for m in range(d):
        reach |= (reach >> m & column) * (reach >> m * d & (1 << d) - 1)
    return not reach & reversed_


def is_acyclic(g: ComparabilityGraph) -> bool:
    """No cycle that traverses at least one directed edge forward
    (undirected edges may be walked either way).

    Undirected edges expand to both orientations; the graph fails exactly
    when some genuinely directed edge has its head reaching back to its
    tail through the expanded reachability.
    """
    return _acyclic(_packed(g), g.d)


def check_comparability(types: Collection[TypeVector], d: int | None = None) -> CheckResult:
    """Every pair's comparability graph must be acyclic.

    Kernel: a pair's graph is the union over positions of its entries'
    graphs, so each pair of distinct entries is packed once, a pair of
    types ORs n ints, and :func:`_acyclic` runs once per distinct graph:
    O(T^2 n + G d) int operations for G distinct graphs.
    """
    ordered = _sorted_types(types, d)
    d = max((t.max_label() for t in ordered), default=1) if d is None else d
    entries = {e for t in ordered for e in t.entries}
    packed = {(a, b): _packed(comparability_graph(TypeVector((a,)), TypeVector((b,)), d))
              for a in entries for b in entries}
    acyclic = cache(partial(_acyclic, d=d))  # far fewer distinct graphs than pairs
    for ia, A in enumerate(ordered):
        for B in ordered[ia:]:
            if not acyclic(reduce(or_, [packed[ab] for ab in zip(A.entries, B.entries)])):
                return CheckResult(False, (A, B))
    return CheckResult(True)


@cache
def _fubini(d: int) -> int:
    """Fubini(d) = sum over k of k! S(d, k), the ordered partitions of d
    labels into k blocks."""
    return sum((-1) ** (k - j) * comb(k, j) * j**d for k in range(d + 1) for j in range(k + 1))


def _surrounding_cap(count: int, d: int) -> None:
    """Raise ResourceLimitError when the surrounding check's count x
    Fubini(d) refinement lookups exceed ``MAX_SURROUNDING_WORK``."""
    work = count * _fubini(d)
    if work > MAX_SURROUNDING_WORK:
        raise ResourceLimitError(
            f"surrounding: {count} types x {_fubini(d)} ordered partitions of d={d} "
            f"= {work} refinements exceed the cap of {MAX_SURROUNDING_WORK}"
        )


def check_surrounding(types: Collection[TypeVector], d: int | None = None) -> CheckResult:
    """Every ordered-partition refinement of every type must be present.

    Kernel: each distinct entry is cut once by every ordered partition
    (its part in the first block it meets, as in
    :func:`troparr.geometry.refine`), so a type's refinements are the zip
    of its entries' columns, all looked up by one ``set.issuperset``.
    The |types| x Fubini(d) lookups are capped at ``MAX_SURROUNDING_WORK``.
    """
    ordered = _sorted_types(types, d)
    if not ordered:
        return CheckResult(True)
    d = max(t.max_label() for t in ordered) if d is None else d
    _surrounding_cap(len(ordered), d)
    partitions = enumerate_ordered_partitions(d)
    entries = {e for t in ordered for e in t.entries}
    cuts = {e: [e & next(b for b in P.blocks if e & b) for P in partitions] for e in entries}
    present = {t.entries for t in ordered}
    for T in ordered:
        refined = list(zip(*(cuts[e] for e in T.entries)))
        if not present.issuperset(refined):
            return CheckResult(False, (T, next(P for P, r in zip(partitions, refined) if r not in present)))
    return CheckResult(True)


def check_local_refinement(types: Collection[TypeVector]) -> CheckResult:
    """For every type, every non-singleton entry, and every label in it,
    the vector with just that entry collapsed to the single label must be
    present."""
    ordered = _sorted_types(types)
    present = set(ordered)
    for T in ordered:
        for i, entry in enumerate(T.entries, 1):
            if len(entry) < 2:
                continue
            for k in sorted(entry):
                if T.with_entry(i, (k,)) not in present:
                    return CheckResult(False, (T, i, k))
    return CheckResult(True)


def is_tropical_oriented_matroid(
    types: Collection[TypeVector], n: int, d: int
) -> AxiomReport:
    """Run all checks; the verdict is the conjunction of boundary,
    elimination, comparability and surrounding (local refinement is
    reported alongside but does not enter it).  The surrounding work cap
    is tested before any check runs, so a refused input costs nothing."""
    _surrounding_cap(len(types), d)
    boundary = check_boundary(types, n, d)
    elimination = check_elimination(types)
    comparability = check_comparability(types, d)
    surrounding = check_surrounding(types, d)
    local = check_local_refinement(types)
    is_tom = bool(boundary and elimination and comparability and surrounding)
    return AxiomReport(boundary, elimination, comparability, surrounding, local, is_tom)
