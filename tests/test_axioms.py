import random
from functools import cache
from itertools import combinations

import pytest

import troparr.axioms
from troparr import (
    Arrangement,
    ResourceLimitError,
    TypeVector,
    check_boundary,
    check_comparability,
    check_elimination,
    check_local_refinement,
    check_surrounding,
    is_tropical_oriented_matroid,
)

from conftest import (
    comparability_graph,
    comparability_oracle,
    elimination_oracle,
    enumerate_types,
    is_acyclic,
    nongeneric_on_apex,
    packed,
    pairwise_comparability_oracle,
    pairwise_elimination_oracle,
    random_generic_arrangement,
    surrounding_oracle,
)


def T(*entries):
    return TypeVector.of(*entries)


def label_mask(entry) -> int:
    return sum(1 << j for j in entry)


def test_boundary(e1, e2):
    assert check_boundary(enumerate_types(e1), 2, 2)
    assert check_boundary(enumerate_types(e2), 2, 3)
    res = check_boundary({T({1}, {1})}, 2, 2)
    assert not res and res.counterexample == (2,)
    assert not check_boundary(set(), 1, 2)


def test_elimination_witnesses(e1, e2):
    types1 = enumerate_types(e1)
    assert check_elimination(types1)
    # the join of the two closed sectors at position 1 is a type
    assert T({1, 2}, {1}) in types1

    types2 = enumerate_types(e2)
    assert check_elimination(types2)
    assert T({1, 2}, {1, 2}) in types2
    assert T({1, 2}, {1}) not in types2 and T({1, 2}, {2}) not in types2


def test_elimination_singleton_and_failure():
    assert check_elimination({T({1}, {2})})
    # a pair with no compatible join anywhere
    res = check_elimination({T({1}, {1}), T({2}, {2})})
    assert not res
    A, B, j = res.counterexample
    assert {A, B} == {T({1}, {1}), T({2}, {2})} and j == 1


def test_comparability_graph_construction():
    g = comparability_graph(T({1}, {2}), T({2}, {1}))
    assert g.directed_edges == {(1, 2), (2, 1)}
    assert not g.undirected_edges

    t = T({1, 2}, {2, 3})
    g = comparability_graph(t, t)
    assert not g.directed_edges
    assert g.undirected_edges == {frozenset({1, 2}), frozenset({2, 3})}

    g = comparability_graph(T({1}, {1}), T({2}, {2}))
    assert g.directed_edges == {(1, 2)} and not g.undirected_edges


def test_comparability_graph_swap_reverses_direction():
    rng = random.Random(13)
    for _ in range(40):
        d = rng.choice([2, 3, 4])
        n = rng.choice([1, 2, 3])
        mk = lambda: T(*[set(rng.sample(range(1, d + 1), rng.randint(1, d))) for _ in range(n)])
        A, B = mk(), mk()
        g = comparability_graph(A, B, d)
        h = comparability_graph(B, A, d)
        assert h.undirected_edges == g.undirected_edges
        assert h.directed_edges == {(k, j) for j, k in g.directed_edges}
        assert is_acyclic(comparability_graph(A, A, d))


@pytest.mark.parametrize("d", range(1, 6))
def test_packed_pair_matches_the_packed_graph(d):
    # the outer products of the spread label masks give the validated graph's bits
    labels = [frozenset(c) for r in range(1, d + 1) for c in combinations(range(1, d + 1), r)]
    pack = troparr.axioms._pair_packer(d)
    for a in labels:
        for b in labels:
            graph = comparability_graph(TypeVector((a,)), TypeVector((b,)), d)
            assert pack(label_mask(a), label_mask(b)) == packed(graph), (a, b)


def test_packed_graphs_are_kept_per_process_for_the_pairs_met():
    # one table per d, grown only by the pairs of entries each call meets:
    # d = 3, then 4, then 3 again extend the tables earlier calls left, and
    # a largest label of 40 packs its own pairs, not all (2^40 - 1)^2
    rng = random.Random(42)
    troparr.axioms._pair_fields.cache_clear()
    wide = {T(*[rng.sample(range(1, 41), rng.randint(1, 3)) for _ in range(3)]) for _ in range(12)}
    runs = [
        (enumerate_types(random_generic_arrangement(rng, 3, 3)), 3),
        (enumerate_types(random_generic_arrangement(rng, 3, 4)), 4),
        ({T({2}, {3}, {1}), T({3}, {1, 2}, {2}), T({1, 3}, {3}, {1, 2})}, 3),
        (wide | {T({1}, {40}, {7}), T({40}, {1}, {7})}, 40),
    ]
    met: dict[int, set] = {}
    for types, d in runs:
        assert check_comparability(types, d) == pairwise_comparability_oracle(types, d), d
        entries = {m for t in types for m in t.masks}
        met.setdefault(d, set()).update((a, b) for a in entries for b in entries)
    for d, pairs in met.items():
        fields, pack, size = troparr.axioms._pair_fields(d), troparr.axioms._pair_packer(d), (3 * d * d + 7) // 8
        assert {(a, b) for a, row in fields.items() for b in row} == pairs, d
        assert all(fields[a][b] == pack(a, b).to_bytes(size, "little") for a, b in pairs), d


def test_is_acyclic():
    g = comparability_graph(T({1}, {2}), T({2}, {1}))
    assert not is_acyclic(g)  # 2-cycle
    und = comparability_graph(T({1, 2, 3}), T({1, 2, 3}))
    assert is_acyclic(und)  # all undirected
    dag = comparability_graph(T({1}, {1}, {3}), T({2}, {3}, {2}))
    assert dag.directed_edges == {(1, 2), (1, 3), (3, 2)}
    assert is_acyclic(dag)


def test_undirected_edges_participate_in_cycles():
    # directed 1->2 plus undirected {2,3},{3,1}: semidirected cycle exists
    A = T({1}, {2, 3}, {3, 1})
    B = T({2}, {2, 3}, {3, 1})
    g = comparability_graph(A, B)
    assert (1, 2) in g.directed_edges
    assert frozenset({2, 3}) in g.undirected_edges
    assert frozenset({1, 3}) in g.undirected_edges
    assert not is_acyclic(g)


def test_check_comparability(e1, e2):
    assert check_comparability(enumerate_types(e1))
    assert check_comparability(enumerate_types(e2))
    res = check_comparability({T({1}, {2}), T({2}, {1})})
    assert not res


def test_check_surrounding(e1, e2):
    assert check_surrounding(enumerate_types(e1), 2)
    # constant types are fixed points of every refinement
    assert check_surrounding({T({j}, {j}) for j in (1, 2, 3)}, 3)
    missing = check_surrounding({T({1, 2}, {1}), T({1}, {1})}, 2)
    assert not missing and missing.counterexample[0] == T({1, 2}, {1})
    # the cap counts |types| x (2^d - 2) two-block refinements, not d alone:
    # 12 x 254 at d = 8 runs, 12 x 1048574 at d = 20 is refused
    assert check_surrounding({T({1}, {1})}, 6)
    grid = {T({j}, {k}) for j in range(1, 5) for k in range(1, 4)}
    assert check_surrounding(grid, 8)
    with pytest.raises(ResourceLimitError, match=r"^surrounding: 12 types x 1048574 two-block refinements of "
                       r"d=20 = 12582888 lookups exceed the cap of 5000000$"):
        check_surrounding(grid, 20)


def test_surrounding_cap_counts_the_scan_that_names_a_failure(monkeypatch):
    # the second type fails: 2 x 2 two-block lookups, then 3 ordered
    # partitions for each of the 2 types the naming scan reads
    failing = {T({1, 2}, {1}), T({1}, {1})}
    monkeypatch.setattr(troparr.axioms, "MAX_SURROUNDING_WORK", 10)
    assert check_surrounding(failing, 2).counterexample[1].text() == "({2}|{1})"
    monkeypatch.setattr(troparr.axioms, "MAX_SURROUNDING_WORK", 9)
    with pytest.raises(ResourceLimitError, match=r"^surrounding: naming a failure: 2 types x 2 two-block "
                       r"refinements \+ 2 types x 3 ordered partitions of d=2 = 10 lookups exceed the cap of 9$"):
        check_surrounding(failing, 2)
    monkeypatch.setattr(troparr.axioms, "MAX_SURROUNDING_WORK", 3)
    with pytest.raises(ResourceLimitError, match=r"^surrounding: 2 types x 2 two-block refinements of d=2 = 4 "):
        check_surrounding(failing, 2)


def _thinned_collections():
    """Type sets of generic, integer and on-apex arrangements at
    (2..4, 3..4), each with 0-5 random types deleted."""
    rng = random.Random(1919)
    shapes = [(2, 3), (3, 3), (4, 3), (2, 4), (3, 4), (4, 4)]
    for i in range(300):
        n, d = shapes[i % len(shapes)]
        kind = ("generic", "integer", "apex")[i // len(shapes) % 3]
        if kind == "generic":
            arr = random_generic_arrangement(rng, n, d)
        elif kind == "apex":
            arr = nongeneric_on_apex(rng, n, d)[0]
        else:
            arr = Arrangement.from_rows([[rng.randint(-2, 2) for _ in range(d)] for _ in range(n)])
        types = sorted(enumerate_types(arr), key=lambda t: t.key())
        for _ in range(rng.randint(0, 5)):
            del types[rng.randrange(len(types))]
        yield f"{kind} {n}x{d} {i}", types, d


def test_two_block_surrounding_matches_the_oracle():
    # the verdict from two-block refinements and the first (T, P) named by
    # the ordered-partition scan equal the oracle's, which builds every
    # refinement of every type
    failures = 0
    for label, types, d in _thinned_collections():
        result = check_surrounding(types, d)
        assert result == surrounding_oracle(types, d), label
        failures += not result
    assert 100 <= failures < 300, failures


def test_check_local_refinement(e1, e2):
    assert check_local_refinement(enumerate_types(e1))
    res = check_local_refinement(enumerate_types(e2))
    assert not res
    Tfail, i, k = res.counterexample
    assert Tfail == T({1, 2}, {1, 2}) and i == 1 and k == 1
    # the degenerate apex's own singleton replacements are unrealizable
    types2 = enumerate_types(e2)
    assert T({1}, {1, 2, 3}) not in types2
    assert T({2}, {1, 2, 3}) not in types2
    # vacuous on all-singleton collections
    assert check_local_refinement({T({1}, {2}), T({2}, {1})})


def test_is_tropical_oriented_matroid_empty_and_e2(e2):
    report = is_tropical_oriented_matroid(set(), 2, 2)
    assert not report.boundary and not report.is_tom

    report = is_tropical_oriented_matroid(enumerate_types(e2), 2, 3)
    assert not report.local_refinement
    assert report.boundary and report.elimination and report.comparability


#: Collections that do not fit (n, d) = (3, 2), each with the refusal it meets.
UNFIT = [
    ([T({1}, {2}), T({1}, {1}), T({2}, {2})], "^collection has types of length 2, not n=3$"),
    ([T({1}, {2}, {3}), T({1}, {1}, {1})], "^collection has labels beyond d=2$"),
    ([T({1}, {2}, {2}), T({1}, {1})], "^collection mixes types of different lengths$"),
]


def test_checks_reject_mixed_length_collections():
    with pytest.raises(ValueError):
        check_elimination({T({1}), T({1}, {2})})
    with pytest.raises(ValueError):
        check_surrounding({T({1}), T({1}, {2})}, 2)
    with pytest.raises(ValueError):
        check_surrounding({T({1, 3})}, 2)
    with pytest.raises(ValueError):
        check_comparability({T({1, 3})}, 2)
    for types, refusal in UNFIT:
        with pytest.raises(ValueError, match=refusal):
            check_boundary(types, 3, 2)


def test_generic_arrangements_are_tropical_oriented_matroids():
    rng = random.Random(97)
    for _ in range(8):
        n, d = rng.choice([(2, 2), (2, 3), (3, 2), (3, 3)])
        arr = random_generic_arrangement(rng, n, d)
        types = enumerate_types(arr)
        report = is_tropical_oriented_matroid(types, n, d)
        assert report.is_tom
        assert report.local_refinement


def test_the_verdict_sorts_its_collection_once(monkeypatch):
    # one table for every check, ordered by its entries' ranks, not by key()
    types = enumerate_types(random_generic_arrangement(random.Random(43), 4, 3))
    tables, calls = [], []
    init, key = troparr.axioms._Table.__init__, TypeVector.key
    monkeypatch.setattr(
        troparr.axioms._Table, "__init__", lambda self, ts, *nd: tables.append((ts, nd)) or init(self, ts, *nd)
    )
    monkeypatch.setattr(TypeVector, "key", lambda t: calls.append(t) or key(t))
    assert is_tropical_oriented_matroid(types, 4, 3).is_tom
    assert tables == [(types, (4, 3))] and len(types) == 49 and not calls


@pytest.mark.parametrize("types, refusal", UNFIT)
def test_the_verdict_refuses_a_collection_that_does_not_fit_before_any_check(monkeypatch, types, refusal):
    ran = []
    for name in ["check_boundary", "check_elimination", "check_comparability", "check_surrounding",
                 "check_local_refinement"]:
        check = getattr(troparr.axioms, name)
        monkeypatch.setattr(troparr.axioms, name, lambda *args, name=name, check=check: ran.append(name) or check(*args))
    with pytest.raises(ValueError, match=refusal):
        is_tropical_oriented_matroid(types, 3, 2)
    assert ran == []
    # the recorder lets a collection that fits through every check
    is_tropical_oriented_matroid([T({1}, {1}, {1}), T({2}, {2}, {2})], 3, 2)
    assert sorted(ran) == ["check_boundary", "check_comparability", "check_elimination", "check_local_refinement",
                           "check_surrounding"]


def test_an_unfit_collection_past_the_surrounding_cap_is_refused_as_unfit(monkeypatch):
    # fit is decided before the cap is counted
    monkeypatch.setattr(troparr.axioms, "MAX_SURROUNDING_WORK", 0)
    with pytest.raises(ValueError, match="^collection has labels beyond d=2$"):
        is_tropical_oriented_matroid([T({1}, {3})], 2, 2)
    with pytest.raises(ResourceLimitError, match="^surrounding: 1 types x 2 two-block refinements of d=2 "):
        is_tropical_oriented_matroid([T({1}, {2})], 2, 2)


#: The large shapes, with the one kind whose full collection is checked there.
FULL_LARGE = {(4, 4): "apex", (2, 5): "generic"}

#: Per d, the n of the generic (n, d) whose full collection seeds the
#: synthetic ones: 49, 161, 209 and 129 types.
SYNTHETIC_FULL = {2: 24, 3: 8, 4: 4, 5: 2}


def _synthetic_collections(rng: random.Random):
    """Random type sets of 40-300 types at d = 2..6, and full collections
    of generic arrangements less one type or plus one random type.  A
    full collection passes, so the first counterexample involves the
    added type; of the random ones, the three that sort last are added,
    so at (8,3) and (4,4) that counterexample lies past the first 128
    partners."""
    for d in range(2, 7):
        draw = lambda length: T(*[rng.sample(range(1, d + 1), rng.randint(1, d)) for _ in range(length)])
        yield f"synthetic random d={d}", {draw({2: 5, 3: 3}.get(d, 2)) for _ in range(rng.randint(40, 300))}, d
        if d not in SYNTHETIC_FULL:
            continue
        n = SYNTHETIC_FULL[d]
        full = sorted(enumerate_types(random_generic_arrangement(rng, n, d)), key=lambda t: t.key())
        drop = rng.randrange(len(full))
        yield f"synthetic less one d={d}", full[:drop] + full[drop + 1:], d
        extras = [t for t in (draw(n) for _ in range(40)) if t not in full]
        for extra in sorted(extras, key=lambda t: t.key())[-3:]:
            yield f"synthetic plus {extra.text()}", full + [extra], d


def _nested(d: int, count: int) -> list[TypeVector]:
    """The ``count`` types (E, F), E a subset of F, of largest |E| + |F|:
    every union of two of them (entrywise) has a larger total or is one
    of them, so the set is closed under unions and passes elimination."""
    sets = [frozenset(c) for size in range(1, d + 1) for c in combinations(range(1, d + 1), size)]
    pairs = sorted(((E, F) for F in sets for E in sets if E <= F),
                   key=lambda p: (-len(p[0]) - len(p[1]), sorted(p[0]), sorted(p[1])))
    return [TypeVector(p) for p in pairs[:count]]


def _field_width_collections(rng: random.Random):
    """Collections at the edges of the kernels' byte fields.  Elimination
    gives each partner T + 1 bits, in T // 8 + 1 bytes: at T = 8k - 1 the
    guard bit is the field's last bit, at 8k and 8k + 1 it opens a byte.
    At T = 127, 128 and 129 (k = 16, also the edge of a 128-row tile) and
    at 15, 16, 17, a union-closed set passes; two types that sort early,
    with no witness at position 2, fail in the first tile; one type that
    sorts last fails against every type whose F lacks d, in the last
    tile.  Comparability gives 3d^2 bits, 108 at d = 6 and 147 at d = 7:
    130 types of a generic (2, d) arrangement pass, and a type ({k}, {j})
    against a kept (E, F) with j in E, k in F closes the cycle
    j -> k -> j; with k = 1 (j least) it fails in the first tile, with
    k = d (j greatest) it sorts last and fails in the last tile."""
    d = 5
    for count in (15, 16, 17, 127, 128, 129):
        yield f"nested {count}", _nested(d, count), d
        yield f"nested {count} failing first", _nested(d, count - 2) + [T({1}, {2}), T({1, 2}, {3})], d
        yield f"nested {count} failing last", _nested(d, count - 1) + [T({d}, {d - 1})], d
    for d in (6, 7):
        kept = rng.sample(sorted(enumerate_types(random_generic_arrangement(rng, 2, d)), key=lambda t: t.key()), 130)
        cycles = [(k, j) for E, F in (t.entries for t in kept) for j in E for k in F if j != k]
        first = min((k, j) for k, j in cycles if k == 1)
        last = max((k, j) for k, j in cycles if k == d)
        yield f"generic 2x{d} 130 of", kept, d
        for name, (k, j) in (("first", first), ("last", last)):
            yield f"generic 2x{d} 130 of plus {name}", kept + [T({k}, {j})], d


def _oracle_collections():
    """Full and thinned type collections of generic, integer and on-apex
    arrangements, random type sets, synthetic ones, ones at the edges of
    the kernels' byte fields, and hand-built failing sets."""
    rng = random.Random(4242)
    shapes = [(2, 3), (3, 3), (4, 3), (5, 3), (2, 4), (3, 4), (4, 4), (2, 5)]
    for n, d in shapes:
        integer = Arrangement.from_rows([[rng.randint(-2, 2) for _ in range(d)] for _ in range(n)])
        draws = {
            "generic": random_generic_arrangement(rng, n, d),
            "integer": integer,
            "apex": nongeneric_on_apex(rng, n, d)[0],
        }
        for kind, arr in draws.items():
            types = sorted(enumerate_types(arr), key=lambda t: t.key())
            # the direct elimination scan is cubic: less of it at the large shapes
            large = (n, d) in FULL_LARGE
            if not large or FULL_LARGE[n, d] == kind:
                yield f"{kind} {n}x{d}", types, d
            for keep in (0.8,) if large else (0.97, 0.8):
                yield f"{kind} {n}x{d} {keep}", [t for t in types if rng.random() < keep], d
    for i in range(20):
        n, d = rng.choice([(2, 3), (3, 3), (3, 4)])
        yield f"random {i}", {
            T(*[rng.sample(range(1, d + 1), rng.randint(1, 2)) for _ in range(n)]) for _ in range(8)
        }, d
    yield from _synthetic_collections(rng)
    yield from _field_width_collections(rng)
    yield "empty", set(), 3
    yield "separated", {T({1}, {1}), T({2}, {2})}, 2
    yield "two-cycle", {T({1}, {2}), T({2}, {1})}, 2
    yield "semidirected cycle", {T({1}, {2, 3}, {3, 1}), T({2}, {2, 3}, {3, 1})}, 3
    # cycles that only the closure finds, away from label 1
    yield "directed three-cycle", {T({2}, {3}, {4}), T({3}, {4}, {2})}, 4
    yield "semidirected cycle on 2, 3, 4", {T({2}, {3, 4}, {4, 2}), T({3}, {3, 4}, {4, 2})}, 4
    yield "missing refinement", {T({1, 2}, {1}), T({1}, {1})}, 2


@cache
def _collections_with_pairwise_verdicts():
    return [(label, types, d, pairwise_elimination_oracle(types), pairwise_comparability_oracle(types, d))
            for label, types, d in _oracle_collections()]


def test_kernels_match_direct_scans():
    failures = {"elimination": 0, "comparability": 0, "surrounding": 0}
    late = {"elimination": 0, "comparability": 0}  # first counterexamples past the first tile
    for label, types, d, elimination, comparability in _collections_with_pairwise_verdicts():
        index = {t: i for i, t in enumerate(sorted(types, key=lambda t: t.key()))}
        for name, kernel, oracles in [
            ("elimination", check_elimination(types), (elimination, elimination_oracle(types))),
            ("comparability", check_comparability(types, d), (comparability, comparability_oracle(types, d))),
            ("surrounding", check_surrounding(types, d), (surrounding_oracle(types, d),)),
        ]:
            assert all(kernel == oracle for oracle in oracles), (label, name)
            failures[name] += not kernel.passed
            if name in late and not kernel.passed:
                late[name] += index[kernel.counterexample[1]] >= troparr.axioms.BLOCK
    # the collections exercise both verdicts of every check
    assert all(count >= 5 for count in failures.values()), failures
    assert all(count >= 2 for count in late.values()), late


def test_the_verdict_matches_the_public_checks():
    # one table handed to every check gives each public check's own result
    for label, types, d in _oracle_collections():
        assert troparr.axioms._Table(types).types == sorted(types, key=TypeVector.key), label
        n = next(iter(types)).n if types else 2
        report = is_tropical_oriented_matroid(types, n, d)
        assert (report.boundary, report.elimination, report.comparability, report.surrounding,
                report.local_refinement) == (
            check_boundary(types, n, d), check_elimination(types), check_comparability(types, d),
            check_surrounding(types, d), check_local_refinement(types)), label


@pytest.mark.parametrize("block", [1, 2, 3])
def test_kernels_match_pairwise_scans_across_tile_edges(monkeypatch, block):
    monkeypatch.setattr(troparr.axioms, "BLOCK", block)
    for label, types, d, elimination, comparability in _collections_with_pairwise_verdicts():
        assert check_elimination(types) == elimination, label
        assert check_comparability(types, d) == comparability, label
