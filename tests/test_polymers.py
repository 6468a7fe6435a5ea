import itertools
import tracemalloc

import pytest

import bosepoly.polymers
from bosepoly.lattice import ResourceCapError, build_couplings, build_lattice, interaction_edges
from bosepoly.polymers import _line_graph, _split, check_polymer_caps, enumerate_polymers
from ursell_reference import (
    Cluster,
    Polymer,
    copy_incompatibility_graph,
    enumerate_clusters,
    incompatible,
)

CHAIN3 = ((0, 1), (1, 2))
TRIANGLE = ((0, 1), (1, 2), (0, 2))
K4 = tuple((i, j) for i in range(4) for j in range(i + 1, 4))
MIXED = ((0, 1), (0, 2), (0, 5), (1, 2), (2, 3), (3, 4), (4, 5), (6, 7))
ALL_PAIRS6 = tuple(itertools.combinations(range(6), 2))


# --- brute-force oracles -----------------------------------------------------


def edge_sets_connected(edges):
    """Independent connectivity check on the edge-overlap graph."""
    edges = list(edges)
    if not edges:
        return False
    reached = {0}
    changed = True
    while changed:
        changed = False
        for k, e in enumerate(edges):
            if k in reached:
                continue
            if any(set(e) & set(edges[r]) for r in reached):
                reached.add(k)
                changed = True
    return len(reached) == len(edges)


def brute_components(subset):
    """The maximal connected parts of an edge subset, by size, then lowest
    edge.  Largest first, a connected part that meets no part found so far
    is a whole component: a larger one would have been found before it."""
    parts = []
    for size in range(len(subset), 0, -1):
        for part in itertools.combinations(subset, size):
            if edge_sets_connected(part) and not any(set(part) & set(p) for p in parts):
                parts.append(part)
    return tuple(sorted(parts, key=lambda p: (len(p), p)))


def brute_polymers(alphabet, max_size):
    found = []
    for size in range(1, max_size + 1):
        for subset in itertools.combinations(sorted(alphabet), size):
            if edge_sets_connected(subset):
                found.append(frozenset(subset))
    return set(found)


def brute_clusters(polymers, max_total):
    """All multisets over the polymer list with connected incompatibility
    graph and total size <= max_total."""
    found = set()

    def overlap(a, b):
        return bool(a.support & b.support)

    def connected(distinct):
        reached = {0}
        changed = True
        while changed:
            changed = False
            for k in range(len(distinct)):
                if k in reached:
                    continue
                if any(overlap(distinct[k], distinct[r]) for r in reached):
                    reached.add(k)
                    changed = True
        return len(reached) == len(distinct)

    indexed = list(enumerate(polymers))
    for r in range(1, max_total + 1):
        for combo in itertools.combinations(indexed, r):
            base = sum(p.size for _i, p in combo)
            if base > max_total:
                continue
            max_mult = max_total
            ranges = [range(1, max_mult + 1) for _ in combo]
            for mults in itertools.product(*ranges):
                total = sum(m * p.size for m, (_i, p) in zip(mults, combo))
                if total > max_total:
                    continue
                if connected([p for _i, p in combo]):
                    found.add(tuple(sorted((p.key, m) for m, (_i, p) in zip(mults, combo))))
    return found


# --- polymers ----------------------------------------------------------------


def test_polymer_rejects_disconnected_and_duplicates():
    with pytest.raises(ValueError):
        Polymer(((0, 1), (2, 3)))
    with pytest.raises(ValueError):
        Polymer(((0, 1), (1, 0)))


def test_incompatibility():
    a = Polymer(((0, 1),))
    b = Polymer(((2, 3),))
    c = Polymer(((1, 2),))
    assert not incompatible(a, b)
    assert incompatible(a, c)
    assert incompatible(a, a)  # every polymer clashes with itself


def test_enumerate_chain3():
    polymers = enumerate_polymers(CHAIN3, 2)
    assert polymers == [
        ((0, 1),),
        ((1, 2),),
        ((0, 1), (1, 2)),
    ]


def test_enumerate_triangle_size2():
    polymers = enumerate_polymers(TRIANGLE, 2)
    assert len(polymers) == 6  # 3 singletons + 3 pairs (all edges pairwise touch)


def test_enumerate_size1_is_one_per_edge():
    for alphabet in (CHAIN3, TRIANGLE, K4):
        polymers = enumerate_polymers(alphabet, 1)
        assert {p[0] for p in polymers} == set(alphabet)


@pytest.mark.parametrize(
    "alphabet",
    [
        CHAIN3,
        TRIANGLE,
        K4,
        ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5)),
        ((0, 1), (2, 3), (4, 5)),
        ((0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (5, 6)),
    ],
)
@pytest.mark.parametrize("max_size", [1, 2, 3, 6])
def test_enumeration_matches_brute_force(alphabet, max_size):
    got = {frozenset(p) for p in enumerate_polymers(alphabet, max_size)}
    assert got == brute_polymers(alphabet, max_size)


def test_emission_order_is_canonical_and_duplicate_free():
    polymers = enumerate_polymers(K4, 4)
    keys = [(len(p), p) for p in polymers]
    assert keys == sorted(keys)
    assert len(keys) == len(set(keys))


def test_dense_alphabet_matches_brute_force_in_canonical_order():
    # the open 3x3 alpha=3 square couples all 36 site pairs, so most polymers
    # are reached by many growth paths and must still come out once each
    square = build_couplings(build_lattice([3, 3]), "long_range", g=0.1, alpha=3.0)
    alphabet = interaction_edges(square, 0.0)
    polymers = enumerate_polymers(alphabet, 4)
    keys = [(len(p), p) for p in polymers]
    assert len(alphabet) == 36 and len(polymers) == 20_028
    assert {frozenset(p) for p in polymers} == brute_polymers(alphabet, 4)
    assert all(a < b for a, b in zip(keys, keys[1:]))


def test_enumeration_returns_sorted_edge_tuples_within_a_memory_bound():
    # the returned tuples and one size's dict of masks at a time (5.3 MiB
    # measured); no per-polymer object beside each tuple
    square = build_couplings(build_lattice([6, 6]), "finite_range", g=0.1, d_c=1)
    alphabet = interaction_edges(square, 0.0)
    tracemalloc.start()
    try:
        polymers = enumerate_polymers(alphabet, 6)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(polymers) == 27_241
    assert all(type(p) is tuple and list(p) == sorted(set(p))
               and all(type(e) is tuple and len(e) == 2 and e[0] < e[1] for e in p)
               for p in polymers)
    assert peak < 10 * 2**20


def split(polymer, subset):
    """``_split`` of an edge subset of a polymer, as sorted edge tuples."""
    mask = sum(1 << polymer.index(e) for e in subset)
    return tuple(tuple(e for j, e in enumerate(polymer) if part >> j & 1)
                 for part in _split(_line_graph(polymer), mask))


def test_components_split_an_edge_set_in_canonical_order():
    # the path 0-1-2-3-4-5; (1, 2) bridges (0, 1) and (2, 3)
    polymer = ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5))
    assert split(polymer, ()) == ()
    assert split(polymer, ((0, 1), (1, 2), (2, 3), (4, 5))) == (((4, 5),),
                                                                ((0, 1), (1, 2), (2, 3)))
    assert split(polymer, ((0, 1), (2, 3), (4, 5))) == (((0, 1),), ((2, 3),), ((4, 5),))


def test_split_finds_the_components_of_every_one_edge_deletion():
    for alphabet, max_size in ((K4, len(K4)), (MIXED, len(MIXED)), (ALL_PAIRS6, 4)):
        for polymer in enumerate_polymers(alphabet, max_size):
            for e in polymer:
                rest = tuple(f for f in polymer if f != e)
                assert split(polymer, rest) == brute_components(rest), (polymer, e)


@pytest.mark.parametrize("alphabet", [K4, tuple(itertools.combinations(range(8), 2)), MIXED])
def test_polymer_cap_counts_sizes_up_to_two_exactly(alphabet, monkeypatch):
    # |E| + sum over sites of C(deg, 2): two distinct edges share at most one site
    count = len(enumerate_polymers(alphabet, 2))
    monkeypatch.setattr(bosepoly.polymers, "MAX_POLYMERS", count)
    assert len(enumerate_polymers(alphabet, 2)) == count
    monkeypatch.setattr(bosepoly.polymers, "MAX_POLYMERS", count - 1)
    with pytest.raises(ResourceCapError) as info:
        enumerate_polymers(alphabet, 3)
    assert (info.value.required, info.value.allowed) == (count, count - 1)


def test_polymer_cap_stops_the_enumeration(monkeypatch):
    total = len(enumerate_polymers(K4, 4))
    small = len(enumerate_polymers(K4, 2))
    monkeypatch.setattr(bosepoly.polymers, "MAX_POLYMERS", small)
    with pytest.raises(ResourceCapError) as info:
        enumerate_polymers(K4, 4)
    assert small < total
    assert (info.value.required, info.value.allowed) == (small + 1, small)


# --- clusters (test-only Ursell reference) ---------------------------------------


def test_clusters_chain3_m2():
    polymers = [Polymer(p) for p in enumerate_polymers(CHAIN3, 1)]
    clusters = enumerate_clusters(polymers, 2)
    a = Polymer(((0, 1),))
    b = Polymer(((1, 2),))
    expected = {
        ((a, 1),),
        ((b, 1),),
        ((a, 2),),
        ((b, 2),),
        ((a, 1), (b, 1)),
    }
    assert {c.members for c in clusters} == expected


def test_disjoint_polymers_never_mix():
    a = Polymer(((0, 1),))
    b = Polymer(((2, 3),))
    clusters = enumerate_clusters([a, b], 2)
    assert all(len(c.members) == 1 for c in clusters)


def test_single_polymer_any_multiplicity_is_a_cluster():
    g = Polymer(((0, 1), (1, 2)))
    clusters = enumerate_clusters([g], 6)
    assert {c.members for c in clusters} == {((g, 1),), ((g, 2),), ((g, 3),)}


@pytest.mark.parametrize("alphabet", [CHAIN3, TRIANGLE, ((0, 1), (2, 3))])
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_cluster_enumeration_matches_brute_force(alphabet, m):
    polymers = [Polymer(p) for p in enumerate_polymers(alphabet, m)]
    got = {tuple((p.key, mult) for p, mult in c.members) for c in enumerate_clusters(polymers, m)}
    assert got == brute_clusters(polymers, m)


def test_cluster_emission_canonical():
    polymers = [Polymer(p) for p in enumerate_polymers(TRIANGLE, 2)]
    clusters = enumerate_clusters(polymers, 4)
    keys = [c.key for c in clusters]
    assert keys == sorted(keys)
    assert len(keys) == len(set(keys))


def test_cluster_validation():
    a = Polymer(((0, 1),))
    b = Polymer(((2, 3),))
    with pytest.raises(ValueError):
        Cluster(((a, 1), (b, 1)))  # compatible pair: graph disconnected
    with pytest.raises(ValueError):
        Cluster(((a, 0),))
    with pytest.raises(ValueError):
        Cluster(())


# --- incompatibility graphs --------------------------------------------------


def test_copy_graph_expands_multiplicities():
    a = Polymer(((0, 1),))
    b = Polymer(((1, 2),))

    # single polymer with multiplicity mu: complete graph on mu copies
    for mu in (1, 2, 3, 4):
        n, edges = copy_incompatibility_graph(Cluster(((a, mu),)))
        assert n == mu
        assert len(edges) == mu * (mu - 1) // 2

    # overlapping pair with multiplicities (2, 1): K3 on the copies
    n, edges = copy_incompatibility_graph(Cluster(((a, 2), (b, 1))))
    assert n == 3 and len(edges) == 3


def test_enumeration_matches_brute_force_random_alphabets():
    import random

    rng = random.Random(987)
    for trial in range(15):
        n_sites = rng.randint(3, 7)
        pairs = [(i, j) for i in range(n_sites) for j in range(i + 1, n_sites)]
        alphabet = tuple(sorted(rng.sample(pairs, k=min(6, rng.randint(2, len(pairs))))))
        m = rng.randint(1, 4)
        got = {frozenset(p) for p in enumerate_polymers(alphabet, m)}
        assert got == brute_polymers(alphabet, m), (alphabet, m)
        polymers = [Polymer(p) for p in enumerate_polymers(alphabet, m)]
        got_clusters = {
            tuple((p.key, mult) for p, mult in c.members)
            for c in enumerate_clusters(polymers, m)
        }
        assert got_clusters == brute_clusters(polymers, m), (alphabet, m)


@pytest.mark.parametrize("call,message", [
    (lambda: check_polymer_caps([1, 1], 0), "max_size must be >= 1"),
    (lambda: enumerate_polymers([(0, 1), (1, 1)], 2), "self-loop edges are not allowed"),
], ids=["size-below-one", "self-loop"])
def test_polymer_refusals(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()
