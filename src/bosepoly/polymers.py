"""Polymers (connected edge-sets) and clusters (multisets of polymers).

A polymer is a set of distinct interaction edges whose edge-overlap graph
(edges as vertices, adjacency = shared site) is connected.  Two polymers
are incompatible when their site supports overlap; every polymer is
incompatible with itself.  A cluster is a multiset of polymers whose
incompatibility graph is connected, with total size sum(mult * |polymer|).

Enumeration is exact-once and deterministic: connected subsets are grown
from their minimal element with include/exclude branching, then emitted in
canonical (size-then-lexicographic) order.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "Polymer",
    "Cluster",
    "incompatible",
    "enumerate_polymers",
    "enumerate_clusters",
    "copy_incompatibility_graph",
    "site_components",
]


def site_components(site_sets) -> list[list[int]]:
    """Indices of the given site sets, grouped into the connected components
    of their overlap graph (two sets are adjacent when they share a site)."""
    groups: list[tuple[set, list]] = []
    for index, sites in enumerate(site_sets):
        merged, members = set(sites), [index]
        for group in [g for g in groups if not g[0].isdisjoint(merged)]:
            groups.remove(group)
            merged |= group[0]
            members += group[1]
        groups.append((merged, members))
    return [members for _sites, members in groups]


@dataclass(frozen=True)
class Polymer:
    """A connected set of interaction edges."""

    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        edges = tuple(sorted(tuple(sorted(e)) for e in self.edges))
        if len(set(edges)) != len(edges):
            raise ValueError("polymer edges must be distinct")
        if len(site_components(edges)) != 1:
            raise ValueError(f"edge set {edges} is not connected")
        object.__setattr__(self, "edges", edges)

    @property
    def size(self) -> int:
        return len(self.edges)

    @property
    def support(self) -> frozenset:
        return frozenset(s for e in self.edges for s in e)

    @property
    def key(self):
        """Canonical sort key: size first, then the sorted edge tuple."""
        return (len(self.edges), self.edges)


def incompatible(a: Polymer, b: Polymer) -> bool:
    """True when the site supports overlap (every polymer clashes with itself)."""
    return not a.support.isdisjoint(b.support)


def _connected_subsets(n: int, adjacency, max_weight: int, weight):
    """All connected vertex subsets of a graph, each exactly once.

    ``adjacency[v]`` is a set of neighbor indices; subsets are grown only
    from their minimal element, with candidates processed in increasing
    order so each subset has a unique include/exclude path.  Subsets whose
    summed ``weight`` would exceed ``max_weight`` are pruned from the
    include branch only.
    """
    results = []

    def rec(included: tuple, inc_weight: int, frontier: frozenset, excluded: frozenset, root: int):
        candidates = sorted(v for v in frontier if v > root and v not in excluded)
        for pos, v in enumerate(candidates):
            if inc_weight + weight(v) <= max_weight:
                new_inc = included + (v,)
                results.append(new_inc)
                rec(
                    new_inc,
                    inc_weight + weight(v),
                    (frontier | adjacency[v]) - set(new_inc),
                    excluded | set(candidates[:pos]),
                    root,
                )

    for root in range(n):
        if weight(root) <= max_weight:
            results.append((root,))
            rec((root,), weight(root), frozenset(adjacency[root]), frozenset(), root)
    return results


def enumerate_polymers(edge_alphabet, max_size: int, anchor: int | None = None) -> list[Polymer]:
    """All connected edge-sets of size <= max_size, in canonical order.

    With ``anchor`` set, only polymers whose support contains the anchor
    site are returned (same canonical order).
    """
    if max_size < 1:
        raise ValueError("max_size must be >= 1")
    edges = sorted(set(tuple(sorted(e)) for e in edge_alphabet))
    if any(e[0] == e[1] for e in edges):
        raise ValueError("self-loop edges are not allowed")

    # line-graph adjacency: edges are adjacent when they share a site
    adjacency = []
    for k, e in enumerate(edges):
        a = set(e)
        adjacency.append({m for m, f in enumerate(edges) if m != k and (f[0] in a or f[1] in a)})

    subsets = _connected_subsets(len(edges), adjacency, max_size, lambda _v: 1)
    polymers = [Polymer(tuple(edges[k] for k in subset)) for subset in subsets]
    if anchor is not None:
        polymers = [p for p in polymers if anchor in p.support]
    return sorted(polymers, key=lambda p: p.key)


@dataclass(frozen=True)
class Cluster:
    """A multiset of polymers with a connected incompatibility graph."""

    members: tuple[tuple[Polymer, int], ...]

    def __post_init__(self):
        members = tuple(sorted(self.members, key=lambda pm: pm[0].key))
        if not members:
            raise ValueError("cluster must contain at least one polymer")
        if any(mult < 1 for _p, mult in members):
            raise ValueError("multiplicities must be >= 1")
        distinct = [p for p, _m in members]
        if len(set(distinct)) != len(distinct):
            raise ValueError("cluster members must be distinct polymers")
        if len(site_components(p.support for p in distinct)) != 1:
            raise ValueError("cluster incompatibility graph is not connected")
        object.__setattr__(self, "members", members)

    @property
    def total_size(self) -> int:
        return sum(mult * p.size for p, mult in self.members)

    @property
    def n_copies(self) -> int:
        return sum(mult for _p, mult in self.members)

    @property
    def key(self):
        return (self.total_size, tuple((p.key, mult) for p, mult in self.members))


def enumerate_clusters(polymers, max_total: int) -> list[Cluster]:
    """All clusters with total size <= max_total, each exactly once.

    Connectivity depends only on the distinct member set (copies of one
    polymer always clash), so connected distinct sets are enumerated first
    and multiplicity vectors are filled in afterwards.
    """
    if max_total < 1:
        raise ValueError("max_total must be >= 1")
    polymers = sorted(set(polymers), key=lambda p: p.key)
    supports = [p.support for p in polymers]
    adjacency = []
    for k in range(len(polymers)):
        adjacency.append(
            {m for m in range(len(polymers)) if m != k and not supports[k].isdisjoint(supports[m])}
        )

    base_sets = _connected_subsets(
        len(polymers), adjacency, max_total, lambda v: polymers[v].size
    )

    clusters = []
    for subset in base_sets:
        sizes = [polymers[k].size for k in subset]
        base = sum(sizes)

        def assign(pos: int, used: int, mults: tuple):
            if pos == len(subset):
                clusters.append(
                    Cluster(tuple((polymers[k], m) for k, m in zip(subset, mults)))
                )
                return
            # remaining members need at least one copy each
            reserve = sum(sizes[pos + 1 :])
            mult = 1
            while used + mult * sizes[pos] + reserve <= max_total:
                assign(pos + 1, used + mult * sizes[pos], mults + (mult,))
                mult += 1

        assign(0, 0, ())
    return sorted(clusters, key=lambda c: c.key)


def copy_incompatibility_graph(cluster: Cluster):
    """Incompatibility graph with one vertex per polymer copy.

    Copies of the same polymer are pairwise incompatible (the relation is
    irreflexive), so each multiplicity group forms a clique; copies of
    distinct polymers are joined exactly when the supports overlap.  This
    is the graph whose Ursell value multiplies prod(w^mult / mult!).
    """
    groups = []
    start = 0
    for p, mult in cluster.members:
        groups.append((p, range(start, start + mult)))
        start += mult
    edges = []
    for gi, (pa, ra) in enumerate(groups):
        for u in ra:
            for v in ra:
                if u < v:
                    edges.append((u, v))
        for pb, rb in groups[gi + 1 :]:
            if incompatible(pa, pb):
                for u in ra:
                    for v in rb:
                        edges.append((u, v))
    return start, tuple(sorted(edges))
