"""Polymers: connected sets of interaction edges.

A polymer is a set of distinct interaction edges whose edge-overlap graph
(edges as vertices, adjacency = shared site) is connected.  Two polymers
are compatible when their site supports are disjoint, and an edge set
splits into site-connected components, each of them a polymer.

Enumeration is exact-once and deterministic: connected subsets are grown
from their minimal element with include/exclude branching, then emitted in
canonical (size-then-lexicographic) order, at most ``MAX_POLYMERS``.
``Polymer.subsets`` splits every edge subset into components once; the
weights and the expansion's sums all read that one decomposition.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

__all__ = [
    "MAX_POLYMERS",
    "Polymer",
    "PolymerCountError",
    "components",
    "enumerate_polymers",
    "site_components",
]

# Above every count reached so far: 2,193 polymers on a 6x6 square at m=4
# and 31,480 on a 16-site all-pairs chain at m=3.
MAX_POLYMERS = 50_000


class PolymerCountError(RuntimeError):
    """An edge alphabet yields more than ``MAX_POLYMERS`` polymers."""

    def __init__(self, required: int):
        super().__init__(f"at least {required} polymers exceed the cap {MAX_POLYMERS}")
        self.required, self.allowed = required, MAX_POLYMERS


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

    @cached_property
    def subsets(self) -> tuple[tuple[int, tuple[Polymer, ...]], ...]:
        """``(size, components(subset))`` of every edge subset, by ascending
        size and each size in ``combinations`` order; computed once."""
        return tuple((size, components(subset)) for size in range(self.size + 1)
                     for subset in combinations(self.edges, size))


def components(edges) -> tuple[Polymer, ...]:
    """Site-connected components of an edge tuple, in canonical order."""
    return tuple(sorted(
        (Polymer(tuple(edges[k] for k in group)) for group in site_components(edges)),
        key=lambda p: p.key,
    ))


def _connected_subsets(n: int, adjacency, max_size: int):
    """All connected vertex subsets of a graph with at most max_size
    vertices, each exactly once.

    ``adjacency[v]`` is a set of neighbor indices; subsets are grown only
    from their minimal element, with candidates processed in increasing
    order so each subset has a unique include/exclude path.
    """
    results = []

    def rec(included: tuple, frontier: frozenset, excluded: frozenset, root: int):
        if len(results) > MAX_POLYMERS:
            raise PolymerCountError(len(results))
        if len(included) == max_size:
            return
        candidates = sorted(v for v in frontier if v > root and v not in excluded)
        for pos, v in enumerate(candidates):
            new_inc = included + (v,)
            results.append(new_inc)
            rec(
                new_inc,
                (frontier | adjacency[v]) - set(new_inc),
                excluded | set(candidates[:pos]),
                root,
            )

    for root in range(n):
        results.append((root,))
        rec((root,), frozenset(adjacency[root]), frozenset(), root)
    return results


def enumerate_polymers(edge_alphabet, max_size: int) -> list[Polymer]:
    """All connected edge-sets of size <= max_size, in canonical order."""
    if max_size < 1:
        raise ValueError("max_size must be >= 1")
    edges = sorted(set(tuple(sorted(e)) for e in edge_alphabet))
    if any(e[0] == e[1] for e in edges):
        raise ValueError("self-loop edges are not allowed")

    incident = defaultdict(set)
    for k, (a, b) in enumerate(edges):
        incident[a].add(k)
        incident[b].add(k)
    # polymers of size <= 2, exactly: two distinct edges share at most one site
    pairs = sum(math.comb(len(ks), 2) for ks in incident.values()) if max_size > 1 else 0
    if len(edges) + pairs > MAX_POLYMERS:
        raise PolymerCountError(len(edges) + pairs)

    # line-graph adjacency: edges are adjacent when they share a site
    adjacency = [(incident[a] | incident[b]) - {k} for k, (a, b) in enumerate(edges)]

    subsets = _connected_subsets(len(edges), adjacency, max_size)
    polymers = [Polymer(tuple(edges[k] for k in subset)) for subset in subsets]
    return sorted(polymers, key=lambda p: p.key)
