"""Polymers: connected sets of interaction edges.

A polymer is a set of distinct interaction edges whose edge-overlap graph
(edges as vertices, adjacency = shared site) is connected.  Two polymers
are compatible when their site supports are disjoint, and an edge set
splits into site-connected components, each of them a polymer.

Enumeration is exact-once and deterministic: connected subsets are grown
from their minimal element with include/exclude branching, then emitted in
canonical (size-then-lexicographic) order, at most ``MAX_POLYMERS`` of at
most ``MAX_ORDER`` edges.  ``subset_components`` splits each edge subset of
a polymer into components, which depend only on the polymer's line graph
(which of its sorted edges share a site).  So the split runs once per line
graph, on bitmasks over its edges, for every polymer of that shape.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

__all__ = [
    "MAX_ORDER",
    "MAX_POLYMERS",
    "OrderCapError",
    "Polymer",
    "PolymerCountError",
    "check_polymer_caps",
    "enumerate_polymers",
    "subset_components",
]

# Above every count reached so far: 2,193 polymers on a 6x6 square at m=4
# and 31,480 on a 16-site all-pairs chain at m=3.
MAX_POLYMERS = 50_000

# Above every truncation order run so far (11).  A polymer of 16 edges has
# 65,536 edge subsets, and the expansion's log series is quadratic in m.
MAX_ORDER = 16


class PolymerCountError(RuntimeError):
    """An edge alphabet yields more than ``MAX_POLYMERS`` polymers."""

    def __init__(self, required: int):
        super().__init__(f"at least {required} polymers exceed the cap {MAX_POLYMERS}")
        self.required, self.allowed = required, MAX_POLYMERS


class OrderCapError(RuntimeError):
    """Polymers of more than ``MAX_ORDER`` edges were asked for."""

    def __init__(self, required: int):
        super().__init__(f"truncation order {required} exceeds the cap {MAX_ORDER}")
        self.required, self.allowed = required, MAX_ORDER


def _line_graph(edges) -> tuple[int, ...]:
    """Bit j of entry k is set when edges k != j share a site."""
    return tuple(sum(1 << j for j, f in enumerate(edges) if j != k and (a in f or b in f))
                 for k, (a, b) in enumerate(edges))


def _split(line_graph, mask: int) -> tuple[int, ...]:
    """Components of the edge subset ``mask`` as bitmasks, by size, then by
    lowest edge: they are found lowest edge first, and sorted stably."""
    parts = []
    while mask:
        part = frontier = mask & -mask
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            grown = line_graph[low.bit_length() - 1] & mask & ~part
            part |= grown
            frontier |= grown
        parts.append(part)
        mask &= ~part
    return tuple(sorted(parts, key=int.bit_count))


@lru_cache(maxsize=None)
def _decomposition(line_graph: tuple[int, ...]) -> tuple:
    """``(parts, subsets)`` of every polymer with this line graph: each
    distinct component once, as its edge positions, and ``(size, part
    indices)`` of every edge subset.  Held for the life of the process, one
    entry per distinct line graph."""
    n, index, subsets = len(line_graph), {}, []
    for size in range(n + 1):
        for subset in combinations(range(n), size):
            parts = _split(line_graph, sum(1 << j for j in subset))
            subsets.append((size, tuple(index.setdefault(part, len(index)) for part in parts)))
    return tuple(tuple(j for j in range(n) if part >> j & 1) for part in index), tuple(subsets)


def subset_components(edges):
    """``(size, components)`` of every subset of a polymer's sorted edges, by
    ascending size and each size in ``combinations`` order.  Components are
    sorted edge tuples, in ``Polymer.key`` order (size, then lowest edge)."""
    parts, subsets = _decomposition(_line_graph(edges))
    named = [tuple(edges[j] for j in part) for part in parts]
    for size, ids in subsets:
        yield size, tuple([named[i] for i in ids])


@dataclass(frozen=True)
class Polymer:
    """A connected set of interaction edges."""

    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        edges = tuple(sorted(tuple(sorted(e)) for e in self.edges))
        if len(set(edges)) != len(edges):
            raise ValueError("polymer edges must be distinct")
        if len(_split(_line_graph(edges), (1 << len(edges)) - 1)) != 1:
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


def check_polymer_caps(degrees, max_size: int) -> None:
    """Refuse, from each site's edge count alone, an order above
    ``MAX_ORDER`` or an alphabet with more than ``MAX_POLYMERS`` polymers of
    size <= 2: |E| edges and sum_i C(deg_i, 2) pairs, exactly, since two
    distinct edges share at most one site."""
    if max_size < 1:
        raise ValueError("max_size must be >= 1")
    if max_size > MAX_ORDER:
        raise OrderCapError(max_size)
    degrees = np.asarray(degrees, dtype=np.int64)
    count = int(degrees.sum()) // 2
    if max_size > 1:
        count += int((degrees * (degrees - 1) // 2).sum())
    if count > MAX_POLYMERS:
        raise PolymerCountError(count)


def enumerate_polymers(edge_alphabet, max_size: int) -> list[Polymer]:
    """All connected edge-sets of size <= max_size, in canonical order."""
    edges = sorted(set(tuple(sorted(e)) for e in edge_alphabet))
    if any(e[0] == e[1] for e in edges):
        raise ValueError("self-loop edges are not allowed")

    incident = defaultdict(set)
    for k, (a, b) in enumerate(edges):
        incident[a].add(k)
        incident[b].add(k)
    check_polymer_caps([len(ks) for ks in incident.values()], max_size)

    # line-graph adjacency: edges are adjacent when they share a site
    adjacency = [(incident[a] | incident[b]) - {k} for k, (a, b) in enumerate(edges)]

    subsets = _connected_subsets(len(edges), adjacency, max_size)
    polymers = [Polymer(tuple(edges[k] for k in subset)) for subset in subsets]
    return sorted(polymers, key=lambda p: p.key)
