"""The polymers of the expansion: connected sets of interaction edges.

A polymer is a set of distinct interaction edges whose edge-overlap graph
(edges as vertices, adjacency = shared site) is connected, held as the
tuple of its sorted edges, each a sorted site pair.  Two polymers are
compatible when their site supports are disjoint, and an edge set splits
into site-connected components, each of them a polymer.

Enumeration is exact-once and deterministic.  Each polymer is a bitmask over
the sorted alphabet, and its border is the OR of its edges' line-graph
masks: every alphabet edge that shares a site with one of its edges.  The
walk grows them one size at a time: every polymer of size s, with each
border edge not already in it, gives a polymer of size s + 1, and a dict
keyed by mask keeps each one once, however many growth paths reach it.
Each edge tuple is built sorted, distinct and connected, so nothing
re-checks it.  They come out in canonical (size, then lexicographic) order,
at most ``MAX_POLYMERS`` of at most ``MAX_ORDER`` edges.
``_split`` finds the components of an edge subset of one polymer, as
bitmasks over its sorted edges, from the polymer's own ``_line_graph``
(which of those edges share a site).
"""

from __future__ import annotations

from collections import Counter, defaultdict

import numpy as np

from .lattice import ResourceCapError

__all__ = [
    "MAX_ORDER",
    "MAX_POLYMERS",
    "check_polymer_caps",
    "enumerate_polymers",
]

# Above every count reached so far: 2,193 polymers on a 6x6 square at m=4
# and 31,480 on a 16-site all-pairs chain at m=3.
MAX_POLYMERS = 50_000

# Above every truncation order run so far (11).  The expansion builds a
# polymer of s edges from its s one-edge deletions, in O(s^3) coefficient
# products, and its log series is quadratic in m.
MAX_ORDER = 16


def _line_graph(edges) -> tuple[int, ...]:
    """Bit j of entry k is set when edges k != j share a site; entry k does
    not keep its own bit k.  Built from each site's incidence mask, in
    O(sum of site degrees), so one builder serves a whole alphabet and each
    polymer."""
    at = defaultdict(int)
    for k, (a, b) in enumerate(edges):
        at[a] |= 1 << k
        at[b] |= 1 << k
    return tuple((at[a] | at[b]) & ~(1 << k) for k, (a, b) in enumerate(edges))


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


def check_polymer_caps(degrees, max_size: int) -> None:
    """Refuse, from each site's edge count alone, an order above
    ``MAX_ORDER`` or an alphabet with more than ``MAX_POLYMERS`` polymers of
    size <= 2: |E| edges and sum_i C(deg_i, 2) pairs, exactly, since two
    distinct edges share at most one site."""
    if max_size < 1:
        raise ValueError("max_size must be >= 1")
    if max_size > MAX_ORDER:
        raise ResourceCapError("truncation order {} exceeds", max_size, MAX_ORDER)
    degrees = np.asarray(degrees, dtype=np.int64)
    count = int(degrees.sum()) // 2
    if max_size > 1:
        count += int((degrees * (degrees - 1) // 2).sum())
    if count > MAX_POLYMERS:
        raise ResourceCapError("at least {} polymers exceed", count, MAX_POLYMERS)


def enumerate_polymers(edge_alphabet, max_size: int) -> list[tuple[tuple[int, int], ...]]:
    """All connected edge sets of size <= max_size, each as its sorted edge
    tuple, in canonical order: by size, then lexicographically."""
    edges = sorted(set(tuple(sorted(e)) for e in edge_alphabet))
    if any(e[0] == e[1] for e in edges):
        raise ValueError("self-loop edges are not allowed")
    check_polymer_caps(list(Counter(s for e in edges for s in e).values()), max_size)

    line_graph = _line_graph(edges)
    # the polymers of one size: mask over the alphabet -> (border, sorted edges)
    layer = {1 << k: (line_graph[k], (e,)) for k, e in enumerate(edges)}
    polymers = []
    for size in range(1, max_size + 1):
        polymers += sorted(members for _border, members in layer.values())
        if size == max_size:
            break
        grown = {}
        for mask, (border, members) in layer.items():
            new = border & ~mask
            while new:
                bit = new & -new
                new ^= bit
                if mask | bit not in grown:
                    # edge k goes after the polymer's edges below it
                    k, at = bit.bit_length() - 1, (mask & (bit - 1)).bit_count()
                    grown[mask | bit] = (border | line_graph[k],
                                         members[:at] + (edges[k],) + members[at:])
            if len(polymers) + len(grown) > MAX_POLYMERS:
                raise ResourceCapError("at least {} polymers exceed", MAX_POLYMERS + 1,
                                       MAX_POLYMERS)
        layer = grown
    return polymers
