"""Reference builders for the lattice geometry and the interaction edges.

Two constructions ``bosepoly.lattice`` used before its closed forms:

- ``bfs_distance_matrix``: a breadth-first search from every site over the
  nearest-neighbor adjacency (+-1 steps per axis, wrapping if periodic);
- ``loop_interaction_edges``: a double loop over the pairs i < j.

The tests require ``lattice.distance_matrix`` and
``lattice.interaction_edges`` to reproduce them exactly.
"""

from __future__ import annotations

from collections import deque

import numpy as np


def coords(lattice, site: int) -> tuple[int, ...]:
    out = []
    for extent in reversed(lattice.dims):
        out.append(site % extent)
        site //= extent
    return tuple(reversed(out))


def site_index(lattice, coords) -> int:
    idx = 0
    for c, extent in zip(coords, lattice.dims, strict=True):
        idx = idx * extent + c
    return idx


def neighbors(lattice, site: int) -> tuple[int, ...]:
    """Nearest neighbors under +-1 steps per axis (wrapping if periodic)."""
    here = coords(lattice, site)
    found = set()
    for axis, extent in enumerate(lattice.dims):
        for step in (-1, 1):
            c = here[axis] + step
            if lattice.periodic:
                c %= extent
            elif not 0 <= c < extent:
                continue
            moved = list(here)
            moved[axis] = c
            idx = site_index(lattice, moved)
            if idx != site:
                found.add(idx)
    return tuple(sorted(found))


def bfs_distance_matrix(lattice) -> np.ndarray:
    """All-pairs shortest-path distances by breadth-first search."""
    n = lattice.n_sites
    adjacency = [neighbors(lattice, s) for s in range(n)]
    dist = np.full((n, n), -1, dtype=np.int64)
    for src in range(n):
        dist[src, src] = 0
        queue = deque([src])
        while queue:
            cur = queue.popleft()
            for nb in adjacency[cur]:
                if dist[src, nb] < 0:
                    dist[src, nb] = dist[src, cur] + 1
                    queue.append(nb)
    return dist


def loop_interaction_edges(couplings, threshold: float = 0.0) -> tuple:
    n = couplings.shape[0]
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if abs(couplings[i, j]) > threshold:
                edges.append((i, j))
    return tuple(edges)
