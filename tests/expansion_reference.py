"""Reference linked-cluster rows by the c_S subset walk.

This is how ``bosepoly.expansion`` summed T_m before it weighted each
polymer's series by its boundary-edge multiplicity.  For every polymer S
with |S| <= m, the linked-cluster term

    c_S = sum_{nonempty T subset of S} (-1)^(|S|-|T|) sum_{K in components(T)} L_K

enters row k >= |S| as its z^k coefficient, one ``+-[z^k] L_K`` term per
component of every edge subset, and row k is the ``math.fsum`` of those
terms.  Each L_K = log Xi_K is kept for every polymer until the end.
The split of a subset into components is done here by a plain search over
shared sites, independent of ``polymers._split``; components are ordered
by size, then lowest edge, as the package orders them.
"""

from __future__ import annotations

import itertools
import math


def components(edges) -> list[tuple]:
    """Site-connected components of an edge set, by size, then lowest edge."""
    parts = []
    for edge in sorted(edges):
        touching = [p for p in parts if any(set(edge) & set(f) for f in p)]
        merged = sorted([edge, *itertools.chain.from_iterable(touching)])
        parts = [p for p in parts if p not in touching] + [tuple(merged)]
    return sorted(parts, key=lambda p: (len(p), p))


def log_xi_series(edges, weights: dict, m: int) -> list[float]:
    """Coefficients 0..m of log Xi_K for the polymer ``edges``: Xi_K sums
    the products of component weights over every edge subset of K."""
    xi_terms = [[] for _ in range(m + 1)]
    for size in range(len(edges) + 1):
        for subset in itertools.combinations(edges, size):
            xi_terms[size].append(math.prod(weights[k] for k in components(subset)))
    xi = [math.fsum(t) for t in xi_terms]
    log = [0.0] * (m + 1)
    for k in range(1, m + 1):
        log[k] = xi[k] - math.fsum(j * log[j] * xi[k - j] for j in range(1, k)) / k
    return log


def linked_cluster_rows(weights: dict, m: int) -> list[float]:
    """Rows k = 1..m of T_m from a weight table (polymer edge tuple ->
    float, every polymer of size <= m of one alphabet)."""
    series = {edges: log_xi_series(edges, weights, m) for edges in weights}
    orders = [[] for _ in range(m + 1)]
    for edges in weights:
        for size in range(1, len(edges) + 1):
            sign = (-1.0) ** (len(edges) - size)
            for subset in itertools.combinations(edges, size):
                for k in components(subset):
                    for order in range(len(edges), m + 1):
                        orders[order].append(sign * series[k][order])
    return [math.fsum(orders[k]) for k in range(1, m + 1)]
