"""Test oracle: T_m per order as the Ursell-function cluster expansion.

This is the route ``approx`` took before the linked-cluster sum, kept here
only as an independent reference for it.  Its polymers are ``Polymer``
objects, which sort and re-check their edges; the package holds a polymer
as its sorted edge tuple.  A cluster is a multiset of polymers whose
incompatibility graph (supports overlap; every polymer clashes with itself)
is connected, and its order-k term is

    phi(copy incompatibility graph) * prod_gamma w_gamma^mult / mult!,

summed over clusters of total size k.

phi(G) = sum over edge subsets S of G with (V, S) connected and spanning
of (-1)^|S| (no factorial normalization; the caller pairs this with
w^mult / mult! cluster terms).  Evaluation uses the component recursion

    phi(U) = [U has no internal edges] - sum_{B} phi(U \\ B)

over nonempty independent sets B avoiding a fixed pivot vertex, which
costs O(3^n) instead of 2^|E|.  Values are memoized under a canonical
graph key, so relabelings of the same cluster shape are computed once.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass

from bosepoly.polymers import _line_graph, _split

logger = logging.getLogger(__name__)

MEMO_VERTEX_CAP = 10
_PERMUTATION_BUDGET = 10080  # 7! * 2; beyond this fall back to the labeled key

_memo: dict = {}


@dataclass(frozen=True)
class UGraph:
    """Undirected simple graph on vertices 0..n-1 (diagonal ignored)."""

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("graph needs at least one vertex")
        edges = set()
        for (a, b) in self.edges:
            if a == b:
                continue
            if not (0 <= a < self.n and 0 <= b < self.n):
                raise ValueError(f"edge ({a}, {b}) outside vertex range")
            edges.add((min(a, b), max(a, b)))
        object.__setattr__(self, "edges", tuple(sorted(edges)))

    def adjacency_masks(self) -> list[int]:
        masks = [0] * self.n
        for (a, b) in self.edges:
            masks[a] |= 1 << b
            masks[b] |= 1 << a
        return masks

    def is_connected(self) -> bool:
        masks = self.adjacency_masks()
        seen = 1
        frontier = 1
        while frontier:
            nxt = 0
            v = frontier
            while v:
                low = v & -v
                nxt |= masks[low.bit_length() - 1]
                v ^= low
            frontier = nxt & ~seen
            seen |= nxt
        return seen == (1 << self.n) - 1


def _phi_from_masks(n: int, masks: list[int]) -> int:
    """Component recursion over vertex bitmasks."""
    full = (1 << n) - 1
    cache: dict[int, int] = {}

    def has_internal_edge(mask: int) -> bool:
        v = mask
        while v:
            low = v & -v
            if masks[low.bit_length() - 1] & mask & ~low:
                return True
            v ^= low
        return False

    def independent(mask: int) -> bool:
        return not has_internal_edge(mask)

    def phi(mask: int) -> int:
        if mask.bit_count() == 1:
            return 1
        got = cache.get(mask)
        if got is not None:
            return got
        pivot = mask & -mask
        rest = mask ^ pivot
        total = 0 if has_internal_edge(mask) else 1
        # subtract phi over supersets of the pivot whose complement is independent
        sub = rest
        while sub:
            if independent(sub):
                total -= phi(mask ^ sub)
            sub = (sub - 1) & rest
        cache[mask] = total
        return total

    return phi(full)


def ursell(graph: UGraph) -> int:
    """Signed connected-spanning-subgraph count of ``graph``.

    Disconnected input yields 0 (the empty sum); the cluster pipeline never
    produces one, so this is logged as a caller bug rather than raised.
    """
    if not graph.is_connected():
        logger.warning("ursell called on a disconnected graph (n=%d); returning 0", graph.n)
        return 0
    if graph.n <= MEMO_VERTEX_CAP:
        key = canonical_graph_key(graph)
        got = _memo.get(key)
        if got is not None:
            return got
        value = _phi_from_masks(graph.n, graph.adjacency_masks())
        _memo[key] = value
        return value
    return _phi_from_masks(graph.n, graph.adjacency_masks())


def _refine_colors(graph: UGraph) -> list[int]:
    masks = graph.adjacency_masks()
    colors = [bin(m).count("1") for m in masks]
    for _ in range(graph.n):
        signatures = []
        for v in range(graph.n):
            neigh = sorted(
                colors[u] for u in range(graph.n) if masks[v] >> u & 1
            )
            signatures.append((colors[v], tuple(neigh)))
        order = {sig: k for k, sig in enumerate(sorted(set(signatures)))}
        new_colors = [order[sig] for sig in signatures]
        if new_colors == colors:
            break
        colors = new_colors
    return colors


def canonical_graph_key(graph: UGraph):
    """Isomorphism-invariant key for memoization (n <= MEMO_VERTEX_CAP).

    Vertices are partitioned by iterated neighborhood-color refinement and
    the minimal adjacency bitstring over class-respecting permutations is
    taken.  Highly symmetric graphs past the permutation budget fall back
    to the labeled edge tuple, which only costs cache sharing, never
    correctness.
    """
    if graph.n > MEMO_VERTEX_CAP:
        raise ValueError(f"canonical key capped at {MEMO_VERTEX_CAP} vertices")
    n = graph.n
    m = len(graph.edges)
    if m == 0:
        return ("empty", n)
    if m == n * (n - 1) // 2:
        return ("complete", n)

    colors = _refine_colors(graph)
    classes: dict[int, list[int]] = {}
    for v, c in enumerate(colors):
        classes.setdefault(c, []).append(v)
    ordered_classes = [classes[c] for c in sorted(classes)]

    budget = 1
    for cl in ordered_classes:
        for k in range(2, len(cl) + 1):
            budget *= k
        if budget > _PERMUTATION_BUDGET:
            return ("labeled", n, graph.edges)

    edge_set = set(graph.edges)
    best = None
    for parts in itertools.product(*(itertools.permutations(cl) for cl in ordered_classes)):
        perm = [v for part in parts for v in part]
        relabel = {old: new for new, old in enumerate(perm)}
        bits = 0
        for (a, b) in edge_set:
            x, y = relabel[a], relabel[b]
            if x > y:
                x, y = y, x
            bits |= 1 << (x * n + y)
        if best is None or bits < best:
            best = bits
    return ("canon", n, best)


# --- clusters -------------------------------------------------------------------


def _overlap_connected(site_sets) -> bool:
    """True when a nonempty list of site sets is connected through shared
    sites (sets are adjacent in the overlap graph when they intersect)."""
    pending = [set(sites) for sites in site_sets]
    reached = pending.pop(0)
    while grown := [s for s in pending if not s.isdisjoint(reached)]:
        for sites in grown:
            pending.remove(sites)
            reached |= sites
    return not pending


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


def incompatible(a: Polymer, b: Polymer) -> bool:
    """True when the site supports overlap (every polymer clashes with itself)."""
    return not a.support.isdisjoint(b.support)


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
        if not _overlap_connected(p.support for p in distinct):
            raise ValueError("cluster incompatibility graph is not connected")
        object.__setattr__(self, "members", members)

    @property
    def total_size(self) -> int:
        return sum(mult * p.size for p, mult in self.members)

    @property
    def key(self):
        return (self.total_size, tuple((p.key, mult) for p, mult in self.members))


def _connected_subsets(n: int, adjacency, max_weight: int, weight):
    """All connected vertex subsets whose summed ``weight`` is at most
    ``max_weight``, each exactly once (grown from the minimal element)."""
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
    adjacency = [
        {m for m in range(len(polymers)) if m != k and not supports[k].isdisjoint(supports[m])}
        for k in range(len(polymers))
    ]
    base_sets = _connected_subsets(
        len(polymers), adjacency, max_total, lambda v: polymers[v].size
    )

    clusters = []
    for subset in base_sets:
        sizes = [polymers[k].size for k in subset]

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

    Copies of the same polymer are pairwise incompatible, so each
    multiplicity group forms a clique; copies of distinct polymers are
    joined exactly when the supports overlap.
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


def cluster_per_order(weights: dict, m: int) -> list[float]:
    """Order-k contributions, k = 1..m, of the Ursell cluster sum over a
    weight table (polymer edge tuple -> float)."""
    by_order: list[list[float]] = [[] for _ in range(m + 1)]
    for cluster in enumerate_clusters([Polymer(edges) for edges in weights], m):
        n, edges = copy_incompatibility_graph(cluster)
        term = float(ursell(UGraph(n, edges)))
        for polymer, mult in cluster.members:
            term *= weights[polymer.edges] ** mult / math.factorial(mult)
        by_order[cluster.total_size].append(term)
    return [math.fsum(by_order[k]) for k in range(1, m + 1)]
