"""Truncated cluster expansion T_m and the log-partition estimate f_beta.

The weight of a polymer gamma with edges e_1..e_s over support V is

    w_gamma = (-1)^s * sum_{T subset of edges} (-1)^|T| g(T),

where g(T) = Tr(Pi exp(-beta H_T)) / Tr(Pi exp(-beta W)) is a ratio of
truncated traces: the numerator keeps on-site terms but hopping only on
the edges of T.  Sites that T does not touch give the same factor to both
traces and cancel, and sites in different site-connected components of T
do not interact, so

    log g(T) = sum over components K of T of log g(K).

Each component K is itself a connected edge set, i.e. a smaller polymer,
and log g(K) takes one set of number-sector solves on its own support V_K.
A weight is a plain float and a pure function of its polymer.

f_beta = log Z_W^(q) + T_m, where log Z_W^(q) is the hopping-free on-site
reference.  Grade each polymer gamma by z^|gamma|.  The polymer gas on a
connected edge set K then has the partition function

    Xi_K(z) = sum_{A subset of K} z^|A| prod_{gamma in components(A)} w_gamma,

and g(K) = Xi_K(1), the weight's alternating sum inverted over subsets
(Kotecky and Preiss, CMP 103, 1986).  So w_K, the z^|K| coefficient of
Xi_K, is expm1(log g(K)) less its z^1 .. z^(|K|-1) coefficients.  Those
need no walk over subsets: for k < |K|, each size-k subset of K lies in
K - e for exactly |K| - k of K's edges e, so

    [z^k] Xi_K = sum_{e in K} [z^k] Xi_{K-e} / (|K| - k),

and Xi_{K-e} is the product of the Xi_C of the components C of K - e,
each an earlier polymer; [z^1] Xi_K is the sum of K's edge weights.  A
polymer of s > 2 edges takes s splits and O(s^3) coefficient products.

L_K = log Xi_K is taken as a power series truncated at z^m.  T_m is
the numerical linked-cluster sum over polymers S with |S| <= m of

    c_S = sum_{nonempty T subset of S} (-1)^(|S|-|T|) sum_{K in components(T)} L_K,

and row k sums [z^k] c_S over |S| <= k: all clusters of total size k, so
the decay of the series is visible directly.  Let N(K) be the d_K alphabet
edges that share a site with K and are not in it.  K is a component of T
exactly when T is K plus edges outside N(K), so L_K survives only in the
S = K + A with A a subset of N(K), with sign (-1)^|A|; summed over |A| <=
k - |K|, row k takes (-1)^(k-|K|) C(d_K - 1, k - |K|) [z^k] L_K (1 if d_K = 0).
This is the numerical linked-cluster expansion of Rigol, Bryant and Singh
(PRL 97, 187202, 2006) run on the polymer gas; it needs no cluster
enumeration and no Ursell functions, and one log g per polymer.

The Kotecky-Preiss diagnostic reports, per site x, the truncated sum

    lhs(x) = sum_{polymers gamma with x in support, |gamma| <= m}
             |w_gamma| * exp(|V_gamma|/2 + |gamma|)      vs   rhs = 1/2.

The lhs is a size-truncated lower bound of the full series: lhs > rhs
refutes the convergence certificate at this order, lhs <= rhs does not
prove it.  The m-truncation error bound N * exp(-m) is valid only when
the certificate holds, and is labeled conditional in every report.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import reduce
from operator import add, or_

import numpy as np

from .fock import (EigensolverError, check_dim_cap, onsite_log_trace, restricted_log_partition,
                   sector_blocks)
from .lattice import ModelInstance, ResourceCapError, interaction_edges
from .polymers import _line_graph, _split, check_polymer_caps, enumerate_polymers

__all__ = [
    "ExpansionConfig",
    "ExpansionReport",
    "KPDiagnosticRow",
    "resolve_cutoff",
    "approximate_log_partition",
]

KP_RHS = 0.5  # delta_1 of a single-site probe polymer, k = 2
# q = "auto" sets q = max(1, ceil(AUTO_Q_FACTOR * log(N) / sqrt(beta))); the
# factor stands in for a nonconstructive constant, and is the former default
# q_prefactor * (theta + 1) = 2 * 2, a product that is exact in floating point
AUTO_Q_FACTOR = 4.0
# Cap on the expansion's eigensolve cost, sum_p sum_sectors dim^3: above
# every run so far (the 6x6 square at m=6, q=1: 2.1e9), below hours of solves.
MAX_SOLVE_COST = 10**11


@dataclass(frozen=True)
class ExpansionConfig:
    """Knobs of the truncated expansion.

    ``m`` is the truncation order.  ``q`` is the boson cutoff, an integer
    >= 1, or "auto", which sets q = max(1, ceil(AUTO_Q_FACTOR * log(N) /
    sqrt(beta))).  ``polymer_threshold`` drops couplings with |J| <=
    threshold from the polymer alphabet.
    """

    m: int
    q: int | str
    polymer_threshold: float = 0.0

    def __post_init__(self):
        if type(self.m) is not int or self.m < 1:
            raise ValueError(f"truncation order m must be an integer >= 1, got {self.m!r}")
        if not (self.q == "auto" or type(self.q) is int and self.q >= 1):
            raise ValueError(f'q must be an integer >= 1 or "auto", got {self.q!r}')
        if isinstance(self.polymer_threshold, bool) or not 0 <= self.polymer_threshold < math.inf:
            raise ValueError(f"polymer_threshold must be finite and nonnegative, "
                             f"got {self.polymer_threshold!r}")


def resolve_cutoff(n_sites: int, beta: float, q: int | str) -> int:
    """The boson cutoff for ``q``; "auto" depends on the model only through
    N and beta."""
    if q != "auto":
        return int(q)
    return max(1, math.ceil(AUTO_Q_FACTOR * math.log(max(n_sites, 2)) / math.sqrt(beta)))


@dataclass(frozen=True)
class OrderContribution:
    order: int
    contribution: float


@dataclass(frozen=True)
class KPDiagnosticRow:
    site: int
    lhs: float
    rhs: float
    certified: bool


def _finite_fsum(terms, what: str, *args) -> float:
    """The sum; if it is not finite, an ArithmeticError names what.format(*args)."""
    try:
        total = math.fsum(terms)
    except (ValueError, OverflowError):  # +inf with -inf terms, or an overflowing sum
        total = math.nan
    if not math.isfinite(total):
        raise ArithmeticError(f"{what.format(*args)} is not finite ({total})")
    return total


def _times(a, b, *what) -> list[float]:
    """The coefficients of the product of two polynomials."""
    terms = [[] for _ in range(len(a) + len(b) - 1)]
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            terms[i + j].append(x * y)
    return [_finite_fsum(t, *what) for t in terms]


def _expand(model: ModelInstance, cfg: ExpansionConfig, q: int) -> tuple[dict, list, list, float]:
    """The weight of every polymer of size <= m, keyed by its edge tuple in
    canonical order, the order-k contributions of T_m for k = 1..m, each
    site's Kotecky-Preiss lhs, and log Z_W.

    Each polymer K is solved once and held as its bitmask over the sorted
    alphabet.  Its Xi_K coefficients below z^|K| come from its edge weights
    and its |K| one-edge deletions, whose components on the alphabet's line
    graph are earlier polymers with their Xi kept, and w_K is expm1(log
    g(K)) less them; L_K then enters each row k >= |K| once, times its
    multiplicity.  Each site's free trace is taken once.  Refuses, from the
    thresholded couplings and before the alphabet is built, an order or
    polymer count past the caps, and, before any solve, a polymer support
    whose truncated space (q+1)^|V| exceeds the default dimension cap, or
    an eigensolve cost past MAX_SOLVE_COST.  A weight, log Xi series or row
    that an overflow leaves not finite raises ArithmeticError.
    """
    m = cfg.m
    check_polymer_caps((np.abs(model.couplings) > cfg.polymer_threshold).sum(axis=1), m)
    edges = interaction_edges(model.couplings, cfg.polymer_threshold)  # sorted and distinct
    polymers = enumerate_polymers(edges, m)
    supports = [sorted({site for e in s for site in e}) for s in polymers]
    widths = set(map(len, supports))
    check_dim_cap(q, max(widths, default=0))
    cubes = {w: sum(b.dim**3 for b in sector_blocks(w, q)) for w in widths}
    cost = sum(cubes[len(v)] for v in supports)
    if cost > MAX_SOLVE_COST:
        raise ResourceCapError("an eigensolve cost of {} exceeds", cost, MAX_SOLVE_COST)

    line_graph, index = _line_graph(edges), {e: i for i, e in enumerate(edges)}
    xis = {}  # polymer mask -> its Xi coefficients z^0 .. z^|K|, the last w_K
    free = [None] * model.n_sites  # each site's free trace, once taken
    orders: list[list[float]] = [[] for _ in range(m + 1)]
    kp_terms = [[] for _ in range(model.n_sites)]  # each site's, in polymer order
    for s, v in zip(polymers, supports):
        try:  # log g(K) on K's own support: hopping trace minus free trace
            log_g = restricted_log_partition(model, v, s, q)
            for site in v:
                if free[site] is None:
                    free[site] = onsite_log_trace(model, site, q)
        except ArithmeticError as exc:
            raise EigensolverError(f"weight evaluation failed for polymer {s}: {exc}") from exc
        log_g -= reduce(add, (free[site] for site in v), 0.0)
        n, what = len(s), ("the weight of polymer {}", s)
        ids = [index[e] for e in s]  # ascending, as s is sorted
        mask = sum(1 << i for i in ids)
        # [z^1] Xi_K sums K's edge weights, each exact, where the deletions'
        # sums would round them; the deletions give [z^k] for 1 < k < |K|
        ones = [xis[1 << i][1] for i in ids] if n > 1 else []
        deletions = [[] for _ in range(n)]
        for i in ids if n > 2 else ():
            # Xi of K - e_i, the product over its components, lowest edge first
            product, *others = [xis[part] for part in _split(line_graph, mask & ~(1 << i))]
            for other in others:
                product = _times(product, other, *what)
            for k in range(2, n):
                deletions[k].append(product[k])
        lower = [_finite_fsum(ones, *what)] if ones else []
        lower += [_finite_fsum(deletions[k], *what) / (n - k) for k in range(2, n)]
        # g(K) = Xi_K(1): w_K is what g(K) - 1 leaves after the lower
        # coefficients; map defers expm1, so an overflow there is caught by the sum
        terms = itertools.chain(map(math.expm1, [log_g]), (-c for c in ones + lower[1:]))
        xis[mask] = [1.0, *lower, _finite_fsum(terms, *what)]
        kp = abs(xis[mask][-1]) * math.exp(len(v) / 2.0 + n)
        for site in v:
            kp_terms[site].append(kp)
        xi = xis[mask] + [0.0] * (m - n)
        log = [0.0] * (m + 1)
        for k in range(1, m + 1):
            # Xi L' = Xi' with Xi_0 = 1:  k L_k = k Xi_k - sum_{j<k} j L_j Xi_{k-j}
            log[k] = xi[k] - _finite_fsum((j * log[j] * xi[k - j] for j in range(1, k)),
                                          "the log Xi series of polymer {}", s) / k
        d = (reduce(or_, (line_graph[i] for i in ids)) & ~mask).bit_count()
        for j, term in enumerate(log[n:]):
            orders[n + j].append(((-1) ** j * math.comb(d - 1, j) if d else 1) * term)
    rows = [_finite_fsum(orders[k], "row {} of T_m", k) for k in range(1, m + 1)]
    # added left to right: sum() of floats is compensated from Python 3.12 on
    log_z_w = reduce(add, (onsite_log_trace(model, site, q) if f is None else f
                           for site, f in enumerate(free)), 0.0)
    weights = dict(zip(polymers, (xi[-1] for xi in xis.values())))
    return weights, rows, list(map(math.fsum, kp_terms)), log_z_w


@dataclass(frozen=True)
class ExpansionReport:
    """Primary output record of the approximation run, serialized by ``asdict``."""

    f_beta: float
    log_z_w: float
    t_m: float
    per_order: tuple[OrderContribution, ...]
    kp_margin: tuple[KPDiagnosticRow, ...]
    kp_certified: bool
    polymer_count: int
    m: int
    q: int
    m_error_bound: float
    notes: tuple[str, ...]


def approximate_log_partition(model: ModelInstance, cfg: ExpansionConfig) -> ExpansionReport:
    """Run the full pipeline and assemble the report (f = log Z_W + T_m).

    Deterministic for a fixed config: every order is one correctly rounded
    sum, and each weight is a pure function of its polymer.  Row k reads
    only series coefficients up to z^k of polymers of size <= k, times
    multiplicities that do not depend on m, so the per_order rows of a run
    at m are the first m rows of any run at a larger m.
    """
    q = resolve_cutoff(model.n_sites, model.beta, cfg.q)

    weights, orders, kp_lhs, log_z_w = _expand(model, cfg, q)
    t_m = 0.0
    for contribution in orders:
        t_m += contribution

    kp_rows = [KPDiagnosticRow(site, lhs, KP_RHS, lhs < KP_RHS) for site, lhs in enumerate(kp_lhs)]
    certified = all(r.certified for r in kp_rows)

    notes = [
        "KP margins are size-truncated lower bounds: they can refute the "
        "convergence certificate, never prove it",
        "m_error_bound = N*exp(-m) applies only when kp_certified is true",
    ]
    if not certified:
        notes.append("no convergence certificate at this order")

    return ExpansionReport(
        f_beta=log_z_w + t_m,
        log_z_w=log_z_w,
        t_m=t_m,
        per_order=tuple(OrderContribution(k, c) for k, c in enumerate(orders, start=1)),
        kp_margin=tuple(kp_rows),
        kp_certified=certified,
        polymer_count=len(weights),
        m=cfg.m,
        q=q,
        m_error_bound=model.n_sites * math.exp(-cfg.m),
        notes=tuple(notes),
    )
