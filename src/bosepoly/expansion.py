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

and L_K = log Xi_K is taken as a power series truncated at z^m.  T_m is
the numerical linked-cluster sum over polymers S with |S| <= m of

    c_S = sum_{nonempty T subset of S} (-1)^(|S|-|T|) sum_{K in components(T)} L_K,

whose z^k coefficient vanishes for k < |S| (only clusters whose polymers
cover S survive the alternating sum).  The order-k contribution, the sum
of [z^k] c_S over |S| <= k, is the sum over all clusters of total size k,
so the decay of the series is visible directly.  This is the numerical
linked-cluster expansion of Rigol, Bryant and Singh (PRL 97, 187202, 2006)
run on the polymer gas; it needs no cluster enumeration and no Ursell
functions.  The weight, Xi_K and c_S of a polymer all read one walk over
its subsets from ``subset_components``; the weight's near-cancelling
alternating sum runs in that subset order with compensated accumulation.

The Kotecky-Preiss diagnostic reports, per site x, the truncated sum

    lhs(x) = sum_{polymers gamma with x in support, |gamma| <= m}
             |w_gamma| * exp(|V_gamma|/2 + |gamma|)      vs   rhs = 1/2.

The lhs is a size-truncated lower bound of the full series: lhs > rhs
refutes the convergence certificate at this order, lhs <= rhs does not
prove it.  The m-truncation error bound N * exp(-m) is valid only when
the certificate holds, and is labeled conditional in every report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock import EigensolverError, check_dim_cap, onsite_log_trace, restricted_log_partition
from .lattice import ModelInstance, interaction_edges
from .polymers import check_polymer_caps, enumerate_polymers, subset_components

__all__ = [
    "ExpansionConfig",
    "ExpansionReport",
    "KPDiagnosticRow",
    "resolve_cutoff",
    "approximate_log_partition",
]

KP_RHS = 0.5  # delta_1 of a single-site probe polymer, k = 2


@dataclass(frozen=True)
class ExpansionConfig:
    """Knobs of the truncated expansion.

    ``q_policy`` is either "explicit" (use ``q``) or "auto", which sets
    q = max(1, ceil(q_prefactor * (theta + 1) * log(N) / sqrt(beta))).
    The prefactor stands in for a nonconstructive constant and defaults
    to 2.0.  ``polymer_threshold`` drops couplings with |J| <= threshold
    from the polymer alphabet.  ``m`` may be left out by a config that
    only resolves the cutoff.
    """

    m: int | None = None
    q: int | None = None
    q_policy: str = "explicit"
    theta: float = 1.0
    q_prefactor: float = 2.0
    polymer_threshold: float = 0.0

    def __post_init__(self):
        if self.m is not None and self.m < 1:
            raise ValueError("truncation order m must be >= 1")
        if self.q_policy not in ("explicit", "auto"):
            raise ValueError(f"unknown q_policy {self.q_policy!r}")
        if self.q_policy == "explicit":
            if self.q is None or self.q < 1:
                raise ValueError("explicit q_policy requires q >= 1")
        elif not (0 < self.theta < math.inf and 0 < self.q_prefactor < math.inf):
            raise ValueError("auto q_policy requires finite theta > 0 and q_prefactor > 0")
        if not self.polymer_threshold >= 0:
            raise ValueError("polymer_threshold must be nonnegative")


def resolve_cutoff(n_sites: int, beta: float, cfg: ExpansionConfig) -> int:
    """The boson cutoff q; it depends on the model only through N and beta."""
    if cfg.q_policy == "explicit":
        return int(cfg.q)
    raw = cfg.q_prefactor * (cfg.theta + 1.0) * math.log(max(n_sites, 2)) / math.sqrt(beta)
    return max(1, math.ceil(raw))


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


def _log_g(model: ModelInstance, edges: tuple, q: int) -> float:
    """log g(K) on the component's own support: hopping trace minus free trace."""
    region = tuple(sorted({s for e in edges for s in e}))
    try:
        return (restricted_log_partition(model, region, edges, q)
                - onsite_log_trace(model, region, q, model.beta))
    except (EigensolverError, FloatingPointError) as exc:
        raise EigensolverError(f"weight evaluation failed for polymer {edges}: {exc}") from exc


def _neumaier_sum(values) -> float:
    total = 0.0
    comp = 0.0
    for v in values:
        t = total + v
        if abs(total) >= abs(v):
            comp += (total - t) + v
        else:
            comp += (v - t) + total
        total = t
    return total + comp


def _expand(model: ModelInstance, cfg: ExpansionConfig, q: int) -> tuple[dict, list[float]]:
    """The weight of every polymer of size <= m, keyed by its edge tuple in
    canonical order, and the order-k contributions of T_m for k = 1..m.

    Each polymer S is solved once, and one walk over its edge subsets gives
    w_S, then L_S, then the terms of c_S.  Every component of a proper
    subset of S is an earlier polymer, so its log g, weight and series are
    known; the last subset is S itself.  Refuses, from the thresholded
    couplings and before the alphabet is built, an order or polymer count
    past the caps, and, before any solve, a polymer support whose truncated
    space (q+1)^|V| exceeds the default dimension cap.
    """
    if cfg.m is None:
        raise ValueError("the expansion needs a truncation order m")
    m = cfg.m
    check_polymer_caps((np.abs(model.couplings.entries) > cfg.polymer_threshold).sum(axis=1), m)
    polymers = enumerate_polymers(interaction_edges(model.couplings, cfg.polymer_threshold), m)
    check_dim_cap(q, max((len(p.support) for p in polymers), default=0))

    log_g, weights, series = {}, {}, {}
    orders: list[list[float]] = [[] for _ in range(m + 1)]
    for polymer in polymers:
        s = polymer.edges
        log_g[s] = _log_g(model, s, q)
        w_terms, xi_terms = [], [[] for _ in range(m + 1)]
        for size, ks in subset_components(s):
            w_terms.append((-1.0) ** size * np.exp(math.fsum(log_g[k] for k in ks)))
            if size < len(s):  # S itself, the last subset, enters below
                xi_terms[size].append(math.prod(weights[k] for k in ks))
                sign = (-1.0) ** (len(s) - size)
                for k in ks:
                    for order in range(len(s), m + 1):
                        orders[order].append(sign * series[k][order])
        weights[s] = float((-1.0) ** len(s) * _neumaier_sum(w_terms))
        xi_terms[len(s)].append(weights[s])
        xi = [math.fsum(t) for t in xi_terms]
        log = [0.0] * (m + 1)
        for k in range(1, m + 1):
            # Xi L' = Xi' with Xi_0 = 1:  k L_k = k Xi_k - sum_{j<k} j L_j Xi_{k-j}
            log[k] = xi[k] - math.fsum(j * log[j] * xi[k - j] for j in range(1, k)) / k
        series[s] = log
        for order in range(len(s), m + 1):
            orders[order].append(log[order])
    return weights, [math.fsum(orders[k]) for k in range(1, m + 1)]


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
    only series coefficients up to z^k of polymers of size <= k, so the
    per_order rows of a run at m are the first m rows of any run at a
    larger m.
    """
    q = resolve_cutoff(model.n_sites, model.beta, cfg)

    weights, orders = _expand(model, cfg, q)
    per_order = []
    t_m = 0.0
    for order, contribution in enumerate(orders, start=1):
        t_m += contribution
        per_order.append(OrderContribution(order, contribution))

    log_z_w = onsite_log_trace(model, range(model.n_sites), q, model.beta)
    # one pass over the polymers; each site's KP terms keep the polymer order
    kp_terms = [[] for _ in range(model.n_sites)]
    for edges, weight in weights.items():
        support = {s for e in edges for s in e}
        term = abs(weight) * math.exp(len(support) / 2.0 + len(edges))
        for site in support:
            kp_terms[site].append(term)
    kp_rows = [KPDiagnosticRow(site, lhs, KP_RHS, lhs < KP_RHS)
               for site, lhs in enumerate(map(math.fsum, kp_terms))]
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
        per_order=tuple(per_order),
        kp_margin=tuple(kp_rows),
        kp_certified=certified,
        polymer_count=len(weights),
        m=cfg.m,
        q=q,
        m_error_bound=model.n_sites * math.exp(-cfg.m),
        notes=tuple(notes),
    )
