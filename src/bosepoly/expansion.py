"""Truncated cluster expansion T_m and the log-partition estimate f_beta.

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
functions.  Xi_K and c_S read their subsets from ``subset_components``.

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

from .fock import check_dim_cap, onsite_log_trace
from .lattice import ModelInstance, interaction_edges
from .polymers import enumerate_polymers, subset_components
from .weights import weight_table

__all__ = [
    "ExpansionConfig",
    "ExpansionReport",
    "KPDiagnosticRow",
    "resolve_cutoff",
    "kp_diagnostic",
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


def _build_weights(model: ModelInstance, cfg: ExpansionConfig, q: int) -> dict:
    """Weight table of every polymer of size <= m, in canonical order.

    Refuses, before any solve, a polymer support whose truncated space
    (q+1)^|V| exceeds the default dimension cap.
    """
    if cfg.m is None:
        raise ValueError("the expansion needs a truncation order m")
    edges = interaction_edges(model.couplings, cfg.polymer_threshold)
    polymers = enumerate_polymers(edges, cfg.m)
    check_dim_cap(q, max((len(p.support) for p in polymers), default=0))
    return weight_table(polymers, model, q)


def _log_series(edges: tuple, weights: dict, m: int) -> list[float]:
    """Coefficients of z^0..z^m of L_K = log Xi_K(z) for an edge set |K| <= m."""
    terms: list[list[float]] = [[] for _ in range(m + 1)]
    for size, ks in subset_components(edges):
        terms[size].append(math.prod(weights[k] for k in ks))
    xi = [math.fsum(t) for t in terms]
    log = [0.0] * (m + 1)
    for k in range(1, m + 1):
        # Xi L' = Xi' with Xi_0 = 1:  k L_k = k Xi_k - sum_{j<k} j L_j Xi_{k-j}
        log[k] = xi[k] - math.fsum(j * log[j] * xi[k - j] for j in range(1, k)) / k
    return log


def _linked_cluster_orders(weights: dict, m: int) -> list[float]:
    """Order-k contributions of T_m for k = 1..m: the fsum of [z^k] c_S
    over the polymers S of the table with |S| <= k.  Every component of a
    subset of a table polymer is itself a table polymer."""
    series = {edges: _log_series(edges, weights, m) for edges in weights}
    terms: list[list[float]] = [[] for _ in range(m + 1)]
    for edges in weights:
        for size, ks in subset_components(edges):
            sign = (-1.0) ** (len(edges) - size)
            for k in ks:
                for order in range(len(edges), m + 1):
                    terms[order].append(sign * series[k][order])
    return [math.fsum(terms[order]) for order in range(1, m + 1)]


@dataclass(frozen=True)
class KPDiagnosticRow:
    site: int
    lhs: float
    rhs: float
    certified: bool


def kp_diagnostic(model: ModelInstance, cfg: ExpansionConfig, q: int | None = None,
                  weights: dict | None = None) -> list[KPDiagnosticRow]:
    """Truncated convergence-condition margins per site.

    Lower bounds only: a row with lhs >= rhs means no convergence
    certificate at this order; all rows passing certifies nothing beyond
    the enumerated sizes.
    """
    if q is None:
        q = resolve_cutoff(model.n_sites, model.beta, cfg)
    if weights is None:
        weights = _build_weights(model, cfg, q)

    # one pass over the polymers; each site's terms keep the polymer order
    terms = [[] for _ in range(model.n_sites)]
    for edges, weight in weights.items():
        support = {s for e in edges for s in e}
        term = abs(weight) * math.exp(len(support) / 2.0 + len(edges))
        for site in support:
            terms[site].append(term)
    lhs = [math.fsum(t) for t in terms]
    return [KPDiagnosticRow(site, x, KP_RHS, x < KP_RHS) for site, x in enumerate(lhs)]


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

    weights = _build_weights(model, cfg, q)
    per_order = []
    t_m = 0.0
    for order, contribution in enumerate(_linked_cluster_orders(weights, cfg.m), start=1):
        t_m += contribution
        per_order.append(OrderContribution(order, contribution))

    log_z_w = onsite_log_trace(model, range(model.n_sites), q, model.beta)
    kp_rows = kp_diagnostic(model, cfg, q=q, weights=weights)
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
