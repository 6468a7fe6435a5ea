import itertools
import math
import random
import tracemalloc
from dataclasses import asdict
from functools import reduce
from operator import add

import numpy as np
import pytest

import bosepoly.expansion
from bosepoly.expansion import (
    ExpansionConfig,
    approximate_log_partition,
    resolve_cutoff,
)
from bosepoly.fock import onsite_energy, onsite_log_trace, restricted_log_partition
from bosepoly.lattice import interaction_edges
from bosepoly.polymers import _line_graph, enumerate_polymers

from conftest import (make_chain, make_explicit, make_long_range_chain, support, weight,
                      weights_at)
from expansion_reference import components, linked_cluster_rows
from ursell_reference import cluster_per_order


def make_square(dims, g, beta, U=1.0, mu=0.0):
    """Open nearest-neighbour square lattice."""
    from bosepoly.lattice import ModelInstance, OnsiteParams, build_couplings, build_lattice

    lat = build_lattice(dims)
    coup = build_couplings(lat, "finite_range", g=g, d_c=1)
    return ModelInstance(lat, coup, OnsiteParams.uniform(lat.n_sites, U, mu), beta)


# sites 0-1-2 form a path; the edge (3, 4) shares a site with no other edge
ISOLATED_EDGE = np.zeros((5, 5))
ISOLATED_EDGE[0, 1] = ISOLATED_EDGE[1, 0] = 0.3
ISOLATED_EDGE[1, 2] = ISOLATED_EDGE[2, 1] = -0.2
ISOLATED_EDGE[3, 4] = ISOLATED_EDGE[4, 3] = 0.25


def test_onsite_log_partition_single_site():
    model = make_chain(1, g=0.1, beta=1.0, U=1.0, mu=0.0)
    assert onsite_log_trace(model, 0, 1) == pytest.approx(math.log(2))


def test_onsite_log_partition_product_structure():
    model = make_chain(5, g=0.1, beta=1.0, U=1.0, mu=0.0)
    report = approximate_log_partition(model, ExpansionConfig(m=1, q=1))
    assert report.log_z_w == pytest.approx(5 * math.log(2))


def test_onsite_log_partition_three_levels():
    model = make_chain(1, g=0.1, beta=1.0, U=1.0, mu=0.5)
    # W(0)=0, W(1)=-1/2, W(2)=0
    assert onsite_log_trace(model, 0, 2) == pytest.approx(math.log(2 + math.exp(0.5)))


def test_zero_couplings_give_zero_ratio():
    model = make_explicit(4, np.zeros((4, 4)), beta=0.4)
    for m in (1, 2, 3):
        res = approximate_log_partition(model, ExpansionConfig(m=m, q=2))
        assert res.t_m == 0.0
        assert res.polymer_count == 0
    report = approximate_log_partition(model, ExpansionConfig(m=2, q=2))
    assert report.t_m == 0.0
    assert report.f_beta == report.log_z_w


def test_m1_is_sum_of_single_edge_weights():
    model = make_chain(3, g=0.4, beta=0.3, U=1.0, mu=0.2)
    q = 2
    res = approximate_log_partition(model, ExpansionConfig(m=1, q=q))
    expected = sum(
        weight((e,), model, q)
        for e in interaction_edges(model.couplings, 0.0)
    )
    assert res.t_m == pytest.approx(expected, rel=1e-12)


def test_single_polymer_resummation_converges_to_log1p():
    # one edge: clusters are the single polymer at each multiplicity, and the
    # series must reproduce log(1 + w), not exp(w) - 1
    model = make_chain(2, g=0.3, beta=1.0, U=1.0, mu=0.0)
    w = (math.cosh(0.3) - 1) / 2
    res = approximate_log_partition(model, ExpansionConfig(m=6, q=1))
    assert res.t_m == pytest.approx(math.log1p(w), abs=1e-9)
    partial = 0.0
    for oc in res.per_order:
        partial += (-1) ** (oc.order - 1) * w**oc.order / oc.order
    assert res.t_m == pytest.approx(partial, rel=1e-12)


def test_order_two_mixed_term_is_minus_product():
    # two overlapping single-edge polymers: brute-force polymer partition
    # function is 1 + w_a + w_b, so the order-2 cluster sum must equal
    # -(w_a^2 + w_b^2)/2 - w_a*w_b
    model = make_chain(3, g=0.4, beta=0.3, U=1.0, mu=0.0)
    q = 1
    w = {}
    for e in ((0, 1), (1, 2)):
        w[e] = weight((e,), model, q)
    cfg = ExpansionConfig(m=2, q=q, polymer_threshold=0.0)
    res = approximate_log_partition(model, cfg)
    order2 = dict((oc.order, oc.contribution) for oc in res.per_order)[2]
    wa, wb = w[(0, 1)], w[(1, 2)]
    # exclude the two-edge polymer's own singleton cluster from the brute sum
    big = weight(((0, 1), (1, 2)), model, q)
    assert order2 - big == pytest.approx(-(wa**2 + wb**2) / 2 - wa * wb, rel=1e-10)


def test_expansion_matches_exact_for_two_sites():
    model = make_chain(2, g=0.3, beta=1.0, U=1.0, mu=0.0)
    exact = math.log(2 + 2 * math.cosh(0.3))
    report = approximate_log_partition(model, ExpansionConfig(m=2, q=1))
    # order-2 truncation of log(1+w): error ~ w^3/3 ~ 4e-6; the wrong Ursell
    # pairing would instead leave a w^2/2 ~ 2.6e-4 residue
    assert abs(report.f_beta - exact) < 1e-5
    # order-6 error ~ w^7/7 ~ 4.3e-13
    report6 = approximate_log_partition(model, ExpansionConfig(m=6, q=1))
    assert abs(report6.f_beta - exact) < 1e-12
    assert abs(report6.f_beta - exact) < abs(report.f_beta - exact)


def test_error_non_increasing_in_m_vs_oracle():
    model = make_chain(4, g=0.1, beta=0.1, U=1.0, mu=0.5)
    q = 3
    oracle = restricted_log_partition(
        model, range(4), interaction_edges(model.couplings, 0.0), q
    )
    errors = []
    for m in (2, 4):
        report = approximate_log_partition(model, ExpansionConfig(m=m, q=q))
        errors.append(abs(report.f_beta - oracle))
    assert errors[1] <= errors[0]


def test_report_invariants():
    model = make_chain(3, g=0.2, beta=0.2, U=1.0, mu=0.1)
    report = approximate_log_partition(model, ExpansionConfig(m=3, q=2))
    assert report.t_m == pytest.approx(
        sum(oc.contribution for oc in report.per_order), rel=1e-14
    )
    assert report.f_beta == report.log_z_w + report.t_m
    assert report.q == 2 and report.m == 3
    assert report.m_error_bound == pytest.approx(3 * math.exp(-3))


def test_each_polymer_splits_its_one_edge_deletions_once(monkeypatch):
    # a polymer of three or more edges builds its Xi from its |p| one-edge
    # deletions, each split into components once on the alphabet's line
    # graph; a smaller one needs only its edge weights
    model = make_long_range_chain(5, g=0.1, alpha=3.0, beta=0.2)
    edges = interaction_edges(model.couplings, 0.0)
    polymers = enumerate_polymers(edges, 3)
    calls = []
    split = bosepoly.expansion._split

    def counting(line_graph, mask):
        calls.append((line_graph, mask))
        return split(line_graph, mask)

    monkeypatch.setattr(bosepoly.expansion, "_split", counting)
    approximate_log_partition(model, ExpansionConfig(m=3, q=2))
    assert len(calls) == sum(len(p) for p in polymers if len(p) > 2)
    assert all(line_graph == _line_graph(edges) for line_graph, _ in calls)
    # each mask is one polymer of more than two edges less one of its edges
    deletions = [sum(1 << edges.index(e) for e in p if e != removed)
                 for p in polymers if len(p) > 2 for removed in p]
    assert sorted(mask for _, mask in calls) == sorted(deletions)


def test_each_site_is_traced_free_once_per_run(monkeypatch):
    # the path 0-1-2 gives three polymers, all on site 1; at a threshold of
    # 0.1 the edge (3, 4) leaves the alphabet, so sites 3 and 4 are in no
    # polymer.  Every site is traced once, for its polymers' log g and log
    # Z_W alike
    matrix = ISOLATED_EDGE.copy()
    matrix[3, 4] = matrix[4, 3] = 0.05
    model = make_explicit(5, matrix, beta=0.5, U=1.0, mu=0.2)
    traced = []
    trace = bosepoly.expansion.onsite_log_trace

    def counting(model, site, q):
        traced.append(site)
        return trace(model, site, q)

    monkeypatch.setattr(bosepoly.expansion, "onsite_log_trace", counting)
    report = approximate_log_partition(model, ExpansionConfig(m=2, q=2, polymer_threshold=0.1))
    assert report.polymer_count == 3
    assert sorted(traced) == list(range(model.n_sites))


def test_free_traces_are_added_left_to_right():
    # on this chain the left-to-right sum of the site traces and their
    # correctly rounded sum differ in the last bit; builtin sum() is
    # compensated from Python 3.12 on, so it would change log Z_W there
    from bosepoly.lattice import ModelInstance, OnsiteParams, build_couplings, build_lattice

    rng = random.Random(2)
    U = [rng.uniform(0.8, 1.2) for _ in range(7)]
    mu = [rng.uniform(0.0, 1.0) for _ in range(7)]
    lattice = build_lattice([7])
    model = ModelInstance(lattice, build_couplings(lattice, "finite_range", g=0.2, d_c=1),
                          OnsiteParams(np.array(U), np.array(mu)), 0.5)
    report = approximate_log_partition(model, ExpansionConfig(m=2, q=3))
    traces = [onsite_log_trace(model, site, 3) for site in range(7)]
    assert report.log_z_w == reduce(add, traces, 0.0)
    assert report.log_z_w != math.fsum(traces)


def test_approx_solves_each_polymer_once(monkeypatch):
    # the weight, the log series and the linked-cluster term of a polymer
    # all come from one solve; its deletions' components are earlier
    # polymers, already solved
    model = make_long_range_chain(5, g=0.3, alpha=2.5, beta=0.3, U=1.0, mu=0.2)
    solved = []
    solve = bosepoly.expansion.restricted_log_partition

    def counting_solve(model, region, edges, q):
        solved.append(edges)
        return solve(model, region, edges, q)

    monkeypatch.setattr(bosepoly.expansion, "restricted_log_partition", counting_solve)
    report = approximate_log_partition(model, ExpansionConfig(m=4, q=2))
    polymers = enumerate_polymers(interaction_edges(model.couplings, 0.0), 4)
    assert solved == polymers
    assert report.polymer_count == len(polymers)


def disordered_chain(n, beta, seed):
    """An open chain with random couplings to the nearest and next-nearest
    site, and random on-site terms."""
    from bosepoly.lattice import ModelInstance, OnsiteParams, build_couplings, build_lattice

    rng = np.random.default_rng(seed)
    matrix = np.diag(rng.uniform(-0.4, 0.4, n - 1), 1) + np.diag(rng.uniform(-0.2, 0.2, n - 2), 2)
    lat = build_lattice([n])
    couplings = build_couplings(lat, "explicit", matrix=matrix + matrix.T)
    onsite = OnsiteParams(rng.uniform(0.8, 1.2, n), rng.uniform(-0.3, 1.0, n))
    return ModelInstance(lat, couplings, onsite, beta)


@pytest.mark.parametrize("case", ["all-pairs K4", "all-pairs K5", "open 2x3 square",
                                  "disordered chain"])
def test_deletion_weights_match_the_subset_walk(case):
    # w_K = expm1(log g(K)) - sum over the proper nonempty subsets A of K of
    # the product of the weights of A's components, from the same log g(K).
    # The two differ by the rounding of the deletion identity's products and
    # sums; the edge weights enter both sums exactly, so the difference stays
    # far below an ulp of the largest term.
    model, m, q = {
        "all-pairs K4": (make_long_range_chain(4, g=0.3, alpha=2.0, beta=0.7), 6, 2),
        "all-pairs K5": (make_long_range_chain(5, g=0.2, alpha=3.0, beta=0.5), 6, 2),
        "open 2x3 square": (make_square([2, 3], g=0.3, beta=0.5, mu=0.5), 7, 2),
        "disordered chain": (disordered_chain(6, beta=0.8, seed=3), 6, 2),
    }[case]
    weights = weights_at(model, m, q)
    worst = 0.0
    for polymer, w in weights.items():
        v = sorted(support(polymer))
        log_g = (restricted_log_partition(model, v, polymer, q)
                 - reduce(add, (onsite_log_trace(model, site, q) for site in v), 0.0))
        terms = [math.expm1(log_g)] + [
            -math.prod(weights[k] for k in components(subset))
            for size in range(1, len(polymer))
            for subset in itertools.combinations(polymer, size)]
        walked = math.fsum(terms)
        worst = max(worst, abs(w - walked) / max(map(abs, terms)))
    assert worst <= 2.0**-55, worst  # measured below 0.05 ulp on each case


def test_approx_retains_and_peaks_little_memory():
    # 968 polymers of the all-pairs 5-site chain: once the fock layouts of
    # every support width are built (by the m=4 run), a run holds only its
    # own polymers' series, and frees them when it returns
    model = make_long_range_chain(5, g=0.2, alpha=3.0, beta=0.5)
    approximate_log_partition(model, ExpansionConfig(m=4, q=2))
    tracemalloc.start()
    try:
        report = approximate_log_partition(model, ExpansionConfig(m=10, q=2))
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.polymer_count == 968
    assert retained < 2**20 and peak < 3 * 2**20, (retained, peak)


def test_determinism_across_runs():
    model = make_chain(4, g=0.1, beta=0.1, U=1.0, mu=0.5)
    reports = [approximate_log_partition(model, ExpansionConfig(m=4, q=3)) for _ in range(3)]
    dicts = [asdict(r) for r in reports]
    assert dicts[0] == dicts[1] == dicts[2]


def test_kp_diagnostic_zero_couplings():
    model = make_explicit(3, np.zeros((3, 3)), beta=0.5)
    rows = approximate_log_partition(model, ExpansionConfig(m=2, q=2)).kp_margin
    assert all(r.lhs == 0.0 and r.rhs == 0.5 and r.certified for r in rows)


def test_kp_lhs_decreases_with_beta():
    lhs = []
    for beta in (0.2, 0.1):
        model = make_chain(3, g=0.5, beta=beta, U=1.0, mu=0.0)
        rows = approximate_log_partition(model, ExpansionConfig(m=3, q=2)).kp_margin
        lhs.append(rows[1].lhs)
    assert lhs[1] < lhs[0]


def test_kp_flags_failure():
    # strong coupling at this beta blows past the margin
    model = make_chain(2, g=8.0, beta=1.0, U=1.0, mu=0.0)
    report = approximate_log_partition(model, ExpansionConfig(m=2, q=3))
    assert any(not r.certified for r in report.kp_margin)
    assert not report.kp_certified
    assert any("no convergence certificate" in note for note in report.notes)


def test_q_policy_auto():
    # "auto" resolves exactly as the former default q_prefactor * (theta + 1)
    # = 2.0 * 2.0 did; one site reads as two
    for n_sites, beta in [(1, 0.1), (2, 0.1), (4, 0.1), (7, 0.5), (8, 2.0), (36, 25.0),
                          (4096, 1e-3), (5, 1e6)]:
        old = max(1, math.ceil(2.0 * 2.0 * math.log(max(n_sites, 2)) / math.sqrt(beta)))
        assert resolve_cutoff(n_sites, beta, "auto") == old
    assert resolve_cutoff(1, 0.1, "auto") == resolve_cutoff(2, 0.1, "auto") == 9
    assert resolve_cutoff(5, 1e6, "auto") == 1
    assert resolve_cutoff(4, 0.1, 7) == 7
    model = make_chain(4, g=0.1, beta=25.0, U=1.0, mu=0.5)
    assert approximate_log_partition(model, ExpansionConfig(m=2, q="auto")).q == 2


def test_config_validation():
    with pytest.raises(ValueError):
        ExpansionConfig(m=0, q=1)
    for q in (None, 0, "bogus", "Auto", 2.0, True):
        with pytest.raises(ValueError, match="q must be"):
            ExpansionConfig(m=2, q=q)


@pytest.mark.parametrize("knobs", [
    {"polymer_threshold": math.nan},
    {"q": math.nan},
    {"q": math.inf},
    {"q": -math.inf},
    {"polymer_threshold": -math.inf},
    {"polymer_threshold": math.inf},
    {"polymer_threshold": True},
])
def test_config_refuses_non_finite_knobs(knobs):
    with pytest.raises(ValueError):
        ExpansionConfig(**dict({"m": 2, "q": 2}, **knobs))


@pytest.mark.parametrize("m", [2.5, 2.0, math.nan, math.inf, True])
def test_config_refuses_an_order_that_is_not_an_integer(m):
    # a float order would otherwise fail as a TypeError deep inside the expansion
    with pytest.raises(ValueError, match="truncation order m must be an integer"):
        ExpansionConfig(m=m, q=2)


def test_single_edge_rows_are_the_log1p_series_to_order_eleven():
    # one edge at m = 11: the order-11 cluster has eleven copies of one
    # polymer, and row k must be the z^k coefficient of log(1 + w z)
    model = make_chain(2, g=0.3, beta=0.5, U=1.0, mu=0.0)
    w = weight(((0, 1),), model, 1)
    res = approximate_log_partition(model, ExpansionConfig(m=11, q=1))
    assert [oc.order for oc in res.per_order] == list(range(1, 12))
    for oc in res.per_order:
        k = oc.order
        assert oc.contribution == pytest.approx((-1) ** (k - 1) * w**k / k, rel=1e-13)


@pytest.mark.parametrize(
    "model, q, m, threshold",
    [
        (make_chain(4, g=0.1, beta=0.1, U=1.0, mu=0.5), 3, 4, 0.0),
        (make_long_range_chain(5, g=0.3, alpha=2.5, beta=0.3, U=1.0, mu=0.2), 2, 3, 0.0),
        (make_explicit(4, 0.2 * (np.ones((4, 4)) - np.eye(4)), beta=0.5, U=1.0, mu=0.3), 1, 5, 0.0),
        (make_chain(6, g=0.2, beta=0.5, U=1.1, mu=0.4, d_c=2), 1, 4, 0.0),
        # a polymer of three plaquette edges has the fourth inside its support
        (make_square([2, 3], g=0.2, beta=0.4, U=1.0, mu=0.3), 1, 4, 0.0),
        (make_explicit(5, ISOLATED_EDGE, beta=0.5, U=1.0, mu=0.2), 2, 4, 0.0),
        # J = 0.3 / d^2 keeps d <= 3 above the threshold
        (make_long_range_chain(6, g=0.3, alpha=2.0, beta=0.3, U=1.0, mu=0.2), 1, 3, 0.02),
    ],
    ids=["chain4", "long-range-chain5", "complete-K4", "chain6-dc2",
         "square2x3", "isolated-edge", "long-range-chain6-threshold"],
)
def test_linked_cluster_rows_match_ursell_cluster_sum(model, q, m, threshold):
    # the Ursell-function cluster expansion, evaluated on the same weight
    # table, is an independent route to every per-order row; the c_S
    # subset walk sums the same clusters term by term, so only the rounding
    # of the multiplicity-weighted terms may differ from it
    weights = weights_at(model, m, q, threshold)
    res = approximate_log_partition(model, ExpansionConfig(m=m, q=q, polymer_threshold=threshold))
    rows = [oc.contribution for oc in res.per_order]
    for k, (row, want) in enumerate(zip(rows, cluster_per_order(weights, m), strict=True), 1):
        assert abs(row - want) <= 1e-12 * abs(want), (k, row, want)
    for k, (row, want) in enumerate(zip(rows, linked_cluster_rows(weights, m), strict=True), 1):
        assert abs(row - want) <= 1e-15 * abs(want), (k, row, want)


@pytest.mark.parametrize(
    "model",
    [make_long_range_chain(5, g=0.3, alpha=2.5, beta=0.3, U=1.0, mu=0.2),
     make_square([2, 3], g=0.2, beta=0.4, U=1.0, mu=0.3)],
    ids=["long-range-chain5", "square2x3"],
)
def test_rows_at_m_are_the_first_rows_at_a_larger_m(model):
    # compare serves every m of --m-list from the rows of one run at the largest
    short = approximate_log_partition(model, ExpansionConfig(m=3, q=1)).per_order
    long = approximate_log_partition(model, ExpansionConfig(m=5, q=1)).per_order
    assert short == long[:3]


def test_long_range_expansion_tracks_oracle():
    # richer instance: complete interaction graph, all orders interacting
    model = make_long_range_chain(5, g=0.3, alpha=2.5, beta=0.15, U=1.0, mu=0.2)
    q = 2
    oracle = restricted_log_partition(
        model, range(5), interaction_edges(model.couplings, 0.0), q
    )
    last = None
    for m in (2, 4):
        rep = approximate_log_partition(model, ExpansionConfig(m=m, q=q))
        err = abs(rep.f_beta - oracle)
        if rep.kp_certified:
            assert err <= rep.m_error_bound
        if last is not None:
            assert err <= last
        last = err
    assert last < 1e-6  # m=4 on this model is already deep in the tail


def test_weights_share_lattice_symmetry():
    # uniform periodic ring: every nearest-neighbor edge carries equal weight
    model = make_chain(4, g=0.4, beta=0.3, U=1.0, mu=0.1, periodic=True)
    res = approximate_log_partition(model, ExpansionConfig(m=1, q=2))
    values = {
        e: weight((e,), model, 2)
        for e in interaction_edges(model.couplings, 0.0)
    }
    vals = list(values.values())
    assert all(v == pytest.approx(vals[0], rel=1e-12) for v in vals)
    assert res.t_m == pytest.approx(sum(vals), rel=1e-12)


def test_two_dimensional_lattice_pipeline():
    # 2x2 periodic-free grid, long-range couplings over graph distances
    from bosepoly.lattice import ModelInstance, OnsiteParams, build_couplings, build_lattice

    lat = build_lattice([2, 2])
    coup = build_couplings(lat, "long_range", g=0.15, alpha=3.0)
    model = ModelInstance(lat, coup, OnsiteParams.uniform(4, 1.0, 0.1), beta=0.2)
    q = 2
    oracle = restricted_log_partition(
        model, range(4), interaction_edges(model.couplings, 0.0), q
    )
    rep = approximate_log_partition(model, ExpansionConfig(m=3, q=q))
    assert abs(rep.f_beta - oracle) < 1e-7
    assert rep.kp_certified


@pytest.mark.parametrize(
    "terms, shown",
    [([1.0, math.inf], "inf"), ([math.inf, -math.inf], "nan"), ([1e308, 1e308], "nan")],
)
def test_a_sum_that_overflows_is_a_numerical_failure_naming_it(terms, shown):
    # fsum raises ValueError on +inf with -inf, and OverflowError when the
    # finite terms overflow; both become the named ArithmeticError
    with pytest.raises(ArithmeticError, match=rf"^row 2 of T_m is not finite \({shown}\)$"):
        bosepoly.expansion._finite_fsum(terms, "row 2 of T_m")
    assert bosepoly.expansion._finite_fsum([1e308, -1e308, 1.0], "row 2 of T_m") == 1.0


def test_polymer_threshold_knob():
    # dropping far couplings shrinks the alphabet and shifts the estimate by
    # roughly the discarded single-edge weights
    model = make_long_range_chain(4, g=0.2, alpha=2.0, beta=0.2, U=1.0, mu=0.0)
    full = approximate_log_partition(model, ExpansionConfig(m=2, q=2))
    # J at distance 3 is 0.2/16 = 0.0125: threshold 0.02 removes only that edge
    cut = approximate_log_partition(
        model, ExpansionConfig(m=2, q=2, polymer_threshold=0.02)
    )
    assert cut.polymer_count < full.polymer_count
    assert full.f_beta != cut.f_beta
    assert abs(full.f_beta - cut.f_beta) < 1e-4



def test_config_without_m_only_resolves_the_cutoff():
    # a cutoff resolves from q alone; an expansion config needs its m
    assert resolve_cutoff(4, 0.1, "auto") == math.ceil(2.0 * 2.0 * math.log(4) / math.sqrt(0.1))
    with pytest.raises(TypeError):
        ExpansionConfig(q="auto")


def test_work_cap_counts_sector_cubes_exactly(monkeypatch):
    # chain4_nn's polymers, with the eigensolve cost brute forced: the cap
    # refuses a cost above it, and lets one equal to it run
    from collections import Counter

    from bosepoly.lattice import ResourceCapError

    model, cfg = make_chain(4, g=0.1, beta=0.1, U=1.0, mu=0.5), ExpansionConfig(m=4, q=3)
    polymers = enumerate_polymers(interaction_edges(model.couplings, 0.0), cfg.m)
    cost = 0
    for p in polymers:
        states = itertools.product(range(cfg.q + 1), repeat=len(support(p)))
        cost += sum(dim**3 for dim in Counter(map(sum, states)).values())
    monkeypatch.setattr(bosepoly.expansion, "MAX_SOLVE_COST", cost)
    approximate_log_partition(model, cfg)
    monkeypatch.setattr(bosepoly.expansion, "MAX_SOLVE_COST", cost - 1)
    with pytest.raises(ResourceCapError) as refused:
        approximate_log_partition(model, cfg)
    assert (refused.value.required, refused.value.allowed) == (cost, cost - 1)
    assert refused.value.details == [f"required={cost}", f"allowed={cost - 1}"]
