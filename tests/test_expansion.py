import math
from dataclasses import asdict

import numpy as np
import pytest

import bosepoly.expansion
import bosepoly.polymers
from bosepoly.expansion import (
    ExpansionConfig,
    approximate_log_partition,
    resolve_cutoff,
)
from bosepoly.fock import onsite_energy, onsite_log_trace, restricted_log_partition
from bosepoly.lattice import interaction_edges
from bosepoly.polymers import Polymer, enumerate_polymers

from conftest import make_chain, make_explicit, make_long_range_chain, weight, weights_at
from ursell_reference import cluster_per_order


def test_onsite_log_partition_single_site():
    model = make_chain(1, g=0.1, beta=1.0, U=1.0, mu=0.0)
    assert onsite_log_trace(model, range(1), 1, model.beta) == pytest.approx(math.log(2))


def test_onsite_log_partition_product_structure():
    model = make_chain(5, g=0.1, beta=1.0, U=1.0, mu=0.0)
    assert onsite_log_trace(model, range(5), 1, model.beta) == pytest.approx(5 * math.log(2))


def test_onsite_log_partition_three_levels():
    model = make_chain(1, g=0.1, beta=1.0, U=1.0, mu=0.5)
    # W(0)=0, W(1)=-1/2, W(2)=0
    assert onsite_log_trace(model, range(1), 2, model.beta) == pytest.approx(
        math.log(2 + math.exp(0.5))
    )


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
        weight(Polymer((e,)), model, q)
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
        w[e] = weight(Polymer((e,)), model, q)
    cfg = ExpansionConfig(m=2, q=q, polymer_threshold=0.0)
    res = approximate_log_partition(model, cfg)
    order2 = dict((oc.order, oc.contribution) for oc in res.per_order)[2]
    wa, wb = w[(0, 1)], w[(1, 2)]
    # exclude the two-edge polymer's own singleton cluster from the brute sum
    big = weight(Polymer(((0, 1), (1, 2))), model, q)
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


def test_each_polymer_decomposes_its_edge_subsets_once(monkeypatch):
    # once per line graph (which sorted edges share a site), for all the
    # polymers of that shape; each Polymer splits its whole edge set once
    # to check that it is connected
    model = make_long_range_chain(5, g=0.1, alpha=3.0, beta=0.2)
    polymers = enumerate_polymers(interaction_edges(model.couplings, 0.0), 3)
    shapes = {
        tuple(frozenset(j for j, f in enumerate(p.edges) if j != k and set(e) & set(f))
              for k, e in enumerate(p.edges))
        for p in polymers
    }
    calls = []
    split = bosepoly.polymers._split

    def counting(line_graph, mask):
        calls.append(mask)
        return split(line_graph, mask)

    bosepoly.polymers._decomposition.cache_clear()
    monkeypatch.setattr(bosepoly.polymers, "_split", counting)
    approximate_log_partition(model, ExpansionConfig(m=3, q=2))
    assert len(calls) == len(polymers) + sum(2 ** len(shape) for shape in shapes)
    assert len(shapes) < len(polymers) // 4


def test_approx_solves_each_polymer_once_and_walks_its_subsets_once(monkeypatch):
    # the weight, the log series and the linked-cluster term of a polymer
    # all come from one walk; its proper subsets' components are earlier
    # polymers, already solved
    model = make_long_range_chain(5, g=0.3, alpha=2.5, beta=0.3, U=1.0, mu=0.2)
    walked, solved = [], []
    walk = bosepoly.expansion.subset_components
    solve = bosepoly.expansion.restricted_log_partition

    def counting_walk(edges):
        walked.append(edges)
        return walk(edges)

    def counting_solve(model, region, edges, q):
        solved.append(edges)
        return solve(model, region, edges, q)

    monkeypatch.setattr(bosepoly.expansion, "subset_components", counting_walk)
    monkeypatch.setattr(bosepoly.expansion, "restricted_log_partition", counting_solve)
    report = approximate_log_partition(model, ExpansionConfig(m=4, q=2))
    polymers = [p.edges for p in enumerate_polymers(interaction_edges(model.couplings, 0.0), 4)]
    assert walked == solved == polymers
    assert report.polymer_count == len(polymers)


def test_approx_builds_one_polymer_per_enumerated_polymer(monkeypatch):
    model = make_long_range_chain(5, g=0.1, alpha=3.0, beta=0.2)
    count = len(enumerate_polymers(interaction_edges(model.couplings, 0.0), 3))
    built = []
    post_init = Polymer.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(Polymer, "__post_init__", counting)
    approximate_log_partition(model, ExpansionConfig(m=3, q=2))
    assert len(built) == count


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
    model = make_chain(4, g=0.1, beta=0.1, U=1.0, mu=0.5)
    cfg = ExpansionConfig(m=2, q_policy="auto", theta=1.0, q_prefactor=2.0)
    q = resolve_cutoff(model.n_sites, model.beta, cfg)
    assert q == math.ceil(2.0 * 2.0 * math.log(4) / math.sqrt(0.1))
    assert resolve_cutoff(model.n_sites, model.beta, ExpansionConfig(m=2, q=7)) == 7


def test_config_validation():
    with pytest.raises(ValueError):
        ExpansionConfig(m=0, q=1)
    with pytest.raises(ValueError):
        ExpansionConfig(m=2, q=None, q_policy="explicit")
    with pytest.raises(ValueError):
        ExpansionConfig(m=2, q=1, q_policy="bogus")


@pytest.mark.parametrize("knobs", [
    {"polymer_threshold": math.nan},
    {"q_policy": "auto", "theta": math.nan},
    {"q_policy": "auto", "theta": math.inf},
    {"q_policy": "auto", "q_prefactor": math.nan},
    {"q_policy": "auto", "q_prefactor": math.inf},
])
def test_config_refuses_non_finite_knobs(knobs):
    with pytest.raises(ValueError):
        ExpansionConfig(**dict({"m": 2, "q": 2}, **knobs))


def test_single_edge_rows_are_the_log1p_series_to_order_eleven():
    # one edge at m = 11: the order-11 cluster has eleven copies of one
    # polymer, and row k must be the z^k coefficient of log(1 + w z)
    model = make_chain(2, g=0.3, beta=0.5, U=1.0, mu=0.0)
    w = weight(Polymer(((0, 1),)), model, 1)
    res = approximate_log_partition(model, ExpansionConfig(m=11, q=1))
    assert [oc.order for oc in res.per_order] == list(range(1, 12))
    for oc in res.per_order:
        k = oc.order
        assert oc.contribution == pytest.approx((-1) ** (k - 1) * w**k / k, rel=1e-13)


@pytest.mark.parametrize(
    "model, q, m",
    [
        (make_chain(4, g=0.1, beta=0.1, U=1.0, mu=0.5), 3, 4),
        (make_long_range_chain(5, g=0.3, alpha=2.5, beta=0.3, U=1.0, mu=0.2), 2, 3),
        (make_explicit(4, 0.2 * (np.ones((4, 4)) - np.eye(4)), beta=0.5, U=1.0, mu=0.3), 1, 5),
        (make_chain(6, g=0.2, beta=0.5, U=1.1, mu=0.4, d_c=2), 1, 4),
    ],
    ids=["chain4", "long-range-chain5", "complete-K4", "chain6-dc2"],
)
def test_linked_cluster_rows_match_ursell_cluster_sum(model, q, m):
    # the Ursell-function cluster expansion, evaluated on the same weight
    # table, is an independent route to every per-order row
    expected = cluster_per_order(weights_at(model, m, q), m)
    res = approximate_log_partition(model, ExpansionConfig(m=m, q=q))
    for oc, want in zip(res.per_order, expected, strict=True):
        assert abs(oc.contribution - want) <= 1e-12 * abs(want), (oc.order, oc.contribution, want)


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
        e: weight(Polymer((e,)), model, 2)
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
    cfg = ExpansionConfig(q_policy="auto")
    assert resolve_cutoff(4, 0.1, cfg) == math.ceil(2.0 * 2.0 * math.log(4) / math.sqrt(0.1))
    with pytest.raises(ValueError, match="truncation order m"):
        approximate_log_partition(make_chain(2, g=0.1, beta=0.1), cfg)
