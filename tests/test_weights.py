import itertools
import math

import numpy as np
import pytest

from bosepoly.fock import RegionHamiltonian, restricted_log_partition, sector_blocks
from bosepoly.lattice import (
    ModelInstance,
    OnsiteParams,
    build_couplings,
    build_lattice,
    interaction_edges,
)
from bosepoly.polymers import enumerate_polymers

from conftest import (make_chain, make_explicit, make_long_range_chain, support, weight,
                      weights_at)
from ursell_reference import Polymer


SINGLE_EDGE = ((0, 1),)


def g_ratio(model, polymer, edge_subset, q):
    """Reference g(T): the truncated-trace ratio on the polymer's full support."""
    region = sorted(support(polymer))
    return math.exp(
        restricted_log_partition(model, region, edge_subset, q)
        - restricted_log_partition(model, region, (), q)
    )


def test_g_ratio_empty_subset_is_one(two_site_model):
    assert g_ratio(two_site_model, SINGLE_EDGE, (), q=1) == 1.0


def test_g_ratio_single_edge_closed_form(two_site_model):
    beta_j = 0.3
    got = g_ratio(two_site_model, SINGLE_EDGE, ((0, 1),), q=1)
    assert got == pytest.approx((2 + 2 * math.cosh(beta_j)) / 4, rel=1e-12)
    # a single-edge weight is g({e}) - g(())
    assert weight(SINGLE_EDGE, two_site_model, 1) == pytest.approx(got - 1, rel=1e-12)


def test_g_ratio_zero_coupling_is_one():
    model = make_explicit(2, [[0.0, 0.0], [0.0, 0.0]], beta=0.5)
    assert g_ratio(model, SINGLE_EDGE, ((0, 1),), q=2) == pytest.approx(1.0, abs=1e-14)


def test_single_edge_weight_closed_form(two_site_model):
    assert weight(SINGLE_EDGE, two_site_model, 1) == pytest.approx(
        (math.cosh(0.3) - 1) / 2, rel=1e-12)


def test_weight_zero_couplings_vanish():
    # a zero coupling is no edge of the alphabet, so no polymer carries weight
    model = make_explicit(3, np.zeros((3, 3)), beta=0.7)
    assert weights_at(model, 2, 2) == {}


def test_weight_identity_limit():
    model = make_chain(2, g=0.5, beta=1e-8)
    assert abs(weight(SINGLE_EDGE, model, 2)) <= 1e-6


def test_weight_beta_override():
    # the weight follows model.beta: the two-site fixture's chain at beta = 0.5
    half = weight(SINGLE_EDGE, make_chain(2, g=0.3, beta=0.5, U=1.0, mu=0.0), 1)
    assert half == pytest.approx((math.cosh(0.15) - 1) / 2, rel=1e-12)


def test_weight_smallness_trend_in_beta():
    # |w| shrinks monotonically with beta on the acceptance-scale models and
    # sits under the (c sqrt(beta))^{|gamma|} envelope for a modest c
    two_edge = ((0, 1), (1, 2))
    for poly, n_sites in ((SINGLE_EDGE, 2), (two_edge, 3)):
        values = []
        for beta in (0.05, 0.1, 0.2):
            model = make_chain(n_sites, g=1.0, beta=beta, U=1.0, mu=0.0)
            values.append(abs(weight(poly, model, 5)))
            assert values[-1] <= (2.0 * math.sqrt(beta)) ** len(poly)
        assert values[0] < values[1] < values[2]


def admissible_sets(polymers):
    """All subsets of pairwise-compatible polymers (the empty set included)."""
    out = []
    for r in range(len(polymers) + 1):
        for combo in itertools.combinations(polymers, r):
            if all(
                support(a).isdisjoint(support(b))
                for a, b in itertools.combinations(combo, 2)
            ):
                out.append(combo)
    return out


@pytest.mark.parametrize(
    "model_fn,q",
    [
        (lambda: make_chain(2, g=0.4, beta=0.3, U=1.0, mu=0.2), 1),
        (lambda: make_chain(2, g=0.4, beta=0.3, U=1.0, mu=0.2), 2),
        (lambda: make_chain(3, g=0.3, beta=0.2, U=1.0, mu=0.1, periodic=True), 2),
        (lambda: make_long_range_chain(3, g=0.3, alpha=2.0, beta=0.2), 1),
    ],
)
def test_telescoping_identity(model_fn, q):
    """Sum over admissible polymer sets of prod w equals Z^(q)/Z_W^(q)."""
    model = model_fn()
    edges = interaction_edges(model.couplings, 0.0)
    polymers = enumerate_polymers(edges, len(edges))
    weights = weights_at(model, len(edges), q)

    total = 0.0
    for combo in admissible_sets(polymers):
        term = 1.0
        for p in combo:
            term *= weights[p]
        total += term

    region = range(model.n_sites)
    expected = math.exp(
        restricted_log_partition(model, region, edges, q)
        - restricted_log_partition(model, region, (), q)
    )
    assert total == pytest.approx(expected, rel=1e-8)


def test_compatibility_factorization():
    # support-disjoint polymers: the joint ratio factorizes
    model = make_chain(4, g=0.4, beta=0.3, U=1.0, mu=0.1)
    q = 2
    left = ((0, 1),)
    right = ((2, 3),)

    log_joint = restricted_log_partition(model, [0, 1, 2, 3], [(0, 1), (2, 3)], q)
    log_free = restricted_log_partition(model, [0, 1, 2, 3], (), q)
    ratio_joint = math.exp(log_joint - log_free)

    # a single-edge polymer has g({e}) = 1 + w
    r1, r2 = (1 + weight(p, model, q) for p in (left, right))
    assert ratio_joint == pytest.approx(r1 * r2, rel=1e-10)


def test_weight_table_contract(two_site_model):
    # {edge tuple: float}, in canonical polymer order
    table = weights_at(two_site_model, 1, 1)
    assert list(table) == [SINGLE_EDGE]
    assert type(table[SINGLE_EDGE]) is float

    model = make_long_range_chain(4, g=0.4, alpha=3.0, beta=0.5)
    polymers = enumerate_polymers(interaction_edges(model.couplings, 0.0), 3)
    assert list(weights_at(model, 3, 2)) == polymers


def test_trace_region_choice_cancels():
    # g(T) over the fixed polymer support equals the same ratio computed on
    # the smaller region touched by T: spectator sites cancel in the ratio
    model = make_chain(3, g=0.4, beta=0.3, U=1.0, mu=0.2)
    q = 2
    poly = ((0, 1), (1, 2))
    for subset, touched in [
        ((), ()),
        (((0, 1),), (0, 1)),
        (((1, 2),), (1, 2)),
        (((0, 1), (1, 2)), (0, 1, 2)),
    ]:
        full_region = g_ratio(model, poly, subset, q)
        if touched:
            small = math.exp(
                restricted_log_partition(model, touched, subset, q)
                - restricted_log_partition(model, touched, (), q)
            )
        else:
            small = 1.0
        assert full_region == pytest.approx(small, rel=1e-12)


# --- factorized evaluation ---------------------------------------------------


def brute_force_weight(model, polymer, q):
    """Reference: all 2^|gamma| subset traces, each on the full support."""
    region = sorted(support(polymer))
    log_z_free = restricted_log_partition(model, region, (), q)
    terms = [
        (-1.0) ** size * math.exp(restricted_log_partition(model, region, subset, q) - log_z_free)
        for size in range(len(polymer) + 1)
        for subset in itertools.combinations(polymer, size)
    ]
    return (-1.0) ** len(polymer) * math.fsum(terms)


def disordered(model, seed):
    rng = np.random.default_rng(seed)
    n = model.n_sites
    onsite = OnsiteParams(rng.uniform(0.8, 1.2, n), rng.uniform(0.0, 1.0, n))
    return ModelInstance(model.lattice, model.couplings, onsite, model.beta)


def splits(polymer) -> bool:
    """True when some edge subset of the polymer has several site components."""
    for size in range(2, len(polymer) + 1):
        for subset in itertools.combinations(polymer, size):
            try:
                Polymer(subset)
            except ValueError:
                return True
    return False


def square(dims, g, beta):
    lat = build_lattice(dims)
    coup = build_couplings(lat, "finite_range", g=g, d_c=1)
    return ModelInstance(lat, coup, OnsiteParams.uniform(lat.n_sites, 1.0, 0.0), beta)


@pytest.mark.parametrize(
    "model,q,m",
    [
        (disordered(make_long_range_chain(4, g=0.4, alpha=3.0, beta=0.5), seed=3), 2, 3),
        (disordered(square([2, 3], g=0.3, beta=0.5), seed=4), 2, 4),
    ],
    ids=["long-range-chain4", "square-2x3"],
)
def test_weight_table_matches_brute_force_reference(model, q, m):
    polymers = enumerate_polymers(interaction_edges(model.couplings, 0.0), m)
    assert sum(splits(p) for p in polymers) >= 3
    table = weights_at(model, m, q)
    for p in polymers:
        assert abs(table[p] - brute_force_weight(model, p, q)) <= 1e-13, p


def test_weight_independent_of_table_context():
    model = disordered(make_long_range_chain(5, g=0.4, alpha=3.0, beta=0.5), seed=5)
    m, q = 2, 2
    tables = [weights_at(model, m, q), weights_at(model, m + 1, q)]
    for p in enumerate_polymers(interaction_edges(model.couplings, 0.0), m):
        # the same polymer in a model that keeps only its own couplings
        kept = np.zeros_like(model.couplings)
        for i, j in p:
            kept[i, j] = kept[j, i] = model.coupling(i, j)
        coup = build_couplings(model.lattice, "explicit", matrix=kept)
        alone = ModelInstance(model.lattice, coup, model.onsite, model.beta)
        assert all(t[p] == weight(p, alone, q) for t in tables), p


def test_one_eigensolve_per_sector_block_of_each_polymer(monkeypatch):
    model = make_chain(7, g=0.2, beta=0.5, U=1.0, mu=0.3)
    q = 2
    polymers = enumerate_polymers(interaction_edges(model.couplings, 0.0), 5)
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        calls.append(a.shape[-1])
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    weights_at(model, 5, q)
    bound = sum(
        sum(b.dim > 1 for b in sector_blocks(len(support(p)), q)) for p in polymers
    )
    assert 0 < len(calls) <= bound


# --- 50-digit reference ------------------------------------------------------


def mp_weight(mpmath, model, polymer, q):
    """(w_gamma, sum_T g(T)) with every g(T) a ratio of traces on the
    polymer's whole support, each trace from ``mpmath.eigsy`` on the same
    float64 sector blocks: no factorization into components."""
    region = sorted(support(polymer))
    beta = mpmath.mpf(model.beta)

    def trace(edges):
        H = RegionHamiltonian(model, region, edges, q)
        return mpmath.fsum(
            mpmath.exp(-beta * lam)
            for b in range(len(H.blocks))
            for lam in mpmath.eigsy(mpmath.matrix(H.block(b).tolist()), eigvals_only=True)
        )

    free = trace(())
    ratios = [((-1) ** size, trace(subset) / free)
              for size in range(len(polymer) + 1)
              for subset in itertools.combinations(polymer, size)]
    return (-1) ** len(polymer) * mpmath.fsum(s * g for s, g in ratios), mpmath.fsum(
        g for _, g in ratios)


@pytest.mark.parametrize(
    "model,q",
    [
        (disordered(make_long_range_chain(4, g=0.4, alpha=3.0, beta=0.5), seed=3), 1),
        (disordered(make_chain(4, g=0.3, beta=0.5), seed=1), 2),
    ],
    ids=["long-range-chain4-q1", "chain4-q2"],
)
def test_weights_up_to_size_three_match_a_50_digit_reference(model, q):
    mpmath = pytest.importorskip("mpmath")
    table = weights_at(model, 3, q)
    assert max(len(edges) for edges in table) == 3
    assert_at_float64_floor(mpmath, model, table, q)


def test_cycle_polymer_weights_match_a_50_digit_reference():
    mpmath = pytest.importorskip("mpmath")
    model = disordered(square([2, 2], g=0.3, beta=0.5), seed=2)
    table = weights_at(model, 4, 1)
    plaquette = ((0, 1), (0, 2), (1, 3), (2, 3))
    assert len(table) == 13 and plaquette in table
    assert_at_float64_floor(mpmath, model, table, 1)


def assert_at_float64_floor(mpmath, model, table, q):
    eps = np.finfo(np.float64).eps
    with mpmath.workdps(50):
        for edges, w in table.items():
            want, g_total = mp_weight(mpmath, model, edges, q)
            # the float64 floor: g(T) is a ratio of two traces over |V|
            # sites, each with about one rounding per site (the site-by-site
            # on-site sums, and eigenvalues backward stable to eps |H|), so
            # |d log g(T)| <= 2 eps |V| to first order.  expm1(log g) less the
            # products of smaller weights over the proper subsets equals the
            # alternating sum of the g(T) in exact arithmetic, so to first
            # order the log g errors pass through the same linear map, onto
            # sum_T g(T) |d log g(T)|; the correctly rounded sums add less
            bound = 2 * eps * len(support(edges)) * float(g_total)
            assert abs(float(mpmath.mpf(w) - want)) <= bound, (edges, w, float(want))
