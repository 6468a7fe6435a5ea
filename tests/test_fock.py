import itertools
import math
import re
import warnings

import numpy as np
import pytest

import bosepoly.fock
from bosepoly.fock import (
    EigensolverError,
    RegionHamiltonian,
    _layout,
    _symmetric_eigenvalues,
    check_dim_cap,
    hop_entries,
    occupation_codes,
    onsite_energy,
    onsite_log_trace,
    restricted_log_partition,
    sector_blocks,
)
from bosepoly.lattice import (
    ModelInstance,
    OnsiteParams,
    ResourceCapError,
    interaction_edges,
    scientific,
)

import fock_reference
from conftest import make_chain, make_explicit, make_long_range_chain, weights_at


def test_onsite_energy_values():
    assert onsite_energy(1.0, 0.5, 0) == 0.0
    assert onsite_energy(1.0, 0.5, 1) == -0.5
    assert onsite_energy(1.0, 0.5, 2) == 0.0  # U*1 - 2*mu = 1 - 1
    assert onsite_energy(2.0, 0.0, 3) == 6.0


def test_sector_block_dims_two_sites_q1():
    blocks = sector_blocks([0, 1], 1)
    assert [b.dim for b in blocks] == [1, 2, 1]


def test_sector_block_dims_single_site():
    blocks = sector_blocks([0], 3)
    assert [b.dim for b in blocks] == [1, 1, 1, 1]


@pytest.mark.parametrize("n_sites,q", [(1, 5), (2, 4), (3, 2), (3, 5), (4, 3)])
def test_sector_completeness(n_sites, q):
    blocks = sector_blocks(list(range(n_sites)), q)
    assert sum(b.dim for b in blocks) == (q + 1) ** n_sites
    # each occupation vector appears exactly once across blocks
    seen = set()
    for b in blocks:
        for occ in map(tuple, b.occupations.tolist()):
            assert occ not in seen
            assert sum(occ) == b.total
            seen.add(occ)
    assert len(seen) == (q + 1) ** n_sites


@pytest.mark.parametrize("n_sites,q", [(1, 0), (1, 4), (2, 3), (3, 2), (4, 1), (4, 4)])
def test_sector_rows_lexicographic_with_ascending_codes(n_sites, q):
    region = tuple(range(10, 10 + n_sites))
    blocks = sector_blocks(region, q)
    assert [b.total for b in blocks] == list(range(q * n_sites + 1))
    for b in blocks:
        rows = b.occupations.tolist()
        assert b.region == region and b.q == q and b.dim == len(rows)
        assert [tuple(r) for r in rows] == fock_reference.occupation_vectors(n_sites, q, b.total)
        assert rows == sorted(rows)
        assert b.occupations.min() >= 0 and b.occupations.max() <= q
        assert np.array_equal(b.occupations.sum(axis=1), np.full(b.dim, b.total))
        assert np.all(np.diff(b.codes) > 0)
        assert np.array_equal(b.codes, occupation_codes(b.occupations, q))
        assert b.codes.tolist() == [
            sum(n * (q + 1) ** (n_sites - 1 - k) for k, n in enumerate(r)) for r in rows
        ]


def _disordered(model, seed):
    rng = np.random.default_rng(seed)
    n = model.n_sites
    onsite = OnsiteParams(rng.uniform(0.8, 1.2, n), rng.uniform(-0.3, 1.0, n))
    return ModelInstance(model.lattice, model.couplings, onsite, model.beta)


def _zero_edge_explicit():
    matrix = np.zeros((5, 5))
    for (i, j), J in {(0, 1): 0.31, (0, 3): -0.17, (1, 2): 0.0, (2, 4): 0.23,
                      (3, 4): 0.0, (1, 4): 0.05}.items():
        matrix[i, j] = matrix[j, i] = J
    return make_explicit(5, matrix, beta=0.7)


# (model, region, edges): a non-contiguous region of an alpha=3 chain with
# every pair hopping, a contiguous one listed out of order, and explicit
# couplings whose edge list includes J=0 edges
_BUILDER_CASES = {
    "long-range-(1,4,5)": (
        lambda: _disordered(make_long_range_chain(6, g=0.4, alpha=3.0, beta=0.5), 1),
        (1, 4, 5), [(1, 4), (1, 5), (4, 5)],
    ),
    "long-range-(3,0,2,1)": (
        lambda: _disordered(make_long_range_chain(4, g=0.4, alpha=3.0, beta=0.5), 2),
        (3, 0, 2, 1), [(0, 1), (2, 0), (0, 3), (1, 2), (3, 1), (2, 3)],
    ),
    "explicit-zero-edges": (
        lambda: _disordered(_zero_edge_explicit(), 3),
        (0, 1, 2, 3, 4), [(0, 1), (0, 3), (1, 2), (2, 4), (3, 4), (1, 4)],
    ),
}


@pytest.mark.parametrize("q", [1, 2, 3, 4])
@pytest.mark.parametrize("case", sorted(_BUILDER_CASES))
def test_block_hamiltonian_bytes_equal_loop_reference(case, q):
    make, region, edges = _BUILDER_CASES[case]
    model = make()
    H = RegionHamiltonian(model, region, edges, q)
    for b, block in enumerate(H.blocks):
        basis = [tuple(r) for r in block.occupations.tolist()]
        want = fock_reference.block_hamiltonian(model, region, edges, q, basis)
        got = H.block(b)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes(), f"sector {block.total}"


def _all_pairs(sites):
    return [(i, j) for k, i in enumerate(sites) for j in sites[k + 1:]]


# the builder cases, plus all six sites of an alpha=3 chain hopping pairwise,
# no edges at all, and a lone J=0 edge
_REFERENCE_CASES = dict(_BUILDER_CASES, **{
    "long-range-all-pairs-6": (
        lambda: _disordered(make_long_range_chain(6, g=0.4, alpha=3.0, beta=0.5), 4),
        tuple(range(6)), _all_pairs(tuple(range(6))),
    ),
    "no-edges-(0,2,5)": (
        lambda: _disordered(make_long_range_chain(6, g=0.4, alpha=3.0, beta=0.5), 5),
        (0, 2, 5), [],
    ),
    "zero-J-edge": (lambda: _disordered(_zero_edge_explicit(), 6), (1, 2, 3), [(1, 2)]),
})


@pytest.mark.parametrize("q", [1, 2, 3])
@pytest.mark.parametrize("case", sorted(_REFERENCE_CASES))
def test_region_blocks_equal_per_sector_reference(case, q):
    make, region, edges = _REFERENCE_CASES[case]
    model = make()
    H = RegionHamiltonian(model, region, edges, q)
    for b, block in enumerate(H.blocks):
        want = fock_reference.build_block_hamiltonian(model, region, edges, block)
        assert np.array_equal(H.block(b), want), f"sector {block.total}"
    got = restricted_log_partition(model, region, edges, q)
    assert got == fock_reference.restricted_log_partition(model, region, edges, q)


def _reference_hops(rows, pairs, q):
    """(source, pair index, target, factor) of every a_a^dag a_b move out of
    the occupation tuples ``rows``, moved one boson at a time."""
    out = []
    for source in rows:
        for k, (a, b) in enumerate(pairs):
            if source[b] >= 1 and source[a] < q:
                target = list(source)
                target[a] += 1
                target[b] -= 1
                out.append((source, k, tuple(target), math.sqrt((source[a] + 1) * source[b])))
    return out


@pytest.mark.parametrize("q", [1, 2, 3])
@pytest.mark.parametrize("width", [1, 2, 3, 4])
def test_hop_entries_match_occupation_tuple_reference(width, q):
    pairs = list(itertools.permutations(range(width), 2))
    sectors = sector_blocks(range(width), q)
    full = _layout(width, q)
    for occupations, codes in [full[:2]] + [(s.occupations, s.codes) for s in sectors]:
        rows = [tuple(r) for r in occupations.tolist()]
        sources, pair, targets, factors = hop_entries(occupations, codes, q, pairs)
        assert list(zip(sources, pair)) == sorted(zip(sources, pair))
        got = [(rows[s], k, tuple(sectors[sum(rows[s])].occupations[t].tolist()), f)
               for s, k, t, f in zip(sources.tolist(), pair.tolist(), targets.tolist(),
                                     factors.tolist())]
        assert sorted(got) == sorted(_reference_hops(rows, pairs, q))
        for source, k, target, factor in got:
            a, b = pairs[k]
            assert source[b] >= 1 and source[a] < q and target[a] <= q
            assert factor == math.sqrt((source[a] + 1) * source[b])
    assert [len(x) for x in hop_entries(full[0], full[1], q, [])] == [0, 0, 0, 0]


def test_layout_is_built_once_per_size_and_cutoff():
    # the approx-chain-deep shape: a disordered 7-site chain, m=5, q=3, whose
    # polymers have supports of 2 to 6 sites
    model = _disordered(make_chain(7, g=0.2, beta=0.5), 1)
    _layout.cache_clear()
    weights_at(model, 5, 3)
    info = _layout.cache_info()
    assert info.misses == info.currsize == 5 and info.hits > 0
    blocks = sector_blocks((4, 5, 6), 3)
    assert _layout.cache_info().misses == 5
    assert not any(b.occupations.flags.writeable or b.codes.flags.writeable for b in blocks)


def test_block_hamiltonian_no_edges_is_diagonal():
    model = make_chain(3, g=0.5, beta=1.0, U=1.0, mu=0.25)
    H = RegionHamiltonian(model, [0, 1, 2], [], 2)
    for b in range(len(H.blocks)):
        block = H.block(b)
        assert np.count_nonzero(block - np.diag(np.diag(block))) == 0


def test_block_hamiltonian_two_site_hop():
    model = make_chain(2, g=0.3, beta=1.0, U=2.0, mu=0.0)
    H = RegionHamiltonian(model, [0, 1], [(0, 1)], 1).block(1)  # N_tot = 1
    assert np.allclose(H, [[0.0, -0.3], [-0.3, 0.0]])
    assert np.allclose(np.linalg.eigvalsh(H), [-0.3, 0.3])


def test_block_hamiltonian_cutoff_kills_hopping():
    # N_tot = 2 with q = 1 is the single state |1,1>; hopping would push a
    # site to n = 2 and is projected away
    model = make_chain(2, g=0.3, beta=1.0, U=2.0, mu=0.0)
    H = RegionHamiltonian(model, [0, 1], [(0, 1)], 1).block(2)
    assert H.shape == (1, 1)
    assert H[0, 0] == 2 * onsite_energy(2.0, 0.0, 1)


def test_block_hamiltonian_edge_outside_region():
    model = make_chain(3, g=0.5, beta=1.0)
    message = r"^edge \(1, 2\) is not inside region \(0, 1\)$"
    with pytest.raises(ValueError, match=message):
        RegionHamiltonian(model, [0, 1], [(1, 2)], 1)
    with pytest.raises(ValueError, match=message):
        restricted_log_partition(model, [0, 1], [(2, 1)], 1)


def test_block_hamiltonian_rejects_repeated_edges_and_self_loops():
    model = make_chain(3, g=0.5, beta=1.0)
    with pytest.raises(ValueError, match="^active_edges must be distinct$"):
        RegionHamiltonian(model, [0, 1, 2], [(0, 1), (1, 0)], 1)
    with pytest.raises(ValueError, match=r"^self-loop edge \(1, 1\)$"):
        RegionHamiltonian(model, [0, 1, 2], [(1, 1)], 1)
    with pytest.raises(ValueError, match="^active_edges must be distinct$"):
        restricted_log_partition(model, [0, 1, 2], [(1, 2), (2, 1)], 1)


def test_block_log_trace_exp_closed_forms():
    # one site: each sector is one state, traced from its on-site energy
    model = make_explicit(1, np.zeros((1, 1)), beta=0.7, U=1.3, mu=0.4)
    H = RegionHamiltonian(model, [0], [], 3)
    for n in range(4):
        assert H.log_trace_exp(n, 0.7) == -0.7 * onsite_energy(1.3, 0.4, n)

    # two sites at q=1 and mu=0, where every on-site energy is 0: the N=1
    # sector is one hop, log(2 cosh(beta J))
    model = make_chain(2, g=0.4, beta=1.3)
    J = model.coupling(0, 1)
    H = RegionHamiltonian(model, [0, 1], [(0, 1)], 1)
    assert H.log_trace_exp(1, 1.3) == pytest.approx(math.log(2 * math.cosh(1.3 * J)), rel=1e-14)

    # no edges at q=1 and mu=0: every state has energy 0, so each sector
    # gives log(dim)
    model = make_chain(4, g=0.4, beta=2.0)
    H = RegionHamiltonian(model, [0, 1, 2, 3], [], 1)
    for b, block in enumerate(H.blocks):
        assert H.log_trace_exp(b, 2.0) == pytest.approx(math.log(block.dim), rel=1e-15)


def test_block_log_trace_exp_matches_direct_sum():
    # every sector of all-pairs alpha=3 chains against the direct sum over
    # the reference block's eigenvalues
    for seed, (n, q) in enumerate(((4, 1), (4, 2), (3, 3))):
        model = _disordered(make_long_range_chain(n, g=0.4, alpha=3.0, beta=0.9), seed)
        edges = interaction_edges(model.couplings, 0.0)
        H = RegionHamiltonian(model, range(n), edges, q)
        for b, block in enumerate(H.blocks):
            ref = fock_reference.build_block_hamiltonian(model, range(n), edges, block)
            direct = math.log(sum(math.exp(-0.9 * lam) for lam in np.linalg.eigvalsh(ref)))
            assert H.log_trace_exp(b, 0.9) == pytest.approx(direct, rel=1e-12)


def test_diagonal_blocks_skip_the_eigensolve(monkeypatch):
    # q=2 on (0, 2, 3) with one edge: only N=0 and N=6 are out of the hop's
    # reach; the reference finds the same sectors by scanning each block
    model = _disordered(make_long_range_chain(4, g=0.4, alpha=3.0, beta=0.5), 7)
    region, edges, q = (0, 2, 3), [(0, 2)], 2
    want = fock_reference.restricted_log_partition(model, region, edges, q)
    hopping = [
        b.dim for b in sector_blocks(region, q)
        if np.count_nonzero(fock_reference.build_block_hamiltonian(model, region, edges, b))
        > b.dim
    ]
    assert len(hopping) == len(sector_blocks(region, q)) - 2

    solved = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: solved.append(len(m)) or eigvalsh(m))
    assert restricted_log_partition(model, region, edges, q) == want
    assert solved == hopping
    solved.clear()
    got = restricted_log_partition(model, region, [], q)
    assert solved == []
    assert got == pytest.approx(
        fock_reference.restricted_log_partition(model, region, [], q), rel=1e-15
    )



def test_an_overflowing_entry_is_refused_without_a_warning():
    # at q=3, U n(n-1)/2 overflows at every site for U = 1e308; at q=2 each
    # site's W(2) = U is finite but two of them overflow; at g = 1e308,
    # -J sqrt((n_src + 1) n_dst) overflows for n_src = n_dst = 1
    huge_u = make_chain(2, g=0.3, beta=1.0, U=1e308)
    cases = [
        (huge_u, [], 3, "on-site energy at site 0 is not finite"),
        (huge_u, [], 2, "on-site energy summed over sites (0, 1) is not finite"),
        (make_chain(3, g=1e308, beta=1.0), [(1, 2)], 2,
         "hopping amplitude on edge (1, 2) is not finite"),
    ]
    for model, edges, q, message in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ArithmeticError, match=re.escape(message)):
                RegionHamiltonian(model, range(model.n_sites), edges, q)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ArithmeticError, match="on-site energy at site 1 is not finite"):
            onsite_log_trace(huge_u, [1, 0], 3, 1.0)


def test_an_overflowing_beta_times_energy_is_refused_without_a_warning():
    # at U=1e307 and q=2 every entry is finite, but beta=100 takes W(2) = U
    # past the float range: in the hopping N=2 sector, in the hop-free N=4
    # sector (traced from its diagonal), and in each site's free trace
    model = make_chain(2, g=0.3, beta=100.0, U=1e307)
    H = RegionHamiltonian(model, range(2), [(0, 1)], 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for b in (2, 4):
            with pytest.raises(ArithmeticError, match=f"beta \\* E in the N={b} sector"):
                H.log_trace_exp(b, 100.0)
        with pytest.raises(ArithmeticError, match=r"beta \* E at site 1 is not finite"):
            onsite_log_trace(model, [1, 0], 2, 100.0)
    assert math.isfinite(H.log_trace_exp(2, 1.0))


def test_dimension_cap_past_2_to_the_65536_is_shown_from_the_logarithm():
    # the unformed power's d.dddde+X is the one the formed power would show
    for q, width in ((1, 65537), (2, 50000), (3, 40000)):
        with pytest.raises(ResourceCapError) as err:
            check_dim_cap(q, width)
        assert err.value.details[0] == f"required={scientific(math.log10((q + 1) ** width))}"


def test_dimension_cap_is_read_at_call_time(monkeypatch):
    check_dim_cap(9, 4)  # 10^4 states fit the cap of 20000
    monkeypatch.setattr(bosepoly.fock, "DEFAULT_DIM_CAP", 100)
    with pytest.raises(ResourceCapError) as err:
        check_dim_cap(9, 4)
    assert err.value.details == ["required=10000", "allowed=100"]


def test_restricted_log_partition_single_site():
    model = make_chain(1, g=0.5, beta=1.0, U=1.0, mu=0.0)
    assert restricted_log_partition(model, [0], [], 1) == pytest.approx(math.log(2))


def test_restricted_log_partition_two_site_closed_form(two_site_model):
    got = restricted_log_partition(two_site_model, [0, 1], [(0, 1)], 1)
    assert got == pytest.approx(math.log(2 + 2 * math.cosh(0.3)), rel=1e-12)


def test_restricted_log_partition_product_state():
    model = make_chain(3, g=0.5, beta=0.8, U=1.3, mu=0.2)
    q = 3
    got = restricted_log_partition(model, [0, 1, 2], [], q)
    expect = 3 * math.log(
        sum(math.exp(-0.8 * onsite_energy(1.3, 0.2, n)) for n in range(q + 1))
    )
    assert got == pytest.approx(expect, rel=1e-12)


def test_restricted_log_partition_infinite_temperature():
    model = make_chain(3, g=0.5, beta=1.0)
    for q in (1, 2, 4):
        got = restricted_log_partition(model, [0, 1, 2], [(0, 1), (1, 2)], q, beta=0.0)
        assert got == pytest.approx(3 * math.log(q + 1), abs=1e-12)


def test_restricted_log_partition_monotone_in_q(two_site_model):
    values = [
        restricted_log_partition(two_site_model, [0, 1], [(0, 1)], q)
        for q in range(1, 6)
    ]
    assert all(b >= a for a, b in zip(values, values[1:]))


def _dense_hamiltonian(model, region, edges, q):
    """Direct (q+1)^|L| assembly over the product basis, no number blocking."""
    region = tuple(region)
    basis = list(itertools.product(range(q + 1), repeat=len(region)))
    index = {occ: k for k, occ in enumerate(basis)}
    dim = len(basis)
    H = np.zeros((dim, dim))
    for k, occ in enumerate(basis):
        H[k, k] = sum(
            onsite_energy(model.onsite.U[s], model.onsite.mu[s], n)
            for s, n in zip(region, occ)
        )
    pos = {s: i for i, s in enumerate(region)}
    for (i, j) in edges:
        J = model.coupling(i, j)
        for k, occ in enumerate(basis):
            for src, dst in ((pos[i], pos[j]), (pos[j], pos[i])):
                if occ[dst] >= 1 and occ[src] + 1 <= q:
                    moved = list(occ)
                    moved[dst] -= 1
                    moved[src] += 1
                    H[index[tuple(moved)], k] += -J * math.sqrt((occ[src] + 1) * occ[dst])
    return basis, H


@pytest.mark.parametrize("n_sites,q", [(2, 3), (3, 2), (3, 3)])
def test_block_assembly_matches_dense(n_sites, q):
    matrix = np.zeros((n_sites, n_sites))
    rng = np.random.default_rng(3)
    for i in range(n_sites):
        for j in range(i + 1, n_sites):
            matrix[i, j] = matrix[j, i] = rng.normal() * 0.3
    model = make_explicit(n_sites, matrix, beta=0.7, U=1.1, mu=0.2)
    region = tuple(range(n_sites))
    edges = [(i, j) for i in range(n_sites) for j in range(i + 1, n_sites)]

    basis, dense = _dense_hamiltonian(model, region, edges, q)
    index = {occ: k for k, occ in enumerate(basis)}

    rebuilt = np.zeros_like(dense)
    H = RegionHamiltonian(model, region, edges, q)
    for b, block in enumerate(H.blocks):
        sel = [index[occ] for occ in map(tuple, block.occupations.tolist())]
        rebuilt[np.ix_(sel, sel)] = H.block(b)
    assert np.array_equal(rebuilt, dense)  # hopping never leaves a sector


def test_non_finite_eigenvalue_names_the_block(monkeypatch):
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda matrix: np.full(len(matrix), np.nan))
    with pytest.raises(EigensolverError, match=r"non-finite eigenvalues on a \(3, 3\) block"):
        _symmetric_eigenvalues(np.eye(3))
