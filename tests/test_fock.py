import itertools
import math

import numpy as np
import pytest

from bosepoly.fock import (
    EigensolverError,
    block_log_trace_exp,
    build_block_hamiltonian,
    occupation_codes,
    onsite_energy,
    restricted_log_partition,
    sector_blocks,
)
from bosepoly.lattice import ModelInstance, OnsiteParams

import fock_reference
from conftest import make_chain, make_explicit, make_long_range_chain


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
    for block in sector_blocks(region, q):
        basis = [tuple(r) for r in block.occupations.tolist()]
        want = fock_reference.block_hamiltonian(model, region, edges, q, basis)
        got = build_block_hamiltonian(model, region, edges, block)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes(), f"sector {block.total}"


def test_block_hamiltonian_no_edges_is_diagonal():
    model = make_chain(3, g=0.5, beta=1.0, U=1.0, mu=0.25)
    blocks = sector_blocks([0, 1, 2], 2)
    for block in blocks:
        H = build_block_hamiltonian(model, [0, 1, 2], [], block)
        assert np.count_nonzero(H - np.diag(np.diag(H))) == 0


def test_block_hamiltonian_two_site_hop():
    model = make_chain(2, g=0.3, beta=1.0, U=2.0, mu=0.0)
    block = sector_blocks([0, 1], 1)[1]  # N_tot = 1
    H = build_block_hamiltonian(model, [0, 1], [(0, 1)], block)
    assert np.allclose(H, [[0.0, -0.3], [-0.3, 0.0]])
    assert np.allclose(np.linalg.eigvalsh(H), [-0.3, 0.3])


def test_block_hamiltonian_cutoff_kills_hopping():
    # N_tot = 2 with q = 1 is the single state |1,1>; hopping would push a
    # site to n = 2 and is projected away
    model = make_chain(2, g=0.3, beta=1.0, U=2.0, mu=0.0)
    block = sector_blocks([0, 1], 1)[2]
    H = build_block_hamiltonian(model, [0, 1], [(0, 1)], block)
    assert H.shape == (1, 1)
    assert H[0, 0] == 2 * onsite_energy(2.0, 0.0, 1)


def test_block_hamiltonian_edge_outside_region():
    model = make_chain(3, g=0.5, beta=1.0)
    block = sector_blocks([0, 1], 1)[1]
    with pytest.raises(ValueError):
        build_block_hamiltonian(model, [0, 1], [(1, 2)], block)


def test_block_hamiltonian_rejects_repeated_edges_and_self_loops():
    model = make_chain(3, g=0.5, beta=1.0)
    block = sector_blocks([0, 1, 2], 1)[1]
    with pytest.raises(ValueError, match="distinct"):
        build_block_hamiltonian(model, [0, 1, 2], [(0, 1), (1, 0)], block)
    with pytest.raises(ValueError, match="self-loop"):
        build_block_hamiltonian(model, [0, 1, 2], [(1, 1)], block)


def test_block_log_trace_exp_closed_forms():
    assert block_log_trace_exp(np.array([[2.5]]), 0.7) == pytest.approx(-0.7 * 2.5)

    hop = np.array([[0.0, -0.4], [-0.4, 0.0]])
    beta = 1.3
    assert block_log_trace_exp(hop, beta) == pytest.approx(
        math.log(math.exp(beta * 0.4) + math.exp(-beta * 0.4))
    )

    assert block_log_trace_exp(np.zeros((3, 3)), 2.0) == pytest.approx(math.log(3))


def test_block_log_trace_exp_matches_direct_sum():
    rng = np.random.default_rng(7)
    for _ in range(10):
        dim = rng.integers(2, 8)
        A = rng.normal(size=(dim, dim))
        H = (A + A.T) / 2
        got = block_log_trace_exp(H, 0.9)
        direct = math.log(sum(math.exp(-0.9 * lam) for lam in np.linalg.eigvalsh(H)))
        assert got == pytest.approx(direct, rel=1e-12)


def test_diagonal_blocks_skip_the_eigensolve(monkeypatch):
    def refuse(matrix):
        raise AssertionError("diagonal block reached the eigensolver")

    diag = np.array([0.5, -1.0, 0.0])
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    got = block_log_trace_exp(np.diag(diag), 1.1)
    assert got == pytest.approx(math.log(np.exp(-1.1 * diag).sum()), rel=1e-14)
    monkeypatch.undo()

    # a non-finite diagonal is not taken for a diagonal block
    with pytest.raises(EigensolverError):
        block_log_trace_exp(np.diag([0.5, np.nan, 0.0]), 1.1)


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
    for block in sector_blocks(region, q):
        H = build_block_hamiltonian(model, region, edges, block)
        sel = [index[occ] for occ in map(tuple, block.occupations.tolist())]
        rebuilt[np.ix_(sel, sel)] = H
    assert np.array_equal(rebuilt, dense)  # hopping never leaves a sector
