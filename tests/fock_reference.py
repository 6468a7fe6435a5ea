"""Reference builders for the sector Hamiltonians and the oracle.

Two assemblies ``bosepoly.fock`` used before its cached full-space layout:

- the tuple-based loop (``occupation_vectors``, ``block_hamiltonian``): a
  recursive lexicographic basis, a dict from occupation tuple to row, and
  Python loops over basis states and edges;
- the per-sector vectorized builder (``build_block_hamiltonian``): one
  sector's rows at a time, each hop target found among the ascending codes
  with ``searchsorted``, and ``block_log_trace_exp`` deciding from the
  assembled block whether it needs an eigensolve.

The tests require ``fock.RegionHamiltonian`` to reproduce both bit for bit,
and ``fock.restricted_log_partition`` to equal this module's.
``dense_thermal_matrix`` is the full product-basis rho, with no sector
machinery, for tiny lattices.

``thermalize`` is the oracle's thermal state as it was before the oracle
folded its observables one sector at a time: it solves the sectors in
ascending N and holds every sector's amplitude factor W = V diag(sqrt(p)),
with p the Boltzmann weights over the whole lattice, so that the sector's
block of rho is W W^T.  ``moments`` and ``occupation_distribution`` read
that state as the oracle did; ``connected`` reads the two clustering
correlators off each sector's block of rho by occupation tuples.
``reduced_density_blocks`` forms each sector's rho block and traces it by
grouping kets on their complement occupation; ``mutual_information`` is the
two-pass form that does this once per side of the bipartition.  The
oracle's folded observables must match them within 1e-14.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from bosepoly.fock import (
    SectorBlock,
    _symmetric_eigenvalues,
    logsumexp,
    onsite_energy,
    sector_blocks,
)
from bosepoly.lattice import ModelInstance, ResourceCapError, interaction_edges
from bosepoly.oracle import _entropy_from_probabilities


def occupation_vectors(n_sites: int, q: int, total: int):
    """All occupation tuples of length n_sites with entries in 0..q summing
    to ``total``, in lexicographic order."""
    out = []
    vec = [0] * n_sites

    def rec(pos: int, remaining: int):
        if pos == n_sites - 1:
            if remaining <= q:
                vec[pos] = remaining
                out.append(tuple(vec))
            return
        # the sites after pos can absorb at most q each
        cap = q * (n_sites - pos - 1)
        lo = max(0, remaining - cap)
        for n in range(lo, min(q, remaining) + 1):
            vec[pos] = n
            rec(pos + 1, remaining - n)

    if 0 <= total <= q * n_sites:
        rec(0, total)
    return out


def block_hamiltonian(model, region, active_edges, q: int, basis) -> np.ndarray:
    """H on the sector spanned by ``basis`` (occupation tuples over region)."""
    region = tuple(region)
    pos = {site: k for k, site in enumerate(region)}
    active_edges = tuple(tuple(sorted(e)) for e in active_edges)
    index = {occ: k for k, occ in enumerate(basis)}
    dim = len(basis)
    H = np.zeros((dim, dim))

    U = model.onsite.U
    mu = model.onsite.mu
    for k, occ in enumerate(basis):
        H[k, k] = sum(
            onsite_energy(U[site], mu[site], n) for site, n in zip(region, occ)
        )

    for (i, j) in active_edges:
        J = model.coupling(i, j)
        if J == 0.0:
            continue
        pi, pj = pos[i], pos[j]
        for k, occ in enumerate(basis):
            # a_src^dag a_dst for both orientations of the edge
            for src, dst in ((pi, pj), (pj, pi)):
                if occ[dst] >= 1 and occ[src] + 1 <= q:
                    moved = list(occ)
                    moved[dst] -= 1
                    moved[src] += 1
                    t = index[tuple(moved)]
                    H[t, k] += -J * math.sqrt((occ[src] + 1) * occ[dst])
    return H


def build_block_hamiltonian(model, region, active_edges, block: SectorBlock) -> np.ndarray:
    """H on one number sector, built from that sector's rows alone: a hop
    from dst to src moves a state's code by (q+1)^(last-src) -
    (q+1)^(last-dst), and the target is found among the ascending codes."""
    region = tuple(region)
    pos = {site: k for k, site in enumerate(region)}
    active_edges = tuple(tuple(sorted(e)) for e in active_edges)
    q = block.q
    occ, codes = block.occupations, block.codes
    place = (q + 1) ** np.arange(len(region) - 1, -1, -1, dtype=np.int64)
    H = np.zeros((block.dim, block.dim))

    U = model.onsite.U
    mu = model.onsite.mu
    diag = np.zeros(block.dim)
    for k, site in enumerate(region):
        table = np.array([onsite_energy(U[site], mu[site], n) for n in range(q + 1)])
        diag += table[occ[:, k]]
    np.fill_diagonal(H, diag)

    hops = []
    for (i, j) in active_edges:
        J = model.coupling(i, j)
        if J != 0.0:
            hops += [(pos[i], pos[j], J), (pos[j], pos[i], J)]
    if hops:
        src, dst, amp = (np.array(column) for column in zip(*hops))
        ks, h = np.nonzero((occ[:, dst] >= 1) & (occ[:, src] < q))
        targets = np.searchsorted(codes, codes[ks] + place[src[h]] - place[dst[h]])
        H[targets, ks] = -amp[h] * np.sqrt((occ[ks, src[h]] + 1) * occ[ks, dst[h]])
    return H


def block_log_trace_exp(H: np.ndarray, beta: float) -> float:
    """log Tr exp(-beta H) for one symmetric block; a block with no
    off-diagonal nonzero and a finite diagonal skips the eigensolve."""
    diag = np.diag(H)
    if np.count_nonzero(H) == np.count_nonzero(diag) and np.isfinite(diag).all():
        eigvals = diag
    else:
        eigvals = _symmetric_eigenvalues(H)
    return logsumexp(-beta * eigvals)


def restricted_log_partition(model, region, active_edges, q: int, beta=None) -> float:
    """log Tr exp(-beta H) on the region, one reference block per sector."""
    beta = model.beta if beta is None else beta
    return logsumexp([
        block_log_trace_exp(build_block_hamiltonian(model, region, active_edges, block), beta)
        for block in sector_blocks(region, q)
    ])


def dense_thermal_matrix(model, q: int, beta=None) -> tuple:
    """Full (q+1)^N rho over the product basis (tiny N only): every entry of
    H from the tuple loop, no number sectors.

    Returns (basis, rho) with the basis in lexicographic occupation order.
    """
    beta = model.beta if beta is None else beta
    n = model.n_sites
    dim = (q + 1) ** n
    if dim > 4096:
        raise ResourceCapError("truncated space dimension {} exceeds", dim, 4096)
    basis = list(itertools.product(range(q + 1), repeat=n))
    edges = interaction_edges(model.couplings, 0.0)
    H = block_hamiltonian(model, range(n), edges, q, basis)
    lam, vecs = np.linalg.eigh(H)
    weights = np.exp(-beta * lam - logsumexp(-beta * lam))
    rho = (vecs * weights) @ vecs.T
    return basis, rho


def reduced_density_blocks(state, subsystem) -> dict:
    """Tr over the complement by occupation-tuple lookup, per subsystem total."""
    n = state.model.n_sites
    sub = tuple(sorted(subsystem))
    rest = tuple(i for i in range(n) if i not in sub)
    q = state.q
    sub_index = {
        total: {occ: k for k, occ in enumerate(occupation_vectors(len(sub), q, total))}
        for total in range(q * len(sub) + 1)
    }
    reduced = {total: np.zeros((len(idx), len(idx))) for total, idx in sub_index.items()}

    for b, block in enumerate(state.blocks):
        basis = [tuple(int(x) for x in row) for row in block.occupations]
        W = state.amplitudes[b]
        rho_block = W @ W.T
        groups: dict[tuple, list[int]] = {}
        for k, occ in enumerate(basis):
            key = tuple(occ[i] for i in rest)
            groups.setdefault(key, []).append(k)
        for ks in groups.values():
            occ0 = basis[ks[0]]
            n_sub = sum(occ0[i] for i in sub)
            sel = [sub_index[n_sub][tuple(basis[k][i] for i in sub)] for k in ks]
            reduced[n_sub][np.ix_(sel, sel)] += rho_block[np.ix_(ks, ks)]
    return reduced


def mutual_information(state, partition) -> float:
    """I(A:B) with each side's reduced blocks built in its own pass."""
    a, b = (tuple(sorted(part)) for part in partition)
    s_total = 0.0
    for bi in range(len(state.blocks)):
        s_total += _entropy_from_probabilities(state.block_probabilities(bi))

    def reduced_entropy(sites) -> float:
        total = 0.0
        for mat in reduced_density_blocks(state, sites).values():
            if mat.size == 0:
                continue
            total += _entropy_from_probabilities(np.linalg.eigvalsh(mat))
        return total

    return reduced_entropy(a) + reduced_entropy(b) - s_total


@dataclass(frozen=True)
class HeldState:
    """Every sector's eigenvalues and amplitude factor, in ascending N."""

    model: ModelInstance
    q: int
    beta: float
    blocks: tuple
    eigenvalues: tuple
    amplitudes: tuple
    log_z: float

    def block_probabilities(self, block_index: int) -> np.ndarray:
        return np.exp(-self.beta * self.eigenvalues[block_index] - self.log_z)

    def diagonal_probabilities(self, block_index: int) -> np.ndarray:
        """rho's diagonal in the occupation basis of one sector."""
        W = self.amplitudes[block_index]
        return np.einsum("sk,sk->s", W, W)


def thermalize(model, q: int, beta: float) -> HeldState:
    """The thermal state with every sector solved in ascending N and held."""
    region = tuple(range(model.n_sites))
    edges = interaction_edges(model.couplings, 0.0)
    blocks = sector_blocks(region, q)
    eigenvalues = []
    amplitudes = []
    log_terms = []
    for block in blocks:
        lam, vecs = np.linalg.eigh(build_block_hamiltonian(model, region, edges, block))
        eigenvalues.append(lam)
        amplitudes.append(vecs)
        log_terms.append(logsumexp(-beta * lam))
    log_z = logsumexp(log_terms)
    for lam, W in zip(eigenvalues, amplitudes):
        W *= np.exp(0.5 * (-beta * lam - log_z))
    return HeldState(model, q, beta, tuple(blocks), tuple(eigenvalues), tuple(amplitudes), log_z)


def connected(state, family: str, x: int, j: int) -> float:
    """C(a_x^dag, a_j) or C(n_x, n_j), ket by ket over each held sector's
    block of rho, with each hop's target found by its occupation tuple.
    a_x^dag and a_j alone change the number, so their means are 0."""
    xy = mean_x = mean_j = 0.0
    for block, W in zip(state.blocks, state.amplitudes):
        rho = W @ W.T
        kets = [tuple(occ) for occ in block.occupations.tolist()]
        index = {occ: k for k, occ in enumerate(kets)}
        for k, occ in enumerate(kets):
            if family == "density":
                xy += occ[x] * occ[j] * rho[k, k]
                mean_x += occ[x] * rho[k, k]
                mean_j += occ[j] * rho[k, k]
            elif occ[j] >= 1 and occ[x] < state.q:
                moved = list(occ)
                moved[j] -= 1
                moved[x] += 1
                xy += math.sqrt((occ[x] + 1) * occ[j]) * rho[k, index[tuple(moved)]]
    return xy - mean_x * mean_j


def moments(state, site: int, l_max: int) -> list[float]:
    """[Tr(n_site^l rho) for l = 1..l_max] as sums over the held diagonal."""
    out = [0.0] * l_max
    for b, block in enumerate(state.blocks):
        diag = state.diagonal_probabilities(b)
        occ = block.occupations[:, site].astype(np.float64)
        for l in range(1, l_max + 1):
            out[l - 1] += float((occ**l * diag).sum())
    return out


def occupation_distribution(state, site: int) -> list[float]:
    """p_n at one site, summed ket by ket over the held diagonal."""
    p = np.zeros(state.q + 1)
    for b, block in enumerate(state.blocks):
        np.add.at(p, block.occupations[:, site], state.diagonal_probabilities(b))
    return [float(x) for x in p]
