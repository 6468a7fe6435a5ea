"""Loop reference for the integer-coded sector blocks and the oracle's
partial traces.

This is the tuple-based assembly ``bosepoly.fock`` used before its sector
bases became occupation arrays with ascending codes: a recursive
lexicographic basis, a dict from occupation tuple to row, and Python loops
over basis states and edges.  ``reduced_density_blocks`` forms each
sector's rho block from the thermal state's amplitude factor and traces it
by grouping kets on their complement occupation; ``mutual_information`` is
the two-pass form that does this once per side of the bipartition.  The
tests require the vectorized Hamiltonian builder to reproduce these bit for
bit, and the oracle's partial traces to match them within 1e-14.
``thermalize`` solves the sectors in ascending N, the order the oracle's
results are stored in; the oracle's own solve order must not change a bit.
"""

from __future__ import annotations

import math

import numpy as np

from bosepoly.fock import build_block_hamiltonian, logsumexp, onsite_energy, sector_blocks
from bosepoly.lattice import interaction_edges
from bosepoly.oracle import ThermalState, _entropy_from_probabilities


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


def thermalize(model, q: int, beta: float) -> ThermalState:
    """The oracle's thermal state with every sector solved in ascending N."""
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
    return ThermalState(model, q, beta, tuple(blocks), tuple(eigenvalues),
                        tuple(amplitudes), log_z)
