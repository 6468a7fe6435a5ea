"""Truncated Fock spaces, number-sector blocks, and stable thermal traces.

Per-site occupations are capped at q (the projected Hamiltonian Pi H Pi:
hopping amplitudes that would push any site above the cutoff are zero).
Because hopping conserves the total boson number, the (q+1)^|L| space
splits into sectors of fixed total occupation; each trace is computed
block by block with a symmetric eigendecomposition and accumulated with
log-sum-exp in canonical sector order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattice import ModelInstance

__all__ = [
    "EigensolverError",
    "SectorBlock",
    "BlockMatrix",
    "onsite_energy",
    "occupation_vectors",
    "sector_blocks",
    "build_block_hamiltonian",
    "block_log_trace_exp",
    "restricted_log_partition",
    "logsumexp",
    "onsite_log_trace",
]


class EigensolverError(RuntimeError):
    """A symmetric eigensolve failed to converge or returned non-finite data."""


def onsite_energy(U: float, mu: float, n: int) -> float:
    """W(n) = U n(n-1)/2 - mu n."""
    if n < 0:
        raise ValueError("occupation must be nonnegative")
    return 0.5 * U * n * (n - 1) - mu * n


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


@dataclass(frozen=True)
class SectorBlock:
    """Basis of occupation vectors over ``region`` with fixed total number."""

    region: tuple[int, ...]
    q: int
    total: int
    basis: tuple[tuple[int, ...], ...]

    @property
    def dim(self) -> int:
        return len(self.basis)

    def index(self) -> dict:
        return {occ: k for k, occ in enumerate(self.basis)}


@dataclass(frozen=True)
class BlockMatrix:
    """Dense real symmetric Hamiltonian restricted to one number sector."""

    block: SectorBlock
    entries: np.ndarray


def sector_blocks(region, q: int) -> list[SectorBlock]:
    """Number-sector bases for N_tot = 0 .. q*|region|.

    The block bases partition the (q+1)^|region| per-site-truncated space.
    """
    region = tuple(region)
    if not region:
        raise ValueError("region must be nonempty")
    if q < 0:
        raise ValueError("cutoff q must be nonnegative")
    blocks = []
    for total in range(q * len(region) + 1):
        basis = tuple(occupation_vectors(len(region), q, total))
        blocks.append(SectorBlock(region, q, total, basis))
    return blocks


def build_block_hamiltonian(
    model: ModelInstance,
    region,
    active_edges,
    block: SectorBlock,
) -> BlockMatrix:
    """Assemble H restricted to one number sector.

    Diagonal: sum of on-site energies.  Off-diagonal: -J_ij sqrt((n_i+1) n_j)
    for each active edge, with amplitudes leaving the per-site cutoff set to
    zero.  Only edges inside ``region`` are allowed.
    """
    region = tuple(region)
    pos = {site: k for k, site in enumerate(region)}
    active_edges = tuple(tuple(sorted(e)) for e in active_edges)
    if len(set(active_edges)) != len(active_edges):
        raise ValueError("active_edges must be distinct")
    for (i, j) in active_edges:
        if i == j:
            raise ValueError(f"self-loop edge ({i}, {j})")
        if i not in pos or j not in pos:
            raise ValueError(f"edge ({i}, {j}) is not inside region {region}")

    q = block.q
    index = block.index()
    dim = block.dim
    H = np.zeros((dim, dim))

    U = model.onsite.U
    mu = model.onsite.mu
    for k, occ in enumerate(block.basis):
        H[k, k] = sum(
            onsite_energy(U[site], mu[site], n) for site, n in zip(region, occ)
        )

    for (i, j) in active_edges:
        J = model.coupling(i, j)
        if J == 0.0:
            continue
        pi, pj = pos[i], pos[j]
        for k, occ in enumerate(block.basis):
            # a_src^dag a_dst for both orientations of the edge
            for src, dst in ((pi, pj), (pj, pi)):
                if occ[dst] >= 1 and occ[src] + 1 <= q:
                    moved = list(occ)
                    moved[dst] -= 1
                    moved[src] += 1
                    t = index[tuple(moved)]
                    H[t, k] += -J * math.sqrt((occ[src] + 1) * occ[dst])

    return BlockMatrix(block, H)


def logsumexp(values) -> float:
    """log sum exp over a 1-d collection, stable under large magnitudes."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        return -np.inf
    m = arr.max()
    if not np.isfinite(m):
        return float(m)
    return float(m + np.log(np.exp(arr - m).sum()))


def onsite_log_trace(model: ModelInstance, sites, q: int, beta: float) -> float:
    """log Tr exp(-beta W) over ``sites`` with all hopping off: the per-site
    on-site sums, added in the order the sites are given."""
    if q < 0:
        raise ValueError("q must be nonnegative")
    total = 0.0
    for site in sites:
        U, mu = model.onsite.U[site], model.onsite.mu[site]
        total += logsumexp([-beta * onsite_energy(U, mu, n) for n in range(q + 1)])
    return total


def _symmetric_eigenvalues(matrix: np.ndarray) -> np.ndarray:
    try:
        eigvals = np.linalg.eigvalsh(matrix)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"eigensolve failed on a {matrix.shape} block") from exc
    if not np.all(np.isfinite(eigvals)):
        raise EigensolverError("eigensolver returned non-finite eigenvalues")
    return eigvals


def block_log_trace_exp(matrix: BlockMatrix, beta: float) -> float:
    """log Tr exp(-beta H) for one symmetric block.

    Diagonal blocks skip the eigensolve; the general path diagonalizes and
    reduces via log-sum-exp shifted by the minimal eigenvalue.
    """
    H = matrix.entries
    diag = np.diag(H)
    if np.count_nonzero(H - np.diag(diag)) == 0:
        eigvals = diag
    else:
        eigvals = _symmetric_eigenvalues(H)
    return logsumexp(-beta * eigvals)


def restricted_log_partition(
    model: ModelInstance,
    region,
    active_edges,
    q: int,
    beta: float | None = None,
) -> float:
    """log Tr_L (Pi_{L,q} exp(-beta H_L)) with hopping only on active_edges.

    The trace runs over the per-site-truncated space of the region,
    decomposed into number sectors; sector contributions are combined with
    log-sum-exp in canonical N_tot order.
    """
    if beta is None:
        beta = model.beta
    region = tuple(region)
    active_edges = tuple(active_edges)
    values = []
    for block in sector_blocks(region, q):
        bm = build_block_hamiltonian(model, region, active_edges, block)
        values.append(block_log_trace_exp(bm, beta))
    return logsumexp(values)
