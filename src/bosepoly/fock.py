"""Truncated Fock spaces, number-sector blocks, and stable thermal traces.

Per-site occupations are capped at q (the projected Hamiltonian Pi H Pi:
hopping amplitudes that would push any site above the cutoff are zero).
Because hopping conserves the total boson number, the (q+1)^|L| space
splits into sectors of fixed total occupation; each trace is computed
block by block with a symmetric eigendecomposition and accumulated with
log-sum-exp in canonical sector order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import ModelInstance

__all__ = [
    "EigensolverError",
    "SectorBlock",
    "onsite_energy",
    "occupation_codes",
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


@dataclass(frozen=True, eq=False)
class SectorBlock:
    """Basis of occupation vectors over ``region`` with fixed total number.

    ``occupations`` holds one row per basis state (``dim x |region|``, in
    lexicographic order) and ``codes`` the rows read as base-(q+1) numbers,
    first site most significant, so the codes ascend strictly.
    """

    region: tuple[int, ...]
    q: int
    total: int
    occupations: np.ndarray
    codes: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.codes)


def _place_values(width: int, q: int) -> np.ndarray:
    """(q+1)^(width-1), ..., (q+1)^0: the weight of each column in a code."""
    return (q + 1) ** np.arange(width - 1, -1, -1, dtype=np.int64)


def occupation_codes(occupations: np.ndarray, q: int) -> np.ndarray:
    """Base-(q+1) codes of occupation rows, first column most significant."""
    return occupations @ _place_values(occupations.shape[1], q)


def sector_blocks(region, q: int) -> list[SectorBlock]:
    """Number-sector bases for N_tot = 0 .. q*|region|.

    The block bases partition the (q+1)^|region| per-site-truncated space.
    """
    region = tuple(region)
    if not region:
        raise ValueError("region must be nonempty")
    if q < 0:
        raise ValueError("cutoff q must be nonnegative")
    # every code of the full space, digits read off; a stable sort by total
    # keeps each sector's rows in ascending code (lexicographic) order
    codes = np.arange((q + 1) ** len(region), dtype=np.int64)
    occupations = codes[:, None] // _place_values(len(region), q) % (q + 1)
    totals = occupations.sum(axis=1)
    order = np.argsort(totals, kind="stable")
    return [
        SectorBlock(region, q, total, occupations[rows], codes[rows])
        for total, rows in enumerate(np.split(order, np.cumsum(np.bincount(totals))[:-1]))
    ]


def build_block_hamiltonian(
    model: ModelInstance,
    region,
    active_edges,
    block: SectorBlock,
) -> np.ndarray:
    """Assemble H restricted to one number sector as a dense symmetric array.

    Diagonal: sum of on-site energies, added site by site in region order.
    Off-diagonal: -J_ij sqrt((n_i+1) n_j) for each active edge, with
    amplitudes leaving the per-site cutoff set to zero; a hop from dst to
    src moves a state's code by (q+1)^(last-src) - (q+1)^(last-dst), and the
    target is found among the ascending codes.  Only edges inside
    ``region`` are allowed.
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
    occ, codes = block.occupations, block.codes
    place = _place_values(len(region), q)
    H = np.zeros((block.dim, block.dim))

    U = model.onsite.U
    mu = model.onsite.mu
    diag = np.zeros(block.dim)
    for k, site in enumerate(region):
        table = np.array([onsite_energy(U[site], mu[site], n) for n in range(q + 1)])
        diag += table[occ[:, k]]
    np.fill_diagonal(H, diag)

    # a_src^dag a_dst for both orientations of every edge, all in one pass;
    # each (target, source) pair is one hop of one orientation, so every
    # off-diagonal entry is written exactly once
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


def block_log_trace_exp(H: np.ndarray, beta: float) -> float:
    """log Tr exp(-beta H) for one symmetric block.

    Diagonal blocks skip the eigensolve; the general path diagonalizes and
    reduces via log-sum-exp shifted by the minimal eigenvalue.
    """
    diag = np.diag(H)
    # no off-diagonal nonzero, counted without a dim x dim temporary; a
    # non-finite diagonal still goes to the eigensolver, which reports it
    if np.count_nonzero(H) == np.count_nonzero(diag) and np.isfinite(diag).all():
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
        H = build_block_hamiltonian(model, region, active_edges, block)
        values.append(block_log_trace_exp(H, beta))
    return logsumexp(values)
