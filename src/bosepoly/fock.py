"""Truncated Fock spaces, number-sector blocks, and stable thermal traces.

Per-site occupations are capped at q (the projected Hamiltonian Pi H Pi:
hopping amplitudes that would push any site above the cutoff are zero).
Because hopping conserves the total boson number, the (q+1)^|L| space
splits into sectors of fixed total occupation; each trace is computed
block by block with a symmetric eigendecomposition and accumulated with
log-sum-exp in canonical sector order.

The layout of that space and its sector bases are cached per (|L|, q).
``hop_entries`` is the one place the hop rule lives: it reads every
a_a^dag a_b move off the layout for the region Hamiltonian and for the
oracle's hopping correlators.  Dense blocks are filled one sector at a
time, so the peak memory is one sector's block; a sector no hop reaches
is traced from its diagonal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .lattice import ModelInstance, ResourceCapError, scientific

__all__ = [
    "check_dim_cap",
    "EigensolverError",
    "SectorBlock",
    "onsite_energy",
    "onsite_table",
    "occupation_codes",
    "sector_blocks",
    "hop_entries",
    "boltzmann_exponents",
    "RegionHamiltonian",
    "restricted_log_partition",
    "logsumexp",
    "onsite_log_trace",
]


DEFAULT_DIM_CAP = 20000


def check_dim_cap(q: int, width: int) -> None:
    """Refuse a (q+1)^width space above ``DEFAULT_DIM_CAP``, read at call time, before it
    is built.  The power is at least 2^low; past 2^65536 and the cap it is not formed."""
    cap = DEFAULT_DIM_CAP
    low = width * ((q + 1).bit_length() - 1)
    if low > max(cap.bit_length(), 1 << 16):
        from decimal import Decimal, localcontext  # here alone: its import costs 0.4 MiB
        with localcontext() as ctx:
            ctx.prec = width.bit_length() // 3 + 12  # every digit of the logarithm's integer part
            shown = scientific(width * Decimal(q + 1).log10())
        raise ResourceCapError("truncated space dimension {} exceeds", shown, cap)
    if (q + 1) ** width > cap:
        raise ResourceCapError("truncated space dimension {} exceeds", (q + 1) ** width, cap)


class EigensolverError(ArithmeticError):
    """A symmetric eigensolve failed to converge or returned non-finite data."""


def onsite_energy(U: float, mu: float, n: int) -> float:
    """W(n) = U n(n-1)/2 - mu n."""
    if n < 0:
        raise ValueError("occupation must be nonnegative")
    return 0.5 * U * n * (n - 1) - mu * n


def onsite_table(model: ModelInstance, site: int, q: int) -> np.ndarray:
    """W(n) at ``site`` for n = 0..q; one that overflows is refused."""
    U, mu = model.onsite.U[site], model.onsite.mu[site]
    with np.errstate(over="ignore", invalid="ignore"):
        table = np.array([onsite_energy(U, mu, n) for n in range(q + 1)])
    if not np.isfinite(table).all():
        raise ArithmeticError(f"on-site energy at site {site} is not finite")
    return table


@dataclass(frozen=True, eq=False)
class SectorBlock:
    """One number sector's basis on ``width`` sites, shared by every region that wide.

    ``occupations`` holds one row per basis state (``dim x width``, column k the
    region's k-th site, rows in lexicographic order) and ``codes`` the rows read as
    base-(q+1) numbers, first site most significant, so the codes ascend strictly.
    """

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


@lru_cache(maxsize=None)
def _layout(width: int, q: int) -> tuple:
    """(occupations, codes, rows, starts, blocks) of the (q+1)^width space.

    ``occupations`` holds every state once, sectors in ascending N and each
    sector's codes ascending; sector N spans rows ``starts[N]:starts[N+1]``
    and is ``blocks[N]``.  ``rows[code]`` is a state's row within its sector.
    Read-only: every caller of the cache shares the arrays and the blocks.
    """
    codes = np.arange((q + 1) ** width, dtype=np.int64)
    occupations = codes[:, None] // _place_values(width, q) % (q + 1)
    totals = occupations.sum(axis=1)
    # a stable sort by total keeps each sector's codes ascending
    order = np.argsort(totals, kind="stable")
    starts = np.concatenate(([0], np.cumsum(np.bincount(totals))))
    rows = np.empty(codes.size, dtype=np.int32)  # no space nears 2^31 states
    rows[order] = np.arange(codes.size) - starts[totals[order]]
    occupations, codes = occupations[order], order
    for array in (occupations, codes, rows, starts):
        array.flags.writeable = False
    blocks = tuple(SectorBlock(q, total, occupations[lo:hi], codes[lo:hi])
                   for total, (lo, hi) in enumerate(zip(starts[:-1], starts[1:])))
    return occupations, codes, rows, starts, blocks


def sector_blocks(width: int, q: int) -> tuple[SectorBlock, ...]:
    """The bases of N_tot = 0 .. q*width, a partition of the (q+1)^width truncated
    space, built once per (width, q) in the layout cache; every caller shares them."""
    if width < 1 or q < 0:
        raise ValueError(f"sector bases need width >= 1 and q >= 0, got {width} and {q}")
    return _layout(width, q)[4]


def hop_entries(occupations: np.ndarray, codes: np.ndarray, q: int, pairs) -> tuple:
    """Every move of a_a^dag a_b, per column pair (a, b) of ``pairs``, out of
    layout rows ``occupations`` with their ``codes``: (sources, pair, targets,
    factors), the row it leaves, its index in ``pairs``, its row in its sector
    and sqrt((n_a+1) n_b), ordered by source, then pair.  A ket with n_b = 0
    or n_a = q has none (the cutoff's projection).  A move shifts the code by
    (q+1)^(last-a) - (q+1)^(last-b), so the layout gives its row unsearched."""
    a, b = np.asarray(pairs, dtype=np.int64).reshape(-1, 2).T
    sources, pair = np.nonzero((occupations >= 1)[:, b] & (occupations < q)[:, a])
    place, rows = _place_values(occupations.shape[1], q), _layout(occupations.shape[1], q)[2]
    targets = rows[codes[sources] + (place[a] - place[b])[pair]]
    factors = np.sqrt((occupations[sources, a[pair]] + 1) * occupations[sources, b[pair]])
    return sources, pair, targets, factors


def boltzmann_exponents(beta: float, energies, where: str) -> np.ndarray:
    """-beta E for ``energies``; one that overflows is refused, naming ``where``.

    The product is formed only once beta * max|E|, a Python float that
    overflows to inf without a warning, is finite; so is then every entry.
    """
    energies = np.asarray(energies)
    if not math.isfinite(float(beta) * float(np.abs(energies).max())):
        raise ArithmeticError(f"beta * E {where} is not finite")
    return -beta * energies


class RegionHamiltonian:
    """H on a region's truncated space, with hopping only on ``active_edges``,
    held as entries over the full space and filled one sector at a time.

    Diagonal: sum of on-site energies, added site by site in region order.
    Off-diagonal: -J_ij times the factor of each move ``hop_entries`` (the one owner
    of the hop rule) finds along an active edge, one entry per move, mirrored when a
    block is filled; edges must lie inside ``region``; ``blocks`` are sectors in ascending N.
    """

    def __init__(self, model: ModelInstance, region, active_edges, q: int):
        region = tuple(region)
        self.blocks = sector_blocks(len(region), q)
        pos = {site: k for k, site in enumerate(region)}
        active_edges = tuple(tuple(sorted(e)) for e in active_edges)
        if len(set(active_edges)) != len(active_edges):
            raise ValueError("active_edges must be distinct")
        for (i, j) in active_edges:
            if i == j:
                raise ValueError(f"self-loop edge ({i}, {j})")
            if i not in pos or j not in pos:
                raise ValueError(f"edge ({i}, {j}) is not inside region {region}")

        occ, codes, _, self._starts, _ = _layout(len(region), q)
        self._diagonal = np.zeros(len(occ))
        with np.errstate(over="ignore", invalid="ignore"):
            for k, site in enumerate(region):
                self._diagonal += onsite_table(model, site, q)[occ[:, k]]
        if not np.isfinite(self._diagonal).all():
            raise ArithmeticError(f"on-site energy summed over sites {region} is not finite")

        # one entry per move toward the lower region position, so its target row lies below
        # its source row (block() mirrors it); sources ascend, so sectors are contiguous
        hops = [(tuple(sorted((pos[i], pos[j]))), J) for (i, j) in active_edges
                if (J := model.coupling(i, j)) != 0.0]
        states, h, self._targets, factors = hop_entries(occ, codes, q, [p for p, _ in hops])
        self._sources = states.astype(np.int32)
        with np.errstate(over="ignore"):
            self._values = -np.array([J for _, J in hops])[h] * factors
        if not np.isfinite(self._values).all():
            edge = sorted(region[k] for k in hops[h[np.argmin(np.isfinite(self._values))]][0])
            raise ArithmeticError(f"hopping amplitude on edge {tuple(edge)} is not finite")
        self._bounds = np.searchsorted(states, self._starts)

    def block(self, b: int) -> np.ndarray:
        """Sector b as a dense symmetric array."""
        lo, hi = self._starts[b], self._starts[b + 1]
        entries = slice(self._bounds[b], self._bounds[b + 1])
        H = np.zeros((hi - lo, hi - lo))
        np.fill_diagonal(H, self._diagonal[lo:hi])
        rows, columns = self._targets[entries], self._sources[entries] - lo
        H[rows, columns] = H[columns, rows] = self._values[entries]
        return H

    def log_trace_exp(self, b: int, beta: float) -> float:
        """log Tr exp(-beta H) over sector b, reduced via log-sum-exp; a
        sector that no hop reaches skips the eigensolve."""
        if self._bounds[b] == self._bounds[b + 1]:
            eigvals = self._diagonal[self._starts[b] : self._starts[b + 1]]
        else:
            eigvals = _symmetric_eigenvalues(self.block(b), f"the N={b} sector")
        return logsumexp(boltzmann_exponents(beta, eigvals, f"in the N={b} sector"))


def logsumexp(values) -> float:
    """log sum exp over a 1-d collection, stable under large magnitudes."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        return -np.inf
    m = arr.max()
    if not np.isfinite(m):
        return float(m)
    return float(m + np.log(np.exp(arr - m).sum()))


def onsite_log_trace(model: ModelInstance, site: int, q: int) -> float:
    """log Tr exp(-beta W) at ``site``, the model's beta, with all hopping off."""
    if q < 0:
        raise ValueError("q must be nonnegative")
    return logsumexp(boltzmann_exponents(model.beta, onsite_table(model, site, q),
                                         f"at site {site}"))


def _symmetric_eigenvalues(matrix: np.ndarray, where: str, vectors: bool = False):
    """``eigvalsh`` of ``matrix``, or ``eigh`` with ``vectors``, looked up at call time; a
    failure or a non-finite eigenvalue is an EigensolverError naming ``where``."""
    try:
        solved = (np.linalg.eigh if vectors else np.linalg.eigvalsh)(matrix)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"eigensolve failed on {where}") from exc
    if not np.all(np.isfinite(solved[0] if vectors else solved)):
        raise EigensolverError(f"eigensolver returned non-finite eigenvalues on {where}")
    return solved


def restricted_log_partition(model: ModelInstance, region, active_edges, q: int) -> float:
    """log Tr_L (Pi_{L,q} exp(-beta H_L)) with hopping only on active_edges,
    at the model's beta.

    The trace runs over the per-site-truncated space of the region,
    decomposed into number sectors; sector contributions are combined with
    log-sum-exp in canonical N_tot order.
    """
    H = RegionHamiltonian(model, region, active_edges, q)
    return logsumexp([H.log_trace_exp(b, model.beta) for b in range(len(H.blocks))])
