"""Exact diagonalization of the truncated model: ground truth at small N.

A ThermalState holds, per total-number sector, the eigenvalues and an
amplitude factor W = V diag(sqrt(p)) (eigenvectors V, Boltzmann weights p),
so that the sector's block of rho is W W^T.  Expectations route through the
block structure: a monomial of ladder operators shifts the total number by
(creations - annihilations), so number-non-conserving monomials vanish
identically and conserving ones act inside each sector, as inner products
of rows of W.  No block of rho is ever formed: the diagonal is the row
norms of W, and each reduced block is a sum of X X^T with X a reshaped
slice of W's rows (the subsystem total is itself conserved).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .fock import DEFAULT_DIM_CAP, check_dim_cap
from .fock import RegionHamiltonian, SectorBlock, logsumexp, occupation_codes, sector_blocks
from .lattice import ModelInstance, distance_matrix, interaction_edges

__all__ = [
    "MonomialOperator",
    "create",
    "annihilate",
    "number_op",
    "ThermalState",
    "thermalize",
    "expectation",
    "ClusteringScanRow",
    "ClusteringScan",
    "clustering_scan",
    "moments",
    "occupation_distribution",
    "mutual_information",
]

CORRELATION_NOISE_FLOOR = 1e-13


@dataclass(frozen=True)
class MonomialOperator:
    """Ordered product of creation/annihilation factors.

    ``factors`` is the operator product read left to right; application to
    a ket starts from the rightmost factor.
    """

    factors: tuple[tuple[int, str], ...]

    def __post_init__(self):
        for site, kind in self.factors:
            if kind not in ("create", "annihilate"):
                raise ValueError(f"unknown factor kind {kind!r}")
            if site < 0:
                raise ValueError("factor site must be a valid index")

    @property
    def support(self) -> frozenset:
        return frozenset(site for site, _k in self.factors)

    @property
    def op_count(self) -> int:
        return len(self.factors)

    @property
    def number_shift(self) -> int:
        return sum(1 if k == "create" else -1 for _s, k in self.factors)

    def __mul__(self, other: "MonomialOperator") -> "MonomialOperator":
        return MonomialOperator(self.factors + other.factors)


def create(site: int) -> MonomialOperator:
    return MonomialOperator(((site, "create"),))


def annihilate(site: int) -> MonomialOperator:
    return MonomialOperator(((site, "annihilate"),))


def number_op(site: int) -> MonomialOperator:
    return MonomialOperator(((site, "create"), (site, "annihilate")))


def _apply_monomial(block: SectorBlock, factors, q):
    """Apply the factor product to every ket of a sector: (rows, coefficients,
    occupations') of the kets it does not annihilate (including pushes past
    the per-site cutoff)."""
    rows = np.arange(block.dim)
    occ = block.occupations.copy()
    coef = np.ones(block.dim)
    for site, kind in reversed(factors):
        n = occ[:, site]
        keep = n >= 1 if kind == "annihilate" else n + 1 <= q
        rows, occ, coef = rows[keep], occ[keep], coef[keep]
        n = occ[:, site]
        if kind == "annihilate":
            coef *= np.sqrt(n)
            occ[:, site] = n - 1
        else:
            coef *= np.sqrt(n + 1)
            occ[:, site] = n + 1
    return rows, coef, occ


@dataclass(frozen=True)
class ThermalState:
    """exp(-beta H) / Z for the full lattice, one factor per number sector.

    ``amplitudes[b]`` is the sector's eigenvector matrix with column k
    scaled by sqrt(p_k), p_k = exp(-beta lambda_k) / Z, so the sector's rho
    block is ``W @ W.T``; the eigenvectors themselves are not kept.
    ``blocks``, ``eigenvalues`` and ``amplitudes`` are in ascending sector
    total N, whatever order ``thermalize`` solved them in.
    """

    model: ModelInstance
    q: int
    beta: float
    blocks: tuple[SectorBlock, ...]
    eigenvalues: tuple[np.ndarray, ...]
    amplitudes: tuple[np.ndarray, ...]
    log_z: float

    def block_probabilities(self, block_index: int) -> np.ndarray:
        lam = self.eigenvalues[block_index]
        return np.exp(-self.beta * lam - self.log_z)

    def diagonal_probabilities(self, block_index: int) -> np.ndarray:
        """rho's diagonal in the occupation basis of one sector."""
        W = self.amplitudes[block_index]
        return np.einsum("sk,sk->s", W, W)


def thermalize(model: ModelInstance, q: int, beta: float | None = None,
               dim_cap: int = DEFAULT_DIM_CAP) -> ThermalState:
    """Diagonalize every number sector of the truncated model.

    Sectors are solved in descending dimension, ties in ascending N, so the
    peak memory is one solve's transient (the block, LAPACK's copy, its
    workspace and the output: about 5-6 n^2 doubles for n states) plus the
    amplitude factors already solved, none of them smaller than that sector,
    and the model's hop entries (a few arrays of the (q+1)^N space's size).
    The results are stored, and log Z summed, in ascending N, so they do not
    depend on the solve order.
    """
    if beta is None:
        beta = model.beta
    check_dim_cap(q, model.n_sites, dim_cap)

    H = RegionHamiltonian(model, range(model.n_sites), interaction_edges(model.couplings, 0.0), q)
    blocks = H.blocks
    eigenvalues = [None] * len(blocks)
    amplitudes = [None] * len(blocks)
    log_terms = [None] * len(blocks)
    for b in sorted(range(len(blocks)), key=lambda b: (-blocks[b].dim, b)):
        lam, vecs = np.linalg.eigh(H.block(b))
        eigenvalues[b] = lam
        amplitudes[b] = vecs
        log_terms[b] = logsumexp(-beta * lam)
    log_z = logsumexp(log_terms)
    # in place, so no second dim x dim copy of any sector is held
    for lam, W in zip(eigenvalues, amplitudes):
        W *= np.exp(0.5 * (-beta * lam - log_z))

    return _normalized(ThermalState(
        model=model,
        q=q,
        beta=beta,
        blocks=tuple(blocks),
        eigenvalues=tuple(eigenvalues),
        amplitudes=tuple(amplitudes),
        log_z=log_z,
    ))


def _rescale_beta(state: ThermalState, beta: float) -> ThermalState:
    """The state at a higher beta from the same solves, W rescaled in place by
    sqrt(p'/p) (``state`` is spent).  A fall could not restore underflowed W."""
    if beta < state.beta:
        raise ValueError(f"cannot rescale a thermal state down from beta {state.beta} to {beta}")
    log_z = logsumexp([logsumexp(-beta * lam) for lam in state.eigenvalues])
    for lam, W in zip(state.eigenvalues, state.amplitudes):
        W *= np.exp(0.5 * (-(beta - state.beta) * lam - (log_z - state.log_z)))
    return _normalized(replace(state, beta=beta, log_z=log_z))


def _normalized(state: ThermalState) -> ThermalState:
    """Tr rho = 1 on the row norms of every W; a non-finite trace fails too."""
    trace = sum(state.diagonal_probabilities(b).sum() for b in range(len(state.blocks)))
    if not abs(trace - 1.0) <= 1e-10:
        raise ArithmeticError(f"thermal state failed normalization: Tr rho = {trace}")
    return state


def expectation(state: ThermalState, op: MonomialOperator) -> float:
    """Tr(rho O) through the sector blocks.

    Number-non-conserving monomials return exactly 0 without computation.
    """
    if op.support and max(op.support) >= state.model.n_sites:
        raise ValueError("operator support outside the lattice")
    if op.op_count == 0:
        return 1.0
    if op.number_shift != 0:
        return 0.0

    total = 0.0
    for b, block in enumerate(state.blocks):
        rows, coef, moved = _apply_monomial(block, op.factors, state.q)
        if not rows.size:
            continue
        # number-conserving, so every surviving ket lands in this sector, and
        # distinct kets land on distinct targets
        targets = np.searchsorted(block.codes, occupation_codes(moved, state.q))
        W = state.amplitudes[b]
        # rho[r, t] = <W[r], W[t]>, one per surviving ket r with O|r> = c|t>
        total += float(coef @ np.einsum("rk,rk->r", W[rows], W[targets]))
    return total


@dataclass(frozen=True)
class ClusteringScanRow:
    site_a: int
    site_b: int
    distance: int
    value: float
    phi_ref: float
    bound_ref: float | None
    ratio: float | None


@dataclass(frozen=True)
class ClusteringScan:
    family: str
    anchor: int
    rows: tuple[ClusteringScanRow, ...]
    fitted_exponent: float | None


def _phi_reference(n_x: int, n_y: int, beta: float) -> float:
    return math.sqrt(math.factorial(n_x) * math.factorial(n_y)) * beta ** (
        -(n_x + n_y) / 4.0
    )


def clustering_scan(state: ThermalState, family: str, anchor: int) -> ClusteringScan:
    """Correlation decay rows against distance from the anchor site.

    family "hopping": C(a_anchor^dag, a_j); family "density": C(n_anchor, n_j).
    The decay-reference column uses the clustering bound envelope with unit
    prefactor; the exponent is a least-squares fit of log|C| on log(1+d)
    over rows above the noise floor (omitted when fewer than 3 qualify).
    """
    model = state.model
    if family == "hopping":
        op_x, op_y = create(anchor), annihilate
        n_x = n_y = 1
    elif family == "density":
        op_x, op_y = number_op(anchor), number_op
        n_x = n_y = 2
    else:
        raise ValueError(f"unknown scan family {family!r}")
    # the anchor's mean is the same for every row
    mean_x = expectation(state, op_x)

    alpha = model.couplings.alpha
    phi = _phi_reference(n_x, n_y, state.beta)
    dist = distance_matrix(model.lattice)

    rows = []
    for j in range(model.n_sites):
        if j == anchor:
            continue
        # C(O_X, O_Y) = Tr(rho O_X O_Y) - Tr(rho O_X) Tr(rho O_Y)
        value = expectation(state, op_x * op_y(j)) - mean_x * expectation(state, op_y(j))
        d = int(dist[anchor, j])
        if alpha is not None:
            bound_ref = phi / (1.0 + d) ** alpha
            ratio = abs(value) * (1.0 + d) ** alpha / phi
        else:
            bound_ref = None
            ratio = None
        rows.append(ClusteringScanRow(anchor, j, d, value, phi, bound_ref, ratio))
    rows.sort(key=lambda r: (r.distance, r.site_b))

    usable = [r for r in rows if abs(r.value) > CORRELATION_NOISE_FLOOR]
    exponent = None
    if len(usable) >= 3:
        x = np.log([1.0 + r.distance for r in usable])
        y = np.log([abs(r.value) for r in usable])
        exponent = float(np.polyfit(x, y, 1)[0])
    return ClusteringScan(family, anchor, tuple(rows), exponent)


def moments(state: ThermalState, site: int, l_max: int) -> list[float]:
    """[Tr(n_site^l rho) for l = 1..l_max], exact diagonal sums."""
    if l_max < 1:
        raise ValueError("l_max must be >= 1")
    state.model.lattice._check_site(site)
    out = [0.0] * l_max
    for b, block in enumerate(state.blocks):
        diag = state.diagonal_probabilities(b)
        occ = block.occupations[:, site].astype(np.float64)
        for l in range(1, l_max + 1):
            out[l - 1] += float((occ**l * diag).sum())
    return out


def occupation_distribution(state: ThermalState, site: int) -> list[float]:
    """p_n = <n| Tr_rest rho |n> for n = 0..q."""
    state.model.lattice._check_site(site)
    p = np.zeros(state.q + 1)
    for b, block in enumerate(state.blocks):
        # unbuffered, in basis order: the same sums as a loop over kets
        np.add.at(p, block.occupations[:, site], state.diagonal_probabilities(b))
    total = p.sum()
    if abs(total - 1.0) > 1e-10:
        raise ArithmeticError(f"occupation distribution sums to {total}")
    return [float(x) for x in p]


def _entropy_from_probabilities(p: np.ndarray) -> float:
    p = np.clip(p, 1e-300, None)
    return float(-(p * np.log(p)).sum())


def reduced_density_blocks(state: ThermalState, subsystems) -> list[dict]:
    """Tr over each subsystem's complement, returned per subsystem-total sector.

    The full rho couples occupation pairs only within one lattice sector,
    and tracing out the complement forces equal subsystem totals, so the
    reduced matrix is block diagonal in the subsystem number.  Within one
    lattice sector, the kets whose subsystem total is n are every subsystem
    configuration of total n times every complement configuration of the
    remaining total.  Ordered by (subsystem code, complement code), the rows
    of the amplitude factor W for those kets reshape to X, one row per
    subsystem configuration, and the sector adds X X^T to the reduced block.
    """
    model = state.model
    q = state.q
    plans = []
    for subsystem in subsystems:
        sub = tuple(sorted(subsystem))
        rest = tuple(i for i in range(model.n_sites) if i not in sub)
        if not sub or not rest:
            raise ValueError("subsystem must be a proper nonempty subset of the lattice")
        plans.append((sub, rest, sector_blocks(sub, q)))
    reduced = [{blk.total: np.zeros((blk.dim, blk.dim)) for blk in sub_blocks}
               for _sub, _rest, sub_blocks in plans]

    for b, block in enumerate(state.blocks):
        W = state.amplitudes[b]
        for (sub, rest, sub_blocks), out in zip(plans, reduced):
            occ_sub = block.occupations[:, sub]
            sub_totals = occ_sub.sum(axis=1)
            order = np.lexsort((
                occupation_codes(block.occupations[:, rest], q),
                occupation_codes(occ_sub, q),
                sub_totals,
            ))
            starts = np.flatnonzero(np.diff(sub_totals[order])) + 1
            for ks in np.split(order, starts):
                n_sub = int(sub_totals[ks[0]])
                X = W[ks].reshape(sub_blocks[n_sub].dim, -1)
                out[n_sub] += X @ X.T
    return reduced


def mutual_information(state: ThermalState, partition) -> float:
    """I(A:B) = S(rho_A) + S(rho_B) - S(rho) for a bipartition A | B."""
    a, b = partition
    a = tuple(sorted(a))
    b = tuple(sorted(b))
    n = state.model.n_sites
    if sorted(a + b) != list(range(n)) or not a or not b:
        raise ValueError("partition must split the lattice into two nonempty parts")

    s_total = 0.0
    for bi in range(len(state.blocks)):
        s_total += _entropy_from_probabilities(state.block_probabilities(bi))

    def entropy(blocks: dict) -> float:
        total = 0.0
        for mat in blocks.values():
            eigvals = np.linalg.eigvalsh(mat)
            total += _entropy_from_probabilities(eigvals)
        return total

    rho_a, rho_b = reduced_density_blocks(state, (a, b))
    return entropy(rho_a) + entropy(rho_b) - s_total
