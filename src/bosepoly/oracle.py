"""Exact diagonalization of the truncated model: ground truth at small N.

``thermalize`` is one pass over the number sectors.  Each sector is solved
with one ``eigh``; its eigenvectors V, column k scaled by sqrt(p_k) with
p_k = exp(-beta lambda_k) / Z_N the Boltzmann weights within the sector,
form an amplitude factor W whose W W^T is the sector's block of rho over
Z_N / Z.  Every requested observable folds W into a small partial result,
and W dies before the next solve; only the eigenvalues are kept.  At the
end the partials are added in ascending N, weighted by Z_N / Z.

No block of rho is ever formed: the diagonal is the row norms of W, and
each reduced block is a sum of X X^T with X a reshaped slice of W's rows
(the subsystem total is itself conserved).  Number operators are diagonal,
so density correlators are sums over the row norms; a hop a_x^dag a_j moves
a ket to one ket of its sector, so hopping ones are inner products of rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import reduce
from operator import add

import numpy as np

from .fock import RegionHamiltonian, SectorBlock, _symmetric_eigenvalues, logsumexp
from .fock import boltzmann_exponents, check_dim_cap, hop_entries, occupation_codes, sector_blocks
from .lattice import ModelInstance, ResourceCapError, distance_matrix, interaction_edges

__all__ = [
    "ThermalState",
    "thermalize",
    "thermal_states",
    "OccupationDistribution",
    "Moments",
    "MutualInformation",
    "Clustering",
    "ClusteringScanRow",
    "ClusteringScan",
]

CORRELATION_NOISE_FLOOR = 1e-13

# Above every moment order a run has asked for (4); bounds the report's
# length.  At q >= 2 every order from 1024 on overflows a float anyway.
MAX_MOMENT_ORDER = 4096


@dataclass(frozen=True)
class ThermalState:
    """exp(-beta H) / Z for the full lattice: its spectrum, log Z, and the
    value of each observable ``thermalize`` was given, in that order.

    ``blocks`` and ``eigenvalues`` are in ascending sector total N, whatever
    order the sectors were solved in.  No eigenvectors are kept.
    """

    model: ModelInstance
    q: int
    beta: float
    blocks: tuple[SectorBlock, ...]
    eigenvalues: tuple[np.ndarray, ...]
    log_z: float
    values: tuple = ()

    def block_probabilities(self, block_index: int) -> np.ndarray:
        lam = self.eigenvalues[block_index]
        return np.exp(-self.beta * lam - self.log_z)


def thermalize(model: ModelInstance, q: int, observables=(),
               beta: float | None = None) -> ThermalState:
    """The thermal state at ``beta`` (default ``model.beta``), with the value
    of each of ``observables``."""
    return thermal_states(model, q, [model.beta if beta is None else beta], observables)[0]


def thermal_states(model: ModelInstance, q: int, betas, observables=()) -> list[ThermalState]:
    """One thermal state per beta, from one pass over the number sectors.

    An observable has ``check(model)``, run before any solve;
    ``partial(block, W, diag)``, which sees one sector's amplitude factor and
    its row norms and returns a tuple of arrays of fixed shapes (0.0 for an
    array the sector adds nothing to); and
    ``value(total, state)``, given those tuples summed array by array.

    Sectors are solved in descending dimension, ties in ascending N, so the
    peak memory is one solve's transient (the block, LAPACK's copy, its
    workspace and the output: about 5-6 n^2 doubles for n states) plus the
    model's hop entries (a few arrays of the (q+1)^N space's size).  Each
    sector's eigenvectors serve every beta and die before the next solve.
    log Z and the partials are summed in ascending N, so nothing depends on
    the solve order, and each beta's state is bit for bit that of a run at
    that beta alone.
    """
    check_dim_cap(q, model.n_sites)
    for obs in observables:
        obs.check(model)
    H = RegionHamiltonian(model, range(model.n_sites), interaction_edges(model.couplings, 0.0), q)
    eigenvalues, solved = [None] * len(H.blocks), [None] * len(H.blocks)
    for b in sorted(range(len(H.blocks)), key=lambda b: (-H.blocks[b].dim, b)):
        eigenvalues[b], solved[b] = _solve_sector(H, b, betas, observables)

    states = []
    for k, beta in enumerate(betas):
        log_zn, parts = zip(*(per_beta[k] for per_beta in solved))
        log_z = logsumexp(log_zn)
        weights = [math.exp(t - log_z) for t in log_zn]
        # per observable, its partials summed array by array, weighted by Z_N / Z
        (trace,), *totals = (
            [sum(w * x for w, x in zip(weights, arrays)) for arrays in zip(*column)]
            for column in zip(*parts))
        if not abs(trace - 1.0) <= 1e-10:  # NaN fails too
            raise ArithmeticError(f"thermal state failed normalization: Tr rho = {trace}")
        state = ThermalState(model, q, beta, tuple(H.blocks), tuple(eigenvalues), log_z)
        states.append(replace(state, values=tuple(
            obs.value(total, state) for obs, total in zip(observables, totals))))
    return states


def _solve_sector(H: RegionHamiltonian, b: int, betas, observables) -> tuple:
    """Sector b's eigenvalues and, per beta, (log Z_N, partials): Tr W W^T,
    then each observable's partial.  The eigenvectors die with the call."""
    lam, V = _symmetric_eigenvalues(H.block(b), f"the N={b} sector", vectors=True)
    out = []
    for k, beta in enumerate(betas):
        exponents = boltzmann_exponents(beta, lam, f"in the N={b} sector")
        log_zn = logsumexp(exponents)
        # the last beta scales V in place, so one beta holds one n x n array;
        # row by row, as W *= scale adds a 64 KiB buffer: 15% of a 2x3 model's peak
        W = V if k == len(betas) - 1 else V.copy()
        scale = np.exp(0.5 * (exponents - log_zn))
        for row in W:
            row *= scale
        diag = np.einsum("sk,sk->s", W, W)
        parts = [obs.partial(H.blocks[b], W, diag) for obs in observables]
        out.append((log_zn, [(diag.sum(),), *parts]))
    return lam, out


class OccupationDistribution:
    """p_n = <n| Tr_rest rho |n> for n = 0..q at one site."""

    def __init__(self, site: int):
        self.site = site

    def check(self, model):
        model.lattice._check_site(self.site)

    def partial(self, block, W, diag):
        return (np.bincount(block.occupations[:, self.site], diag, block.q + 1),)

    def value(self, total, state) -> list[float]:
        p = total[0]
        if not abs(p.sum() - 1.0) <= 1e-10:
            raise ArithmeticError(f"occupation distribution sums to {p.sum()}")
        return p.tolist()


class Moments(OccupationDistribution):
    """[Tr(n_site^l rho) for l = 1..l_max], as sum_n n^l p_n over the site's
    occupation distribution.  An order above ``MAX_MOMENT_ORDER`` is refused
    here, and a moment that overflows is a numerical failure."""

    def __init__(self, site: int, l_max: int):
        if l_max < 1:
            raise ValueError("l_max must be >= 1")
        if l_max > MAX_MOMENT_ORDER:
            raise ResourceCapError("moment order {} exceeds", l_max, MAX_MOMENT_ORDER)
        super().__init__(site)
        self.l_max = l_max

    def value(self, total, state) -> list[float]:
        levels = np.arange(state.q + 1, dtype=np.float64)
        with np.errstate(over="ignore", invalid="ignore"):  # reported below
            out = [float(total[0] @ levels**l) for l in range(1, self.l_max + 1)]
        for l, value in enumerate(out, start=1):
            if not math.isfinite(value):
                raise ArithmeticError(f"moment l={l} at site {self.site} is not finite ({value})")
        return out


def _entropy_from_probabilities(p: np.ndarray) -> float:
    p = np.clip(p, 1e-300, None)
    return float(-(p * np.log(p)).sum())


class MutualInformation:
    """I(A:B) = S(rho_A) + S(rho_B) - S(rho) for a bipartition (A, B).

    Each side's reduced matrix, the trace over its complement, is block
    diagonal in the side's own number: the full rho couples occupation pairs
    only within one lattice sector, and the partial trace forces equal
    complement occupations.  Within one lattice sector, the kets whose
    subsystem total is n are every subsystem configuration of total n times
    every complement configuration of the remaining total.  Ordered by
    (subsystem code, complement code), the rows of W for those kets reshape
    to X, one row per subsystem configuration, and the sector's partial for
    that block is X X^T.
    """

    def __init__(self, partition):
        self.subsystems = [tuple(sorted(side)) for side in partition]

    def check(self, model):
        a, b = self.subsystems
        if sorted(a + b) != list(range(model.n_sites)) or not a or not b:
            raise ValueError("partition must split the lattice into two nonempty parts")

    def partial(self, block, W, diag):
        q, occ = block.q, block.occupations
        parts = []
        for sub in self.subsystems:
            rest = [i for i in range(len(block.region)) if i not in sub]
            sub_blocks = sector_blocks(sub, q)
            out = [0.0] * len(sub_blocks)  # a block this sector misses adds 0
            sub_totals = occ[:, sub].sum(axis=1)
            order = np.lexsort((occupation_codes(occ[:, rest], q),
                                occupation_codes(occ[:, sub], q), sub_totals))
            totals = sub_totals[order]
            starts = np.flatnonzero(np.diff(totals)) + 1
            # one copy of W's rows per side, each group's X a view of it
            for n_sub, X in zip(totals[np.r_[0, starts]].tolist(), np.split(W[order], starts)):
                X = X.reshape(sub_blocks[n_sub].dim, -1)
                out[n_sub] = X @ X.T
            del X  # the last view holds the copy; free it before the other side's
            parts += out
        return tuple(parts)

    def reduced_blocks(self, total, state) -> list[dict]:
        """rho_A and rho_B, each a dict {subsystem total: block}."""
        parts = iter(total)
        return [{blk.total: next(parts) for blk in sector_blocks(sub, state.q)}
                for sub in self.subsystems]

    def value(self, total, state) -> float:
        # added left to right: builtin sum() of floats is compensated from
        # Python 3.12 on, so its last bits would depend on the version
        s_total = reduce(add, (_entropy_from_probabilities(state.block_probabilities(b))
                               for b in range(len(state.blocks))), 0.0)
        s_a, s_b = (reduce(add, (_entropy_from_probabilities(_symmetric_eigenvalues(
            mat, f"the N={n} reduced block of sites {list(sub)}")) for n, mat in blocks.items()),
            0.0) for sub, blocks in zip(self.subsystems, self.reduced_blocks(total, state)))
        return s_a + s_b - s_total


@dataclass(frozen=True)
class ClusteringScanRow:
    site_a: int
    site_b: int
    distance: int
    value: float


@dataclass(frozen=True)
class ClusteringScan:
    family: str
    anchor: int
    rows: tuple[ClusteringScanRow, ...]
    fitted_exponent: float | None
    fitted_exponent_stderr: float | None


class Clustering:
    """Correlation decay rows against distance from the anchor site, as a
    ``ClusteringScan``.

    family "hopping": C(a_anchor^dag, a_j); family "density": C(n_anchor, n_j).
    A sector's partial is [<O_x>, <O_x O_j>..., <O_j>...] over the other sites
    j; a_x^dag and a_j alone change the number, so their means are 0.  The
    exponent is a least-squares fit of log|C| on log(1+d) over rows above
    the noise floor, with the slope's ordinary least-squares standard error
    sqrt(sum r^2 / (n - 2) / sum (x - mean x)^2); both are omitted when
    fewer than 3 rows qualify or they all sit at one distance.
    """

    def __init__(self, family: str, anchor: int):
        if family not in ("hopping", "density"):
            raise ValueError(f"unknown scan family {family!r}")
        self.family, self.anchor = family, anchor

    def check(self, model):
        model.lattice._check_site(self.anchor)

    def partial(self, block, W, diag):
        x, q, occ = self.anchor, block.q, block.occupations
        others = [j for j in range(len(block.region)) if j != x]
        if self.family == "density":
            n = occ.astype(np.float64)
            means = diag @ n
            joint = (diag * n[:, x]) @ n[:, others]
            return (np.concatenate(([means[x]], joint, means[others])),)
        hops = (hop_entries(occ, block.codes, q, [(x, j)]) for j in others)
        joint = [factors @ np.einsum("rk,rk->r", W[kets], W[targets])
                 for kets, _, targets, factors in hops]
        return (np.array([0.0, *joint] + [0.0] * len(others)),)

    def value(self, total, state) -> ClusteringScan:
        model = state.model
        others = [j for j in range(model.n_sites) if j != self.anchor]
        m = len(others)
        mean_x, joint, means_y = total[0][0], total[0][1:m + 1], total[0][m + 1:]
        dist = distance_matrix(model.lattice)

        rows = []
        for j, xy, y in zip(others, joint, means_y):
            # C(O_X, O_Y) = Tr(rho O_X O_Y) - Tr(rho O_X) Tr(rho O_Y)
            d = int(dist[self.anchor, j])
            rows.append(ClusteringScanRow(self.anchor, j, d, float(xy - mean_x * y)))
        rows.sort(key=lambda r: (r.distance, r.site_b))

        usable = [r for r in rows if abs(r.value) > CORRELATION_NOISE_FLOOR]
        exponent = stderr = None
        # a line through one distance is not determined
        if len(usable) >= 3 and len({r.distance for r in usable}) >= 2:
            x = np.log([1.0 + r.distance for r in usable])
            y = np.log([abs(r.value) for r in usable])
            slope, intercept = np.polyfit(x, y, 1)
            residuals = y - (slope * x + intercept)
            exponent = float(slope)
            stderr = math.sqrt(float(residuals @ residuals) / (len(x) - 2)
                               / float(((x - x.mean()) ** 2).sum()))
        return ClusteringScan(self.family, self.anchor, tuple(rows), exponent, stderr)
