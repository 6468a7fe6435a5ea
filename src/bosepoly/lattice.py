"""Lattice geometry, graph distances, and coupling-matrix generation.

Sites of a D-dimensional lattice are indexed row-major (C order) over the
extents ``dims``.  Distances are graph distances on the nearest-neighbor
adjacency, with periodic wrap when requested; on these hypercubic lattices
they are computed in closed form, as the per-axis coordinate differences
summed over axes.  Coupling matrices come in three kinds:

* ``long_range``:   |J_ij| <= g / (1 + d_ij)**alpha, generated saturating;
* ``finite_range``: |J_ij| <= g for d_ij <= d_c, zero beyond the cutoff;
* ``explicit``:     caller-supplied symmetric matrix with zero diagonal.

An explicit matrix may also be declared as one of the decaying kinds, in
which case it is validated against that kind's envelope entry by entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Lattice",
    "OnsiteParams",
    "ModelInstance",
    "CouplingError",
    "MAX_SITES",
    "ResourceCapError",
    "build_lattice",
    "distance_matrix",
    "build_couplings",
    "interaction_edges",
]


class CouplingError(ValueError):
    """A coupling matrix violates its declared kind's invariant."""


def scientific(log10) -> str:
    """d.dddde+X for the number whose base-10 logarithm is ``log10``."""
    return f"{10 ** (log10 % 1):.4f}e+{math.floor(log10)}"


class ResourceCapError(RuntimeError):
    """A run needs ``required`` of a resource capped at ``allowed``.

    ``what`` names the need, with ``{}`` where ``required`` goes.  A count
    past Python's int-to-str digit limit is shown as d.dddde+X; a count too
    large to form is given as that string.
    """

    def __init__(self, what: str, required: int | str, allowed: int):
        try:
            shown = str(required)
        except ValueError:
            shown = scientific(math.log10(required))
        super().__init__(f"{what.format(shown)} the cap {allowed}")
        self.required, self.allowed = required, allowed
        self.details = [f"required={shown}", f"allowed={allowed}"]


# At or above every lattice run so far (4,000 sites).  A model holds N x N
# coupling and distance arrays, about 24 bytes per site pair at their peak.
MAX_SITES = 4096


@dataclass(frozen=True)
class Lattice:
    """Finite D-dimensional lattice with row-major site indexing."""

    dims: tuple[int, ...]
    periodic: bool = False

    def __post_init__(self):
        if len(self.dims) == 0:
            raise ValueError("lattice needs at least one dimension")
        if any(int(d) < 1 for d in self.dims):
            raise ValueError(f"lattice extents must be >= 1, got {self.dims}")
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        if self.n_sites > MAX_SITES:
            raise ResourceCapError("{} lattice sites exceed", self.n_sites, MAX_SITES)

    @property
    def n_sites(self) -> int:
        return math.prod(self.dims)

    @property
    def n_dims(self) -> int:
        return len(self.dims)

    def _check_site(self, site: int) -> None:
        if not 0 <= site < self.n_sites:
            raise ValueError(f"site {site} out of range [0, {self.n_sites})")


def build_lattice(dims, periodic: bool = False) -> Lattice:
    return Lattice(tuple(dims), bool(periodic))


def distance_matrix(lattice: Lattice) -> np.ndarray:
    """All-pairs graph distances on the nearest-neighbor adjacency.

    On a hypercubic lattice this is the per-axis coordinate difference
    |dc| (``min(|dc|, L - |dc|)`` on a periodic axis) summed over axes.
    """
    coords = np.indices(lattice.dims).reshape(lattice.n_dims, -1)
    dist = np.zeros((lattice.n_sites, lattice.n_sites), dtype=np.int64)
    for c, extent in zip(coords, lattice.dims):
        step = np.abs(c[:, None] - c[None, :])
        dist += np.minimum(step, extent - step) if lattice.periodic else step
    return dist


@dataclass(frozen=True)
class OnsiteParams:
    """Per-site on-site repulsion U_i > 0 and chemical potential mu_i."""

    U: np.ndarray
    mu: np.ndarray

    def __post_init__(self):
        U = np.asarray(self.U, dtype=np.float64).copy()
        mu = np.asarray(self.mu, dtype=np.float64).copy()
        if U.shape != mu.shape or U.ndim != 1:
            raise ValueError("U and mu must be 1-d arrays of equal length")
        if np.any(U <= 0):
            raise ValueError("on-site repulsion U must be strictly positive")
        if not (np.all(np.isfinite(U)) and np.all(np.isfinite(mu))):
            raise ValueError("on-site parameters must be finite")
        U.setflags(write=False)
        mu.setflags(write=False)
        object.__setattr__(self, "U", U)
        object.__setattr__(self, "mu", mu)

    @classmethod
    def uniform(cls, n_sites: int, U: float, mu: float) -> "OnsiteParams":
        return cls(np.full(n_sites, float(U)), np.full(n_sites, float(mu)))


def _validate_square(matrix: np.ndarray, n: int) -> np.ndarray:
    if np.iscomplexobj(matrix):  # before the cast, which would warn and drop it
        raise CouplingError("complex couplings are not supported")
    try:
        m = np.asarray(matrix, dtype=np.float64)
    except OverflowError:  # an integer entry past the float64 range
        raise CouplingError("coupling matrix entries must be finite") from None
    if m.shape != (n, n):
        raise CouplingError(f"coupling matrix must be {n}x{n}, got {m.shape}")
    if not np.isfinite(m).all():
        raise CouplingError("coupling matrix entries must be finite")
    # the first problem in row-major order; a row's diagonal comes first
    bad = np.argwhere(np.triu(m != m.T, 1) | np.diag(np.diag(m) != 0.0))
    if bad.size:
        i, j = map(int, bad[0])
        if i == j:
            raise CouplingError(f"nonzero diagonal coupling at ({i}, {i})")
        raise CouplingError(f"asymmetric coupling at ({i}, {j})")
    return m


def build_couplings(
    lattice: Lattice,
    kind: str,
    g: float | None = None,
    alpha: float | None = None,
    d_c: int | None = None,
    matrix=None,
) -> np.ndarray:
    """Generate or validate a coupling matrix of the given kind: the
    symmetric hopping amplitudes J_ij with zero diagonal, as a read-only
    float64 N x N array.

    Without ``matrix``, the decaying kinds generate the saturating envelope
    (long_range: J = g/(1+d)**alpha; finite_range: J = g for d <= d_c).
    With ``matrix``, entries are checked against the declared kind's bound
    and the first offending pair is reported.
    """
    if kind in ("long_range", "finite_range"):
        dist = distance_matrix(lattice)
        if g is None or not 0 < g < math.inf:
            raise CouplingError(f"{kind} requires a finite hopping strength g > 0")
    if kind == "long_range":
        if alpha is None or not lattice.n_dims < alpha < math.inf:
            raise CouplingError(
                f"long_range requires a finite decay exponent alpha > D = {lattice.n_dims}"
            )
        envelope = g / (1.0 + dist) ** alpha
        np.fill_diagonal(envelope, 0.0)
    elif kind == "finite_range":
        if d_c is None or int(d_c) < 1:
            raise CouplingError("finite_range requires integer cutoff d_c >= 1")
        envelope = np.where((dist > 0) & (dist <= int(d_c)), float(g), 0.0)
    elif kind == "explicit":
        if matrix is None:
            raise CouplingError("explicit kind requires a matrix")
        envelope = None
    else:
        raise CouplingError(f"unknown coupling kind {kind!r}")

    if matrix is None:
        entries = envelope
    else:
        entries = _validate_square(matrix, lattice.n_sites)
        if envelope is not None:
            bad = np.argwhere(np.abs(entries) > envelope + 1e-15 * g)
            if bad.size:
                i, j = map(int, bad[0])
                raise CouplingError(
                    f"|J[{i},{j}]| = {abs(entries[i, j])} exceeds the {kind} bound "
                    f"{envelope[i, j]} at d = {int(dist[i, j])}"
                )
    entries = np.array(entries, dtype=np.float64)
    entries.setflags(write=False)
    return entries


def interaction_edges(couplings: np.ndarray, threshold: float = 0.0) -> tuple:
    """All unordered site pairs with |J_ij| strictly above ``threshold``.

    This pair set is the alphabet the polymer enumeration draws from.  The
    threshold is an explicit approximation knob (default 0: keep every
    nonzero coupling); it is never applied implicitly elsewhere.  Pairs
    come in row-major order.
    """
    if not threshold >= 0:
        raise ValueError("threshold must be nonnegative")
    rows, cols = np.nonzero(np.triu(np.abs(couplings) > threshold, 1))
    return tuple(zip(rows.tolist(), cols.tolist()))


@dataclass(frozen=True)
class ModelInstance:
    """A concrete problem: lattice + couplings + on-site terms + beta.

    ``couplings`` is the N x N array J that ``build_couplings`` returns.
    """

    lattice: Lattice
    couplings: np.ndarray
    onsite: OnsiteParams
    beta: float

    def __post_init__(self):
        n = self.lattice.n_sites
        if self.couplings.shape != (n, n):
            raise ValueError("coupling matrix size does not match lattice")
        if self.onsite.U.shape[0] != n:
            raise ValueError("on-site parameter arrays do not match lattice size")
        if not (self.beta > 0 and math.isfinite(self.beta)):
            raise ValueError("inverse temperature beta must be positive and finite")

    @property
    def n_sites(self) -> int:
        return self.lattice.n_sites

    def coupling(self, i: int, j: int) -> float:
        return float(self.couplings[i, j])
