"""Lattice geometry, graph distances, and coupling-matrix generation.

Sites of a D-dimensional lattice are indexed row-major (C order) over the
extents ``dims``.  Distances are graph distances on the nearest-neighbor
adjacency, with periodic wrap when requested.  Coupling matrices come in
three kinds:

* ``long_range``:   |J_ij| <= g / (1 + d_ij)**alpha, generated saturating;
* ``finite_range``: |J_ij| <= g for d_ij <= d_c, zero beyond the cutoff;
* ``explicit``:     caller-supplied symmetric matrix with zero diagonal.

An explicit matrix may also be declared as one of the decaying kinds, in
which case it is validated against that kind's envelope entry by entry.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "Lattice",
    "CouplingMatrix",
    "OnsiteParams",
    "ModelInstance",
    "CouplingError",
    "build_lattice",
    "distance_matrix",
    "build_couplings",
    "interaction_edges",
]


class CouplingError(ValueError):
    """A coupling matrix violates its declared kind's invariant."""


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

    @property
    def n_sites(self) -> int:
        return math.prod(self.dims)

    @property
    def n_dims(self) -> int:
        return len(self.dims)

    def coords(self, site: int) -> tuple[int, ...]:
        self._check_site(site)
        out = []
        for extent in reversed(self.dims):
            out.append(site % extent)
            site //= extent
        return tuple(reversed(out))

    def site_index(self, coords) -> int:
        idx = 0
        for c, extent in zip(coords, self.dims, strict=True):
            if not 0 <= c < extent:
                raise ValueError(f"coordinate {coords} outside extents {self.dims}")
            idx = idx * extent + c
        return idx

    def neighbors(self, site: int) -> tuple[int, ...]:
        """Nearest neighbors under +-1 steps per axis (wrapping if periodic)."""
        coords = self.coords(site)
        found = set()
        for axis, extent in enumerate(self.dims):
            for step in (-1, 1):
                c = coords[axis] + step
                if self.periodic:
                    c %= extent
                elif not 0 <= c < extent:
                    continue
                moved = list(coords)
                moved[axis] = c
                idx = self.site_index(moved)
                if idx != site:
                    found.add(idx)
        return tuple(sorted(found))

    def _check_site(self, site: int) -> None:
        if not 0 <= site < self.n_sites:
            raise ValueError(f"site {site} out of range [0, {self.n_sites})")


def build_lattice(dims, periodic: bool = False) -> Lattice:
    return Lattice(tuple(dims), bool(periodic))


@lru_cache(maxsize=None)
def distance_matrix(lattice: Lattice) -> np.ndarray:
    """All-pairs shortest-path distances on the nearest-neighbor adjacency."""
    n = lattice.n_sites
    dist = np.full((n, n), -1, dtype=np.int64)
    for src in range(n):
        dist[src, src] = 0
        queue = deque([src])
        while queue:
            cur = queue.popleft()
            for nb in lattice.neighbors(cur):
                if dist[src, nb] < 0:
                    dist[src, nb] = dist[src, cur] + 1
                    queue.append(nb)
    dist.setflags(write=False)
    return dist


@dataclass(frozen=True)
class CouplingMatrix:
    """Symmetric hopping amplitudes J_ij with zero diagonal."""

    entries: np.ndarray
    kind: str
    g: float | None = None
    alpha: float | None = None
    d_c: int | None = None

    @property
    def n_sites(self) -> int:
        return self.entries.shape[0]

    def coupling(self, i: int, j: int) -> float:
        return float(self.entries[i, j])


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

    @property
    def bounds(self) -> tuple[float, float, float]:
        """(U_min, U_max, mu_max) over the sites."""
        return (float(self.U.min()), float(self.U.max()), float(np.abs(self.mu).max()))


def _validate_square(matrix: np.ndarray, n: int) -> np.ndarray:
    m = np.asarray(matrix, dtype=np.float64)
    if np.iscomplexobj(matrix):
        raise CouplingError("complex couplings are not supported")
    if m.shape != (n, n):
        raise CouplingError(f"coupling matrix must be {n}x{n}, got {m.shape}")
    for i in range(n):
        if m[i, i] != 0.0:
            raise CouplingError(f"nonzero diagonal coupling at ({i}, {i})")
        for j in range(i + 1, n):
            if m[i, j] != m[j, i]:
                raise CouplingError(f"asymmetric coupling at ({i}, {j})")
    return m


def build_couplings(
    lattice: Lattice,
    kind: str,
    g: float | None = None,
    alpha: float | None = None,
    d_c: int | None = None,
    matrix=None,
) -> CouplingMatrix:
    """Generate or validate a coupling matrix of the given kind.

    Without ``matrix``, the decaying kinds generate the saturating envelope
    (long_range: J = g/(1+d)**alpha; finite_range: J = g for d <= d_c).
    With ``matrix``, entries are checked against the declared kind's bound
    and the first offending pair is reported.
    """
    n = lattice.n_sites
    dist = distance_matrix(lattice)

    if kind == "long_range":
        if g is None or g <= 0:
            raise CouplingError("long_range requires hopping strength g > 0")
        if alpha is None or alpha <= lattice.n_dims:
            raise CouplingError(
                f"long_range requires decay exponent alpha > D = {lattice.n_dims}"
            )
        envelope = g / (1.0 + dist) ** alpha
        np.fill_diagonal(envelope, 0.0)
        if matrix is None:
            entries = envelope
        else:
            entries = _validate_square(matrix, n)
            bad = np.argwhere(np.abs(entries) > envelope + 1e-15 * g)
            if bad.size:
                i, j = map(int, bad[0])
                raise CouplingError(
                    f"|J[{i},{j}]| = {abs(entries[i, j])} exceeds the long-range "
                    f"envelope {envelope[i, j]}"
                )
        entries = np.array(entries, dtype=np.float64)
        entries.setflags(write=False)
        return CouplingMatrix(entries, "long_range", g=float(g), alpha=float(alpha))

    if kind == "finite_range":
        if g is None or g <= 0:
            raise CouplingError("finite_range requires hopping strength g > 0")
        if d_c is None or int(d_c) < 1:
            raise CouplingError("finite_range requires integer cutoff d_c >= 1")
        d_c = int(d_c)
        inside = dist <= d_c
        np.fill_diagonal(inside, False)
        if matrix is None:
            entries = np.where(inside, float(g), 0.0)
        else:
            entries = _validate_square(matrix, n)
            bad = np.argwhere(np.abs(entries) > np.where(inside, g, 0.0) + 1e-15 * g)
            if bad.size:
                i, j = map(int, bad[0])
                raise CouplingError(
                    f"|J[{i},{j}]| = {abs(entries[i, j])} violates the finite-range "
                    f"bound (d = {int(dist[i, j])}, d_c = {d_c})"
                )
        entries = np.array(entries, dtype=np.float64)
        entries.setflags(write=False)
        return CouplingMatrix(entries, "finite_range", g=float(g), d_c=d_c)

    if kind == "explicit":
        if matrix is None:
            raise CouplingError("explicit kind requires a matrix")
        entries = _validate_square(matrix, n)
        entries = np.array(entries, dtype=np.float64)
        entries.setflags(write=False)
        return CouplingMatrix(entries, "explicit")

    raise CouplingError(f"unknown coupling kind {kind!r}")


def interaction_edges(couplings: CouplingMatrix, threshold: float = 0.0) -> tuple:
    """All unordered site pairs with |J_ij| strictly above ``threshold``.

    This pair set is the alphabet the polymer enumeration draws from.  The
    threshold is an explicit approximation knob (default 0: keep every
    nonzero coupling); it is never applied implicitly elsewhere.
    """
    if threshold < 0:
        raise ValueError("threshold must be nonnegative")
    n = couplings.n_sites
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if abs(couplings.entries[i, j]) > threshold:
                edges.append((i, j))
    return tuple(edges)


@dataclass(frozen=True)
class ModelInstance:
    """A concrete problem: lattice + couplings + on-site terms + beta."""

    lattice: Lattice
    couplings: CouplingMatrix
    onsite: OnsiteParams
    beta: float

    def __post_init__(self):
        n = self.lattice.n_sites
        if self.couplings.n_sites != n:
            raise ValueError("coupling matrix size does not match lattice")
        if self.onsite.U.shape[0] != n:
            raise ValueError("on-site parameter arrays do not match lattice size")
        if not (self.beta > 0 and math.isfinite(self.beta)):
            raise ValueError("inverse temperature beta must be positive and finite")

    @property
    def n_sites(self) -> int:
        return self.lattice.n_sites

    def coupling(self, i: int, j: int) -> float:
        return self.couplings.coupling(i, j)
