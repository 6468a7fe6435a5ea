"""Polymer weights via inclusion-exclusion over edge subsets.

The weight of a polymer gamma with edges e_1..e_s over support V is

    w_gamma = (-1)^s * sum_{T subset of edges} (-1)^|T| g(T),

where g(T) = Tr(Pi exp(-beta H_T)) / Tr(Pi exp(-beta W)) is a ratio of
truncated traces: the numerator keeps on-site terms but hopping only on
the edges of T.  Sites that T does not touch give the same factor to both
traces and cancel, and sites in different site-connected components of T
do not interact, so

    log g(T) = sum over components K of T of log g(K).

Each component K is itself a connected edge set, i.e. a smaller polymer,
and log g(K) takes one set of number-sector solves on its own support V_K.
``weight_table`` solves every component of ``Polymer.subsets`` once, then
runs each polymer's near-cancelling alternating sum in that subset order
with compensated accumulation.  A weight is therefore a pure function of
its polymer: no bit depends on the rest of the table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock import EigensolverError, onsite_log_trace, restricted_log_partition, sector_blocks
from .lattice import ModelInstance
from .polymers import Polymer

__all__ = ["WeightResult", "weight_table"]


@dataclass(frozen=True)
class WeightResult:
    """A polymer weight with its work counters: ``terms`` = 2^|gamma| edge
    subsets and ``max_block_dim`` = largest number sector of its support
    (read by the benchmark trace in ``perfbench/spans.py``)."""

    value: float
    terms: int
    max_block_dim: int


def _log_g(model: ModelInstance, component: Polymer, q: int) -> float:
    """log g(K) on the component's own support: hopping trace minus free trace."""
    region = tuple(sorted(component.support))
    return (restricted_log_partition(model, region, component.edges, q)
            - onsite_log_trace(model, region, q, model.beta))


def _neumaier_sum(values) -> float:
    total = 0.0
    comp = 0.0
    for v in values:
        t = total + v
        if abs(total) >= abs(v):
            comp += (total - t) + v
        else:
            comp += (v - t) + total
        total = t
    return total + comp


def weight_table(polymers, model: ModelInstance, q: int) -> dict:
    """Weights for a list of distinct polymers at ``model.beta``, keyed by
    polymer.

    Every connected component of every edge subset is solved once.  A
    failing solve aborts the whole table with the identity of the
    component attached.
    """
    polymers = list(polymers)
    if len(set(polymers)) != len(polymers):
        raise ValueError("duplicate polymer in weight_table input")
    if q < 1:
        raise ValueError("cutoff q must be >= 1")

    needed = sorted({k for p in polymers for _size, ks in p.subsets for k in ks},
                    key=lambda p: p.key)

    solved = {}
    for component in needed:
        try:
            solved[component] = _log_g(model, component, q)
        except (EigensolverError, FloatingPointError) as exc:
            raise EigensolverError(
                f"weight evaluation failed for polymer {component.edges}: {exc}"
            ) from exc

    table = {}
    for polymer in polymers:
        terms = [(-1.0) ** size * np.exp(math.fsum(solved[k] for k in ks))
                 for size, ks in polymer.subsets]
        table[polymer] = WeightResult(
            value=float((-1.0) ** polymer.size * _neumaier_sum(terms)),
            terms=len(terms),
            max_block_dim=max(b.dim for b in sector_blocks(sorted(polymer.support), q)),
        )
    return table
