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
``weight_table`` solves each component that ``subset_components`` yields
once, and runs each polymer's near-cancelling alternating sum in that
subset order with compensated accumulation.  A weight is a plain float and
a pure function of its polymer: no bit depends on the rest of the table.
"""

from __future__ import annotations

import math

import numpy as np

from .fock import EigensolverError, onsite_log_trace, restricted_log_partition
from .lattice import ModelInstance
from .polymers import subset_components

__all__ = ["weight_table"]


def _log_g(model: ModelInstance, edges: tuple, q: int) -> float:
    """log g(K) on the component's own support: hopping trace minus free trace."""
    region = tuple(sorted({s for e in edges for s in e}))
    try:
        return (restricted_log_partition(model, region, edges, q)
                - onsite_log_trace(model, region, q, model.beta))
    except (EigensolverError, FloatingPointError) as exc:
        raise EigensolverError(f"weight evaluation failed for polymer {edges}: {exc}") from exc


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
    each polymer's edge tuple.

    Every connected component of every edge subset is solved once, when
    first met.  A failing solve aborts the whole table with the identity of
    the component attached.
    """
    polymers = list(polymers)
    if len(set(polymers)) != len(polymers):
        raise ValueError("duplicate polymer in weight_table input")
    if q < 1:
        raise ValueError("cutoff q must be >= 1")

    solved: dict = {}
    table = {}
    for polymer in polymers:
        terms = []
        for size, ks in subset_components(polymer.edges):
            for k in ks:
                if k not in solved:
                    solved[k] = _log_g(model, k, q)
            terms.append((-1.0) ** size * np.exp(math.fsum(solved[k] for k in ks)))
        table[polymer.edges] = float((-1.0) ** polymer.size * _neumaier_sum(terms))
    return table
