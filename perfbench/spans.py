"""Span recording for the traced run, and the per-layer metrics it yields.

The recorder wraps module attributes that the program calls through (for
example ``bosepoly.expansion.weight_table`` or ``numpy.linalg.eigvalsh``).
Each call becomes a span: name, start, end, parent span, and an optional
dict of counters measured from the call's arguments or result.  Spans stay
in memory and are written out once, when the run ends.

A wrapped attribute that no longer exists is skipped, so a layer function
the program stops calling reads 0 calls rather than failing the trace.  The
span stack assumes one thread, which holds because every generated config
sets ``expansion.workers = 1``.
"""

from __future__ import annotations

import importlib
import json
import time


def _items(args, kwargs, result):
    return {"items": len(result)}


def _table(args, kwargs, result):
    values = list(result.values())
    return {
        "polymers": len(values),
        "terms": sum(getattr(r, "terms", 0) for r in values),
        "max_block_dim": max((getattr(r, "max_block_dim", 0) for r in values), default=0),
    }


def _solve(args, kwargs, result):
    dim = int((args[0] if args else kwargs["a"]).shape[-1])
    return {"dim3": dim**3, "max_dim": dim}


# (module, attribute, span name, counters); names are "<layer>.<what>"
TARGETS = (
    ("bosepoly.cli", "load_config", "cli.config", None),
    ("bosepoly.cli", "validate_config", "cli.config", None),
    ("bosepoly.cli", "build_model", "lattice.build", None),
    ("bosepoly.cli", "approximate_log_partition", "expansion.approx", None),
    ("bosepoly.cli", "kp_diagnostic", "expansion.kp", None),
    ("bosepoly.expansion", "kp_diagnostic", "expansion.kp", None),
    ("bosepoly.cli", "enumerate_polymers", "polymers.enumerate", _items),
    ("bosepoly.expansion", "enumerate_polymers", "polymers.enumerate", _items),
    ("bosepoly.expansion", "enumerate_clusters", "polymers.clusters", _items),
    ("bosepoly.expansion", "copy_incompatibility_graph", "ursell.graph", None),
    ("bosepoly.expansion", "ursell", "ursell.phi", None),
    ("bosepoly.cli", "weight_table", "weights.table", _table),
    ("bosepoly.expansion", "weight_table", "weights.table", _table),
    ("bosepoly.cli", "restricted_log_partition", "oracle.rlp", None),
    ("bosepoly.cli", "thermalize", "oracle.thermalize", None),
    ("bosepoly.cli", "moments", "oracle.observables", None),
    ("bosepoly.cli", "occupation_distribution", "oracle.observables", None),
    ("bosepoly.cli", "clustering_scan", "oracle.observables", None),
    ("bosepoly.cli", "mutual_information", "oracle.mi", None),
    ("bosepoly.fock", "sector_blocks", "fock.sector", None),
    ("bosepoly.weights", "sector_blocks", "fock.sector", None),
    ("bosepoly.oracle", "sector_blocks", "fock.sector", None),
    ("bosepoly.fock", "build_block_hamiltonian", "fock.block_build", None),
    ("bosepoly.oracle", "build_block_hamiltonian", "fock.block_build", None),
    ("numpy.linalg", "eigvalsh", "fock.eigvalsh", _solve),
    ("numpy.linalg", "eigh", "fock.eigh", _solve),
)

ROOT = "cli.run"


class Recorder:
    """Records spans of wrapped calls in memory."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[list] = []  # [name id, start, end, parent index, counters]
        self._stack: list[int] = []

    def wrap(self, name: str, fn, counters=None):
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [nid, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if counters is not None:
                rec[4] = counters(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> list[str]:
        """Wrap every target that exists; returns the ones found."""
        found = []
        for module_name, attr, name, counters in TARGETS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if callable(fn):
                setattr(module, attr, self.wrap(name, fn, counters))
                found.append(f"{module_name}.{attr}")
        return found

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"names": self.names, "spans": self.spans}, fh)


def totals(doc: dict) -> dict:
    """Additive per-name totals of one process's spans.

    Self time is a span's duration minus the durations of its direct
    children; calls of one thread nest, so children never overlap.
    """
    names, spans = doc["names"], doc["spans"]
    child_s = [0.0] * len(spans)
    for _nid, start, end, parent, _c in spans:
        if parent >= 0:
            child_s[parent] += end - start
    table_id = names.index("weights.table") if "weights.table" in names else -2
    out: dict = {}
    for k, (nid, start, end, parent, counters) in enumerate(spans):
        entry = out.setdefault(
            names[nid], {"calls": 0, "total_s": 0.0, "self_s": 0.0, "in_table": 0}
        )
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += end - start - child_s[k]
        for key, value in (counters or {}).items():
            if key.startswith("max_"):
                entry[key] = max(entry.get(key, 0), value)
            else:
                entry[key] = entry.get(key, 0) + value
        up = parent
        while up >= 0 and spans[up][0] != table_id:
            up = spans[up][3]
        if up >= 0:
            entry["in_table"] += 1
    return out


def merge(per_process: list[dict]) -> dict:
    """Combine the totals of the processes of one workload run."""
    out: dict = {}
    for proc in per_process:
        for name, entry in proc.items():
            acc = out.setdefault(name, {})
            for key, value in entry.items():
                if key.startswith("max_"):
                    acc[key] = max(acc.get(key, 0), value)
                else:
                    acc[key] = acc.get(key, 0) + value
    return out


# Self times: these partition the root span, so their sum is the traced wall
# time minus what the recorder itself spends between spans.
SELF_TIMES = {
    "cli.self_s": ("cli.run",),
    "cli.config_s": ("cli.config",),
    "lattice.build_s": ("lattice.build",),
    "polymers.enumerate_s": ("polymers.enumerate",),
    "polymers.clusters_s": ("polymers.clusters",),
    "ursell.phi_s": ("ursell.phi", "ursell.graph"),
    "weights.self_s": ("weights.table",),
    "fock.eigvalsh_s": ("fock.eigvalsh",),
    "fock.eigh_s": ("fock.eigh",),
    "fock.block_build_s": ("fock.block_build",),
    "fock.sector_s": ("fock.sector",),
    "expansion.self_s": ("expansion.approx",),
    "expansion.kp_s": ("expansion.kp",),
    "oracle.thermalize_s": ("oracle.thermalize",),
    "oracle.observables_s": ("oracle.observables",),
    "oracle.mi_s": ("oracle.mi",),
    "oracle.rlp_s": ("oracle.rlp",),
}


PER_LAYER_UNITS = dict(
    {name: "s" for name in SELF_TIMES},
    **{
        "polymers.polymer_count": "count",
        "polymers.cluster_count": "count",
        "ursell.calls": "count",
        "weights.table_calls": "count",
        "weights.table_s": "s",
        "weights.subset_terms": "count",
        "weights.max_block_dim": "states",
        "weights.solves_per_polymer": "solves/polymer",
        "fock.eigvalsh_calls": "count",
        "fock.eigh_calls": "count",
        "fock.eig_flops_computed": "count",
        "fock.largest_block": "states",
        "trace.wall_s": "s",
        "trace.overhead_s": "s",
    },
)


def layer_metrics(merged: dict, traced_wall_s: float, untraced_wall_s: float) -> dict:
    """Per-layer metric values (name -> number) from merged totals."""

    def get(name, key):
        return merged.get(name, {}).get(key, 0)

    polymers_evaluated = get("weights.table", "polymers")
    solves_in_table = get("fock.eigvalsh", "in_table") + get("fock.eigh", "in_table")
    values = {
        metric: sum(get(name, "self_s") for name in names)
        for metric, names in SELF_TIMES.items()
    }
    values.update({
        "polymers.polymer_count": get("polymers.enumerate", "items"),
        "polymers.cluster_count": get("polymers.clusters", "items"),
        "ursell.calls": get("ursell.phi", "calls"),
        "weights.table_calls": get("weights.table", "calls"),
        "weights.table_s": get("weights.table", "total_s"),
        "weights.subset_terms": get("weights.table", "terms"),
        "weights.max_block_dim": get("weights.table", "max_block_dim"),
        "weights.solves_per_polymer": (
            solves_in_table / polymers_evaluated if polymers_evaluated else 0.0
        ),
        "fock.eigvalsh_calls": get("fock.eigvalsh", "calls"),
        "fock.eigh_calls": get("fock.eigh", "calls"),
        "fock.eig_flops_computed": get("fock.eigvalsh", "dim3") + get("fock.eigh", "dim3"),
        "fock.largest_block": max(get("fock.eigvalsh", "max_dim"), get("fock.eigh", "max_dim")),
        "trace.wall_s": traced_wall_s,
        "trace.overhead_s": traced_wall_s - untraced_wall_s,
    })
    return values
