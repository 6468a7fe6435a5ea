"""Benchmark workloads: input generation from a seed, and correctness gates.

Every workload is a nearest-neighbour ``finite_range`` Bose-Hubbard model
at ``beta = 0.5``, ``g = 0.2``.  At these values every per-order row of the
expansion sits well above float roundoff, so a dropped term shows in the
gates; at ``beta = 0.1``, ``g = 0.1`` the order-4 and order-5 rows are at
the 1e-14 noise floor and could not be checked.

The seed selects one of ``POOL`` instances (``seed % POOL``) and the
instance index seeds the on-site terms.  A finite pool lets every input the
benchmark can generate carry a reference computed once, at a known commit,
outside any timed region (see ``make_refs.py``).
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field

POOL = 32
REFS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs")


@dataclass(frozen=True)
class Workload:
    name: str
    dims: tuple
    m: int
    q: int
    disordered: bool
    commands: tuple  # CLI argv tails; the config path goes after the subcommand
    gate: str  # "ed", "stored" or "validate"
    tol: float
    oracle: dict = field(default_factory=dict)


_VALIDATE_ORACLE = {"site": 0, "l_max": 4, "anchor": 0, "family": "hopping"}

WORKLOADS = {
    # Bound by eigensolves inside weights: 20 polymers, 501 clusters, sector
    # blocks up to 580x580.  Disorder gives every polymer its own weight.
    "approx-chain-deep": Workload(
        "approx-chain-deep", (7,), m=5, q=3, disordered=True,
        commands=(("approx",),), gate="ed", tol=3e-10,
    ),
    # Bound by enumeration and Python overhead: 2193 polymers (118 shape
    # classes), 24,104 clusters, blocks of dimension 10 at most.  ED is out
    # of reach (2^36 states), so the gate is a stored reference.
    "approx-square-wide": Workload(
        "approx-square-wide", (6, 6), m=4, q=1, disordered=False,
        commands=(("approx",),), gate="stored", tol=1e-10,
    ),
    # The expansion judged against ground truth: few large full-spectrum
    # blocks built by the oracle, and four weight tables for the m-list.
    "validate-2x4": Workload(
        "validate-2x4", (2, 4), m=4, q=2, disordered=True,
        commands=(
            ("compare", "--m-list", "1,2,3,4", "--q-list", "2"),
            ("exact",),
            ("clustering",),
        ),
        gate="validate", tol=1e-10,
        oracle=dict(_VALIDATE_ORACLE, q=2, partitions=[[0, 1, 2, 3]]),
    ),
    # Tiny inputs for the benchmark's own tests.
    "smoke-approx": Workload(
        "smoke-approx", (4,), m=2, q=2, disordered=True,
        commands=(("approx",),), gate="ed", tol=1e-5,
    ),
    "smoke-validate": Workload(
        "smoke-validate", (2, 2), m=2, q=1, disordered=True,
        commands=(
            ("compare", "--m-list", "1,2", "--q-list", "1"),
            ("exact",),
            ("clustering",),
        ),
        gate="validate", tol=1e-10,
        oracle=dict(_VALIDATE_ORACLE, q=1, l_max=2, partitions=[[0, 1]]),
    ),
}


def instance(seed: int) -> int:
    return seed % POOL


def make_config(wl: Workload, seed: int) -> dict:
    """The run configuration for ``seed``; the program sees only this."""
    rng = random.Random(f"{wl.name}/{instance(seed)}")
    n = math.prod(wl.dims)

    def draw(lo, hi):
        return round(rng.uniform(lo, hi), 6)

    if wl.disordered:
        U = [draw(0.8, 1.2) for _ in range(n)]
        mu = [draw(0.0, 1.0) for _ in range(n)]
    else:
        U = draw(0.8, 1.2)
        mu = draw(0.0, 1.0)
    config = {
        "model": {
            "dims": list(wl.dims),
            "periodic": False,
            "coupling": {"kind": "finite_range", "g": 0.2, "d_c": 1},
            "U": U,
            "mu": mu,
            "beta": 0.5,
        },
        "expansion": {"m": wl.m, "q": wl.q, "q_policy": "explicit", "workers": 1},
        "output": {"format": "json"},
    }
    if wl.oracle:
        config["oracle"] = dict(wl.oracle)
    return config


def config_text(config: dict) -> str:
    return json.dumps(config, sort_keys=True, indent=1) + "\n"


def cli_argv(command: tuple, config_path: str) -> list:
    return [command[0], config_path, *command[1:]]


def refs_path(wl: Workload) -> str:
    return os.path.join(REFS_DIR, f"{wl.name}.json")


def load_reference(wl: Workload, seed: int) -> dict:
    """The stored reference for the seed's instance.  A missing reference
    raises KeyError."""
    with open(refs_path(wl)) as fh:
        refs = json.load(fh)
    return refs["instances"][str(instance(seed))]


# ---------------------------------------------------------------------------
# correctness gates: each returns (passed, abs_err or None, problems)


def _gate_ed(wl, docs, ref):
    result = docs[0]["result"]
    err = abs(result["f_beta"] - ref["log_z"])
    problems = []
    if not err <= wl.tol:
        problems.append(f"|f_beta - log Z_ED| = {err:.3e} > {wl.tol:.0e}")
    return not problems, err, problems


def _gate_stored(wl, docs, ref):
    result = docs[0]["result"]
    got = [row["contribution"] for row in result["per_order"]]
    want = ref["per_order"]
    problems = []
    if len(got) != len(want):
        problems.append(f"{len(got)} per-order rows, reference has {len(want)}")
    for order, (a, b) in enumerate(zip(got, want), start=1):
        if not abs(a - b) <= wl.tol:
            problems.append(f"order {order}: {a!r} vs reference {b!r}")
    # no ED reference exists for this lattice, so there is no abs_err
    return not problems, None, problems


def _gate_validate(wl, docs, ref):
    compare, exact, clustering = (doc["result"] for doc in docs)
    log_z = exact["log_z"]
    problems = []
    rows = compare["rows"]
    if [row["m"] for row in rows] != list(range(1, wl.m + 1)):
        problems.append(f"compare rows cover m = {[row['m'] for row in rows]}")
    for row, f_beta in zip(rows, ref["f_beta_by_m"]):
        if not abs(row["f_beta"] - f_beta) <= wl.tol:
            problems.append(f"m={row['m']}: f_beta {row['f_beta']!r} vs reference {f_beta!r}")
    for row in rows:
        if not abs(row["oracle_log_z_q"] - log_z) <= wl.tol:
            problems.append(
                f"compare oracle_log_z_q {row['oracle_log_z_q']!r} != exact log_z {log_z!r}"
            )
        if not row["abs_error"] <= row["m_error_bound"]:
            problems.append(
                f"m={row['m']}: abs_error {row['abs_error']:.3e} > bound {row['m_error_bound']:.3e}"
            )
    for part in exact.get("mutual_information", []):
        if not part["mutual_information"] >= 0.0:
            problems.append(f"mutual information {part['mutual_information']!r} < 0")
    if "mutual_information" not in exact:
        problems.append("exact reported no mutual information")
    p = exact.get("occupation_distribution", {}).get("p")
    if not p or not abs(math.fsum(p) - 1.0) <= wl.tol:
        problems.append(f"occupation distribution {p!r} does not sum to 1")
    n_sites = math.prod(wl.dims)
    if len(clustering["rows"]) != n_sites - 1:
        problems.append(f"clustering scan has {len(clustering['rows'])} rows")
    abs_err = rows[-1]["abs_error"] if rows else None
    return not problems, abs_err, problems


_GATES = {"ed": _gate_ed, "stored": _gate_stored, "validate": _gate_validate}


def check(wl: Workload, docs: list, ref) -> tuple:
    """Gate one run's parsed CLI reports, one per command, in order."""
    try:
        return _GATES[wl.gate](wl, docs, ref)
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        return False, None, [f"malformed report: {exc!r}"]
