"""Compute the stored references the correctness gates compare against.

Run from the repository root, at the commit the references should come
from (normally the parent of a change under test):

    python3 perfbench/make_refs.py                      # every workload
    python3 perfbench/make_refs.py approx-chain-deep    # one workload

Each workload with a reference gets ``perfbench/refs/<workload>.json``,
keyed by instance index (``seed % POOL``), so every seed the benchmark can
be given has a reference.  ``ed`` workloads store the exact log Z of the
truncated model (per-sector eigensolves through
``fock.restricted_log_partition``); ``stored`` workloads store the per-order
rows of ``approx`` at this commit.  Both also keep the ``approx`` report
fields they were checked against, for reading, not for gating.
``validate`` workloads store ``compare``'s ``f_beta`` for each ``m`` of the
workload's m-list.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"
os.environ.pop("BOSEPOLY_WORKERS", None)
sys.path.insert(0, os.path.abspath("src"))

import numpy as np  # noqa: E402

from bosepoly import cli  # noqa: E402
from bosepoly.fock import restricted_log_partition  # noqa: E402
from bosepoly.lattice import interaction_edges  # noqa: E402

from run import git_sha  # noqa: E402
from workloads import POOL, WORKLOADS, make_config, refs_path  # noqa: E402


def reference(wl, index: int) -> dict:
    config = make_config(wl, index)
    if wl.gate == "validate":
        result, _rows, _timing = cli.cmd_compare(config, list(range(1, wl.m + 1)), [wl.q])
        return {
            "f_beta_by_m": [row["f_beta"] for row in result["rows"]],
            "oracle_log_z_q": result["rows"][0]["oracle_log_z_q"],
        }
    result, _rows, _timing = cli.cmd_approx(config)
    entry = {
        "f_beta": result["f_beta"],
        "per_order": [row["contribution"] for row in result["per_order"]],
        "polymer_count": result["polymer_count"],
        "cluster_count": result["cluster_count"],
    }
    if wl.gate == "ed":
        model = cli.build_model(config)
        edges = interaction_edges(model.couplings, 0.0)
        log_z = restricted_log_partition(model, range(model.n_sites), edges, wl.q)
        entry["log_z"] = log_z
        entry["abs_err"] = abs(result["f_beta"] - log_z)
    return entry


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*", help="default: every workload")
    args = parser.parse_args()
    unknown = sorted(set(args.workloads) - set(WORKLOADS))
    if unknown:
        parser.error(f"unknown workloads {unknown}")
    for name in args.workloads or WORKLOADS:
        wl = WORKLOADS[name]
        start = time.perf_counter()
        instances = {str(k): reference(wl, k) for k in range(POOL)}
        doc = {
            "workload": name,
            "commit": git_sha(),
            "numpy": np.__version__,
            "instances": instances,
        }
        with open(refs_path(wl), "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"{name}: {POOL} references in {time.perf_counter() - start:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
