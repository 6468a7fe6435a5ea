"""Configuration ingestion, subcommand dispatch, and result emission.

One JSON configuration file drives every subcommand; the only positional
arguments are the subcommand and the config path, with ``--set
section.key=value`` overrides layered on top.  Reports are JSON documents
(schema-stamped, timing isolated under a single ``timing`` subtree so
golden-file comparisons can exclude exactly one key); tabular commands can
emit CSV instead.  Exit codes: 0 success, 2 config error, 3 resource cap,
4 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

import numpy as np

from . import SCHEMA_VERSION, __version__
from .expansion import (
    ExpansionConfig,
    approximate_log_partition,
    kp_diagnostic,
    resolve_cutoff,
)
from .fock import EigensolverError, restricted_log_partition
from .lattice import (
    CouplingError,
    ModelInstance,
    OnsiteParams,
    build_couplings,
    build_lattice,
    interaction_edges,
)
from .oracle import (
    DEFAULT_DIM_CAP,
    DimensionCapError,
    _rescale_beta,
    clustering_scan,
    moments,
    mutual_information,
    occupation_distribution,
    thermalize,
)
from .polymers import PolymerCountError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RESOURCE = 3
EXIT_NUMERICAL = 4


class ConfigError(ValueError):
    """Invalid run configuration; carries the full list of problems."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


# ---------------------------------------------------------------------------
# configuration loading and validation


def _set_path(config: dict, dotted: str, raw: str) -> None:
    keys = dotted.split(".")
    target = config
    for key in keys[:-1]:
        target = target.setdefault(key, {})
        if not isinstance(target, dict):
            raise ConfigError([f"--set path {dotted!r} crosses a non-object value"])
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    target[keys[-1]] = value


def load_config(path: str, overrides=()) -> dict:
    try:
        with open(path) as fh:
            config = json.load(fh)
    except FileNotFoundError:
        raise ConfigError([f"config file not found: {path}"])
    except json.JSONDecodeError as exc:
        raise ConfigError([f"config file is not valid JSON: {exc}"])
    if not isinstance(config, dict):
        raise ConfigError(["config root must be a JSON object"])
    for item in overrides:
        if "=" not in item:
            raise ConfigError([f"--set expects section.key=value, got {item!r}"])
        dotted, raw = item.split("=", 1)
        _set_path(config, dotted, raw)
    return config


def _as_float(value, name, problems):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        problems.append(f"{name} must be a number, got {value!r}")
        return None
    return float(value)


_NEEDS_EXPANSION = {"approx", "compare", "kp"}
_NEEDS_ORACLE_Q = {"exact", "clustering", "moments"}
_TABULAR = {"compare", "clustering", "moments", "kp"}


def validate_config(config: dict, command: str | None = None) -> list[str]:
    """Collect every validation problem (never stops at the first)."""
    problems: list[str] = []

    model = config.get("model")
    if not isinstance(model, dict):
        problems.append("missing or invalid section: model")
        model = {}

    if not isinstance(model.get("periodic", False), bool):
        problems.append("model.periodic must be true or false")

    dims = model.get("dims")
    n_sites = None
    if not isinstance(dims, list) or not dims or not all(
        isinstance(d, int) and not isinstance(d, bool) and d >= 1 for d in dims
    ):
        problems.append("model.dims must be a nonempty list of integers >= 1")
    else:
        n_sites = math.prod(dims)

    if "beta" not in model:
        problems.append("model.beta is required")
    else:
        beta = _as_float(model["beta"], "model.beta", problems)
        if beta is not None and not beta > 0:
            problems.append("model.beta must be positive")

    coupling = model.get("coupling")
    if not isinstance(coupling, dict):
        problems.append("model.coupling must be an object with a kind")
        coupling = {}
    kind = coupling.get("kind")
    if kind not in ("long_range", "finite_range", "explicit"):
        problems.append(
            "model.coupling.kind must be one of long_range, finite_range, explicit"
        )
    if kind == "long_range":
        g = _as_float(coupling.get("g", 0.0), "model.coupling.g", problems)
        if g is not None and g <= 0:
            problems.append("model.coupling.g must be positive")
        alpha = _as_float(coupling.get("alpha", 0.0), "model.coupling.alpha", problems)
        if alpha is not None and dims and isinstance(dims, list) and alpha <= len(dims):
            problems.append(f"model.coupling.alpha must exceed the dimension D = {len(dims)}")
    elif kind == "finite_range":
        g = _as_float(coupling.get("g", 0.0), "model.coupling.g", problems)
        if g is not None and g <= 0:
            problems.append("model.coupling.g must be positive")
        d_c = coupling.get("d_c")
        if not isinstance(d_c, int) or isinstance(d_c, bool) or d_c < 1:
            problems.append("model.coupling.d_c must be an integer >= 1")
    elif kind == "explicit":
        matrix = coupling.get("matrix")
        if not isinstance(matrix, list):
            problems.append("model.coupling.matrix is required for explicit kind")

    for name in ("U", "mu"):
        value = model.get(name)
        if value is None:
            problems.append(f"model.{name} is required")
        elif isinstance(value, list):
            if n_sites is not None and len(value) != n_sites:
                problems.append(f"model.{name} list must have length N = {n_sites}")
            for k, entry in enumerate(value):
                x = _as_float(entry, f"model.{name}[{k}]", problems)
                if name == "U" and x is not None and x <= 0:
                    problems.append(f"model.U[{k}] must be strictly positive")
        elif isinstance(value, bool) or not isinstance(value, (int, float)):
            problems.append(f"model.{name} must be a number or per-site list")
        elif name == "U" and value <= 0:
            problems.append("model.U must be strictly positive")

    expansion = config.get("expansion", {})
    if not isinstance(expansion, dict):
        problems.append("expansion section must be an object")
        expansion = {}
    m = expansion.get("m")
    if m is not None and (not isinstance(m, int) or isinstance(m, bool) or m < 1):
        problems.append("expansion.m must be an integer >= 1")
    q_policy = expansion.get("q_policy", "explicit")
    if q_policy not in ("explicit", "auto"):
        problems.append("expansion.q_policy must be explicit or auto")
    if q_policy == "explicit":
        q = expansion.get("q")
        if q is not None and (not isinstance(q, int) or isinstance(q, bool) or q < 1):
            problems.append("expansion.q must be an integer >= 1")
    for name in ("theta", "q_prefactor"):
        if name in expansion:
            x = _as_float(expansion[name], f"expansion.{name}", problems)
            if x is not None and not x > 0:
                problems.append(f"expansion.{name} must be positive")
    threshold = expansion.get("polymer_threshold")
    if threshold is not None:
        t = _as_float(threshold, "expansion.polymer_threshold", problems)
        if t is not None and t < 0:
            problems.append("expansion.polymer_threshold must be nonnegative")

    oracle = config.get("oracle", {})
    if not isinstance(oracle, dict):
        problems.append("oracle section must be an object")
        oracle = {}
    for name in ("q", "dim_cap", "l_max", "site", "anchor"):
        value = oracle.get(name)
        if value is not None and (not isinstance(value, int) or isinstance(value, bool)):
            problems.append(f"oracle.{name} must be an integer")
    for name in ("q", "dim_cap", "l_max"):
        value = oracle.get(name)
        if isinstance(value, int) and not isinstance(value, bool) and value < 1:
            problems.append(f"oracle.{name} must be >= 1")
    family = oracle.get("family")
    if family is not None and family not in ("hopping", "density"):
        problems.append("oracle.family must be hopping or density")
    for name in ("site", "anchor"):
        value = oracle.get(name)
        if isinstance(value, int) and n_sites is not None and not 0 <= value < n_sites:
            problems.append(f"oracle.{name} must be a site index in [0, {n_sites})")
    partitions = oracle.get("partitions")
    if partitions is not None:
        if not isinstance(partitions, list):
            problems.append("oracle.partitions must be a list of site lists")
        else:
            for part in partitions:
                if not isinstance(part, list) or not part:
                    problems.append("oracle.partitions entries must be nonempty site lists")
                    continue
                if n_sites is not None:
                    if any(
                        not isinstance(s, int) or isinstance(s, bool) or not 0 <= s < n_sites
                        for s in part
                    ):
                        problems.append(f"oracle.partitions entry {part} has invalid sites")
                    elif len(set(part)) == n_sites:
                        problems.append(
                            f"oracle.partitions entry {part} covers the whole lattice "
                            "(complement is empty)"
                        )
                    elif len(set(part)) != len(part):
                        problems.append(f"oracle.partitions entry {part} repeats sites")
    beta_list = oracle.get("beta_list")
    if beta_list is not None:
        if not isinstance(beta_list, list) or not beta_list or any(
            isinstance(b, bool) or not isinstance(b, (int, float)) or b <= 0
            for b in beta_list
        ):
            problems.append("oracle.beta_list must be a nonempty list of positive numbers")

    output = config.get("output", {})
    if not isinstance(output, dict):
        problems.append("output section must be an object")
        output = {}
    fmt = output.get("format", "json")
    if fmt not in ("json", "csv"):
        problems.append("output.format must be json or csv")
    elif fmt == "csv" and command is not None and command not in _TABULAR:
        problems.append(f"output.format=csv is only supported for {sorted(_TABULAR)}")

    expansion_resolvable = q_policy == "auto" or expansion.get("q") is not None
    if command in _NEEDS_EXPANSION:
        if expansion.get("m") is None:
            problems.append("expansion.m is required for this command")
        if not expansion_resolvable:
            problems.append(
                "expansion.q is required unless expansion.q_policy is auto"
            )
    if command in _NEEDS_ORACLE_Q and oracle.get("q") is None and not expansion_resolvable:
        problems.append(
            "oracle.q is required unless the expansion section resolves a cutoff"
        )

    return problems


def build_model(config: dict) -> ModelInstance:
    model = config["model"]
    lattice = build_lattice(model["dims"], model.get("periodic", False))
    coupling = model["coupling"]
    kind = coupling["kind"]
    matrix = coupling.get("matrix")
    if matrix is not None:
        matrix = np.asarray(matrix, dtype=np.float64)
    couplings = build_couplings(
        lattice,
        kind,
        g=coupling.get("g"),
        alpha=coupling.get("alpha"),
        d_c=coupling.get("d_c"),
        matrix=matrix,
    )
    n = lattice.n_sites
    U = model["U"]
    mu = model["mu"]
    U_arr = np.asarray(U if isinstance(U, list) else [U] * n, dtype=np.float64)
    mu_arr = np.asarray(mu if isinstance(mu, list) else [mu] * n, dtype=np.float64)
    onsite = OnsiteParams(U_arr, mu_arr)
    return ModelInstance(lattice, couplings, onsite, float(model["beta"]))


def build_expansion_config(config: dict) -> ExpansionConfig:
    section = config.get("expansion", {})
    return ExpansionConfig(
        m=section.get("m", 2),
        q=section.get("q"),
        q_policy=section.get("q_policy", "explicit"),
        theta=section.get("theta", 1.0),
        q_prefactor=section.get("q_prefactor", 2.0),
        polymer_threshold=section.get("polymer_threshold", 0.0),
    )


def _cutoff(config: dict, cfg: ExpansionConfig) -> int:
    model = config["model"]
    return resolve_cutoff(math.prod(model["dims"]), float(model["beta"]), cfg)


def _oracle_q(config: dict) -> int:
    q = config.get("oracle", {}).get("q")
    return int(q) if q is not None else _cutoff(config, build_expansion_config(config))


def _dim_cap(config: dict, q: int) -> int:
    """The oracle's dimension cap, checked from the config alone, so that a
    refused run never builds the model's N x N arrays."""
    n = math.prod(config["model"]["dims"])
    dim_cap = config.get("oracle", {}).get("dim_cap", DEFAULT_DIM_CAP)
    if (q + 1) ** n > dim_cap:
        raise DimensionCapError((q + 1) ** n, dim_cap)
    return dim_cap


# ---------------------------------------------------------------------------
# subcommands: each returns (result_dict, csv_rows_or_None, timing_dict)


def cmd_approx(config: dict):
    model = build_model(config)
    cfg = build_expansion_config(config)
    report = approximate_log_partition(model, cfg)
    return report.to_dict(), None, {"elapsed_seconds": report.elapsed}


def cmd_exact(config: dict):
    start = time.perf_counter()
    q = _oracle_q(config)
    dim_cap = _dim_cap(config, q)
    model = build_model(config)
    section = config.get("oracle", {})
    state = thermalize(model, q, dim_cap=dim_cap)

    result: dict = {"log_z": state.log_z, "q": q, "n_sites": model.n_sites}
    if section.get("l_max") is not None:
        site = section.get("site", 0)
        result["moments"] = {
            "site": site,
            "values": moments(state, site, section["l_max"]),
        }
    if section.get("site") is not None:
        result["occupation_distribution"] = {
            "site": section["site"],
            "p": occupation_distribution(state, section["site"]),
        }
    if section.get("partitions"):
        rows = []
        for part in section["partitions"]:
            a = sorted(set(part))
            b = [i for i in range(model.n_sites) if i not in set(a)]
            rows.append({"A": a, "mutual_information": mutual_information(state, (a, b))})
        result["mutual_information"] = rows
    return result, None, {"elapsed_seconds": time.perf_counter() - start}


def cmd_compare(config: dict, m_list=None, q_list=None):
    start = time.perf_counter()
    base = build_expansion_config(config)
    if not m_list:
        m_list = [base.m]
    if not q_list:
        q_list = [_cutoff(config, base)]
    if min(m_list) < 1:
        raise ValueError("truncation order m must be >= 1")
    for q in q_list:
        _dim_cap(config, q)
    model = build_model(config)

    # the oracle keeps every coupling, so abs_error includes what the
    # polymer threshold drops
    edges = interaction_edges(model.couplings, 0.0)
    region = range(model.n_sites)
    rows = []
    for q in q_list:
        cfg = ExpansionConfig(m=max(m_list), q=q, polymer_threshold=base.polymer_threshold)
        # the expansion checks its own dimension cap before any solve
        report = approximate_log_partition(model, cfg)
        oracle_log_z = restricted_log_partition(model, region, edges, q)
        for m in m_list:
            # the same left-to-right sum of orders 1..m as a run at this m
            t_m = 0.0
            for oc in report.per_order[:m]:
                t_m += oc.contribution
            f_beta = report.log_z_w + t_m
            rows.append(
                {
                    "m": m,
                    "q": q,
                    "f_beta": f_beta,
                    "oracle_log_z_q": oracle_log_z,
                    "abs_error": abs(f_beta - oracle_log_z),
                    "m_error_bound": model.n_sites * math.exp(-m),
                }
            )
    columns = ["m", "q", "f_beta", "oracle_log_z_q", "abs_error", "m_error_bound"]
    return (
        {"rows": rows, "columns": columns},
        (columns, rows),
        {"elapsed_seconds": time.perf_counter() - start},
    )


def cmd_clustering(config: dict):
    start = time.perf_counter()
    q = _oracle_q(config)
    dim_cap = _dim_cap(config, q)
    model = build_model(config)
    section = config.get("oracle", {})
    state = thermalize(model, q, dim_cap=dim_cap)
    scan = clustering_scan(state, section.get("family", "hopping"), section.get("anchor", 0))
    rows = [
        {
            "site_a": r.site_a,
            "site_b": r.site_b,
            "distance": r.distance,
            "value": r.value,
            "phi_ref": r.phi_ref,
            "bound_ref": r.bound_ref,
            "ratio": r.ratio,
        }
        for r in scan.rows
    ]
    columns = ["site_a", "site_b", "distance", "value", "phi_ref", "bound_ref", "ratio"]
    result = {
        "family": scan.family,
        "anchor": scan.anchor,
        "fitted_exponent": scan.fitted_exponent,
        "rows": rows,
        "columns": columns,
    }
    return result, (columns, rows), {"elapsed_seconds": time.perf_counter() - start}


def cmd_moments(config: dict):
    start = time.perf_counter()
    q = _oracle_q(config)
    dim_cap = _dim_cap(config, q)
    model = build_model(config)
    section = config.get("oracle", {})
    site = section.get("site", 0)
    l_max = section.get("l_max", 2)
    beta_list = section.get("beta_list", [model.beta])

    # W is rescaled only upward in beta; the betas below the first take a second solve
    betas = [float(b) for b in beta_list]
    values, state = {}, None
    for beta in sorted(set(betas), key=lambda b: (b < betas[0], b)):
        if state is not None and beta < state.beta:
            state = None
        state = (thermalize(model, q, beta=beta, dim_cap=dim_cap) if state is None
                 else _rescale_beta(state, beta))
        values[beta] = moments(state, site, l_max)
    rows = [{"beta": beta, "site": site, "l": l, "value": value}
            for beta in betas for l, value in enumerate(values[beta], start=1)]
    columns = ["beta", "site", "l", "value"]
    return ({"rows": rows, "columns": columns, "q": q}, (columns, rows),
            {"elapsed_seconds": time.perf_counter() - start})


def cmd_kp(config: dict):
    start = time.perf_counter()
    model = build_model(config)
    cfg = build_expansion_config(config)
    q = resolve_cutoff(model.n_sites, model.beta, cfg)
    rows_dc = kp_diagnostic(model, cfg, q=q)
    rows = [
        {"site": r.site, "lhs": r.lhs, "rhs": r.rhs, "certified": r.certified}
        for r in rows_dc
    ]
    columns = ["site", "lhs", "rhs", "certified"]
    result = {
        "rows": rows,
        "columns": columns,
        "m": cfg.m,
        "q": q,
        "certified": all(r.certified for r in rows_dc),
        "note": "lhs is a size-truncated lower bound; it can refute convergence, not certify it",
    }
    return result, (columns, rows), {"elapsed_seconds": time.perf_counter() - start}


# ---------------------------------------------------------------------------
# emission


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def render_csv(columns, rows) -> str:
    lines = [f"# bosepoly-schema: {SCHEMA_VERSION}", ",".join(columns)]
    for row in rows:
        lines.append(",".join(_csv_cell(row[c]) for c in columns))
    return "\n".join(lines) + "\n"


def render_json(command: str, result: dict, timing: dict) -> str:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "result": result,
        "timing": timing,
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _emit(text: str, path: str | None) -> None:
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# entry point

def run(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bosepoly",
        description="Cluster-expansion estimator and exact oracle for truncated "
        "Bose-Hubbard thermal states",
    )
    parser.add_argument(
        "--version", action="version",
        version=f"bosepoly {__version__} (schema {SCHEMA_VERSION})",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("config", help="path to the JSON run configuration")
        p.add_argument(
            "--set", action="append", default=[], metavar="SECTION.KEY=VALUE",
            help="override a config value (repeatable)",
        )

    for name, descr in [
        ("approx", "run the truncated cluster expansion"),
        ("exact", "exact diagonalization: log Z and requested observables"),
        ("compare", "expansion vs exact oracle over m and q grids"),
        ("clustering", "correlation-decay scan from an anchor site"),
        ("moments", "local particle-number moments, optionally over a beta list"),
        ("kp", "convergence-condition margins per site"),
    ]:
        p = sub.add_parser(name, help=descr)
        add_common(p)
        if name == "compare":
            p.add_argument("--m-list", default="", help="comma-separated truncation orders")
            p.add_argument("--q-list", default="", help="comma-separated boson cutoffs")

    args = parser.parse_args(argv)

    try:
        config = load_config(args.config, args.set)
        problems = validate_config(config, args.command)
        if problems:
            raise ConfigError(problems)

        if args.command == "approx":
            result, rows, timing = cmd_approx(config)
        elif args.command == "exact":
            result, rows, timing = cmd_exact(config)
        elif args.command == "compare":
            m_list = [int(x) for x in args.m_list.split(",") if x]
            q_list = [int(x) for x in args.q_list.split(",") if x]
            result, rows, timing = cmd_compare(config, m_list, q_list)
        elif args.command == "clustering":
            result, rows, timing = cmd_clustering(config)
        elif args.command == "moments":
            result, rows, timing = cmd_moments(config)
        elif args.command == "kp":
            result, rows, timing = cmd_kp(config)
        else:  # pragma: no cover - argparse enforces the choices
            raise ConfigError([f"unknown command {args.command}"])

        output = config.get("output", {})
        if output.get("format", "json") == "csv":
            columns, row_dicts = rows
            text = render_csv(columns, row_dicts)
        else:
            text = render_json(args.command, result, timing)
        _emit(text, output.get("path"))
        return EXIT_OK

    except ConfigError as exc:
        _emit_error("config_error", str(exc), exc.problems)
        return EXIT_CONFIG
    except (CouplingError, ValueError) as exc:
        _emit_error("config_error", str(exc), [str(exc)])
        return EXIT_CONFIG
    except (DimensionCapError, PolymerCountError) as exc:
        _emit_error(
            "resource_cap", str(exc),
            [f"required={exc.required}", f"allowed={exc.allowed}"],
        )
        return EXIT_RESOURCE
    except (EigensolverError, ArithmeticError) as exc:
        _emit_error("numerical_failure", str(exc), [str(exc)])
        return EXIT_NUMERICAL


def _emit_error(code: str, message: str, details) -> None:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "error": {"code": code, "message": message, "details": list(details)},
    }
    sys.stdout.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
