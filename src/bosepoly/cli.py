"""Configuration ingestion, subcommand dispatch, and result emission.

One JSON configuration file drives every subcommand; the only positional
arguments are the subcommand and the config path, with ``--set
section.key=value`` overrides layered on top; a key set to null reads as
absent.  Reports are JSON documents (schema-stamped, timing isolated under
a single ``timing`` subtree so golden-file comparisons can exclude exactly
one key); tabular commands can emit CSV instead.  Exit codes: 0 success,
2 config error, 3 resource cap, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import asdict, fields

import numpy as np

from . import SCHEMA_VERSION, __version__
from .expansion import (
    ExpansionConfig,
    KPDiagnosticRow,
    approximate_log_partition,
    resolve_cutoff,
)
from .fock import DEFAULT_DIM_CAP, check_dim_cap, restricted_log_partition
from .lattice import (
    CouplingError,
    ModelInstance,
    OnsiteParams,
    ResourceCapError,
    build_couplings,
    build_lattice,
    interaction_edges,
)
from .oracle import (
    Clustering,
    ClusteringScanRow,
    Moments,
    MutualInformation,
    OccupationDistribution,
    thermal_states,
    thermalize,
)

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
        if target.get(key) is None:  # a null section reads as an empty one
            target[key] = {}
        target = target[key]
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
    except OSError as exc:  # a directory, or a file we may not read
        raise ConfigError([f"config file cannot be read: {path}: {exc.strerror}"])
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


def _get(config: dict, path: str, default=None):
    """The value at a dotted config path.  A key that is absent or null, or
    that sits under a section that is not an object, reads as ``default``."""
    value = config
    for key in path.split("."):
        value = value.get(key) if isinstance(value, dict) else None
    return default if value is None else value


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _number(value, name, problems, bad=None, requirement=None):
    """Report a value that is not a finite number (bools are not), or one
    that ``bad`` flags as failing ``requirement``."""
    if not _is_number(value):
        problems.append(f"{name} must be a number, got {value!r}")
    elif not abs(value) <= sys.float_info.max:  # NaN, infinities, ints past a float
        problems.append(f"{name} must be finite, got {value!r}")
    elif bad is not None and bad(float(value)):
        problems.append(f"{name} {requirement}")


def _section(config, name, problems):
    if not isinstance(_get(config, name, {}), dict):
        problems.append(f"{name} section must be an object")


_TABULAR = {"compare", "clustering", "moments", "kp"}


def validate_config(config: dict, command: str | None = None) -> list[str]:
    """Collect every validation problem (never stops at the first)."""
    problems: list[str] = []

    if not isinstance(_get(config, "model"), dict):
        problems.append("missing or invalid section: model")

    periodic = _get(config, "model.periodic")
    if periodic is not None and not isinstance(periodic, bool):
        problems.append("model.periodic must be true or false")

    dims = _get(config, "model.dims")
    n_sites = None
    if not isinstance(dims, list) or not dims or not all(_is_int(d) and d >= 1 for d in dims):
        problems.append("model.dims must be a nonempty list of integers >= 1")
    else:
        n_sites = math.prod(dims)

    beta = _get(config, "model.beta")
    if beta is None:
        problems.append("model.beta is required")
    else:
        _number(beta, "model.beta", problems, lambda b: not b > 0, "must be positive")

    if not isinstance(_get(config, "model.coupling"), dict):
        problems.append("model.coupling must be an object with a kind")
    kind = _get(config, "model.coupling.kind")
    if kind not in ("long_range", "finite_range", "explicit"):
        problems.append(
            "model.coupling.kind must be one of long_range, finite_range, explicit"
        )
    # an absent g or alpha reads as 0, which the bounds refuse
    if kind in ("long_range", "finite_range"):
        g = _get(config, "model.coupling.g", 0.0)
        _number(g, "model.coupling.g", problems, lambda g: g <= 0, "must be positive")
    if kind == "long_range":
        n_dims = len(dims) if isinstance(dims, list) else 0
        _number(_get(config, "model.coupling.alpha", 0.0), "model.coupling.alpha", problems,
                lambda a: 0 < n_dims and a <= n_dims, f"must exceed the dimension D = {n_dims}")
    elif kind == "finite_range":
        d_c = _get(config, "model.coupling.d_c")
        if not _is_int(d_c) or d_c < 1:
            problems.append("model.coupling.d_c must be an integer >= 1")
    matrix = _get(config, "model.coupling.matrix")
    if kind == "explicit" and not isinstance(matrix, list):
        problems.append("model.coupling.matrix is required for explicit kind")
    # numpy would read true as 1.0 and "0.1" as 0.1; shape and finiteness
    # are build_couplings' to check
    for i, row in enumerate(matrix if isinstance(matrix, list) else []):
        for j, entry in enumerate(row if isinstance(row, list) else []):
            if not _is_number(entry):
                problems.append(f"model.coupling.matrix[{i}][{j}] must be a number, got {entry!r}")

    for name, bad in (("U", lambda x: x <= 0), ("mu", None)):
        value = _get(config, f"model.{name}")
        if value is None:
            problems.append(f"model.{name} is required")
        elif isinstance(value, list):
            if n_sites is not None and len(value) != n_sites:
                problems.append(f"model.{name} list must have length N = {n_sites}")
            for k, entry in enumerate(value):
                _number(entry, f"model.{name}[{k}]", problems, bad, "must be strictly positive")
        elif not _is_number(value):
            problems.append(f"model.{name} must be a number or per-site list")
        else:
            _number(value, f"model.{name}", problems, bad, "must be strictly positive")

    _section(config, "expansion", problems)
    m = _get(config, "expansion.m")
    if m is not None and (not _is_int(m) or m < 1):
        problems.append("expansion.m must be an integer >= 1")
    q = _get(config, "expansion.q")
    if q is not None and q != "auto" and (not _is_int(q) or q < 1):
        problems.append('expansion.q must be an integer >= 1 or "auto"')
    # legacy keys that would change q or the cap; equal ones, and all others, are ignored
    if _get(config, "expansion.q_policy") == "auto":
        problems.append('expansion.q_policy is no longer read: set expansion.q = "auto"')
    if _get(config, "oracle.q") not in (None, q):
        problems.append("oracle.q is no longer read: set expansion.q")
    if _get(config, "oracle.dim_cap") not in (None, DEFAULT_DIM_CAP):
        problems.append(f"oracle.dim_cap is no longer read: the cap is {DEFAULT_DIM_CAP}")
    threshold = _get(config, "expansion.polymer_threshold")
    if threshold is not None:
        _number(threshold, "expansion.polymer_threshold", problems,
                lambda t: t < 0, "must be nonnegative")

    _section(config, "oracle", problems)
    ints = {name: _get(config, f"oracle.{name}") for name in ("l_max", "site", "anchor")}
    for name, value in ints.items():
        if value is not None and not _is_int(value):
            problems.append(f"oracle.{name} must be an integer")
    if _is_int(ints["l_max"]) and ints["l_max"] < 1:
        problems.append("oracle.l_max must be >= 1")
    if _get(config, "oracle.family") not in (None, "hopping", "density"):
        problems.append("oracle.family must be hopping or density")
    for name in ("site", "anchor"):
        value = ints[name]
        if isinstance(value, int) and n_sites is not None and not 0 <= value < n_sites:
            problems.append(f"oracle.{name} must be a site index in [0, {n_sites})")
    partitions = _get(config, "oracle.partitions")
    if partitions is not None:
        if not isinstance(partitions, list):
            problems.append("oracle.partitions must be a list of site lists")
        else:
            for part in partitions:
                if not isinstance(part, list) or not part:
                    problems.append("oracle.partitions entries must be nonempty site lists")
                    continue
                if n_sites is not None:
                    if any(not _is_int(s) or not 0 <= s < n_sites for s in part):
                        problems.append(f"oracle.partitions entry {part} has invalid sites")
                    elif len(set(part)) == n_sites:
                        problems.append(
                            f"oracle.partitions entry {part} covers the whole lattice "
                            "(complement is empty)"
                        )
                    elif len(set(part)) != len(part):
                        problems.append(f"oracle.partitions entry {part} repeats sites")
    beta_list = _get(config, "oracle.beta_list")
    if beta_list is not None:
        if not isinstance(beta_list, list) or not beta_list or any(
            not _is_number(b) or b <= 0 for b in beta_list
        ):
            problems.append("oracle.beta_list must be a nonempty list of positive numbers")
        else:
            for k, b in enumerate(beta_list):
                _number(b, f"oracle.beta_list[{k}]", problems)

    _section(config, "output", problems)
    fmt = _get(config, "output.format")
    if fmt not in (None, "json", "csv"):
        problems.append("output.format must be json or csv")
    elif fmt == "csv" and command is not None and command not in _TABULAR:
        problems.append(f"output.format=csv is only supported for {sorted(_TABULAR)}")
    path = _get(config, "output.path")
    if path is not None and not isinstance(path, str):
        problems.append("output.path must be a string")

    if command in ("approx", "compare", "kp") and m is None:
        problems.append("expansion.m is required for this command")
    if command is not None and q is None:
        problems.append("expansion.q is required for this command")

    return problems


def build_model(config: dict) -> ModelInstance:
    lattice = build_lattice(_get(config, "model.dims"), _get(config, "model.periodic", False))
    matrix = _get(config, "model.coupling.matrix")
    try:
        matrix = None if matrix is None else np.asarray(matrix, dtype=np.float64)
    except OverflowError:
        raise CouplingError("coupling matrix entries must be finite") from None
    couplings = build_couplings(
        lattice,
        _get(config, "model.coupling.kind"),
        g=_get(config, "model.coupling.g"),
        alpha=_get(config, "model.coupling.alpha"),
        d_c=_get(config, "model.coupling.d_c"),
        matrix=matrix,
    )
    n = lattice.n_sites
    U, mu = _get(config, "model.U"), _get(config, "model.mu")
    U_arr = np.asarray(U if isinstance(U, list) else [U] * n, dtype=np.float64)
    mu_arr = np.asarray(mu if isinstance(mu, list) else [mu] * n, dtype=np.float64)
    onsite = OnsiteParams(U_arr, mu_arr)
    return ModelInstance(lattice, couplings, onsite, float(_get(config, "model.beta")))


def build_expansion_config(config: dict) -> ExpansionConfig:
    """The expansion section's ``m``, ``q`` and ``polymer_threshold``.  Other
    keys are ignored: the legacy ``workers``, ``theta``, ``q_prefactor`` and
    ``q_policy`` = "explicit" among them."""
    return ExpansionConfig(_get(config, "expansion.m"), _get(config, "expansion.q"),
                           _get(config, "expansion.polymer_threshold", 0.0))


def _oracle_model(config: dict, qs=None):
    """The cutoffs (``qs``, by default ``[expansion.q]`` resolved) and model of an
    oracle run.  Each ``(q+1)^N`` is checked against the cap from the config alone,
    so that a refused run never builds the model's N x N arrays."""
    n_sites = math.prod(_get(config, "model.dims"))
    qs = qs or [resolve_cutoff(n_sites, float(_get(config, "model.beta")),
                               _get(config, "expansion.q"))]
    for q in qs:
        check_dim_cap(q, n_sites)
    return qs, build_model(config)


# ---------------------------------------------------------------------------
# subcommands: each returns its result dict; run times the call and renders
# the report, a tabular result as CSV from its own columns and rows


def cmd_approx(config: dict):
    return asdict(approximate_log_partition(build_model(config), build_expansion_config(config)))


def cmd_exact(config: dict):
    site, l_max = _get(config, "oracle.site"), _get(config, "oracle.l_max")
    parts = [sorted(set(part)) for part in _get(config, "oracle.partitions") or []]
    # observables are checked before the model; a complement waits for the cap
    moments = [Moments(site or 0, l_max)] if l_max is not None else []
    occupation = [OccupationDistribution(site)] if site is not None else []
    (q,), model = _oracle_model(config)
    information = [MutualInformation((a, [i for i in range(model.n_sites) if i not in a]))
                   for a in parts]
    state = thermalize(model, q, moments + occupation + information)
    values = iter(state.values)

    result: dict = {"log_z": state.log_z, "q": q, "n_sites": model.n_sites}
    if moments:
        result["moments"] = {"site": site or 0, "values": next(values)}
    if occupation:
        result["occupation_distribution"] = {"site": site, "p": next(values)}
    if parts:
        result["mutual_information"] = [{"A": a, "mutual_information": next(values)}
                                        for a in parts]
    return result


def cmd_compare(config: dict, m_list=None, q_list=None):
    base = build_expansion_config(config)
    m_list = m_list or [base.m]
    q_list, model = _oracle_model(config, q_list)

    # the oracle keeps every coupling, so abs_error includes what the
    # polymer threshold drops
    edges = interaction_edges(model.couplings, 0.0)
    region = range(model.n_sites)
    rows = []
    for q in q_list:
        cfg = ExpansionConfig(m=max(m_list), q=q, polymer_threshold=base.polymer_threshold)
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
    return {"rows": rows, "columns": columns}


def cmd_clustering(config: dict):
    request = Clustering(_get(config, "oracle.family", "hopping"), _get(config, "oracle.anchor", 0))
    (q,), model = _oracle_model(config)
    (scan,) = thermalize(model, q, [request]).values
    return dict(asdict(scan), columns=[f.name for f in fields(ClusteringScanRow)])


def cmd_moments(config: dict):
    site = _get(config, "oracle.site", 0)
    request = Moments(site, _get(config, "oracle.l_max", 2))
    (q,), model = _oracle_model(config)
    # one pass over the sectors serves every beta, in any order
    betas = [float(b) for b in _get(config, "oracle.beta_list", [model.beta])]
    unique = list(dict.fromkeys(betas))
    states = thermal_states(model, q, unique, [request])
    values = {beta: state.values[0] for beta, state in zip(unique, states)}
    rows = [{"beta": beta, "site": site, "l": l, "value": value}
            for beta in betas for l, value in enumerate(values[beta], start=1)]
    return {"rows": rows, "columns": ["beta", "site", "l", "value"], "q": q}


def cmd_kp(config: dict):
    report = cmd_approx(config)
    return {
        "rows": report["kp_margin"],
        "columns": [f.name for f in fields(KPDiagnosticRow)],
        "m": report["m"],
        "q": report["q"],
        "certified": report["kp_certified"],
        "note": "lhs is a size-truncated lower bound; it can refute convergence, not certify it",
    }


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
    if not path:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError([f"output.path {path!r} cannot be written: {exc.strerror}"])


# ---------------------------------------------------------------------------
# entry point

COMMANDS = {
    "approx": ("run the truncated cluster expansion", cmd_approx),
    "exact": ("exact diagonalization: log Z and requested observables", cmd_exact),
    "compare": ("expansion vs exact oracle over m and q grids", cmd_compare),
    "clustering": ("correlation-decay scan from an anchor site", cmd_clustering),
    "moments": ("local particle-number moments, optionally over a beta list", cmd_moments),
    "kp": ("convergence-condition margins per site", cmd_kp),
}


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
    for name, (descr, _handler) in COMMANDS.items():
        p = sub.add_parser(name, help=descr)
        p.add_argument("config", help="path to the JSON run configuration")
        p.add_argument(
            "--set", action="append", default=[], metavar="SECTION.KEY=VALUE",
            help="override a config value (repeatable)",
        )
        if name == "compare":
            p.add_argument("--m-list", default="", help="comma-separated truncation orders")
            p.add_argument("--q-list", default="", help="comma-separated boson cutoffs")

    args = parser.parse_args(argv)

    try:
        config = load_config(args.config, args.set)
        problems = validate_config(config, args.command)
        if problems:
            raise ConfigError(problems)

        # compare's --m-list and --q-list reach it as its m_list and q_list
        grids = {key: _grid(f"--{key.replace('_', '-')}", value)
                 for key, value in vars(args).items() if key.endswith("_list")}
        start = time.perf_counter()
        result = COMMANDS[args.command][1](config, **grids)
        timing = {"elapsed_seconds": time.perf_counter() - start}

        if _get(config, "output.format") == "csv":
            text = render_csv(result["columns"], result["rows"])
        else:
            text = render_json(args.command, result, timing)
        _emit(text, _get(config, "output.path"))
        return EXIT_OK

    except ConfigError as exc:
        _emit_error("config_error", str(exc), exc.problems)
        return EXIT_CONFIG
    except ValueError as exc:
        _emit_error("config_error", str(exc), [str(exc)])
        return EXIT_CONFIG
    except ResourceCapError as exc:
        _emit_error("resource_cap", str(exc), exc.details)
        return EXIT_RESOURCE
    except ArithmeticError as exc:
        _emit_error("numerical_failure", str(exc), [str(exc)])
        return EXIT_NUMERICAL


def _grid(flag: str, value: str) -> list[int]:
    try:
        grid = [int(x) for x in value.split(",") if x]
    except ValueError:
        raise ConfigError([f"{flag} must be comma-separated integers, got {value!r}"]) from None
    if min(grid, default=1) < 1:
        raise ConfigError([f"{flag} entries must be >= 1, got {value!r}"])
    return grid


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
