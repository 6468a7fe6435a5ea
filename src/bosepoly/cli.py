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
from .fock import DEFAULT_DIM_CAP, DimensionCapError, EigensolverError, check_dim_cap
from .fock import printable_int, restricted_log_partition
from .lattice import (
    CouplingError,
    ModelInstance,
    OnsiteParams,
    SiteCapError,
    build_couplings,
    build_lattice,
    interaction_edges,
)
from .oracle import (
    ClusteringScanRow,
    _rescale_beta,
    clustering_scan,
    moments,
    mutual_information,
    occupation_distribution,
    thermalize,
)
from .polymers import OrderCapError, PolymerCountError

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


_NEEDS_EXPANSION = {"approx", "compare", "kp"}
_NEEDS_ORACLE_Q = {"exact", "clustering", "moments"}
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
    elif kind == "explicit" and not isinstance(_get(config, "model.coupling.matrix"), list):
        problems.append("model.coupling.matrix is required for explicit kind")

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
    q_policy = _get(config, "expansion.q_policy")
    if q_policy not in (None, "explicit", "auto"):
        problems.append("expansion.q_policy must be explicit or auto")
    q = _get(config, "expansion.q")
    if q_policy in (None, "explicit") and q is not None and (not _is_int(q) or q < 1):
        problems.append("expansion.q must be an integer >= 1")
    for name in ("theta", "q_prefactor"):
        value = _get(config, f"expansion.{name}")
        if value is not None:
            _number(value, f"expansion.{name}", problems, lambda x: not x > 0, "must be positive")
    threshold = _get(config, "expansion.polymer_threshold")
    if threshold is not None:
        _number(threshold, "expansion.polymer_threshold", problems,
                lambda t: t < 0, "must be nonnegative")

    _section(config, "oracle", problems)
    ints = {name: _get(config, f"oracle.{name}")
            for name in ("q", "dim_cap", "l_max", "site", "anchor")}
    for name, value in ints.items():
        if value is not None and not _is_int(value):
            problems.append(f"oracle.{name} must be an integer")
    for name in ("q", "dim_cap", "l_max"):
        if _is_int(ints[name]) and ints[name] < 1:
            problems.append(f"oracle.{name} must be >= 1")
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

    resolvable = q_policy == "auto" or q is not None
    if command in _NEEDS_EXPANSION:
        if m is None:
            problems.append("expansion.m is required for this command")
        if not resolvable:
            problems.append("expansion.q is required unless expansion.q_policy is auto")
    if command in _NEEDS_ORACLE_Q and ints["q"] is None and not resolvable:
        problems.append("oracle.q is required unless the expansion section resolves a cutoff")

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
    """The expansion section's knobs; an absent one keeps ExpansionConfig's
    default.  Unknown keys (a legacy ``workers``) are ignored."""
    knobs = {f.name: _get(config, f"expansion.{f.name}") for f in fields(ExpansionConfig)}
    return ExpansionConfig(**{name: v for name, v in knobs.items() if v is not None})


def _cutoff(config: dict, cfg: ExpansionConfig) -> int:
    n_sites = math.prod(_get(config, "model.dims"))
    return resolve_cutoff(n_sites, float(_get(config, "model.beta")), cfg)


def _oracle_model(config: dict, qs=None):
    """The cutoffs, dimension cap and model of an oracle run.

    ``qs`` defaults to ``[oracle.q]``, or else the expansion's cutoff.  Each
    ``(q+1)^N`` is checked against ``oracle.dim_cap`` from the config alone,
    so that a refused run never builds the model's N x N arrays.
    """
    n_sites = math.prod(_get(config, "model.dims"))
    qs = qs or [_get(config, "oracle.q") or _cutoff(config, build_expansion_config(config))]
    dim_cap = _get(config, "oracle.dim_cap", DEFAULT_DIM_CAP)
    for q in qs:
        check_dim_cap(q, n_sites, dim_cap)
    return qs, dim_cap, build_model(config)


# ---------------------------------------------------------------------------
# subcommands: each returns (result_dict, csv_rows_or_None, timing_dict)


def cmd_approx(config: dict):
    start = time.perf_counter()
    report = approximate_log_partition(build_model(config), build_expansion_config(config))
    return asdict(report), None, {"elapsed_seconds": time.perf_counter() - start}


def cmd_exact(config: dict):
    start = time.perf_counter()
    (q,), dim_cap, model = _oracle_model(config)
    state = thermalize(model, q, dim_cap=dim_cap)

    result: dict = {"log_z": state.log_z, "q": q, "n_sites": model.n_sites}
    site, l_max = _get(config, "oracle.site"), _get(config, "oracle.l_max")
    if l_max is not None:
        moment_site = _get(config, "oracle.site", 0)
        result["moments"] = {"site": moment_site,
                             "values": moments(state, moment_site, l_max)}
    if site is not None:
        result["occupation_distribution"] = {
            "site": site,
            "p": occupation_distribution(state, site),
        }
    partitions = _get(config, "oracle.partitions")
    if partitions:
        rows = []
        for part in partitions:
            a = sorted(set(part))
            b = [i for i in range(model.n_sites) if i not in set(a)]
            rows.append({"A": a, "mutual_information": mutual_information(state, (a, b))})
        result["mutual_information"] = rows
    return result, None, {"elapsed_seconds": time.perf_counter() - start}


def cmd_compare(config: dict, m_list=None, q_list=None):
    start = time.perf_counter()
    base = build_expansion_config(config)
    m_list = m_list or [base.m]
    if min(m_list) < 1:
        raise ValueError("truncation order m must be >= 1")
    q_list, _, model = _oracle_model(config, q_list or [_cutoff(config, base)])

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
    (q,), dim_cap, model = _oracle_model(config)
    state = thermalize(model, q, dim_cap=dim_cap)
    scan = clustering_scan(
        state, _get(config, "oracle.family", "hopping"), _get(config, "oracle.anchor", 0)
    )
    columns = [f.name for f in fields(ClusteringScanRow)]
    result = dict(asdict(scan), columns=columns)
    return result, (columns, result["rows"]), {"elapsed_seconds": time.perf_counter() - start}


def cmd_moments(config: dict):
    start = time.perf_counter()
    (q,), dim_cap, model = _oracle_model(config)
    site = _get(config, "oracle.site", 0)
    l_max = _get(config, "oracle.l_max", 2)

    # W is rescaled only upward in beta; the betas below the first take a second solve
    betas = [float(b) for b in _get(config, "oracle.beta_list", [model.beta])]
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
    report = approximate_log_partition(build_model(config), build_expansion_config(config))
    rows = [asdict(r) for r in report.kp_margin]
    columns = [f.name for f in fields(KPDiagnosticRow)]
    result = {
        "rows": rows,
        "columns": columns,
        "m": report.m,
        "q": report.q,
        "certified": report.kp_certified,
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
        grids = {key: [int(x) for x in value.split(",") if x]
                 for key, value in vars(args).items() if key.endswith("_list")}
        result, rows, timing = COMMANDS[args.command][1](config, **grids)

        if _get(config, "output.format") == "csv":
            text = render_csv(*rows)
        else:
            text = render_json(args.command, result, timing)
        _emit(text, _get(config, "output.path"))
        return EXIT_OK

    except ConfigError as exc:
        _emit_error("config_error", str(exc), exc.problems)
        return EXIT_CONFIG
    except (CouplingError, ValueError) as exc:
        _emit_error("config_error", str(exc), [str(exc)])
        return EXIT_CONFIG
    except (DimensionCapError, OrderCapError, PolymerCountError, SiteCapError) as exc:
        _emit_error(
            "resource_cap", str(exc),
            [f"required={printable_int(exc.required)}", f"allowed={exc.allowed}"],
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
