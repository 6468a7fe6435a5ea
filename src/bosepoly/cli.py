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


def _number(name, value, bound, facts):
    """A finite number (bools are not) within ``bound``, a (requirement, bad) pair."""
    if not _is_number(value):
        yield f"{name} must be a number, got {value!r}"
    elif not abs(value) <= sys.float_info.max:  # NaN, infinities, ints past a float
        yield f"{name} must be finite, got {value!r}"
    elif bound is not None and bound[1](float(value), facts):
        yield f"{name} {bound[0].format(**facts)}"


def _per_site(name, value, bound, facts):
    if isinstance(value, list):
        if facts["n_sites"] not in (None, len(value)):
            yield f"{name} list must have length N = {facts['n_sites']}"
        for k, entry in enumerate(value):
            yield from _number(f"{name}[{k}]", entry, bound, facts)
    elif _is_number(value):
        yield from _number(name, value, bound, facts)
    else:
        yield f"{name} must be a number or per-site list"


def _matrix(name, value, bound, facts):
    # numpy would read true as 1.0 and "0.1" as 0.1; shape and finiteness
    # are build_couplings' to check
    for i, row in enumerate(value if isinstance(value, list) else []):
        for j, entry in enumerate(row if isinstance(row, list) else []):
            if not _is_number(entry):
                yield f"{name}[{i}][{j}] must be a number, got {entry!r}"


def _site_lists(name, value, bound, facts):
    if not isinstance(value, list):
        yield f"{name} must be a list of site lists"
        return
    n = facts["n_sites"]
    for part in value:
        if not isinstance(part, list) or not part:
            yield f"{name} entries must be nonempty site lists"
        elif n is not None and any(not _is_int(s) or not 0 <= s < n for s in part):
            yield f"{name} entry {part} has invalid sites"
        elif n is not None and len(set(part)) == n:
            yield f"{name} entry {part} covers the whole lattice (complement is empty)"
        elif n is not None and len(set(part)) != len(part):
            yield f"{name} entry {part} repeats sites"


def _betas(name, value, bound, facts):
    if not isinstance(value, list) or not value or any(not _is_number(b) or b <= 0 for b in value):
        yield f"{name} must be a nonempty list of positive numbers"
        return
    for k, b in enumerate(value):
        yield from _number(f"{name}[{k}]", b, None, facts)


_TABULAR = ("clustering", "compare", "kp", "moments")
_POSITIVE = ("must be positive", lambda x, f: x <= 0)
_REQUIRED = ("{} is required", lambda v, f: v is None)
_SECTION = ("{} section must be an object", lambda v, f: v is not None and not isinstance(v, dict))
_INTEGER = ("{} must be an integer", lambda v, f: v is not None and not _is_int(v))
_SITE = ("{} must be a site index in [0, {n_sites})",
         lambda v, f: isinstance(v, int) and f["n_sites"] and not 0 <= v < f["n_sites"])

# Every known key, in the order validate_config reports its problems, as
# (dotted path, check, bound, *coupling kinds).  A check is a kind above,
# which yields the problems of a value that is set, or a message, formatted
# with the path and the facts, reported when ``bound(value, facts)`` flags the
# value, set or None.  A key with coupling kinds is read only under them, and
# absent it reads as 0, which its check refuses.  Legacy keys, which harness
# and older configs still carry, are ignored unless that would change the run.
_KEYS = (
    ("model", "missing or invalid section: {}", lambda v, f: not isinstance(v, dict)),
    ("model.periodic", "{} must be true or false",
     lambda v, f: v is not None and not isinstance(v, bool)),
    ("model.dims", "{} must be a nonempty list of integers >= 1", lambda v, f: not f["n_sites"]),
    ("model.beta", *_REQUIRED),
    ("model.beta", _number, _POSITIVE),
    ("model.coupling", "{} must be an object with a kind", lambda v, f: not isinstance(v, dict)),
    ("model.coupling.kind", "{} must be one of long_range, finite_range, explicit",
     lambda v, f: v not in ("long_range", "finite_range", "explicit")),
    ("model.coupling.g", _number, _POSITIVE, "long_range", "finite_range"),
    ("model.coupling.alpha", _number, ("must exceed the dimension D = {n_dims}",
                                       lambda a, f: 0 < f["n_dims"] and a <= f["n_dims"]),
     "long_range"),
    ("model.coupling.d_c", "{} must be an integer >= 1", lambda v, f: not _is_int(v) or v < 1,
     "finite_range"),
    ("model.coupling.matrix", "{} is required for explicit kind",
     lambda v, f: not isinstance(v, list), "explicit"),
    ("model.coupling.matrix", _matrix, None),
    ("model.U", *_REQUIRED),
    ("model.U", _per_site, ("must be strictly positive", lambda x, f: x <= 0)),
    ("model.mu", *_REQUIRED),
    ("model.mu", _per_site, None),
    ("expansion", *_SECTION),
    ("expansion.m", "{} must be an integer >= 1",
     lambda v, f: v is not None and (not _is_int(v) or v < 1)),
    ("expansion.q", '{} must be an integer >= 1 or "auto"',
     lambda v, f: v not in (None, "auto") and (not _is_int(v) or v < 1)),
    ("expansion.q_policy", '{} is no longer read: set expansion.q = "auto"',
     lambda v, f: v not in (None, "explicit")),
    ("oracle.q", "{} is no longer read: set expansion.q", lambda v, f: v not in (None, f["q"])),
    ("oracle.dim_cap", "{} is no longer read: the cap is " + str(DEFAULT_DIM_CAP),
     lambda v, f: v not in (None, DEFAULT_DIM_CAP)),
    ("expansion.workers", None, None), ("expansion.theta", None, None),
    ("expansion.q_prefactor", None, None),
    ("expansion.polymer_threshold", _number, ("must be nonnegative", lambda t, f: t < 0)),
    ("oracle", *_SECTION),
    ("oracle.l_max", *_INTEGER),
    ("oracle.site", *_INTEGER),
    ("oracle.anchor", *_INTEGER),
    ("oracle.l_max", "{} must be >= 1", lambda v, f: _is_int(v) and v < 1),
    ("oracle.family", "{} must be hopping or density",
     lambda v, f: v not in (None, "hopping", "density")),
    ("oracle.site", *_SITE),
    ("oracle.anchor", *_SITE),
    ("oracle.partitions", _site_lists, None),
    ("oracle.beta_list", _betas, None),
    ("output", *_SECTION),
    ("output.format", "{} must be json or csv", lambda v, f: v not in (None, "json", "csv")),
    ("output.format", "{}=csv is only supported for " + str(list(_TABULAR)),
     lambda v, f: v == "csv" and f["command"] not in (None, *_TABULAR)),
    ("output.path", "{} must be a string", lambda v, f: v is not None and not isinstance(v, str)),
    ("expansion.m", "{} is required for this command",
     lambda v, f: v is None and f["command"] in ("approx", "compare", "kp")),
    ("expansion.q", "{} is required for this command",
     lambda v, f: v is None and f["command"] is not None),
)


def validate_config(config: dict, command: str | None = None) -> list[str]:
    """Collect every validation problem (never stops at the first): each key
    the table does not know, naming the nearest known key of its section,
    then each known key's problems in table order."""
    problems = []
    for section in dict.fromkeys(row[0].rpartition(".")[0] for row in _KEYS):
        known = [row[0] for row in _KEYS if row[0].rpartition(".")[0] == section]
        node = _get(config, section) if section else config
        for name, value in node.items() if isinstance(node, dict) else ():
            path = f"{section}.{name}" if section else name
            if path not in known and value is not None:
                import difflib  # here alone: a valid config never loads it
                (near,) = difflib.get_close_matches(path, known, n=1, cutoff=0.0)
                problems.append(f"{path} is not a known key; the nearest is {near}")

    dims = _get(config, "model.dims")
    valid = isinstance(dims, list) and dims and all(_is_int(d) and d >= 1 for d in dims)
    facts = {"command": command, "n_sites": math.prod(dims) if valid else None,
             "n_dims": len(dims) if isinstance(dims, list) else 0, "q": _get(config, "expansion.q")}
    for path, check, bound, *kinds in _KEYS:
        if kinds and _get(config, "model.coupling.kind") not in kinds:
            continue
        value = _get(config, path, 0 if kinds else None)
        if isinstance(check, str) and bound(value, facts):
            problems.append(check.format(path, **facts))
        elif callable(check) and value is not None:
            problems += check(path, value, bound, facts)
    return problems


def build_model(config: dict) -> ModelInstance:
    lattice = build_lattice(_get(config, "model.dims"), _get(config, "model.periodic", False))
    couplings = build_couplings(
        lattice,
        _get(config, "model.coupling.kind"),
        g=_get(config, "model.coupling.g"),
        alpha=_get(config, "model.coupling.alpha"),
        d_c=_get(config, "model.coupling.d_c"),
        matrix=_get(config, "model.coupling.matrix"),
    )
    n = lattice.n_sites
    U, mu = _get(config, "model.U"), _get(config, "model.mu")
    U_arr = np.asarray(U if isinstance(U, list) else [U] * n, dtype=np.float64)
    mu_arr = np.asarray(mu if isinstance(mu, list) else [mu] * n, dtype=np.float64)
    onsite = OnsiteParams(U_arr, mu_arr)
    return ModelInstance(lattice, couplings, onsite, float(_get(config, "model.beta")))


def build_expansion_config(config: dict) -> ExpansionConfig:
    """The expansion section's ``m``, ``q`` and ``polymer_threshold``."""
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
