import copy
import json
import math
import pathlib
import time
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

import bosepoly.cli
import bosepoly.expansion
import bosepoly.lattice
import bosepoly.polymers
from bosepoly.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_RESOURCE,
    build_model,
    render_csv,
    run,
    validate_config,
)
from bosepoly.oracle import moments, thermalize


def base_config(**overrides):
    config = {
        "model": {
            "dims": [4],
            "periodic": False,
            "coupling": {"kind": "finite_range", "g": 0.1, "d_c": 1},
            "U": 1.0,
            "mu": 0.5,
            "beta": 0.1,
        },
        "expansion": {"m": 4, "q": 3},
        "oracle": {"q": 3, "l_max": 2, "site": 0},
        "output": {"format": "json"},
    }
    config.update(overrides)
    return config


def write_config(tmp_path, config, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return str(path)


def run_to_file(tmp_path, command, config, extra_args=()):
    out = tmp_path / "out.txt"
    config = dict(config)
    config["output"] = dict(config.get("output", {}), path=str(out))
    code = run([command, write_config(tmp_path, config), *extra_args])
    text = out.read_text() if out.exists() else ""
    return code, text


# --- validation ---------------------------------------------------------------


def test_missing_beta_names_the_field():
    config = base_config()
    del config["model"]["beta"]
    problems = validate_config(config, "approx")
    assert any("model.beta" in p for p in problems)


def test_validation_collects_all_problems():
    config = base_config()
    del config["model"]["beta"]
    config["model"]["dims"] = []
    config["expansion"]["m"] = 0
    config["output"]["format"] = "xml"
    problems = validate_config(config, "approx")
    assert len(problems) >= 4


def test_validation_exactly_one_coupling_kind():
    config = base_config()
    config["model"]["coupling"] = {"kind": "nonsense"}
    problems = validate_config(config, "approx")
    assert any("coupling.kind" in p for p in problems)


def test_validation_partition_covering_lattice_rejected():
    config = base_config()
    config["oracle"]["partitions"] = [[0, 1, 2, 3]]
    problems = validate_config(config, "exact")
    assert any("complement is empty" in p for p in problems)


def test_validation_alpha_dimension():
    config = base_config()
    config["model"]["coupling"] = {"kind": "long_range", "g": 0.1, "alpha": 0.5}
    problems = validate_config(config, "approx")
    assert any("alpha" in p for p in problems)


def test_validation_checks_periodic_cutoff_knobs_and_oracle_bounds(tmp_path, capsys):
    config = base_config()
    config["model"]["periodic"] = "false"
    config["expansion"] = {"m": 4, "q_policy": "auto", "theta": "x", "q_prefactor": True}
    config["oracle"] = {"q": 0, "dim_cap": -1}
    want = [
        "model.periodic must be true or false",
        "expansion.theta must be a number, got 'x'",
        "expansion.q_prefactor must be a number, got True",
        "oracle.q must be >= 1",
        "oracle.dim_cap must be >= 1",
    ]
    for command in ("approx", "exact"):
        assert validate_config(config, command) == want
        assert run([command, write_config(tmp_path, config)]) == EXIT_CONFIG
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["code"] == "config_error"
        assert error["details"] == want

    config = base_config()
    config["expansion"].update(theta=0, q_prefactor=-1.5)
    assert validate_config(config, "approx") == [
        "expansion.theta must be positive",
        "expansion.q_prefactor must be positive",
    ]


def _per_site_config(U, mu):
    config = base_config()
    config["model"]["dims"] = [3]
    config["model"]["U"] = U
    config["model"]["mu"] = mu
    return config


def test_validation_rejects_bool_entry_in_per_site_list(tmp_path, capsys):
    config = _per_site_config([1.0, 1.0, 1.0], [0.5, 0.1, True])
    assert validate_config(config, "exact") == ["model.mu[2] must be a number, got True"]
    assert run(["exact", write_config(tmp_path, config)]) == EXIT_CONFIG
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["code"] == "config_error"
    assert error["details"] == ["model.mu[2] must be a number, got True"]


def test_validation_lists_every_bad_per_site_entry(tmp_path, capsys):
    config = _per_site_config([1, -2, 0], [0.5, "x", True])
    want = [
        "model.U[1] must be strictly positive",
        "model.U[2] must be strictly positive",
        "model.mu[1] must be a number, got 'x'",
        "model.mu[2] must be a number, got True",
    ]
    assert validate_config(config, "exact") == want
    assert run(["exact", write_config(tmp_path, config)]) == EXIT_CONFIG
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["code"] == "config_error"
    assert error["details"] == want


_DELETE = object()


def _edit(config, changes):
    """A copy of config with each dotted path set, or removed for _DELETE."""
    config = copy.deepcopy(config)
    for path, value in changes.items():
        *sections, key = path.split(".")
        node = config
        for name in sections:
            node = node.setdefault(name, {})
        if value is _DELETE:
            node.pop(key, None)
        else:
            node[key] = value
    return config


_LONG_RANGE = {"kind": "long_range", "g": 0.1, "alpha": 3.0}
_KIND_MESSAGE = "model.coupling.kind must be one of long_range, finite_range, explicit"

# one case per validate_config message, on base_config(): (command, changes, list)
_MESSAGE_CASES = [
    ("approx", {"model": _DELETE}, [
        "missing or invalid section: model",
        "model.dims must be a nonempty list of integers >= 1",
        "model.beta is required",
        "model.coupling must be an object with a kind",
        _KIND_MESSAGE,
        "model.U is required",
        "model.mu is required",
    ]),
    ("approx", {"model.periodic": "false"}, ["model.periodic must be true or false"]),
    ("approx", {"model.dims": [2, True]},
     ["model.dims must be a nonempty list of integers >= 1"]),
    ("approx", {"model.beta": _DELETE}, ["model.beta is required"]),
    ("approx", {"model.beta": "x"}, ["model.beta must be a number, got 'x'"]),
    ("approx", {"model.beta": 0}, ["model.beta must be positive"]),
    ("approx", {"model.coupling": 5},
     ["model.coupling must be an object with a kind", _KIND_MESSAGE]),
    ("approx", {"model.coupling.kind": "nonsense"}, [_KIND_MESSAGE]),
    ("approx", {"model.coupling": dict(_LONG_RANGE, g="x")},
     ["model.coupling.g must be a number, got 'x'"]),
    ("approx", {"model.coupling": dict(_LONG_RANGE, g=-1)},
     ["model.coupling.g must be positive"]),
    ("approx", {"model.coupling": dict(_LONG_RANGE, alpha=True)},
     ["model.coupling.alpha must be a number, got True"]),
    ("approx", {"model.coupling": dict(_LONG_RANGE, alpha=1)},
     ["model.coupling.alpha must exceed the dimension D = 1"]),
    ("approx", {"model.coupling.d_c": 0}, ["model.coupling.d_c must be an integer >= 1"]),
    ("approx", {"model.coupling": {"kind": "explicit"}},
     ["model.coupling.matrix is required for explicit kind"]),
    ("approx", {"model.U": _DELETE}, ["model.U is required"]),
    ("approx", {"model.mu": [0.0, 0.1]}, ["model.mu list must have length N = 4"]),
    ("approx", {"model.U": [1, 1, 1, 0], "model.mu": [0, 0, 0, "x"]},
     ["model.U[3] must be strictly positive", "model.mu[3] must be a number, got 'x'"]),
    ("approx", {"model.U": "x"}, ["model.U must be a number or per-site list"]),
    ("approx", {"model.U": 0}, ["model.U must be strictly positive"]),
    ("approx", {"expansion": 5}, [
        "expansion section must be an object",
        "expansion.m is required for this command",
        "expansion.q is required unless expansion.q_policy is auto",
    ]),
    ("approx", {"expansion.m": 0}, ["expansion.m must be an integer >= 1"]),
    ("approx", {"expansion.q_policy": "x"}, ["expansion.q_policy must be explicit or auto"]),
    ("approx", {"expansion.q": 0}, ["expansion.q must be an integer >= 1"]),
    ("approx", {"expansion.theta": "x", "expansion.q_prefactor": 0},
     ["expansion.theta must be a number, got 'x'", "expansion.q_prefactor must be positive"]),
    ("approx", {"expansion.polymer_threshold": "x"},
     ["expansion.polymer_threshold must be a number, got 'x'"]),
    ("approx", {"expansion.polymer_threshold": -1},
     ["expansion.polymer_threshold must be nonnegative"]),
    ("exact", {"oracle": 5}, ["oracle section must be an object"]),
    ("exact",
     {"oracle.q": "x", "oracle.dim_cap": 0, "oracle.l_max": True, "oracle.anchor": 1.5}, [
         "oracle.q must be an integer",
         "oracle.l_max must be an integer",
         "oracle.anchor must be an integer",
         "oracle.dim_cap must be >= 1",
     ]),
    ("clustering", {"oracle.family": "x"}, ["oracle.family must be hopping or density"]),
    ("exact", {"oracle.site": 4, "oracle.anchor": -1}, [
        "oracle.site must be a site index in [0, 4)",
        "oracle.anchor must be a site index in [0, 4)",
    ]),
    ("exact", {"oracle.partitions": 5}, ["oracle.partitions must be a list of site lists"]),
    ("exact", {"oracle.partitions": [[], [0, 9], [0, 1, 2, 3], [0, 0]]}, [
        "oracle.partitions entries must be nonempty site lists",
        "oracle.partitions entry [0, 9] has invalid sites",
        "oracle.partitions entry [0, 1, 2, 3] covers the whole lattice (complement is empty)",
        "oracle.partitions entry [0, 0] repeats sites",
    ]),
    ("moments", {"oracle.beta_list": [0.1, 0]},
     ["oracle.beta_list must be a nonempty list of positive numbers"]),
    ("approx", {"output": 5}, ["output section must be an object"]),
    ("approx", {"output.format": "xml"}, ["output.format must be json or csv"]),
    ("approx", {"output.format": "csv"},
     ["output.format=csv is only supported for ['clustering', 'compare', 'kp', 'moments']"]),
    ("approx", {"expansion.m": _DELETE}, ["expansion.m is required for this command"]),
    ("approx", {"expansion.q": _DELETE},
     ["expansion.q is required unless expansion.q_policy is auto"]),
    ("exact", {"oracle.q": _DELETE, "expansion.q": _DELETE},
     ["oracle.q is required unless the expansion section resolves a cutoff"]),
]


def _case_id(command, changes):
    edits = (f"{path}={'<absent>' if value is _DELETE else json.dumps(value)}"
             for path, value in changes.items())
    return f"{command}:{','.join(edits)}"


@pytest.mark.parametrize("command,changes,want", _MESSAGE_CASES,
                         ids=[_case_id(*case[:2]) for case in _MESSAGE_CASES])
def test_validation_message(command, changes, want):
    assert validate_config(_edit(base_config(), changes), command) == want


# one config per coupling kind with as many problems as it can carry at once
_EVERY_PROBLEM = {
    "long_range": ("approx", {
        "model": {"periodic": "no", "dims": [2, 2], "beta": -1,
                  "coupling": {"kind": "long_range", "g": 0, "alpha": 2},
                  "U": [1, 0, 1], "mu": "x"},
        "expansion": {"m": 0, "q_policy": "auto", "theta": "x", "q_prefactor": 0,
                      "polymer_threshold": -1},
        "oracle": {"q": 0, "dim_cap": "x", "l_max": True, "site": 4, "anchor": 1.5,
                   "family": "x", "partitions": [[0, 5], [0, 1, 2, 3]], "beta_list": []},
        "output": {"format": "csv"},
    }, [
        "model.periodic must be true or false",
        "model.beta must be positive",
        "model.coupling.g must be positive",
        "model.coupling.alpha must exceed the dimension D = 2",
        "model.U list must have length N = 4",
        "model.U[1] must be strictly positive",
        "model.mu must be a number or per-site list",
        "expansion.m must be an integer >= 1",
        "expansion.theta must be a number, got 'x'",
        "expansion.q_prefactor must be positive",
        "expansion.polymer_threshold must be nonnegative",
        "oracle.dim_cap must be an integer",
        "oracle.l_max must be an integer",
        "oracle.anchor must be an integer",
        "oracle.q must be >= 1",
        "oracle.family must be hopping or density",
        "oracle.site must be a site index in [0, 4)",
        "oracle.partitions entry [0, 5] has invalid sites",
        "oracle.partitions entry [0, 1, 2, 3] covers the whole lattice (complement is empty)",
        "oracle.beta_list must be a nonempty list of positive numbers",
        "output.format=csv is only supported for ['clustering', 'compare', 'kp', 'moments']",
    ]),
    "finite_range": ("exact", {
        "model": {"periodic": 1, "dims": [3], "beta": "x",
                  "coupling": {"kind": "finite_range", "g": "x", "d_c": 1.5},
                  "U": "x", "mu": [0, True]},
        "expansion": 5,
        "oracle": {"dim_cap": 0, "site": -1, "anchor": 3, "partitions": [[1, 1], []]},
        "output": {"format": "xml"},
    }, [
        "model.periodic must be true or false",
        "model.beta must be a number, got 'x'",
        "model.coupling.g must be a number, got 'x'",
        "model.coupling.d_c must be an integer >= 1",
        "model.U must be a number or per-site list",
        "model.mu list must have length N = 3",
        "model.mu[1] must be a number, got True",
        "expansion section must be an object",
        "oracle.dim_cap must be >= 1",
        "oracle.site must be a site index in [0, 3)",
        "oracle.anchor must be a site index in [0, 3)",
        "oracle.partitions entry [1, 1] repeats sites",
        "oracle.partitions entries must be nonempty site lists",
        "output.format must be json or csv",
        "oracle.q is required unless the expansion section resolves a cutoff",
    ]),
    "explicit": ("moments", {
        "model": {"dims": [], "coupling": {"kind": "explicit"}, "U": 0},
        "expansion": {"q_policy": "x", "q": 0, "theta": 0, "polymer_threshold": "x"},
        "oracle": {"l_max": 0, "partitions": 5, "beta_list": [0.1, True]},
        "output": 5,
    }, [
        "model.dims must be a nonempty list of integers >= 1",
        "model.beta is required",
        "model.coupling.matrix is required for explicit kind",
        "model.U must be strictly positive",
        "model.mu is required",
        "expansion.q_policy must be explicit or auto",
        "expansion.theta must be positive",
        "expansion.polymer_threshold must be a number, got 'x'",
        "oracle.l_max must be >= 1",
        "oracle.partitions must be a list of site lists",
        "oracle.beta_list must be a nonempty list of positive numbers",
        "output section must be an object",
    ]),
}


@pytest.mark.parametrize("kind", sorted(_EVERY_PROBLEM))
def test_validation_message_order_across_keys(kind):
    command, config, want = _EVERY_PROBLEM[kind]
    assert validate_config(config, command) == want


# every key a config can carry, on a config that sets all of them
_FULL = _edit(base_config(), {
    "model.coupling": {"kind": "long_range", "g": 0.1, "alpha": 3.0, "d_c": 1,
                       "matrix": [[0.0] * 4 for _ in range(4)]},
    "expansion": {"m": 2, "q": 2, "q_policy": "explicit", "theta": 1.0,
                  "q_prefactor": 2.0, "polymer_threshold": 0.0},
    "oracle": {"q": 2, "dim_cap": 20000, "l_max": 2, "site": 1, "anchor": 0,
               "family": "density", "partitions": [[0, 1]], "beta_list": [0.1]},
    "output": {"format": "json", "path": "out.json"},
})
_PATHS = [
    f"{section}.{key}" if key else section
    for section, keys in [
        ("model", ["", "periodic", "dims", "beta", "coupling", "U", "mu"]),
        ("model.coupling", ["kind", "g", "alpha", "d_c", "matrix"]),
        ("expansion", ["", "m", "q", "q_policy", "theta", "q_prefactor",
                       "polymer_threshold"]),
        ("oracle", ["", "q", "dim_cap", "l_max", "site", "anchor", "family",
                    "partitions", "beta_list"]),
        ("output", ["", "format", "path"]),
    ]
    for key in keys
]


@pytest.mark.parametrize("path", _PATHS)
def test_validation_reads_null_as_absent(path):
    for command in ("approx", "exact", "compare", "clustering", "moments", "kp"):
        null = validate_config(_edit(_FULL, {path: None}), command)
        absent = validate_config(_edit(_FULL, {path: _DELETE}), command)
        assert null == absent, (command, null, absent)


def _stdout_run(capsys, tmp_path, command, config):
    code = run([command, write_config(tmp_path, config)])
    doc = json.loads(capsys.readouterr().out)
    doc.pop("timing", None)
    return code, doc


# keys whose null once passed validation and then failed inside a command
_NULL_RUNS = [
    ("approx", {"expansion.polymer_threshold": None}),
    ("exact", {"oracle.dim_cap": None}),
    ("moments", {"oracle.l_max": None}),
    ("exact", {"oracle.site": None}),
    ("moments", {"oracle.site": None}),
    ("clustering", {"oracle.anchor": None}),
    ("moments", {"oracle.beta_list": None}),
    ("exact", {"oracle.q": None, "expansion.m": None}),
    ("clustering", {"oracle.family": None}),
    ("approx", {"output.path": None}),
]


@pytest.mark.parametrize("command,changes", _NULL_RUNS,
                         ids=[_case_id(*case) for case in _NULL_RUNS])
def test_null_key_runs_as_if_absent(command, changes, tmp_path, capsys):
    config = _edit(base_config(), {"model.dims": [3], "oracle.beta_list": [0.1, 0.2],
                                   "oracle.anchor": 1, "oracle.family": "density"})
    absent = _edit(config, {path: _DELETE for path in changes})
    code, doc = _stdout_run(capsys, tmp_path, command, absent)
    assert code == EXIT_OK
    assert _stdout_run(capsys, tmp_path, command, _edit(config, changes)) == (code, doc)


def test_build_model_per_site_arrays():
    config = base_config()
    config["model"]["U"] = [1.0, 2.0, 1.5, 1.0]
    config["model"]["mu"] = [0.0, 0.1, -0.1, 0.2]
    model = build_model(config)
    assert model.onsite.U[1] == 2.0
    assert model.onsite.mu[2] == -0.1


# --- subcommands ---------------------------------------------------------------


def test_approx_zero_coupling(tmp_path):
    config = base_config()
    config["model"]["coupling"] = {
        "kind": "explicit",
        "matrix": [[0.0] * 4 for _ in range(4)],
    }
    code, text = run_to_file(tmp_path, "approx", config)
    assert code == EXIT_OK
    doc = json.loads(text)
    assert doc["schema_version"] == "2"
    assert doc["result"]["t_m"] == 0.0
    assert doc["result"]["f_beta"] == doc["result"]["log_z_w"]


def test_approx_report_structure(tmp_path):
    code, text = run_to_file(tmp_path, "approx", base_config())
    assert code == EXIT_OK
    doc = json.loads(text)
    result = doc["result"]
    assert {"f_beta", "log_z_w", "t_m", "per_order", "kp_margin"} <= set(result)
    assert len(result["per_order"]) == 4
    assert len(result["kp_margin"]) == 4
    assert "timing" in doc and "elapsed_seconds" in doc["timing"]


def test_missing_beta_exit_code(tmp_path):
    config = base_config()
    del config["model"]["beta"]
    code, _text = run_to_file(tmp_path, "approx", config)
    assert code == EXIT_CONFIG


def test_exact_single_site(tmp_path):
    config = base_config()
    config["model"]["dims"] = [1]
    config["model"]["coupling"] = {"kind": "explicit", "matrix": [[0.0]]}
    config["oracle"] = {"q": 2, "site": 0, "l_max": 2}
    code, text = run_to_file(tmp_path, "exact", config)
    assert code == EXIT_OK
    result = json.loads(text)["result"]
    # W = {0, -0.5, 0} at U=1, mu=0.5, beta=0.1
    expect = math.log(1 + math.exp(0.05) + math.exp(0.0))
    assert result["log_z"] == pytest.approx(expect, rel=1e-12)
    assert len(result["occupation_distribution"]["p"]) == 3


def test_exact_two_site_closed_form(tmp_path):
    config = base_config()
    config["model"]["dims"] = [2]
    config["model"]["mu"] = 0.0
    config["model"]["beta"] = 1.0
    config["model"]["coupling"] = {"kind": "finite_range", "g": 0.3, "d_c": 1}
    config["oracle"] = {"q": 1}
    code, text = run_to_file(tmp_path, "exact", config)
    assert code == EXIT_OK
    result = json.loads(text)["result"]
    assert result["log_z"] == pytest.approx(math.log(2 + 2 * math.cosh(0.3)), rel=1e-12)


def test_exact_dimension_cap_exit_code(tmp_path):
    config = base_config()
    config["oracle"] = {"q": 9, "dim_cap": 100}
    code, _ = run_to_file(tmp_path, "exact", config)
    assert code == EXIT_RESOURCE


@pytest.mark.parametrize("command", ["exact", "clustering", "moments", "compare"])
def test_oracle_cap_refuses_before_the_model_is_built(command, tmp_path, monkeypatch, capsys):
    def no_model(*args, **kwargs):
        raise AssertionError("the coupling matrix was built")

    monkeypatch.setattr(bosepoly.lattice, "build_couplings", no_model)
    monkeypatch.setattr(bosepoly.cli, "build_couplings", no_model)
    config = base_config()
    config["model"]["dims"] = [3000]
    assert run([command, write_config(tmp_path, config)]) == EXIT_RESOURCE
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["details"] == [f"required={4**3000}", "allowed=20000"]


def test_oracle_cap_past_the_int_to_str_digit_limit(capsys):
    # 4**8000 has 4817 digits, past Python's default int-to-str limit of 4300
    config = pathlib.Path(__file__).parent.parent / "configs" / "chain4_nn.json"
    assert run(["exact", str(config), "--set", "model.dims=[8000]"]) == EXIT_RESOURCE
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["code"] == "resource_cap"
    assert error["details"] == ["required=3.0195e+4816", "allowed=20000"]
    assert error["message"] == "truncated space dimension 3.0195e+4816 exceeds the cap 20000"


def test_approx_dimension_cap_refuses_before_any_solve(tmp_path, monkeypatch, capsys):
    import numpy as np

    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        calls.append(a.shape)
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    auto = {"m": 4, "q_policy": "auto"}
    cases = [
        # auto q on a 6-site chain at beta=0.1 resolves q=23, and m=4 reaches
        # 5-site supports with 24^5 states, past the default cap of 20000
        ("approx", [6], auto, 24**5),
        ("kp", [6], auto, 24**5),
        # the 5-site lattice fits the oracle cap below, but one polymer
        # support (the whole lattice) at q=7 does not fit the expansion's
        ("compare", [5], {"m": 4, "q": 7}, 8**5),
    ]
    for command, dims, expansion, required in cases:
        config = base_config()
        config["model"]["dims"] = dims
        config["expansion"] = expansion
        config["oracle"] = {"q": 7, "dim_cap": 40000}
        assert run([command, write_config(tmp_path, config)]) == EXIT_RESOURCE
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["code"] == "resource_cap"
        assert error["details"] == [f"required={required}", "allowed=20000"]
    assert calls == []


def test_long_range_chain_past_the_polymer_cap_exits_fast(capsys):
    # 79,800 all-pairs edges: 31,840,200 polymers of size <= 2 alone
    config = str(pathlib.Path(__file__).parent.parent / "configs" / "chain6_longrange.json")
    start = time.perf_counter()
    assert run(["approx", config, "--set", "model.dims=[400]"]) == EXIT_RESOURCE
    assert time.perf_counter() - start < 20.0
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["code"] == "resource_cap"
    assert error["details"] == ["required=31840200", f"allowed={bosepoly.polymers.MAX_POLYMERS}"]


@pytest.mark.parametrize("command,n_sites", [("approx", 400), ("kp", 400), ("approx", 4000)])
def test_polymer_cap_refuses_before_the_alphabet_is_built(command, n_sites, monkeypatch, capsys):
    # an all-pairs chain has C(N, 2) edges and N C(N - 1, 2) pairs of edges
    # sharing a site, counted from the coupling matrix before any edge tuple
    def no_alphabet(*args, **kwargs):
        raise AssertionError("the edge alphabet was built")

    monkeypatch.setattr(bosepoly.expansion, "interaction_edges", no_alphabet)
    monkeypatch.setattr(bosepoly.expansion, "enumerate_polymers", no_alphabet)
    config = str(pathlib.Path(__file__).parent.parent / "configs" / "chain6_longrange.json")
    start = time.perf_counter()
    assert run([command, config, "--set", f"model.dims=[{n_sites}]"]) == EXIT_RESOURCE
    assert time.perf_counter() - start < 5.0
    required = math.comb(n_sites, 2) + n_sites * math.comb(n_sites - 1, 2)
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["code"] == "resource_cap"
    assert error["details"] == [f"required={required}", f"allowed={bosepoly.polymers.MAX_POLYMERS}"]


@pytest.mark.parametrize("command", ["approx", "kp"])
@pytest.mark.parametrize("dims", [[1000000], [65, 64]])
def test_lattice_past_the_site_cap_is_refused_before_its_arrays(command, dims, monkeypatch,
                                                                 capsys):
    def no_arrays(*args, **kwargs):
        raise AssertionError("an N x N array was built")

    monkeypatch.setattr(bosepoly.lattice, "distance_matrix", no_arrays)
    monkeypatch.setattr(bosepoly.cli, "build_couplings", no_arrays)
    config = str(pathlib.Path(__file__).parent.parent / "configs" / "chain4_nn.json")
    assert run([command, config, "--set", f"model.dims={json.dumps(dims)}"]) == EXIT_RESOURCE
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["code"] == "resource_cap"
    assert error["details"] == [f"required={math.prod(dims)}",
                                f"allowed={bosepoly.lattice.MAX_SITES}"]


# chain4_nn has 3 edges and 6 polymers, 5 of them of size <= 2: a cap of 4
# refuses before the line graph, a cap of 5 stops the enumeration itself
@pytest.mark.parametrize("cap,required", [(4, 5), (5, 6)])
def test_polymer_cap_refuses_before_any_solve(cap, required, monkeypatch, capsys):
    def no_solve(*args, **kwargs):
        raise AssertionError("an eigensolve ran")

    monkeypatch.setattr(np.linalg, "eigvalsh", no_solve)
    monkeypatch.setattr(np.linalg, "eigh", no_solve)
    monkeypatch.setattr(bosepoly.polymers, "MAX_POLYMERS", cap)
    config = str(pathlib.Path(__file__).parent.parent / "configs" / "chain4_nn.json")
    assert run(["approx", config]) == EXIT_RESOURCE
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["details"] == [f"required={required}", f"allowed={cap}"]


@pytest.mark.parametrize("command,args", [
    ("approx", ["--set", "expansion.m={}"]),
    ("kp", ["--set", "expansion.m={}"]),
    ("compare", ["--m-list", "1,{}"]),
])
@pytest.mark.parametrize("m", [bosepoly.polymers.MAX_ORDER + 1, 10**400])
def test_truncation_order_past_the_cap_refuses_before_any_solve(command, args, m,
                                                                 monkeypatch, capsys):
    def no_solve(*args, **kwargs):
        raise AssertionError("an eigensolve ran")

    monkeypatch.setattr(np.linalg, "eigvalsh", no_solve)
    monkeypatch.setattr(np.linalg, "eigh", no_solve)
    config = str(pathlib.Path(__file__).parent.parent / "configs" / "chain4_nn.json")
    start = time.perf_counter()
    assert run([command, config, *(a.format(m) for a in args)]) == EXIT_RESOURCE
    assert time.perf_counter() - start < 5.0
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["code"] == "resource_cap"
    assert error["details"] == [f"required={m}", f"allowed={bosepoly.polymers.MAX_ORDER}"]


def test_exact_mutual_information(tmp_path):
    config = base_config()
    config["oracle"] = {"q": 1, "partitions": [[0, 1], [0]]}
    code, text = run_to_file(tmp_path, "exact", config)
    assert code == EXIT_OK
    rows = json.loads(text)["result"]["mutual_information"]
    assert [r["A"] for r in rows] == [[0, 1], [0]]
    assert all(r["mutual_information"] >= -1e-10 for r in rows)


def test_compare_zero_coupling_error_vanishes(tmp_path):
    config = base_config()
    config["model"]["coupling"] = {
        "kind": "explicit",
        "matrix": [[0.0] * 4 for _ in range(4)],
    }
    config["expansion"] = {"m": 1, "q": 2}
    code, text = run_to_file(tmp_path, "compare", config, ["--m-list", "1"])
    assert code == EXIT_OK
    rows = json.loads(text)["result"]["rows"]
    assert rows[0]["abs_error"] == 0.0


def test_compare_error_shrinks_with_m(tmp_path):
    code, text = run_to_file(tmp_path, "compare", base_config(), ["--m-list", "2,4"])
    assert code == EXIT_OK
    rows = json.loads(text)["result"]["rows"]
    by_m = {r["m"]: r for r in rows}
    assert by_m[4]["abs_error"] <= by_m[2]["abs_error"]
    assert by_m[4]["m_error_bound"] == pytest.approx(4 * math.exp(-4))


def test_compare_rows_match_standalone_approx(tmp_path):
    # compare reads every m from one run at the largest m; each row must
    # still equal the approx run at that m and q, bit for bit, and rows keep
    # the order of the q-list, then the m-list
    config = base_config()
    config["model"]["coupling"] = {"kind": "long_range", "g": 0.3, "alpha": 3.0}
    config["model"]["U"] = [0.9, 1.1, 1.0, 1.2]
    config["model"]["mu"] = [0.2, 0.7, 0.4, 0.1]
    for m_list, q_list in (([1, 2, 3, 4], []), ([4, 2], [3, 2])):
        args = ["--m-list", ",".join(map(str, m_list))]
        if q_list:
            args += ["--q-list", ",".join(map(str, q_list))]
        code, text = run_to_file(tmp_path, "compare", config, args)
        assert code == EXIT_OK
        rows = json.loads(text)["result"]["rows"]
        qs = q_list or [config["expansion"]["q"]]
        assert [(r["q"], r["m"]) for r in rows] == [(q, m) for q in qs for m in m_list]
        for row in rows:
            single = dict(config, expansion=dict(config["expansion"], m=row["m"], q=row["q"]))
            code, text = run_to_file(tmp_path, "approx", single)
            assert code == EXIT_OK
            report = json.loads(text)["result"]
            assert report["f_beta"] == row["f_beta"]
            assert report["m_error_bound"] == row["m_error_bound"]


def test_compare_oracle_keeps_couplings_below_the_polymer_threshold(tmp_path):
    # the threshold truncates the expansion only; the oracle column is the
    # full model's log Z, so abs_error shows what the threshold dropped
    config = base_config()
    config["model"]["coupling"] = {"kind": "long_range", "g": 0.3, "alpha": 3.0}
    config["expansion"]["polymer_threshold"] = 0.02
    code, text = run_to_file(tmp_path, "compare", config, ["--m-list", "3", "--q-list", "3"])
    assert code == EXIT_OK
    (row,) = json.loads(text)["result"]["rows"]
    code, text = run_to_file(tmp_path, "exact", config)
    assert code == EXIT_OK
    log_z = json.loads(text)["result"]["log_z"]
    assert abs(row["oracle_log_z_q"] - log_z) <= 1e-12
    assert row["abs_error"] > 1e-9


def test_compare_rejects_an_order_below_one(tmp_path):
    for m_list in ("0,2", "-1,3"):
        code, _text = run_to_file(tmp_path, "compare", base_config(), [f"--m-list={m_list}"])
        assert code == EXIT_CONFIG


def test_compare_q_differencing(tmp_path):
    config = base_config()
    config["expansion"] = {"m": 2, "q": 3}
    code, text = run_to_file(tmp_path, "compare", config, ["--q-list", "3,5"])
    assert code == EXIT_OK
    rows = json.loads(text)["result"]["rows"]
    log_zs = {r["q"]: r["oracle_log_z_q"] for r in rows}
    assert abs(log_zs[5] - log_zs[3]) > 0


def test_clustering_zero_coupling_all_zero(tmp_path):
    config = base_config()
    config["model"]["coupling"] = {
        "kind": "explicit",
        "matrix": [[0.0] * 4 for _ in range(4)],
    }
    config["oracle"] = {"q": 1, "anchor": 0, "family": "hopping"}
    code, text = run_to_file(tmp_path, "clustering", config)
    assert code == EXIT_OK
    result = json.loads(text)["result"]
    assert all(abs(r["value"]) <= 1e-13 for r in result["rows"])
    assert result["fitted_exponent"] is None


def test_moments_two_betas_give_rows_for_slope(tmp_path):
    config = base_config()
    config["model"]["dims"] = [1]
    config["model"]["mu"] = 0.0
    config["model"]["coupling"] = {"kind": "explicit", "matrix": [[0.0]]}
    config["oracle"] = {"q": 10, "site": 0, "l_max": 4, "beta_list": [0.05, 0.1]}
    code, text = run_to_file(tmp_path, "moments", config)
    assert code == EXIT_OK
    rows = json.loads(text)["result"]["rows"]
    assert len(rows) == 8


def test_moments_holds_one_thermal_state_at_a_time(tmp_path):
    # a disordered 2x3 square at q=2: a second beta re-solves the model, but
    # the first state must be gone by then, so the peak barely moves
    config = base_config()
    config["model"]["dims"] = [2, 3]
    config["model"]["coupling"] = {"kind": "finite_range", "g": 0.3, "d_c": 1}
    config["model"]["U"] = [0.9, 1.1, 1.0, 1.2, 0.8, 1.05]
    config["model"]["mu"] = [0.2, 0.7, 0.4, 0.1, 0.9, 0.5]
    config["model"]["beta"] = 0.5

    def run_betas(beta_list):
        config["oracle"] = {"q": 2, "site": 0, "l_max": 2, "beta_list": beta_list}
        tracemalloc.start()
        try:
            code, text = run_to_file(tmp_path, "moments", config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_OK
        return json.loads(text)["result"]["rows"], peak

    one_rows, one_peak = run_betas([0.5])
    two_rows, two_peak = run_betas([0.5, 0.4])
    assert two_rows[: len(one_rows)] == one_rows
    assert two_peak <= 1.1 * one_peak


def test_moments_beta_list_solves_each_sector_once(tmp_path, monkeypatch):
    # the same 2x3 square: three betas, the first the smallest and the others
    # out of order, take one eigh per sector, and every row stays within
    # 1e-14 of its own thermal state
    config = base_config()
    config["model"]["dims"] = [2, 3]
    config["model"]["coupling"] = {"kind": "finite_range", "g": 0.3, "d_c": 1}
    config["model"]["U"] = [0.9, 1.1, 1.0, 1.2, 0.8, 1.05]
    config["model"]["mu"] = [0.2, 0.7, 0.4, 0.1, 0.9, 0.5]
    config["oracle"] = {"q": 2, "site": 1, "l_max": 3, "beta_list": [0.1, 0.7, 0.4]}
    model = build_model(config)
    want = {
        beta: moments(thermalize(model, 2, beta=beta), 1, 3) for beta in (0.1, 0.7, 0.4)
    }

    solved = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda m: solved.append(len(m)) or eigh(m))
    code, text = run_to_file(tmp_path, "moments", config)
    assert code == EXIT_OK
    assert len(solved) == 2 * 6 + 1
    rows = json.loads(text)["result"]["rows"]
    assert [(r["beta"], r["l"]) for r in rows] == [
        (beta, l) for beta in (0.1, 0.7, 0.4) for l in (1, 2, 3)
    ]
    for r in rows:
        assert abs(r["value"] - want[r["beta"]][r["l"] - 1]) <= 1e-14 * abs(r["value"])
    assert [r["value"] for r in rows[:3]] == want[0.1]


def test_moments_betas_below_the_first_are_solved_again(tmp_path, monkeypatch):
    # a 3-site chain at q=3 whose spectrum spans about 50: at beta=100 the
    # top of it underflows in W, so a lower beta cannot be reached from that
    # state; the betas below the first take one more solve, at the smallest
    config = base_config()
    config["model"]["dims"] = [3]
    config["model"]["U"] = 6.0
    config["model"]["coupling"] = {"kind": "finite_range", "g": 0.3, "d_c": 1}
    config["oracle"] = {"q": 3, "site": 1, "l_max": 3, "beta_list": [100.0, 1.0, 4.0]}
    model = build_model(config)
    want = {
        beta: moments(thermalize(model, 3, beta=beta), 1, 3) for beta in (100.0, 1.0, 4.0)
    }

    solved = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda m: solved.append(len(m)) or eigh(m))
    code, text = run_to_file(tmp_path, "moments", config)
    assert code == EXIT_OK
    assert len(solved) == 2 * (3 * 3 + 1)
    rows = json.loads(text)["result"]["rows"]
    assert [(r["beta"], r["l"]) for r in rows] == [
        (beta, l) for beta in (100.0, 1.0, 4.0) for l in (1, 2, 3)
    ]
    for r in rows:
        assert abs(r["value"] - want[r["beta"]][r["l"] - 1]) <= 1e-14 * abs(r["value"])
    assert [r["value"] for r in rows[:6]] == want[100.0] + want[1.0]


def test_kp_zero_coupling(tmp_path):
    config = base_config()
    config["model"]["coupling"] = {
        "kind": "explicit",
        "matrix": [[0.0] * 4 for _ in range(4)],
    }
    code, text = run_to_file(tmp_path, "kp", config)
    assert code == EXIT_OK
    result = json.loads(text)["result"]
    assert all(r["lhs"] == 0.0 for r in result["rows"])
    assert result["certified"] is True


def test_kp_reports_the_margins_of_the_approx_run(monkeypatch, capsys):
    reports = []
    approximate = bosepoly.cli.approximate_log_partition

    def keeping(model, cfg):
        reports.append(approximate(model, cfg))
        return reports[-1]

    monkeypatch.setattr(bosepoly.cli, "approximate_log_partition", keeping)
    config = str(pathlib.Path(__file__).parent.parent / "configs" / "chain6_longrange.json")
    assert run(["kp", config]) == EXIT_OK
    kp = json.loads(capsys.readouterr().out)["result"]
    (report,) = reports
    assert kp["rows"] == json.loads(json.dumps([asdict(r) for r in report.kp_margin]))
    assert (kp["certified"], kp["m"], kp["q"]) == (report.kp_certified, report.m, report.q)
    assert run(["approx", config]) == EXIT_OK
    assert kp["rows"] == json.loads(capsys.readouterr().out)["result"]["kp_margin"]


def test_csv_output_round_trips(tmp_path):
    config = base_config()
    config["output"]["format"] = "csv"
    code, text = run_to_file(tmp_path, "kp", config)
    assert code == EXIT_OK
    lines = text.strip().splitlines()
    assert lines[0] == "# bosepoly-schema: 2"
    header = lines[1].split(",")
    assert header == ["site", "lhs", "rhs", "certified"]
    for line in lines[2:]:
        cells = line.split(",")
        assert len(cells) == len(header)
        float(cells[1])  # lhs parses back
        # shortest round-trip formatting: repr(float(x)) == x
        assert repr(float(cells[1])) == cells[1]


# the result keys and the columns of each tabular command, as emitted
_TABLE_SHAPES = {
    "compare": ({"rows", "columns"},
                ["m", "q", "f_beta", "oracle_log_z_q", "abs_error", "m_error_bound"]),
    "clustering": ({"family", "anchor", "fitted_exponent", "rows", "columns"},
                   ["site_a", "site_b", "distance", "value", "phi_ref", "bound_ref", "ratio"]),
    "moments": ({"rows", "columns", "q"}, ["beta", "site", "l", "value"]),
    "kp": ({"rows", "columns", "m", "q", "certified", "note"},
           ["site", "lhs", "rhs", "certified"]),
}


@pytest.mark.parametrize("command", sorted(_TABLE_SHAPES))
def test_tabular_output_shape(command, tmp_path):
    keys, columns = _TABLE_SHAPES[command]
    config = base_config()
    code, text = run_to_file(tmp_path, command, config)
    assert code == EXIT_OK
    result = json.loads(text)["result"]
    assert set(result) == keys
    assert result["columns"] == columns
    assert result["rows"] and all(set(row) == set(columns) for row in result["rows"])

    config["output"]["format"] = "csv"
    code, text = run_to_file(tmp_path, command, config)
    assert code == EXIT_OK
    assert text.splitlines()[:2] == ["# bosepoly-schema: 2", ",".join(columns)]


def test_single_site_clustering_csv_is_header_only(tmp_path):
    config = base_config()
    config["model"]["dims"] = [1]
    config["output"]["format"] = "csv"
    code, text = run_to_file(tmp_path, "clustering", config)
    assert code == EXIT_OK
    assert text == "# bosepoly-schema: 2\nsite_a,site_b,distance,value,phi_ref,bound_ref,ratio\n"


def test_exact_and_approx_result_keys(tmp_path):
    config = base_config()
    config["oracle"]["partitions"] = [[0, 1]]
    code, text = run_to_file(tmp_path, "exact", config)
    assert code == EXIT_OK
    assert set(json.loads(text)["result"]) == {
        "log_z", "q", "n_sites", "moments", "occupation_distribution", "mutual_information",
    }
    code, text = run_to_file(tmp_path, "approx", config)
    assert code == EXIT_OK
    result = json.loads(text)["result"]
    assert set(result) == {
        "f_beta", "log_z_w", "t_m", "per_order", "kp_margin", "kp_certified",
        "polymer_count", "m", "q", "m_error_bound", "notes",
    }
    assert [set(row) for row in result["per_order"]] == [{"order", "contribution"}] * 4
    assert [set(row) for row in result["kp_margin"]] == [{"site", "lhs", "rhs", "certified"}] * 4


# every numeric config key, with a command that reads it and the problem's prefix
_NUMERIC_KEYS = [
    ("approx", "model.beta", "model.beta"),
    ("approx", "model.coupling.g", "model.coupling.g"),
    ("approx", "model.coupling.alpha", "model.coupling.alpha"),
    ("approx", "model.U", "model.U"),
    ("approx", "model.mu", "model.mu"),
    ("approx", "model.U=[1,1,1,{}]", "model.U[3]"),
    ("approx", "model.mu=[0,0,0,{}]", "model.mu[3]"),
    ("approx", "expansion.theta", "expansion.theta"),
    ("approx", "expansion.q_prefactor", "expansion.q_prefactor"),
    ("approx", "expansion.polymer_threshold", "expansion.polymer_threshold"),
    ("moments", "oracle.beta_list=[{}]", "oracle.beta_list"),
    ("moments", "oracle.beta_list=[0.1,{}]", "oracle.beta_list"),
]


# an integer past the float64 range is not finite either
@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity",
                                   pytest.param("1" + "0" * 400, id="int-1e400")])
@pytest.mark.parametrize("command,setting,name", _NUMERIC_KEYS,
                         ids=[case[1] for case in _NUMERIC_KEYS])
def test_non_finite_number_is_a_config_error(command, setting, name, value, tmp_path, capsys):
    config = _edit(base_config(), {"model.coupling": _LONG_RANGE,
                                   "expansion.q_policy": "auto", "expansion.q": _DELETE})
    override = setting.format(value) if "=" in setting else f"{setting}={value}"
    code = run([command, write_config(tmp_path, config), "--set", override])
    out, err = capsys.readouterr()
    assert (code, err) == (EXIT_CONFIG, "")
    error = json.loads(out)["error"]
    assert error["code"] == "config_error"
    assert any(detail.startswith(name) and (not value.isdigit() or "must be finite" in detail)
               for detail in error["details"]), error["details"]


def test_coupling_matrix_integer_past_the_float_range_is_a_config_error(tmp_path, capsys):
    matrix = np.zeros((4, 4)).tolist()
    matrix[0][1] = matrix[1][0] = 10**400
    config = _edit(base_config(), {"model.coupling": {"kind": "explicit", "matrix": matrix}})
    assert run(["approx", write_config(tmp_path, config)]) == EXIT_CONFIG
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["details"] == ["coupling matrix entries must be finite"]


def test_csv_rejected_for_approx(tmp_path, monkeypatch, capsys):
    def no_solve(*args, **kwargs):
        raise AssertionError("an eigensolve ran")

    monkeypatch.setattr(np.linalg, "eigvalsh", no_solve)
    monkeypatch.setattr(np.linalg, "eigh", no_solve)
    config = base_config()
    config["output"]["format"] = "csv"
    code, _ = run_to_file(tmp_path, "approx", config)
    assert code == EXIT_CONFIG
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["details"] == [
        "output.format=csv is only supported for ['clustering', 'compare', 'kp', 'moments']"
    ]


def test_output_path_must_be_a_string(tmp_path, capsys):
    config = base_config(output={"path": 7})
    assert validate_config(config, "approx") == ["output.path must be a string"]
    assert run(["approx", write_config(tmp_path, config)]) == EXIT_CONFIG
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["details"] == ["output.path must be a string"]


def test_unwritable_output_path_is_a_config_error(tmp_path, capsys):
    out = tmp_path / "missing" / "out.json"
    config = base_config(output={"path": str(out)})
    assert run(["approx", write_config(tmp_path, config)]) == EXIT_CONFIG
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["code"] == "config_error"
    assert error["details"] == [
        f"output.path {str(out)!r} cannot be written: No such file or directory"
    ]
    assert not out.exists()


def test_set_override(tmp_path):
    out = tmp_path / "o.json"
    config = base_config()
    config["output"]["path"] = str(out)
    path = write_config(tmp_path, config)
    code = run(["approx", path, "--set", "expansion.m=2"])
    assert code == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["result"]["m"] == 2


def test_error_object_is_machine_readable(tmp_path, capsys):
    config = base_config()
    del config["model"]["beta"]
    config["model"]["dims"] = "nope"
    path = write_config(tmp_path, config)
    code = run(["approx", path])
    assert code == EXIT_CONFIG
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"]["code"] == "config_error"
    assert len(doc["error"]["details"]) >= 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["--version"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "0.1.0" in out and "schema 2" in out


def test_determinism_byte_identical_excluding_timing(tmp_path):
    config = base_config()
    docs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        config["output"]["path"] = str(out)
        path = write_config(tmp_path, config, name=f"cfg_{name}")
        assert run(["approx", path]) == EXIT_OK
        doc = json.loads(out.read_text())
        doc.pop("timing")
        docs.append(json.dumps(doc, sort_keys=True))
    assert docs[0] == docs[1]


def test_approx_output_independent_of_blas_threads(tmp_path):
    import os
    import pathlib
    import subprocess
    import sys

    root = pathlib.Path(__file__).parent.parent
    docs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(root / "src"), env.get("PYTHONPATH")])
        )
        proc = subprocess.run(
            [sys.executable, "-m", "bosepoly.cli", "approx",
             str(root / "configs" / "chain4_nn.json"),
             "--set", "model.dims=[8]", "--set", "expansion.m=5"],
            env=env, capture_output=True, text=True, check=True,
        )
        doc = json.loads(proc.stdout)
        doc.pop("timing")
        docs.append(json.dumps(doc, sort_keys=True))
    assert docs[0] == docs[1]


def test_legacy_workers_key_is_ignored(tmp_path, monkeypatch):
    # configs written for the removed thread pool still carry
    # expansion.workers; it is ignored like any unknown key, and so is the
    # old BOSEPOLY_WORKERS variable
    def report(expansion):
        config = base_config(expansion=expansion)
        assert validate_config(config, "approx") == []
        code, text = run_to_file(tmp_path, "approx", config)
        assert code == EXIT_OK
        doc = json.loads(text)
        doc.pop("timing")
        return doc

    monkeypatch.setenv("BOSEPOLY_WORKERS", "4")
    legacy = report({"m": 4, "q": 3, "workers": 4})
    monkeypatch.delenv("BOSEPOLY_WORKERS")
    assert legacy == report({"m": 4, "q": 3})


def test_numerical_failure_exit_code(tmp_path, monkeypatch, capsys):
    import bosepoly.cli as cli_mod
    from bosepoly.fock import EigensolverError

    def boom(*args, **kwargs):
        raise EigensolverError("synthetic eigensolver breakdown")

    monkeypatch.setattr(cli_mod, "thermalize", boom)
    path = write_config(tmp_path, base_config())
    code = run(["exact", path])
    assert code == 4
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"]["code"] == "numerical_failure"


def test_golden_report_chain4(tmp_path):
    import pathlib

    golden_path = pathlib.Path(__file__).parent / "data" / "golden_approx_chain4.json"
    golden = json.loads(golden_path.read_text())
    golden.pop("timing")

    out = tmp_path / "fresh.json"
    config_path = str(pathlib.Path(__file__).parent.parent / "configs" / "chain4_nn.json")
    code = run(["approx", config_path, "--set", f"output.path={out}"])
    assert code == EXIT_OK
    fresh = json.loads(out.read_text())
    fresh.pop("timing")
    assert fresh == golden
    assert {"per_order", "kp_margin"} <= set(fresh["result"])


def test_q_policy_auto_through_cli(tmp_path):
    config = base_config()
    config["expansion"] = {"m": 2, "q_policy": "auto", "theta": 1.0, "q_prefactor": 2.0}
    code, text = run_to_file(tmp_path, "approx", config)
    assert code == EXIT_OK
    doc = json.loads(text)
    assert doc["result"]["q"] == math.ceil(2.0 * 2.0 * math.log(4) / math.sqrt(0.1))
