import copy
import json
import math
import pathlib
import re
import time
import tracemalloc
import warnings
from dataclasses import asdict

import numpy as np
import pytest

import bosepoly.cli
import bosepoly.expansion
import bosepoly.fock
import bosepoly.lattice
import bosepoly.polymers
from bosepoly.cli import (
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_RESOURCE,
    build_model,
    render_csv,
    run,
    validate_config,
)
from bosepoly.oracle import MAX_MOMENT_ORDER, Moments, thermalize


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
        "oracle": {"l_max": 2, "site": 0},
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


def assert_elapsed_seconds(doc):
    elapsed = doc["timing"]["elapsed_seconds"]
    assert isinstance(elapsed, float) and math.isfinite(elapsed) and elapsed >= 0


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
    config["expansion"] = {"m": 4, "q": "x", "q_policy": "auto"}
    config["oracle"] = {"q": 0, "dim_cap": -1}
    want = [
        "model.periodic must be true or false",
        'expansion.q must be an integer >= 1 or "auto"',
        'expansion.q_policy is no longer read: set expansion.q = "auto"',
        _ORACLE_Q_MESSAGE,
        _DIM_CAP_MESSAGE,
    ]
    for command in ("approx", "exact"):
        assert validate_config(config, command) == want
        assert run([command, write_config(tmp_path, config)]) == EXIT_CONFIG
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["code"] == "config_error"
        assert error["details"] == want

    for q in (0, True, 2.0, "Auto"):
        config = base_config()
        config["expansion"]["q"] = q
        want = ['expansion.q must be an integer >= 1 or "auto"']
        assert validate_config(config, "approx") == want


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
_ORACLE_Q_MESSAGE = "oracle.q is no longer read: set expansion.q"
_DIM_CAP_MESSAGE = "oracle.dim_cap is no longer read: the cap is 20000"

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
    ("approx", {"model.coupling": {"kind": "explicit",
                                   "matrix": [[0, True, 0, 0], ["0.1", 0, None, 0], [0] * 4]}},
     ["model.coupling.matrix[0][1] must be a number, got True",
      "model.coupling.matrix[1][0] must be a number, got '0.1'",
      "model.coupling.matrix[1][2] must be a number, got None"]),
    ("approx", {"model.U": _DELETE}, ["model.U is required"]),
    ("approx", {"model.mu": [0.0, 0.1]}, ["model.mu list must have length N = 4"]),
    ("approx", {"model.U": [1, 1, 1, 0], "model.mu": [0, 0, 0, "x"]},
     ["model.U[3] must be strictly positive", "model.mu[3] must be a number, got 'x'"]),
    ("approx", {"model.U": "x"}, ["model.U must be a number or per-site list"]),
    ("approx", {"model.U": 0}, ["model.U must be strictly positive"]),
    ("approx", {"expansion": 5}, [
        "expansion section must be an object",
        "expansion.m is required for this command",
        "expansion.q is required for this command",
    ]),
    ("approx", {"expansion.m": 0}, ["expansion.m must be an integer >= 1"]),
    # legacy cutoff keys are ignored, except a q_policy other than explicit
    ("approx", {"expansion.q_policy": "x"},
     ['expansion.q_policy is no longer read: set expansion.q = "auto"']),
    ("approx", {"expansion.q_policy": "auto"},
     ['expansion.q_policy is no longer read: set expansion.q = "auto"']),
    ("approx", {"expansion.q_policy": "Auto"},
     ['expansion.q_policy is no longer read: set expansion.q = "auto"']),
    ("approx", {"expansion.q": 0}, ['expansion.q must be an integer >= 1 or "auto"']),
    ("approx", {"expansion.theta": "x", "expansion.q_prefactor": 0}, []),
    ("approx", {"expansion.polymer_threshold": "x"},
     ["expansion.polymer_threshold must be a number, got 'x'"]),
    ("approx", {"expansion.polymer_threshold": -1},
     ["expansion.polymer_threshold must be nonnegative"]),
    ("exact", {"oracle": 5}, ["oracle section must be an object"]),
    ("exact",
     {"oracle.q": "x", "oracle.dim_cap": 0, "oracle.l_max": True, "oracle.anchor": 1.5}, [
         _ORACLE_Q_MESSAGE,
         _DIM_CAP_MESSAGE,
         "oracle.l_max must be an integer",
         "oracle.anchor must be an integer",
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
    ("approx", {"expansion.q": _DELETE}, ["expansion.q is required for this command"]),
    ("exact", {"oracle.q": _DELETE, "expansion.q": _DELETE},
     ["expansion.q is required for this command"]),
    # a legacy oracle.q is ignored only if it equals expansion.q as written
    ("compare", {"oracle.q": 3}, []),
    ("compare", {"oracle.q": 2}, [_ORACLE_Q_MESSAGE]),
    ("exact", {"expansion.q": "auto", "oracle.q": 2}, [_ORACLE_Q_MESSAGE]),
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
        "expansion": {"m": 0, "q": "x", "q_policy": "auto", "polymer_threshold": -1},
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
        'expansion.q must be an integer >= 1 or "auto"',
        'expansion.q_policy is no longer read: set expansion.q = "auto"',
        _ORACLE_Q_MESSAGE,
        _DIM_CAP_MESSAGE,
        "expansion.polymer_threshold must be nonnegative",
        "oracle.l_max must be an integer",
        "oracle.anchor must be an integer",
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
        _DIM_CAP_MESSAGE,
        "oracle.site must be a site index in [0, 3)",
        "oracle.anchor must be a site index in [0, 3)",
        "oracle.partitions entry [1, 1] repeats sites",
        "oracle.partitions entries must be nonempty site lists",
        "output.format must be json or csv",
        "expansion.q is required for this command",
    ]),
    "explicit": ("moments", {
        "model": {"dims": [], "coupling": {"kind": "explicit"}, "U": 0},
        "expansion": {"q_policy": "auto", "q": 0, "theta": 0, "polymer_threshold": "x"},
        "oracle": {"l_max": 0, "partitions": 5, "beta_list": [0.1, True]},
        "output": 5,
    }, [
        "model.dims must be a nonempty list of integers >= 1",
        "model.beta is required",
        "model.coupling.matrix is required for explicit kind",
        "model.U must be strictly positive",
        "model.mu is required",
        'expansion.q must be an integer >= 1 or "auto"',
        'expansion.q_policy is no longer read: set expansion.q = "auto"',
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


# every key a config can carry, on a config that sets all of them; q_policy,
# theta, q_prefactor and oracle.q are legacy keys that harness configs still
# carry, and oracle.dim_cap one that older configs may
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
    assert doc["schema_version"] == "3"
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
    assert_elapsed_seconds(doc)


def test_missing_beta_exit_code(tmp_path):
    config = base_config()
    del config["model"]["beta"]
    code, _text = run_to_file(tmp_path, "approx", config)
    assert code == EXIT_CONFIG


def test_config_path_that_cannot_be_read_exits_2(tmp_path, capsys):
    assert run(["approx", str(tmp_path)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    error = json.loads(captured.out)["error"]
    assert error["code"] == "config_error"
    assert error["message"] == f"config file cannot be read: {tmp_path}: Is a directory"
    assert captured.err == ""
    missing = tmp_path / "absent.json"
    assert run(["approx", str(missing)]) == EXIT_CONFIG
    assert json.loads(capsys.readouterr().out)["error"]["message"] == (
        f"config file not found: {missing}")


def test_exact_single_site(tmp_path):
    config = base_config()
    config["model"]["dims"] = [1]
    config["model"]["coupling"] = {"kind": "explicit", "matrix": [[0.0]]}
    config["expansion"]["q"] = 2
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
    config["expansion"]["q"] = 1
    config["oracle"] = {}
    code, text = run_to_file(tmp_path, "exact", config)
    assert code == EXIT_OK
    result = json.loads(text)["result"]
    assert result["log_z"] == pytest.approx(math.log(2 + 2 * math.cosh(0.3)), rel=1e-12)


def test_exact_dimension_cap_exit_code(tmp_path):
    # 10^5 states, past the cap of 20000
    config = base_config()
    config["model"]["dims"] = [5]
    config["expansion"]["q"] = 9
    code, _ = run_to_file(tmp_path, "exact", config)
    assert code == EXIT_RESOURCE


def _assert_oracle_cap_refuses_before_the_model(command, n_sites, q, tmp_path,
                                                monkeypatch, capsys):
    def no_model(*args, **kwargs):
        raise AssertionError("the coupling matrix was built")

    monkeypatch.setattr(bosepoly.lattice, "build_couplings", no_model)
    monkeypatch.setattr(bosepoly.cli, "build_couplings", no_model)
    config = base_config()
    config["model"]["dims"] = [n_sites]
    config["expansion"]["q"] = q
    assert run([command, write_config(tmp_path, config)]) == EXIT_RESOURCE
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["details"] == [f"required={(q + 1)**n_sites}", "allowed=20000"]


@pytest.mark.parametrize("command", ["exact", "clustering", "moments", "compare"])
def test_oracle_cap_refuses_before_the_model_is_built(command, tmp_path, monkeypatch, capsys):
    _assert_oracle_cap_refuses_before_the_model(command, 3000, 3, tmp_path, monkeypatch, capsys)


# every oracle command refuses the 5 sites at q=7 (8^5 = 32768 states) alike
@pytest.mark.parametrize("command", ["exact", "clustering", "moments", "compare"])
def test_oracle_cap_refuses_five_sites_at_q7_before_the_model_is_built(command, tmp_path,
                                                                        monkeypatch, capsys):
    _assert_oracle_cap_refuses_before_the_model(command, 5, 7, tmp_path, monkeypatch, capsys)


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
    auto = {"m": 4, "q": "auto"}
    cases = [
        # auto q on a 6-site chain at beta=0.1 resolves q=23, and m=4 reaches
        # 5-site supports with 24^5 states, past the default cap of 20000
        ("approx", [6], auto, 24**5),
        ("kp", [6], auto, 24**5),
        # the 5-site lattice at q=7 fits neither the oracle nor the expansion,
        # which share one cap
        ("compare", [5], {"m": 4, "q": 7}, 8**5),
    ]
    for command, dims, expansion, required in cases:
        config = base_config()
        config["model"]["dims"] = dims
        config["expansion"] = expansion
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


# every kind of refusal, with its exact message and details
_REFUSALS = {
    "site_cap": ("approx", "chain4_nn", ["model.dims=[1000000]"], None,
                 "1000000 lattice sites exceed the cap 4096", 1000000, 4096),
    "order_cap": ("approx", "chain4_nn", ["expansion.m=17"], None,
                  "truncation order 17 exceeds the cap 16", 17, 16),
    "polymer_cap_from_the_mask": ("approx", "chain6_longrange", ["model.dims=[400]"], None,
                                  "at least 31840200 polymers exceed the cap 50000",
                                  31840200, 50000),
    "polymer_cap_in_the_enumeration": ("approx", "chain4_nn", [], 5,
                                       "at least 6 polymers exceed the cap 5", 6, 5),
    "expansion_dimension_cap": ("approx", "chain4_nn", ["expansion.q=200"], None,
                                "truncated space dimension 1632240801 exceeds the cap 20000",
                                201**4, 20000),
    "oracle_dimension_cap": ("exact", "chain4_nn", ["model.dims=[5]", "expansion.q=9"], None,
                             "truncated space dimension 100000 exceeds the cap 20000",
                             10**5, 20000),
    "moment_order_cap": ("moments", "chain4_nn", ["oracle.l_max=5000"], None,
                         "moment order 5000 exceeds the cap 4096", 5000, 4096),
}


@pytest.mark.parametrize("kind", sorted(_REFUSALS))
def test_refusal_message_and_details(kind, monkeypatch, capsys):
    command, name, settings, polymer_cap, message, required, allowed = _REFUSALS[kind]
    if polymer_cap is not None:
        monkeypatch.setattr(bosepoly.polymers, "MAX_POLYMERS", polymer_cap)
    config = str(pathlib.Path(__file__).parent.parent / "configs" / f"{name}.json")
    args = [arg for setting in settings for arg in ("--set", setting)]
    assert run([command, config, *args]) == EXIT_RESOURCE
    assert json.loads(capsys.readouterr().out)["error"] == {
        "code": "resource_cap",
        "message": message,
        "details": [f"required={required}", f"allowed={allowed}"],
    }


def test_exact_mutual_information(tmp_path):
    config = base_config()
    config["expansion"]["q"] = 1
    config["oracle"] = {"partitions": [[0, 1], [0]]}
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
    config["expansion"]["q"] = 1
    config["oracle"] = {"anchor": 0, "family": "hopping"}
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
    config["expansion"]["q"] = 10
    config["oracle"] = {"site": 0, "l_max": 4, "beta_list": [0.05, 0.1]}
    code, text = run_to_file(tmp_path, "moments", config)
    assert code == EXIT_OK
    rows = json.loads(text)["result"]["rows"]
    assert len(rows) == 8


def test_moments_holds_one_thermal_state_at_a_time(tmp_path):
    # a disordered 2x3 square at q=2: a second beta scales a copy of each
    # sector's eigenvectors, which sits below the solve's transient, so the
    # peak barely moves
    config = base_config()
    config["model"]["dims"] = [2, 3]
    config["model"]["coupling"] = {"kind": "finite_range", "g": 0.3, "d_c": 1}
    config["model"]["U"] = [0.9, 1.1, 1.0, 1.2, 0.8, 1.05]
    config["model"]["mu"] = [0.2, 0.7, 0.4, 0.1, 0.9, 0.5]
    config["model"]["beta"] = 0.5
    config["expansion"]["q"] = 2

    def run_betas(beta_list):
        config["oracle"] = {"site": 0, "l_max": 2, "beta_list": beta_list}
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
    config["expansion"]["q"] = 2
    config["oracle"] = {"site": 1, "l_max": 3, "beta_list": [0.1, 0.7, 0.4]}
    model = build_model(config)
    want = {
        beta: thermalize(model, 2, [Moments(1, 3)], beta=beta).values[0]
        for beta in (0.1, 0.7, 0.4)
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


def test_moments_descending_beta_list_solves_each_sector_once(tmp_path, monkeypatch):
    # a 3-site chain at q=3 whose spectrum spans about 50: at beta=100 the top
    # of each sector underflows, yet each sector's eigenvectors serve every
    # beta, so the list takes one eigh per sector (10), not a second solve for
    # the betas below the first, and every row is that of a one-beta run
    config = base_config()
    config["model"]["dims"] = [3]
    config["model"]["U"] = 6.0
    config["model"]["coupling"] = {"kind": "finite_range", "g": 0.3, "d_c": 1}
    config["oracle"] = {"site": 1, "l_max": 3, "beta_list": [100.0, 1.0, 4.0]}
    model = build_model(config)
    want = {
        beta: thermalize(model, 3, [Moments(1, 3)], beta=beta).values[0]
        for beta in (100.0, 1.0, 4.0)
    }

    solved = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda m: solved.append(len(m)) or eigh(m))
    code, text = run_to_file(tmp_path, "moments", config)
    assert code == EXIT_OK
    assert len(solved) == 3 * 3 + 1
    rows = json.loads(text)["result"]["rows"]
    assert [(r["beta"], r["l"]) for r in rows] == [
        (beta, l) for beta in (100.0, 1.0, 4.0) for l in (1, 2, 3)
    ]
    assert [r["value"] for r in rows] == want[100.0] + want[1.0] + want[4.0]


def _disordered_square_config(dims):
    rng = np.random.default_rng(4)
    n = math.prod(dims)
    config = base_config()
    config["model"].update(dims=dims, beta=0.5, U=rng.uniform(0.8, 1.2, n).tolist(),
                           mu=rng.uniform(0.0, 1.0, n).tolist(),
                           coupling={"kind": "finite_range", "g": 0.2, "d_c": 1})
    config["expansion"]["q"] = 2
    config["oracle"] = {"site": 0, "l_max": 4, "anchor": 0, "family": "density",
                        "partitions": [list(range(n // 2))], "beta_list": [0.5, 0.3]}
    return config


@pytest.mark.parametrize("command", ["exact", "clustering", "moments"])
def test_every_oracle_command_solves_each_sector_once(command, tmp_path, monkeypatch):
    # a disordered 2x3 square at q=2 has 13 sectors; moments runs two betas
    solved = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda m: solved.append(len(m)) or eigh(m))
    code, _text = run_to_file(tmp_path, command, _disordered_square_config([2, 3]))
    assert code == EXIT_OK
    assert len(solved) == 2 * 6 + 1
    assert sum(solved) == 3**6


@pytest.mark.parametrize("partition", [[0, 1, 2, 3], [0]])
def test_exact_holds_one_sector_of_eigenvectors_at_a_time(partition, tmp_path):
    # a disordered 2x4 square at q=2, whose largest sector has 1107 states:
    # every observable exact reports is folded from one sector's eigenvectors
    # at a time, so the traced peak stays under three such n x n arrays of
    # doubles: 2.1 were measured, against 4.9 when every sector's were held.
    # Cut into one site and seven, a sector reaches at most three of the
    # seven sites' 15 reduced blocks and keeps only those: 2.7 with one
    # reordered copy of W per side, against 9.2 when every sector kept all 15
    config = _disordered_square_config([2, 4])
    config["oracle"]["partitions"] = [partition]
    largest = max(block.dim for block in bosepoly.fock.sector_blocks(range(8), 2))
    tracemalloc.start()
    try:
        code, text = run_to_file(tmp_path, "exact", config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_OK
    result = json.loads(text)["result"]
    assert {"moments", "occupation_distribution", "mutual_information"} <= set(result)
    assert result["mutual_information"][0]["A"] == partition
    assert peak < 3 * largest**2 * 8


@pytest.mark.parametrize("command", ["exact", "moments"])
@pytest.mark.parametrize("l_max", [MAX_MOMENT_ORDER + 1, 10**400])
def test_moment_order_past_the_cap_is_refused_before_the_model_is_built(command, l_max,
                                                                        monkeypatch, capsys):
    def no_model(*args, **kwargs):
        raise AssertionError("the model was built")

    monkeypatch.setattr(bosepoly.cli, "build_model", no_model)
    config = str(pathlib.Path(__file__).parent.parent / "configs" / "chain4_nn.json")
    assert run([command, config, "--set", f"oracle.l_max={l_max}"]) == EXIT_RESOURCE
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["code"] == "resource_cap"
    assert error["details"][1] == f"allowed={MAX_MOMENT_ORDER}"


@pytest.mark.parametrize("command", ["exact", "moments"])
def test_overflowing_moment_is_a_numerical_failure(command, capsys):
    # at q=2, 2^l overflows a float from l=1024 on
    config = str(pathlib.Path(__file__).parent.parent / "configs" / "chain4_nn.json")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run([command, config, "--set", "expansion.q=2", "--set", "oracle.l_max=2000"])
    assert code == 4
    captured = capsys.readouterr()
    assert captured.err == ""
    error = json.loads(captured.out)["error"]
    assert error["code"] == "numerical_failure"
    assert error["message"] == "moment l=1024 at site 0 is not finite (inf)"


@pytest.mark.parametrize("command", ["exact", "clustering", "moments", "approx", "compare"])
def test_overflowing_hamiltonian_entry_is_a_numerical_failure(command, capsys):
    # refused before any solve, naming the site or edge, and with no warning
    config = str(pathlib.Path(__file__).parent.parent / "configs" / "chain4_nn.json")
    cases = [
        (["model.coupling.g=1e308"], "hopping amplitude on edge"),
        (["model.U=1e308"], "on-site energy at site 0 is not finite"),
        (["model.mu=1e308"], "on-site energy at site 0 is not finite"),
        (["model.U=1e308", "expansion.q=2"], "on-site energy summed over sites"),
    ]
    for settings, message in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run([command, config, *(arg for s in settings for arg in ("--set", s))])
        assert code == EXIT_NUMERICAL, settings
        captured = capsys.readouterr()
        assert captured.err == ""
        error = json.loads(captured.out)["error"]
        assert error["code"] == "numerical_failure"
        assert message in error["message"]


@pytest.mark.parametrize("command", ["exact", "clustering", "moments", "approx", "compare"])
def test_overflowing_beta_times_energy_is_a_numerical_failure(command, capsys):
    # every entry of H is finite at U=1e307, but beta * E overflows in the
    # N=2 sector of the first polymer and in the oracle's N=6 sector, the
    # largest, solved first; with no polymer, approx refuses the free trace
    config = str(pathlib.Path(__file__).parent.parent / "configs" / "chain4_nn.json")
    sector = 2 if command in ("approx", "compare") else 6
    cases = [([], f"beta * E in the N={sector} sector is not finite")]
    if command == "approx":
        cases.append((["expansion.polymer_threshold=1"], "beta * E at site 0 is not finite"))
    for settings, message in cases:
        settings = ["model.U=1e307", "model.beta=100", *settings]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run([command, config, *(arg for s in settings for arg in ("--set", s))])
        assert code == EXIT_NUMERICAL, settings
        captured = capsys.readouterr()
        assert captured.err == ""
        error = json.loads(captured.out)["error"]
        assert error["code"] == "numerical_failure"
        assert error["message"].endswith(message)


def test_oracle_cap_on_a_huge_lattice_allocates_nothing():
    # at 10**400 sites, 4**N is never formed and no N-sized list is built:
    # each oracle command exits 3 under a 1 GiB address-space limit
    import os
    import resource
    import subprocess
    import sys

    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    root = pathlib.Path(__file__).parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
    config = str(root / "configs" / "chain4_nn.json")
    for command in ("exact", "clustering", "moments", "compare"):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "bosepoly.cli", command, config,
             "--set", f"model.dims=[{10**400}]"],
            env=env, capture_output=True, text=True, timeout=60,
            preexec_fn=limit_address_space,
        )
        assert proc.returncode == EXIT_RESOURCE, (command, proc.stdout, proc.stderr)
        assert time.perf_counter() - start < 10, command
        assert proc.stderr == ""
        required = json.loads(proc.stdout)["error"]["details"][0]
        # log10(4**(10**400)) = 10**400 log10(4), a 400-digit exponent
        assert required.startswith("required=6.5551e+602059991327962390427477789448")
        assert len(required) == len("required=6.5551e+") + 400


def test_clustering_fits_no_exponent_through_one_distance(capsys):
    # at beta=1e-6 only the three distance-1 rows of a 2x2x2 cube clear the
    # noise floor: three points at one distance determine no slope
    config = str(pathlib.Path(__file__).parent.parent / "configs" / "chain4_nn.json")
    settings = ["model.dims=[2,2,2]", "model.beta=1e-6", "expansion.q=1"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(["clustering", config, *(arg for s in settings for arg in ("--set", s))])
    assert code == EXIT_OK
    result = json.loads(capsys.readouterr().out)["result"]
    usable = [r for r in result["rows"] if abs(r["value"]) > 1e-13]
    assert len(usable) == 3 and {r["distance"] for r in usable} == {1}
    assert result["fitted_exponent"] is None


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
    assert lines[0] == "# bosepoly-schema: 3"
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
    "clustering": ({"family", "anchor", "fitted_exponent", "fitted_exponent_stderr", "rows",
                    "columns"}, ["site_a", "site_b", "distance", "value"]),
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
    doc = json.loads(text)
    assert_elapsed_seconds(doc)
    result = doc["result"]
    assert set(result) == keys
    assert result["columns"] == columns
    assert result["rows"] and all(set(row) == set(columns) for row in result["rows"])

    config["output"]["format"] = "csv"
    code, text = run_to_file(tmp_path, command, config)
    assert code == EXIT_OK
    lines = text.splitlines()
    assert lines[:2] == ["# bosepoly-schema: 3", ",".join(columns)]
    # the CSV is the JSON result's own rows: floats by repr, bools lower case
    cell = {bool: lambda v: "true" if v else "false", float: repr, int: str}
    assert lines[2:] == [",".join(cell[type(row[c])](row[c]) for c in columns)
                         for row in result["rows"]]


def test_single_site_clustering_csv_is_header_only(tmp_path):
    config = base_config()
    config["model"]["dims"] = [1]
    config["output"]["format"] = "csv"
    code, text = run_to_file(tmp_path, "clustering", config)
    assert code == EXIT_OK
    assert text == "# bosepoly-schema: 3\nsite_a,site_b,distance,value\n"


def test_exact_and_approx_result_keys(tmp_path):
    config = base_config()
    config["oracle"]["partitions"] = [[0, 1]]
    code, text = run_to_file(tmp_path, "exact", config)
    assert code == EXIT_OK
    doc = json.loads(text)
    assert_elapsed_seconds(doc)
    assert set(doc["result"]) == {
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
    config = _edit(base_config(), {"model.coupling": _LONG_RANGE, "expansion.q": "auto"})
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


@pytest.mark.parametrize("kind", [{"kind": "explicit"}, _LONG_RANGE])
@pytest.mark.parametrize("entry", [True, "0.1"])
def test_coupling_matrix_entry_that_is_not_a_number_is_a_config_error(
        entry, kind, tmp_path, monkeypatch, capsys):
    # numpy would read true as J = 1.0 and "0.1" as J = 0.1
    def no_model(*args, **kwargs):
        raise AssertionError("the coupling matrix was built")

    monkeypatch.setattr(bosepoly.cli, "build_couplings", no_model)
    matrix = np.zeros((4, 4)).tolist()
    matrix[0][1] = matrix[1][0] = entry
    config = _edit(base_config(), {"model.coupling": dict(kind, matrix=matrix)})
    assert run(["approx", write_config(tmp_path, config)]) == EXIT_CONFIG
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["details"] == [f"model.coupling.matrix[{i}][{j}] must be a number, got {entry!r}"
                                for i, j in ((0, 1), (1, 0))]


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


@pytest.mark.parametrize("oracle, sets", [
    (None, ["--set", "oracle.site=2"]),
    ({"site": 1, "l_max": 3}, ["--set", "oracle=null", "--set", "oracle.site=2"]),
])
def test_set_path_into_a_null_section(oracle, sets, tmp_path, capsys):
    # "oracle": null is an empty oracle section, so --set may fill it
    config = base_config()
    docs = []
    for args in ([write_config(tmp_path, dict(config, oracle={"site": 2}), name="site2.json")],
                 [write_config(tmp_path, dict(config, oracle=oracle)), *sets]):
        assert run(["exact", *args]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        doc.pop("timing")
        docs.append(doc)
    assert docs[0] == docs[1]
    assert docs[0]["result"]["occupation_distribution"]["site"] == 2
    assert "moments" not in docs[0]["result"]


def test_set_path_through_a_non_object_value_exits_2(tmp_path, capsys):
    code = run(["exact", write_config(tmp_path, base_config()), "--set", "model.dims.x=1"])
    assert code == EXIT_CONFIG
    assert json.loads(capsys.readouterr().out)["error"]["details"] == [
        "--set path 'model.dims.x' crosses a non-object value"
    ]


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
    assert "0.1.0" in out and "schema 3" in out


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
    # old BOSEPOLY_WORKERS variable.  So are the removed cutoff keys of a
    # benchmark-harness config: q_policy = "explicit", theta and q_prefactor
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
    harness = {"m": 4, "q": 3, "q_policy": "explicit", "workers": 1}
    assert report(dict(harness, theta=0.5, q_prefactor=3.0)) == legacy


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


@pytest.mark.parametrize("command", ["approx", "kp"])
def test_overflowing_weight_is_a_numerical_failure(command, capsys):
    # at g=5 and m=3 every weight is finite, but the z^3 coefficient of the
    # single edge's log(1 + w z) overflows from beta=25 on; at g=10 and m=1,
    # exp(log g) of the edge itself overflows.  Neither warns on stderr.
    config = str(pathlib.Path(__file__).parent.parent / "configs" / "chain4_nn.json")
    series = "the log Xi series of polymer ((0, 1),) is not finite"
    cases = [
        (25, 5, 3, f"{series} (-inf)"),
        (30, 5, 3, f"{series} (-inf)"),
        (35, 5, 3, f"{series} (-inf)"),
        (40, 5, 3, f"{series} (inf)"),
        (50, 5, 3, f"{series} (inf)"),
        (50, 10, 1, "the weight of polymer ((0, 1),) is not finite (nan)"),
    ]
    for beta, g, m, message in cases:
        settings = [f"model.beta={beta}", f"model.coupling.g={g}", f"expansion.m={m}",
                    "expansion.q=2"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run([command, config, *(arg for s in settings for arg in ("--set", s))])
        assert code == 4, beta
        captured = capsys.readouterr()
        assert captured.err == ""
        error = json.loads(captured.out)["error"]
        assert error["code"] == "numerical_failure"
        assert error["message"] == message


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


def test_q_policy_auto_through_cli(tmp_path, capsys):
    config = base_config()
    config["expansion"] = {"m": 2, "q": "auto"}
    code, text = run_to_file(tmp_path, "approx", config)
    assert code == EXIT_OK
    doc = json.loads(text)
    assert doc["result"]["q"] == math.ceil(2.0 * 2.0 * math.log(4) / math.sqrt(0.1))

    # an oracle run resolves expansion.q, and needs no m
    config = _edit(base_config(), {"model.beta": 25.0, "expansion": {"q": "auto"},
                                   "oracle": None})
    code, text = run_to_file(tmp_path, "exact", config)
    assert code == EXIT_OK
    assert json.loads(text)["result"]["q"] == 2

    # the legacy spelling would otherwise lose the auto cutoff without a word
    config["expansion"] = {"m": 2, "q": 3, "q_policy": "auto"}
    assert run(["approx", write_config(tmp_path, config)]) == EXIT_CONFIG
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["details"] == ['expansion.q_policy is no longer read: set expansion.q = "auto"']


@pytest.mark.parametrize("command", ["exact", "clustering", "moments"])
def test_legacy_oracle_q_runs_as_if_absent_only_when_equal(command, monkeypatch, capsys):
    # expansion.q is every command's cutoff; an oracle.q equal to it as
    # written (3 in chain4_nn) changes no byte outside timing
    config = str(pathlib.Path(__file__).parent.parent / "configs" / "chain4_nn.json")

    def stdout(*settings):
        code = run([command, config, *(arg for s in settings for arg in ("--set", s))])
        captured = capsys.readouterr()
        assert captured.err == ""
        return code, re.sub(r'"elapsed_seconds": [^\n]*', "", captured.out)

    plain = stdout()
    assert plain[0] == EXIT_OK
    assert stdout("oracle.q=3") == plain

    # any other oracle.q, or one with no expansion.q, is refused before the model
    def no_model(*args, **kwargs):
        raise AssertionError("the model was built")

    monkeypatch.setattr(bosepoly.cli, "build_model", no_model)
    for settings, details in (
        (["oracle.q=2"], [_ORACLE_Q_MESSAGE]),
        (["expansion.q=null", "oracle.q=3"],
         [_ORACLE_Q_MESSAGE, "expansion.q is required for this command"]),
    ):
        code, out = stdout(*settings)
        assert code == EXIT_CONFIG, settings
        assert json.loads(out)["error"]["details"] == details


def _no_model(*args, **kwargs):
    raise AssertionError("the model was built")


@pytest.mark.parametrize("command", sorted(bosepoly.cli.COMMANDS))
@pytest.mark.parametrize("value", ["10", "40000", '"x"', "true"])
def test_legacy_dim_cap_other_than_the_cap_is_refused_before_the_model(command, value,
                                                                       monkeypatch, capsys):
    monkeypatch.setattr(bosepoly.cli, "build_model", _no_model)
    config = str(pathlib.Path(__file__).parent.parent / "configs" / "chain4_nn.json")
    assert run([command, config, "--set", f"oracle.dim_cap={value}"]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out)["error"]["details"] == [_DIM_CAP_MESSAGE]


@pytest.mark.parametrize("command", sorted(bosepoly.cli.COMMANDS))
def test_legacy_dim_cap_equal_to_the_cap_changes_no_byte(command, capsys):
    config = str(pathlib.Path(__file__).parent.parent / "configs" / "chain4_nn.json")

    def stdout(*args):
        code = run([command, config, *args])
        captured = capsys.readouterr()
        assert captured.err == ""
        return code, re.sub(r'"elapsed_seconds": [^\n]*', "", captured.out)

    plain = stdout()
    assert plain[0] == EXIT_OK
    assert stdout("--set", "oracle.dim_cap=20000") == plain


@pytest.mark.parametrize("flag,value", [("--m-list", "0"), ("--m-list", "2,-1"),
                                        ("--q-list", "0"), ("--q-list", "3,-1")])
def test_compare_grid_entry_below_one_is_refused_before_the_model(flag, value, monkeypatch,
                                                                  capsys):
    monkeypatch.setattr(bosepoly.cli, "build_model", _no_model)
    config = str(pathlib.Path(__file__).parent.parent / "configs" / "chain4_nn.json")
    assert run(["compare", config, f"{flag}={value}"]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err == ""
    message = f"{flag} entries must be >= 1, got {value!r}"
    assert json.loads(captured.out)["error"] == {
        "code": "config_error", "message": message, "details": [message]}


@pytest.mark.parametrize("flag,value", [("--m-list", "1,x"), ("--q-list", "2,2.5")])
def test_compare_grid_that_is_not_integers_names_the_flag(flag, value, capsys):
    config = str(pathlib.Path(__file__).parent.parent / "configs" / "chain4_nn.json")
    assert run(["compare", config, flag, value]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err == ""
    message = f"{flag} must be comma-separated integers, got {value!r}"
    assert json.loads(captured.out)["error"] == {
        "code": "config_error", "message": message, "details": [message]}


def test_non_finite_reduced_block_eigenvalue_is_a_numerical_failure(monkeypatch, capsys):
    # the mutual information's reduced blocks (at most 16 states in chain4_nn)
    # pass the sectors' non-finite check: a NaN is refused naming the block,
    # not written into the report
    eigvalsh = np.linalg.eigvalsh

    def spoiled_eigvalsh(matrix):
        lam = eigvalsh(matrix)
        if len(lam) <= 16:
            lam[-1] = np.nan
        return lam

    monkeypatch.setattr(np.linalg, "eigvalsh", spoiled_eigvalsh)
    config = str(pathlib.Path(__file__).parent.parent / "configs" / "chain4_nn.json")
    assert run(["exact", config]) == EXIT_NUMERICAL
    captured = capsys.readouterr()
    assert captured.err == ""
    message = "eigensolver returned non-finite eigenvalues on the N=0 reduced block of sites [0, 1]"
    assert json.loads(captured.out)["error"] == {
        "code": "numerical_failure", "message": message, "details": [message]}


def test_non_finite_oracle_eigenvalue_is_a_numerical_failure(monkeypatch, capsys):
    # a NaN eigenvalue is refused at the solve that returned it, naming the
    # sector, rather than later as an overflow of beta * E
    eigh = np.linalg.eigh

    def spoiled_eigh(matrix):
        lam, vecs = eigh(matrix)
        lam[-1] = np.nan
        return lam, vecs

    monkeypatch.setattr(np.linalg, "eigh", spoiled_eigh)
    config = str(pathlib.Path(__file__).parent.parent / "configs" / "chain4_nn.json")
    assert run(["exact", config]) == EXIT_NUMERICAL
    message = "eigensolver returned non-finite eigenvalues on the N=6 sector"
    assert json.loads(capsys.readouterr().out)["error"] == {
        "code": "numerical_failure", "message": message, "details": [message]}


# --- unknown keys ----------------------------------------------------------------

_CHAIN4 = str(pathlib.Path(__file__).parent.parent / "configs" / "chain4_nn.json")

# one misspelt key per section: (command, --set values, the key, its nearest known key)
_MISSPELT = [
    ("exact", ["oracel={}"], "oracel", "oracle"),
    ("approx", ["model.bta=0.1"], "model.bta", "model.beta"),
    ("approx", ["model.coupling.d_C=1"], "model.coupling.d_C", "model.coupling.d_c"),
    ("approx", ["expansion.polymer_treshold=0.5"], "expansion.polymer_treshold",
     "expansion.polymer_threshold"),
    ("exact", ["oracle=null", "oracle.partitons=[[0,1]]"], "oracle.partitons",
     "oracle.partitions"),
    ("clustering", ["output.fromat=csv"], "output.fromat", "output.format"),
]


@pytest.mark.parametrize("command,settings,key,nearest", _MISSPELT,
                         ids=[case[2] for case in _MISSPELT])
def test_misspelt_key_is_refused_naming_its_nearest_known_key(command, settings, key, nearest,
                                                              monkeypatch, capsys):
    # each ran the model the key was meant to change, without a word
    monkeypatch.setattr(bosepoly.cli, "build_model", _no_model)
    assert run([command, _CHAIN4, *(arg for s in settings for arg in ("--set", s))]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err == ""
    error = json.loads(captured.out)["error"]
    assert error["code"] == "config_error"
    assert error["details"] == [f"{key} is not a known key; the nearest is {nearest}"]


def test_unknown_keys_come_first_and_null_reads_as_absent():
    config = _edit(base_config(), {"model.beta": _DELETE, "model.bta": 0.1, "extra": [1],
                                   "expansion.polymer_treshold": None})
    assert validate_config(config, "approx") == [
        "extra is not a known key; the nearest is expansion",
        "model.bta is not a known key; the nearest is model.beta",
        "model.beta is required",
    ]


def test_harness_shaped_config_validates():
    # the shape the benchmark harness writes: q_policy "explicit", workers 1,
    # and an oracle.q equal to expansion.q
    config = _edit(base_config(), {
        "model.U": [1.0, 1.1, 0.9, 1.0], "model.mu": [0.1, 0.2, 0.3, 0.4],
        "expansion": {"m": 4, "q": 2, "q_policy": "explicit", "workers": 1},
        "oracle": {"site": 0, "l_max": 4, "anchor": 0, "family": "hopping", "q": 2,
                   "partitions": [[0, 1]]},
    })
    for command in bosepoly.cli.COMMANDS:
        assert validate_config(config, command) == []


def test_only_an_unknown_key_loads_difflib(tmp_path):
    import os
    import subprocess
    import sys

    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(pathlib.Path(__file__).parent.parent / "src"),
                      os.environ.get("PYTHONPATH")])))
    script = ("import sys\nfrom bosepoly.cli import run\n"
              "print(run(sys.argv[1:]), 'difflib' in sys.modules, file=sys.stderr)")

    def loaded(*settings):
        argv = [sys.executable, "-c", script, "approx", _CHAIN4,
                "--set", f"output.path={tmp_path / 'out.json'}", *settings]
        return subprocess.run(argv, env=env, capture_output=True, text=True).stderr.split()

    assert loaded() == ["0", "False"]
    assert loaded("--set", "expansion.polymer_treshold=0.5") == ["2", "True"]


# --- the expansion's work cap --------------------------------------------------------


@pytest.mark.parametrize("dims,m,q,budget,message,details", [
    # 4,961 polymers, each support within the dimension cap, whose
    # eigensolves would take hours
    ("[4,4]", 6, 3, 1.0, "an eigensolve cost of 134079514211456 exceeds the cap 100000000000",
     ["required=134079514211456", "allowed=100000000000"]),
    # the cost waits for the enumeration of 48,144 polymers
    ("[3,5]", 9, 1, 10.0, "an eigensolve cost of 893078806766 exceeds the cap 100000000000",
     ["required=893078806766", "allowed=100000000000"]),
], ids=["4x4-q3-m6", "3x5-q1-m9"])
def test_approx_work_cap_refuses_before_any_solve(dims, m, q, budget, message, details,
                                                  monkeypatch, capsys):
    def no_solve(*args, **kwargs):
        raise AssertionError("a polymer was solved")

    monkeypatch.setattr(bosepoly.expansion, "restricted_log_partition", no_solve)
    start = time.perf_counter()
    code = run(["approx", _CHAIN4, "--set", f"model.dims={dims}", "--set", f"expansion.m={m}",
                "--set", f"expansion.q={q}"])
    elapsed = time.perf_counter() - start
    assert code == EXIT_RESOURCE
    error = json.loads(capsys.readouterr().out)["error"]
    assert error == {"code": "resource_cap", "message": message, "details": details}
    assert elapsed < budget, elapsed
