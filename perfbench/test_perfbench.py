"""Tests of the benchmark itself, on tiny inputs.

    python3 -m pytest perfbench -q        # from the repository root
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import run
import spans
import workloads
from workloads import POOL, WORKLOADS, check, config_text, load_reference, make_config, refs_path

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.mark.parametrize("trace,kind", [("0", "end_to_end"), ("1", "per_layer")])
@pytest.mark.parametrize("workload", ["smoke-approx", "smoke-validate"])
def test_every_metric_printed_with_its_unit(workload, trace, kind):
    result, text = result_of(
        bench("--workload", workload, "--seed", "5", "--seconds", "0.5", "--trace", trace)
    )
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in declared()[kind]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    summary = text[-1]
    assert "abs_err" in summary and "error_rate 0.000" in summary


def test_declared_workloads_exist():
    for workload in declared()["workloads"]:
        assert workload["name"] in WORKLOADS


def test_one_seed_generates_byte_identical_configs():
    code = (
        "import sys; sys.path.insert(0, 'perfbench');"
        "from workloads import WORKLOADS, make_config, config_text;"
        "print(''.join(config_text(make_config(w, 7)) for w in WORKLOADS.values()))"
    )
    outputs = {
        subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True,
            env=dict(os.environ, PYTHONHASHSEED=str(hash_seed)), check=True,
        ).stdout
        for hash_seed in (1, 2)
    }
    assert len(outputs) == 1
    for wl in WORKLOADS.values():
        assert config_text(make_config(wl, 7)) == config_text(make_config(wl, 7 + POOL))
        assert config_text(make_config(wl, 7)) != config_text(make_config(wl, 8))
        assert make_config(wl, 7)["expansion"]["workers"] == 1


@pytest.mark.parametrize("workload", ["smoke-approx", "smoke-validate"])
def test_self_times_sum_to_at_most_traced_wall(workload):
    result, _ = result_of(
        bench("--workload", workload, "--seed", "2", "--seconds", "0.5", "--trace", "1")
    )
    values = {name: m["value"] for name, m in result["metrics"].items()}
    self_total = sum(values[name] for name in spans.SELF_TIMES)
    assert 0 < self_total <= values["trace.wall_s"] + 1e-9
    assert values["weights.table_s"] >= values["weights.self_s"]
    assert values["polymers.polymer_count"] > 0 and values["fock.eigvalsh_calls"] > 0


def test_corrupted_reference_fails_the_run(tmp_path, monkeypatch, capsys):
    wl = WORKLOADS["smoke-approx"]
    with open(refs_path(wl)) as fh:
        refs = json.load(fh)
    refs["instances"]["4"]["log_z"] += 10 * wl.tol
    (tmp_path / "smoke-approx.json").write_text(json.dumps(refs))
    monkeypatch.setattr(workloads, "REFS_DIR", str(tmp_path))
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(sys, "argv", [
        "run.py", "--workload", wl.name, "--seed", "4", "--seconds", "0.5", "--trace", "0",
    ])
    assert run.main() != 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert result["metrics"] == {}  # no sample passed, so nothing was measured
    assert "error_rate 1.000" in lines[-2]
    assert any(line.startswith("FAILED:") for line in lines)


def test_failed_samples_are_left_out_of_medians():
    samples = [
        {"passed": True, "wall_s": 2.0},
        {"passed": False, "wall_s": 0.1},
        {"passed": True, "wall_s": 4.0},
    ]
    assert run.median_of(samples, "wall_s") == 3.0


def test_stored_reference_gate_catches_a_changed_row():
    wl = WORKLOADS["approx-square-wide"]
    ref = load_reference(wl, 0)
    doc = {"result": {"per_order": [{"contribution": c} for c in ref["per_order"]]}}
    assert check(wl, [doc], ref)[0]
    doc["result"]["per_order"][-1]["contribution"] += 10 * wl.tol
    assert not check(wl, [doc], ref)[0]
    doc["result"]["per_order"].pop()
    assert not check(wl, [doc], ref)[0]


def test_validate_gate_catches_a_changed_compare_row():
    wl = WORKLOADS["validate-2x4"]
    ref = load_reference(wl, 0)
    log_z = ref["oracle_log_z_q"]

    def docs(f_betas):
        rows = [
            {"m": m, "f_beta": f, "oracle_log_z_q": log_z, "abs_error": abs(f - log_z),
             "m_error_bound": 10.0}
            for m, f in enumerate(f_betas, start=1)
        ]
        exact = {"log_z": log_z, "mutual_information": [{"mutual_information": 0.1}],
                 "occupation_distribution": {"p": [0.25, 0.75]}}
        return [{"result": {"rows": rows}}, {"result": exact},
                {"result": {"rows": [{}] * 7}}]

    want = ref["f_beta_by_m"]
    assert check(wl, docs(want), ref)[0]
    changed = list(want)
    changed[1] += 10 * wl.tol
    assert not check(wl, docs(changed), ref)[0]
    assert not check(wl, docs([want[-1]] * len(want)), ref)[0]  # one value for every m
    assert not check(wl, docs(want[:-1]), ref)[0]


def test_every_seed_has_a_reference():
    for wl in WORKLOADS.values():
        for seed in range(POOL):
            assert load_reference(wl, seed) is not None


def test_missing_layer_function_reads_zero(monkeypatch):
    monkeypatch.setattr(
        spans, "TARGETS", (("json", "no_such_function", "polymers.clusters", None),)
    )
    recorder = spans.Recorder()
    assert recorder.install() == []
    values = spans.layer_metrics(spans.merge([]), 1.0, 1.0)
    assert values["polymers.cluster_count"] == 0 and values["ursell.calls"] == 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = bench("--workload", "approx-chain-deep", "--seed", "1", "--seconds", "1",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
