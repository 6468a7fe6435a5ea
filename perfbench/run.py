"""Layer-timed benchmark of the bosepoly CLI.

Run from the repository root:

    python3 perfbench/run.py --workload approx-chain-deep --seed 1 --seconds 56 --trace 0

Every measured sample is one fresh single-threaded process per CLI command
(``child.py``), because a CLI user pays every cold cost on every
invocation: imports, the process-global Ursell memo and the ``lru_cache``
on ``lattice.distance_matrix``.  BLAS and OpenMP are pinned to one thread
in the child's environment and every generated config sets
``expansion.workers = 1``.

``--trace 0`` repeats samples for ``--seconds`` seconds and reports the
end-to-end metrics.  ``--trace 1`` runs one untraced and one traced sample
and reports the per-layer metrics.  Every sample's output is checked; the
last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

from spans import PER_LAYER_UNITS, layer_metrics, merge, totals
from workloads import WORKLOADS, check, cli_argv, config_text, instance, load_reference, make_config

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
WORK_DIR = os.path.join(HERE, "_work")
PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUPS_PER_SAMPLE = 2
CHILD_TIMEOUT_S = 150
PROBE_LOOP = 200_000  # about 15 ms of pure Python
# Thread CPU time of one probe at the host's full speed (Intel Xeon, 2-vCPU
# KVM guest); a scale for reported times, the same on every commit.
REF_PROBE_S = 0.011

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}


def child_env() -> dict:
    env = dict(os.environ)
    for name in PINNED:
        env[name] = "1"
    env.pop("BOSEPOLY_WORKERS", None)
    env["PYTHONPATH"] = os.path.abspath("src")
    return env


class Launcher:
    """Starts each child on the CPU that currently runs fastest.

    On a shared host each CPU's speed drifts by up to 2x, for seconds to
    minutes, and the CPUs drift independently.  Before each child starts, a
    short fixed loop is timed on every CPU, and the child is started on the
    CPU where it ran fastest.  Probes measure thread CPU time, so sharing a
    CPU does not skew them.  ``probes`` keeps the probe time of each chosen
    CPU.  Only the affinity of the benchmark's own processes changes.
    """

    def __init__(self, env: dict):
        self.env = env
        self.cpus = sorted(os.sched_getaffinity(0))
        self.probes: list[float] = []

    def _probe(self, cpu: int) -> float:
        os.sched_setaffinity(0, {cpu})
        try:
            start = time.thread_time()
            total = 0
            for i in range(PROBE_LOOP):
                total += i * i
            took = time.thread_time() - start
        finally:
            os.sched_setaffinity(0, self.cpus)
        return took

    def spawn(self, args: list):
        """Run one child; returns (payload, None) or (None, problem)."""
        probes = {cpu: self._probe(cpu) for cpu in self.cpus}
        cpu = min(probes, key=probes.get)
        self.probes.append(probes[cpu])
        with tempfile.TemporaryFile(dir=WORK_DIR) as out, \
                tempfile.TemporaryFile(dir=WORK_DIR) as err:
            os.sched_setaffinity(0, {cpu})  # the child inherits it
            try:
                proc = subprocess.Popen(
                    [sys.executable, CHILD, *args], env=self.env, stdout=out, stderr=err
                )
            finally:
                os.sched_setaffinity(0, self.cpus)
            try:
                proc.wait(timeout=CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                return None, f"child exceeded {CHILD_TIMEOUT_S} s"
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
            out.seek(0)
            err.seek(0)
            stdout, stderr = out.read().decode(), err.read().decode()
        if proc.returncode != 0:
            tail = stderr.strip().splitlines()[-1:] or ["no stderr"]
            return None, f"child exit code {proc.returncode}: {tail[0]}"
        try:
            payload = json.loads(stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            return None, "child printed no result"
        return payload, None


def run_sample(wl, config_path: str, ref, launcher: Launcher,
               spans_dir: str | None = None) -> dict:
    """One execution of the workload's commands, gated for correctness."""
    wall_s, rss, docs, problems, env = 0.0, 0.0, [], [], None
    for k, command in enumerate(wl.commands):
        args = ["run"]
        if spans_dir:
            args += ["--spans", os.path.join(spans_dir, f"spans-{k}.json")]
        payload, problem = launcher.spawn(args + cli_argv(command, config_path))
        if problem is None and payload["rc"] != 0:
            problem = f"exit code {payload['rc']}: {payload['report'][:200]}"
        if problem is None:
            try:
                docs.append(json.loads(payload["report"]))
            except json.JSONDecodeError:
                problem = f"report is not JSON: {payload['report'][:200]!r}"
        if problem is not None:
            problems.append(f"{command[0]}: {problem}")
            break
        wall_s += payload["wall_s"]
        rss = max(rss, payload["peak_rss_mb"])
        env = payload["env"]
    abs_err = None
    if not problems:
        _passed, abs_err, gate_problems = check(wl, docs, ref)
        problems += gate_problems
    return {
        "passed": not problems,
        "wall_s": wall_s,
        "peak_rss_mb": rss,
        "abs_err": abs_err,
        "problems": problems,
        "env": env,
    }


def git_sha() -> str:
    if not os.path.isdir(".git"):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def median_of(samples: list, key: str) -> float:
    """Median over the samples that passed the gate; failed ones are left out."""
    return statistics.median(s[key] for s in samples if s["passed"])


def timed_run(wl, config_path: str, ref, launcher: Launcher, seconds: float):
    """Samples for ``seconds``; returns (samples, set-up times, host speed,
    metric values).  The values are empty if no sample passed."""
    # Set-up samples are spread between the measured samples, so that a slow
    # spell of the host does not hit all of them at once.
    setups, samples = [], []
    start = time.perf_counter()
    while True:
        lap = time.perf_counter()
        for _ in range(SETUPS_PER_SAMPLE):
            payload, problem = launcher.spawn(["setup", config_path, wl.commands[0][0]])
            if problem is not None:
                raise RuntimeError(f"set-up failed: {problem}")
            setups.append(payload["setup_s"])
        samples.append(run_sample(wl, config_path, ref, launcher))
        now = time.perf_counter()
        if now - start + (now - lap) > seconds:  # the next sample would end late
            break
    # The host's load drifts by 15-30% between runs minutes apart.  Times are
    # reported in seconds at the reference speed: divided by how much slower
    # the probe loop ran on the chosen CPUs in this run than REF_PROBE_S.
    slowdown = statistics.median(launcher.probes) / REF_PROBE_S
    if not any(s["passed"] for s in samples):
        return samples, setups, slowdown, {}
    values = {
        "wall_s": median_of(samples, "wall_s") / slowdown,
        "setup_s": statistics.median(setups) / slowdown,
        "peak_rss_mb": median_of(samples, "peak_rss_mb"),
    }
    return samples, setups, slowdown, values


def traced_run(wl, config_path: str, ref, launcher: Launcher, run_dir: str):
    """One untraced and one traced sample; returns (samples, metric values)."""
    for name in os.listdir(run_dir):
        if name.startswith("spans-"):
            os.remove(os.path.join(run_dir, name))
    samples = [run_sample(wl, config_path, ref, launcher)]
    samples.append(run_sample(wl, config_path, ref, launcher, spans_dir=run_dir))
    per_process = []
    for k in range(len(wl.commands)):
        path = os.path.join(run_dir, f"spans-{k}.json")
        if os.path.exists(path):
            with open(path) as fh:
                per_process.append(totals(json.load(fh)))
    values = layer_metrics(merge(per_process), samples[1]["wall_s"], samples[0]["wall_s"])
    return samples, values


def main() -> int:
    parser = argparse.ArgumentParser(description="Layer-timed benchmark of the bosepoly CLI")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join("src", "bosepoly", "cli.py")):
        print("error: run from the repository root (src/bosepoly not found)", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    try:
        ref = load_reference(wl, args.seed)
    except (OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: no usable reference for {wl.name} seed {args.seed}: {exc!r}",
              file=sys.stderr)
        return 2

    run_dir = os.path.join(WORK_DIR, f"{wl.name}-seed{args.seed}-trace{args.trace}")
    os.makedirs(run_dir, exist_ok=True)
    config_path = os.path.join(run_dir, "config.json")
    with open(config_path, "w") as fh:
        fh.write(config_text(make_config(wl, args.seed)))
    launcher = Launcher(child_env())
    record = {
        "workload": wl.name, "seed": args.seed, "instance": instance(args.seed),
        "trace": args.trace, "seconds": args.seconds, "git_sha": git_sha(),
        "nproc": os.cpu_count(), "loadavg_before": os.getloadavg(),
    }
    if args.trace:
        samples, values = traced_run(wl, config_path, ref, launcher, run_dir)
        units = PER_LAYER_UNITS
    else:
        try:
            samples, setups, slowdown, values = timed_run(
                wl, config_path, ref, launcher, args.seconds
            )
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        units = END_TO_END_UNITS
        record.update(setup_samples_s=setups, slowdown=slowdown)

    attempted = len(samples)
    failed = sum(not s["passed"] for s in samples)
    record.update({
        "loadavg_after": os.getloadavg(),
        "probe_s": {"best": min(launcher.probes), "median": statistics.median(launcher.probes),
                    "count": len(launcher.probes)},
        "env": next((s["env"] for s in samples if s["env"]), None),
        "samples": samples,
        "metrics": values,
    })
    with open(os.path.join(run_dir, "result.json"), "w") as fh:
        json.dump(record, fh, indent=1)

    env = record["env"] or {}
    print(
        f"env: git {record['git_sha']}, numpy {env.get('numpy')}, {env.get('blas')}, "
        f"blas threads {env.get('blas_threads')}, nproc {record['nproc']}, "
        f"loadavg {record['loadavg_before'][0]:.2f}"
    )
    for s in samples:
        for problem in s["problems"]:
            print(f"FAILED: {problem}")
    summary = [f"{wl.name} seed {args.seed} (instance {instance(args.seed)})"]
    walls = [s["wall_s"] for s in samples if s["passed"]]
    if walls and not args.trace:
        summary.append(
            f"wall_s {values['wall_s']:.4f} s at reference speed (host {slowdown:.2f}x "
            f"slower; measured median {statistics.median(walls):.4f} s of {len(walls)} "
            f"passing, min {min(walls):.4f}, max {max(walls):.4f})"
        )
        summary.append(
            f"setup_s {values['setup_s']:.4f} s at reference speed "
            f"(measured median {statistics.median(setups):.4f} s of {len(setups)})"
        )
        summary.append(f"peak_rss_mb {values['peak_rss_mb']:.1f} MiB")
    abs_errs = [s["abs_err"] for s in samples if s["passed"] and s["abs_err"] is not None]
    summary.append(
        f"abs_err {max(abs_errs):.3e}" if abs_errs else "abs_err n/a"
    )
    summary.append(f"error_rate {failed / attempted:.3f} ({failed}/{attempted})")
    print("; ".join(summary))
    # A run in which no sample passed has no measurement to report.
    metrics = {}
    if failed < attempted:
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if metrics else 1


if __name__ == "__main__":
    sys.exit(main())
