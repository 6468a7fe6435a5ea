"""One fresh benchmark process: a set-up sample or one CLI command.

    child.py setup CONFIG COMMAND          cold import + config + model
    child.py run [--spans PATH] ARGV...    one ``bosepoly.cli.run(ARGV)``

The parent starts this with BLAS and OpenMP pinned to one thread in the
environment, so the pinning holds before numpy is imported.  The result is
one JSON object on standard output; the CLI's own report is captured in
memory and returned inside it.
"""

import time

_START = time.perf_counter()

import contextlib  # noqa: E402
import ctypes  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def _openblas_threads():
    """(library path, thread count) of the OpenBLAS this process loaded."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None, None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return os.path.basename(path), fn()
    return None, None


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    library, threads = _openblas_threads()
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_library": library,
        "blas_threads": threads,
        "pinned": {
            name: os.environ.get(name)
            for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "bosepoly_workers_env": os.environ.get("BOSEPOLY_WORKERS"),
    }


def setup(config_path: str, command: str) -> dict:
    from bosepoly import cli

    config = cli.load_config(config_path)
    problems = cli.validate_config(config, command)
    if problems:
        raise SystemExit(f"generated config rejected: {problems}")
    cli.build_model(config)
    return {"setup_s": time.perf_counter() - _START}


def run(argv: list, spans_path: str | None) -> dict:
    from bosepoly import cli

    entry = cli.run
    recorder = None
    if spans_path:
        from spans import ROOT, Recorder

        recorder = Recorder()
        recorder.install()
        entry = recorder.wrap(ROOT, cli.run)
    report = io.StringIO()
    with contextlib.redirect_stdout(report):
        start = time.perf_counter()
        rc = entry(argv)
        wall_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if recorder is not None:
        recorder.dump(spans_path)
    return {
        "rc": rc,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "report": report.getvalue(),
        "env": environment(),
    }


def main() -> int:
    mode, rest = sys.argv[1], sys.argv[2:]
    if mode == "setup":
        out = setup(*rest)
    elif mode == "run":
        spans_path = None
        if rest[:1] == ["--spans"]:
            spans_path, rest = rest[1], rest[2:]
        out = run(rest, spans_path)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
