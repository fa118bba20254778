"""One workload in a fresh interpreter; prints its record as one JSON line.

    python3 perfbench/worker.py setup
    python3 perfbench/worker.py run --workload NAME --seed N [--seconds S]
        [--min-passes K] [--serial] [--trace] [--residual]

``setup`` times what every CLI invocation pays before its first result:
importing ``steklov_shell.cli``, then the first ``steklov_bound`` and the
first ``solve_steklov`` call (the lazy Legendre-rule cache, BLAS start-up).

``run`` draws the workload's inputs from the seed and repeats timed passes
over them, stopping at the pass boundary nearest to ``--seconds`` once
``--min-passes`` passes have run.  ``--serial`` appends ``--jobs 1`` to every sweep;
``--trace`` installs the spans of ``tracer.py`` first.  The package is
imported from ``src/`` of the checkout that holds this file, never from
anywhere else.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import_package():
    sys.path.insert(0, str(SRC))
    import steklov_shell

    if Path(steklov_shell.__file__).resolve().parent != SRC / "steklov_shell":
        raise SystemExit(f"steklov_shell imported from {steklov_shell.__file__}, not from {SRC}")


def setup() -> dict:
    t0 = time.perf_counter()
    _import_package()
    from steklov_shell import cli, rayleigh, solver  # noqa: F401  (cli is the import being timed)
    from steklov_shell.geometry import ShellConfig

    rayleigh.steklov_bound(ShellConfig(3, 0.5, 0.25))
    solver.solve_steklov(ShellConfig(2, 0.5, 0.25))
    return {"setup_s": time.perf_counter() - t0}


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        nproc = int(subprocess.run(["nproc"], capture_output=True, text=True, check=True).stdout)
    except (OSError, subprocess.CalledProcessError, ValueError):
        nproc = len(os.sched_getaffinity(0))
    return {
        "nproc": nproc,
        "os_cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        **{var: os.environ.get(var) for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def run(args) -> dict:
    _import_package()
    import tracer
    import workloads

    inputs = workloads.make_inputs(args.workload, args.seed)
    uses_pool = args.workload == "planar_sweep"
    extra = ["--jobs", "1"] if args.serial and uses_pool else []
    spans = None
    if args.trace:
        spans = tracer.Tracer()
        spans.install()

    passes = []
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    while True:
        passes.append(workloads.run_pass(args.workload, inputs, extra))
        # Stop at the pass boundary nearest to --seconds, after at least --min-passes.
        elapsed = time.perf_counter() - t0
        if len(passes) >= args.min_passes and elapsed + 0.5 * elapsed / len(passes) >= args.seconds:
            break
    cpu = _cpu_s() - cpu0
    rss = _peak_rss_mb()
    layers = spans.metrics() if spans else None

    for p in passes:
        workloads.check_pass(args.workload, inputs, p)
    for p in passes[1:]:
        workloads.mark_changed_outputs(passes[0], p)

    rows = passes[0].rows
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "uses_pool": uses_pool,
        "cli_extra_argv": extra,
        "traced": bool(args.trace),
        "inputs": inputs,
        "rows_per_pass": rows,
        "pass_wall_s": [p.wall_s for p in passes],
        "output_sha256": [p.sha256() for p in passes],
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "failures": [msg for p in passes for op in p.failures for msg in op][:20],
        "cpu_ms_per_row": 1e3 * cpu / (rows * len(passes)),
        "peak_rss_mb": rss,
        "environment": environment(),
    }
    if layers is not None:
        record["layers"] = layers
    if args.residual:
        record["solver_max_residual"] = workloads.solver_max_residual()
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    sub.add_parser("setup")
    p = sub.add_parser("run")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--min-passes", type=int, default=1)
    p.add_argument("--serial", action="store_true")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--residual", action="store_true")
    args = parser.parse_args(argv)
    record = setup() if args.mode == "setup" else run(args)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
