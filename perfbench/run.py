"""Benchmark entry point: one workload, one seed, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads, metric names, units and bounds
come from ``BENCHMARK.json``; the workloads themselves are described in
``perfbench/workloads.py``.  Every workload runs in its own fresh
interpreter (``perfbench/worker.py``), with the BLAS/OpenMP thread variables
and ``--jobs`` left at what users get.

``--trace 0`` times five fresh set-ups, then repeats passes of the
workload for about ``--seconds`` (at least two passes, whose outputs must be
byte-identical, and three on ``planar_sweep``), and prints the end-to-end
metrics.  ``--trace 1`` runs one untraced pass at default flags, one
untraced ``--jobs 1`` pass (``planar_sweep`` only), and one traced pass
(``--jobs 1`` on ``planar_sweep``, since forked pool workers return no
spans), checks that all three outputs are byte-identical, and prints the
per-layer metrics.

Output: one ``name = value unit`` line per metric, a ``# record:`` JSON line
with the drawn inputs, output sha256 and environment, and as the last line
``{"correct", "attempted", "failed", "metrics"}``.  Exit 0 when the workload
ran, whether or not its outputs were correct; exit 1 if a worker crashed or
overran; exit 2 when the checkout lacks the package or ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_SAMPLES = 5
# At least two passes, so that repeated outputs can be compared byte for
# byte; three on planar_sweep, whose pool passes alone vary by a third.
MIN_PASSES = {"planar_sweep": 3}
DEADLINE_S = 170.0  # every run must end within 180 s


class WorkerError(RuntimeError):
    pass


def spawn(args: list[str], deadline: float) -> dict:
    """Run the worker in a fresh interpreter and return its JSON record.

    The worker gets its own process group, so a timeout also kills any pool
    workers it forked; every process is waited for before returning.
    """
    proc = subprocess.Popen([sys.executable, str(WORKER), *args], cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except BaseException as exc:  # the deadline, or this process being stopped
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise WorkerError(f"worker {' '.join(args)} overran the deadline") from None
        raise
    if proc.returncode != 0:
        raise WorkerError(f"worker {' '.join(args)} exited {proc.returncode}:\n{err[-4000:]}")
    try:
        return json.loads(out.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise WorkerError(f"worker {' '.join(args)} printed no record:\n{err[-4000:]}") from None


def end_to_end(workload: str, seed: int, seconds: float, deadline: float) -> tuple[dict, dict]:
    setups = [spawn(["setup"], deadline)["setup_s"] for _ in range(SETUP_SAMPLES)]
    rec = spawn(["run", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                 "--min-passes", str(MIN_PASSES.get(workload, 2)), "--residual"], deadline)
    rows = rec["rows_per_pass"]
    metrics = {
        "rows_per_s": statistics.median(rows / w for w in rec["pass_wall_s"]),
        "cpu_ms_per_row": rec["cpu_ms_per_row"],
        "peak_rss_mb": rec["peak_rss_mb"],
        "ok_ops_ratio": 1.0 - rec["failed"] / rec["attempted"],
        "solver_max_residual": rec["solver_max_residual"],
        "setup_s": statistics.median(setups),
    }
    rec["setup_s_samples"] = setups
    return metrics, rec


def per_layer(workload: str, seed: int, deadline: float, names: list[str]) -> tuple[dict, dict]:
    base_args = ["run", "--workload", workload, "--seed", str(seed)]
    runs = {"untraced": spawn(base_args, deadline)}
    if runs["untraced"]["uses_pool"]:
        runs["untraced_serial"] = spawn(base_args + ["--serial"], deadline)
    runs["traced"] = spawn(base_args + ["--serial", "--trace"], deadline)
    # Without a pool, the default path is the serial one.
    base_wall, serial_wall, traced_wall = (
        runs.get(k, runs["untraced"])["pass_wall_s"][0] for k in ("untraced", "untraced_serial", "traced")
    )
    layers = dict.fromkeys(names, 0)
    layers.update({k: v for k, v in runs["traced"]["layers"].items() if k in layers})
    layers["cli.pool_speedup"] = serial_wall / base_wall
    layers["trace.overhead_ratio"] = traced_wall / serial_wall

    rec = {"inputs": runs["untraced"]["inputs"], "attempted": sum(r["attempted"] for r in runs.values()),
           "failed": sum(r["failed"] for r in runs.values()), "failures": []}
    rec.update({label: {k: v for k, v in r.items() if k != "inputs"} for label, r in runs.items()})
    if len({r["output_sha256"][0] for r in runs.values()}) != 1:
        rec["attempted"] += 1
        rec["failed"] += 1
        rec["failures"].append("traced or serial output differs from the untraced output")
    return layers, rec


def main(argv=None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "steklov_shell" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} holds no src/steklov_shell package or no BENCHMARK.json", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # On SIGTERM, unwind through spawn() so the worker's process group is killed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    deadline = time.monotonic() + DEADLINE_S
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    try:
        if args.trace:
            values, rec = per_layer(args.workload, args.seed, deadline, [m["name"] for m in declared])
        else:
            values, rec = end_to_end(args.workload, args.seed, args.seconds, deadline)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    for name, m in metrics.items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    print(f"failed_ops_ratio = {rec['failed'] / rec['attempted']!r} ratio "
          f"({rec['failed']} failed of {rec['attempted']} attempted)")
    print("# record: " + json.dumps(rec))
    print(json.dumps({"correct": rec["failed"] == 0, "attempted": rec["attempted"],
                      "failed": rec["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
