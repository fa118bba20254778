"""The two seeded workloads: input generation, one timed pass, output checks.

Every workload drives the package through ``cli.main`` with the argv a user
would type.  The seed draws the inputs; the program sees only the drawn
inputs.

Why these two (between them they reach every layer):

* ``planar_sweep`` -- planar sweeps with the solver column at default flags
  (``--jobs 0``, order 24, 512 points, 21 offsets).  About 95% of the serial
  time is in ``solver``; every seed has a small hole, where the order
  fallback steps down; it runs the process-pool path users get, where BLAS
  threads oversubscribe the cores.
* ``verify_fast`` -- ``verify --level fast`` (52 checks, serial): the
  acceptance run, and the only workload where ``verify``, ``shell_spectrum``
  and ``special`` do measurable work.  Its bound checks also drive
  ``rayleigh``, ``quadrature`` and ``geometry`` without the solver.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
import time
from dataclasses import dataclass, field

import numpy as np

from steklov_shell import cli, solver
from steklov_shell.geometry import ShellConfig

import checks

PROBLEMS = ("steklov", "dirichlet-steklov")

PLANAR_RADIUS_RANGES = ((0.15, 0.35), (0.40, 0.60), (0.65, 0.85))
PLANAR_D_STEPS = 21  # the CLI default, which the workload does not pass

# Fixed accuracy grid for solver_max_residual: the smallest hole planar_sweep
# draws, where the solver residual is largest (0.27 at a = 0.15, falling to
# 0.06 at a = 0.35 and below 0.05 in the other ranges).  It is fixed rather
# than seeded because that fivefold variation would drown any change a later
# commit makes to the residual.
RESIDUAL_RADIUS = PLANAR_RADIUS_RANGES[0][0]


@dataclass
class PassResult:
    """One timed pass: wall time and per-operation outputs, then their checks.

    status holds each operation's exit code.
    """

    wall_s: float
    rows: int
    outputs: list[str]
    status: list
    attempted: int = 0
    failed: int = 0
    failures: list[list[str]] = field(default_factory=list)  # per operation, set by check_pass

    def sha256(self) -> str:
        h = hashlib.sha256()
        for out in self.outputs:
            h.update(out.encode("utf-8"))
            h.update(b"\0")
        return h.hexdigest()


def make_inputs(workload: str, seed: int) -> dict:
    """Draw a workload's inputs from its seed; the same seed gives the same inputs.

    The draws are stratified, one radius from each range, so that every seed
    gets the same mix of cheap and costly inputs.
    """
    rng = random.Random(f"{workload}:{seed}")
    if workload == "planar_sweep":
        return {"a": [round(rng.uniform(lo, hi), 4) for lo, hi in PLANAR_RADIUS_RANGES]}
    if workload == "verify_fast":
        return {}
    raise ValueError(f"unknown workload {workload!r}")


def sweep_specs(inputs: dict) -> list[dict]:
    """One spec per planar CLI sweep: its argv and what the checks expect of its CSV."""
    return [
        {"n": 2, "a": a, "problem": problem, "d_steps": PLANAR_D_STEPS, "solver": True,
         "argv": ["sweep", "--dim", "2", "--problem", problem, "--a", repr(a), "--format", "csv"]}
        for a in inputs["a"]
        for problem in PROBLEMS
    ]


def call_cli(argv: list[str]) -> tuple[int, str]:
    """``cli.main(argv)`` with its standard output captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def _sweep_pass(inputs: dict, extra_argv: list[str]) -> PassResult:
    specs = sweep_specs(inputs)
    results = []
    t0 = time.perf_counter()
    for spec in specs:
        results.append(call_cli(spec["argv"] + extra_argv))
    wall = time.perf_counter() - t0
    return PassResult(wall_s=wall, rows=sum(s["d_steps"] for s in specs),
                      outputs=[text for _, text in results], status=[rc for rc, _ in results],
                      attempted=len(specs))


def _verify_pass(extra_argv: list[str]) -> PassResult:
    t0 = time.perf_counter()
    rc, text = call_cli(["verify", "--level", "fast"] + extra_argv)
    wall = time.perf_counter() - t0
    return PassResult(wall_s=wall, rows=checks.VERIFY_FAST_CHECKS, outputs=[text], status=[rc],
                      attempted=checks.VERIFY_FAST_CHECKS)


def run_pass(workload: str, inputs: dict, extra_argv: list[str] = ()) -> PassResult:
    """Run one timed pass of a workload; check_pass checks it afterwards.

    extra_argv is appended to every CLI call: ``--jobs 1`` for the serial
    comparison pass, or ``--inject-fault w2-sign`` to show the gate bites.
    """
    extra = list(extra_argv)
    if workload == "planar_sweep":
        return _sweep_pass(inputs, extra)
    if workload == "verify_fast":
        return _verify_pass(extra)
    raise ValueError(f"unknown workload {workload!r}")


def check_pass(workload: str, inputs: dict, result: PassResult) -> None:
    """Check a pass's outputs; sets result.failures and result.failed."""
    if workload == "planar_sweep":
        result.failures = [
            checks.sweep_failures(text, rc, n=s["n"], a=s["a"], problem=s["problem"],
                                  d_steps=s["d_steps"], solver=s["solver"])
            for s, text, rc in zip(sweep_specs(inputs), result.outputs, result.status)
        ]
    else:
        failed, msgs = checks.verify_failures(result.outputs[0], result.status[0])
        result.failures, result.failed = [msgs], failed
        return
    result.failed = sum(1 for f in result.failures if f)


def mark_changed_outputs(first: PassResult, later: PassResult) -> None:
    """Fail every operation whose output differs from the first pass's.

    Repeated identical invocations must be byte-identical.
    """
    for i, (a, b) in enumerate(zip(first.outputs, later.outputs)):
        if a != b:
            if not later.failures[i]:
                later.failed += 1
            later.failures[i].append("output differs from the first pass")


def solver_max_residual() -> float:
    """Worst solver residual over the fixed planar grid, by the CLI rows' own call."""
    a = RESIDUAL_RADIUS
    return max(
        solver.solve_with_order_fallback(ShellConfig(2, a, float(d)), N=24, m=512, problem=problem).residual
        for d in np.linspace(0.0, 0.95 * (1.0 - a), PLANAR_D_STEPS)
        for problem in PROBLEMS
    )
