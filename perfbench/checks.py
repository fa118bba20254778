"""Output checks: each turns a wrong answer into a failed operation.

The tolerances are the ones the package's own ``verify`` suite uses for the
same identities (``bound_anchor_concentric`` 1e-9, ``ds_bound_anchor_concentric``
1e-10, ``solver_concentric_oracle`` / ``solver_tau_concentric`` 1e-8,
``solver_below_rayleigh_bound`` 1e-8).  Every function returns a list of
failure messages; an empty list means the output is correct.
"""

from __future__ import annotations

import math

import numpy as np

from steklov_shell import shell_spectrum

BOUND_ANCHOR_TOL = {"steklov": 1e-9, "dirichlet-steklov": 1e-10}
SOLVER_ANCHOR_TOL = 1e-8
SOLVER_ABOVE_BOUND_TOL = 1e-8
VERIFY_FAST_CHECKS = 52


def concentric_value(n: int, a: float, problem: str) -> float:
    """sigma_1 (steklov) or tau_0 (dirichlet-steklov) of the concentric shell."""
    if problem == "steklov":
        return shell_spectrum.sigma1_closed_form(n, a)
    return 1.0 / math.log(1.0 / a) if n == 2 else (n - 2) / (a ** (2 - n) - 1.0)


def parse_csv(text: str) -> tuple[list[str], list[list[float]]]:
    """Column names and numeric rows of a CLI CSV, manifest comments dropped."""
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    if not lines:
        return [], []
    return lines[0].split(","), [[float(v) for v in ln.split(",")] for ln in lines[1:]]


def sweep_failures(
    text: str, rc: int, *, n: int, a: float, problem: str, d_steps: int, solver: bool
) -> list[str]:
    """Checks on one offset-sweep CSV (``sweep --format csv``)."""
    if rc != 0:
        return [f"exit code {rc}"]
    try:
        columns, rows = parse_csv(text)
    except ValueError as exc:
        return [f"unparsable CSV: {exc}"]
    expected = ["d", "bound", "solver_value", "closed_form"] if solver else ["d", "bound", "closed_form"]
    if columns != expected:
        return [f"columns {columns} != {expected}"]
    if len(rows) != d_steps:
        return [f"{len(rows)} rows, expected {d_steps}"]
    table = np.asarray(rows)
    d, bound, closed = table[:, 0], table[:, 1], table[:, -1]
    exact = concentric_value(n, a, problem)
    out = []
    if not np.all(np.isfinite(table)):
        out.append("non-finite value")
    if not np.array_equal(d, np.linspace(0.0, 0.95 * (1.0 - a), d_steps)):
        out.append("d column differs from the default offset grid")
    if not np.all(closed == exact):
        out.append("closed_form column differs from the concentric value")
    if abs(bound[0] - exact) > BOUND_ANCHOR_TOL[problem]:
        out.append(f"bound at d=0 off the closed form by {abs(bound[0] - exact):.3g}")
    if d_steps > 1 and not np.all(np.diff(bound) < 0.0):
        out.append("bound not strictly decreasing in d")
    if solver:
        sol = table[:, 2]
        if abs(sol[0] - exact) > SOLVER_ANCHOR_TOL:
            out.append(f"solver at d=0 off the closed form by {abs(sol[0] - exact):.3g}")
        if np.max(sol - bound) > SOLVER_ABOVE_BOUND_TOL:
            out.append(f"solver above the bound by {np.max(sol - bound):.3g}")
        if d_steps > 1 and not np.all(np.diff(sol) < 0.0):
            out.append("solver value not strictly decreasing in d")
    return out


def verify_failures(text: str, rc: int) -> tuple[int, list[str]]:
    """Failed check count (out of 52) and messages for one ``verify --level fast`` report.

    A FAIL line or a missing check line is one failed check; a nonzero exit or
    a wrong trailer fails at least one.
    """
    lines = text.splitlines()
    checks, trailer = lines[:-1], lines[-1] if lines else ""
    bad = [ln for ln in checks if not ln.startswith("PASS ")]
    failed = len(bad) + max(0, VERIFY_FAST_CHECKS - len(checks))
    msgs = [f"verify line: {ln}" for ln in bad]
    if len(checks) != VERIFY_FAST_CHECKS:
        msgs.append(f"{len(checks)} check lines, expected {VERIFY_FAST_CHECKS}")
    if rc != 0 or trailer != f"checks={VERIFY_FAST_CHECKS} failures=0":
        msgs.append(f"exit code {rc}, trailer {trailer!r}")
        failed = max(failed, 1)
    return min(failed, VERIFY_FAST_CHECKS), msgs
