"""Command-line front end: spectra, bounds, solver runs, sweeps, verification.

Output contract: CSV is UTF-8 with LF line endings, a ``# manifest:`` comment
header carrying everything needed to reproduce the run (command, parameters,
tool version, tolerances), lowercase snake_case column names, and 17
significant digits.  Repeated identical invocations produce byte-identical
output, so the manifest carries no wall-clock fields; the human-readable
table format shows the timestamp instead.

Exit codes: 0 success, 1 internal error or failed verification, 2 usage or
validation error, 3 numerical failure (non-convergence, including a failed
eigensolve, and floating-point overflow).  ``solve`` and the sweep's solver
column run the same direct solve, which never refuses a basis order for its
conditioning: the printed residual is the convergence diagnostic.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from datetime import datetime, timezone

import numpy as np

from . import __version__, rayleigh, shell_spectrum, solver, verify
from .errors import NonConvergenceError
from .geometry import ShellConfig
from .quadrature import MIN_TOL, QUAD_TOL


def _fmt(x: float) -> str:
    return f"{x:.17g}"


@dataclass(frozen=True)
class RunManifest:
    """Reproducibility header for one invocation."""

    command: str
    parameters: dict
    tool_version: str = __version__
    tolerances: dict = field(default_factory=dict)
    timestamp: str = ""

    @classmethod
    def create(cls, command: str, parameters: dict, tolerances: dict) -> "RunManifest":
        return cls(
            command=command,
            parameters=dict(parameters),
            tolerances=dict(tolerances),
            timestamp=datetime.now(timezone.utc).isoformat(timespec="seconds"),
        )

    def _kv(self, mapping: dict) -> str:
        return " ".join(f"{k}={mapping[k]}" for k in sorted(mapping))

    def csv_header(self) -> list[str]:
        # Deterministic fields only: repeated identical runs must be
        # byte-identical, so the timestamp stays out of machine output.
        return [
            f"# manifest: command={self.command}",
            f"# manifest: parameters: {self._kv(self.parameters)}",
            f"# manifest: tool_version={self.tool_version}",
            f"# manifest: tolerances: {self._kv(self.tolerances)}",
        ]

    def table_header(self) -> list[str]:
        return self.csv_header() + [f"# manifest: timestamp={self.timestamp}"]


def _emit(lines: list[str], out_path: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _csv_rows(header: list[str], columns: list[str], rows, footer: list[str] = ()) -> list[str]:
    lines = list(header)
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row))
    lines.extend(footer)
    return lines


def _table_rows(header: list[str], columns: list[str], rows, footer: list[str] = ()) -> list[str]:
    str_rows = [
        [_fmt(v) if isinstance(v, float) else str(v) for v in row] for row in rows
    ]
    widths = [
        max(len(columns[j]), max((len(r[j]) for r in str_rows), default=0))
        for j in range(len(columns))
    ]
    lines = list(header)
    lines.append("  ".join(c.ljust(w) for c, w in zip(columns, widths)))
    for r in str_rows:
        lines.append("  ".join(v.ljust(w) for v, w in zip(r, widths)))
    lines.extend(footer)
    return lines


def _render(args, manifest, columns, rows, footer=()) -> list[str]:
    if args.format == "csv":
        return _csv_rows(manifest.csv_header(), columns, rows, footer)
    return _table_rows(manifest.table_header(), columns, rows, footer)


def _tolerances(tol: float = QUAD_TOL) -> dict:
    return {"quad_abs": tol, "quad_rel": tol}


# ----------------------------------------------------------------------
# subcommands


def cmd_spectrum(args) -> int:
    entries = shell_spectrum.spectrum(args.dim, args.a, args.kmax)
    manifest = RunManifest.create(
        "spectrum", {"dim": args.dim, "a": args.a, "kmax": args.kmax}, _tolerances()
    )
    rows = [(e.value, e.k, e.branch, e.multiplicity) for e in entries]
    complete = shell_spectrum.spectrum_complete_below(args.dim, args.a, args.kmax)
    footer = [f"# complete_below={_fmt(complete)}"]
    _emit(_render(args, manifest, ["value", "k", "branch", "multiplicity"], rows, footer), args.out)
    return 0


def cmd_bound(args) -> int:
    cfg = ShellConfig(args.dim, args.a, args.d)
    manifest = RunManifest.create(
        "bound",
        {"dim": args.dim, "a": args.a, "d": args.d, "problem": args.problem},
        _tolerances(args.tol),
    )
    if args.problem == "steklov":
        b = rayleigh.steklov_bound(cfg, tol=args.tol)
        fields = [
            ("mu", b.mu),
            ("w1", b.W1),
            ("w2", b.W2),
            ("w3", b.W3),
            ("v1", b.V1),
            ("v2", b.V2),
            ("v3", b.V3),
            ("i_n", b.In),
            ("inner_mass", b.inner_mass),
            ("energy", b.energy),
            ("boundary_mass", b.boundary_mass),
            ("bound", b.bound),
            ("sigma1_concentric", shell_spectrum.sigma1_closed_form(cfg.n, cfg.a)),
        ]
    else:
        energy = rayleigh.ds_energy(cfg, tol=args.tol)
        mass = rayleigh.ds_boundary_mass(cfg, tol=args.tol)
        fields = [
            ("energy", energy),
            ("boundary_mass", mass),
            ("bound", energy / mass),
            ("tau1_concentric", shell_spectrum.tau1_closed_form(cfg.n, cfg.a)),
        ]
    if args.format == "csv":
        columns = [name for name, _ in fields]
        rows = [tuple(val for _, val in fields)]
        _emit(_csv_rows(manifest.csv_header(), columns, rows), args.out)
    else:
        rows = [(name, val) for name, val in fields]
        _emit(_table_rows(manifest.table_header(), ["field", "value"], rows), args.out)
    return 0


def cmd_solve(args) -> int:
    cfg = ShellConfig(2, args.a, args.d)
    params = {"a": args.a, "d": args.d, "order": args.order, "points": args.points,
              "problem": args.problem}
    manifest = RunManifest.create("solve", params, _tolerances())
    res = _solve(args.problem, cfg, args.order, args.points)
    label = "sigma1" if args.problem == "steklov" else "tau1"
    groups = solver.group_eigenvalues(res.eigenvalues[:12])
    footer = [
        f"# {label}={_fmt(res.principal)}",
        f"# residual={_fmt(res.residual)}",
        f"# gram_condition={_fmt(res.gram_condition)}",
    ]
    rows = [(val, mult) for val, mult in groups]
    _emit(_render(args, manifest, ["eigenvalue", "multiplicity"], rows, footer), args.out)
    return 0


def _solve(problem: str, cfg: ShellConfig, order: int, points: int) -> solver.EigResult:
    """The direct solve of problem, looked up on ``solver`` when called."""
    solve = solver.solve_steklov if problem == "steklov" else solver.solve_dirichlet_steklov
    return solve(cfg, N=order, m=points)


def _sweep_point(task) -> tuple:
    """One offset-sweep row; top-level so the process pool can pickle it."""
    problem, n, a, d, use_solver, order, points, tol = task
    cfg = ShellConfig(n, a, d)
    if problem == "steklov":
        bound = rayleigh.steklov_bound(cfg, tol=tol).bound
        closed = shell_spectrum.sigma1_closed_form(n, a)
    else:
        bound = rayleigh.ds_bound(cfg, tol=tol)
        closed = shell_spectrum.tau1_closed_form(n, a)
    if use_solver:
        return (d, bound, _solve(problem, cfg, order, points).principal, closed)
    return (d, bound, closed)


def _run_pool(fn, tasks, jobs: int):
    # jobs 0 means all cores.  The pool forks all its workers up front, so
    # more than one per task or per core would only cost processes.  They
    # fork on one BLAS thread and inherit it, so they never start OpenBLAS's
    # thread server (see the solver module's docstring).
    cpus = os.cpu_count() or 1
    workers = min(jobs or cpus, len(tasks), cpus)
    with solver._one_blas_thread():
        if workers <= 1:
            return [fn(t) for t in tasks]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, tasks))


def cmd_sweep(args) -> int:
    params = {"dim": args.dim, "problem": args.problem}

    if args.problem == "ratio":
        if args.tol != QUAD_TOL:
            raise ValueError("--tol does not apply: the ratio sweep integrates nothing")
        if args.eps_steps < 1:
            raise ValueError("eps sweep needs at least one grid point")
        eps_grid = np.linspace(0.0, 0.99, args.eps_steps).tolist()
        rows = [(e, shell_spectrum.scale_invariant(args.dim, e)) for e in eps_grid]
        eps_star, value = shell_spectrum.optimal_eps(args.dim)
        params["eps_steps"] = args.eps_steps
        manifest = RunManifest.create("sweep", params, _tolerances())
        footer = [f"# eps_star={_fmt(eps_star)}", f"# value_at_eps_star={_fmt(value)}"]
        _emit(_render(args, manifest, ["eps", "normalized_value"], rows, footer), args.out)
        return 0

    if args.d_steps < 1:
        raise ValueError("offset sweep needs at least one grid point")
    a = args.a
    use_solver = args.dim == 2 and not args.no_solver
    d_max = args.d_max if args.d_max is not None else 0.95 * (1.0 - a)
    cfg0 = ShellConfig(args.dim, a, 0.0)
    if not 0.0 <= d_max < 1.0 - a:
        raise ValueError("sweep offset cap must lie in [0, 1 - a)")
    if use_solver:
        solver.validate_problem_size(cfg0, args.order, args.points)
    d_grid = np.linspace(0.0, d_max, args.d_steps)
    tasks = [
        (args.problem, args.dim, a, float(d), use_solver, args.order, args.points, args.tol)
        for d in d_grid
    ]
    rows = _run_pool(_sweep_point, tasks, args.jobs)
    params.update({"a": a, "d_steps": args.d_steps, "d_max": d_max, "solver": use_solver})
    if use_solver:
        params.update({"order": args.order, "points": args.points})
        columns = ["d", "bound", "solver_value", "closed_form"]
    else:
        columns = ["d", "bound", "closed_form"]
    manifest = RunManifest.create("sweep", params, _tolerances(args.tol))
    _emit(_render(args, manifest, columns, rows), args.out)
    return 0


def cmd_verify(args) -> int:
    results = verify.run_checks(
        args.level, inject_fault=args.inject_fault, name_filter=args.checks
    )
    _emit(verify.format_report(results).splitlines(), args.out)
    return 0 if all(r.passed for r in results) else 1


# ----------------------------------------------------------------------


def _option(*flags, **kwargs) -> argparse.ArgumentParser:
    """A parent parser holding one option, for the subcommands that read it."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(*flags, **kwargs)
    return parent


def build_parser() -> argparse.ArgumentParser:
    fmt = _option("--format", choices=("table", "csv"), default="table")
    out = _option("--out", metavar="PATH", default=None)
    jobs = _option("--jobs", type=int, default=0, metavar="K",
                   help="worker processes for offset sweeps (0 = all cores)")
    tol = _option("--tol", type=float, default=QUAD_TOL,
                  help="quadrature tolerance per integral")

    parser = argparse.ArgumentParser(
        prog="steklov-shell",
        description="Steklov spectra of spherical shells: exact values, bounds, solver, sweeps.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", parents=[fmt, out],
                       help="exact concentric-shell spectrum")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--kmax", type=int, default=shell_spectrum.DEFAULT_K_MAX)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("bound", parents=[fmt, out, tol],
                       help="Rayleigh upper bound with its full breakdown")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--d", type=float, required=True)
    p.add_argument("--problem", choices=("steklov", "dirichlet-steklov"), default="steklov")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("solve", parents=[fmt, out],
                       help="planar boundary-Galerkin eigensolver")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--d", type=float, required=True)
    p.add_argument("--order", type=int, default=solver.DEFAULT_ORDER)
    p.add_argument("--points", type=int, default=solver.DEFAULT_POINTS)
    p.add_argument("--problem", choices=("steklov", "dirichlet-steklov"), default="steklov")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("sweep", parents=[fmt, out, jobs, tol],
                       help="offset or hole-ratio sweeps to CSV")
    p.add_argument("--problem", choices=("steklov", "dirichlet-steklov", "ratio"),
                   required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--a", type=float, default=0.5)
    p.add_argument("--d-steps", type=int, default=21)
    p.add_argument("--d-max", type=float, default=None)
    p.add_argument("--eps-steps", type=int, default=200)
    p.add_argument("--no-solver", action="store_true",
                   help="skip the planar eigensolver column")
    p.add_argument("--order", type=int, default=solver.DEFAULT_ORDER)
    p.add_argument("--points", type=int, default=solver.DEFAULT_POINTS)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("verify", parents=[out],
                       help="run the named invariant suite")
    p.add_argument("--level", choices=("fast", "full"), default="fast")
    p.add_argument("--inject-fault", choices=verify.FAULTS, default=None,
                   help="debug: deliberately break one identity to test the harness")
    p.add_argument("--checks", metavar="SUBSTRING", default=None,
                   help="run only checks whose report name contains SUBSTRING")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if "tol" in args and not MIN_TOL <= args.tol < math.inf:
            raise ValueError(f"--tol must be finite and at least machine epsilon {MIN_TOL:.17g}")
        if "jobs" in args and args.jobs < 0:
            raise ValueError("--jobs must be 0 (all cores) or a positive count")
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NonConvergenceError, OverflowError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
