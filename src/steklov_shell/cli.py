"""Command-line front end: spectra, bounds, solver runs, sweeps, verification.

Every command but ``verify`` prints through one writer, ``_write``, which
holds the output contract.  ``--problem`` and the terms ``bound`` prints come
from ``problems.PROBLEMS``.  ``sweep`` sweeps the offset; ``ratio`` the hole ratio.

Exit codes: 0 success, 1 internal error or failed verification, 2 usage or
validation error (an ``--out`` path that cannot be written included), 3
numerical failure (non-convergence, including a failed eigensolve, and any
floating-point error but underflow, which numpy raises inside a command).
``solve`` and the sweep's solver column run the same gated solve, which chooses
its own order: it exits 3 rather than print a value that has not converged.
"""

from __future__ import annotations

import argparse
import math
import os
import pickle
import signal
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__, shell_spectrum, solver, verify
from .errors import NonConvergenceError
from .geometry import ShellConfig
from .problems import PROBLEMS
from .quadrature import MIN_TOL, QUAD_TOL


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _emit(lines: list[str], out_path: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if out_path is None:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write --out {out_path}: {exc.strerror or exc}") from None


def _write(args, command: str, parameters: dict, columns: list[str], rows, footer=(),
           tol: float = QUAD_TOL) -> None:
    """Print one command's output, or write it to ``--out``.

    Output contract: UTF-8 with LF line endings; a ``# manifest:`` comment
    header carrying everything needed to reproduce the run (command, sorted
    parameters, tool version, tolerances); lowercase snake_case column
    names; floats to 17 significant digits; then the footer lines.  CSV
    joins cells with commas.  The human-readable table left-justifies every
    column to its widest cell, joins columns with two spaces, and adds the
    UTC time of writing as a fifth manifest line.  CSV carries no wall-clock
    field, so repeated identical invocations are byte-identical.
    """
    kv = " ".join(f"{k}={parameters[k]}" for k in sorted(parameters))
    lines = [
        f"# manifest: command={command}",
        f"# manifest: parameters: {kv}",
        f"# manifest: tool_version={__version__}",
        f"# manifest: tolerances: quad_abs={tol} quad_rel={tol}",
    ]
    table = [columns] + [[_fmt(v) if isinstance(v, float) else str(v) for v in row] for row in rows]
    if args.format == "csv":
        lines += [",".join(row) for row in table]
    else:
        now = datetime.now(timezone.utc).isoformat(timespec="seconds")
        lines.append(f"# manifest: timestamp={now}")
        widths = [max(map(len, column)) for column in zip(*table)]
        lines += ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)) for row in table]
    lines.extend(footer)
    _emit(lines, args.out)


# ----------------------------------------------------------------------
# subcommands


def cmd_spectrum(args) -> int:
    entries = shell_spectrum.spectrum(args.dim, args.a, args.kmax)
    rows = [(e.value, e.k, e.branch, e.multiplicity) for e in entries]
    complete = shell_spectrum.spectrum_complete_below(args.dim, args.a, args.kmax)
    _write(args, "spectrum", {"dim": args.dim, "a": args.a, "kmax": args.kmax},
           ["value", "k", "branch", "multiplicity"], rows, [f"# complete_below={_fmt(complete)}"])
    return 0


def cmd_bound(args) -> int:
    cfg = ShellConfig(args.dim, args.a, args.d)
    problem = PROBLEMS[args.problem]
    fields = problem.breakdown(cfg, tol=args.tol)
    fields.append((f"{problem.label}_concentric", problem.closed_form(cfg.n, cfg.a)))
    if args.format == "csv":
        columns, rows = [name for name, _ in fields], [[val for _, val in fields]]
    else:
        columns, rows = ["field", "value"], fields
    params = {"dim": args.dim, "a": args.a, "d": args.d, "problem": args.problem}
    _write(args, "bound", params, columns, rows, tol=args.tol)
    return 0


def cmd_solve(args) -> int:
    problem = PROBLEMS[args.problem]
    res = problem.solve(ShellConfig(2, args.a, args.d))
    footer = [
        f"# {problem.label}={_fmt(res.principal)}",
        f"# residual={_fmt(res.residual)}",
        f"# order={res.basis.max_order}",
        f"# width={_fmt(res.width)}",
    ]
    params = {"a": args.a, "d": args.d, "problem": args.problem}
    _write(args, "solve", params, ["eigenvalue", "multiplicity"],
           solver.group_eigenvalues(res.eigenvalues[:12]), footer)
    return 0


def _run_share(fn, tasks, share: int, workers: int) -> tuple[list, tuple | None]:
    """fn over tasks share, share + workers, ..., stopping at the first row that raises.

    Returns the rows and, for a row that raised, its task index and exception
    (else None), so the caller can re-raise the earliest failure of all shares.
    """
    rows = []
    for i in range(share, len(tasks), workers):
        try:
            rows.append(fn(tasks[i]))
        except Exception as exc:  # handed to the caller, which re-raises the earliest
            return rows, (i, exc)
    return rows, None


def _fork_share(fn, tasks, share: int, workers: int):
    """Fork a child that runs one share and pickles its result to a pipe.

    Returns the child's pid and the read end of its pipe.  The child always
    ends in os._exit, so it never returns into the caller or flushes the
    parent's stdio buffers; it exits 0 only once its record is written.
    """
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            with open(write_fd, "wb") as fh:
                fh.write(pickle.dumps(_run_share(fn, tasks, share, workers)))
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    return pid, open(read_fd, "rb")


def _fan_out(fn, tasks, jobs: int) -> list:
    """fn over tasks, in task order, on up to jobs processes (0 = all cores).

    Task i runs in share i % workers, so each share gets offsets from the
    whole grid and the bounds' cost, which grows with the offset, evens out.
    This process forks one child per share after the first and runs the
    first share itself; each child pickles its rows to its own pipe.  More
    processes than tasks or cores would only cost forks.  Off Linux, where
    fork is not the platform's safe default, every row runs in process.

    The earliest failing row's exception is raised, as a serial run would
    raise it.  A child that exits without its record raises RuntimeError.
    If this process's own share is interrupted, every child is killed and
    reaped before the interruption propagates.
    """
    cpus = os.cpu_count() or 1
    workers = min(jobs or cpus, len(tasks), cpus) if sys.platform == "linux" else 1
    pids, readers = [], []  # of the children; a pid leaves pids once reaped
    try:
        for share in range(1, workers):
            pid, reader = _fork_share(fn, tasks, share, workers)
            pids.append(pid)
            readers.append(reader)
        shares = [_run_share(fn, tasks, 0, workers)]
        for reader in readers:
            record = reader.read()
            pid = pids.pop(0)
            _, status = os.waitpid(pid, 0)
            if status != 0:  # a child exits 0 only once its record is written
                raise RuntimeError(
                    f"sweep worker {pid} exited with wait status {status} without its rows"
                )
            shares.append(pickle.loads(record))
    finally:
        for pid in pids:  # left only when something raised
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for reader in readers:
            reader.close()
    failures = [failure for _, failure in shares if failure is not None]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    rows = [None] * len(tasks)
    for share, (share_rows, _) in enumerate(shares):
        rows[share::workers] = share_rows
    return rows


def cmd_sweep(args) -> int:
    if args.d_steps < 1:
        raise ValueError("offset sweep needs at least one grid point")
    if args.no_solver and args.dim != 2:
        raise ValueError("--no-solver applies only to planar sweeps (--dim 2)")
    a = args.a
    use_solver = args.dim == 2 and not args.no_solver
    d_max = args.d_max if args.d_max is not None else 0.95 * (1.0 - a)
    ShellConfig(args.dim, a, 0.0)  # validates dim and a before any row runs
    if not 0.0 <= d_max < 1.0 - a:
        raise ValueError("sweep offset cap must lie in [0, 1 - a)")
    problem = PROBLEMS[args.problem]
    closed = problem.closed_form(args.dim, a)

    def row(d: float) -> tuple:
        """One offset-sweep row: the offset, the bound, [the solver value,] the concentric value."""
        cfg = ShellConfig(args.dim, a, d)
        bound = problem.bound(cfg, tol=args.tol)
        if use_solver:
            return (d, bound, problem.solve(cfg).principal, closed)
        return (d, bound, closed)

    rows = _fan_out(row, np.linspace(0.0, d_max, args.d_steps).tolist(), args.jobs)
    params = {"dim": args.dim, "problem": args.problem, "a": a, "d_steps": args.d_steps,
              "d_max": d_max, "solver": use_solver}
    columns = ["d", "bound"] + ["solver_value"] * use_solver + ["closed_form"]
    _write(args, "sweep", params, columns, rows, tol=args.tol)
    return 0


def cmd_ratio(args) -> int:
    if args.eps_steps < 1:
        raise ValueError("eps sweep needs at least one grid point")
    eps_grid = np.linspace(0.0, 0.99, args.eps_steps).tolist()
    rows = [(e, shell_spectrum.scale_invariant(args.dim, e)) for e in eps_grid]
    eps_star, value = shell_spectrum.optimal_eps(args.dim)
    footer = [f"# eps_star={_fmt(eps_star)}", f"# value_at_eps_star={_fmt(value)}"]
    _write(args, "ratio", {"dim": args.dim, "eps_steps": args.eps_steps},
           ["eps", "normalized_value"], rows, footer)
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
                   help="processes computing offset-sweep rows, this one included "
                        "(0 = all cores)")
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
    p.add_argument("--problem", choices=tuple(PROBLEMS), default="steklov")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("solve", parents=[fmt, out],
                       help="planar eigensolver in the conformal frame")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--d", type=float, required=True)
    p.add_argument("--problem", choices=tuple(PROBLEMS), default="steklov")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("sweep", parents=[fmt, out, jobs, tol],
                       help="bound (and planar solver) sweep over the hole's offset")
    p.add_argument("--problem", choices=tuple(PROBLEMS), required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--a", type=float, default=0.5)
    p.add_argument("--d-steps", type=int, default=21)
    p.add_argument("--d-max", type=float, default=None)
    p.add_argument("--no-solver", action="store_true",
                   help="skip the planar eigensolver column (planar sweeps only)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("ratio", parents=[fmt, out],
                       help="normalized concentric eigenvalue over the hole ratio")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--eps-steps", type=int, default=200)
    p.set_defaults(func=cmd_ratio)

    p = sub.add_parser("verify", parents=[out],
                       help="run the named invariant suite")
    p.add_argument("--level", choices=("fast", "full"), default="fast")
    p.add_argument("--inject-fault", choices=verify.FAULTS, default=None,
                   help="debug: deliberately break one identity to test the harness")
    p.add_argument("--checks", metavar="SUBSTRING", default=None,
                   help="run only checks whose report name contains SUBSTRING")
    p.set_defaults(func=cmd_verify)
    return parser


def _at(args) -> str:
    """The geometry arguments a command takes, as " at dim=2 a=0.5 d=0.2", or "" if none."""
    given = " ".join(f"{name}={getattr(args, name)}" for name in ("dim", "a", "d") if name in args)
    return f" at {given}" if given else ""


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if "tol" in args and not MIN_TOL <= args.tol < math.inf:
            raise ValueError(f"--tol must be finite and at least machine epsilon {MIN_TOL:.17g}")
        if "jobs" in args and args.jobs < 0:
            raise ValueError("--jobs must be 0 (all cores) or a positive count")
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NonConvergenceError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except OverflowError as exc:
        # A float ** raises OverflowError(errno, text), which prints as the bare tuple.
        detail = exc.args[-1] if exc.args else exc
        print(f"numerical failure: floating-point overflow{_at(args)}: {detail}", file=sys.stderr)
        return 3
    except FloatingPointError as exc:
        print(f"numerical failure: floating-point error{_at(args)}: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
