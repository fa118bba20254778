"""Command-line interface: formats, exit codes, determinism."""

import errno
import json
import math
import os
import signal
import subprocess
import sys
import textwrap
import time
from datetime import datetime, timezone
from pathlib import Path
from types import SimpleNamespace

import pytest
import scipy.linalg

from steklov_shell import __version__, cli, rayleigh, solver
from steklov_shell import shell_spectrum as sp
from steklov_shell.errors import NonConvergenceError
from steklov_shell.geometry import ShellConfig
from steklov_shell.quadrature import QUAD_TOL
from steklov_shell.verify import check_w2_vanishes

# A bound-only sweep whose four offsets are 0, 0.1, 0.2 and 0.3.
FOUR_ROW_SWEEP = ("sweep", "--problem", "steklov", "--dim", "4", "--a", "0.3",
                  "--d-max", "0.3", "--d-steps", "4", "--format", "csv")


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _footer(out: str, name: str) -> float:
    """The value of one ``# name=value`` footer line of solve's output."""
    return float(next(l for l in out.splitlines() if l.startswith(f"# {name}=")).split("=")[1])


def _gate_values(cfg, kind, top):
    """The gate's principal values at FIRST_ORDER, 2 FIRST_ORDER, ..., top, each seeded from the last."""
    values, run, N = {}, None, solver.FIRST_ORDER
    while N <= top:
        run = solver._solve_at_order(cfg, N, kind, run)
        values[N], N = run.principal, 2 * N
    return values


@pytest.fixture
def forks(monkeypatch):
    """The pids of the children the sweep forks, recorded around the real os.fork.

    An alarm fails a test that hangs instead of letting it stall the run.
    """
    pids = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    def hung(signum, frame):
        pytest.fail("the sweep hung")

    monkeypatch.setattr(cli.os, "fork", fork)
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(120)
    try:
        yield pids
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def assert_no_children():
    """Every forked child was reaped: none is left as a zombie or still running."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def openblas_loaded() -> bool:
    """Whether the maps listing names an OpenBLAS library, found without the solver's help."""
    try:
        with open("/proc/self/maps", "rb") as fh:
            lines = fh.read().splitlines()
    except OSError:
        return False
    fields = [line.split(maxsplit=5) for line in lines]
    return any(len(f) == 6 and b"openblas" in f[5].rsplit(b"/", 1)[-1] for f in fields)


def rows_failing_at(failing, exc_type):
    """A surface_bound for FOUR_ROW_SWEEP that raises exc_type at the row indices in failing."""
    def bound(cfg, kind, **tol):
        i = round(cfg.d / 0.1)
        if i in failing:
            raise exc_type(f"row {i} failed")
        return SimpleNamespace(value=1.0)

    return bound


class TestSpectrumCommand:
    def test_first_nonzero_row(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--dim", "2", "--a", "0.5", "--kmax", "5")
        assert code == 0
        lines = [l for l in out.splitlines() if not l.startswith("#")]
        first_nonzero = lines[2].split()
        assert float(first_nonzero[0]) == pytest.approx(0.4384471871911697, rel=1e-12)
        assert first_nonzero[1:] == ["1", "lower", "2"]

    def test_csv_contract(self, capsys):
        code, out, _ = run_cli(
            capsys, "spectrum", "--dim", "2", "--a", "0.5", "--kmax", "3", "--format", "csv"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("# manifest: command=spectrum")
        header = next(l for l in lines if not l.startswith("#"))
        assert header == "value,k,branch,multiplicity"
        assert out.endswith("\n")

    def test_validation_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "spectrum", "--dim", "2", "--a", "1.2", "--kmax", "3")
        assert code == 2
        assert "inner radius must lie in (0,1)" in err


class TestBoundCommand:
    def test_steklov_breakdown(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "--dim", "3", "--a", "0.4", "--d", "0.2")
        assert code == 0
        fields = dict(
            line.split() for line in out.splitlines()
            if not line.startswith("#") and len(line.split()) == 2 and line.split()[0] != "field"
        )
        assert abs(float(fields["w2"])) < 1e-10
        assert float(fields["bound"]) < sp.sigma1_closed_form(3, 0.4)

    def test_concentric_anchor(self, capsys):
        code, out, _ = run_cli(
            capsys, "bound", "--dim", "2", "--a", "0.5", "--d", "0", "--format", "csv"
        )
        assert code == 0
        data = out.splitlines()[-1].split(",")
        header = [l for l in out.splitlines() if not l.startswith("#")][0].split(",")
        bound = float(data[header.index("bound")])
        assert bound == pytest.approx(sp.sigma1_closed_form(2, 0.5), abs=1e-9)

    def test_mixed_problem_anchor(self, capsys):
        code, out, _ = run_cli(
            capsys, "bound", "--problem", "dirichlet-steklov", "--dim", "2",
            "--a", "0.5", "--d", "0", "--format", "csv",
        )
        assert code == 0
        header = [l for l in out.splitlines() if not l.startswith("#")][0].split(",")
        data = out.splitlines()[-1].split(",")
        assert float(data[header.index("bound")]) == pytest.approx(1 / math.log(2), abs=1e-9)

    def test_tol_does_not_outlive_the_call(self, capsys):
        cfg = ShellConfig(3, 0.4, 0.3)
        before = rayleigh.steklov_bound(cfg).bound
        for argv in (
            ["bound", "--dim", "3", "--a", "0.4", "--d", "0.3"],
            ["sweep", "--problem", "steklov", "--dim", "3", "--a", "0.4", "--d-steps", "2",
             "--jobs", "1"],
        ):
            code, _, _ = run_cli(capsys, *argv, "--tol", "1e-2")
            assert code == 0
            assert rayleigh.steklov_bound(cfg).bound == before

    @pytest.mark.parametrize("tol", ["0", "inf", "nan", "1e-16"])
    def test_tolerance_must_be_positive_and_finite(self, capsys, tol):
        # Below machine epsilon no quadrature can meet the tolerance, so it is
        # refused before the first integral instead of bisecting to the cap.
        code, _, err = run_cli(
            capsys, "bound", "--dim", "3", "--a", "0.4", "--d", "0.3", "--tol", tol
        )
        assert code == 2
        assert "--tol" in err

    @pytest.mark.parametrize("problem, dim, d", [
        ("steklov", "4", "0"), ("dirichlet-steklov", "6", "0.9025"),
    ])
    def test_tolerance_near_machine_epsilon_is_met(self, capsys, problem, dim, d):
        # With a = 0.05 some panels of these integrals cannot get below 1e-15
        # of their share; they are accepted at their own rounding level
        # instead of bisected to the subdivision cap (exit 3).
        bounds = []
        for tol in ("1e-15", "1e-12"):
            code, out, err = run_cli(capsys, "bound", "--problem", problem, "--dim", dim,
                                     "--a", "0.05", "--d", d, "--tol", tol, "--format", "csv")
            assert code == 0, err
            rows = [line.split(",") for line in out.splitlines() if not line.startswith("#")]
            bounds.append(float(rows[1][rows[0].index("bound")]))
        assert bounds[0] == pytest.approx(bounds[1], rel=1e-14)

    @pytest.mark.parametrize("argv, where", [
        (["bound", "--dim", "2", "--a", "1e-300", "--d", "0.5"], "dim=2 a=1e-300 d=0.5"),
        (["bound", "--dim", "2000", "--a", "0.5", "--d", "0.2"], "dim=2000 a=0.5 d=0.2"),
        (["sweep", "--problem", "steklov", "--dim", "2000", "--a", "0.5", "--d-steps", "2"],
         "dim=2000 a=0.5"),
    ], ids=["tiny_hole", "huge_dim", "sweep"])
    def test_overflow_is_a_numerical_failure(self, capsys, argv, where):
        # a^(-n) in the w3 integrand overflows a float, which raises
        # OverflowError(ERANGE, text); the message names the input and gives
        # the text, not the tuple.
        code, out, err = run_cli(capsys, *argv)
        assert code == 3
        assert out == ""
        assert err == f"numerical failure: floating-point overflow at {where}: {os.strerror(errno.ERANGE)}\n"

    def test_mixed_sweep_at_a_tiny_hole_in_high_dimension(self, capsys):
        # The breakdown's boundary mass squares a^(2-n) = 1e216 and overflows;
        # the sweep's surface form divides it out.
        code, out, err = run_cli(capsys, "sweep", "--problem", "dirichlet-steklov", "--dim", "20",
                                 "--a", "1e-12", "--d-max", "0.5", "--d-steps", "3",
                                 "--format", "csv")
        assert (code, err) == (0, "")
        rows = [line.split(",") for line in out.splitlines() if not line.startswith("#")]
        assert rows[0] == ["d", "bound", "closed_form"]
        assert float(rows[1][1]) == pytest.approx(18.0 / (1e216 - 1.0), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("argv, line", [
        (["bound", "--dim", "2000", "--a", "0.5", "--d", "0.45"],
         "floating-point error at dim=2000 a=0.5 d=0.45: overflow encountered in power"),
        (["sweep", "--problem", "steklov", "--dim", "2000", "--a", "0.5", "--d-steps", "2"],
         f"floating-point overflow at dim=2000 a=0.5: {os.strerror(errno.ERANGE)}"),
    ], ids=["bound", "sweep"])
    def test_floating_point_errors_print_one_line(self, argv, line):
        # numpy's overflow in the w1 integrand raises instead of warning, so the
        # failure line is all of stderr: no RuntimeWarning naming the install
        # path, also not from a forked sweep child.  A fresh process keeps
        # pytest's own warning capture out of the way.
        src = str(Path(cli.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-m", "steklov_shell.cli", *argv],
                              env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr == f"numerical failure: {line}\n"

    @pytest.mark.parametrize("argv, where", [
        (["bound", "--dim", "5000", "--a", "0.9999", "--d", "0"], "dim=5000 a=0.9999 d=0.0"),
        (["bound", "--problem", "dirichlet-steklov", "--dim", "5000", "--a", "0.9999", "--d", "0"],
         "dim=5000 a=0.9999 d=0.0"),
        (["sweep", "--problem", "steklov", "--dim", "5000", "--a", "0.9999", "--d-steps", "2",
          "--jobs", "1"], "dim=5000 a=0.9999"),
    ], ids=["bound", "mixed_bound", "sweep"])
    def test_a_boundary_mass_that_underflows_is_a_numerical_failure(self, capsys, argv, where):
        # The angular constants underflow to 0 from n of a few hundred; with
        # a near 1 no integral overflows first, and the quotient was 0 / 0,
        # an internal error (exit 1).  The sweep reaches it through the
        # surface form's adaptive fallback.  n = 20000 fails the same way, slower.
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (3, "")
        assert err == (f"numerical failure: floating-point error at {where}: "
                       "the test function's boundary mass underflows to 0\n")

    @pytest.mark.parametrize("argv, line", [
        (["bound", "--dim", "20000", "--a", "0.9999", "--d", "0"],
         "floating-point error at dim=20000 a=0.9999 d=0.0: "
         "the test function's boundary mass underflows to 0"),
        (["sweep", "--dim", "20000", "--problem", "steklov", "--a", "0.9999", "--d-steps", "2",
          "--jobs", "1"],
         "floating-point error at dim=20000 a=0.9999: the test function's boundary mass underflows to 0"),
        (["ratio", "--dim", "100000", "--eps-steps", "2"],
         "coarse scan found no interior maximum of the normalized eigenvalue"),
    ], ids=["bound", "sweep", "ratio"])
    def test_a_huge_dimension_fails_promptly(self, argv, line):
        # Each sphere constant is a product of n Wallis values read from one
        # recursion, O(n).  The timeout fails an O(n^2) product, one wallis(k)
        # per factor, which takes 15 s to minutes at these n on 2 vCPUs.
        src = str(Path(cli.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-m", "steklov_shell.cli", *argv],
                              env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                              text=True, timeout=15)
        assert (proc.returncode, proc.stdout) == (3, "")
        assert proc.stderr == f"numerical failure: {line}\n"

    def test_breakdown_reads_the_patched_functions(self, capsys, monkeypatch):
        # The problem table looks the bound's terms up when called, so a
        # patched or traced rayleigh function is the one whose values print.
        terms = {"mu": 1.5, "W1": 2.5, "W2": 0.125, "W3": 3.5, "V1": 4.5, "V2": 0.25, "V3": 5.5,
                 "In": 6.5, "inner_mass": 7.5, "energy": 8.5, "boundary_mass": 9.5, "bound": 0.75}
        monkeypatch.setattr(rayleigh, "steklov_bound", lambda cfg, **tol: SimpleNamespace(**terms))
        monkeypatch.setattr(rayleigh, "ds_energy", lambda cfg, **tol: 0.375)
        printed = {}
        for problem in ("steklov", "dirichlet-steklov"):
            code, out, _ = run_cli(capsys, "bound", "--problem", problem, "--dim", "2",
                                   "--a", "0.5", "--d", "0.1", "--format", "csv")
            assert code == 0
            header, values = [l.split(",") for l in out.splitlines() if not l.startswith("#")]
            printed[problem] = dict(zip(header, map(float, values)))
        assert list(printed["steklov"].values())[:-1] == list(terms.values())
        mass = rayleigh.ds_boundary_mass(ShellConfig(2, 0.5, 0.1))
        assert printed["dirichlet-steklov"]["energy"] == 0.375
        assert printed["dirichlet-steklov"]["boundary_mass"] == mass
        assert printed["dirichlet-steklov"]["bound"] == 0.375 / mass


def _g(x: float) -> str:
    return f"{x:.17g}"


def _padded(rows) -> list[str]:
    """rows as the table format lays them out: each column left-justified to its
    widest cell, the last one included, and columns joined by two spaces."""
    widths = [max(len(r[j]) for r in rows) for j in range(len(rows[0]))]
    return ["  ".join(cell.ljust(w) for cell, w in zip(r, widths)) for r in rows]


def _bound_fields(problem: str, cfg: ShellConfig, tol: float) -> list[tuple[str, str]]:
    """bound's fields, in order, computed in process and formatted to 17 digits."""
    if problem == "steklov":
        b = rayleigh.steklov_bound(cfg, tol=tol)
        values = [("mu", b.mu), ("w1", b.W1), ("w2", b.W2), ("w3", b.W3), ("v1", b.V1),
                  ("v2", b.V2), ("v3", b.V3), ("i_n", b.In), ("inner_mass", b.inner_mass),
                  ("energy", b.energy), ("boundary_mass", b.boundary_mass), ("bound", b.bound),
                  ("sigma1_concentric", sp.sigma1_closed_form(cfg.n, cfg.a))]
    else:
        energy = rayleigh.ds_energy(cfg, tol=tol)
        mass = rayleigh.ds_boundary_mass(cfg, tol=tol)
        values = [("energy", energy), ("boundary_mass", mass), ("bound", energy / mass),
                  ("tau1_concentric", sp.tau1_closed_form(cfg.n, cfg.a))]
    return [(name, _g(value)) for name, value in values]


class TestOutputLayout:
    """The manifest header and both layouts, byte for byte.

    Every expected number is computed in process and formatted with .17g,
    not written as a literal, so the test does not pin one CPU's last digits.
    """

    @pytest.mark.parametrize("problem", ["steklov", "dirichlet-steklov"])
    @pytest.mark.parametrize("tol, tol_text", [(None, "1e-12"), ("1e-10", "1e-10")])
    def test_bound_csv_is_one_row_of_field_names(self, capsys, problem, tol, tol_text):
        argv = ["bound", "--problem", problem, "--dim", "3", "--a", "0.4", "--d", "0.2",
                "--format", "csv"] + (["--tol", tol] if tol else [])
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        fields = _bound_fields(problem, ShellConfig(3, 0.4, 0.2), float(tol_text))
        assert out.splitlines() == [
            "# manifest: command=bound",
            f"# manifest: parameters: a=0.4 d=0.2 dim=3 problem={problem}",
            f"# manifest: tool_version={__version__}",
            f"# manifest: tolerances: quad_abs={tol_text} quad_rel={tol_text}",
            ",".join(name for name, _ in fields),
            ",".join(value for _, value in fields),
        ]
        assert out.endswith("\n") and not out.endswith("\n\n")

    @pytest.mark.parametrize("problem", ["steklov", "dirichlet-steklov"])
    def test_bound_table_is_field_value_rows_after_a_timestamp(self, capsys, problem):
        before = datetime.now(timezone.utc).replace(microsecond=0)
        code, out, err = run_cli(capsys, "bound", "--problem", problem, "--dim", "2",
                                 "--a", "0.5", "--d", "0.3")
        after = datetime.now(timezone.utc)
        assert (code, err) == (0, "")
        lines = out.splitlines()
        assert lines[:4] == [
            "# manifest: command=bound",
            f"# manifest: parameters: a=0.5 d=0.3 dim=2 problem={problem}",
            f"# manifest: tool_version={__version__}",
            "# manifest: tolerances: quad_abs=1e-12 quad_rel=1e-12",
        ]
        # The fifth line is the timestamp: ISO 8601 to the second, in UTC.
        prefix = "# manifest: timestamp="
        assert lines[4].startswith(prefix)
        stamp = lines[4][len(prefix):]
        assert len(stamp) == len("2000-01-01T00:00:00+00:00") and stamp.endswith("+00:00")
        assert before <= datetime.fromisoformat(stamp) <= after
        fields = _bound_fields(problem, ShellConfig(2, 0.5, 0.3), QUAD_TOL)
        assert lines[5:] == _padded([("field", "value")] + fields)

    def test_spectrum_table_pads_every_column(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--dim", "3", "--a", "0.3", "--kmax", "4")
        assert code == 0
        lines = out.splitlines()
        assert lines[1] == "# manifest: parameters: a=0.3 dim=3 kmax=4"
        assert lines[4].startswith("# manifest: timestamp=")
        rows = [(_g(e.value), str(e.k), e.branch, str(e.multiplicity))
                for e in sp.spectrum(3, 0.3, 4)]
        footer = f"# complete_below={_g(sp.spectrum_complete_below(3, 0.3, 4))}"
        assert lines[5:] == _padded([("value", "k", "branch", "multiplicity")] + rows) + [footer]

    def test_csv_carries_no_timestamp(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--dim", "3", "--a", "0.3", "--kmax", "4",
                               "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[4] == "value,k,branch,multiplicity"
        assert not any("timestamp" in line for line in lines)


class TestSolveCommand:
    def test_moderate_offset(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--a", "0.5", "--d", "0.3")
        assert code == 0
        sigma1 = float(next(l for l in out.splitlines() if l.startswith("# sigma1=")).split("=")[1])
        residual = float(next(l for l in out.splitlines() if l.startswith("# residual=")).split("=")[1])
        assert sigma1 < sp.sigma1_closed_form(2, 0.5)
        assert residual < 1e-6

    def test_concentric_matches_closed_form(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--a", "0.5", "--d", "0")
        assert code == 0
        sigma1 = float(next(l for l in out.splitlines() if l.startswith("# sigma1=")).split("=")[1])
        assert sigma1 == pytest.approx(sp.sigma1_closed_form(2, 0.5), abs=1e-8)

    @pytest.mark.parametrize("problem, kind, label", [("steklov", "steklov", "sigma1"),
                                                      ("dirichlet-steklov", "dirichlet", "tau1")])
    def test_solve_prints_the_order_it_reached(self, capsys, problem, kind, label):
        # The last row of the a = 0.15 sweep needs order 256: the value printed
        # is the one at the printed order, which agrees with half that order.
        code, out, _ = run_cli(capsys, "solve", "--a", "0.15", "--d", "0.8075",
                               "--problem", problem, "--format", "csv")
        assert code == 0
        assert out.splitlines()[1] == f"# manifest: parameters: a=0.15 d=0.8075 problem={problem}"
        order = int(_footer(out, "order"))
        assert order == 256
        values = _gate_values(ShellConfig(2, 0.15, 0.8075), kind, order)
        assert _footer(out, label) == values[order]
        assert abs(_footer(out, label) - values[order // 2]) <= solver.GATE_RTOL * _footer(out, label)

    @pytest.mark.parametrize("problem, kind, label", [("steklov", "steklov", "sigma1"),
                                                      ("dirichlet-steklov", "dirichlet", "tau1")])
    def test_solve_prints_the_width_after_the_order(self, capsys, problem, kind, label):
        code, out, _ = run_cli(capsys, "solve", "--a", "0.15", "--d", "0.8075", "--problem", problem)
        assert code == 0
        footer = [line.split("=")[0] for line in out.splitlines()[-4:]]
        assert footer == [f"# {label}", "# residual", "# order", "# width"]
        res = solver._solve(ShellConfig(2, 0.15, 0.8075), kind)
        assert _footer(out, "width") == res.width
        assert 0.0 <= res.width <= solver.GATE_RTOL * res.principal

    @pytest.mark.parametrize("problem, label", [("steklov", "sigma1"), ("dirichlet-steklov", "tau1")])
    def test_small_hole_matches_the_sweep_row(self, capsys, problem, label):
        code, out, _ = run_cli(capsys, "solve", "--a", "0.2", "--d", "0.7", "--problem", problem)
        assert code == 0
        code, sweep, _ = run_cli(capsys, "sweep", "--problem", problem, "--dim", "2", "--a", "0.2",
                                 "--d-max", "0.7", "--d-steps", "2", "--jobs", "1", "--format", "csv")
        assert code == 0
        d, _, solver_value, _ = sweep.splitlines()[-1].split(",")
        assert float(d) == 0.7
        assert _footer(out, label) == float(solver_value)

    @pytest.mark.parametrize("d", ["1e-300", "1e-200", "1e-8"])
    @pytest.mark.parametrize("problem, label, closed", [
        ("steklov", "sigma1", sp.sigma1_closed_form), ("dirichlet-steklov", "tau1", sp.tau1_closed_form),
    ])
    def test_tiny_offsets_give_the_closed_form(self, capsys, d, problem, label, closed):
        # The frame's textbook roots overflow at d = 1e-200 and lose the inner
        # root at d = 1e-8; the concentric value holds to rounding at all three.
        code, out, err = run_cli(capsys, "solve", "--a", "0.5", "--d", d, "--problem", problem)
        assert (code, err) == (0, "")
        assert _footer(out, label) == pytest.approx(closed(2, 0.5), abs=1e-12)
        assert _footer(out, "residual") < 1e-12

    @pytest.mark.parametrize("problem, label, value", [("steklov", "sigma1", 0.119870299826),
                                                       ("dirichlet-steklov", "tau1", 0.74786777895)])
    def test_near_contact_converges(self, capsys, problem, label, value):
        # At (0.5, 0.4999) the gate needs order 2048, the cap; the solver this
        # one replaced printed sigma1 17% high there, with residual 7.08.
        code, out, _ = run_cli(capsys, "solve", "--a", "0.5", "--d", "0.4999", "--problem", problem)
        assert code == 0
        assert _footer(out, label) == pytest.approx(value, abs=1e-9)
        assert _footer(out, "order") == 2048
        assert _footer(out, "residual") < 1e-7

    @pytest.mark.parametrize("problem, label, kind", [("steklov", "sigma1", "steklov"),
                                                      ("dirichlet-steklov", "tau1", "dirichlet")])
    def test_closer_contact_converges_or_exits_3(self, capsys, problem, label, kind):
        # At (0.5, 0.49999) tau1 still moves at order 2048: a value the gate
        # has not accepted is never printed.
        code, out, err = run_cli(capsys, "solve", "--a", "0.5", "--d", "0.49999", "--problem", problem)
        cfg = ShellConfig(2, 0.5, 0.49999)
        if code == 0:
            order = int(_footer(out, "order"))
            half = _gate_values(cfg, kind, order // 2)[order // 2]
            assert abs(_footer(out, label) - half) <= solver.GATE_RTOL * _footer(out, label)
        else:
            assert (code, out) == (3, "")
            assert err.startswith(f"numerical failure: {label} did not converge")
            assert f"order cap {solver.MAX_ORDER}" in err
            values = _gate_values(cfg, kind, solver.MAX_ORDER)
            for order in (solver.MAX_ORDER // 2, solver.MAX_ORDER):
                assert f"{values[order]:.17g} at N={order}" in err

    @pytest.mark.parametrize("a, problem, label, value", [
        ("1e-8", "steklov", "sigma1", 0.99999999500000059),
        ("1e-8", "dirichlet-steklov", "tau1", 0.05336611092974311),
        ("1e-4", "steklov", "sigma1", 0.99994994213825306),
        ("1e-4", "dirichlet-steklov", "tau1", 0.10459901521606989),
        ("1e-6", "steklov", "sigma1", 0.99999949999191162),
        ("1e-6", "dirichlet-steklov", "tau1", 0.070702271728721108),
    ])
    def test_small_holes_keep_their_values(self, capsys, a, problem, label, value):
        # The values the solver this one replaced printed at d = 0.5.  The
        # banded eigenvalues scatter over 1e-9 at a = 1e-4 and 1e-5 at 1e-8;
        # the Rayleigh quotient of the principal vector does not.
        code, out, _ = run_cli(capsys, "solve", "--a", a, "--d", "0.5", "--problem", problem)
        assert code == 0
        assert _footer(out, label) == pytest.approx(value, abs=1e-12)

    @pytest.mark.parametrize("a", ["1e-13", "1e-300"])
    def test_too_small_a_hole_exits_3(self, capsys, a):
        # The solver this one replaced overflowed at both.
        code, out, err = run_cli(capsys, "solve", "--a", a, "--d", "0.5")
        assert (code, out) == (3, "")
        assert err.startswith("numerical failure: the banded eigenvalues' rounding, ")
        assert err.endswith(", nears the principal value: the hole is too small\n")

    def test_a_denormal_hole_exits_3(self, capsys):
        # 1/rho overflows in the band, as the solver this one replaced overflowed.
        code, out, err = run_cli(capsys, "solve", "--a", "1e-310", "--d", "0.5")
        assert (code, out) == (3, "")
        assert err.startswith("numerical failure: banded eigensolve failed at order 32: ")

    def test_order_cap_exits_3(self, capsys, monkeypatch):
        monkeypatch.setattr(solver, "MAX_ORDER", 64)
        code, out, err = run_cli(capsys, "solve", "--a", "0.15", "--d", "0.8075")
        assert (code, out) == (3, "")
        assert "order cap 64" in err and "at N=32" in err and "at N=64" in err

    def test_eigensolver_failure_exit_code(self, capsys, monkeypatch):
        def failing(*args, **kwargs):
            raise scipy.linalg.LinAlgError("no convergence")

        monkeypatch.setattr(scipy.linalg, "eig_banded", failing)
        code, out, err = run_cli(capsys, "solve", "--a", "0.5", "--d", "0.3")
        assert code == 3
        assert out == ""
        assert "numerical failure" in err

    def test_bytes_do_not_depend_on_blas_threads(self):
        # A threaded BLAS sums in an order set by its thread count, which is
        # fixed when the library loads: only a fresh process can vary it.
        # No call sets the count.  The inputs: a default solve, a mixed solve at
        # gate order 256, a near-contact solve at order 2048, where the
        # residual's matrix-vector products are widest, and a forked sweep.
        src = str(Path(cli.__file__).resolve().parents[1])
        for args in (
            ("solve", "--a", "0.5", "--d", "0.3"),
            ("solve", "--problem", "dirichlet-steklov", "--a", "0.15", "--d", "0.8075"),
            ("solve", "--a", "0.5", "--d", "0.4999"),
            ("sweep", "--dim", "2", "--problem", "dirichlet-steklov", "--a", "0.15",
             "--d-steps", "7", "--jobs", "2"),
        ):
            argv = [sys.executable, "-m", "steklov_shell.cli", *args, "--format", "csv"]
            out = []
            for threads in ("1", "2"):
                env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
                proc = subprocess.run(argv, env=env, capture_output=True, timeout=120, check=True)
                out.append(proc.stdout)
            assert out[0] == out[1], args


class TestSweepCommand:
    def test_monotone_bound_column(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--problem", "steklov", "--dim", "2", "--a", "0.5",
            "--d-steps", "8", "--no-solver", "--format", "csv",
        )
        assert code == 0
        rows = [l.split(",") for l in out.splitlines() if not l.startswith("#")][1:]
        bounds = [float(r[1]) for r in rows]
        assert all(b2 < b1 for b1, b2 in zip(bounds, bounds[1:]))

    def test_ratio_interior_argmax(self, capsys):
        code, out, _ = run_cli(capsys, "ratio", "--dim", "3", "--eps-steps", "50", "--format", "csv")
        assert code == 0
        star = float(next(l for l in out.splitlines() if l.startswith("# eps_star=")).split("=")[1])
        assert 0 < star < 1

    def test_empty_grid_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "sweep", "--problem", "steklov", "--dim", "2", "--a", "0.5",
            "--d-steps", "0", "--no-solver",
        )
        assert code == 2

    def test_solver_flags_validated_before_sweep(self, capsys, monkeypatch):
        # --no-solver is the one sweep option only the planar solver column
        # reads: at --dim 3 it is refused before any row runs.
        def unread(cfg, kind, **tol):
            raise AssertionError("a row ran")

        monkeypatch.setattr(rayleigh, "surface_bound", unread)
        code, out, err = run_cli(
            capsys, "sweep", "--problem", "steklov", "--dim", "3", "--a", "0.5",
            "--d-steps", "4", "--no-solver",
        )
        assert (code, out) == (2, "")
        assert err == "error: --no-solver applies only to planar sweeps (--dim 2)\n"

    def test_full_precision_round_trip(self, capsys):
        code, out, _ = run_cli(
            capsys, "bound", "--dim", "2", "--a", "0.5", "--d", "0.3", "--format", "csv"
        )
        assert code == 0
        from steklov_shell import rayleigh
        from steklov_shell.geometry import ShellConfig

        header = [l for l in out.splitlines() if not l.startswith("#")][0].split(",")
        data = out.splitlines()[-1].split(",")
        printed = float(data[header.index("bound")])
        assert printed == rayleigh.steklov_bound(ShellConfig(2, 0.5, 0.3)).bound

    def test_out_file_and_byte_determinism(self, capsys, tmp_path):
        for problem, d_steps in (("dirichlet-steklov", "5"), ("steklov", "6")):
            paths = [tmp_path / f"{problem}1.csv", tmp_path / f"{problem}2.csv"]
            for p in paths:
                code, _, _ = run_cli(
                    capsys, "sweep", "--problem", problem, "--dim", "3",
                    "--a", "0.4", "--d-steps", d_steps, "--format", "csv", "--out", str(p),
                )
                assert code == 0
            assert paths[0].read_bytes() == paths[1].read_bytes()
            text = paths[0].read_text()
            assert text.startswith("# manifest: command=sweep")
            assert "d,bound,closed_form" in text

    def test_jobs_do_not_change_bytes(self, capsys, tmp_path):
        # A bound-only sweep, and planar ones with the solver column for both problems.
        for problem, dim, a in (
            ("steklov", "4", "0.3"), ("steklov", "2", "0.5"), ("dirichlet-steklov", "2", "0.5"),
        ):
            out = []
            for jobs in ("1", "2"):
                p = tmp_path / f"{problem}_dim{dim}_jobs{jobs}.csv"
                code, _, _ = run_cli(
                    capsys, "sweep", "--problem", problem, "--dim", dim, "--a", a,
                    "--d-steps", "4", "--format", "csv", "--jobs", jobs, "--out", str(p),
                )
                assert code == 0
                out.append(p.read_bytes())
            assert out[0] == out[1]

    @pytest.mark.parametrize("jobs, cores, workers", [
        ("5000", 8, 4),  # at most one process per task
        ("3", 8, 3),
        ("0", 2, 2),     # 0 means all cores
        ("5000", 2, 2),  # at most one process per core
    ])
    def test_pool_size_is_bounded(self, capsys, monkeypatch, forks, jobs, cores, workers):
        # The processes computing rows are this one and its forked children.
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cores)
        code, _, _ = run_cli(
            capsys, "sweep", "--problem", "steklov", "--dim", "4", "--a", "0.3",
            "--d-steps", "4", "--format", "csv", "--jobs", jobs,
        )
        assert code == 0
        assert len(forks) + 1 == workers
        assert_no_children()

    def test_pooled_solver_rows_start_no_blas_threads(self, monkeypatch):
        # Setting a thread count, or a level-3 BLAS call, in a forked child
        # starts a spinning OpenBLAS server thread; its solver rows need neither.
        if not os.path.isdir("/proc/self/task") or not openblas_loaded():
            pytest.skip("needs /proc/self/task and a loaded OpenBLAS")
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        parent = os.getpid()

        def row_threads(d):
            solver.solve_steklov(ShellConfig(2, 0.5, d))
            return os.getpid(), len(os.listdir("/proc/self/task"))

        (pid0, _), (pid1, child_threads) = cli._fan_out(row_threads, [0.0, 0.2], 2)
        assert pid0 == parent and pid1 != parent
        assert child_threads == 1

    def test_fan_out_starts_no_thread_in_this_process(self, monkeypatch, forks):
        # A fork shuts OpenBLAS's thread server down in this process; setting
        # a thread count after the forks would restart it, with spinning threads.
        if not os.path.isdir("/proc/self/task"):
            pytest.skip("needs /proc/self/task")
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        before = set(os.listdir("/proc/self/task"))
        rows = cli._fan_out(lambda d: solver.solve_steklov(ShellConfig(2, 0.5, d)).principal,
                            [0.0, 0.2], 2)
        assert len(forks) == 1 and len(rows) == 2
        assert set(os.listdir("/proc/self/task")) <= before

    def test_rows_come_back_in_task_order(self, monkeypatch, forks):
        # Task i runs in share i % 3; the rows are put back in task order.
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
        parent = os.getpid()
        rows = cli._fan_out(lambda i: (i, os.getpid()), list(range(7)), 0)
        assert [i for i, _ in rows] == list(range(7))
        pids = [pid for _, pid in rows]
        assert pids[0::3] == [parent] * 3
        assert set(pids[1::3]) == {forks[0]} and set(pids[2::3]) == {forks[1]}
        assert_no_children()

    def test_off_linux_the_rows_run_in_process(self, capsys, monkeypatch, forks):
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
        monkeypatch.setattr(cli.sys, "platform", "darwin")
        code, out, _ = run_cli(capsys, *FOUR_ROW_SWEEP, "--jobs", "4")
        assert code == 0
        assert len([l for l in out.splitlines() if not l.startswith("#")]) == 5
        assert forks == []

    @pytest.mark.parametrize("exc_type, exit_code", [(NonConvergenceError, 3), (ValueError, 2)])
    @pytest.mark.parametrize("failing, first", [
        ({2}, 2),     # in this process's share (rows 0 and 2)
        ({1}, 1),     # in the child's share (rows 1 and 3)
        ({1, 2}, 1),  # the child's failure comes first
        ({2, 3}, 2),  # this process's failure comes first
    ])
    def test_failures_match_the_serial_run(self, capsys, monkeypatch, forks, exc_type, exit_code,
                                           failing, first):
        monkeypatch.setattr(rayleigh, "surface_bound", rows_failing_at(failing, exc_type))
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        serial = run_cli(capsys, *FOUR_ROW_SWEEP, "--jobs", "1")
        assert forks == []
        fanned = run_cli(capsys, *FOUR_ROW_SWEEP, "--jobs", "2")
        assert len(forks) == 1
        assert fanned == serial
        code, out, err = serial
        assert code == exit_code
        assert out == ""
        assert f"row {first} failed" in err
        assert_no_children()

    def test_a_child_that_dies_without_its_rows_exits_1(self, capsys, monkeypatch, forks):
        parent = os.getpid()

        def bound(cfg, kind, **tol):
            if os.getpid() != parent:
                os._exit(1)
            return SimpleNamespace(value=1.0)

        monkeypatch.setattr(rayleigh, "surface_bound", bound)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        code, out, err = run_cli(capsys, *FOUR_ROW_SWEEP, "--jobs", "2")
        assert code == 1
        assert out == ""
        assert "internal error" in err and "without its rows" in err
        assert len(forks) == 1
        assert_no_children()

    def test_an_interrupt_of_this_process_kills_the_children(self, monkeypatch, forks):
        parent = os.getpid()

        def row(i):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            time.sleep(60)

        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        started = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            cli._fan_out(row, [0, 1], 2)
        assert time.monotonic() - started < 30
        assert len(forks) == 1
        assert_no_children()

    def test_ratio_sweep_runs_without_the_pool(self, capsys, monkeypatch, forks):
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
        code, out, _ = run_cli(capsys, "ratio", "--dim", "3", "--format", "csv")
        assert code == 0
        rows = [l for l in out.splitlines() if not l.startswith("#")][1:]
        assert len(rows) == 200
        assert forks == []

    def test_ratio_sweep_rejects_tol(self, capsys):
        # The ratio sweep integrates nothing, so it reads no --tol.
        with pytest.raises(SystemExit) as exc:
            cli.main(["ratio", "--dim", "3", "--eps-steps", "2", "--tol", "1e-3", "--format", "csv"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "--tol" in err

    def test_negative_jobs_rejected(self, capsys):
        code, out, err = run_cli(
            capsys, "sweep", "--problem", "steklov", "--dim", "4", "--a", "0.3",
            "--d-steps", "4", "--jobs", "-3",
        )
        assert code == 2
        assert out == ""
        assert "--jobs" in err


class TestVerifyCommand:
    def test_subset_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--level", "fast", "--checks", "wallis")
        assert code == 0
        assert "PASS wallis_recursion_consistency" in out

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        _, out, _ = run_cli(capsys, "verify", "--checks", "wallis")
        path = tmp_path / "report.txt"
        code, printed, _ = run_cli(capsys, "verify", "--checks", "wallis", "--out", str(path))
        assert code == 0
        assert printed == ""
        assert path.read_bytes() == out.encode("utf-8")

    def test_fault_injection_fails_named_check(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--level", "fast", "--checks", "w2_vanishes",
            "--inject-fault", "w2-sign",
        )
        assert code == 1
        assert "FAIL w2_vanishes" in out

    def test_fault_hook_direct(self):
        assert check_w2_vanishes(None).passed
        assert not check_w2_vanishes("w2-sign").passed

    @pytest.mark.parametrize("pattern, name", [
        ("finite_difference", "radius_deriv_finite_difference"),
        ("solver_below", "solver_below_rayleigh_bound"),
    ])
    def test_checks_filter_on_report_names(self, capsys, pattern, name):
        code, out, _ = run_cli(capsys, "verify", "--checks", pattern)
        assert code == 0
        lines = out.splitlines()
        assert [line.split()[:2] for line in lines[:-1]] == [["PASS", name]]
        assert lines[-1] == "checks=1 failures=0"

    def test_checks_filter_matching_nothing_is_rejected(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--checks", "no_such_check")
        assert code == 2
        assert out == ""
        assert "no_such_check" in err

    def test_constant_bound_fails_strict_checks(self, capsys, monkeypatch):
        # A tie is not a strict decrease.
        monkeypatch.setattr(rayleigh, "surface_bound", lambda cfg, kind: SimpleNamespace(value=0.5))
        code, out, _ = run_cli(capsys, "verify", "--checks", "bound_strictly_decreasing")
        assert code == 1
        assert out.splitlines() == [
            "FAIL bound_strictly_decreasing measured=0 tolerance=0",
            "FAIL ds_bound_strictly_decreasing measured=0 tolerance=0",
            "checks=2 failures=2",
        ]


VALID_ARGV = {
    "spectrum": ["spectrum", "--dim", "2", "--a", "0.5"],
    "bound": ["bound", "--dim", "3", "--a", "0.4", "--d", "0.2"],
    "solve": ["solve", "--a", "0.5", "--d", "0.3"],
    "sweep": ["sweep", "--problem", "steklov", "--dim", "4", "--d-steps", "2", "--jobs", "1"],
    "ratio": ["ratio", "--dim", "3", "--eps-steps", "2"],
    "verify": ["verify", "--checks", "wallis"],
}


@pytest.mark.parametrize("command, option, value", [
    ("spectrum", "--jobs", "1"),
    ("spectrum", "--tol", "1e-3"),
    ("bound", "--jobs", "1"),
    ("solve", "--jobs", "1"),
    ("solve", "--tol", "1e-3"),
    ("solve", "--order", "24"),
    ("solve", "--points", "512"),
    ("verify", "--format", "csv"),
    ("verify", "--jobs", "7"),
    ("verify", "--tol", "1e-3"),
    ("ratio", "--a", "0.5"),
    ("ratio", "--d-steps", "3"),
    ("ratio", "--d-max", "0.2"),
    ("ratio", "--no-solver", None),
    ("ratio", "--order", "8"),
    ("ratio", "--points", "64"),
    ("ratio", "--jobs", "1"),
    ("ratio", "--tol", "1e-3"),
    ("sweep", "--eps-steps", "3"),
    ("sweep", "--order", "24"),
    ("sweep", "--points", "512"),
    ("sweep", "--problem", "ratio"),
])
def test_options_a_subcommand_does_not_read_are_rejected(capsys, command, option, value):
    # Each subcommand takes only the options it reads, so none is silently ignored.
    with pytest.raises(SystemExit) as exc:
        cli.main(VALID_ARGV[command] + [option] + ([] if value is None else [value]))
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert option in captured.err


def test_unwritable_out_is_a_usage_error(capsys, tmp_path):
    # The path is user input: exit 2 naming it, not an internal error or
    # the exit 1 of a failed check.
    path = tmp_path / "missing" / "x.csv"
    for argv in (["bound", "--dim", "2", "--a", "0.5", "--d", "0.1"],
                 ["verify", "--checks", "wallis"]):
        code, out, err = run_cli(capsys, *argv, "--out", str(path))
        assert code == 2
        assert out == ""
        assert str(path) in err and "internal error" not in err
    assert not path.parent.exists()


def test_benchmark_tracer_drives_the_cli():
    # perfbench/run.py --trace 1 wraps the package's functions by name and runs
    # the CLI through them; a rename or a changed signature breaks it here too.
    root = Path(__file__).resolve().parents[1]
    script = textwrap.dedent(f"""
        import contextlib, io, json, sys
        sys.path[:0] = [{str(root / "perfbench")!r}, {str(root / "src")!r}]
        import tracer
        from steklov_shell import cli

        spans = tracer.Tracer()
        spans.install()
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [cli.main(["sweep", "--problem", "steklov", "--dim", "2", "--a", "0.2",
                               "--d-max", "0.7", "--d-steps", "2", "--jobs", "1", "--format", "csv"])]
            sweep = spans.metrics()
            verify_solves = [sweep["solver.solves"]]
            codes.append(cli.main(["verify", "--checks", "solver_zero_mode"]))
            verify_solves.append(spans.metrics()["solver.solves"])
            before_solve = spans.metrics()["solver.boundary_residual.s"]
            codes.append(cli.main(["solve", "--a", "0.5", "--d", "0.3", "--format", "csv"]))
            before_mixed = spans.metrics()
            codes.append(cli.main(["sweep", "--problem", "dirichlet-steklov", "--dim", "2",
                                   "--a", "0.5", "--d-steps", "2", "--jobs", "1"]))
        metrics = spans.metrics()
        print(json.dumps({{"codes": codes, "solves": metrics["solver.solves"],
                          "sweep_calls": [sweep["solver.attempts"], sweep["solver.solves"]],
                          "verify_solves": verify_solves,
                          "residual_s": [before_solve, metrics["solver.boundary_residual.s"]],
                          "mixed_solves": [before_mixed["solver.solves"], metrics["solver.solves"]],
                          "ds_bound_ms": [before_mixed["rayleigh.ds_bound.ms_per_call"],
                                          metrics["rayleigh.ds_bound.ms_per_call"]]}}))
    """)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=300, cwd=root)
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout)
    assert record["codes"] == [0, 0, 0, 0]
    assert record["solves"] > 0
    # A sweep row is one solve, also at a small hole: no attempt is thrown away.
    attempts, solves = record["sweep_calls"]
    assert attempts == solves == 2
    # verify shares its solves through the solver module's names, looked up
    # when called, so the tracer's wrapped solver still counts them.
    before_verify, after_verify = record["verify_solves"]
    assert after_verify > before_verify
    # Sweeps and checks that never read a residual do not pay for one; the
    # residual that solve prints is timed under the tracer's residual span.
    before_solve, after_solve = record["residual_s"]
    assert before_solve == 0
    assert after_solve > 0
    # The mixed sweep reaches the traced solve through the problem table,
    # which looks it up when called: two rows, two solves.  Its bound column
    # is the surface form, which never calls the adaptive ds_bound.
    before_mixed, after_mixed = record["mixed_solves"]
    assert after_mixed == before_mixed + 2
    assert record["ds_bound_ms"] == [0, 0]


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
