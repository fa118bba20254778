"""Acceptance suite: one test per verify check, with its report name as test id.

``verify.FULL_CHECKS`` is the only definition of each invariant, its grid and
its tolerance; this module runs every check as it is.  Each check runs twice:
it must PASS, and its report line must be byte-identical both times.  The
determinism test also asks the same of the whole fast report and of a sweep
CSV written through the command line.  Run
``pytest -v tests/test_acceptance.py`` to see one test id per report line.

``run_checks`` shares the checks' solves for the duration of one call; the
last tests check that the sharing changes no report line, that one call
solves no problem twice, and that nothing outlives the call.
"""

import gc
import inspect
import weakref

import pytest

from steklov_shell import cli, solver, verify


@pytest.mark.parametrize("check", verify.FULL_CHECKS, ids=verify.check_name)
def test_check(check):
    first, second = check(), check()
    assert first.name == verify.check_name(check)
    assert first.passed, first.line()
    assert first.line() == second.line()


def test_every_check_is_registered_once():
    # A check_ function missing from the registry would never run, here or in verify.
    defined = [name for name, _ in inspect.getmembers(verify, inspect.isfunction)
               if name.startswith("check_") and name != "check_name"]
    assert sorted(check.__name__ for check in verify.FULL_CHECKS) == defined
    assert verify.FULL_CHECKS[:len(verify.FAST_CHECKS)] == verify.FAST_CHECKS


def test_criterion_12_determinism(tmp_path):
    reports = [verify.format_report(verify.run_checks("fast")) for _ in range(2)]
    assert reports[0] == reports[1]
    assert "FAIL" not in reports[0]
    blobs = []
    for i in range(2):
        out = tmp_path / f"det{i}.csv"
        code = cli.main([
            "sweep", "--problem", "steklov", "--dim", "3", "--a", "0.4",
            "--d-steps", "6", "--format", "csv", "--out", str(out),
        ])
        assert code == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]


SOLVE_NAMES = ("solve_steklov", "solve_dirichlet_steklov", "solve_with_order_fallback")


@pytest.fixture
def solves(monkeypatch):
    """Every outermost solver call, as (function name, problem, a, d).

    The attempts the order fallback makes on its own are not counted.
    """
    calls, depth = [], [0]
    for name in SOLVE_NAMES:

        def counted(cfg, *args, _name=name, _solve=getattr(solver, name), **kwargs):
            if not depth[0]:
                calls.append((_name, kwargs.get("problem"), cfg.a, cfg.d))
            depth[0] += 1
            try:
                return _solve(cfg, *args, **kwargs)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(solver, name, counted)
    return calls


@pytest.mark.parametrize("name_filter", ["solver", "tau"])
def test_run_checks_solves_each_problem_once(solves, name_filter):
    shared = [r.line() for r in verify.run_checks(name_filter=name_filter)]
    shared_solves = list(solves)
    solves.clear()
    checks = [c for c in verify.FAST_CHECKS if name_filter in verify.check_name(c)]
    direct = [check().line() for check in checks]
    # The same report from the same problems, each solved once.
    assert shared == direct
    assert len(set(shared_solves)) == len(shared_solves)
    assert set(shared_solves) == set(solves)
    assert len(shared_solves) < len(solves)


def test_a_check_called_directly_solves_everything_itself(solves):
    verify.check_solver_below_rayleigh_bound()
    first = list(solves)
    verify.check_solver_below_rayleigh_bound()
    assert first
    assert solves == first + first


def test_no_solve_outlives_run_checks(monkeypatch, solves):
    results = []
    tracked = solver.solve_steklov

    def solve_steklov(*args, **kwargs):
        result = tracked(*args, **kwargs)
        results.append(weakref.ref(result))
        return result

    def check_that_raises():
        raise RuntimeError("a check failed to run")

    monkeypatch.setattr(solver, "solve_steklov", solve_steklov)
    verify.run_checks(name_filter="solver_zero_mode")
    monkeypatch.setattr(verify, "FAST_CHECKS", [verify.check_solver_zero_mode, check_that_raises])
    with pytest.raises(RuntimeError):
        verify.run_checks()
    gc.collect()
    assert len(results) == 6
    assert all(ref() is None for ref in results)
    # A later call solves again instead of reading a result left behind.
    assert solves[:3] == solves[3:]
