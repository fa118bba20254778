"""Acceptance suite: one test per verify check, with its report name as test id.

``verify.FULL_CHECKS`` is the only definition of each invariant, its grid and
its tolerance; this module runs every check as it is.  Each check runs twice:
it must PASS, and its report line must be byte-identical both times.  The
determinism test also asks the same of the whole fast report and of a sweep
CSV written through the command line.  Run
``pytest -v tests/test_acceptance.py`` to see one test id per report line.
"""

import pytest

from steklov_shell import cli, verify


@pytest.mark.parametrize("check", verify.FULL_CHECKS, ids=verify.check_name)
def test_check(check):
    first, second = check(), check()
    assert first.name == verify.check_name(check)
    assert first.passed, first.line()
    assert first.line() == second.line()


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
