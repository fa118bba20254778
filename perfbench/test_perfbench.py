"""The benchmark's own tests: its output gate turns wrong answers into failed ops.

    python3 -m pytest perfbench/test_perfbench.py -q

Run from the root of the checkout; takes about 20 s (one faulted verify run and
a few small planar sweeps).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SMALL_SWEEP = {"a": [0.5]}


def _failed_ratio(result: workloads.PassResult) -> float:
    return result.failed / result.attempted


def test_injected_verify_fault_fails_ops():
    result = workloads.run_pass("verify_fast", {}, ["--inject-fault", "w2-sign"])
    workloads.check_pass("verify_fast", {}, result)
    assert result.status == [1]
    assert _failed_ratio(result) > 0
    assert any("w2_vanishes" in msg for msg in result.failures[0])
    names = {line.split()[1] for line in result.outputs[0].splitlines()[:-1]}
    assert names == _declared_check_names()


def test_swapped_bound_row_fails_the_sweep():
    result = workloads.run_pass("planar_sweep", SMALL_SWEEP, ["--jobs", "1"])
    workloads.check_pass("planar_sweep", SMALL_SWEEP, result)
    assert result.failed == 0

    lines = result.outputs[0].splitlines()
    first = next(i for i, ln in enumerate(lines) if ln and ln[0].isdigit())
    a, b = lines[first + 5].split(","), lines[first + 6].split(",")
    a[1], b[1] = b[1], a[1]
    lines[first + 5], lines[first + 6] = ",".join(a), ",".join(b)
    result.outputs[0] = "\n".join(lines) + "\n"
    workloads.check_pass("planar_sweep", SMALL_SWEEP, result)
    assert result.failures[0] == ["bound not strictly decreasing in d"]
    assert _failed_ratio(result) > 0


def test_changed_output_between_passes_fails():
    first = workloads.run_pass("planar_sweep", SMALL_SWEEP, ["--jobs", "1"])
    later = workloads.run_pass("planar_sweep", SMALL_SWEEP, ["--jobs", "1"])
    for p in (first, later):
        workloads.check_pass("planar_sweep", SMALL_SWEEP, p)
    workloads.mark_changed_outputs(first, later)
    assert later.failed == 0
    later.outputs[1] = later.outputs[1].replace("\n", "\r\n")
    workloads.mark_changed_outputs(first, later)
    assert later.failed == 1


def test_solver_above_bound_fails_the_sweep():
    result = workloads.run_pass("planar_sweep", SMALL_SWEEP, ["--jobs", "1"])
    lines = result.outputs[1].splitlines()
    last = lines[-1].split(",")
    last[2] = repr(float(last[1]) + 1e-6)
    result.outputs[1] = "\n".join(lines[:-1] + [",".join(last)]) + "\n"
    workloads.check_pass("planar_sweep", SMALL_SWEEP, result)
    assert result.failures[0] == []
    assert any(msg.startswith("solver above the bound") for msg in result.failures[1])


def _declared_check_names() -> set[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"][len("verify."):-len("_s")] for m in spec["per_layer"] if m["name"].startswith("verify.")}


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "planar_sweep", "--seed", "1", "--seconds", "1",
         "--trace", "0"], cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
