"""The scripts in scripts/ run to completion against the package in src/, and
reject bad input with one error line and exit code 2."""

import os
from pathlib import Path
import subprocess
import sys

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(script, args):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          capture_output=True, text=True, env=env, timeout=300)


@pytest.mark.parametrize("script, args", [
    ("run_energy_audit.py", ["--steps", "2"]),
    ("run_temporal_order.py", []),
])
def test_script_runs(script, args):
    proc = run_script(script, args)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    for system in ("shmhd", "pehm"):
        assert any(line.startswith(system) for line in lines), proc.stdout
    assert "FAIL" not in proc.stdout


def test_temporal_order_prints_the_pinned_errors():
    """The dt-refinement study's default output, pinned: the errors and the
    second order of both solvers against the manufactured solution."""
    proc = run_script("run_temporal_order.py", [])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "shmhd: errors 7.472e-04  1.864e-04  4.657e-05  orders 2.00  2.00",
        "pehm: errors 7.472e-04  1.864e-04  4.657e-05  orders 2.00  2.00",
    ]


@pytest.mark.parametrize("script, args", [
    ("run_energy_audit.py", ["--steps", "0"]),
    ("run_energy_audit.py", ["--steps", "2", "--eps", "-1"]),
    # 0.02 / 0.003 is not a whole number of steps
    ("run_temporal_order.py", ["--dt0", "0.003"]),
    ("run_temporal_order.py", ["--t-end", "0"]),
], ids=["steps0", "eps-1", "dt0-not-whole", "t_end0"])
def test_script_rejects_bad_input(script, args):
    proc = run_script(script, args)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error: "), proc.stderr
