"""The scripts in scripts/ run to completion against the package in src/."""

import os
from pathlib import Path
import subprocess
import sys

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script, args", [
    ("run_energy_audit.py", ["--steps", "2"]),
    ("run_temporal_order.py", []),
])
def test_script_runs(script, args):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    for system in ("shmhd", "pehm"):
        assert any(line.startswith(system) for line in lines), proc.stdout
    assert "FAIL" not in proc.stdout
