"""The package's public surface: every exported name exists, and importing
the CLI loads no more than a serial run needs."""

import os
from pathlib import Path
import subprocess
import sys

import hydrolimit

SRC = str(Path(__file__).resolve().parent.parent / "src")


def test_every_exported_name_resolves():
    missing = [name for name in hydrolimit.__all__ if not hasattr(hydrolimit, name)]
    assert not missing, f"names in hydrolimit.__all__ with no definition: {missing}"


def test_cli_import_leaves_the_process_pool_unloaded():
    """Only a sweep with --jobs above 1 pays for importing the process pool."""
    code = ("import sys, hydrolimit.cli; "
            "print([m for m in ('multiprocessing', 'concurrent.futures.process') if m in sys.modules])")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          timeout=60, check=True)
    assert proc.stdout.strip() == "[]"
