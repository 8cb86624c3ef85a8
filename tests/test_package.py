"""The package's shape: each name has one home, the module that defines it, and
importing the CLI loads no more than a serial run needs."""

import ast
import os
from pathlib import Path
import subprocess
import sys

SRC = str(Path(__file__).resolve().parent.parent / "src")


def unread_imports(source: str) -> list[str]:
    """Every name that an import in source binds and no expression reads."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            # ``import a.b`` binds ``a``
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in bound if name not in read]


def test_every_imported_name_is_read():
    """No module imports a name only to re-export it (or not at all): callers
    import each name from the module that defines it."""
    unread = [
        f"{path.name}: {name}"
        for path in sorted(Path(SRC, "hydrolimit").glob("*.py"))
        for name in unread_imports(path.read_text())
    ]
    assert not unread, f"imported names that their module never reads: {unread}"


def test_cli_import_leaves_the_process_pool_unloaded():
    """Only a sweep with --jobs above 1 pays for importing the process pool."""
    code = ("import sys, hydrolimit.cli; "
            "print([m for m in ('multiprocessing', 'concurrent.futures.process') if m in sys.modules])")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          timeout=60, check=True)
    assert proc.stdout.strip() == "[]"
