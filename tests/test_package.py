"""The package's shape: each name has one home, the module that defines it,
each name that a module defines has a reader outside the tests, only
``spectral.py`` reads how a field is stored, and importing the CLI loads no
more than a serial run needs."""

import ast
import os
from pathlib import Path
import subprocess
import sys

ROOT = Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")

# module-level names that only the tests read, each with the reason it stays
READ_BY_TESTS_ONLY = {
    "diagnostics.py:trilinear_check": "acceptance criterion 8 reads it",
}


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


def defined_names(stmt: ast.stmt) -> list[str]:
    """The functions, classes and constants that a module-level statement
    defines, dunder names such as ``__version__`` left out."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [stmt.name]
    elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        names = [t.id for t in targets if isinstance(t, ast.Name)]
    else:
        names = []
    return [n for n in names if not (n.startswith("__") and n.endswith("__"))]


def read_names(node: ast.AST) -> set[str]:
    """Every name that node reads: a name load, an attribute, an imported name,
    or a string constant (the benchmark's tracer names its targets by string)."""
    read = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            read.add(n.id)
        elif isinstance(n, ast.Attribute):
            read.add(n.attr)
        elif isinstance(n, ast.ImportFrom):
            read.update(alias.name for alias in n.names)
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            read.add(n.value)
    return read


def test_every_module_level_name_has_a_reader_outside_the_tests():
    """Each function, class and constant at module level in the package is read
    in ``src/``, ``scripts/`` or ``perfbench/``, outside its own definition: a
    name that only the tests read is a helper that exists only for them.

    Class members (methods, properties, fields) are not covered: their names,
    such as ``copy`` or ``x``, collide with numpy's and would always read as used.
    """
    files = [path for top in ("src", "scripts", "perfbench") for path in sorted((ROOT / top).rglob("*.py"))]
    statements = [(path, stmt) for path in files for stmt in ast.parse(path.read_text()).body]
    reads = [read_names(stmt) for _, stmt in statements]
    unread = [
        f"{path.name}:{name}"
        for i, (path, stmt) in enumerate(statements) if path.parent.name == "hydrolimit"
        for name in defined_names(stmt)
        if f"{path.name}:{name}" not in READ_BY_TESTS_ONLY
        and not any(name in r for j, r in enumerate(reads) if j != i)
    ]
    assert not unread, f"module-level names that nothing outside the tests reads: {unread}"


def test_only_spectral_reads_a_fields_storage():
    """How a ``SpectralField`` stores its coefficients is private to
    ``spectral.py``: every other module reaches them as band blocks, through
    ``gather`` and ``from_band``, and reads no ``.half``."""
    readers = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(SRC, "hydrolimit").glob("*.py")) if path.name != "spectral.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr == "half"
    ]
    assert not readers, f"modules that read a field's storage: {readers}"


def test_cli_import_leaves_the_process_pool_unloaded():
    """Only a sweep with --jobs above 1 pays for importing the process pool."""
    code = ("import sys, hydrolimit.cli; "
            "print([m for m in ('multiprocessing', 'concurrent.futures.process') if m in sys.modules])")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          timeout=60, check=True)
    assert proc.stdout.strip() == "[]"
