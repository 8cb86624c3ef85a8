"""The package's shape: each name has one home, the module that defines it,
each name that a module defines has a reader outside the tests, only
``spectral.py`` reads how a field is stored, only the benchmark's edge holds
half-spectrum fields, importing the CLI loads no more than a serial run
needs, and the declared numpy floor has every numpy feature the code calls."""

import ast
import os
from pathlib import Path
import re
import subprocess
import sys

ROOT = Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")

# module-level names that only the tests read, each with the reason it stays
READ_BY_TESTS_ONLY = {
    "diagnostics.py:trilinear_check": "acceptance criterion 8 reads it",
}

# The benchmark's edge: the only definitions outside ``spectral.py`` that read
# a half-spectrum field (``EDGE_NAMES``, or a ``Sample``'s ``.state``), each
# with the ``perfbench/`` file that pins it.  A class stands for its members.
EDGE = {
    "constraints.py:VectorState": "probe.py",  # reads .components() of a state and of a tendency
    "shmhd.py:ElsasserState": "probe.py",  # times nonlinear_tendency on one
    "shmhd.py:nonlinear_tendency": "probe.py",
    "pehm.py:PehmState": "ledger_child.py",  # runs from one
    "integrator.py:Sample.state": "ledger_child.py",  # saves a linear run's first and last states
    "integrator.py:run": "ledger_child.py",  # gathers the state it runs from
    "sweep.py:initial_states": "run.py",  # setup_s times it; ledger_child.py and probe.py seed with it
}
EDGE_NAMES = {"SpectralField", "VectorState", "from_band", "gather"}


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


def edge_readers(path: Path) -> set[str]:
    """``<file>:<definition>`` of each definition in path that reads a name of
    ``EDGE_NAMES`` or an attribute ``.state``, imports aside; a class member is
    ``<class>.<member>``, a class-level statement the class itself."""
    def reads_edge(node):
        return any((isinstance(n, ast.Name) and n.id in EDGE_NAMES)
                   or (isinstance(n, ast.Attribute) and n.attr in EDGE_NAMES | {"state"}) for n in ast.walk(node))

    readers = set()
    for stmt in ast.parse(path.read_text()).body:
        if isinstance(stmt, ast.ClassDef):
            parts = [(f"{stmt.name}.{m.name}" if isinstance(m, ast.FunctionDef) else stmt.name, m) for m in stmt.body]
        else:
            parts = [(getattr(stmt, "name", f"line {stmt.lineno}"), stmt)]
        readers |= {f"{path.name}:{name}" for name, node in parts if reads_edge(node)}
    return readers


def test_only_the_benchmarks_edge_reads_half_spectrum_fields():
    """Outside ``spectral.py`` a field is its band block: only the ``EDGE``
    definitions, which ``perfbench/`` still reads, hold ``SpectralField``s, and
    each of them still does (so the map lists no definition that has moved on)."""
    readers = set().union(*(edge_readers(path) for path in sorted(Path(SRC, "hydrolimit").glob("*.py"))
                            if path.name != "spectral.py"))

    def covers(edge, reader):
        return reader == edge or reader.startswith(edge + ".")

    outside = sorted(r for r in readers if not any(covers(e, r) for e in EDGE))
    assert not outside, f"definitions outside the benchmark's edge that read half-spectrum fields: {outside}"
    stale = sorted(e for e in EDGE if not any(covers(e, r) for r in readers))
    assert not stale, f"edge definitions that no longer read half-spectrum fields: {stale}"
    assert all((ROOT / "perfbench" / pin).is_file() for pin in EDGE.values())


def test_cli_import_leaves_the_process_pool_unloaded():
    """Only a sweep with --jobs above 1 pays for importing the process pool."""
    code = ("import sys, hydrolimit.cli; "
            "print([m for m in ('multiprocessing', 'concurrent.futures.process') if m in sys.modules])")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          timeout=60, check=True)
    assert proc.stdout.strip() == "[]"


def test_declared_numpy_floor_accepts_the_transforms_out_argument():
    """``spectral.py`` passes ``out=`` to ``np.fft.fft`` and ``np.fft.ifft``,
    which numpy accepts only from 2.0 on, so the declared floor is at least 2.0."""
    deps = re.search(r"^dependencies\s*=\s*\[(.*?)\]", (ROOT / "pyproject.toml").read_text(), re.M | re.S)
    floors = re.findall(r"""["']numpy\s*>=\s*(\d+(?:\.\d+)*)""", deps.group(1))
    assert len(floors) == 1, f"no single numpy floor in the dependencies: {deps.group(1)!r}"
    assert tuple(int(x) for x in floors[0].split(".")) >= (2, 0)
    assert "out=" in (ROOT / "src" / "hydrolimit" / "spectral.py").read_text()
