"""The benchmark tracer's wrap list against the package: every function it
wraps must exist, or its per-layer metric silently reads null."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACEHOOK = Path(__file__).resolve().parent.parent / "perfbench" / "tracehook" / "sitecustomize.py"


@pytest.fixture
def tracehook(monkeypatch):
    # with PERFBENCH_TRACE_DIR unset, loading the module installs nothing
    monkeypatch.delenv("PERFBENCH_TRACE_DIR", raising=False)
    spec = importlib.util.spec_from_file_location("perfbench_tracehook", TRACEHOOK)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves(tracehook):
    assert tracehook.TARGETS
    missing = [
        f"{mod}.{attr}" for mod, attr, _ in tracehook.TARGETS
        if not callable(getattr(importlib.import_module(mod), attr, None))
    ]
    assert not missing, f"traced functions missing from the package: {missing}"
