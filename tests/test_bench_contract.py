"""The benchmark's contract with the package: every function its tracer wraps
must exist, or its per-layer metric silently reads null, and the tendency
probe's check must pass through the ``.coeffs`` access the probe uses."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from hydrolimit.shmhd import nonlinear_tendency
from hydrolimit.sweep import SweepConfig, initial_states

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACEHOOK = PERFBENCH / "tracehook" / "sitecustomize.py"


def load_by_path(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def tracehook(monkeypatch):
    # with PERFBENCH_TRACE_DIR unset, loading the module installs nothing
    monkeypatch.delenv("PERFBENCH_TRACE_DIR", raising=False)
    return load_by_path("perfbench_tracehook", TRACEHOOK)


def test_every_traced_target_resolves(tracehook):
    assert tracehook.TARGETS
    missing = [
        f"{mod}.{attr}" for mod, attr, _ in tracehook.TARGETS
        if not callable(getattr(importlib.import_module(mod), attr, None))
    ]
    assert not missing, f"traced functions missing from the package: {missing}"


def test_probe_tendency_check_passes_on_coeffs():
    """perfbench/probe.py reads the full spectra of the seeded state and of
    its nonlinear tendency through ``.coeffs`` and checks them against the
    benchmark's own divergence-form evaluation."""
    checks = load_by_path("perfbench_checks", PERFBENCH / "checks.py")
    cfg = SweepConfig(n1=16, n2=16, n3=16)
    s_eps, _ = initial_states(cfg)
    ta, tb = nonlinear_tendency(s_eps)
    a = [f.coeffs for f in s_eps.a.components()]
    b = [f.coeffs for f in s_eps.b.components()]
    got_a = [f.coeffs for f in ta.components()]
    got_b = [f.coeffs for f in tb.components()]
    ref_a, ref_b = checks.divergence_form_tendency(a, b, cfg.l1, cfg.l2)
    assert checks.check_tendency(got_a, got_b, ref_a, ref_b) <= checks.TENDENCY_RTOL
