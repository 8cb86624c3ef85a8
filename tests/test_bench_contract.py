"""The benchmark's contract with the package: every function its tracer wraps
must exist, or its per-layer metric silently reads null; every name its
scripts import must exist; the tendency probe's check must pass through
the ``.coeffs`` access the probe uses; the ledger round's seeded starts must
be the sweep's; and the linear-decay check must pass on the sample arrays the
ledger round saves, which must be each sampled field's half-spectrum."""

import ast
import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from hydrolimit import pehm, shmhd
from hydrolimit.pehm import run as pehm_run
from hydrolimit.shmhd import ShmhdParams, nonlinear_tendency
from hydrolimit.shmhd import run as shmhd_run
from hydrolimit.spectral import from_band, gather
from hydrolimit.sweep import SweepConfig, initial_samples, initial_states

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


def test_initial_states_are_the_initial_samples():
    """perfbench/ledger_child.py seeds from ``initial_states``: its PEHM start
    is the PEHM start ``Sample`` of a sweep, and its SHMHD state holds the
    blocks of the SHMHD start, bit for bit."""
    cfg = SweepConfig(n1=16, n2=16, n3=16)
    s_eps, s_lim = initial_states(cfg)
    want_eps, want_lim = initial_samples(cfg)
    assert len(s_lim.blocks) == len(want_lim.blocks) == len(pehm.FIELD_NAMES)
    assert all(np.array_equal(x, y) for x, y in zip(s_lim.blocks, want_lim.blocks, strict=True))
    assert s_lim.t == 0.0 and s_lim.record is None
    got = gather(s_eps.fields())
    assert len(got) == len(want_eps.blocks) == len(shmhd.FIELD_NAMES)
    assert all(np.array_equal(x, y) for x, y in zip(got, want_eps.blocks, strict=True))
    assert s_eps.t == 0.0


@pytest.mark.parametrize("system", ["shmhd", "pehm"])
def test_linear_decay_check_passes_on_sampled_arrays(system):
    """perfbench/ledger_child.py saves the complex arrays that
    ``statewalk.complex_arrays`` finds in the first and last sampled states of
    each linear run, and perfbench/run.py checks them with
    ``checks.check_linear_decay``, the one harness check that reads sample
    arrays: a change of their layout fails here, not in a ``ledger-32`` run.
    They are the half-spectrum of each field, in ``FIELD_NAMES`` order."""
    checks = load_by_path("perfbench_checks", PERFBENCH / "checks.py")
    statewalk = load_by_path("perfbench_statewalk", PERFBENCH / "statewalk.py")
    cfg = SweepConfig(n1=8, n2=8, n3=8, alpha=3.0, eps_ladder=(0.1,), dt=0.001, t_end=0.02, sample_every=2)
    s_eps0, s_lim0 = initial_states(cfg)
    eps = cfg.eps_ladder[0]
    if system == "shmhd":
        params = ShmhdParams(eps=eps, alpha=cfg.alpha, dt=cfg.dt, t_end=cfg.t_end, advect=False)
        traj = shmhd_run(s_eps0, params, cfg.sample_every)
        weight = eps ** (cfg.alpha - 2.0)
    else:
        traj = pehm_run(s_lim0, cfg.dt, cfg.t_end, cfg.sample_every, advect=False)
        weight = 0.0
    first = statewalk.complex_arrays(traj[0].state)
    last = statewalk.complex_arrays(traj[-1].state)
    names = (shmhd if system == "shmhd" else pehm).FIELD_NAMES
    for smp, arrays in ((traj[0], first), (traj[-1], last)):
        assert len(smp.blocks) == len(arrays) == len(names)
        for c, x in zip(smp.blocks, arrays, strict=True):
            assert x.shape == (cfg.n1, cfg.n2, cfg.n3 // 2 + 1)
            assert np.array_equal(x, from_band(cfg.grid, c).half)
    worst = checks.check_linear_decay(first, last, traj[-1].record.t, cfg.dt, cfg.n3, cfg.l1, cfg.l2,
                                      weight, system)
    assert worst <= 1.0


def hydrolimit_imports(path: Path) -> list[tuple[str, str | None]]:
    """Every ``(module, name)`` that a script imports from ``hydrolimit``, with
    name None for a plain ``import hydrolimit.x``, imports inside functions
    included."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "hydrolimit":
            found += [(node.module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            found += [(alias.name, None) for alias in node.names if alias.name.split(".")[0] == "hydrolimit"]
    return found


@pytest.mark.parametrize("script", ["ledger_child.py", "probe.py"])
def test_every_benchmark_import_resolves(script):
    """A renamed name crashes the ``ledger-32`` workload, or turns the probe's
    tendency check into "absent"."""
    imports = hydrolimit_imports(PERFBENCH / script)
    assert imports
    missing = [
        f"{mod}.{name}" if name else mod for mod, name in imports
        if importlib.util.find_spec(mod) is None
        or (name is not None and not hasattr(importlib.import_module(mod), name))
    ]
    assert not missing, f"{script} imports names missing from the package: {missing}"
