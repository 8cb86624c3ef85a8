"""Memory of a run: the working set of a step counted in fields, the
initial arrays that both systems of a sweep share, the band blocks that
samples keep of the states they record, the half-spectrum embeds that neither
a run nor a sweep makes, the heap pages that a run reuses, and the heap that a
process which only imports the package gives back."""

import ctypes
import os
from pathlib import Path
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from hydrolimit import cli
from hydrolimit.pehm import run as pehm_run
from hydrolimit.shmhd import ShmhdParams, run as shmhd_run
from hydrolimit.spectral import from_band
from hydrolimit.sweep import SweepConfig, initial_samples, initial_states, run_sweep

SRC = Path(__file__).resolve().parent.parent / "src"


def _drop(smp):
    """A sample hook that keeps no state."""


def _copy(smp):
    """A sample hook that keeps a copy of each array as it was when sampled:
    the rebuilt state's own arrays."""
    return [f.half for f in smp.state.fields()]


def _run(system, cfg, s0, p0, steps, **sample):
    """``steps`` steps of one system, with the sample hook given, if any."""
    if system == "shmhd":
        return shmhd_run(s0, ShmhdParams(eps=0.1, alpha=3.0, dt=cfg.dt, t_end=steps * cfg.dt), **sample)
    return pehm_run(p0, cfg.dt, steps * cfg.dt, **sample)


# A step frees each temporary at its last use, a run carries band blocks from
# one gather of s0 to its last sample (state, tendencies, IMEX updates,
# enforcement and the predictor), and the advection lifts each advected
# component to the lattice only for its own row of products: 15.1 and 12.7
# fields at 16^3 (14.7 and 12.5 at 64^3).  With a half-spectrum state between
# steps, gathered where used and embedded once per step, it read 19.2 and 15.4;
# with a half-spectrum predictor and enforcement too, 23.2 and 19.6 (SHMHD read
# 25.5 while its enforcement also projected onto the z parities).  Full
# half-spectrum tendencies and updates with all six lattice fields lifted at
# once read 30.3 and 24.1; keeping the predictor, both tendency lists or all six
# Leray outputs alive as well read 45 and 30.  The peak is counted in units of
# one field's stored array, so the bounds hold whatever that storage is.  A run
# from a state gathers a copy of its blocks, which step 1 frees; a run from a
# ``Sample`` reads the start's blocks and copies nothing.
@pytest.mark.parametrize("start", [initial_states, initial_samples])
@pytest.mark.parametrize("system, bound", [("shmhd", 17), ("pehm", 14)])
def test_step_peak_in_fields(system, bound, start):
    cfg = SweepConfig(16, 16, 16)
    s0, p0 = start(cfg)
    tracemalloc.start()
    try:
        _run(system, cfg, s0, p0, 3, sample=_drop)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / from_band(cfg.grid, initial_samples(cfg)[0].blocks[0]).half.nbytes < bound


def test_runs_leave_the_shared_initial_arrays_unchanged():
    """The PEHM start's blocks are the SHMHD start's horizontal blocks, a run's
    first sample keeps its start's arrays, and neither run writes into them."""
    cfg = SweepConfig(8, 8, 8)
    s0, p0 = initial_samples(cfg)
    assert all(x is y for x, y in zip(p0.blocks, [*s0.blocks[:2], *s0.blocks[3:5]], strict=True))
    before = [c.copy() for c in s0.blocks]
    for system, start in (("pehm", p0), ("shmhd", s0)):
        first = _run(system, cfg, s0, p0, 2)[0]
        assert all(x is y for x, y in zip(first.blocks, start.blocks, strict=True))
    for c, b in zip(s0.blocks, before, strict=True):
        assert np.array_equal(c, b)


def _complex_bytes(obj) -> int:
    """Bytes of the complex arrays reachable from obj through object attributes,
    lists and tuples, whatever the classes that hold them."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes if obj.dtype.kind == "c" else 0
    if isinstance(obj, (list, tuple)):
        children = obj
    elif hasattr(obj, "__dict__") and not isinstance(obj, type):
        children = vars(obj).values()
    else:
        return 0
    return sum(_complex_bytes(c) for c in children)


@pytest.mark.parametrize("system", ["shmhd", "pehm"])
def test_samples_keep_band_blocks_of_the_states_they_record(system):
    """With the default hook, every sample's state equals the state as it was
    when sampled, and the sample holds at most 0.3 of that state's half-spectrum
    bytes: one band block per field (75 of 320 modes at 8^3).  A sample keeps
    the run's own blocks, not a copy, so this also checks that no later step
    writes into them."""
    cfg = SweepConfig(8, 8, 8)
    s0, p0 = initial_states(cfg)
    samples = _run(system, cfg, s0, p0, 3)
    as_sampled = _run(system, cfg, s0, p0, 3, sample=_copy)
    for smp, arrays in zip(samples, as_sampled, strict=True):
        state = smp.state
        for f, a in zip(state.fields(), arrays, strict=True):
            assert np.array_equal(f.half, a)
        assert _complex_bytes(smp) <= 0.3 * sum(f.half.nbytes for f in state.fields())


def _count_embeds(monkeypatch) -> list:
    """Log each ``from_band`` call from any module of the package."""
    calls = []

    def counted(grid, block):
        calls.append(block.shape)
        return from_band(grid, block)

    for name, module in list(sys.modules.items()):
        if name.startswith("hydrolimit") and getattr(module, "from_band", None) is from_band:
            monkeypatch.setattr(module, "from_band", counted)
    return calls


@pytest.mark.parametrize("system", ["shmhd", "pehm"])
def test_a_run_embeds_no_field_in_the_half_spectrum(system, monkeypatch):
    """A run carries band blocks from its one gather of s0 on: with a hook that
    keeps only records, 3 steps at 8^3 call ``from_band`` from no module of the
    package, neither in the step nor in the records (an embed of each field
    of each new state would be 6 or 4 calls per step)."""
    cfg = SweepConfig(8, 8, 8)
    s0, p0 = initial_states(cfg)
    calls = _count_embeds(monkeypatch)
    records = _run(system, cfg, s0, p0, 3, sample=lambda smp: smp.record)
    assert [r.t for r in records] == pytest.approx([0.0, cfg.dt, 2 * cfg.dt, 3 * cfg.dt])
    assert calls == []


def test_a_sweep_and_a_simulate_embed_no_field_in_the_half_spectrum(monkeypatch, tmp_path):
    """The sweep and ``simulate`` seed, share and start their runs as band
    blocks: a serial sweep and a simulate of each system at 8^3 call
    ``from_band`` from no module of the package (seeding the data as
    half-spectrum states took 6 calls)."""
    cfg = SweepConfig(8, 8, 8, alpha=4.0, eps_ladder=(0.2, 0.1, 0.05), t_end=0.01, sample_every=2)
    config = tmp_path / "tiny.cfg"
    config.write_text("n1 = 8\nn2 = 8\nn3 = 8\nalpha = 4\neps = 0.2\nt_end = 0.01\nsample_every = 2\n")
    calls = _count_embeds(monkeypatch)
    assert [c.status for c in run_sweep(cfg, 1).cells] == ["ok"] * 3
    for system in ("shmhd", "pehm"):
        assert cli.main(["simulate", "--config", str(config), "--out", str(tmp_path), "--system", system]) == 0
    assert calls == []


HEAP_PROBE = """
import resource, sys
from hydrolimit.pehm import run as pehm_run
from hydrolimit.shmhd import ShmhdParams, run as shmhd_run
from hydrolimit.sweep import SweepConfig, initial_states

cfg = SweepConfig(32, 32, 32)
s0, p0 = initial_states(cfg)
for _ in range(2):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    if sys.argv[1] == "shmhd":
        shmhd_run(s0, ShmhdParams(eps=0.1, alpha=3.0, dt=cfg.dt, t_end=4 * cfg.dt))
    else:
        pehm_run(p0, cfg.dt, 4 * cfg.dt)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 4)
"""


def _has_mallopt() -> bool:
    try:
        ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return False
    return True


# Without the heap policy glibc trims the heap top after a step and the next
# step faults its pages back in: about 1.1k minor faults per 32^3 step.
@pytest.mark.skipif(not _has_mallopt(), reason="the C library has no mallopt")
@pytest.mark.parametrize("system", ["shmhd", "pehm"])
def test_a_run_reuses_the_heap_pages_of_the_last(system):
    """The second of two 4-step 32^3 runs in a fresh process takes fewer than
    100 minor page faults per step."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", HEAP_PROBE, system],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) < 100


IMPORT_PROBE = """
import os
import numpy as np
import hydrolimit.cli

def rss_mb():
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20

before = rss_mb()
arrays = [np.ones(1 << 19) for _ in range(60)]  # 60 arrays of 4 MiB
del arrays
print(before, rss_mb())
"""


# With the heap policy set at import, the RSS stayed at 275 MB after the free.
@pytest.mark.skipif(not os.path.exists("/proc/self/statm"), reason="no /proc/self/statm")
def test_importing_the_package_leaves_the_heap_policy_alone():
    """A process that imports the CLI but never steps gets back the 240 MiB it
    allocates and frees: its RSS falls to within 10 MB of where it started."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    before, after = map(float, proc.stdout.split())
    assert after - before < 10
