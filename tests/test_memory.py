"""Memory of a run: the working set of a step counted in fields, the
initial arrays that both systems of a sweep share, and the arrays that samples
share with the states they record."""

import tracemalloc

import numpy as np
import pytest

from hydrolimit.pehm import run as pehm_run
from hydrolimit.shmhd import ShmhdParams, run as shmhd_run
from hydrolimit.sweep import SweepConfig, initial_states


def _drop(state, record):
    """A sample hook that keeps no state."""


def _copy(state, record):
    """A sample hook that keeps a copy of each array as it was when sampled."""
    return [f.half.copy() for f in state.fields()]


def _run(system, cfg, s0, p0, steps, **sample):
    """``steps`` steps of one system, with the sample hook given, if any."""
    if system == "shmhd":
        return shmhd_run(s0, ShmhdParams(eps=0.1, alpha=3.0, dt=cfg.dt, t_end=steps * cfg.dt), **sample)
    return pehm_run(p0, cfg.dt, steps * cfg.dt, **sample)


# A step frees each temporary at its last use, keeps its tendencies and IMEX
# updates as band blocks, and lifts each advected component to the lattice
# only for its own row of products: 25.5 and 19.5 fields at 16^3.  Full
# half-spectrum tendencies and updates with all six lattice fields lifted at
# once read 30.3 and 24.1; keeping the predictor, both tendency lists or all
# six Leray outputs alive as well read 45 and 30.  The peak is counted in units
# of one field's stored array, so the bounds hold whatever that storage is.
@pytest.mark.parametrize("system, bound", [("shmhd", 27), ("pehm", 21)])
def test_step_peak_in_fields(system, bound):
    cfg = SweepConfig(16, 16, 16)
    s0, p0 = initial_states(cfg)
    tracemalloc.start()
    try:
        _run(system, cfg, s0, p0, 3, sample=_drop)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / s0.a.h1.half.nbytes < bound


def test_runs_leave_the_shared_initial_arrays_unchanged():
    cfg = SweepConfig(8, 8, 8)
    s0, p0 = initial_states(cfg)
    assert p0.a_h[0].half is s0.a.h1.half
    before = [f.half.copy() for f in s0.fields()]
    for system in ("pehm", "shmhd"):
        _run(system, cfg, s0, p0, 2, sample=_drop)
    for f, b in zip(s0.fields(), before):
        assert np.array_equal(f.half, b)


@pytest.mark.parametrize("system", ["shmhd", "pehm"])
def test_samples_share_the_arrays_of_the_states_they_record(system):
    """With the default hook, the first sample holds s0's own arrays, and no
    later step writes into an array that a sample holds."""
    cfg = SweepConfig(8, 8, 8)
    s0, p0 = initial_states(cfg)
    start = s0 if system == "shmhd" else p0
    samples = _run(system, cfg, s0, p0, 3)
    assert all(f.half is g.half for f, g in zip(samples[0].state.fields(), start.fields(), strict=True))
    as_sampled = _run(system, cfg, s0, p0, 3, sample=_copy)
    for smp, arrays in zip(samples, as_sampled, strict=True):
        for f, a in zip(smp.state.fields(), arrays, strict=True):
            assert np.array_equal(f.half, a)
