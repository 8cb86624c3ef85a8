"""Memory of a run: the working set of a step counted in fields, and the
initial arrays that both systems of a sweep share."""

import tracemalloc

import numpy as np
import pytest

from hydrolimit.pehm import run as pehm_run
from hydrolimit.shmhd import ShmhdParams, run as shmhd_run
from hydrolimit.sweep import SweepConfig, initial_states


def _drop(state, record):
    """A sample hook that keeps no state."""


def _run(system, cfg, s0, p0, steps):
    if system == "shmhd":
        return shmhd_run(s0, ShmhdParams(eps=0.1, alpha=3.0, dt=cfg.dt, t_end=steps * cfg.dt), sample=_drop)
    return pehm_run(p0, cfg.dt, steps * cfg.dt, sample=_drop)


# A step frees each temporary at its last use; keeping the predictor, both
# tendency lists or all six Leray outputs alive read 45 and 30 fields.  The
# peak is counted in units of one field's stored array, so the bounds hold
# whatever that storage is.
@pytest.mark.parametrize("system, bound", [("shmhd", 32), ("pehm", 26)])
def test_step_peak_in_fields(system, bound):
    cfg = SweepConfig(16, 16, 16)
    s0, p0 = initial_states(cfg)
    tracemalloc.start()
    try:
        _run(system, cfg, s0, p0, 3)
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
        _run(system, cfg, s0, p0, 2)
    for f, b in zip(s0.fields(), before):
        assert np.array_equal(f.half, b)
