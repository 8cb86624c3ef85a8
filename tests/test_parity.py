"""Parity in z is an invariant of the step, not a constraint that it enforces:
a run keeps the horizontal components even and the verticals odd to rounding,
and the parity defect of each sample measures what the step did to them."""

import math

import pytest

from hydrolimit.constraints import EVEN_IN_Z, hydrostatic_reconstruct, parity_defect
from hydrolimit.integrator import Sample
from hydrolimit.pehm import run as pehm_run
from hydrolimit.shmhd import ShmhdParams
from hydrolimit.shmhd import run as shmhd_run
from hydrolimit.sweep import SweepConfig, initial_samples, initial_states


def _run(system, steps, s0, p0, dt):
    """``steps`` steps of one system at eps 0.1, alpha 3; its records."""
    if system == "shmhd":
        samples = shmhd_run(s0, ShmhdParams(eps=0.1, alpha=3.0, dt=dt, t_end=steps * dt))
    else:
        samples = pehm_run(p0, dt, steps * dt)
    return [smp.record for smp in samples]


@pytest.mark.parametrize("system", ["shmhd", "pehm"])
def test_fifty_steps_keep_parity_to_rounding(system):
    """No operator of the step leaves the parity subspace, so the defect stays
    at rounding relative to the state's size, sample after sample."""
    cfg = SweepConfig(16, 16, 16)
    records = _run(system, 50, *initial_states(cfg), cfg.dt)
    assert len(records) == 51
    for r in records:
        assert r.parity_defect <= 1e-13 * math.sqrt(r.e_l2)


@pytest.mark.parametrize("system", ["shmhd", "pehm"])
def test_a_wrong_parity_part_shows_in_the_defect_after_a_step(system):
    """An odd part added to a horizontal component is stepped like the rest, not
    projected away, so the record after one step still reports it."""
    cfg = SweepConfig(16, 16, 16)
    s0, p0 = initial_samples(cfg)
    odd = 0.01 * hydrostatic_reconstruct(cfg.grid, p0.blocks[:2])  # real, band-limited and odd in z
    injected = parity_defect(cfg.grid, odd, EVEN_IN_Z)
    assert injected > 0
    s0 = Sample(cfg.grid, 0.0, [s0.blocks[0] + odd, *s0.blocks[1:]], None)
    p0 = Sample(cfg.grid, 0.0, [p0.blocks[0] + odd, *p0.blocks[1:]], None)
    first, last = _run(system, 1, s0, p0, cfg.dt)
    assert first.parity_defect == pytest.approx(injected, rel=1e-12)
    assert last.parity_defect == pytest.approx(injected, rel=0.1)
