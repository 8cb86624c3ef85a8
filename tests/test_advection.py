"""The advection products transformed in even/odd pairs: the same tendencies
and CFL speed as the products one at a time, from 10 transforms per tendency."""

import numpy as np
import pytest

from hydrolimit import integrator
from hydrolimit.constraints import hydrostatic_reconstruct
from hydrolimit.pehm import _tendency as pehm_tendency
from hydrolimit.pehm import run as pehm_run
from hydrolimit.shmhd import ShmhdParams
from hydrolimit.shmhd import _tendency as shmhd_tendency
from hydrolimit.shmhd import run as shmhd_run
from hydrolimit.sweep import SweepConfig, initial_samples
from conftest import unpaired_elsasser_advection

SHAPES = [((16, 16, 16), (2.0 * np.pi, 2.0 * np.pi)), ((24, 16, 12), (2.0, 3.0))]


def _blocks(system, cfg, steps):
    """The band blocks of one system's seeded state after ``steps`` steps."""
    s0, p0 = initial_samples(cfg)
    if system == "shmhd":
        return shmhd_run(s0, ShmhdParams(eps=0.1, alpha=3.0, dt=cfg.dt, t_end=steps * cfg.dt))[-1].blocks
    return pehm_run(p0, cfg.dt, steps * cfg.dt)[-1].blocks


def _unpaired(system, grid, c):
    """``unpaired_elsasser_advection`` of the fields ``_tendency`` advects."""
    if system == "shmhd":
        return unpaired_elsasser_advection(grid, c[:3], c[3:], 3)
    a3, b3 = hydrostatic_reconstruct(grid, c[:2]), hydrostatic_reconstruct(grid, c[2:])
    return unpaired_elsasser_advection(grid, (*c[:2], a3), (*c[2:], b3), 2)


TENDENCY = {"shmhd": shmhd_tendency, "pehm": pehm_tendency}


@pytest.mark.parametrize("steps", [0, 2], ids=["seeded", "stepped"])
@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("system", ["shmhd", "pehm"])
@pytest.mark.parametrize("shape, lengths", SHAPES, ids=["16^3", "24x16x12"])
def test_paired_products_match_the_products_one_at_a_time(shape, lengths, system, seed, steps):
    """On states of parities (even, even, odd), seeded and stepped, each
    tendency block is within 1e-14 of the largest reference coefficient and
    the CFL speed within 1e-14 relative."""
    cfg = SweepConfig(*shape, l1=lengths[0], l2=lengths[1], seed=seed)
    c = _blocks(system, cfg, steps)
    got, speed = TENDENCY[system](cfg.grid, c)
    want, want_speed = _unpaired(system, cfg.grid, c)
    scale = max(float(np.max(np.abs(w))) for w in want)
    assert len(got) == len(want) == len(c)
    for g, w in zip(got, want, strict=True):
        assert np.max(np.abs(g - w)) <= 1e-14 * scale
    assert speed == pytest.approx(want_speed, rel=1e-14, abs=0)


@pytest.mark.parametrize("system", ["shmhd", "pehm"])
def test_a_tendency_makes_at_most_ten_transforms(system, monkeypatch):
    """Five lattice fields lifted and five products transformed; one product
    at a time took 6 inverses and 9 (SHMHD) or 8 (PEHM) forwards."""
    cfg = SweepConfig(8, 8, 8)
    calls = []
    for name in ("to_physical", "band_from_physical"):
        def counted(grid, x, fn=getattr(integrator, name), name=name):
            calls.append(name)
            return fn(grid, x)
        monkeypatch.setattr(integrator, name, counted)
    TENDENCY[system](cfg.grid, _blocks(system, cfg, 0))
    assert len(calls) <= 10, calls
