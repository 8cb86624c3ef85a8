"""Metamorphic properties of both solvers, which need no reference
implementation and so hold across any change of storage layout:

- advection is energy neutral, sum_i Re<A_i, tA_i> = 0, and likewise for B;
- stepping the Elsaesser exchange (B, A) gives the exchanged step of (A, B);
- translating by one lattice cell in x or in y commutes with a step;
- so does the mirror x -> -x, which also flips the x components.

Each holds in the SHMHD and in the PEHM form.  The states are seeded data on
grids drawn by hypothesis, non-cubic ones and ones where 3 divides n among
them, with l1 and l2 drawn apart, and advanced two steps, so that they have
been through each system's projections.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hydrolimit.integrator import Sample
from hydrolimit.pehm import FIELD_NAMES as PEHM_FIELDS
from hydrolimit.pehm import _tendency as pehm_tendency
from hydrolimit.pehm import run as pehm_run
from hydrolimit.shmhd import FIELD_NAMES as SHMHD_FIELDS
from hydrolimit.shmhd import ShmhdParams
from hydrolimit.shmhd import _tendency as shmhd_tendency
from hydrolimit.shmhd import run as shmhd_run
from hydrolimit.spectral import SpectralField, from_band, gather
from hydrolimit.sweep import SweepConfig, initial_samples
from conftest import half_wavenumbers

DT = 2e-3
EPS, ALPHA = 0.1, 3.0
REL = 1e-12
SYSTEMS = ["shmhd", "pehm"]

SIZES = st.sampled_from([6, 8, 12, 16])
LENGTHS = st.sampled_from([2.0 * math.pi, 1.0, 2.0, 3.0])
GRIDS = st.tuples(SIZES, SIZES, SIZES, LENGTHS, LENGTHS)
SEEDS = st.integers(0, 2**16)

# every test runs the 24 x 16 x 12, l1 = 2, l2 = 3 box too
drawn = settings(max_examples=10, deadline=None)
non_cubic = example(grid=(24, 16, 12, 2.0, 3.0), seed=7)


def names(s) -> tuple:
    """The field names of the ``Sample`` s: SHMHD's six or PEHM's four."""
    return SHMHD_FIELDS if len(s.blocks) == len(SHMHD_FIELDS) else PEHM_FIELDS


def step(s, n: int = 1):
    """The ``Sample`` n steps after s, of either system."""
    t_end = s.t + n * DT
    if names(s) == SHMHD_FIELDS:
        return shmhd_run(s, ShmhdParams(eps=EPS, alpha=ALPHA, dt=DT, t_end=t_end), sample_every=n)[-1]
    return pehm_run(s, DT, t_end, sample_every=n)[-1]


def advanced_state(system: str, grid: tuple, seed: int):
    n1, n2, n3, l1, l2 = grid
    s_eps, s_lim = initial_samples(SweepConfig(n1, n2, n3, l1, l2, seed=seed))
    return step(s_eps if system == "shmhd" else s_lim, 2)


def remap(s, fn):
    """The start whose fields are ``fn(name, half)`` of the fields of s."""
    return Sample(s.grid, s.t, gather([SpectralField(f.grid, fn(name, f.half)) for name, f in zip(names(s), s.state)]),
                  None)


def exchange(s):
    """(A, B) -> (B, A)."""
    half = len(s.blocks) // 2
    return Sample(s.grid, s.t, s.blocks[half:] + s.blocks[:half], None)


def translate(s, axis: int):
    """Every field shifted by one lattice cell along x (axis 0) or y (axis 1):
    f(x) -> f(x - dx), each coefficient times exp(-i k dx)."""
    g = s.grid
    k, d = tuple(zip(half_wavenumbers(g)[:2], (g.dx, g.dy)))[axis]
    phase = np.exp(-1j * k * d)
    return remap(s, lambda name, c: c * phase)


def mirror(s):
    """u(x, y, z) -> (-u_x, u_y, u_z)(-x, y, z): mode m1 takes the coefficient
    of -m1, and the x components change sign."""
    flip = (-np.arange(s.grid.n1)) % s.grid.n1
    return remap(s, lambda name, c: (-1.0 if name.endswith("h1") else 1.0) * c[flip])


def assert_same_state(got, want) -> None:
    assert got.t == want.t
    scale = max(float(np.max(np.abs(f.coeffs))) for f in want.state)
    err = max(float(np.max(np.abs(f.coeffs - g.coeffs))) for f, g in zip(got.state, want.state))
    assert err <= REL * scale, f"relative mismatch {err / scale:.3e}"


@pytest.mark.parametrize("system", SYSTEMS)
@drawn
@non_cubic
@given(grid=GRIDS, seed=SEEDS)
def test_advection_is_energy_neutral(system, grid, seed):
    s = advanced_state(system, grid, seed)
    blocks = (shmhd_tendency if system == "shmhd" else pehm_tendency)(s.grid, s.blocks)[0]
    tendency = [from_band(s.grid, t) for t in blocks]
    fields = s.state
    half = len(fields) // 2
    for family in (slice(None, half), slice(half, None)):
        pairs = list(zip(fields[family], tendency[family]))
        work = sum(np.vdot(f.coeffs, t.coeffs).real for f, t in pairs)
        scale = sum(np.linalg.norm(f.coeffs) * np.linalg.norm(t.coeffs) for f, t in pairs)
        assert scale > 0
        assert abs(work) <= REL * scale, f"relative advective work {work / scale:.3e}"


@pytest.mark.parametrize("system", SYSTEMS)
@drawn
@non_cubic
@given(grid=GRIDS, seed=SEEDS)
def test_elsasser_exchange_commutes_with_a_step(system, grid, seed):
    s = advanced_state(system, grid, seed)
    assert_same_state(step(exchange(s)), exchange(step(s)))


@pytest.mark.parametrize("axis", [0, 1], ids=["x", "y"])
@pytest.mark.parametrize("system", SYSTEMS)
@drawn
@non_cubic
@given(grid=GRIDS, seed=SEEDS)
def test_lattice_translation_commutes_with_a_step(system, axis, grid, seed):
    s = advanced_state(system, grid, seed)
    assert_same_state(step(translate(s, axis)), translate(step(s), axis))


@pytest.mark.parametrize("system", SYSTEMS)
@drawn
@non_cubic
@given(grid=GRIDS, seed=SEEDS)
def test_mirror_in_x_commutes_with_a_step(system, grid, seed):
    s = advanced_state(system, grid, seed)
    assert_same_state(step(mirror(s)), mirror(step(s)))
