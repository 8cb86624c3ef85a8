"""Hydrostatic-limit stepper: vertical diagnosis, the advection tendency,
constraint preservation, energy identity, and the manufactured-solution order
study."""

import math

import numpy as np
import pytest

from hydrolimit.constraints import (
    EVEN_IN_Z,
    ODD_IN_Z,
    SpectrumParams,
    generate_initial_data,
)
from hydrolimit.diagnostics import energy_ledger
from hydrolimit.grid import GridSpec
from hydrolimit.pehm import _tendency, run
from hydrolimit.integrator import Sample
from hydrolimit.spectral import band_from_physical, from_band, l2_norm
from conftest import (assert_rel_close, barotropic_defect_of, convective_advection, field_from_lattice, hydrostatic,
                      initial_vectors, parity_defect_of)


def seeded_state(grid, seed) -> Sample:
    """The PEHM start of the seeded data: the blocks of the horizontal pairs A and B."""
    c = generate_initial_data(seed, SpectrumParams(), grid)
    return Sample(grid, 0.0, [*c[:2], *c[3:5]], None)


class TestVerticalDiagnosis:
    def test_matches_seeded_verticals(self, grid8_2pi):
        a, b = initial_vectors(140, SpectrumParams(), grid8_2pi)
        a3, b3 = hydrostatic((a.h1, a.h2)), hydrostatic((b.h1, b.h2))
        assert np.max(np.abs(a3.coeffs - a.v.coeffs)) < 1e-14
        assert np.max(np.abs(b3.coeffs - b.v.coeffs)) < 1e-14

    def test_diagnosed_verticals_are_odd(self, grid8_2pi):
        s = seeded_state(grid8_2pi, 141)
        f = s.state
        a3, b3 = hydrostatic(f[:2]), hydrostatic(f[2:])
        scale = max(l2_norm(grid8_2pi, c) for c in s.blocks[:2])
        assert parity_defect_of(a3, ODD_IN_Z) < 1e-13 * scale
        assert parity_defect_of(b3, ODD_IN_Z) < 1e-13 * scale


class TestTendency:
    @pytest.mark.parametrize("n", [16, 24])
    def test_matches_convective_form(self, n):
        """The divergence-form products equal the convective advection of the
        horizontal pairs, with the diagnosed verticals in the advecting fields."""
        s = seeded_state(GridSpec(n, n, n), 142)
        f = s.state
        a3, b3 = hydrostatic(f[:2]), hydrostatic(f[2:])
        got = [from_band(s.grid, t) for t in _tendency(s.grid, s.blocks)[0]]
        assert_rel_close(got[:2], convective_advection((*f[2:], b3), f[:2]), 1e-13)
        assert_rel_close(got[2:], convective_advection((*f[:2], a3), f[2:]), 1e-13)


class TestStepping:
    def test_step_preserves_constraints(self, grid8_2pi):
        s = seeded_state(grid8_2pi, 160)
        s1 = run(s, 1e-3, s.t + 1e-3)[-1]
        f1 = s1.state
        scale = max(l2_norm(grid8_2pi, c) for c in s1.blocks[:2])
        assert barotropic_defect_of(f1[:2]) < 1e-12 * scale
        assert barotropic_defect_of(f1[2:]) < 1e-12 * scale
        for f in f1:
            assert parity_defect_of(f, EVEN_IN_Z) < 1e-12 * scale
        assert s1.t == pytest.approx(1e-3)

    def test_nonpositive_dt_raises(self, grid8_2pi):
        with pytest.raises(ValueError, match="dt"):
            run(seeded_state(grid8_2pi, 161), 0.0, 1e-3)

    def test_linear_energy_identity_closes_to_rounding(self, grid8_2pi):
        s = seeded_state(grid8_2pi, 162)
        traj = run(s, 1e-3, 0.02, sample_every=5, advect=False)
        report = energy_ledger([x.record for x in traj])
        assert max(abs(r) for r in report.residuals) < 1e-12

    def test_nonlinear_energy_identity_near_equality(self, grid8_2pi):
        """For the limit system the ledger is an identity: energy plus twice
        the accumulated horizontal dissipation stays at its initial value."""
        s = seeded_state(grid8_2pi, 163)
        traj = run(s, 1e-3, 0.05, sample_every=10)
        report = energy_ledger([x.record for x in traj])
        assert report.passed
        assert max(abs(r) for r in report.residuals) < 1e-6

    def test_manufactured_solution_second_order(self):
        g = GridSpec(8, 8, 8, 1.0, 1.0)
        x = np.arange(g.n1).reshape(-1, 1, 1) * g.dx
        f = band_from_physical(g, np.sin(2 * np.pi * x) * np.ones(g.shape))
        zero = np.zeros_like(f)
        t_end = 0.02
        exact = math.exp(-4 * np.pi**2 * t_end)

        def error(dt):
            s = Sample(g, 0.0, [zero, f, zero, f], None)
            final = run(s, dt, t_end, sample_every=1000, advect=False)[-1].blocks[1]  # a_h2
            return l2_norm(g, final - exact * f)

        e1, e2, e4 = error(4e-3), error(2e-3), error(1e-3)
        assert math.log2(e1 / e2) >= 1.8
        assert math.log2(e2 / e4) >= 1.8

    def test_t_end_before_start_raises(self, grid8_2pi):
        s = seeded_state(grid8_2pi, 164)
        s.t = 1.0
        with pytest.raises(ValueError, match="t_end"):
            run(s, 1e-3, 0.5)

    @pytest.mark.parametrize("dt, t_end", [(0.002, math.inf), (0.002, 0.0105), (math.nan, 0.01)])
    def test_run_rejects_non_finite_or_non_integral_times(self, grid8_2pi, dt, t_end):
        with pytest.raises(ValueError, match="t_end|dt"):
            run(seeded_state(grid8_2pi, 166), dt, t_end)

    def test_run_is_deterministic(self, grid8_2pi):
        t1 = run(seeded_state(grid8_2pi, 165), 1e-3, 5e-3)
        t2 = run(seeded_state(grid8_2pi, 165), 1e-3, 5e-3)
        assert np.array_equal(t1[-1].state[0].coeffs, t2[-1].state[0].coeffs)
