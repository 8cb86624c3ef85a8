"""Hydrostatic-limit stepper: vertical diagnosis, the surface-pressure solve
and its consistency guard, constraint preservation, energy identity, and the
manufactured-solution order study."""

import math

import numpy as np
import pytest

from hydrolimit.constraints import (
    EVEN_IN_Z,
    ODD_IN_Z,
    SpectrumParams,
    barotropic_defect,
    generate_initial_data,
    parity_defect,
)
from hydrolimit.diagnostics import energy_ledger
from hydrolimit.grid import GridSpec
from hydrolimit.pehm import (
    PehmState,
    _tendency,
    diagnose_vertical,
    run,
    surface_pressure,
)
from hydrolimit.spectral import l2_norm, zero_field
from conftest import assert_rel_close, convective_advection, field_from_lattice, partial_derivative


def seeded_state(grid, seed) -> PehmState:
    d = generate_initial_data(seed, SpectrumParams(), grid)
    return PehmState(
        (d.a_h[0].copy(), d.a_h[1].copy()),
        (d.b_h[0].copy(), d.b_h[1].copy()),
        0.0,
    )


class TestVerticalDiagnosis:
    def test_matches_seeded_verticals(self, grid8_2pi):
        d = generate_initial_data(140, SpectrumParams(), grid8_2pi)
        s = PehmState((d.a_h[0], d.a_h[1]), (d.b_h[0], d.b_h[1]), 0.0)
        a3, b3 = diagnose_vertical(s)
        assert np.max(np.abs(a3.coeffs - d.a3.coeffs)) < 1e-14
        assert np.max(np.abs(b3.coeffs - d.b3.coeffs)) < 1e-14

    def test_diagnosed_verticals_are_odd(self, grid8_2pi):
        s = seeded_state(grid8_2pi, 141)
        a3, b3 = diagnose_vertical(s)
        scale = max(l2_norm(f) for f in s.a_h)
        assert parity_defect(a3, ODD_IN_Z) < 1e-13 * scale
        assert parity_defect(b3, ODD_IN_Z) < 1e-13 * scale


class TestTendency:
    @pytest.mark.parametrize("n", [16, 24])
    def test_matches_convective_form(self, n):
        """The divergence-form products equal the convective advection of the
        horizontal pairs, with the diagnosed verticals in the advecting fields."""
        s = seeded_state(GridSpec(n, n, n), 142)
        a3, b3 = diagnose_vertical(s)
        got, _ = _tendency(s)
        assert_rel_close(got[:2], convective_advection((*s.b_h, b3), s.a_h), 1e-13)
        assert_rel_close(got[2:], convective_advection((*s.a_h, a3), s.b_h), 1e-13)


class TestSurfacePressure:
    def test_pressure_is_z_independent(self, grid8_2pi):
        s = seeded_state(grid8_2pi, 150)
        p, _ = surface_pressure(s)
        assert l2_norm(partial_derivative(p, "z")) == 0.0

    def test_both_sources_agree(self, grid8_2pi):
        s = seeded_state(grid8_2pi, 151)
        assert surface_pressure(s)[1] < 1e-12

    def test_single_mode_closed_form(self):
        # a = b = (0, cos(2 pi x), 0): the advection of a by b is
        # -(b . grad) a = 0 since b is y-directed and a is x-dependent only,
        # so the surface pressure vanishes.
        g = GridSpec(8, 8, 8, 1.0, 1.0)
        f = field_from_lattice(g, lambda x, y, z: np.cos(2 * np.pi * x))
        s = PehmState((zero_field(g), f), (zero_field(g), f.copy()), 0.0)
        p, _ = surface_pressure(s)
        assert l2_norm(p) < 1e-14


class TestStepping:
    def test_step_preserves_constraints(self, grid8_2pi):
        s = seeded_state(grid8_2pi, 160)
        s1 = run(s, 1e-3, s.t + 1e-3)[-1].state
        scale = max(l2_norm(f) for f in s1.a_h)
        assert barotropic_defect(s1.a_h) < 1e-12 * scale
        assert barotropic_defect(s1.b_h) < 1e-12 * scale
        for f in (*s1.a_h, *s1.b_h):
            assert parity_defect(f, EVEN_IN_Z) < 1e-12 * scale
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
        f = field_from_lattice(g, lambda x, y, z: np.sin(2 * np.pi * x))
        t_end = 0.02
        exact = math.exp(-4 * np.pi**2 * t_end)

        def error(dt):
            s = PehmState(
                (zero_field(g), f.copy()), (zero_field(g), f.copy()), 0.0
            )
            final = run(s, dt, t_end, sample_every=1000, advect=False)[-1].state
            return l2_norm(final.a_h[1] - exact * f)

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
        assert np.array_equal(t1[-1].state.a_h[0].coeffs, t2[-1].state.a_h[0].coeffs)
