"""Norms against quadrature oracles, the energy ledger, difference metrics,
and the tri-linear reporter."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hydrolimit.constraints import SpectrumParams, VectorState, generate_initial_data
from hydrolimit.diagnostics import (
    DiagnosticsRecord,
    _weighted_sums,
    difference_metrics,
    energy_ledger,
    gamma_of_alpha,
    grad_h_norm_sq,
    pehm_energy,
    shmhd_dissipation_rate,
    shmhd_energy,
    trapezoid_accumulate,
    trilinear_check,
)
from hydrolimit.grid import GridSpec
from hydrolimit.pehm import PehmState
from hydrolimit.shmhd import ElsasserState
from hydrolimit.spectral import l2_norm, to_physical, zero_field
from conftest import (
    derivative_difference_metrics,
    derivative_dissipation_rate,
    derivative_norms,
    field_from_lattice,
    random_spectral_field,
)


class TestNorms:
    def test_single_mode_closed_forms(self):
        # u = sin(2 pi x) cos(pi z) on l1 = l2 = 1, volume 2:
        # ||u||^2 = 2 * (1/2) * (1/2) = 1/2,
        # ||grad_H u||^2 = 4 pi^2 / 2, ||dz u||^2 = pi^2 / 2.
        g = GridSpec(8, 8, 8, 1.0, 1.0)
        u = field_from_lattice(g, lambda x, y, z: np.sin(2 * np.pi * x) * np.cos(np.pi * z))
        assert l2_norm(u) ** 2 == pytest.approx(0.5, rel=1e-12)
        assert grad_h_norm_sq(u) == pytest.approx(4 * np.pi**2 * 0.5, rel=1e-12)
        assert _weighted_sums(u)[2] == pytest.approx(np.pi**2 * 0.5, rel=1e-12)
        assert sum(_weighted_sums(u)) == pytest.approx(0.5 * (1 + 5 * np.pi**2), rel=1e-12)

    def test_l2_matches_lattice_quadrature(self, grid8_2pi):
        f = random_spectral_field(grid8_2pi, 70)
        vals = to_physical(f)
        quad = math.sqrt(np.sum(vals**2) * grid8_2pi.dx * grid8_2pi.dy * grid8_2pi.dz)
        assert l2_norm(f) == pytest.approx(quad, rel=1e-12)


class TestWeightedSums:
    """The Parseval-weighted sums against derivative-array references, on a
    box with l1 != l2 and full-spectrum fields, Nyquist modes included."""

    REL = 1e-13

    @pytest.mark.parametrize("n", [16, 24])
    def test_norms_match_derivative_arrays(self, n):
        g = GridSpec(n, n, n, 2.0, 3.0)
        for seed in (90, 91):
            f = random_spectral_field(g, seed)
            n0, gh, dz = derivative_norms(f)
            assert grad_h_norm_sq(f) == pytest.approx(gh, rel=self.REL)
            assert _weighted_sums(f)[2] == pytest.approx(dz, rel=self.REL)
            assert math.sqrt(sum(_weighted_sums(f))) == pytest.approx(math.sqrt(n0 + gh + dz), rel=self.REL)

    @pytest.mark.parametrize("n", [16, 24])
    def test_dissipation_and_difference_match_derivative_arrays(self, n):
        g = GridSpec(n, n, n, 2.0, 3.0)
        fields = [random_spectral_field(g, 92 + i) for i in range(6)]
        s_eps = ElsasserState(VectorState(*fields[:3]), VectorState(*fields[3:]), 0.0)
        _, s_lim = TestDifferenceMetrics._states(g, 98)
        for eps, alpha in ((0.1, 3.0), (0.05, 4.5)):
            want = derivative_dissipation_rate(s_eps.a, s_eps.b, eps, alpha)
            assert shmhd_dissipation_rate(s_eps.a, s_eps.b, eps, alpha) == pytest.approx(want, rel=self.REL)
            rec = difference_metrics(s_eps, s_lim, eps, alpha)
            want = derivative_difference_metrics(s_eps, s_lim, eps, alpha)
            assert (rec.d_l2, rec.d_diss_rate, rec.d_h1) == pytest.approx(want, rel=self.REL)


class TestGamma:
    def test_branch_values(self):
        assert gamma_of_alpha(3.0) == 1.0
        assert gamma_of_alpha(4.0) == 2.0
        assert gamma_of_alpha(5.5) == 2.0
        assert gamma_of_alpha(2.5) == 0.5

    def test_rejects_alpha_at_or_below_two(self):
        for alpha in (2.0, 1.0, math.nan):
            with pytest.raises(ValueError, match="alpha"):
                gamma_of_alpha(alpha)

    @settings(max_examples=50, deadline=None)
    @given(a=st.floats(2.001, 10.0), b=st.floats(2.001, 10.0))
    def test_monotone_nondecreasing(self, a, b):
        lo, hi = sorted((a, b))
        assert gamma_of_alpha(lo) <= gamma_of_alpha(hi)


class TestEnergyLedger:
    @staticmethod
    def _records(lhs_energies, diss):
        return [
            DiagnosticsRecord(t=0.1 * i, e_l2=e, dissipation_accum=d)
            for i, (e, d) in enumerate(zip(lhs_energies, diss))
        ]

    def test_exact_balance_passes(self):
        recs = self._records([1.0, 0.8, 0.6], [0.0, 0.1, 0.2])
        report = energy_ledger(recs)
        assert report.passed
        assert max(abs(r) for r in report.residuals) < 1e-15

    def test_dissipative_slack_passes(self):
        recs = self._records([1.0, 0.7], [0.0, 0.1])
        assert energy_ledger(recs).passed

    def test_energy_gain_fails(self):
        recs = self._records([1.0, 1.1], [0.0, 0.0])
        assert not energy_ledger(recs).passed

    def test_gain_within_slack_passes(self):
        recs = self._records([1.0, 1.0 + 5e-5], [0.0, 0.0])
        assert energy_ledger(recs, slack=1e-4).passed

    def test_empty_trajectory_raises(self):
        with pytest.raises(ValueError, match="empty"):
            energy_ledger([])

    def test_trapezoid_accumulate(self):
        acc = trapezoid_accumulate([0.0, 1.0, 3.0], [2.0, 4.0, 4.0])
        assert acc == pytest.approx([0.0, 3.0, 11.0])


class TestDifferenceMetrics:
    @staticmethod
    def _states(grid, seed):
        d = generate_initial_data(seed, SpectrumParams(), grid)
        s_eps = ElsasserState(
            VectorState(d.a_h[0], d.a_h[1], d.a3),
            VectorState(d.b_h[0], d.b_h[1], d.b3),
            0.0,
        )
        s_lim = PehmState((d.a_h[0].copy(), d.a_h[1].copy()), (d.b_h[0].copy(), d.b_h[1].copy()), 0.0)
        return s_eps, s_lim

    def test_identical_states_give_zero(self, grid8_2pi):
        s_eps, s_lim = self._states(grid8_2pi, 80)
        rec = difference_metrics(s_eps, s_lim, eps=0.1, alpha=3.0)
        assert rec.d_l2 == 0.0
        assert rec.d_diss_rate == 0.0
        assert rec.d_h1 == 0.0

    def test_single_mode_oracle(self):
        # Perturb the first SHMHD component by c sin(2 pi y) cos(pi z); the
        # x-derivative vanishes so the states stay divergence-compatible and
        # every metric reduces to a closed form in c.
        g = GridSpec(8, 8, 8, 1.0, 1.0)
        s_eps, s_lim = self._states(g, 81)
        c = 0.3
        bump = field_from_lattice(g, lambda x, y, z: np.sin(2 * np.pi * y) * np.cos(np.pi * z))
        s_eps.a.h1.half += c * bump.half
        eps, alpha = 0.2, 3.5
        rec = difference_metrics(s_eps, s_lim, eps, alpha)
        n2 = 0.5 * c**2
        assert rec.d_l2 == pytest.approx(n2, rel=1e-12)
        w = eps ** (alpha - 2)
        assert rec.d_diss_rate == pytest.approx(
            4 * np.pi**2 * n2 + w * np.pi**2 * n2, rel=1e-12
        )
        assert rec.d_h1 == pytest.approx(n2 * (1 + 5 * np.pi**2), rel=1e-12)

    def test_time_mismatch_raises(self, grid8_2pi):
        s_eps, s_lim = self._states(grid8_2pi, 82)
        s_lim.t = 0.5
        with pytest.raises(ValueError, match="time mismatch"):
            difference_metrics(s_eps, s_lim, 0.1, 3.0)

    def test_vertical_difference_enters_with_eps_squared(self):
        g = GridSpec(8, 8, 8, 1.0, 1.0)
        s_eps, s_lim = self._states(g, 83)
        bump = field_from_lattice(g, lambda x, y, z: np.sin(np.pi * z))
        s_eps.a.v.half += bump.half
        rec_1 = difference_metrics(s_eps, s_lim, 0.1, 3.0)
        rec_2 = difference_metrics(s_eps, s_lim, 0.2, 3.0)
        assert rec_2.d_l2 == pytest.approx(4.0 * rec_1.d_l2, rel=1e-12)


class TestEnergies:
    def test_shmhd_energy_weights(self):
        g = GridSpec(8, 8, 8, 1.0, 1.0)
        f = field_from_lattice(g, lambda x, y, z: np.sin(2 * np.pi * x))  # ||f||^2 = 1
        zero = zero_field(g)
        a = VectorState(f, zero, f)
        b = VectorState(zero, zero, zero)
        assert shmhd_energy(a, b, eps=0.5) == pytest.approx(1.0 + 0.25, rel=1e-12)

    def test_pehm_energy(self):
        g = GridSpec(8, 8, 8, 1.0, 1.0)
        f = field_from_lattice(g, lambda x, y, z: np.sin(2 * np.pi * x))
        assert pehm_energy((f, f), (f, zero_field(g))) == pytest.approx(3.0, rel=1e-12)


class TestTrilinear:
    def test_zero_field_gives_zero_report(self, grid8):
        z = zero_field(grid8)
        f = random_spectral_field(grid8, 90)
        rep = trilinear_check(z, f, f)
        assert rep.lhs == 0.0
        assert rep.implied_c == 0.0

    def test_constant_field_closed_form(self):
        # f = g = h = 1 on l1 = l2 = 1: lhs = 4; each half-bracket is
        # sqrt(||1||) * sqrt(||1||) = sqrt(2), so both rhs equal 2^(3/2)
        # and the implied constant is sqrt(2).
        g = GridSpec(8, 8, 8, 1.0, 1.0)
        one = zero_field(g)
        one.half[0, 0, 0] = 1.0
        rep = trilinear_check(one, one, one)
        assert rep.lhs == pytest.approx(4.0, rel=1e-12)
        assert rep.rhs_a == pytest.approx(2.0**1.5, rel=1e-12)
        assert rep.rhs_b == pytest.approx(2.0**1.5, rel=1e-12)
        assert rep.implied_c == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_lhs_matches_direct_quadrature(self, grid8_2pi):
        f = random_spectral_field(grid8_2pi, 91)
        g = random_spectral_field(grid8_2pi, 92)
        h = random_spectral_field(grid8_2pi, 93)
        rep = trilinear_check(f, g, h)
        grid = grid8_2pi
        fa, ga, ha = (to_physical(v) for v in (f, g, h))
        direct = 0.0
        for i in range(grid.n1):
            for j in range(grid.n2):
                direct += (
                    np.sum(np.abs(fa[i, j])) * grid.dz * np.sum(np.abs(ga[i, j] * ha[i, j])) * grid.dz
                )
        direct *= grid.dx * grid.dy
        assert rep.lhs == pytest.approx(direct, rel=1e-12)

    def test_report_is_nonnegative(self, grid8):
        f = random_spectral_field(grid8, 94)
        g = random_spectral_field(grid8, 95)
        h = random_spectral_field(grid8, 96)
        rep = trilinear_check(f, g, h)
        assert rep.lhs >= 0.0 and rep.rhs_a >= 0.0 and rep.rhs_b >= 0.0
        assert np.isfinite(rep.implied_c)
