"""Norms against quadrature oracles, the energy ledger, difference metrics,
and the tri-linear reporter."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hydrolimit.constraints import SpectrumParams, VectorState
from hydrolimit.diagnostics import (
    DiagnosticsRecord,
    _weighted_totals,
    difference_metrics,
    energy_ledger,
    gamma_of_alpha,
    pehm_energy,
    shmhd_dissipation_rate,
    shmhd_energy,
    trapezoid_accumulate,
    trilinear_check,
)
from hydrolimit.grid import GridSpec
from hydrolimit.integrator import Sample
from hydrolimit.pehm import run as pehm_run
from hydrolimit.shmhd import ElsasserState, ShmhdParams
from hydrolimit.shmhd import run as shmhd_run
from hydrolimit.spectral import SpectralField, band_from_physical, gather, l2_norm, to_physical
from hydrolimit.sweep import SweepConfig, initial_states, run_pair
from conftest import (
    derivative_difference_metrics,
    derivative_dissipation_rate,
    derivative_norms,
    field_from_lattice,
    half_difference_metrics,
    initial_vectors,
    physical,
    random_real_field,
    random_spectral_field,
    state_difference_metrics,
    weighted_sums,
)


class TestNorms:
    def test_single_mode_closed_forms(self):
        # u = sin(2 pi x) cos(pi z) on l1 = l2 = 1, volume 2:
        # ||u||^2 = 2 * (1/2) * (1/2) = 1/2,
        # ||grad_H u||^2 = 4 pi^2 / 2, ||dz u||^2 = pi^2 / 2.
        g = GridSpec(8, 8, 8, 1.0, 1.0)
        u = field_from_lattice(g, lambda x, y, z: np.sin(2 * np.pi * x) * np.cos(np.pi * z))
        assert l2_norm(g, gather([u])[0]) ** 2 == pytest.approx(0.5, rel=1e-12)
        assert weighted_sums(u)[1] == pytest.approx(4 * np.pi**2 * 0.5, rel=1e-12)
        assert weighted_sums(u)[2] == pytest.approx(np.pi**2 * 0.5, rel=1e-12)
        assert sum(weighted_sums(u)) == pytest.approx(0.5 * (1 + 5 * np.pi**2), rel=1e-12)

    def test_l2_matches_lattice_quadrature(self, grid8_2pi):
        f = random_spectral_field(grid8_2pi, 70)
        vals = physical(f)
        quad = math.sqrt(np.sum(vals**2) * grid8_2pi.dx * grid8_2pi.dy * grid8_2pi.dz)
        assert l2_norm(grid8_2pi, gather([f])[0]) == pytest.approx(quad, rel=1e-12)


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
            assert weighted_sums(f)[1] == pytest.approx(gh, rel=self.REL)
            assert weighted_sums(f)[2] == pytest.approx(dz, rel=self.REL)
            assert math.sqrt(sum(weighted_sums(f))) == pytest.approx(math.sqrt(n0 + gh + dz), rel=self.REL)

    @pytest.mark.parametrize("n", [16, 24])
    def test_dissipation_and_difference_match_derivative_arrays(self, n):
        g = GridSpec(n, n, n, 2.0, 3.0)
        fields = [random_spectral_field(g, 92 + i) for i in range(6)]
        s_eps = ElsasserState(VectorState(*fields[:3]), VectorState(*fields[3:]), 0.0)
        _, s_lim = TestDifferenceMetrics._states(g, 98)
        for eps, alpha in ((0.1, 3.0), (0.05, 4.5)):
            want = derivative_dissipation_rate(s_eps.a, s_eps.b, eps, alpha)
            got = shmhd_dissipation_rate(g, gather(s_eps.a.components()), gather(s_eps.b.components()), eps, alpha)
            assert got == pytest.approx(want, rel=self.REL)
            rec = state_difference_metrics(s_eps.fields(), s_lim, eps, alpha)
            want = derivative_difference_metrics(s_eps.fields(), s_lim, eps, alpha)
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
            DiagnosticsRecord(t=0.1 * i, e_l2=e, dissipation_accum=d, parity_defect=0.0, div_defect=0.0)
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
        assert energy_ledger(recs).passed

    def test_empty_trajectory_raises(self):
        with pytest.raises(ValueError, match="empty"):
            energy_ledger([])

    def test_trapezoid_accumulate(self):
        acc = trapezoid_accumulate([0.0, 1.0, 3.0], [2.0, 4.0, 4.0])
        assert acc == pytest.approx([0.0, 3.0, 11.0])


class TestDifferenceMetrics:
    @staticmethod
    def _states(grid, seed):
        """The seeded SHMHD and PEHM fields, each list in its ``FIELD_NAMES`` order."""
        a, b = initial_vectors(seed, SpectrumParams(), grid)
        s_eps = [*a.components(), *b.components()]
        s_lim = [SpectralField(grid, f.half.copy()) for f in (a.h1, a.h2, b.h1, b.h2)]  # tests write into s_eps
        return s_eps, s_lim

    def test_identical_states_give_zero(self, grid8_2pi):
        s_eps, s_lim = self._states(grid8_2pi, 80)
        rec = state_difference_metrics(s_eps, s_lim, eps=0.1, alpha=3.0)
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
        s_eps[0].half += c * bump.half  # a_h1
        eps, alpha = 0.2, 3.5
        rec = state_difference_metrics(s_eps, s_lim, eps, alpha)
        n2 = 0.5 * c**2
        assert rec.d_l2 == pytest.approx(n2, rel=1e-12)
        w = eps ** (alpha - 2)
        assert rec.d_diss_rate == pytest.approx(
            4 * np.pi**2 * n2 + w * np.pi**2 * n2, rel=1e-12
        )
        assert rec.d_h1 == pytest.approx(n2 * (1 + 5 * np.pi**2), rel=1e-12)

    def test_time_mismatch_raises(self):
        """A cell differences each SHMHD sample against the PEHM sample of the
        same time, and refuses one of another time."""
        cfg = SweepConfig(8, 8, 8, t_end=0.004, sample_every=1)
        s_eps0, s_lim0 = initial_states(cfg)
        limit = pehm_run(s_lim0, cfg.dt, cfg.t_end, cfg.sample_every)
        limit[1].t = 0.5
        with pytest.raises(ValueError, match="time mismatch"):
            run_pair(cfg, 0.1, limit, s_eps0)

    @pytest.mark.parametrize("shape", [(16, 16, 16), (32, 24, 20)])
    def test_sample_blocks_match_the_half_spectrum_reference(self, shape):
        """The metrics of stepped SHMHD states against the band blocks a PEHM
        sample keeps, as a ladder cell forms them, equal the metrics on the
        whole half-spectrum against the state the sample rebuilds."""
        cfg = SweepConfig(*shape, l1=2.0, l2=3.0)
        s_eps0, s_lim0 = initial_states(cfg)
        limit = pehm_run(s_lim0, cfg.dt, 4 * cfg.dt, 2)
        states = shmhd_run(s_eps0, ShmhdParams(0.1, 3.0, cfg.dt, 4 * cfg.dt), 2, sample=lambda smp: smp.state)
        # the first pair is the shared initial data, whose difference is zero
        for s, smp in zip(states[1:], limit[1:], strict=True):
            got = difference_metrics(cfg.grid, gather(s), smp.blocks, 0.1, 3.0)
            want = half_difference_metrics(s, smp.state, 0.1, 3.0)
            assert (got.d_l2, got.d_diss_rate, got.d_h1) == pytest.approx(want, rel=1e-14)

    def test_vertical_difference_enters_with_eps_squared(self):
        g = GridSpec(8, 8, 8, 1.0, 1.0)
        s_eps, s_lim = self._states(g, 83)
        bump = field_from_lattice(g, lambda x, y, z: np.sin(np.pi * z))
        s_eps[2].half += bump.half  # a_v
        rec_1 = state_difference_metrics(s_eps, s_lim, 0.1, 3.0)
        rec_2 = state_difference_metrics(s_eps, s_lim, 0.2, 3.0)
        assert rec_2.d_l2 == pytest.approx(4.0 * rec_1.d_l2, rel=1e-12)


class TestEnergies:
    def test_shmhd_energy_weights(self):
        g = GridSpec(8, 8, 8, 1.0, 1.0)
        f = gather([field_from_lattice(g, lambda x, y, z: np.sin(2 * np.pi * x))])[0]  # ||f||^2 = 1
        zero = np.zeros_like(f)
        assert shmhd_energy(g, [f, zero, f], [zero, zero, zero], eps=0.5) == pytest.approx(1.0 + 0.25, rel=1e-12)

    def test_pehm_energy(self):
        g = GridSpec(8, 8, 8, 1.0, 1.0)
        f = gather([field_from_lattice(g, lambda x, y, z: np.sin(2 * np.pi * x))])[0]
        assert pehm_energy(g, [f, f], [f, np.zeros_like(f)]) == pytest.approx(3.0, rel=1e-12)

    @pytest.mark.parametrize("seed", [7, 8, 9])
    def test_record_energy_is_the_difference_metrics_energy(self, seed):
        """The records' energies (z marginal only) and ``_weighted_totals``'s
        energy (both marginals) are two codings of one eps-weighted functional,
        compared on stepped states."""
        g = GridSpec(16, 16, 16)
        a, b = initial_vectors(seed, SpectrumParams(amplitude=0.5), g)
        lim = pehm_run(Sample(g, 0.0, gather((a.h1, a.h2, b.h1, b.h2)), None), 2e-3, 1e-2, 5)[-1]
        assert pehm_energy(g, lim.blocks[:2], lim.blocks[2:]) == pytest.approx(
            sum(weighted_sums(f)[0] for f in lim.state), rel=1e-14)
        for eps in (0.2, 0.025):
            s = shmhd_run(ElsasserState(a, b, 0.0), ShmhdParams(eps, 4.0, 2e-3, 1e-2), 5)[-1]
            assert s.t == lim.t == pytest.approx(1e-2)
            c = s.blocks
            assert shmhd_energy(g, c[:3], c[3:], eps) == pytest.approx(
                _weighted_totals(g, [*c[0:2], *c[3:5]], [c[2], c[5]], eps, 4.0)[0], rel=1e-14)


class TestTrilinear:
    def test_zero_field_gives_zero_report(self, grid8):
        f = band_from_physical(grid8, random_real_field(grid8, 90))
        rep = trilinear_check(grid8, np.zeros_like(f), f, f)
        assert rep.lhs == 0.0
        assert rep.implied_c == 0.0

    def test_constant_field_closed_form(self):
        # f = g = h = 1 on l1 = l2 = 1: lhs = 4; each half-bracket is
        # sqrt(||1||) * sqrt(||1||) = sqrt(2), so both rhs equal 2^(3/2)
        # and the implied constant is sqrt(2).
        g = GridSpec(8, 8, 8, 1.0, 1.0)
        i1, i2, k3 = g.band
        one = np.zeros((i1.size, i2.size, k3), dtype=np.complex128)
        one[0, 0, 0] = 1.0  # the mode (0, 0, 0)
        rep = trilinear_check(g, one, one, one)
        assert rep.lhs == pytest.approx(4.0, rel=1e-12)
        assert rep.rhs_a == pytest.approx(2.0**1.5, rel=1e-12)
        assert rep.rhs_b == pytest.approx(2.0**1.5, rel=1e-12)
        assert rep.implied_c == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_lhs_matches_direct_quadrature(self, grid8_2pi):
        grid = grid8_2pi
        f, g, h = (band_from_physical(grid, random_real_field(grid, seed)) for seed in (91, 92, 93))
        rep = trilinear_check(grid, f, g, h)
        fa, ga, ha = (to_physical(grid, c) for c in (f, g, h))
        direct = 0.0
        for i in range(grid.n1):
            for j in range(grid.n2):
                direct += (
                    np.sum(np.abs(fa[i, j])) * grid.dz * np.sum(np.abs(ga[i, j] * ha[i, j])) * grid.dz
                )
        direct *= grid.dx * grid.dy
        assert rep.lhs == pytest.approx(direct, rel=1e-12)

    def test_report_is_nonnegative(self, grid8):
        f, g, h = (band_from_physical(grid8, random_real_field(grid8, seed)) for seed in (94, 95, 96))
        rep = trilinear_check(grid8, f, g, h)
        assert rep.lhs >= 0.0 and rep.rhs_a >= 0.0 and rep.rhs_b >= 0.0
        assert np.isfinite(rep.implied_c)
