"""SHMHD time stepper: the nonlinear tendency against an alias-free oracle,
the pressure potential, energy accounting, and blow-up signaling."""

import math

import numpy as np
import pytest

from hydrolimit.constraints import (
    EVEN_IN_Z,
    ODD_IN_Z,
    SpectrumParams,
    VectorState,
)
from hydrolimit.diagnostics import energy_ledger
from hydrolimit.grid import GridSpec
from hydrolimit.integrator import BlowUpError, Sample, imex_heun
from hydrolimit.pehm import PehmState
from hydrolimit.pehm import run as pehm_run
from hydrolimit.shmhd import (
    ElsasserState,
    ShmhdParams,
    nonlinear_tendency,
    run,
)
from hydrolimit.spectral import band_from_physical, from_band, gather, l2_norm
from conftest import (
    assert_rel_close,
    convective_advection,
    divergence_defect_of,
    field_from_full,
    field_from_lattice,
    initial_vectors,
    parity_defect_of,
    partial_derivative,
    physical,
    poisson_potential,
)


def seeded_state(grid, seed) -> ElsasserState:
    return ElsasserState(*initial_vectors(seed, SpectrumParams(), grid), 0.0)


class TestNonlinearTendency:
    def test_matches_padded_grid_oracle(self):
        """Alias-free oracle: lift band-limited fields to a doubled grid,
        form the advection products there, truncate back."""
        n = 16
        grid = GridSpec(n, n, n, 1.0, 1.0)
        fine = GridSpec(2 * n, 2 * n, 2 * n, 1.0, 1.0)
        s = seeded_state(grid, 110)

        def lift(f):
            c = np.zeros(fine.shape, dtype=np.complex128)
            band = n // 3
            for m1 in range(-band, band + 1):
                for m2 in range(-band, band + 1):
                    for m3 in range(-band, band + 1):
                        c[m1 % (2 * n), m2 % (2 * n), m3 % (2 * n)] = f.coeffs[
                            m1 % n, m2 % n, m3 % n
                        ]
            return field_from_full(fine, c)

        def restrict(f):
            c = np.zeros(grid.shape, dtype=np.complex128)
            band = n // 3
            for m1 in range(-band, band + 1):
                for m2 in range(-band, band + 1):
                    for m3 in range(-band, band + 1):
                        c[m1 % n, m2 % n, m3 % n] = f.coeffs[
                            m1 % (2 * n), m2 % (2 * n), m3 % (2 * n)
                        ]
            return field_from_full(grid, c)

        def oracle(adv: VectorState, f):
            out = np.zeros(fine.shape)
            for w, axis in zip(adv.components(), ("x", "y", "z")):
                out -= physical(lift(w)) * physical(partial_derivative(lift(f), axis))
            return restrict(from_band(fine, band_from_physical(fine, out)))

        ta, tb = nonlinear_tendency(s)
        scale = max(l2_norm(grid, c) for c in gather(s.a.components()))
        for got, f in zip(ta.components(), s.a.components()):
            want = oracle(s.b, f)
            assert np.max(np.abs(got.coeffs - want.coeffs)) < 1e-13 * scale
        for got, f in zip(tb.components(), s.b.components()):
            want = oracle(s.a, f)
            assert np.max(np.abs(got.coeffs - want.coeffs)) < 1e-13 * scale

    @pytest.mark.parametrize("n", [16, 24])
    def test_matches_convective_form(self, n):
        """The divergence-form products equal -(B . grad) A and -(A . grad) B
        on a divergence-free state (one step from the seeded data)."""
        p = ShmhdParams(eps=0.1, alpha=3.0, dt=1e-3, t_end=1e-3)
        s = run(seeded_state(GridSpec(n, n, n), 111), p)[-1].state
        ta, tb = nonlinear_tendency(s)
        assert_rel_close(ta.components(), convective_advection(s.b.components(), s.a.components()), 1e-13)
        assert_rel_close(tb.components(), convective_advection(s.a.components(), s.b.components()), 1e-13)

    def test_constant_advecting_field_shifts(self):
        # advection of f by a constant field w is -w . grad f exactly
        g = GridSpec(8, 8, 8, 1.0, 1.0)
        f = field_from_lattice(g, lambda x, y, z: np.sin(2 * np.pi * x))
        block = np.zeros_like(gather([f])[0])
        zero = from_band(g, block)
        block[0, 0, 0] = 2.0  # the mode (0, 0, 0)
        const = from_band(g, block)
        s = ElsasserState(VectorState(f, zero, zero), VectorState(const, zero, zero), 0.0)
        ta, _ = nonlinear_tendency(s)
        expected = -2.0 * partial_derivative(f, "x").coeffs
        assert np.max(np.abs(ta.h1.coeffs - expected)) < 1e-13


class TestPressure:
    def test_pressure_is_even_and_zero_mean(self, grid8_2pi):
        s = seeded_state(grid8_2pi, 120)
        ta, _ = nonlinear_tendency(s)
        phi = poisson_potential(ta, 0.1)
        assert phi.coeffs[0, 0, 0] == 0.0
        assert parity_defect_of(phi, EVEN_IN_Z) < 1e-12 * max(1.0, l2_norm(grid8_2pi, gather([phi])[0]))

    def test_both_elsasser_pressures_agree(self, grid8_2pi):
        """The A-side and B-side tendencies generate the same potential."""
        s = seeded_state(grid8_2pi, 121)
        ta, tb = nonlinear_tendency(s)
        phi_a = poisson_potential(ta, 0.1)
        phi_b = poisson_potential(tb, 0.1)
        c_a, c_b = gather((phi_a, phi_b))
        assert l2_norm(grid8_2pi, c_a - c_b) < 1e-12 * l2_norm(grid8_2pi, c_a)


class TestStepping:
    def test_step_preserves_all_constraints(self, grid8_2pi):
        s = seeded_state(grid8_2pi, 130)
        p = ShmhdParams(eps=0.1, alpha=3.0, dt=1e-3, t_end=1e-3)
        s1 = run(s, p)[-1].state
        scale = max(l2_norm(grid8_2pi, c) for c in gather(s1.a.components()))
        for v in (s1.a, s1.b):
            assert divergence_defect_of(v) < 1e-12 * scale
        for f, cls in (
            (s1.a.h1, EVEN_IN_Z), (s1.a.h2, EVEN_IN_Z), (s1.a.v, ODD_IN_Z),
            (s1.b.h1, EVEN_IN_Z), (s1.b.h2, EVEN_IN_Z), (s1.b.v, ODD_IN_Z),
        ):
            assert parity_defect_of(f, cls) < 1e-12 * scale
        assert s1.t == pytest.approx(1e-3)

    def test_linear_decay_matches_trapezoidal_factor(self):
        # advection off: each mode decays by the implicit-trapezoidal factor
        # (1 - dt lam / 2) / (1 + dt lam / 2) per step.
        g = GridSpec(8, 8, 8, 1.0, 1.0)
        f = gather([field_from_lattice(g, lambda x, y, z: np.sin(2 * np.pi * x))])[0]
        zero = np.zeros_like(f)
        s = Sample(ElsasserState, g, 0.0, [zero, f, zero, zero, f, zero], None)
        dt = 1e-2
        p = ShmhdParams(eps=0.1, alpha=3.0, dt=dt, t_end=10 * dt, advect=False)
        traj = run(s, p, sample_every=10)
        lam = 4 * np.pi**2
        factor = ((1 - 0.5 * dt * lam) / (1 + 0.5 * dt * lam)) ** 10
        got = l2_norm(g, traj[-1].blocks[1]) / l2_norm(g, f)  # a_h2
        assert got == pytest.approx(factor, rel=1e-12)

    def test_linear_energy_balance_closes_to_rounding(self, grid8_2pi):
        s = seeded_state(grid8_2pi, 131)
        p = ShmhdParams(eps=0.1, alpha=3.0, dt=1e-3, t_end=0.02, advect=False)
        traj = run(s, p, sample_every=5)
        report = energy_ledger([x.record for x in traj])
        assert report.passed
        assert max(abs(r) for r in report.residuals) < 1e-12

    def test_nonlinear_energy_never_grows(self, grid8_2pi):
        s = seeded_state(grid8_2pi, 132)
        p = ShmhdParams(eps=0.1, alpha=3.0, dt=1e-3, t_end=0.02)
        traj = run(s, p, sample_every=5)
        report = energy_ledger([x.record for x in traj])
        assert max(report.residuals) <= 1e-6

    def test_manufactured_solution_second_order(self):
        """u = (0, sin(2 pi x), 0) e^(-4 pi^2 t) solves the linear system on
        l1 = l2 = 1; dt-refinement against the exact solution shows order 2."""
        g = GridSpec(8, 8, 8, 1.0, 1.0)
        x = np.arange(g.n1).reshape(-1, 1, 1) * g.dx
        f = band_from_physical(g, np.sin(2 * np.pi * x) * np.ones(g.shape))
        zero = np.zeros_like(f)
        t_end = 0.02
        exact = math.exp(-4 * np.pi**2 * t_end)

        def error(dt):
            s = Sample(ElsasserState, g, 0.0, [zero, f, zero, zero, f, zero], None)
            p = ShmhdParams(eps=0.1, alpha=3.0, dt=dt, t_end=t_end, advect=False)
            final = run(s, p, sample_every=1000)[-1].blocks[1]  # a_h2
            return l2_norm(g, final - exact * f)

        e1, e2, e4 = error(4e-3), error(2e-3), error(1e-3)
        order12 = math.log2(e1 / e2)
        order24 = math.log2(e2 / e4)
        assert order12 >= 1.8
        assert order24 >= 1.8

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_blow_up_raises_with_step_index(self, grid8_2pi):
        s = seeded_state(grid8_2pi, 133)
        for f in (*s.a.components(), *s.b.components()):
            f.half *= 1e6  # violently unstable for this dt
        p = ShmhdParams(eps=0.1, alpha=3.0, dt=0.05, t_end=1.0)
        with pytest.raises(BlowUpError) as exc_info:
            with pytest.warns(UserWarning, match="CFL"):
                run(s, p)
        assert exc_info.value.step_index is not None

    def test_cfl_guard_reads_the_predictor_stage(self, grid8_2pi):
        """A speed that only the corrector's tendency, taken at the predictor,
        reaches still trips the guard."""
        s = seeded_state(grid8_2pi, 134)
        speeds = iter([0.0, 1e9])

        def tendency(grid, blocks):
            return [np.zeros_like(c) for c in blocks], next(speeds)

        with pytest.warns(UserWarning, match="CFL"):
            imex_heun(s.grid, gather(s.fields()), s.t, tendency, lambda grid, blocks: blocks, 1.0, 0.0, 1e-3,
                      s.FIELD_NAMES)

    def test_invalid_params_raise(self):
        with pytest.raises(ValueError, match="eps"):
            ShmhdParams(eps=0.0, alpha=3.0, dt=1e-3, t_end=1.0)
        with pytest.raises(ValueError, match="alpha"):
            ShmhdParams(eps=0.1, alpha=1.5, dt=1e-3, t_end=1.0)
        for eps in (1e-200, 1e-110, 1e160):  # eps**2 or eps**alpha is not a normal float
            with pytest.raises(ValueError, match="eps"):
                ShmhdParams(eps=eps, alpha=3.0, dt=1e-3, t_end=1.0)

    def test_run_rejects_nonpositive_dt(self, grid8_2pi):
        p = ShmhdParams(eps=0.1, alpha=3.0, dt=0.0, t_end=1.0)
        with pytest.raises(ValueError, match="dt"):
            run(seeded_state(grid8_2pi, 136), p)

    @pytest.mark.parametrize("t_end", [math.inf, math.nan, 0.0105])
    def test_run_rejects_t_end_off_the_step_lattice(self, grid8_2pi, t_end):
        p = ShmhdParams(eps=0.1, alpha=3.0, dt=0.002, t_end=t_end)
        with pytest.raises(ValueError, match="t_end"):
            run(seeded_state(grid8_2pi, 136), p)

    def test_alpha_two_is_accepted(self, grid8_2pi):
        s = seeded_state(grid8_2pi, 134)
        p = ShmhdParams(eps=0.1, alpha=2.0, dt=1e-3, t_end=2e-3)
        traj = run(s, p)
        assert len(traj) == 3

    def test_run_is_deterministic(self, grid8_2pi):
        p = ShmhdParams(eps=0.1, alpha=3.0, dt=1e-3, t_end=5e-3)
        t1 = run(seeded_state(grid8_2pi, 135), p)
        t2 = run(seeded_state(grid8_2pi, 135), p)
        assert np.array_equal(t1[-1].state.a.h1.coeffs, t2[-1].state.a.h1.coeffs)


@pytest.mark.parametrize("system", ["shmhd", "pehm"])
@pytest.mark.parametrize("sample_every", [0, -2, 2.5])
def test_run_rejects_a_bad_sample_every_before_stepping(grid8_2pi, monkeypatch, system, sample_every):
    """A sample interval that is not an integer >= 1 is refused before the
    first step, not met as a modulo by zero or as a silent sampling pattern."""
    def step(*args):
        raise AssertionError("stepped")

    monkeypatch.setattr("hydrolimit.integrator.imex_heun", step)
    s = seeded_state(grid8_2pi, 137)
    with pytest.raises(ValueError, match="sample_every"):
        if system == "shmhd":
            run(s, ShmhdParams(eps=0.1, alpha=3.0, dt=1e-3, t_end=0.003), sample_every)
        else:
            pehm_run(PehmState((s.a.h1, s.a.h2), (s.b.h1, s.b.h2), 0.0), 1e-3, 0.003, sample_every)
