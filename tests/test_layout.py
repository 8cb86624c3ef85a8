"""The real-FFT half-spectrum layout against full-layout references: each
operator on the stored half matches the same operator on the complex
(n1, n2, n3) spectrum, on boxes with l1 != l2.  ``.coeffs``, parity and
``z_trace``, which read no wavenumber table, get inputs with the Nyquist
planes of every axis populated; the rest get fields of the 2/3 band, the
only fields there are.  On the same boxes, every incompressibility operator
built on the k . c kernel equals the derivative-chain arithmetic bit for bit.  Every operator and solver output
stays inside the 2/3 band: the field invariant the pair and the single
wavenumber tables rest on.  A step on band blocks equals the same step on the
half-spectrum bit for bit."""

import numpy as np
import pytest

from hydrolimit.constraints import (
    EVEN_IN_Z,
    ODD_IN_Z,
    SpectrumParams,
    VectorState,
    leray_denominator,
    parity_project,
)
from hydrolimit.grid import GridSpec
from hydrolimit.integrator import elsasser_advection, imex_heun
from hydrolimit.pehm import PehmState
from hydrolimit.pehm import run as pehm_run
from hydrolimit.pehm import _enforce as pehm_enforce
from hydrolimit.pehm import _tendency as pehm_tendency
from hydrolimit.shmhd import ElsasserState, ShmhdParams
from hydrolimit.shmhd import _enforce as shmhd_enforce
from hydrolimit.shmhd import _tendency as shmhd_tendency
from hydrolimit.shmhd import run as shmhd_run
from hydrolimit.spectral import SpectralField, band_from_physical, from_band, gather, l2_norm, to_physical
from hydrolimit.sweep import SweepConfig, initial_states
from conftest import (
    band_mask,
    barotropic,
    barotropic_defect_of,
    chain_barotropic_defect,
    chain_divergence,
    chain_hydrostatic_reconstruct,
    chain_leray_project,
    chain_poisson_solve,
    dealias,
    divergence_defect_of,
    field_from_full,
    full_band_mask,
    full_barotropic_project,
    full_from_physical,
    full_hydrostatic_reconstruct,
    full_l2_norm,
    full_leray_project,
    full_parity_project,
    full_to_physical,
    full_wavenumbers,
    full_weighted_sums,
    half_barotropic_project,
    half_hydrostatic_reconstruct,
    half_leray_project,
    half_wavenumbers,
    horizontal_divergence,
    hydrostatic,
    initial_vectors,
    irfft_values,
    leray,
    parity,
    parity_defect_of,
    partial_derivative,
    physical,
    populated_spectral_field,
    potential,
    random_real_field,
    random_spectral_field,
    rfft_field,
    trace,
    weighted_sums,
)

REL = 1e-13
SIZES = [16, 24]


def box(n: int) -> GridSpec:
    return GridSpec(n, n, n, 2.0, 3.0)


def populated(n: int, seed: int):
    """A random real field, its half-spectrum field and its full spectrum,
    checked to carry content on the Nyquist plane of each axis."""
    g = box(n)
    f = populated_spectral_field(g, seed)
    c = f.coeffs
    for plane in (c[n // 2], c[:, n // 2], c[:, :, n // 2]):
        assert np.max(np.abs(plane)) > 1e-3 * np.max(np.abs(c))
    return g, f, c


def banded(n: int, seed: int):
    """A random field of the 2/3 band, its half-spectrum field and its full
    spectrum."""
    g = box(n)
    f = random_spectral_field(g, seed)
    return g, f, f.coeffs


def assert_close(got, want, rel=REL):
    scale = max(np.max(np.abs(want)), 1e-300)
    assert np.max(np.abs(got - want)) <= rel * scale


@pytest.mark.parametrize("n", SIZES)
class TestLayoutOracle:
    def test_half_shape_and_read_only_expansion(self, n):
        g, f, c = populated(n, 300)
        assert f.half.shape == (n, n, n // 2 + 1)
        assert c.shape == g.shape
        with pytest.raises(ValueError):
            c[0, 0, 0] = 1.0
        assert_close(c, full_from_physical(g, irfft_values(f)))

    def test_transforms(self, n):
        """The forward of any lattice values is the 2/3 truncation of numpy's
        real FFT, bit for bit; the pair maps band values back to themselves."""
        g = box(n)
        values = random_real_field(g, 301)
        f = from_band(g, band_from_physical(g, values))
        assert np.array_equal(f.half, dealias(rfft_field(g, values)).half)
        assert_close(f.coeffs, full_from_physical(g, values) * full_band_mask(g))
        assert_close(physical(f), full_to_physical(g, f.coeffs))
        band_values = physical(f)
        assert_close(to_physical(g, band_from_physical(g, band_values)), band_values)

    def test_parity_project_and_defect(self, n):
        g, f, c = populated(n, 302)
        for cls, even in ((EVEN_IN_Z, True), (ODD_IN_Z, False)):
            want = full_parity_project(g, c, even)
            assert_close(SpectralField(g, parity_project(f.half, cls)).coeffs, want)
            # the defect reads the band block: the band part of the reference
            assert parity_defect_of(dealias(f), cls) == pytest.approx(
                full_l2_norm(g, (c - want) * full_band_mask(g)), rel=REL)

    def test_l2_norm_and_weighted_sums(self, n):
        g, f, c = banded(n, 303)
        assert l2_norm(g, gather([f])[0]) == pytest.approx(full_l2_norm(g, c), rel=REL)
        assert weighted_sums(f) == pytest.approx(full_weighted_sums(g, c), rel=REL)

    def test_anisotropic_leray_project(self, n):
        g = box(n)
        fields = [banded(n, 304 + i)[1] for i in range(3)]
        for eps in (0.3, 0.05):
            got = leray(VectorState(*fields), eps)
            want = full_leray_project(g, [f.coeffs for f in fields], eps)
            for x, y in zip(got.components(), want):
                assert_close(x.coeffs, y)

    def test_barotropic_project(self, n):
        g = box(n)
        h = (banded(n, 307)[1], banded(n, 308)[1])
        got = barotropic(h)
        want = full_barotropic_project(g, h[0].coeffs, h[1].coeffs)
        for x, y in zip(got, want):
            assert_close(x.coeffs, y)

    def test_z_trace_is_the_full_vertical_sum(self, n):
        """Of the full vertical sum, the trace of the band block is the part of
        the modes the block holds."""
        g, f, c = populated(n, 309)
        assert_close(trace(f), np.sum(c * full_band_mask(g), axis=2))

    def test_hydrostatic_trace_and_residual(self, n):
        """Both layouts pin v(x, y, 0) = 0 and leave the same residual
        dz v + div_H h (rounding only, for a band h);
        their coefficients agree on every plane 0 < |m3| < n3/2."""
        g = box(n)
        h = barotropic((banded(n, 310)[1], banded(n, 311)[1]))
        v = hydrostatic(h)
        v_ref = full_hydrostatic_reconstruct(g, h[0].coeffs, h[1].coeffs)
        for phys in (physical(v), full_to_physical(g, v_ref)):
            assert np.max(np.abs(phys[:, :, 0])) <= REL * np.max(np.abs(phys))
        assert np.max(np.abs(trace(v))) <= REL * np.max(np.abs(v.half))

        kx, ky, kz = full_wavenumbers(g)
        resid_ref = 1j * kz * v_ref + 1j * kx * h[0].coeffs + 1j * ky * h[1].coeffs
        div_h = horizontal_divergence(h)
        resid = partial_derivative(v, "z").coeffs + div_h.coeffs
        # both residuals are rounding, so the scale is that of the source div_H h
        assert np.max(np.abs(resid - resid_ref)) <= REL * np.max(np.abs(div_h.coeffs))
        inner = slice(1, n // 2)
        assert_close(v.coeffs[:, :, inner], v_ref[:, :, inner])
        assert_close(v.coeffs[:, :, n // 2 + 1:], v_ref[:, :, n // 2 + 1:])


@pytest.mark.parametrize("n", SIZES)
class TestKernelOracle:
    def test_leray_potential_is_i_times_the_poisson_solve(self, n):
        g = VectorState(*(banded(n, 320 + i)[1] for i in range(3)))
        for eps in (0.3, 0.05):
            want = chain_poisson_solve(chain_divergence(g), eps).half
            assert np.array_equal(-1j * potential(g, eps), want)

    def test_anisotropic_leray_project(self, n):
        g = VectorState(*(banded(n, 323 + i)[1] for i in range(3)))
        for eps in (0.3, 0.05):
            got = leray(g, eps)
            want = chain_leray_project(g, eps)
            for x, y in zip(got.components(), want.components()):
                assert np.array_equal(x.half, y.half)

    def test_divergence_defect(self, n):
        """Equal on a random state and on its projection, where only rounding remains."""
        g = VectorState(*(banded(n, 326 + i)[1] for i in range(3)))
        for state in (g, leray(g, 0.1)):
            assert divergence_defect_of(state) == float(np.max(np.abs(chain_divergence(state).half)))

    def test_barotropic_defect(self, n):
        h = (banded(n, 329)[1], banded(n, 330)[1])
        for pair in (h, barotropic(h)):
            assert barotropic_defect_of(pair) == chain_barotropic_defect(pair)

    def test_hydrostatic_reconstruct(self, n):
        h = barotropic((banded(n, 331)[1], banded(n, 332)[1]))
        assert np.array_equal(hydrostatic(h).half, chain_hydrostatic_reconstruct(h).half)


def test_field_from_full_keeps_the_half():
    g = box(16)
    f = random_spectral_field(g, 312)
    assert np.array_equal(field_from_full(g, f.coeffs).half, f.half)


BAND_SHAPES = [(16, 16, 16), (24, 24, 24), (24, 16, 12)]


@pytest.mark.parametrize("shape", BAND_SHAPES, ids=["16^3", "24^3", "24x16x12"])
class TestBandPrecondition:
    """Every ``SpectralField`` is zero outside the 2/3 band: the inverse
    transform reads only the band, and the wavenumber tables carry no
    Nyquist-zeroed copies, so every operator and solver output must be
    exactly 0.0 there."""

    @staticmethod
    def outside(fields):
        return [f.half[~band_mask(f.grid)] for f in fields]

    def assert_in_band(self, fields):
        assert all(np.all(c == 0.0) for c in self.outside(fields))

    def test_forward_of_any_values(self, shape):
        g = GridSpec(*shape, 2.0, 3.0)
        f = from_band(g, band_from_physical(g, random_real_field(g, 340)))
        assert np.any(f.half != 0.0)
        self.assert_in_band([f])

    def test_initial_data_and_verticals(self, shape):
        a, b = initial_vectors(341, SpectrumParams(), GridSpec(*shape, 2.0, 3.0))
        self.assert_in_band([*a.components(), *b.components()])

    def test_projections_and_reconstruction_of_band_inputs(self, shape):
        g = GridSpec(*shape, 2.0, 3.0)
        fields = [random_spectral_field(g, 342 + i) for i in range(3)]
        h = barotropic(fields[:2])
        self.assert_in_band([
            *leray(VectorState(*fields), 0.1).components(),
            *h,
            *(parity(f, cls) for f in fields for cls in (EVEN_IN_Z, ODD_IN_Z)),
            hydrostatic(h),
        ])

    def test_tendencies(self, shape):
        """The tendencies are band blocks, so they hold no mode outside the band."""
        s0, p0 = initial_states(SweepConfig(*shape, l1=2.0, l2=3.0))
        i1, i2, k3 = s0.grid.band
        for s, tendency in ((s0, shmhd_tendency), (p0, pehm_tendency)):
            assert [t.shape for t in tendency(s.grid, gather(s.fields()))[0]] == [(i1.size, i2.size, k3)] * len(s.fields())

    # The stepped states themselves: a default sample rebuilds its state from
    # band blocks, so it is in band by construction.
    def test_shmhd_states(self, shape):
        cfg = SweepConfig(*shape, l1=2.0, l2=3.0)
        s0, _ = initial_states(cfg)
        states = shmhd_run(s0, ShmhdParams(eps=0.1, alpha=4.0, dt=cfg.dt, t_end=4 * cfg.dt),
                           sample=lambda smp: smp.state)
        assert len(states) == 5
        for s in states:
            self.assert_in_band(s.fields())

    def test_pehm_states_and_their_verticals(self, shape):
        cfg = SweepConfig(*shape, l1=2.0, l2=3.0)
        _, p0 = initial_states(cfg)
        states = pehm_run(p0, cfg.dt, 4 * cfg.dt, sample=lambda smp: smp.state)
        assert len(states) == 5
        for s in states:
            self.assert_in_band([*s.fields(), hydrostatic(s.a_h), hydrostatic(s.b_h)])


def half_layout_step(s, tendency, enforce, decay, gain, dt):
    """The IMEX-Heun step on the whole half-spectrum, without the CFL guard:
    full-half factors, half-spectrum states and enforcement, each tendency
    block embedded by ``from_band``."""
    def rebuild(arrays, t):
        return type(s).from_fields([SpectralField(s.grid, c) for c in arrays], t)

    def halves(state):
        return [from_band(state.grid, t).half for t in tendency(state)]

    t_new = s.t + dt
    c = [f.half for f in s.fields()]
    if tendency is None:
        return enforce(rebuild([decay * x for x in c], t_new))
    t1 = halves(s)
    pred = enforce(rebuild([decay * x + gain * (g + g) for x, g in zip(c, t1)], t_new))
    t2 = halves(pred)
    return enforce(rebuild([decay * x + gain * (g1 + g2) for x, g1, g2 in zip(c, t1, t2)], t_new))


def half_shmhd_tendency(s):
    return elsasser_advection(s.grid, gather(s.a.components()), gather(s.b.components()), 3)[0]


def half_pehm_tendency(s):
    """The advection with verticals reconstructed on the whole half-spectrum."""
    a3, b3 = half_hydrostatic_reconstruct(s.a_h), half_hydrostatic_reconstruct(s.b_h)
    return elsasser_advection(s.grid, gather((*s.a_h, a3)), gather((*s.b_h, b3)), 2)[0]


@pytest.mark.parametrize("advect", [True, False], ids=["advect", "linear"])
@pytest.mark.parametrize("system", ["shmhd", "pehm"])
@pytest.mark.parametrize("shape, lengths", [((16, 16, 16), (2.0 * np.pi, 2.0 * np.pi)), ((24, 16, 12), (2.0, 3.0))],
                         ids=["16^3", "24x16x12"])
def test_band_step_equals_the_half_layout_step(shape, lengths, system, advect):
    """One ``imex_heun`` step, with tendencies, enforcement and the factors of
    ``integrator.run`` on band blocks, is bit-identical to the step on the
    whole half-spectrum, with the half-spectrum Leray, barotropic and
    hydrostatic operators and the factors of the same symbol on the whole half."""
    cfg = SweepConfig(*shape, l1=lengths[0], l2=lengths[1])
    s0, p0 = initial_states(cfg)
    g = s0.grid
    kx, ky, kz = half_wavenumbers(g)
    if system == "shmhd":
        eps, alpha = 0.1, 3.0
        s, tendency, lam = s0, shmhd_tendency, g.k2h + eps ** (alpha - 2.0) * g.kz**2
        enforce = lambda grid, c: shmhd_enforce(grid, c, eps, leray_denominator(grid, eps))
        half_tendency, half_lam = half_shmhd_tendency, kx**2 + ky**2 + eps ** (alpha - 2.0) * kz**2
        half_enforce = lambda state: ElsasserState(half_leray_project(state.a, eps),
                                                   half_leray_project(state.b, eps), state.t)
    else:
        s, tendency, enforce, lam = p0, pehm_tendency, pehm_enforce, g.k2h
        half_tendency, half_lam = half_pehm_tendency, kx**2 + ky**2
        half_enforce = lambda state: PehmState(half_barotropic_project(state.a_h),
                                               half_barotropic_project(state.b_h), state.t)
    if not advect:
        tendency = half_tendency = None
    h = 0.5 * cfg.dt

    def factors(symbol):
        return (1.0 - h * symbol) / (1.0 + h * symbol), h / (1.0 + h * symbol)

    got, t = imex_heun(g, gather(s.fields()), s.t, tendency, enforce, *factors(lam), cfg.dt, s.FIELD_NAMES)
    want = half_layout_step(s, half_tendency, half_enforce, *factors(half_lam), cfg.dt)
    assert t == want.t
    assert all(np.array_equal(from_band(g, c).half, w.half) for c, w in zip(got, want.fields(), strict=True))
