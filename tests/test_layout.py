"""The real-FFT half-spectrum layout against full-layout references: each
operator on the stored half matches the same operator on the complex
(n1, n2, n3) spectrum, on boxes with l1 != l2.  The operators that read no
wavenumber table get inputs with the Nyquist planes of every axis populated;
the rest get fields of the 2/3 band, the only fields there are.  On the same
boxes, every incompressibility operator built on the k . c kernel equals the
derivative-chain arithmetic bit for bit.  Every operator and solver output
stays inside the 2/3 band: the field invariant the pair and the single
wavenumber tables rest on."""

import numpy as np
import pytest

from hydrolimit.constraints import (
    EVEN_IN_Z,
    ODD_IN_Z,
    SpectrumParams,
    VectorState,
    anisotropic_leray_project,
    barotropic_defect,
    barotropic_project,
    divergence_defect,
    generate_initial_data,
    hydrostatic_reconstruct,
    leray_potential,
    parity_defect,
    parity_project,
    z_trace,
)
from hydrolimit.diagnostics import _weighted_sums
from hydrolimit.grid import GridSpec
from hydrolimit.pehm import run as pehm_run
from hydrolimit.pehm import _tendency as pehm_tendency
from hydrolimit.shmhd import ShmhdParams
from hydrolimit.shmhd import _tendency as shmhd_tendency
from hydrolimit.shmhd import run as shmhd_run
from hydrolimit.spectral import from_physical, l2_norm, to_physical
from hydrolimit.sweep import SweepConfig, initial_states
from conftest import (
    band_mask,
    chain_barotropic_defect,
    chain_divergence,
    chain_hydrostatic_reconstruct,
    chain_leray_project,
    chain_poisson_solve,
    dealias,
    field_from_full,
    full_band_mask,
    full_barotropic_project,
    full_from_physical,
    full_hydrostatic_reconstruct,
    full_l2_norm,
    full_leray_project,
    full_parity_project,
    full_to_physical,
    full_weighted_sums,
    full_wavenumbers,
    horizontal_divergence,
    irfft_values,
    partial_derivative,
    populated_spectral_field,
    random_real_field,
    random_spectral_field,
    rfft_field,
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
        f = from_physical(g, values)
        assert np.array_equal(f.half, dealias(rfft_field(g, values)).half)
        assert_close(f.coeffs, full_from_physical(g, values) * full_band_mask(g))
        assert_close(to_physical(f), full_to_physical(g, f.coeffs))
        band_values = to_physical(f)
        assert_close(to_physical(from_physical(g, band_values)), band_values)

    def test_parity_project_and_defect(self, n):
        g, f, c = populated(n, 302)
        for cls, even in ((EVEN_IN_Z, True), (ODD_IN_Z, False)):
            want = full_parity_project(g, c, even)
            assert_close(parity_project(f, cls).coeffs, want)
            assert parity_defect(f, cls) == pytest.approx(full_l2_norm(g, c - want), rel=REL)

    def test_l2_norm_and_weighted_sums(self, n):
        g, f, c = populated(n, 303)
        assert l2_norm(f) == pytest.approx(full_l2_norm(g, c), rel=REL)
        g, f, c = banded(n, 303)
        assert _weighted_sums(f) == pytest.approx(full_weighted_sums(g, c), rel=REL)

    def test_anisotropic_leray_project(self, n):
        g = box(n)
        fields = [banded(n, 304 + i)[1] for i in range(3)]
        for eps in (0.3, 0.05):
            got = anisotropic_leray_project(VectorState(*fields), eps)
            want = full_leray_project(g, [f.coeffs for f in fields], eps)
            for x, y in zip(got.components(), want):
                assert_close(x.coeffs, y)

    def test_barotropic_project(self, n):
        g = box(n)
        h = (banded(n, 307)[1], banded(n, 308)[1])
        got = barotropic_project(h)
        want = full_barotropic_project(g, h[0].coeffs, h[1].coeffs)
        for x, y in zip(got, want):
            assert_close(x.coeffs, y)

    def test_z_trace_is_the_full_vertical_sum(self, n):
        _, f, c = populated(n, 309)
        assert_close(z_trace(f), np.sum(c, axis=2))

    def test_hydrostatic_trace_and_residual(self, n):
        """Both layouts pin v(x, y, 0) = 0 and leave the same residual
        dz v + div_H h (rounding only, for a band h);
        their coefficients agree on every plane 0 < |m3| < n3/2."""
        g = box(n)
        h = barotropic_project((banded(n, 310)[1], banded(n, 311)[1]))
        v = hydrostatic_reconstruct(h)
        v_ref = full_hydrostatic_reconstruct(g, h[0].coeffs, h[1].coeffs)
        for phys in (to_physical(v), full_to_physical(g, v_ref)):
            assert np.max(np.abs(phys[:, :, 0])) <= REL * np.max(np.abs(phys))
        assert np.max(np.abs(z_trace(v))) <= REL * np.max(np.abs(v.half))

        kx, ky, kz = full_wavenumbers(g)
        resid_ref = 1j * kz * v_ref + 1j * kx * h[0].coeffs + 1j * ky * h[1].coeffs
        div_h = horizontal_divergence(h)
        resid = partial_derivative(v, "z") + div_h
        # both residuals are rounding, so the scale is that of the source div_H h
        assert np.max(np.abs(resid.coeffs - resid_ref)) <= REL * np.max(np.abs(div_h.coeffs))
        inner = slice(1, n // 2)
        assert_close(v.coeffs[:, :, inner], v_ref[:, :, inner])
        assert_close(v.coeffs[:, :, n // 2 + 1:], v_ref[:, :, n // 2 + 1:])


@pytest.mark.parametrize("n", SIZES)
class TestKernelOracle:
    def test_leray_potential_is_i_times_the_poisson_solve(self, n):
        g = VectorState(*(banded(n, 320 + i)[1] for i in range(3)))
        for eps in (0.3, 0.05):
            want = chain_poisson_solve(chain_divergence(g), eps).half
            assert np.array_equal(-1j * leray_potential(g, eps), want)

    def test_anisotropic_leray_project(self, n):
        g = VectorState(*(banded(n, 323 + i)[1] for i in range(3)))
        for eps in (0.3, 0.05):
            got = anisotropic_leray_project(g, eps)
            want = chain_leray_project(g, eps)
            for x, y in zip(got.components(), want.components()):
                assert np.array_equal(x.half, y.half)

    def test_divergence_defect(self, n):
        """Equal on a random state and on its projection, where only rounding remains."""
        g = VectorState(*(banded(n, 326 + i)[1] for i in range(3)))
        for state in (g, anisotropic_leray_project(g, 0.1)):
            assert divergence_defect(state) == float(np.max(np.abs(chain_divergence(state).half)))

    def test_barotropic_defect(self, n):
        h = (banded(n, 329)[1], banded(n, 330)[1])
        for pair in (h, barotropic_project(h)):
            assert barotropic_defect(pair) == chain_barotropic_defect(pair)

    def test_hydrostatic_reconstruct(self, n):
        h = barotropic_project((banded(n, 331)[1], banded(n, 332)[1]))
        assert np.array_equal(hydrostatic_reconstruct(h).half, chain_hydrostatic_reconstruct(h).half)


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

    def test_from_physical_of_any_values(self, shape):
        g = GridSpec(*shape, 2.0, 3.0)
        f = from_physical(g, random_real_field(g, 340))
        assert np.any(f.half != 0.0)
        self.assert_in_band([f])

    def test_initial_data_and_verticals(self, shape):
        d = generate_initial_data(341, SpectrumParams(), GridSpec(*shape, 2.0, 3.0))
        self.assert_in_band([*d.a_h, *d.b_h, d.a3, d.b3])

    def test_projections_and_reconstruction_of_band_inputs(self, shape):
        g = GridSpec(*shape, 2.0, 3.0)
        fields = [random_spectral_field(g, 342 + i) for i in range(3)]
        h = barotropic_project(fields[:2])
        self.assert_in_band([
            *anisotropic_leray_project(VectorState(*fields), 0.1).components(),
            *h,
            *(parity_project(f, cls) for f in fields for cls in (EVEN_IN_Z, ODD_IN_Z)),
            hydrostatic_reconstruct(h),
        ])

    def test_tendencies(self, shape):
        s0, p0 = initial_states(SweepConfig(*shape, l1=2.0, l2=3.0))
        self.assert_in_band(shmhd_tendency(s0)[0])
        self.assert_in_band(pehm_tendency(p0)[0])

    def test_shmhd_states(self, shape):
        cfg = SweepConfig(*shape, l1=2.0, l2=3.0)
        s0, _ = initial_states(cfg)
        samples = shmhd_run(s0, ShmhdParams(eps=0.1, alpha=4.0, dt=cfg.dt, t_end=4 * cfg.dt))
        assert len(samples) == 5
        for sample in samples:
            self.assert_in_band(sample.state.fields())

    def test_pehm_states_and_their_verticals(self, shape):
        cfg = SweepConfig(*shape, l1=2.0, l2=3.0)
        _, p0 = initial_states(cfg)
        samples = pehm_run(p0, cfg.dt, 4 * cfg.dt)
        assert len(samples) == 5
        for sample in samples:
            s = sample.state
            self.assert_in_band([*s.fields(), hydrostatic_reconstruct(s.a_h), hydrostatic_reconstruct(s.b_h)])
