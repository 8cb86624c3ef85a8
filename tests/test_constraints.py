"""Parity projection, incompressibility, the weighted Leray projector, the
hydrostatic vertical reconstruction, and the seeded initial-data generator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hydrolimit.constraints import (
    EVEN_IN_Z,
    ODD_IN_Z,
    SpectrumParams,
    VectorState,
    generate_initial_data,
    parity_project,
)
from hydrolimit.grid import GridSpec
from hydrolimit.spectral import SpectralField, band_from_physical, from_band, gather, l2_norm
from conftest import (band_mask, barotropic, barotropic_defect_of, divergence_defect_of, field_from_lattice, hydrostatic,
                      initial_vectors, leray, parity, parity_defect_of, physical, random_spectral_field, random_vector)


class TestParity:
    def test_projection_is_idempotent(self, grid8):
        f = random_spectral_field(grid8, 20)
        for cls in (EVEN_IN_Z, ODD_IN_Z):
            p = parity(f, cls)
            pp = parity(p, cls)
            assert np.max(np.abs(pp.coeffs - p.coeffs)) < 1e-15

    def test_even_plus_odd_recovers_field(self, grid8):
        f = random_spectral_field(grid8, 21)
        e = parity(f, EVEN_IN_Z)
        o = parity(f, ODD_IN_Z)
        assert np.max(np.abs(e.coeffs + o.coeffs - f.coeffs)) < 1e-15

    def test_parts_are_l2_orthogonal(self, grid8):
        f = random_spectral_field(grid8, 22)
        e = parity(f, EVEN_IN_Z)
        o = parity(f, ODD_IN_Z)
        n_f, n_e, n_o = (l2_norm(grid8, c) for c in gather((f, e, o)))
        assert n_f**2 == pytest.approx(n_e**2 + n_o**2, rel=1e-12)

    def test_even_field_reflects_in_physical_space(self, grid8):
        f = parity(random_spectral_field(grid8, 23), EVEN_IN_Z)
        vals = physical(f)
        # z-lattice reflection z -> -z is index j -> -j (mod n3)
        refl = vals[:, :, (-np.arange(grid8.n3)) % grid8.n3]
        assert np.max(np.abs(vals - refl)) < 1e-13

    def test_known_defect_value(self, grid8):
        # sin(pi z) is odd: its even defect is its full norm sqrt(l1*l2)
        f = field_from_lattice(grid8, lambda x, y, z: np.sin(np.pi * z))
        assert parity_defect_of(f, EVEN_IN_Z) == pytest.approx(1.0, rel=1e-12)
        assert parity_defect_of(f, ODD_IN_Z) < 1e-13

    def test_unknown_class_raises(self, grid8):
        with pytest.raises(ValueError, match="parity class"):
            parity(from_band(grid8, band_from_physical(grid8, np.zeros(grid8.shape))), "sideways")


class TestLerayProjection:
    def test_output_is_divergence_free(self, grid8_2pi):
        g = random_vector(grid8_2pi, 30)
        proj = leray(g, eps=0.1)
        assert divergence_defect_of(proj) < 1e-12 * max(l2_norm(grid8_2pi, c) for c in gather(g.components()))

    def test_idempotent(self, grid8_2pi):
        g = random_vector(grid8_2pi, 31)
        once = leray(g, 0.2)
        twice = leray(once, 0.2)
        for a, b in zip(once.components(), twice.components()):
            assert np.max(np.abs(a.coeffs - b.coeffs)) < 1e-12

    def test_matches_per_mode_projector_oracle(self):
        """Independent oracle: per-mode 3x3 oblique projector
        P = I - (w k k^T) / (k^T w k), w = diag(1, 1, eps^-2)."""
        grid = GridSpec(8, 8, 8, 1.0, 1.0)
        eps = 0.3
        g = random_vector(grid, 32)
        proj = leray(g, eps)
        w = np.diag([1.0, 1.0, eps**-2])
        worst = 0.0
        for m1 in range(-2, 3):
            for m2 in range(-2, 3):
                for m3 in range(-2, 3):
                    idx = (m1 % 8, m2 % 8, m3 % 8)
                    k = np.array([2 * np.pi * m1, 2 * np.pi * m2, np.pi * m3])
                    vec = np.array([f.coeffs[idx] for f in g.components()])
                    if np.all(k == 0):
                        expected = vec
                    else:
                        denom = k @ w @ k
                        expected = vec - (w @ k) * (k @ vec) / denom
                    got = np.array([f.coeffs[idx] for f in proj.components()])
                    worst = max(worst, float(np.max(np.abs(got - expected))))
        assert worst < 1e-14

    def test_orthogonal_in_weighted_energy(self, grid8_2pi):
        """The removed gradient part is orthogonal to the projection in the
        eps-weighted inner product, so the weighted energies add."""
        eps = 0.15
        g = random_vector(grid8_2pi, 33)
        p = leray(g, eps)

        def energy(c):
            h1, h2, v = (l2_norm(grid8_2pi, x) for x in c)
            return h1**2 + h2**2 + eps**2 * v**2

        c_g, c_p = gather(g.components()), gather(p.components())
        removed = [x - y for x, y in zip(c_g, c_p)]
        assert energy(c_g) == pytest.approx(energy(c_p) + energy(removed), rel=1e-12)


class TestHydrostatic:
    def test_single_mode_closed_form(self):
        # h = (sin(2 pi x) cos(pi z), 0) on l1 = l2 = 1:
        # div_H h = 2 pi cos(2 pi x) cos(pi z), and
        # v = -int_0^z div_H = -2 cos(2 pi x) sin(pi z).
        g = GridSpec(8, 8, 8, 1.0, 1.0)
        h1 = field_from_lattice(g, lambda x, y, z: np.sin(2 * np.pi * x) * np.cos(np.pi * z))
        v = hydrostatic((h1, from_band(g, np.zeros_like(gather([h1])[0]))))
        expected = field_from_lattice(
            g, lambda x, y, z: -2.0 * np.cos(2 * np.pi * x) * np.sin(np.pi * z)
        )
        assert np.max(np.abs(v.coeffs - expected.coeffs)) < 1e-13

    def test_closes_the_divergence(self, grid8_2pi):
        a, _ = initial_vectors(40, SpectrumParams(), grid8_2pi)
        v = hydrostatic((a.h1, a.h2))
        state = VectorState(a.h1, a.h2, v)
        scale = max(l2_norm(grid8_2pi, c) for c in gather((a.h1, a.h2)))
        assert divergence_defect_of(state) < 1e-13 * scale

    def test_trace_vanishes_at_z_zero(self, grid8_2pi):
        _, b = initial_vectors(41, SpectrumParams(), grid8_2pi)
        v = hydrostatic((b.h1, b.h2))
        # v(x, y, 0) is the sum of coefficients over all vertical modes
        trace = np.sum(v.coeffs, axis=2)
        assert np.max(np.abs(trace)) < 1e-15

    def test_odd_parity_of_reconstruction(self, grid8_2pi):
        a, _ = initial_vectors(42, SpectrumParams(), grid8_2pi)
        v = hydrostatic((a.h1, a.h2))
        assert parity_defect_of(v, ODD_IN_Z) < 1e-13

    def test_rejects_non_barotropic_input(self, grid8_2pi):
        h = (random_spectral_field(grid8_2pi, 43), random_spectral_field(grid8_2pi, 44))
        with pytest.raises(ValueError, match="barotropic"):
            hydrostatic(h)


class TestBarotropic:
    def test_projection_clears_defect(self, grid8_2pi):
        h = (random_spectral_field(grid8_2pi, 50), random_spectral_field(grid8_2pi, 51))
        scale = max(l2_norm(grid8_2pi, c) for c in gather(h))
        assert barotropic_defect_of(h) > 1e-6 * scale  # generic input is not compatible
        proj = barotropic(h)
        assert barotropic_defect_of(proj) < 1e-13 * scale

    def test_leaves_nonzero_vertical_modes_alone(self, grid8_2pi):
        h = (random_spectral_field(grid8_2pi, 52), random_spectral_field(grid8_2pi, 53))
        proj = barotropic(h)
        for orig, new in zip(h, proj):
            assert np.array_equal(orig.coeffs[:, :, 1:], new.coeffs[:, :, 1:])

    def test_idempotent(self, grid8_2pi):
        h = (random_spectral_field(grid8_2pi, 54), random_spectral_field(grid8_2pi, 55))
        once = barotropic(h)
        twice = barotropic(once)
        for a, b in zip(once, twice):
            assert np.max(np.abs(a.coeffs - b.coeffs)) < 1e-15


class TestInitialData:
    def test_deterministic_in_seed(self, grid8_2pi):
        a1, b1 = initial_vectors(60, SpectrumParams(), grid8_2pi)
        a2, b2 = initial_vectors(60, SpectrumParams(), grid8_2pi)
        assert np.array_equal(a1.h1.coeffs, a2.h1.coeffs)
        assert np.array_equal(b1.v.coeffs, b2.v.coeffs)

    def test_returns_six_band_blocks(self, grid8_2pi):
        """One band block per field of ``shmhd.FIELD_NAMES``, no
        half-spectrum (the oracle test below checks their order and values)."""
        i1, i2, k3 = grid8_2pi.band
        blocks = generate_initial_data(66, SpectrumParams(), grid8_2pi)
        assert [c.shape for c in blocks] == [(i1.size, i2.size, k3)] * 6

    def test_different_seeds_differ(self, grid8_2pi):
        a1, _ = initial_vectors(61, SpectrumParams(), grid8_2pi)
        a2, _ = initial_vectors(62, SpectrumParams(), grid8_2pi)
        assert not np.array_equal(a1.h1.coeffs, a2.h1.coeffs)

    def test_all_structural_invariants(self, grid8_2pi):
        a, b = initial_vectors(63, SpectrumParams(), grid8_2pi)
        scale = max(l2_norm(grid8_2pi, c) for c in gather((a.h1, a.h2, b.h1, b.h2)))
        for f in (a.h1, a.h2, b.h1, b.h2):
            assert parity_defect_of(f, EVEN_IN_Z) < 1e-13 * scale
        for v in (a.v, b.v):
            assert parity_defect_of(v, ODD_IN_Z) < 1e-13 * scale
        assert divergence_defect_of(a) < 1e-13 * scale
        assert divergence_defect_of(b) < 1e-13 * scale

    def test_fields_are_real_and_band_limited(self, grid8_2pi):
        a, _ = initial_vectors(64, SpectrumParams(), grid8_2pi)
        f = a.h1
        phys = np.fft.ifftn(f.coeffs * (grid8_2pi.n1 * grid8_2pi.n2 * grid8_2pi.n3))
        assert np.max(np.abs(phys.imag)) < 1e-13
        assert np.all(f.half[~band_mask(grid8_2pi)] == 0.0)

    def test_zero_amplitude_gives_zero_state(self, grid8_2pi):
        a, b = initial_vectors(65, SpectrumParams(amplitude=0.0), grid8_2pi)
        for c in gather((*a.components(), *b.components())):
            assert l2_norm(grid8_2pi, c) == 0.0

    @staticmethod
    def full_lattice_scalar(rng, grid, spectrum):
        """The generator's earlier form, the oracle: envelope and Hermitian
        symmetrization over the whole (n1, n2, n3) lattice, then the band block."""
        shape = grid.shape
        c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        m3 = np.fft.fftfreq(grid.n3, 1.0 / grid.n3).astype(np.int64).reshape(1, 1, -1)
        env = spectrum.amplitude * np.exp(-(grid.modes1**2 + grid.modes2**2 + m3**2) / spectrum.m0**2)
        c = c * env
        r3 = (-np.arange(grid.n3)) % grid.n3
        reflect_xy = np.ix_((-np.arange(grid.n1)) % grid.n1, (-np.arange(grid.n2)) % grid.n2)
        c = 0.5 * (c + np.conj(c[reflect_xy][:, :, r3]))
        i1, i2, k3 = grid.band
        return SpectralField(grid, parity_project(from_band(grid, c[i1[:, None], i2, :k3]).half, EVEN_IN_Z))

    @pytest.mark.parametrize("shape", [(16, 24, 32), (48, 20, 12), (4, 6, 4)])
    @pytest.mark.parametrize("spectrum", [SpectrumParams(), SpectrumParams(amplitude=0.3, m0=1.7)])
    @pytest.mark.parametrize("seed", [0, 99])
    def test_band_only_draw_matches_full_lattice_oracle(self, shape, spectrum, seed):
        grid = GridSpec(*shape, 3.0, 9.0)
        rng = np.random.default_rng(seed)
        a_h = barotropic([self.full_lattice_scalar(rng, grid, spectrum) for _ in range(2)])
        b_h = barotropic([self.full_lattice_scalar(rng, grid, spectrum) for _ in range(2)])
        expected = [*a_h, hydrostatic(a_h), *b_h, hydrostatic(b_h)]
        a, b = initial_vectors(seed, spectrum, grid)
        for f, e in zip((*a.components(), *b.components()), expected):
            assert f.half.tobytes() == e.half.tobytes()

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_divergence_free_property(self, seed):
        grid = GridSpec(8, 8, 8, 2 * np.pi, 2 * np.pi)
        a, _ = initial_vectors(seed, SpectrumParams(), grid)
        scale = max(l2_norm(grid, c) for c in gather((a.h1, a.h2))) or 1.0
        assert divergence_defect_of(a) < 1e-12 * scale
