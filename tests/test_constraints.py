"""Parity projection, incompressibility, the weighted Leray projector, the
hydrostatic vertical reconstruction, and the seeded initial-data generator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hydrolimit.constraints import (
    EVEN_IN_Z,
    ODD_IN_Z,
    InitialData,
    SpectrumParams,
    VectorState,
    anisotropic_leray_project,
    barotropic_defect,
    barotropic_project,
    divergence_defect,
    generate_initial_data,
    hydrostatic_reconstruct,
    parity_defect,
    parity_project,
)
from hydrolimit.grid import GridSpec
from hydrolimit.spectral import l2_norm, to_physical, zero_field
from conftest import band_mask, field_from_lattice, random_spectral_field, random_vector


class TestParity:
    def test_projection_is_idempotent(self, grid8):
        f = random_spectral_field(grid8, 20)
        for cls in (EVEN_IN_Z, ODD_IN_Z):
            p = parity_project(f, cls)
            pp = parity_project(p, cls)
            assert np.max(np.abs(pp.coeffs - p.coeffs)) < 1e-15

    def test_even_plus_odd_recovers_field(self, grid8):
        f = random_spectral_field(grid8, 21)
        e = parity_project(f, EVEN_IN_Z)
        o = parity_project(f, ODD_IN_Z)
        assert np.max(np.abs(e.coeffs + o.coeffs - f.coeffs)) < 1e-15

    def test_parts_are_l2_orthogonal(self, grid8):
        f = random_spectral_field(grid8, 22)
        e = parity_project(f, EVEN_IN_Z)
        o = parity_project(f, ODD_IN_Z)
        assert l2_norm(f) ** 2 == pytest.approx(l2_norm(e) ** 2 + l2_norm(o) ** 2, rel=1e-12)

    def test_even_field_reflects_in_physical_space(self, grid8):
        f = parity_project(random_spectral_field(grid8, 23), EVEN_IN_Z)
        vals = to_physical(f)
        # z-lattice reflection z -> -z is index j -> -j (mod n3)
        refl = vals[:, :, (-np.arange(grid8.n3)) % grid8.n3]
        assert np.max(np.abs(vals - refl)) < 1e-13

    def test_known_defect_value(self, grid8):
        # sin(pi z) is odd: its even defect is its full norm sqrt(l1*l2)
        f = field_from_lattice(grid8, lambda x, y, z: np.sin(np.pi * z))
        assert parity_defect(f, EVEN_IN_Z) == pytest.approx(1.0, rel=1e-12)
        assert parity_defect(f, ODD_IN_Z) < 1e-13

    def test_unknown_class_raises(self, grid8):
        with pytest.raises(ValueError, match="parity class"):
            parity_project(zero_field(grid8), "sideways")


class TestLerayProjection:
    def test_output_is_divergence_free(self, grid8_2pi):
        g = random_vector(grid8_2pi, 30)
        proj = anisotropic_leray_project(g, eps=0.1)
        assert divergence_defect(proj) < 1e-12 * max(l2_norm(f) for f in g.components())

    def test_idempotent(self, grid8_2pi):
        g = random_vector(grid8_2pi, 31)
        once = anisotropic_leray_project(g, 0.2)
        twice = anisotropic_leray_project(once, 0.2)
        for a, b in zip(once.components(), twice.components()):
            assert np.max(np.abs(a.coeffs - b.coeffs)) < 1e-12

    def test_matches_per_mode_projector_oracle(self):
        """Independent oracle: per-mode 3x3 oblique projector
        P = I - (w k k^T) / (k^T w k), w = diag(1, 1, eps^-2)."""
        grid = GridSpec(8, 8, 8, 1.0, 1.0)
        eps = 0.3
        g = random_vector(grid, 32)
        proj = anisotropic_leray_project(g, eps)
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
        p = anisotropic_leray_project(g, eps)

        def energy(v):
            return (
                l2_norm(v.h1) ** 2 + l2_norm(v.h2) ** 2 + eps**2 * l2_norm(v.v) ** 2
            )

        removed = VectorState(g.h1 - p.h1, g.h2 - p.h2, g.v - p.v)
        assert energy(g) == pytest.approx(energy(p) + energy(removed), rel=1e-12)


class TestHydrostatic:
    def test_single_mode_closed_form(self):
        # h = (sin(2 pi x) cos(pi z), 0) on l1 = l2 = 1:
        # div_H h = 2 pi cos(2 pi x) cos(pi z), and
        # v = -int_0^z div_H = -2 cos(2 pi x) sin(pi z).
        g = GridSpec(8, 8, 8, 1.0, 1.0)
        h1 = field_from_lattice(g, lambda x, y, z: np.sin(2 * np.pi * x) * np.cos(np.pi * z))
        v = hydrostatic_reconstruct((h1, zero_field(g)))
        expected = field_from_lattice(
            g, lambda x, y, z: -2.0 * np.cos(2 * np.pi * x) * np.sin(np.pi * z)
        )
        assert np.max(np.abs(v.coeffs - expected.coeffs)) < 1e-13

    def test_closes_the_divergence(self, grid8_2pi):
        data = generate_initial_data(40, SpectrumParams(), grid8_2pi)
        v = hydrostatic_reconstruct(data.a_h)
        state = VectorState(data.a_h[0], data.a_h[1], v)
        scale = max(l2_norm(f) for f in data.a_h)
        assert divergence_defect(state) < 1e-13 * scale

    def test_trace_vanishes_at_z_zero(self, grid8_2pi):
        data = generate_initial_data(41, SpectrumParams(), grid8_2pi)
        v = hydrostatic_reconstruct(data.b_h)
        # v(x, y, 0) is the sum of coefficients over all vertical modes
        trace = np.sum(v.coeffs, axis=2)
        assert np.max(np.abs(trace)) < 1e-15

    def test_odd_parity_of_reconstruction(self, grid8_2pi):
        data = generate_initial_data(42, SpectrumParams(), grid8_2pi)
        v = hydrostatic_reconstruct(data.a_h)
        assert parity_defect(v, ODD_IN_Z) < 1e-13

    def test_rejects_non_barotropic_input(self, grid8_2pi):
        h = (random_spectral_field(grid8_2pi, 43), random_spectral_field(grid8_2pi, 44))
        with pytest.raises(ValueError, match="barotropic"):
            hydrostatic_reconstruct(h)


class TestBarotropic:
    def test_projection_clears_defect(self, grid8_2pi):
        h = (random_spectral_field(grid8_2pi, 50), random_spectral_field(grid8_2pi, 51))
        scale = max(l2_norm(f) for f in h)
        assert barotropic_defect(h) > 1e-6 * scale  # generic input is not compatible
        proj = barotropic_project(h)
        assert barotropic_defect(proj) < 1e-13 * scale

    def test_leaves_nonzero_vertical_modes_alone(self, grid8_2pi):
        h = (random_spectral_field(grid8_2pi, 52), random_spectral_field(grid8_2pi, 53))
        proj = barotropic_project(h)
        for orig, new in zip(h, proj):
            assert np.array_equal(orig.coeffs[:, :, 1:], new.coeffs[:, :, 1:])

    def test_idempotent(self, grid8_2pi):
        h = (random_spectral_field(grid8_2pi, 54), random_spectral_field(grid8_2pi, 55))
        once = barotropic_project(h)
        twice = barotropic_project(once)
        for a, b in zip(once, twice):
            assert np.max(np.abs(a.coeffs - b.coeffs)) < 1e-15


class TestInitialData:
    def test_deterministic_in_seed(self, grid8_2pi):
        d1 = generate_initial_data(60, SpectrumParams(), grid8_2pi)
        d2 = generate_initial_data(60, SpectrumParams(), grid8_2pi)
        assert np.array_equal(d1.a_h[0].coeffs, d2.a_h[0].coeffs)
        assert np.array_equal(d1.b3.coeffs, d2.b3.coeffs)

    def test_different_seeds_differ(self, grid8_2pi):
        d1 = generate_initial_data(61, SpectrumParams(), grid8_2pi)
        d2 = generate_initial_data(62, SpectrumParams(), grid8_2pi)
        assert not np.array_equal(d1.a_h[0].coeffs, d2.a_h[0].coeffs)

    def test_all_structural_invariants(self, grid8_2pi):
        d = generate_initial_data(63, SpectrumParams(), grid8_2pi)
        scale = max(l2_norm(f) for f in (*d.a_h, *d.b_h))
        for f in (*d.a_h, *d.b_h):
            assert parity_defect(f, EVEN_IN_Z) < 1e-13 * scale
        for v in (d.a3, d.b3):
            assert parity_defect(v, ODD_IN_Z) < 1e-13 * scale
        a = VectorState(d.a_h[0], d.a_h[1], d.a3)
        b = VectorState(d.b_h[0], d.b_h[1], d.b3)
        assert divergence_defect(a) < 1e-13 * scale
        assert divergence_defect(b) < 1e-13 * scale

    def test_fields_are_real_and_band_limited(self, grid8_2pi):
        d = generate_initial_data(64, SpectrumParams(), grid8_2pi)
        f = d.a_h[0]
        phys = np.fft.ifftn(f.coeffs * grid8_2pi.npoints)
        assert np.max(np.abs(phys.imag)) < 1e-13
        assert np.all(f.half[~band_mask(grid8_2pi)] == 0.0)

    def test_zero_amplitude_gives_zero_state(self, grid8_2pi):
        d = generate_initial_data(65, SpectrumParams(amplitude=0.0), grid8_2pi)
        for f in (*d.a_h, *d.b_h, d.a3, d.b3):
            assert l2_norm(f) == 0.0

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_divergence_free_property(self, seed):
        grid = GridSpec(8, 8, 8, 2 * np.pi, 2 * np.pi)
        d = generate_initial_data(seed, SpectrumParams(), grid)
        a = VectorState(d.a_h[0], d.a_h[1], d.a3)
        scale = max(l2_norm(f) for f in d.a_h) or 1.0
        assert divergence_defect(a) < 1e-12 * scale
