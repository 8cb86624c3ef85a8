"""Transforms, spectral derivatives, dealiasing, the anisotropic elliptic
solve, and the snapshot format."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hydrolimit.grid import GridSpec
from hydrolimit.spectral import (
    RealField,
    SpectralField,
    anisotropic_poisson_solve,
    dealias,
    forward_transform,
    from_physical,
    inverse_transform,
    l2_norm,
    load_snapshot,
    partial_derivative,
    save_snapshot,
    to_physical,
    zero_field,
)
from conftest import field_from_lattice, random_real_field, random_spectral_field


class TestGridSpec:
    def test_rejects_odd_and_tiny_mode_counts(self):
        with pytest.raises(ValueError):
            GridSpec(7, 8, 8)
        with pytest.raises(ValueError):
            GridSpec(8, 8, 2)

    def test_rejects_nonpositive_lengths(self):
        with pytest.raises(ValueError):
            GridSpec(8, 8, 8, l1=0.0)

    def test_volume_and_spacings(self):
        g = GridSpec(8, 16, 4, 1.0, 3.0)
        assert g.volume == pytest.approx(6.0)
        assert g.dx == pytest.approx(1.0 / 8)
        assert g.dy == pytest.approx(3.0 / 16)
        assert g.dz == pytest.approx(0.5)

    def test_vertical_wavenumber_is_pi_times_mode(self, grid8):
        # z-period fixed at 2 regardless of the horizontal box
        assert grid8.kz.reshape(-1)[1] == pytest.approx(np.pi)
        assert grid8.kz.reshape(-1)[-1] == pytest.approx(-np.pi)

    def test_derivative_wavenumbers_zero_nyquist(self, grid8):
        assert grid8.kx_deriv[grid8.n1 // 2, 0, 0] == 0.0
        assert grid8.kz_deriv[0, 0, grid8.n3 // 2] == 0.0


class TestTransforms:
    def test_zero_mode_is_mean(self, grid8):
        f = random_real_field(grid8, 0)
        spec = forward_transform(f)
        assert spec.coeffs[0, 0, 0] == pytest.approx(np.mean(f.values))

    def test_round_trip(self, grid8):
        f = random_real_field(grid8, 1)
        back = inverse_transform(forward_transform(f))
        assert np.max(np.abs(back.values - f.values)) < 1e-12 * np.max(np.abs(f.values))

    def test_rejects_non_finite_input(self, grid8):
        vals = np.zeros(grid8.shape)
        vals[2, 3, 4] = np.nan
        with pytest.raises(ValueError, match=r"\(2.*3.*4\)"):
            forward_transform(RealField(grid8, vals))

    def test_parseval_l2_norm(self, grid8):
        f = random_real_field(grid8, 2)
        lattice = math.sqrt(np.mean(f.values**2) * grid8.volume)
        assert l2_norm(forward_transform(f)) == pytest.approx(lattice, rel=1e-13)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_round_trip_property(self, seed):
        grid = GridSpec(8, 8, 8, 1.0, 1.0)
        f = random_real_field(grid, seed)
        back = inverse_transform(forward_transform(f))
        assert np.allclose(back.values, f.values, atol=1e-12)


class TestDerivatives:
    def test_single_mode_x_derivative(self, grid8):
        f = field_from_lattice(grid8, lambda x, y, z: np.sin(2 * np.pi * x))
        df = to_physical(partial_derivative(f, "x"))
        x = grid8.x.reshape(-1, 1, 1)
        expected = 2 * np.pi * np.cos(2 * np.pi * x) * np.ones(grid8.shape)
        assert np.max(np.abs(df - expected)) < 1e-11

    def test_single_mode_z_derivative(self, grid8):
        f = field_from_lattice(grid8, lambda x, y, z: np.cos(np.pi * z))
        df = to_physical(partial_derivative(f, "z"))
        z = grid8.z.reshape(1, 1, -1)
        expected = -np.pi * np.sin(np.pi * z) * np.ones(grid8.shape)
        assert np.max(np.abs(df - expected)) < 1e-11

    def test_derivative_of_constant_is_zero(self, grid8):
        f = zero_field(grid8)
        f.coeffs[0, 0, 0] = 3.5
        for axis in ("x", "y", "z"):
            assert l2_norm(partial_derivative(f, axis)) == 0.0

    def test_bad_axis_raises(self, grid8):
        with pytest.raises(ValueError, match="axis"):
            partial_derivative(zero_field(grid8), "w")

    def test_derivative_preserves_reality(self, grid8):
        f = random_spectral_field(grid8, 3)
        df = partial_derivative(f, "x")
        phys = np.fft.ifftn(df.coeffs * grid8.npoints)
        assert np.max(np.abs(phys.imag)) < 1e-12


class TestDealias:
    def test_keeps_low_modes_kills_high_modes(self):
        g = GridSpec(12, 12, 12, 1.0, 1.0)
        f = zero_field(g)
        f.coeffs[3, 0, 0] = 1.0  # 3*|m| = 9 < 12, kept
        f.coeffs[4, 0, 0] = 1.0  # 3*|m| = 12, removed: it would alias
        out = dealias(f)
        assert out.coeffs[3, 0, 0] == 1.0
        assert out.coeffs[4, 0, 0] == 0.0

    def test_idempotent(self, grid8):
        f = random_spectral_field(grid8, 4)
        once = dealias(f)
        twice = dealias(once)
        assert np.array_equal(once.coeffs, twice.coeffs)

    @pytest.mark.parametrize("n", [16, 24])
    def test_product_of_band_limited_fields_alias_free(self, n):
        """Truncated pseudo-spectral product of dealias-band fields matches the
        alias-free product computed on a doubled grid: with kept band |m| <= M
        and 3*M < n, wrapped product modes land outside the band (n = 24 has
        n divisible by 3, where |m| = n/3 must be removed)."""
        g = GridSpec(n, n, n, 1.0, 1.0)
        band = int(np.max(np.abs(g.modes1.ravel()[g.dealias_mask[:, 0, 0]])))
        fine = GridSpec(2 * n, 2 * n, 2 * n, 1.0, 1.0)
        f = dealias(random_spectral_field(g, 5))
        h = dealias(random_spectral_field(g, 6))

        def lift(src):
            c = np.zeros(fine.shape, dtype=np.complex128)
            for m1 in range(-band, band + 1):
                for m2 in range(-band, band + 1):
                    for m3 in range(-band, band + 1):
                        c[m1 % (2 * n), m2 % (2 * n), m3 % (2 * n)] = src.coeffs[
                            m1 % n, m2 % n, m3 % n
                        ]
            return SpectralField(fine, c)

        coarse = dealias(from_physical(g, to_physical(f) * to_physical(h)))
        exact = from_physical(fine, to_physical(lift(f)) * to_physical(lift(h)))
        for m1 in range(-band, band + 1):
            for m2 in range(-band, band + 1):
                for m3 in range(-band, band + 1):
                    got = coarse.coeffs[m1 % n, m2 % n, m3 % n]
                    want = exact.coeffs[m1 % (2 * n), m2 % (2 * n), m3 % (2 * n)]
                    assert abs(got - want) < 1e-14


class TestAnisotropicPoisson:
    def test_single_mode_closed_form(self):
        # (Delta_H + eps^-2 dzz) phi = sin(2 pi x) cos(pi z) on l1 = l2 = 1
        # phi_hat scales by -1 / (4 pi^2 + pi^2 / eps^2); eps = 0.2 gives
        # denominator 4 pi^2 + 25 pi^2 = 29 pi^2.
        g = GridSpec(8, 8, 8, 1.0, 1.0)
        rhs = field_from_lattice(g, lambda x, y, z: np.sin(2 * np.pi * x) * np.cos(np.pi * z))
        phi = anisotropic_poisson_solve(rhs, eps=0.2)
        expected = field_from_lattice(
            g, lambda x, y, z: -np.sin(2 * np.pi * x) * np.cos(np.pi * z) / (29 * np.pi**2)
        )
        assert np.max(np.abs(phi.coeffs - expected.coeffs)) < 1e-15

    def test_residual_of_random_source(self, grid8_2pi):
        f = random_spectral_field(grid8_2pi, 7)
        f.coeffs[0, 0, 0] = 0.0
        eps = 0.1
        phi = anisotropic_poisson_solve(f, eps)
        g = grid8_2pi
        op = -(g.kx_deriv**2 + g.ky_deriv**2 + g.kz_deriv**2 / eps**2)
        resid = op * phi.coeffs - f.coeffs
        resid[op == 0.0] = 0.0  # modes outside the operator's range
        assert np.max(np.abs(resid)) < 1e-12 * np.max(np.abs(f.coeffs))

    def test_zero_mean_gauge(self, grid8):
        f = random_spectral_field(grid8, 8)
        f.coeffs[0, 0, 0] = 0.0
        phi = anisotropic_poisson_solve(f, 0.5)
        assert phi.coeffs[0, 0, 0] == 0.0

    def test_incompatible_mean_source_raises(self, grid8):
        f = random_spectral_field(grid8, 9)
        f.coeffs[0, 0, 0] = 1.0
        with pytest.raises(ValueError, match="mean"):
            anisotropic_poisson_solve(f, 0.5)

    def test_nonpositive_eps_raises(self, grid8):
        with pytest.raises(ValueError, match="eps"):
            anisotropic_poisson_solve(zero_field(grid8), 0.0)


class TestSnapshot:
    def test_round_trip(self, tmp_path, grid8):
        f = random_spectral_field(grid8, 12)
        path = tmp_path / "field.bin"
        save_snapshot(f, path)
        g = load_snapshot(path)
        assert g.grid == grid8
        assert np.array_equal(g.coeffs, f.coeffs)

    def test_header_layout(self, tmp_path):
        g = GridSpec(4, 6, 8, 1.5, 2.5)
        save_snapshot(zero_field(g), tmp_path / "f.bin")
        raw = (tmp_path / "f.bin").read_bytes()
        assert raw[:8] == b"HLIMFLD1"
        assert len(raw) == 8 + 12 + 16 + 16 * g.npoints

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 64)
        with pytest.raises(ValueError, match="magic"):
            load_snapshot(path)

    @pytest.mark.parametrize("cut", [16, 5, -3])
    def test_payload_length_must_match_header(self, tmp_path, grid8, cut):
        """A file truncated by whole or partial coefficients, or one with
        trailing bytes (negative cut), is rejected by name."""
        path = tmp_path / "field.bin"
        save_snapshot(random_spectral_field(grid8, 13), path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-cut] if cut > 0 else raw + b"\x00" * -cut)
        with pytest.raises(ValueError, match="header declares"):
            load_snapshot(path)
