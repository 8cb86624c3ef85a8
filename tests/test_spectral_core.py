"""The band-limited transform pair, the reference spectral derivatives,
dealiasing, and the anisotropic elliptic solve behind the weighted Leray
projection."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hydrolimit.constraints import VectorState, anisotropic_leray_project
from hydrolimit.grid import GridSpec
from hydrolimit.spectral import band_from_physical, from_band, from_physical, l2_norm, to_physical, zero_field
from conftest import (
    band_mask,
    chain_divergence,
    dealias,
    field_from_full,
    field_from_lattice,
    irfft_values,
    partial_derivative,
    poisson_potential,
    populated_spectral_field,
    random_real_field,
    random_spectral_field,
    random_vector,
    rfft_field,
)


def band_values(grid: GridSpec, seed: int) -> np.ndarray:
    """Lattice values of a random field of the 2/3 band."""
    return to_physical(random_spectral_field(grid, seed))


class TestGridSpec:
    def test_rejects_odd_and_tiny_mode_counts(self):
        with pytest.raises(ValueError):
            GridSpec(7, 8, 8)
        with pytest.raises(ValueError):
            GridSpec(8, 8, 2)

    def test_rejects_nonpositive_lengths(self):
        with pytest.raises(ValueError):
            GridSpec(8, 8, 8, l1=0.0)

    @pytest.mark.parametrize("length", [5e-324, 1e-160, 1e160])
    def test_rejects_lengths_without_normal_squared_wavenumbers(self, length):
        # 5e-324 / 8 is a zero spacing; 1e-160 and 1e160 overflow and underflow k^2
        with pytest.raises(ValueError, match="l2"):
            GridSpec(8, 8, 8, l1=1.0, l2=length)

    def test_volume_and_spacings(self):
        g = GridSpec(8, 16, 4, 1.0, 3.0)
        assert g.volume == pytest.approx(6.0)
        assert g.dx == pytest.approx(1.0 / 8)
        assert g.dy == pytest.approx(3.0 / 16)
        assert g.dz == pytest.approx(0.5)

    def test_vertical_wavenumber_is_pi_times_mode(self, grid8):
        # z-period fixed at 2 regardless of the horizontal box; the half-spectrum
        # keeps the vertical modes 0, ..., n3/2, the last being the Nyquist mode
        assert grid8.kz.reshape(-1)[1] == pytest.approx(np.pi)
        assert grid8.kz.reshape(-1)[-1] == pytest.approx(np.pi * grid8.n3 / 2)

    @pytest.mark.parametrize("n", [4, 6, 8, 24, 32])
    def test_band_holds_no_nyquist_mode(self, n):
        # 3 * n/2 < n never holds, so kx, ky and kz need no Nyquist-zeroed copies
        g = GridSpec(n, n, n)
        i1, i2, k3 = g.band
        assert n // 2 not in np.abs(g.modes1.ravel()[i1])
        assert n // 2 not in np.abs(g.modes2.ravel()[i2])
        assert k3 <= n // 2


class TestTransforms:
    def test_zero_mode_is_mean(self, grid8):
        f = random_real_field(grid8, 0)
        spec = from_physical(grid8, f)
        assert spec.coeffs[0, 0, 0] == pytest.approx(np.mean(f))

    def test_round_trip(self, grid8):
        f = band_values(grid8, 1)
        back = to_physical(from_physical(grid8, f))
        assert np.max(np.abs(back - f)) < 1e-12 * np.max(np.abs(f))

    def test_parseval_l2_norm(self, grid8):
        f = band_values(grid8, 2)
        lattice = math.sqrt(np.mean(f**2) * grid8.volume)
        assert l2_norm(from_physical(grid8, f)) == pytest.approx(lattice, rel=1e-13)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_round_trip_property(self, seed):
        grid = GridSpec(8, 8, 8, 1.0, 1.0)
        f = band_values(grid, seed)
        back = to_physical(from_physical(grid, f))
        assert np.allclose(back, f, atol=1e-12)


class TestDerivatives:
    """The reference derivatives of ``conftest``, which the chain and
    convective-form oracles build on."""

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
        f.half[0, 0, 0] = 3.5
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


BAND_GRIDS = [GridSpec(8, 8, 8), GridSpec(24, 24, 24), GridSpec(32, 32, 32), GridSpec(16, 24, 8, 1.0, 3.0)]


@pytest.mark.parametrize("g", BAND_GRIDS, ids=lambda g: "x".join(map(str, g.shape)))
class TestBandTransforms:
    """The pair skips the FFT lines the 2/3 rule leaves zero and must equal
    numpy's full transforms of band fields bit for bit (24 has 3 | n, and
    16x24x8 a different band on every axis)."""

    def test_band_is_the_two_thirds_rule(self, g):
        rule = ((3 * np.abs(g.modes1) < g.n1) & (3 * np.abs(g.modes2) < g.n2)
                & (3 * np.abs(g.modes3) < g.n3))
        assert np.array_equal(band_mask(g), rule)
        i1, i2, k3 = g.band
        assert band_mask(g).sum() == i1.size * i2.size * k3

    @pytest.mark.parametrize("seed", [0, 1])
    def test_inverse_equals_to_physical(self, g, seed):
        f = dealias(populated_spectral_field(g, seed))
        assert np.array_equal(to_physical(f), irfft_values(f))

    @pytest.mark.parametrize("seed", [0, 1])
    def test_forward_equals_dealiased_from_physical(self, g, seed):
        values = random_real_field(g, seed)
        want = dealias(rfft_field(g, values)).half
        assert np.array_equal(from_physical(g, values).half, want)
        assert np.array_equal(from_band(g, band_from_physical(g, values)).half, want)

    def test_inverse_ignores_modes_outside_the_band(self, g):
        f = populated_spectral_field(g, 2)
        assert np.array_equal(to_physical(f), irfft_values(dealias(f)))


class TestDealias:
    """The forward transform is the 2/3-rule truncation."""

    def test_keeps_low_modes_kills_high_modes(self):
        g = GridSpec(12, 12, 12, 1.0, 1.0)
        # 3*|m| = 9 < 12 is kept; 3*|m| = 12 is removed: it would alias
        out = field_from_lattice(g, lambda x, y, z: np.cos(6 * np.pi * x) + np.cos(8 * np.pi * x))
        assert out.coeffs[3, 0, 0] == pytest.approx(0.5, rel=1e-14)
        assert out.coeffs[4, 0, 0] == 0.0

    def test_idempotent(self, grid8):
        once = from_physical(grid8, random_real_field(grid8, 4))
        twice = dealias(once)
        assert np.array_equal(once.coeffs, twice.coeffs)

    @pytest.mark.parametrize("n", [16, 24])
    def test_product_of_band_limited_fields_alias_free(self, n):
        """Truncated pseudo-spectral product of dealias-band fields matches the
        alias-free product computed on a doubled grid: with kept band |m| <= M
        and 3*M < n, wrapped product modes land outside the band (n = 24 has
        n divisible by 3, where |m| = n/3 must be removed)."""
        g = GridSpec(n, n, n, 1.0, 1.0)
        band = int(np.max(np.abs(g.modes1.ravel()[g.band[0]])))
        fine = GridSpec(2 * n, 2 * n, 2 * n, 1.0, 1.0)
        f = random_spectral_field(g, 5)
        h = random_spectral_field(g, 6)

        def lift(src):
            c = np.zeros(fine.shape, dtype=np.complex128)
            for m1 in range(-band, band + 1):
                for m2 in range(-band, band + 1):
                    for m3 in range(-band, band + 1):
                        c[m1 % (2 * n), m2 % (2 * n), m3 % (2 * n)] = src.coeffs[
                            m1 % n, m2 % n, m3 % n
                        ]
            return field_from_full(fine, c)

        coarse = from_physical(g, to_physical(f) * to_physical(h))
        exact = from_physical(fine, to_physical(lift(f)) * to_physical(lift(h)))
        for m1 in range(-band, band + 1):
            for m2 in range(-band, band + 1):
                for m3 in range(-band, band + 1):
                    got = coarse.coeffs[m1 % n, m2 % n, m3 % n]
                    want = exact.coeffs[m1 % (2 * n), m2 % (2 * n), m3 % (2 * n)]
                    assert abs(got - want) < 1e-14


class TestAnisotropicPoisson:
    def test_single_mode_closed_form(self):
        # (Delta_H + eps^-2 dzz) phi = sin(2 pi x) cos(pi z) on l1 = l2 = 1, the
        # divergence of h1 = -cos(2 pi x) cos(pi z) / (2 pi);
        # phi_hat scales by -1 / (4 pi^2 + pi^2 / eps^2); eps = 0.2 gives
        # denominator 4 pi^2 + 25 pi^2 = 29 pi^2.
        g = GridSpec(8, 8, 8, 1.0, 1.0)
        h1 = field_from_lattice(g, lambda x, y, z: -np.cos(2 * np.pi * x) * np.cos(np.pi * z) / (2 * np.pi))
        phi = poisson_potential(VectorState(h1, zero_field(g), zero_field(g)), eps=0.2)
        expected = field_from_lattice(
            g, lambda x, y, z: -np.sin(2 * np.pi * x) * np.cos(np.pi * z) / (29 * np.pi**2)
        )
        assert np.max(np.abs(phi.coeffs - expected.coeffs)) < 1e-15

    def test_residual_of_random_source(self, grid8_2pi):
        v = random_vector(grid8_2pi, 7)
        f = chain_divergence(v)
        eps = 0.1
        phi = poisson_potential(v, eps)
        g = grid8_2pi
        op = -(g.kx**2 + g.ky**2 + g.kz**2 / eps**2)
        resid = op * phi.half - f.half
        resid[op == 0.0] = 0.0  # modes outside the operator's range
        assert np.max(np.abs(resid)) < 1e-12 * np.max(np.abs(f.coeffs))

    def test_zero_mean_gauge(self, grid8):
        phi = poisson_potential(random_vector(grid8, 8), 0.5)
        assert phi.coeffs[0, 0, 0] == 0.0

    def test_nonpositive_eps_raises(self, grid8):
        g = VectorState(zero_field(grid8), zero_field(grid8), zero_field(grid8))
        with pytest.raises(ValueError, match="eps"):
            anisotropic_leray_project(g, 0.0)
