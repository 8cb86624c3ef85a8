"""The real-FFT half-spectrum layout against full-layout references: each
operator on the stored half matches the same operator on the complex
(n1, n2, n3) spectrum, on boxes with l1 != l2 and with the Nyquist planes of
every axis populated."""

import numpy as np
import pytest

from hydrolimit.constraints import (
    EVEN_IN_Z,
    ODD_IN_Z,
    VectorState,
    anisotropic_leray_project,
    barotropic_project,
    horizontal_divergence,
    hydrostatic_reconstruct,
    parity_defect,
    parity_project,
    z_trace,
)
from hydrolimit.diagnostics import _weighted_sums
from hydrolimit.grid import GridSpec
from hydrolimit.spectral import from_physical, l2_norm, partial_derivative, to_physical
from conftest import (
    field_from_full,
    full_barotropic_project,
    full_from_physical,
    full_hydrostatic_reconstruct,
    full_l2_norm,
    full_leray_project,
    full_parity_project,
    full_to_physical,
    full_weighted_sums,
    full_wavenumbers,
    random_real_field,
    random_spectral_field,
)

REL = 1e-13
SIZES = [16, 24]


def box(n: int) -> GridSpec:
    return GridSpec(n, n, n, 2.0, 3.0)


def populated(n: int, seed: int):
    """A random real field, its half-spectrum field and its full spectrum,
    checked to carry content on the Nyquist plane of each axis."""
    g = box(n)
    f = random_spectral_field(g, seed)
    c = f.coeffs
    for plane in (c[n // 2], c[:, n // 2], c[:, :, n // 2]):
        assert np.max(np.abs(plane)) > 1e-3 * np.max(np.abs(c))
    return g, f, c


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
        assert_close(c, full_from_physical(g, to_physical(f)))

    def test_transforms(self, n):
        g = box(n)
        values = random_real_field(g, 301)
        f = from_physical(g, values)
        assert_close(f.coeffs, full_from_physical(g, values))
        assert_close(to_physical(f), full_to_physical(g, f.coeffs))
        assert_close(to_physical(f), values)

    def test_parity_project_and_defect(self, n):
        g, f, c = populated(n, 302)
        for cls, even in ((EVEN_IN_Z, True), (ODD_IN_Z, False)):
            want = full_parity_project(g, c, even)
            assert_close(parity_project(f, cls).coeffs, want)
            assert parity_defect(f, cls) == pytest.approx(full_l2_norm(g, c - want), rel=REL)

    def test_l2_norm_and_weighted_sums(self, n):
        g, f, c = populated(n, 303)
        assert l2_norm(f) == pytest.approx(full_l2_norm(g, c), rel=REL)
        assert _weighted_sums(f) == pytest.approx(full_weighted_sums(g, c), rel=REL)

    def test_anisotropic_leray_project(self, n):
        g = box(n)
        fields = [populated(n, 304 + i)[1] for i in range(3)]
        for eps in (0.3, 0.05):
            got = anisotropic_leray_project(VectorState(*fields), eps)
            want = full_leray_project(g, [f.coeffs for f in fields], eps)
            for x, y in zip(got.components(), want):
                assert_close(x.coeffs, y)

    def test_barotropic_project(self, n):
        g = box(n)
        h = (populated(n, 307)[1], populated(n, 308)[1])
        got = barotropic_project(h)
        want = full_barotropic_project(g, h[0].coeffs, h[1].coeffs)
        for x, y in zip(got, want):
            assert_close(x.coeffs, y)

    def test_z_trace_is_the_full_vertical_sum(self, n):
        _, f, c = populated(n, 309)
        assert_close(z_trace(f), np.sum(c, axis=2))

    def test_hydrostatic_trace_and_residual(self, n):
        """Both layouts pin v(x, y, 0) = 0 and leave the same residual
        dz v + div_H h (nonzero only on the Nyquist plane, which dz annihilates);
        their coefficients agree on every plane 0 < |m3| < n3/2."""
        g = box(n)
        h = barotropic_project((populated(n, 310)[1], populated(n, 311)[1]))
        v = hydrostatic_reconstruct(h)
        v_ref = full_hydrostatic_reconstruct(g, h[0].coeffs, h[1].coeffs)
        for phys in (to_physical(v), full_to_physical(g, v_ref)):
            assert np.max(np.abs(phys[:, :, 0])) <= REL * np.max(np.abs(phys))
        assert np.max(np.abs(z_trace(v))) <= REL * np.max(np.abs(v.half))

        kx, ky, kz = full_wavenumbers(g)
        resid_ref = 1j * kz * v_ref + 1j * kx * h[0].coeffs + 1j * ky * h[1].coeffs
        resid = partial_derivative(v, "z") + horizontal_divergence(h)
        assert_close(resid.coeffs, resid_ref)
        inner = slice(1, n // 2)
        assert_close(v.coeffs[:, :, inner], v_ref[:, :, inner])
        assert_close(v.coeffs[:, :, n // 2 + 1:], v_ref[:, :, n // 2 + 1:])


def test_field_from_full_keeps_the_half():
    g = box(16)
    f = random_spectral_field(g, 312)
    assert np.array_equal(field_from_full(g, f.coeffs).half, f.half)
