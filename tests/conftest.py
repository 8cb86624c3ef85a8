"""Shared fixtures and helpers for the hydrolimit test suite."""

import numpy as np
import pytest

from hydrolimit.constraints import VectorState, hydrostatic_reconstruct
from hydrolimit.grid import GridSpec
from hydrolimit.spectral import (
    RealField,
    SpectralField,
    dealias,
    forward_transform,
    from_physical,
    l2_norm,
    partial_derivative,
    to_physical,
)


@pytest.fixture
def grid8():
    return GridSpec(8, 8, 8, 1.0, 1.0)


@pytest.fixture
def grid8_2pi():
    return GridSpec(8, 8, 8, 2.0 * np.pi, 2.0 * np.pi)


def random_real_field(grid: GridSpec, seed: int) -> RealField:
    rng = np.random.default_rng(seed)
    return RealField(grid, rng.standard_normal(grid.shape))


def random_spectral_field(grid: GridSpec, seed: int) -> SpectralField:
    return forward_transform(random_real_field(grid, seed))


def field_from_lattice(grid: GridSpec, func) -> SpectralField:
    """Spectral field from a callable on the (x, y, z) lattice."""
    x, y, z = np.meshgrid(grid.x, grid.y, grid.z, indexing="ij")
    return forward_transform(RealField(grid, func(x, y, z)))


def convective_advection(adv, fields) -> list[SpectralField]:
    """Reference tendencies -(w . grad) f in convective form, for each field f
    advected by the three components adv of w, dealiased by the 2/3 rule."""
    w = [to_physical(c) for c in adv]
    out = []
    for f in fields:
        prod = -sum(wj * to_physical(partial_derivative(f, axis)) for wj, axis in zip(w, "xyz"))
        out.append(dealias(from_physical(f.grid, prod)))
    return out


def assert_rel_close(got, want, rel: float) -> None:
    """Max coefficient difference within rel of the largest reference coefficient."""
    scale = max(np.max(np.abs(w.coeffs)) for w in want)
    for g, w in zip(got, want, strict=True):
        assert np.max(np.abs(g.coeffs - w.coeffs)) <= rel * scale


def derivative_norms(f: SpectralField) -> tuple[float, float, float]:
    """Reference ||f||^2, ||grad_H f||^2 and ||dz f||^2 from materialised
    spectral derivative arrays."""
    sq = [l2_norm(g) ** 2 for g in (f, *(partial_derivative(f, axis) for axis in "xyz"))]
    return sq[0], sq[1] + sq[2], sq[3]


def derivative_dissipation_rate(a, b, eps: float, alpha: float) -> float:
    """Reference anisotropic dissipation rate of two Elsaesser vector states."""
    rate = 0.0
    for f in (a.h1, a.h2, b.h1, b.h2):
        _, gh, dz = derivative_norms(f)
        rate += gh + eps ** (alpha - 2.0) * dz
    for f in (a.v, b.v):
        _, gh, dz = derivative_norms(f)
        rate += eps**2 * gh + eps**alpha * dz
    return rate


def derivative_difference_metrics(s_eps, s_lim, eps: float, alpha: float) -> tuple[float, float, float]:
    """Reference (d_l2, d_diss_rate, d_h1) of an SHMHD state against a
    hydrostatically lifted PEHM state, from derivative arrays."""
    horizontal = [f - g for f, g in zip((s_eps.a.h1, s_eps.a.h2, s_eps.b.h1, s_eps.b.h2),
                                        (*s_lim.a_h, *s_lim.b_h))]
    vertical = [s_eps.a.v - hydrostatic_reconstruct(s_lim.a_h), s_eps.b.v - hydrostatic_reconstruct(s_lim.b_h)]
    d_l2 = d_h1 = 0.0
    for f in horizontal:
        n, gh, dz = derivative_norms(f)
        d_l2 += n
        d_h1 += n + gh + dz
    for f in vertical:
        n, gh, dz = derivative_norms(f)
        d_l2 += eps**2 * n
        d_h1 += eps**2 * (n + gh + dz)
    d_a = VectorState(horizontal[0], horizontal[1], vertical[0])
    d_b = VectorState(horizontal[2], horizontal[3], vertical[1])
    return d_l2, derivative_dissipation_rate(d_a, d_b, eps, alpha), d_h1
