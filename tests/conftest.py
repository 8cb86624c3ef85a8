"""Shared fixtures and helpers for the hydrolimit test suite."""

import numpy as np
import pytest

from hydrolimit.grid import GridSpec
from hydrolimit.spectral import (
    RealField,
    SpectralField,
    dealias,
    forward_transform,
    from_physical,
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
