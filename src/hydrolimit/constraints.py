"""Structural constraints: parity in z, incompressibility, hydrostatic
reconstruction of vertical components, and the barotropic compatibility
condition on horizontal fields.
"""

from dataclasses import dataclass

import numpy as np

from .grid import GridSpec
from .spectral import (
    SpectralField,
    anisotropic_poisson_solve,
    dealias,
    l2_norm,
    partial_derivative,
    zero_field,
)

EVEN_IN_Z = "even_in_z"
ODD_IN_Z = "odd_in_z"


@dataclass
class VectorState:
    """Horizontal pair plus vertical component of one divergence-free field."""

    h1: SpectralField
    h2: SpectralField
    v: SpectralField

    @property
    def grid(self) -> GridSpec:
        return self.h1.grid

    def components(self) -> tuple[SpectralField, SpectralField, SpectralField]:
        return (self.h1, self.h2, self.v)


def _reflect_z(f: SpectralField) -> np.ndarray:
    return f.coeffs[:, :, f.grid.reflect_z_index]


def parity_project(f: SpectralField, cls: str) -> SpectralField:
    """Project onto the even or odd part in z (symmetrization of m3 and -m3)."""
    refl = _reflect_z(f)
    if cls == EVEN_IN_Z:
        return SpectralField(f.grid, 0.5 * (f.coeffs + refl))
    if cls == ODD_IN_Z:
        return SpectralField(f.grid, 0.5 * (f.coeffs - refl))
    raise ValueError(f"parity class must be {EVEN_IN_Z!r} or {ODD_IN_Z!r}, got {cls!r}")


def parity_defect(f: SpectralField, cls: str) -> float:
    """L2 distance from the stated parity class; zero iff f has that parity."""
    return l2_norm(f - parity_project(f, cls))


def divergence(g: VectorState) -> SpectralField:
    return (
        partial_derivative(g.h1, "x")
        + partial_derivative(g.h2, "y")
        + partial_derivative(g.v, "z")
    )


def divergence_defect(g: VectorState) -> float:
    """Max spectral divergence coefficient, for use against a state scale."""
    return float(np.max(np.abs(divergence(g).coeffs)))


def anisotropic_leray_project(g: VectorState, eps: float) -> VectorState:
    """Remove the gradient part (grad_H phi, eps^-2 dz phi) of the weighted
    elliptic operator Delta_H + eps^-2 dzz, leaving zero discrete divergence."""
    div = divergence(g)
    phi = anisotropic_poisson_solve(div, eps)
    return VectorState(
        g.h1 - partial_derivative(phi, "x"),
        g.h2 - partial_derivative(phi, "y"),
        g.v - (1.0 / eps**2) * partial_derivative(phi, "z"),
    )


def horizontal_divergence(h: tuple[SpectralField, SpectralField]) -> SpectralField:
    return partial_derivative(h[0], "x") + partial_derivative(h[1], "y")


def hydrostatic_reconstruct(h: tuple[SpectralField, SpectralField]) -> SpectralField:
    """Vertical component from v(z) = -int_0^z div_H h dxi, pinned by v(.,0) = 0.

    Requires the z-mean of div_H h to vanish (barotropic compatibility), else
    the reconstruction is not z-periodic.
    """
    grid = h[0].grid
    g = -1.0 * horizontal_divergence(h).coeffs
    scale = float(np.sqrt(np.sum(np.abs(g) ** 2)))
    mean_defect = float(np.max(np.abs(g[:, :, 0])))
    if scale > 0 and mean_defect > 1e-10 * scale:
        raise ValueError(
            f"barotropic precondition violated: z-mean divergence defect {mean_defect:.3e} "
            f"exceeds 1e-10 of source scale {scale:.3e}"
        )
    kz = grid.kz.reshape(-1)
    inv_ikz = np.zeros(grid.n3, dtype=np.complex128)
    inv_ikz[1:] = 1.0 / (1j * kz[1:])
    v = g * inv_ikz
    # kz = 0 mode fixed by the trace condition v(x, y, 0) = 0
    v[:, :, 0] = -np.sum(v[:, :, 1:], axis=2)
    return SpectralField(grid, v)


def barotropic_project(
    h: tuple[SpectralField, SpectralField]
) -> tuple[SpectralField, SpectralField]:
    """2D Leray projection of the vertical-mean (kz = 0) part of h; all
    kz != 0 content passes through unchanged."""
    grid = h[0].grid
    c1 = h[0].coeffs.copy()
    c2 = h[1].coeffs.copy()
    kx = grid.kx_deriv[:, :, 0]
    ky = grid.ky_deriv[:, :, 0]
    k2 = kx**2 + ky**2
    k2safe = np.where(k2 == 0.0, 1.0, k2)
    divh = kx * c1[:, :, 0] + ky * c2[:, :, 0]
    proj = np.where(k2 == 0.0, 0.0, divh / k2safe)
    c1[:, :, 0] -= kx * proj
    c2[:, :, 0] -= ky * proj
    return (SpectralField(grid, c1), SpectralField(grid, c2))


def barotropic_defect(h: tuple[SpectralField, SpectralField]) -> float:
    """Max coefficient of div_H of the vertical mean of h."""
    d = horizontal_divergence(h)
    return float(np.max(np.abs(d.coeffs[:, :, 0])))


@dataclass
class SpectrumParams:
    """Gaussian-decay spectrum for the seeded initial-data generator."""

    amplitude: float = 0.1
    m0: float = 2.5


@dataclass
class InitialData:
    a_h: tuple[SpectralField, SpectralField]
    b_h: tuple[SpectralField, SpectralField]
    a3: SpectralField
    b3: SpectralField


def _random_even_scalar(rng: np.random.Generator, grid: GridSpec, spectrum: SpectrumParams) -> SpectralField:
    shape = grid.shape
    c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    env = spectrum.amplitude * np.exp(
        -(grid.modes1**2 + grid.modes2**2 + grid.modes3**2) / spectrum.m0**2
    )
    c = c * env
    # real field: hermitian symmetrization coeff(-m) = conj(coeff(m))
    r1, r2, r3 = grid.reflect_all_index
    c = 0.5 * (c + np.conj(c[np.ix_(r1, r2, r3)]))
    f = dealias(SpectralField(grid, c))
    return parity_project(f, EVEN_IN_Z)


def generate_initial_data(seed: int, spectrum: SpectrumParams, grid: GridSpec) -> InitialData:
    """Deterministic band-limited, even-in-z, barotropically projected data
    with vertical components reconstructed hydrostatically."""
    rng = np.random.default_rng(seed)
    a_h = (_random_even_scalar(rng, grid, spectrum), _random_even_scalar(rng, grid, spectrum))
    b_h = (_random_even_scalar(rng, grid, spectrum), _random_even_scalar(rng, grid, spectrum))
    a_h = barotropic_project(a_h)
    b_h = barotropic_project(b_h)
    if spectrum.amplitude == 0.0:
        return InitialData(a_h, b_h, zero_field(grid), zero_field(grid))
    return InitialData(a_h, b_h, hydrostatic_reconstruct(a_h), hydrostatic_reconstruct(b_h))
