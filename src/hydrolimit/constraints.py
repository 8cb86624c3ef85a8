"""Structural constraints: parity in z, incompressibility, hydrostatic
reconstruction of vertical components, and the barotropic compatibility
condition on horizontal fields.
"""

from dataclasses import dataclass

import numpy as np

from .grid import GridSpec
from .spectral import SpectralField, from_band, l2_norm, parseval_sum, partner, zero_field

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


def parity_project(f: SpectralField, cls: str) -> SpectralField:
    """Project onto the even or odd part in z (symmetrization of m3 and -m3,
    whose coefficient is the conjugate partner of the stored one)."""
    refl = partner(f.half, f.grid)
    if cls == EVEN_IN_Z:
        return SpectralField(f.grid, 0.5 * (f.half + refl))
    if cls == ODD_IN_Z:
        return SpectralField(f.grid, 0.5 * (f.half - refl))
    raise ValueError(f"parity class must be {EVEN_IN_Z!r} or {ODD_IN_Z!r}, got {cls!r}")


def parity_defect(f: SpectralField, cls: str) -> float:
    """L2 distance from the stated parity class; zero iff f has that parity."""
    return l2_norm(f - parity_project(f, cls))


def k_dot(cs, z=slice(None)) -> np.ndarray:
    """k . c = sum_j k_j c_j per mode on the vertical planes z, for components cs
    along x, y (and z): the spectral divergence i k . c without its factor i."""
    grid = cs[0].grid
    ks = (grid.kx, grid.ky, grid.kz)
    out = ks[0][:, :, z] * cs[0].half[:, :, z]
    for k, c in zip(ks[1:], cs[1:]):
        out += k[:, :, z] * c.half[:, :, z]
    return out


def _solve(kc: np.ndarray, denom: np.ndarray) -> np.ndarray:
    """kc / denom, and 0 where denom vanishes (at the mean only)."""
    kernel = denom == 0.0
    phi = kc / np.where(kernel, 1.0, denom)
    phi[kernel] = 0.0
    return phi


def divergence_defect(g: VectorState) -> float:
    """Max spectral divergence coefficient, for use against a state scale."""
    return float(np.max(np.abs(k_dot(g.components()))))


def leray_potential(g: VectorState, eps: float) -> np.ndarray:
    """phi = k . c / (kx^2 + ky^2 + kz^2 / eps^2): the weighted Poisson solve whose
    gradient (k_H phi, eps^-2 kz phi) is the gradient part of g, i.e. the
    spectrum of (grad_H p, eps^-2 dz p) for the potential p = -i phi."""
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    grid = g.grid
    return _solve(k_dot(g.components()), grid.k2h + grid.kz**2 / eps**2)


def anisotropic_leray_project(g: VectorState, eps: float) -> VectorState:
    """Remove the gradient part (grad_H p, eps^-2 dz p) of the weighted elliptic
    operator Delta_H + eps^-2 dzz, c_j - w_j k_j phi with w = (1, 1, eps^-2),
    leaving zero discrete divergence."""
    grid = g.grid
    phi = leray_potential(g, eps)
    return VectorState(
        SpectralField(grid, g.h1.half - grid.kx * phi),
        SpectralField(grid, g.h2.half - grid.ky * phi),
        SpectralField(grid, g.v.half - grid.kz * phi * (1.0 / eps**2)),
    )


def z_trace(f: SpectralField) -> np.ndarray:
    """(x, y) spectrum of f(x, y, 0): the sum over every vertical mode m3 of the
    full spectrum, that is the m3 = 0 and Nyquist planes plus each plane
    0 < m3 < n3/2 and its conjugate partner."""
    c = f.half
    inner = c[:, :, 1:-1].sum(axis=2)
    return c[:, :, 0] + c[:, :, -1] + inner + partner(inner, f.grid)


def hydrostatic_reconstruct(h: tuple[SpectralField, SpectralField]) -> SpectralField:
    """Vertical component from v(z) = -int_0^z div_H h dxi, pinned by v(.,0) = 0.

    Requires the z-mean of div_H h to vanish (barotropic compatibility), else
    the reconstruction is not z-periodic.
    """
    grid = h[0].grid
    kc = k_dot(h)  # the source -div_H h is -i kc
    scale = float(np.sqrt(parseval_sum(SpectralField(grid, kc))))
    mean_defect = float(np.max(np.abs(kc[:, :, 0])))
    if scale > 0 and mean_defect > 1e-10 * scale:
        raise ValueError(
            f"barotropic precondition violated: z-mean divergence defect {mean_defect:.3e} "
            f"exceeds 1e-10 of source scale {scale:.3e}"
        )
    # dz v = -i kc, so v = -kc / kz on every plane kz != 0
    kz = grid.kz.reshape(-1)
    minus_inv_kz = np.zeros(kz.size)
    minus_inv_kz[1:] = -1.0 / kz[1:]
    v = SpectralField(grid, kc * minus_inv_kz)
    # kz = 0 mode (zero so far) fixed by the trace condition v(x, y, 0) = 0
    v.half[:, :, 0] = -z_trace(v)
    return v


def barotropic_potential(h: tuple[SpectralField, SpectralField]) -> np.ndarray:
    """phi = k_H . h / |k_H|^2 on the kz = 0 plane (0 where |k_H| = 0): the
    ``leray_potential`` restricted to kz = 0, where eps drops out; k_H phi, the
    spectrum of grad_H p for p = -i phi, is the gradient part of the vertical mean of h."""
    grid = h[0].grid
    return _solve(k_dot(h, 0), grid.k2h[:, :, 0])


def barotropic_project(
    h: tuple[SpectralField, SpectralField]
) -> tuple[SpectralField, SpectralField]:
    """2D Leray projection of the vertical-mean (kz = 0) part of h, h - grad_H phi;
    all kz != 0 content passes through unchanged."""
    grid = h[0].grid
    phi = barotropic_potential(h)
    c1 = h[0].half.copy()
    c2 = h[1].half.copy()
    c1[:, :, 0] -= grid.kx[:, :, 0] * phi
    c2[:, :, 0] -= grid.ky[:, :, 0] * phi
    return (SpectralField(grid, c1), SpectralField(grid, c2))


def barotropic_defect(h: tuple[SpectralField, SpectralField]) -> float:
    """Max coefficient of div_H of the vertical mean of h."""
    return float(np.max(np.abs(k_dot(h, 0))))


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
    m3 = np.fft.fftfreq(grid.n3, 1.0 / grid.n3).astype(np.int64).reshape(1, 1, -1)
    env = spectrum.amplitude * np.exp(-(grid.modes1**2 + grid.modes2**2 + m3**2) / spectrum.m0**2)
    c = c * env
    # real field: hermitian symmetrization coeff(-m) = conj(coeff(m)) of the
    # full-layout draws, then its band block
    r3 = (-np.arange(grid.n3)) % grid.n3
    c = 0.5 * (c + np.conj(c[grid.reflect_xy][:, :, r3]))
    i1, i2, k3 = grid.band
    return parity_project(from_band(grid, c[i1[:, None], i2, :k3]), EVEN_IN_Z)


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
