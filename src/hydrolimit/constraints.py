"""Structural constraints: parity in z, incompressibility, hydrostatic
reconstruction of vertical components, and the barotropic compatibility
condition on horizontal fields.
"""

from dataclasses import dataclass

import numpy as np

from .grid import GridSpec
from .spectral import SpectralField, parseval_sum, partner

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


def parity_project(c: np.ndarray, cls: str) -> np.ndarray:
    """The even or odd part in z of the coefficients c, stored with vertical
    modes 0, 1, ... and x and y modes in FFT order (a band block, or a
    half-spectrum): the symmetrization of m3 and -m3, whose coefficient is the
    conjugate partner of the stored one."""
    refl = partner(c)
    if cls == EVEN_IN_Z:
        return 0.5 * (c + refl)
    if cls == ODD_IN_Z:
        return 0.5 * (c - refl)
    raise ValueError(f"parity class must be {EVEN_IN_Z!r} or {ODD_IN_Z!r}, got {cls!r}")


def parity_defect(grid: GridSpec, c: np.ndarray, cls: str) -> float:
    """L2 distance of the field whose band block is c from the stated parity
    class; zero iff the field has that parity."""
    return float(np.sqrt(grid.volume * parseval_sum(grid, c - parity_project(c, cls))))


def k_dot(grid: GridSpec, cs, z=slice(None)) -> np.ndarray:
    """k . c = sum_j k_j c_j per mode on the vertical planes z, for the band
    blocks cs of components along x, y (and z): the spectral divergence
    i k . c without its factor i."""
    ks = (grid.kx, grid.ky, grid.kz)
    out = ks[0][:, :, z] * cs[0][:, :, z]
    for k, c in zip(ks[1:], cs[1:]):
        out += k[:, :, z] * c[:, :, z]
    return out


def _nonzero(denom: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """denom with 1 where it vanishes (at the mean only), and the mask of where it vanishes."""
    kernel = denom == 0.0
    return np.where(kernel, 1.0, denom), kernel


def _solve(kc: np.ndarray, denom: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """kc / denom, and 0 where denom vanishes, for ``_nonzero(denom)``."""
    nonzero, kernel = denom
    phi = kc / nonzero
    phi[kernel] = 0.0
    return phi


def divergence_defect(grid: GridSpec, cs, z=slice(None)) -> float:
    """Max |k . c| over the vertical planes z of the band blocks cs, for use
    against a state scale: the divergence defect of a vector field, and with
    z = 0 and a horizontal pair, the barotropic defect (div_H of its vertical
    mean)."""
    return float(np.max(np.abs(k_dot(grid, cs, z))))


def leray_denominator(grid: GridSpec, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """The denominator kx^2 + ky^2 + kz^2 / eps^2 of ``leray_potential`` on the
    band block, as ``_solve`` reads it: eps is fixed for a run, so a run builds
    it once, as it builds its IMEX factors."""
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    return _nonzero(grid.k2h + grid.kz**2 / eps**2)


def leray_potential(grid: GridSpec, c, denom) -> np.ndarray:
    """phi = k . c / (kx^2 + ky^2 + kz^2 / eps^2) for the band blocks c of a
    vector field, given that denominator as ``leray_denominator(grid, eps)``:
    the weighted Poisson solve whose gradient (k_H phi, eps^-2 kz phi) is the
    gradient part of the field, i.e. the spectrum of (grad_H p, eps^-2 dz p)
    for the potential p = -i phi."""
    return _solve(k_dot(grid, c), denom)


def anisotropic_leray_project(grid: GridSpec, c, eps: float, denom) -> list[np.ndarray]:
    """Remove the gradient part (grad_H p, eps^-2 dz p) of the weighted elliptic
    operator Delta_H + eps^-2 dzz from the band blocks c of a vector field,
    c_j - w_j k_j phi with w = (1, 1, eps^-2), leaving zero discrete divergence;
    denom is ``leray_denominator(grid, eps)``."""
    phi = leray_potential(grid, c, denom)
    return [c[0] - grid.kx * phi, c[1] - grid.ky * phi, c[2] - grid.kz * phi * (1.0 / eps**2)]


def z_trace(c: np.ndarray) -> np.ndarray:
    """(x, y) spectrum of f(x, y, 0) for the band block c of f: the sum over
    every vertical mode m3 of the full spectrum, that is the m3 = 0 plane plus
    each plane 0 < m3 < k3 and its conjugate partner."""
    inner = c[:, :, 1:].sum(axis=2)
    return c[:, :, 0] + inner + partner(inner)


def hydrostatic_reconstruct(grid: GridSpec, h) -> np.ndarray:
    """Band block of the vertical component v(z) = -int_0^z div_H h dxi of the
    horizontal pair of band blocks h, pinned by v(., 0) = 0.

    Requires the z-mean of div_H h to vanish (barotropic compatibility), else
    the reconstruction is not z-periodic.
    """
    kc = k_dot(grid, h)  # the source -div_H h is -i kc
    scale = float(np.sqrt(parseval_sum(grid, kc)))
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
    v = kc * minus_inv_kz
    # kz = 0 mode (zero so far) fixed by the trace condition v(x, y, 0) = 0
    v[:, :, 0] = -z_trace(v)
    return v


def barotropic_project(grid: GridSpec, h) -> tuple[np.ndarray, np.ndarray]:
    """2D Leray projection of the vertical-mean (kz = 0) part of the horizontal
    pair of band blocks h, h - grad_H phi; all kz != 0 content passes through
    unchanged.  phi = k_H . h / |k_H|^2 on the kz = 0 plane (0 where |k_H| = 0)
    is the ``leray_potential`` restricted to kz = 0, where eps drops out."""
    phi = _solve(k_dot(grid, h, 0), _nonzero(grid.k2h[:, :, 0]))
    c1 = h[0].copy()
    c2 = h[1].copy()
    c1[:, :, 0] -= grid.kx[:, :, 0] * phi
    c2[:, :, 0] -= grid.ky[:, :, 0] * phi
    return c1, c2


@dataclass
class SpectrumParams:
    """Gaussian-decay spectrum for the seeded initial-data generator."""

    amplitude: float = 0.1
    m0: float = 2.5


def _random_even_scalar(rng: np.random.Generator, grid: GridSpec, spectrum: SpectrumParams) -> np.ndarray:
    # both full-lattice draws, in order, fix the seeded stream; only the band
    # block and its mirror (-m1, -m2, -m3) are read from them
    real, imag = rng.standard_normal(grid.shape), rng.standard_normal(grid.shape)
    i1, i2, k3 = grid.band
    m3 = np.arange(k3)
    env = spectrum.amplitude * np.exp(-(grid.modes1[i1]**2 + grid.modes2[:, i2]**2 + m3**2) / spectrum.m0**2)
    block, mirror = np.ix_(i1, i2, m3), np.ix_(-i1 % grid.n1, -i2 % grid.n2, -m3 % grid.n3)
    c, r = ((real[ix] + 1j * imag[ix]) * env for ix in (block, mirror))
    # real field: hermitian symmetrization coeff(-m) = conj(coeff(m))
    return parity_project(0.5 * (c + np.conj(r)), EVEN_IN_Z)


def generate_initial_data(seed: int, spectrum: SpectrumParams, grid: GridSpec) -> list[np.ndarray]:
    """Band blocks of deterministic band-limited, even-in-z, barotropically
    projected horizontal pairs A and B and their hydrostatically reconstructed
    verticals, in ``shmhd.FIELD_NAMES`` order (a_h1, a_h2, a_v, b_...)."""
    rng = np.random.default_rng(seed)
    draws = [_random_even_scalar(rng, grid, spectrum) for _ in range(4)]
    a_h, b_h = barotropic_project(grid, draws[:2]), barotropic_project(grid, draws[2:])
    return [c for h in (a_h, b_h) for c in (*h, hydrostatic_reconstruct(grid, h))]
