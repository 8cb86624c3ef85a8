"""Spectral field carrier, the transform pair, and diagonal spectral operators.

Every field is real, so it keeps only its ``rfftn`` half-spectrum, with z the
halved last axis; the modes -m3 it drops are c(m1, m2, -m3) = conj(c(-m1, -m2, m3)).
The forward transform divides by the lattice size, so coeff(0,0,0) is the
mean of the field and Parseval reads integral |f|^2 dOmega = volume * sum
|coeff|^2 over the full spectrum, = volume * sum zweights |coeff|^2 over the half.
"""

from dataclasses import dataclass

import numpy as np

from .grid import GridSpec


@dataclass
class SpectralField:
    """Fourier coefficients of one real scalar on the grid: the half-spectrum
    ``half``, shaped ``grid.half_shape``."""

    grid: GridSpec
    half: np.ndarray

    @property
    def coeffs(self) -> np.ndarray:
        """Read-only full (n1, n2, n3) FFT-ordered Hermitian expansion of ``half``,
        for outside checks such as the benchmark probe and the tests; the solvers
        never build it."""
        g = self.grid
        full = np.empty(g.shape, dtype=np.complex128)
        full[:, :, : g.n3 // 2 + 1] = self.half
        full[:, :, g.n3 // 2 + 1 :] = partner(self.half[:, :, g.n3 // 2 - 1 : 0 : -1], g)
        full.flags.writeable = False
        return full

    def copy(self) -> "SpectralField":
        return SpectralField(self.grid, self.half.copy())

    def __add__(self, other: "SpectralField") -> "SpectralField":
        return SpectralField(self.grid, self.half + other.half)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        return SpectralField(self.grid, self.half - other.half)

    def __mul__(self, scalar: float) -> "SpectralField":
        return SpectralField(self.grid, self.half * scalar)

    __rmul__ = __mul__


def partner(c: np.ndarray, grid: GridSpec) -> np.ndarray:
    """conj(c(-m1, -m2, m3)): for a real field, the coefficient of (m1, m2, -m3)."""
    refl = c[grid.reflect_xy]
    return np.conjugate(refl, out=refl)


def zero_field(grid: GridSpec) -> SpectralField:
    return SpectralField(grid, np.zeros(grid.half_shape, dtype=np.complex128))


def to_physical(f: SpectralField) -> np.ndarray:
    """Real values on the collocation lattice x_j = j*l1/n1, etc."""
    return np.fft.irfftn(f.half, s=f.grid.shape, axes=(0, 1, 2), norm="forward")


def from_physical(grid: GridSpec, values: np.ndarray) -> SpectralField:
    """Real FFT of lattice values; coeff(0) carries the mean of the field."""
    return SpectralField(grid, np.fft.rfftn(values, norm="forward"))


def partial_derivative(f: SpectralField, axis: str) -> SpectralField:
    """Spectral derivative along 'x', 'y' or 'z'."""
    g = f.grid
    try:
        k = {"x": g.kx_deriv, "y": g.ky_deriv, "z": g.kz_deriv}[axis]
    except KeyError:
        raise ValueError(f"axis must be one of 'x', 'y', 'z', got {axis!r}") from None
    return SpectralField(g, 1j * k * f.half)


def dealias(f: SpectralField) -> SpectralField:
    """2/3-rule truncation: keep only modes with 3*|m_i| < n_i on every axis, so a
    product of two kept fields aliases only onto removed modes."""
    return SpectralField(f.grid, f.half * f.grid.dealias_mask)


def parseval_sum(f: SpectralField) -> float:
    """sum |coeff|^2 over the full spectrum: the half's |c|^2, reduced to its
    z marginal (plain sums, never BLAS), weighted by ``zweights``."""
    return float(np.sum(f.grid.zweights * (np.abs(f.half) ** 2).sum(axis=(0, 1))))


def l2_norm(f: SpectralField) -> float:
    """Parseval-exact L2 norm over Omega (volume 2*l1*l2)."""
    return float(np.sqrt(f.grid.volume * parseval_sum(f)))
