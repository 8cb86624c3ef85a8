"""Spectral field carrier, the transform pair, and diagonal spectral operators.

Every field is real, so it keeps only its ``rfftn`` half-spectrum, with z the
halved last axis; the modes -m3 it drops are c(m1, m2, -m3) = conj(c(-m1, -m2, m3)).
The forward transform divides by the lattice size, so coeff(0,0,0) is the
mean of the field and Parseval reads integral |f|^2 dOmega = volume * sum
|coeff|^2 over the full spectrum, = volume * sum zweights |coeff|^2 over the half.

Field invariant: every ``SpectralField`` is zero outside the 2/3 band
(``GridSpec.band``, the modes with 3*|m_i| < n_i on every axis).  The forward
transform truncates to the band, the inverse reads only the band, and every
operator maps band fields to band fields.  3*|m| < n excludes the unpaired
Nyquist mode n/2 of each axis, so no field holds one.
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
    """Real values on the collocation lattice x_j = j*l1/n1, etc.: ``irfftn``'s
    three 1-D passes in its axis order (x, y, z), skipping the lines that the
    band leaves zero.  x runs on the band's (m2, m3) lines only, y, in place, on
    its m3 planes only, and z on every (x, y) line.  Coefficients outside the
    band are ignored."""
    g = f.grid
    i1, i2, k3 = g.band
    lines = np.zeros((g.n1, i2.size, k3), dtype=np.complex128)
    lines[i1] = f.half[i1[:, None], i2, :k3]
    planes = np.zeros(g.half_shape, dtype=np.complex128)
    planes[:, i2, :k3] = np.fft.ifft(lines, axis=0, norm="forward")
    kept = planes[:, :, :k3]
    np.fft.ifft(kept, axis=1, norm="forward", out=kept)
    return np.fft.irfft(planes, n=g.n3, axis=2, norm="forward")


def from_physical(grid: GridSpec, values: np.ndarray) -> SpectralField:
    """The real FFT of lattice values, truncated to the band; coeff(0) carries
    the mean of the field."""
    return from_band(grid, band_from_physical(grid, values))


def band_from_physical(grid: GridSpec, values: np.ndarray) -> np.ndarray:
    """The band block of the real FFT of lattice values, shaped
    (len(i1), len(i2), k3) for ``grid.band = (i1, i2, k3)``: ``rfftn``'s 1-D
    passes in its axis order (z, y, x), each keeping only the band's planes of
    its axis before the next pass transforms them."""
    i1, i2, k3 = grid.band
    planes = np.fft.rfft(values, axis=2, norm="forward")[:, :, :k3]
    np.fft.fft(planes, axis=1, norm="forward", out=planes)
    return np.fft.fft(planes[:, i2], axis=0, norm="forward")[i1]


def from_band(grid: GridSpec, block: np.ndarray) -> SpectralField:
    """The field whose band block is ``block``."""
    i1, i2, k3 = grid.band
    half = np.zeros(grid.half_shape, dtype=np.complex128)
    half[i1[:, None], i2, :k3] = block
    return SpectralField(grid, half)


def parseval_sum(f: SpectralField) -> float:
    """sum |coeff|^2 over the full spectrum: the half's |c|^2, reduced to its
    z marginal (plain sums, never BLAS), weighted by ``zweights``."""
    return float(np.sum(f.grid.zweights * (np.abs(f.half) ** 2).sum(axis=(0, 1))))


def l2_norm(f: SpectralField) -> float:
    """Parseval-exact L2 norm over Omega (volume 2*l1*l2)."""
    return float(np.sqrt(f.grid.volume * parseval_sum(f)))
