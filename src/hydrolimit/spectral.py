"""Spectral field carrier, the transform pair, and diagonal spectral operators.

Every field is real, so the modes -m3 of its spectrum are c(m1, m2, -m3) =
conj(c(-m1, -m2, m3)) of the modes m3 >= 0.  The forward transform divides by
the lattice size, so coeff(0,0,0) is the mean of the field and Parseval reads
integral |f|^2 dOmega = volume * sum |coeff|^2 over the full spectrum, =
volume * sum zweights |coeff|^2 over a band block (``parseval_sum``).

A field is its band block: every field is zero outside the 2/3 band
(``GridSpec.band``, the modes with 3*|m_i| < n_i on every axis).  3*|m| < n
excludes the unpaired Nyquist mode n/2 of each axis, so no field holds one.
The forward transform truncates to the band, and the inverse, every operator
of the step and every norm take and return band blocks.  Only the benchmark's
edge holds ``SpectralField``s, blocks embedded in the ``rfftn`` half-spectrum
(``from_band``, read back by ``gather``), in the states its probe and ledger
child read; how a field stores that half-spectrum is private to this module.
"""

from dataclasses import dataclass

import numpy as np

from .grid import GridSpec


@dataclass
class SpectralField:
    """Fourier coefficients of one real scalar on the grid: the ``rfftn``
    half-spectrum ``half``, z the halved last axis, shaped ``_half_shape(grid)``."""

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
        full[:, :, g.n3 // 2 + 1 :] = partner(self.half[:, :, g.n3 // 2 - 1 : 0 : -1])
        full.flags.writeable = False
        return full


def partner(c: np.ndarray) -> np.ndarray:
    """conj(c(-m1, -m2, m3)): for a real field, the coefficient of (m1, m2, -m3).
    A half-spectrum and a band block both hold their x and y modes in FFT
    order, so -m sits at index -j modulo the axis length (Nyquist maps to itself)."""
    n1, n2 = c.shape[:2]
    refl = c[np.ix_(-np.arange(n1) % n1, -np.arange(n2) % n2)]
    return np.conjugate(refl, out=refl)


def _half_shape(grid: GridSpec) -> tuple[int, int, int]:
    return (grid.n1, grid.n2, grid.n3 // 2 + 1)


def _band_index(grid: GridSpec) -> tuple:
    """``half[i1[:, None], i2, :k3]``: the band block of a half-spectrum."""
    i1, i2, k3 = grid.band
    return i1[:, None], i2, slice(k3)


def to_physical(grid: GridSpec, c: np.ndarray) -> np.ndarray:
    """Real values on the collocation lattice x_j = j*l1/n1, etc., of the field
    whose band block is c: ``irfftn``'s three 1-D passes in its axis order
    (x, y, z), skipping the lines that the band leaves zero.  x runs on the
    band's (m2, m3) lines only, y, in place, on its m3 planes only, and z on
    every (x, y) line."""
    i1, i2, k3 = grid.band
    lines = np.zeros((grid.n1, i2.size, k3), dtype=np.complex128)
    lines[i1] = c
    planes = np.zeros(_half_shape(grid), dtype=np.complex128)
    planes[:, i2, :k3] = np.fft.ifft(lines, axis=0, norm="forward")
    kept = planes[:, :, :k3]
    np.fft.ifft(kept, axis=1, norm="forward", out=kept)
    return np.fft.irfft(planes, n=grid.n3, axis=2, norm="forward")


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
    half = np.zeros(_half_shape(grid), dtype=np.complex128)
    half[_band_index(grid)] = block
    return SpectralField(grid, half)


def gather(fields) -> list[np.ndarray]:
    """The band block of each field."""
    return [f.half[_band_index(f.grid)] for f in fields]


def parseval_sum(grid: GridSpec, c: np.ndarray) -> float:
    """sum |coeff|^2 over the full spectrum of the field whose band block is c:
    |c|^2, reduced to its z marginal (plain sums, never BLAS), weighted by
    ``grid.zweights``."""
    return float(np.sum(grid.zweights * (np.abs(c) ** 2).sum(axis=(0, 1))))


def l2_norm(grid: GridSpec, c: np.ndarray) -> float:
    """Parseval-exact L2 norm over Omega (volume 2*l1*l2) of the field whose band block is c."""
    return float(np.sqrt(grid.volume * parseval_sum(grid, c)))
