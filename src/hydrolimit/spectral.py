"""Spectral field carrier, the transform pair, and diagonal spectral operators.

Every field is real, so it keeps only its ``rfftn`` half-spectrum, with z the
halved last axis; the modes -m3 it drops are c(m1, m2, -m3) = conj(c(-m1, -m2, m3)).
The forward transform divides by the lattice size, so coeff(0,0,0) is the
mean of the field and Parseval reads integral |f|^2 dOmega = volume * sum
|coeff|^2 over the full spectrum, = volume * sum zweights |coeff|^2 over the half.
"""

from dataclasses import dataclass
import os
import struct

import numpy as np

from .grid import GridSpec

SNAPSHOT_MAGIC = b"HLIMFLD1"


@dataclass
class SpectralField:
    """Fourier coefficients of one real scalar on the grid: the half-spectrum
    ``half``, shaped ``grid.half_shape``."""

    grid: GridSpec
    half: np.ndarray

    @property
    def coeffs(self) -> np.ndarray:
        """Read-only full (n1, n2, n3) FFT-ordered Hermitian expansion of ``half``,
        for file formats and outside checks; the solvers never build it."""
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


def anisotropic_poisson_solve(rhs: SpectralField, eps: float) -> SpectralField:
    """Solve (Delta_H + eps^-2 dzz) phi = rhs with the zero-mean gauge.

    The operator is built from the same Nyquist-zeroed wavenumbers as the
    spectral derivatives, so gradients of phi are discretely consistent with
    the divergence that sourced it.  Modes annihilated by every derivative
    (the unpaired Nyquist lines) get phi = 0.
    """
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    g = rhs.grid
    scale = np.sqrt(parseval_sum(rhs))
    mean = abs(rhs.half[0, 0, 0])
    if mean > 1e-10 * scale and scale > 0:
        raise ValueError(
            f"incompatible source: rhs mean coefficient {mean:.3e} exceeds 1e-10 of its norm {scale:.3e}"
        )
    denom = -(g.kx_deriv**2 + g.ky_deriv**2 + g.kz_deriv**2 / eps**2)
    kernel = denom == 0.0
    phi = rhs.half / np.where(kernel, 1.0, denom)
    phi[kernel] = 0.0
    return SpectralField(g, phi)


def save_snapshot(f: SpectralField, path) -> None:
    """Write the little-endian binary snapshot format: the header, then the
    full (n1, n2, n3) spectrum in FFT order."""
    g = f.grid
    header = SNAPSHOT_MAGIC + struct.pack("<III", g.n1, g.n2, g.n3) + struct.pack("<dd", g.l1, g.l2)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(f.coeffs).astype("<c16").tobytes())


def load_snapshot(path) -> SpectralField:
    """Read a snapshot; raises ValueError unless the file holds exactly the
    header and the coefficients it declares."""
    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic != SNAPSHOT_MAGIC:
            raise ValueError(f"bad snapshot magic {magic!r} in {path}")
        header = fh.read(28)
        if len(header) != 28:
            raise ValueError(f"truncated snapshot header in {path}: {len(header)} of 28 bytes")
        n1, n2, n3 = struct.unpack("<III", header[:12])
        l1, l2 = struct.unpack("<dd", header[12:])
        grid = GridSpec(n1, n2, n3, l1, l2)
        expected = 16 * grid.npoints
        payload = os.fstat(fh.fileno()).st_size - fh.tell()
        if payload != expected:
            raise ValueError(
                f"snapshot {path} holds {payload} payload bytes, but its "
                f"{n1}x{n2}x{n3} header declares {expected}"
            )
        raw = fh.read(expected)
    coeffs = np.frombuffer(raw, dtype="<c16").reshape(n1, n2, n3)
    return SpectralField(grid, coeffs[:, :, : n3 // 2 + 1].astype(np.complex128))
