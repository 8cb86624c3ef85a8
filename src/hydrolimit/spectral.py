"""Spectral field carrier, the transform pair, and diagonal spectral operators.

Coefficient normalization: the forward transform divides by the lattice size,
so coeff(0,0,0) is the mean of the field and Parseval reads
integral |f|^2 dOmega = volume * sum |coeff|^2.
"""

from dataclasses import dataclass
import os
import struct

import numpy as np

from .grid import GridSpec

SNAPSHOT_MAGIC = b"HLIMFLD1"


@dataclass
class SpectralField:
    """Complex Fourier coefficients of one real scalar on the grid."""

    grid: GridSpec
    coeffs: np.ndarray

    def copy(self) -> "SpectralField":
        return SpectralField(self.grid, self.coeffs.copy())

    def __add__(self, other: "SpectralField") -> "SpectralField":
        return SpectralField(self.grid, self.coeffs + other.coeffs)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        return SpectralField(self.grid, self.coeffs - other.coeffs)

    def __mul__(self, scalar: float) -> "SpectralField":
        return SpectralField(self.grid, self.coeffs * scalar)

    __rmul__ = __mul__


def zero_field(grid: GridSpec) -> SpectralField:
    return SpectralField(grid, np.zeros(grid.shape, dtype=np.complex128))


def to_physical(f: SpectralField) -> np.ndarray:
    """Real values on the collocation lattice x_j = j*l1/n1, etc."""
    return np.fft.ifftn(f.coeffs * f.grid.npoints).real


def from_physical(grid: GridSpec, values: np.ndarray) -> SpectralField:
    """FFT of lattice values; coeff(0) carries the mean of the field."""
    return SpectralField(grid, np.fft.fftn(values) / grid.npoints)


def partial_derivative(f: SpectralField, axis: str) -> SpectralField:
    """Spectral derivative along 'x', 'y' or 'z'."""
    g = f.grid
    try:
        k = {"x": g.kx_deriv, "y": g.ky_deriv, "z": g.kz_deriv}[axis]
    except KeyError:
        raise ValueError(f"axis must be one of 'x', 'y', 'z', got {axis!r}") from None
    return SpectralField(g, 1j * k * f.coeffs)


def dealias(f: SpectralField) -> SpectralField:
    """2/3-rule truncation: keep only modes with 3*|m_i| < n_i on every axis, so a
    product of two kept fields aliases only onto removed modes."""
    return SpectralField(f.grid, f.coeffs * f.grid.dealias_mask)


def l2_norm(f: SpectralField) -> float:
    """Parseval-exact L2 norm over Omega (volume 2*l1*l2)."""
    return float(np.sqrt(f.grid.volume * np.sum(np.abs(f.coeffs) ** 2)))


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
    scale = np.sqrt(np.sum(np.abs(rhs.coeffs) ** 2))
    mean = abs(rhs.coeffs[0, 0, 0])
    if mean > 1e-10 * scale and scale > 0:
        raise ValueError(
            f"incompatible source: rhs mean coefficient {mean:.3e} exceeds 1e-10 of its norm {scale:.3e}"
        )
    denom = -(g.kx_deriv**2 + g.ky_deriv**2 + g.kz_deriv**2 / eps**2)
    kernel = denom == 0.0
    phi = rhs.coeffs / np.where(kernel, 1.0, denom)
    phi[kernel] = 0.0
    return SpectralField(g, phi)


def save_snapshot(f: SpectralField, path) -> None:
    """Write the little-endian binary snapshot format."""
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
    coeffs = np.frombuffer(raw, dtype="<c16").reshape(n1, n2, n3).astype(np.complex128)
    return SpectralField(grid, coeffs)
