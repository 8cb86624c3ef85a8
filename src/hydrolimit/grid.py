"""Periodic box discretization and precomputed wavenumber tables.

The domain is (0, l1) x (0, l2) x (-1, 1): the z-period is fixed at 2, so the
vertical fundamental wavenumber is pi.
"""

from dataclasses import dataclass
from functools import cached_property
import math

import numpy as np

Z_PERIOD = 2.0


@dataclass(frozen=True)
class GridSpec:
    """Mode counts and horizontal box lengths of the periodic domain.

    Wavenumbers follow FFT-standard mode ordering (0, 1, ..., n/2-1, -n/2,
    ..., -1) on every axis.  Derivative wavenumbers zero the unpaired Nyquist
    mode so differentiation preserves real-representability.
    """

    n1: int
    n2: int
    n3: int
    l1: float = 2.0 * math.pi
    l2: float = 2.0 * math.pi

    def __post_init__(self):
        for name, n in (("n1", self.n1), ("n2", self.n2), ("n3", self.n3)):
            if n < 4 or n % 2 != 0:
                raise ValueError(f"{name} must be an even integer >= 4, got {n}")
        if self.l1 <= 0 or self.l2 <= 0:
            raise ValueError(f"box lengths must be positive, got l1={self.l1}, l2={self.l2}")

    @property
    def lz(self) -> float:
        return Z_PERIOD

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.n1, self.n2, self.n3)

    @property
    def npoints(self) -> int:
        return self.n1 * self.n2 * self.n3

    @property
    def volume(self) -> float:
        return self.l1 * self.l2 * self.lz

    @cached_property
    def modes1(self) -> np.ndarray:
        return np.fft.fftfreq(self.n1, 1.0 / self.n1).astype(np.int64).reshape(-1, 1, 1)

    @cached_property
    def modes2(self) -> np.ndarray:
        return np.fft.fftfreq(self.n2, 1.0 / self.n2).astype(np.int64).reshape(1, -1, 1)

    @cached_property
    def modes3(self) -> np.ndarray:
        return np.fft.fftfreq(self.n3, 1.0 / self.n3).astype(np.int64).reshape(1, 1, -1)

    @cached_property
    def kx(self) -> np.ndarray:
        return 2.0 * np.pi * self.modes1 / self.l1

    @cached_property
    def ky(self) -> np.ndarray:
        return 2.0 * np.pi * self.modes2 / self.l2

    @cached_property
    def kz(self) -> np.ndarray:
        return np.pi * self.modes3.astype(np.float64)

    @cached_property
    def kx_deriv(self) -> np.ndarray:
        k = self.kx.copy()
        k[self.n1 // 2, :, :] = 0.0
        return k

    @cached_property
    def ky_deriv(self) -> np.ndarray:
        k = self.ky.copy()
        k[:, self.n2 // 2, :] = 0.0
        return k

    @cached_property
    def kz_deriv(self) -> np.ndarray:
        k = self.kz.copy()
        k[:, :, self.n3 // 2] = 0.0
        return k

    @cached_property
    def k2h(self) -> np.ndarray:
        return self.kx**2 + self.ky**2

    @cached_property
    def dealias_mask(self) -> np.ndarray:
        return (
            (3 * np.abs(self.modes1) < self.n1)
            & (3 * np.abs(self.modes2) < self.n2)
            & (3 * np.abs(self.modes3) < self.n3)
        )

    @cached_property
    def reflect_z_index(self) -> np.ndarray:
        """Index array mapping vertical mode m3 to -m3 (Nyquist maps to itself)."""
        return (-np.arange(self.n3)) % self.n3

    @cached_property
    def reflect_all_index(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return (
            (-np.arange(self.n1)) % self.n1,
            (-np.arange(self.n2)) % self.n2,
            (-np.arange(self.n3)) % self.n3,
        )

    @cached_property
    def x(self) -> np.ndarray:
        return np.arange(self.n1) * (self.l1 / self.n1)

    @cached_property
    def y(self) -> np.ndarray:
        return np.arange(self.n2) * (self.l2 / self.n2)

    @cached_property
    def z(self) -> np.ndarray:
        # lattice parameterizes the z-torus from 0; (-1, 1) is the same circle
        return np.arange(self.n3) * (self.lz / self.n3)

    @property
    def dx(self) -> float:
        return self.l1 / self.n1

    @property
    def dy(self) -> float:
        return self.l2 / self.n2

    @property
    def dz(self) -> float:
        return self.lz / self.n3
