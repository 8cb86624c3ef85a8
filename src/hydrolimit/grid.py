"""Periodic box discretization and precomputed wavenumber tables.

The domain is (0, l1) x (0, l2) x (-1, 1): the z-period is fixed at 2, so the
vertical fundamental wavenumber is pi.
"""

from dataclasses import dataclass
from functools import cached_property
import math
import sys

import numpy as np

Z_PERIOD = 2.0


def normal_powers(x: float, *powers: float) -> bool:
    """Whether x > 0 and every x**q is a normal float."""
    try:
        return x > 0 and all(sys.float_info.min <= x**q < math.inf for q in powers)
    except OverflowError:
        return False


@dataclass(frozen=True)
class GridSpec:
    """Mode counts and horizontal box lengths of the periodic domain, and the
    tables of its 2/3 band.

    ``modes1/2/3`` are the integer modes of the lattice's real FFT, in FFT
    order in x and y and 0, ..., n3/2 in z; ``band`` selects the band from
    them.  The wavenumber tables ``kx``, ``ky``, ``kz``, ``k2h`` and the
    Parseval z-weights ``zweights`` are those of a band block, shaped
    (len(i1), len(i2), k3).  The band has no Nyquist mode, so one wavenumber
    table per axis serves every derivative.
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
        for name, length, n in (("l1", self.l1, self.n1), ("l2", self.l2, self.n2)):
            k_min = 2.0 * math.pi / length if length > 0 else 0.0
            # every nonzero squared wavenumber, k_min^2 to (k_min n / 2)^2, must be a normal float
            if not (normal_powers(k_min, 2) and normal_powers(k_min * n / 2, 2)):
                raise ValueError(f"{name}: must be positive with normal squared wavenumbers, got {length}")

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.n1, self.n2, self.n3)

    @property
    def volume(self) -> float:
        return self.l1 * self.l2 * Z_PERIOD

    @cached_property
    def modes1(self) -> np.ndarray:
        return np.fft.fftfreq(self.n1, 1.0 / self.n1).astype(np.int64).reshape(-1, 1, 1)

    @cached_property
    def modes2(self) -> np.ndarray:
        return np.fft.fftfreq(self.n2, 1.0 / self.n2).astype(np.int64).reshape(1, -1, 1)

    @cached_property
    def modes3(self) -> np.ndarray:
        return np.arange(self.n3 // 2 + 1, dtype=np.int64).reshape(1, 1, -1)

    @cached_property
    def zweights(self) -> np.ndarray:
        """Parseval weights (1, 2, ..., 2) of the band's vertical modes 0, ..., k3 - 1:
        every plane but m3 = 0 also counts its partner -m3."""
        return np.r_[1.0, np.full(self.band[2] - 1, 2.0)]

    @cached_property
    def kx(self) -> np.ndarray:
        return 2.0 * np.pi * self.modes1[self.band[0]] / self.l1

    @cached_property
    def ky(self) -> np.ndarray:
        return 2.0 * np.pi * self.modes2[:, self.band[1]] / self.l2

    @cached_property
    def kz(self) -> np.ndarray:
        return np.pi * self.modes3[:, :, : self.band[2]].astype(np.float64)

    @cached_property
    def k2h(self) -> np.ndarray:
        return self.kx**2 + self.ky**2

    @cached_property
    def band(self) -> tuple[np.ndarray, np.ndarray, int]:
        """The 2/3 band, the modes with 3*|m_i| < n_i on every axis: the indices
        ``i1`` into ``modes1`` of its x modes and ``i2`` into ``modes2`` of its
        y modes, and the count ``k3`` of its vertical modes 0, ..., k3 - 1.  A
        band block's x and y modes are in FFT order themselves, (0, 1, ..., K,
        -K, ..., -1)."""
        i1, i2, i3 = (np.flatnonzero(3 * np.abs(m.ravel()) < n)
                      for m, n in ((self.modes1, self.n1), (self.modes2, self.n2), (self.modes3, self.n3)))
        return i1, i2, i3.size

    @property
    def dx(self) -> float:
        return self.l1 / self.n1

    @property
    def dy(self) -> float:
        return self.l2 / self.n2

    @property
    def dz(self) -> float:
        return Z_PERIOD / self.n3
