"""Shared fixtures and helpers for the hydrolimit test suite."""

import numpy as np
import pytest

from hydrolimit.constraints import VectorState, hydrostatic_reconstruct, leray_potential, z_trace
from hydrolimit.grid import GridSpec
from hydrolimit.spectral import SpectralField, from_physical, l2_norm, to_physical


@pytest.fixture
def grid8():
    return GridSpec(8, 8, 8, 1.0, 1.0)


@pytest.fixture
def grid8_2pi():
    return GridSpec(8, 8, 8, 2.0 * np.pi, 2.0 * np.pi)


def random_real_field(grid: GridSpec, seed: int) -> np.ndarray:
    """Standard-normal values on the collocation lattice."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal(grid.shape)


def random_spectral_field(grid: GridSpec, seed: int) -> SpectralField:
    """A random field of the 2/3 band: the package forward of random lattice values."""
    return from_physical(grid, random_real_field(grid, seed))


# ---------------------------------------------------------------------------
# numpy references for the band-limited transform pair, and the derivative
# arithmetic on the whole half-spectrum, Nyquist modes included

def rfft_field(grid: GridSpec, values: np.ndarray) -> SpectralField:
    """numpy's real FFT of lattice values, every mode kept (Nyquist planes too)."""
    return SpectralField(grid, np.fft.rfftn(values, norm="forward"))


def irfft_values(f: SpectralField) -> np.ndarray:
    """numpy's inverse real FFT of every stored coefficient."""
    return np.fft.irfftn(f.half, s=f.grid.shape, axes=(0, 1, 2), norm="forward")


def populated_spectral_field(grid: GridSpec, seed: int) -> SpectralField:
    """A random field with content on every mode, the Nyquist planes included."""
    return rfft_field(grid, random_real_field(grid, seed))


def band_mask(grid: GridSpec) -> np.ndarray:
    """True on the half-spectrum modes of ``grid.band``."""
    i1, i2, k3 = grid.band
    mask = np.zeros(grid.half_shape, dtype=bool)
    mask[i1[:, None], i2, :k3] = True
    return mask


def dealias(f: SpectralField) -> SpectralField:
    """2/3-rule truncation of any field: keep only the modes of the band."""
    return SpectralField(f.grid, f.half * band_mask(f.grid))


def derivative_wavenumbers(grid: GridSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Half-spectrum (kx, ky, kz) with the unpaired Nyquist modes zeroed, so a
    derivative of any real field stays real."""
    return tuple(np.where(np.abs(m) == n // 2, 0.0, k) for m, n, k in
                 ((grid.modes1, grid.n1, grid.kx), (grid.modes2, grid.n2, grid.ky),
                  (grid.modes3, grid.n3, grid.kz)))


def partial_derivative(f: SpectralField, axis: str) -> SpectralField:
    """Spectral derivative along 'x', 'y' or 'z'."""
    try:
        k = dict(zip("xyz", derivative_wavenumbers(f.grid)))[axis]
    except KeyError:
        raise ValueError(f"axis must be one of 'x', 'y', 'z', got {axis!r}") from None
    return SpectralField(f.grid, 1j * k * f.half)


def horizontal_divergence(h: tuple[SpectralField, SpectralField]) -> SpectralField:
    return partial_derivative(h[0], "x") + partial_derivative(h[1], "y")


def random_vector(grid: GridSpec, seed: int) -> VectorState:
    return VectorState(
        random_spectral_field(grid, seed),
        random_spectral_field(grid, seed + 1),
        random_spectral_field(grid, seed + 2),
    )


def field_from_lattice(grid: GridSpec, func) -> SpectralField:
    """Spectral field from a callable on the (x, y, z) lattice."""
    x, y, z = np.meshgrid(grid.x, grid.y, grid.z, indexing="ij")
    return from_physical(grid, func(x, y, z))


def convective_advection(adv, fields) -> list[SpectralField]:
    """Reference tendencies -(w . grad) f in convective form, for each field f
    advected by the three components adv of w, dealiased by the 2/3 rule."""
    w = [to_physical(c) for c in adv]
    out = []
    for f in fields:
        prod = -sum(wj * to_physical(partial_derivative(f, axis)) for wj, axis in zip(w, "xyz"))
        out.append(dealias(from_physical(f.grid, prod)))
    return out


def assert_rel_close(got, want, rel: float) -> None:
    """Max coefficient difference within rel of the largest reference coefficient."""
    scale = max(np.max(np.abs(w.coeffs)) for w in want)
    for g, w in zip(got, want, strict=True):
        assert np.max(np.abs(g.coeffs - w.coeffs)) <= rel * scale


def derivative_norms(f: SpectralField) -> tuple[float, float, float]:
    """Reference ||f||^2, ||grad_H f||^2 and ||dz f||^2 from materialised
    spectral derivative arrays."""
    sq = [l2_norm(g) ** 2 for g in (f, *(partial_derivative(f, axis) for axis in "xyz"))]
    return sq[0], sq[1] + sq[2], sq[3]


def derivative_dissipation_rate(a, b, eps: float, alpha: float) -> float:
    """Reference anisotropic dissipation rate of two Elsaesser vector states."""
    rate = 0.0
    for f in (a.h1, a.h2, b.h1, b.h2):
        _, gh, dz = derivative_norms(f)
        rate += gh + eps ** (alpha - 2.0) * dz
    for f in (a.v, b.v):
        _, gh, dz = derivative_norms(f)
        rate += eps**2 * gh + eps**alpha * dz
    return rate


def derivative_difference_metrics(s_eps, s_lim, eps: float, alpha: float) -> tuple[float, float, float]:
    """Reference (d_l2, d_diss_rate, d_h1) of an SHMHD state against a
    hydrostatically lifted PEHM state, from derivative arrays."""
    horizontal = [f - g for f, g in zip((s_eps.a.h1, s_eps.a.h2, s_eps.b.h1, s_eps.b.h2),
                                        (*s_lim.a_h, *s_lim.b_h))]
    vertical = [s_eps.a.v - hydrostatic_reconstruct(s_lim.a_h), s_eps.b.v - hydrostatic_reconstruct(s_lim.b_h)]
    d_l2 = d_h1 = 0.0
    for f in horizontal:
        n, gh, dz = derivative_norms(f)
        d_l2 += n
        d_h1 += n + gh + dz
    for f in vertical:
        n, gh, dz = derivative_norms(f)
        d_l2 += eps**2 * n
        d_h1 += eps**2 * (n + gh + dz)
    d_a = VectorState(horizontal[0], horizontal[1], vertical[0])
    d_b = VectorState(horizontal[2], horizontal[3], vertical[1])
    return d_l2, derivative_dissipation_rate(d_a, d_b, eps, alpha), d_h1


# ---------------------------------------------------------------------------
# full-layout references: the complex (n1, n2, n3) FFT-ordered storage, with
# the arithmetic the operators had on it, as oracles for the half-spectrum

def field_from_full(grid: GridSpec, c: np.ndarray) -> SpectralField:
    """The half-spectrum field of a full FFT-ordered Hermitian coefficient array."""
    return SpectralField(grid, c[:, :, : grid.n3 // 2 + 1].copy())


def full_wavenumbers(grid: GridSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Full-layout derivative wavenumbers (kx, ky, kz), Nyquist modes zeroed."""
    out = []
    for n, scale, shape in ((grid.n1, 2 * np.pi / grid.l1, (-1, 1, 1)),
                            (grid.n2, 2 * np.pi / grid.l2, (1, -1, 1)),
                            (grid.n3, np.pi, (1, 1, -1))):
        k = scale * np.fft.fftfreq(n, 1.0 / n)
        k[n // 2] = 0.0
        out.append(k.reshape(shape))
    return tuple(out)


def full_band_mask(grid: GridSpec) -> np.ndarray:
    """True on the full-layout modes with 3*|m_i| < n_i on every axis."""
    m1, m2, m3 = np.ix_(*(np.fft.fftfreq(n, 1.0 / n) for n in grid.shape))
    return (3 * np.abs(m1) < grid.n1) & (3 * np.abs(m2) < grid.n2) & (3 * np.abs(m3) < grid.n3)


def full_to_physical(grid: GridSpec, c: np.ndarray) -> np.ndarray:
    return np.fft.ifftn(c * grid.npoints).real


def full_from_physical(grid: GridSpec, values: np.ndarray) -> np.ndarray:
    return np.fft.fftn(values) / grid.npoints


def full_weighted_sums(grid: GridSpec, c: np.ndarray) -> tuple[float, float, float]:
    """volume * sum w |c|^2 with w = 1, kx^2 + ky^2 and kz^2 over the full spectrum."""
    kx, ky, kz = full_wavenumbers(grid)
    p = np.abs(c) ** 2
    return tuple(float(grid.volume * np.sum(w * p)) for w in (1.0, kx**2 + ky**2, kz**2))


def full_l2_norm(grid: GridSpec, c: np.ndarray) -> float:
    return float(np.sqrt(full_weighted_sums(grid, c)[0]))


def full_parity_project(grid: GridSpec, c: np.ndarray, even: bool) -> np.ndarray:
    refl = c[:, :, (-np.arange(grid.n3)) % grid.n3]
    return 0.5 * (c + refl) if even else 0.5 * (c - refl)


def full_leray_project(grid: GridSpec, comps, eps: float) -> list[np.ndarray]:
    k = full_wavenumbers(grid)
    div = sum(1j * kj * cj for kj, cj in zip(k, comps))
    denom = -(k[0] ** 2 + k[1] ** 2 + k[2] ** 2 / eps**2)
    phi = np.where(denom == 0.0, 0.0, div / np.where(denom == 0.0, 1.0, denom))
    weights = (1.0, 1.0, 1.0 / eps**2)
    return [cj - w * (1j * kj * phi) for cj, kj, w in zip(comps, k, weights)]


def full_barotropic_project(grid: GridSpec, c1: np.ndarray, c2: np.ndarray) -> list[np.ndarray]:
    kx, ky, _ = full_wavenumbers(grid)
    kx, ky = kx[:, :, 0], ky[:, :, 0]
    k2 = kx**2 + ky**2
    phi = np.where(k2 == 0.0, 0.0, (kx * c1[:, :, 0] + ky * c2[:, :, 0]) / np.where(k2 == 0.0, 1.0, k2))
    out = [c1.copy(), c2.copy()]
    out[0][:, :, 0] -= kx * phi
    out[1][:, :, 0] -= ky * phi
    return out


def full_hydrostatic_reconstruct(grid: GridSpec, c1: np.ndarray, c2: np.ndarray) -> np.ndarray:
    """v = -int_0^z div_H h with every vertical mode m3 != 0 divided by i pi m3
    (the full-layout Nyquist mode -n3/2 included) and v(., 0) = 0."""
    kx, ky, _ = full_wavenumbers(grid)
    g = -(1j * kx * c1 + 1j * ky * c2)
    kz = np.pi * np.fft.fftfreq(grid.n3, 1.0 / grid.n3)
    inv_ikz = np.zeros(grid.n3, dtype=np.complex128)
    inv_ikz[1:] = 1.0 / (1j * kz[1:])
    v = g * inv_ikz
    v[:, :, 0] = -np.sum(v[:, :, 1:], axis=2)
    return v


# ---------------------------------------------------------------------------
# derivative-chain references: the incompressibility arithmetic built from
# spectral derivative fields and a Poisson solve of the divergence, as bitwise
# oracles for the k . c kernel of ``constraints``

def chain_divergence(g: VectorState) -> SpectralField:
    return horizontal_divergence((g.h1, g.h2)) + partial_derivative(g.v, "z")


def chain_poisson_solve(rhs: SpectralField, eps: float) -> SpectralField:
    """(Delta_H + eps^-2 dzz) phi = rhs with phi = 0 on the modes every derivative annihilates."""
    kx, ky, kz = derivative_wavenumbers(rhs.grid)
    denom = -(kx**2 + ky**2 + kz**2 / eps**2)
    kernel = denom == 0.0
    phi = rhs.half / np.where(kernel, 1.0, denom)
    phi[kernel] = 0.0
    return SpectralField(rhs.grid, phi)


def chain_leray_project(g: VectorState, eps: float) -> VectorState:
    phi = chain_poisson_solve(chain_divergence(g), eps)
    return VectorState(
        g.h1 - partial_derivative(phi, "x"),
        g.h2 - partial_derivative(phi, "y"),
        g.v - (1.0 / eps**2) * partial_derivative(phi, "z"),
    )


def poisson_potential(g: VectorState, eps: float) -> SpectralField:
    """The zero-mean solution p of (Delta_H + eps^-2 dzz) p = div g: -i times
    the kernel's ``leray_potential``, as ``chain_poisson_solve`` returns it."""
    return SpectralField(g.grid, -1j * leray_potential(g, eps))


def chain_barotropic_defect(h) -> float:
    """Max kz = 0 coefficient of the full-grid div_H h."""
    return float(np.max(np.abs(horizontal_divergence(h).half[:, :, 0])))


def chain_hydrostatic_reconstruct(h) -> SpectralField:
    """v = source / (i kz) from the source -div_H h, with v(x, y, 0) = 0."""
    grid = h[0].grid
    source = (-1.0 * horizontal_divergence(h)).half
    kz = grid.kz.reshape(-1)
    inv_ikz = np.zeros(kz.size, dtype=np.complex128)
    inv_ikz[1:] = 1.0 / (1j * kz[1:])
    v = SpectralField(grid, source * inv_ikz)
    v.half[:, :, 0] = -z_trace(v)
    return v
