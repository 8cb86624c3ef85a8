"""Shared fixtures and helpers for the hydrolimit test suite."""

import numpy as np
import pytest

from hydrolimit.constraints import (VectorState, anisotropic_leray_project, barotropic_project, divergence_defect,
                                   generate_initial_data, hydrostatic_reconstruct, leray_potential, parity_defect,
                                   parity_project, z_trace)
from hydrolimit.diagnostics import _weighted_sums, difference_metrics
from hydrolimit.grid import GridSpec
from hydrolimit.spectral import SpectralField, band_from_physical, from_band, gather, l2_norm, to_physical


@pytest.fixture
def grid8():
    return GridSpec(8, 8, 8, 1.0, 1.0)


@pytest.fixture
def grid8_2pi():
    return GridSpec(8, 8, 8, 2.0 * np.pi, 2.0 * np.pi)


# ---------------------------------------------------------------------------
# the band-block operators on spectral fields: gather each field's band block,
# apply the operator, embed the blocks it returns

def physical(f: SpectralField) -> np.ndarray:
    """Lattice values of f: ``to_physical`` of its band block."""
    return to_physical(f.grid, gather([f])[0])


def embed(grid: GridSpec, blocks) -> list[SpectralField]:
    return [from_band(grid, c) for c in blocks]


def embed_plane(grid: GridSpec, plane: np.ndarray) -> np.ndarray:
    """The (n1, n2) FFT-ordered plane whose band (m1, m2) block is ``plane``."""
    i1, i2, _ = grid.band
    out = np.zeros((grid.n1, grid.n2), dtype=plane.dtype)
    out[i1[:, None], i2] = plane
    return out


def initial_vectors(seed: int, spectrum, grid: GridSpec) -> tuple[VectorState, VectorState]:
    """The seeded initial data as the pair (A, B) of ``VectorState``s: the six
    band blocks of ``generate_initial_data``, embedded."""
    fields = embed(grid, generate_initial_data(seed, spectrum, grid))
    return VectorState(*fields[:3]), VectorState(*fields[3:])


def leray(g: VectorState, eps: float) -> VectorState:
    return VectorState(*embed(g.grid, anisotropic_leray_project(g.grid, gather(g.components()), eps)))


def potential(g: VectorState, eps: float) -> np.ndarray:
    """The half-spectrum of ``leray_potential``."""
    return from_band(g.grid, leray_potential(g.grid, gather(g.components()), eps)).half


def barotropic(h) -> tuple[SpectralField, SpectralField]:
    grid = h[0].grid
    return tuple(embed(grid, barotropic_project(grid, gather(h))))


def hydrostatic(h) -> SpectralField:
    grid = h[0].grid
    return from_band(grid, hydrostatic_reconstruct(grid, gather(h)))


def parity(f: SpectralField, cls: str) -> SpectralField:
    return from_band(f.grid, parity_project(gather([f])[0], cls))


def parity_defect_of(f: SpectralField, cls: str) -> float:
    return parity_defect(f.grid, gather([f])[0], cls)


def divergence_defect_of(g: VectorState) -> float:
    return divergence_defect(g.grid, gather(g.components()))


def barotropic_defect_of(h) -> float:
    """``divergence_defect`` of the kz = 0 plane of the horizontal pair h."""
    return divergence_defect(h[0].grid, gather(h), 0)


def trace(f: SpectralField) -> np.ndarray:
    """The (n1, n2) spectrum of f(x, y, 0) from ``z_trace``."""
    return embed_plane(f.grid, z_trace(gather([f])[0]))


def weighted_sums(f: SpectralField) -> tuple[float, float, float]:
    return _weighted_sums(f.grid, gather([f])[0])


def state_difference_metrics(s_eps, s_lim, eps: float, alpha: float):
    """``difference_metrics`` of an SHMHD state against a PEHM state."""
    return difference_metrics(s_eps.grid, gather(s_eps.fields()), gather(s_lim.fields()), eps, alpha)


def random_real_field(grid: GridSpec, seed: int) -> np.ndarray:
    """Standard-normal values on the collocation lattice."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal(grid.shape)


def random_spectral_field(grid: GridSpec, seed: int) -> SpectralField:
    """A random field of the 2/3 band: the package forward of random lattice values."""
    return from_band(grid, band_from_physical(grid, random_real_field(grid, seed)))


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
    mask = np.zeros((grid.n1, grid.n2, grid.n3 // 2 + 1), dtype=bool)
    mask[i1[:, None], i2, :k3] = True
    return mask


def dealias(f: SpectralField) -> SpectralField:
    """2/3-rule truncation of any field: keep only the modes of the band."""
    return SpectralField(f.grid, f.half * band_mask(f.grid))


def half_wavenumbers(grid: GridSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Half-spectrum (kx, ky, kz), the Nyquist modes kept: the tables the
    operators read before they moved to the band block."""
    return (2.0 * np.pi * grid.modes1 / grid.l1, 2.0 * np.pi * grid.modes2 / grid.l2,
            np.pi * grid.modes3.astype(np.float64))


def derivative_wavenumbers(grid: GridSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Half-spectrum (kx, ky, kz) with the unpaired Nyquist modes zeroed, so a
    derivative of any real field stays real."""
    return tuple(np.where(np.abs(m) == n // 2, 0.0, k) for m, n, k in
                 zip((grid.modes1, grid.modes2, grid.modes3), grid.shape, half_wavenumbers(grid)))


def partial_derivative(f: SpectralField, axis: str) -> SpectralField:
    """Spectral derivative along 'x', 'y' or 'z'."""
    try:
        k = dict(zip("xyz", derivative_wavenumbers(f.grid)))[axis]
    except KeyError:
        raise ValueError(f"axis must be one of 'x', 'y', 'z', got {axis!r}") from None
    return SpectralField(f.grid, 1j * k * f.half)


def horizontal_divergence(h: tuple[SpectralField, SpectralField]) -> SpectralField:
    return SpectralField(h[0].grid, partial_derivative(h[0], "x").half + partial_derivative(h[1], "y").half)


def random_vector(grid: GridSpec, seed: int) -> VectorState:
    return VectorState(
        random_spectral_field(grid, seed),
        random_spectral_field(grid, seed + 1),
        random_spectral_field(grid, seed + 2),
    )


def field_from_lattice(grid: GridSpec, func) -> SpectralField:
    """Spectral field from a callable on the (x, y, z) lattice."""
    x, y, z = np.meshgrid(np.arange(grid.n1) * grid.dx, np.arange(grid.n2) * grid.dy,
                          np.arange(grid.n3) * grid.dz, indexing="ij")
    return from_band(grid, band_from_physical(grid, func(x, y, z)))


def convective_advection(adv, fields) -> list[SpectralField]:
    """Reference tendencies -(w . grad) f in convective form, for each field f
    advected by the three components adv of w, dealiased by the 2/3 rule."""
    w = [physical(c) for c in adv]
    out = []
    for f in fields:
        prod = -sum(wj * physical(partial_derivative(f, axis)) for wj, axis in zip(w, "xyz"))
        out.append(dealias(from_band(f.grid, band_from_physical(f.grid, prod))))
    return out


def assert_rel_close(got, want, rel: float) -> None:
    """Max coefficient difference within rel of the largest reference coefficient."""
    scale = max(np.max(np.abs(w.coeffs)) for w in want)
    for g, w in zip(got, want, strict=True):
        assert np.max(np.abs(g.coeffs - w.coeffs)) <= rel * scale


def derivative_norms(f: SpectralField) -> tuple[float, float, float]:
    """Reference ||f||^2, ||grad_H f||^2 and ||dz f||^2 from materialised
    spectral derivative arrays."""
    sq = [l2_norm(f.grid, c) ** 2 for c in gather((f, *(partial_derivative(f, axis) for axis in "xyz")))]
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
    grid = s_eps.grid
    horizontal = [SpectralField(grid, f.half - g.half)
                  for f, g in zip((s_eps.a.h1, s_eps.a.h2, s_eps.b.h1, s_eps.b.h2), (*s_lim.a_h, *s_lim.b_h))]
    vertical = [SpectralField(grid, v.half - hydrostatic(h).half)
                for v, h in ((s_eps.a.v, s_lim.a_h), (s_eps.b.v, s_lim.b_h))]
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
    return np.fft.ifftn(c * (grid.n1 * grid.n2 * grid.n3)).real


def full_from_physical(grid: GridSpec, values: np.ndarray) -> np.ndarray:
    return np.fft.fftn(values) / (grid.n1 * grid.n2 * grid.n3)


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
    return SpectralField(g.grid, horizontal_divergence((g.h1, g.h2)).half + partial_derivative(g.v, "z").half)


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
        SpectralField(g.grid, g.h1.half - partial_derivative(phi, "x").half),
        SpectralField(g.grid, g.h2.half - partial_derivative(phi, "y").half),
        SpectralField(g.grid, g.v.half - (1.0 / eps**2) * partial_derivative(phi, "z").half),
    )


def poisson_potential(g: VectorState, eps: float) -> SpectralField:
    """The zero-mean solution p of (Delta_H + eps^-2 dzz) p = div g: -i times
    the kernel's ``leray_potential``, as ``chain_poisson_solve`` returns it."""
    return SpectralField(g.grid, -1j * potential(g, eps))


def chain_barotropic_defect(h) -> float:
    """Max kz = 0 coefficient of the full-grid div_H h."""
    return float(np.max(np.abs(horizontal_divergence(h).half[:, :, 0])))


def chain_hydrostatic_reconstruct(h) -> SpectralField:
    """v = source / (i kz) from the source -div_H h, with v(x, y, 0) = 0."""
    grid = h[0].grid
    source = -1.0 * horizontal_divergence(h).half
    kz = half_wavenumbers(grid)[2].reshape(-1)
    inv_ikz = np.zeros(kz.size, dtype=np.complex128)
    inv_ikz[1:] = 1.0 / (1j * kz[1:])
    v = SpectralField(grid, source * inv_ikz)
    v.half[:, :, 0] = -trace(v)
    return v


# ---------------------------------------------------------------------------
# half-spectrum references: the Leray, barotropic and hydrostatic operators as
# they ran on the whole stored half-spectrum before they moved to band blocks

def half_partner(c: np.ndarray, grid: GridSpec) -> np.ndarray:
    """conj(c(-m1, -m2, m3)) of a half-spectrum array."""
    refl = c[np.ix_((-np.arange(grid.n1)) % grid.n1, (-np.arange(grid.n2)) % grid.n2)]
    return np.conjugate(refl, out=refl)


def half_k_dot(cs, z=slice(None)) -> np.ndarray:
    ks = half_wavenumbers(cs[0].grid)
    out = ks[0][:, :, z] * cs[0].half[:, :, z]
    for k, c in zip(ks[1:], cs[1:]):
        out += k[:, :, z] * c.half[:, :, z]
    return out


def half_solve(kc: np.ndarray, denom: np.ndarray) -> np.ndarray:
    kernel = denom == 0.0
    phi = kc / np.where(kernel, 1.0, denom)
    phi[kernel] = 0.0
    return phi


def half_leray_project(g: VectorState, eps: float) -> VectorState:
    kx, ky, kz = half_wavenumbers(g.grid)
    phi = half_solve(half_k_dot(g.components()), kx**2 + ky**2 + kz**2 / eps**2)
    return VectorState(
        SpectralField(g.grid, g.h1.half - kx * phi),
        SpectralField(g.grid, g.h2.half - ky * phi),
        SpectralField(g.grid, g.v.half - kz * phi * (1.0 / eps**2)),
    )


def half_barotropic_project(h) -> tuple[SpectralField, SpectralField]:
    grid = h[0].grid
    kx, ky, _ = half_wavenumbers(grid)
    phi = half_solve(half_k_dot(h, 0), (kx**2 + ky**2)[:, :, 0])
    c1 = h[0].half.copy()
    c2 = h[1].half.copy()
    c1[:, :, 0] -= kx[:, :, 0] * phi
    c2[:, :, 0] -= ky[:, :, 0] * phi
    return (SpectralField(grid, c1), SpectralField(grid, c2))


def half_z_trace(f: SpectralField) -> np.ndarray:
    """The m3 = 0 and Nyquist planes plus each plane 0 < m3 < n3/2 and its partner."""
    c = f.half
    inner = c[:, :, 1:-1].sum(axis=2)
    return c[:, :, 0] + c[:, :, -1] + inner + half_partner(inner, f.grid)


def half_hydrostatic_reconstruct(h) -> SpectralField:
    grid = h[0].grid
    kc = half_k_dot(h)
    kz = half_wavenumbers(grid)[2].reshape(-1)
    minus_inv_kz = np.zeros(kz.size)
    minus_inv_kz[1:] = -1.0 / kz[1:]
    v = SpectralField(grid, kc * minus_inv_kz)
    v.half[:, :, 0] = -half_z_trace(v)
    return v


def half_weighted_sums(f: SpectralField) -> tuple[float, float, float]:
    """||f||^2, ||grad_H f||^2 and ||dz f||^2 from the whole half-spectrum."""
    g = f.grid
    kx, ky, kz = half_wavenumbers(g)
    p = np.abs(f.half) ** 2
    p_xy = 2.0 * p.sum(axis=2) - p[:, :, 0] - p[:, :, -1]
    # Parseval weights (1, 2, ..., 2, 1) of m3 = 0, ..., n3/2: every plane but
    # m3 = 0 and the Nyquist plane also counts its partner -m3
    p_z = np.r_[1.0, np.full(g.n3 // 2 - 1, 2.0), 1.0] * p.sum(axis=(0, 1))
    return (
        g.volume * float(p_z.sum()),
        g.volume * float(np.sum((kx**2 + ky**2)[:, :, 0] * p_xy)),
        g.volume * float(np.sum(kz[0, 0] ** 2 * p_z)),
    )


def half_difference_metrics(s_eps, s_lim, eps: float, alpha: float) -> tuple[float, float, float]:
    """(d_l2, d_diss_rate, d_h1) of an SHMHD state against a PEHM state with
    hydrostatic verticals, from the whole half-spectrum."""
    grid = s_eps.grid
    horizontal = [SpectralField(grid, f.half - g.half)
                  for f, g in zip((s_eps.a.h1, s_eps.a.h2, s_eps.b.h1, s_eps.b.h2), (*s_lim.a_h, *s_lim.b_h))]
    vertical = [SpectralField(grid, v.half - half_hydrostatic_reconstruct(h).half)
                for v, h in ((s_eps.a.v, s_lim.a_h), (s_eps.b.v, s_lim.b_h))]
    h = np.sum([half_weighted_sums(f) for f in horizontal], axis=0)
    v = np.sum([half_weighted_sums(f) for f in vertical], axis=0)
    diss = h[1] + eps ** (alpha - 2.0) * h[2] + eps**2 * v[1] + eps**alpha * v[2]
    return float(h[0] + eps**2 * v[0]), float(diss), float(h.sum() + eps**2 * v.sum())
