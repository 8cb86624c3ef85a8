"""Norms, energy ledgers, difference metrics, and the tri-linear reporter.

All spectral norms are Parseval-exact over Omega = (0,l1) x (0,l2) x (-1,1).
"""

from dataclasses import dataclass

import numpy as np

from .constraints import VectorState, hydrostatic_reconstruct
from .spectral import SpectralField, l2_norm, to_physical


def _weighted_sums(f: SpectralField) -> tuple[float, float, float]:
    """||f||^2, ||grad_H f||^2 and ||dz f||^2 as Parseval sums
    volume * sum_k w(k) |c_k|^2 with w = 1, kx^2 + ky^2 and kz^2; over the
    stored half-spectrum each weight also carries ``zweights``.  The weights
    are separable, so |c|^2 is reduced to its (x, y) and z marginals before it
    is weighted."""
    g = f.grid
    # hypot is 4x faster here than squaring the strided .real and .imag views
    p = np.abs(f.half) ** 2
    # plain reductions, never BLAS (dot, vdot, @): OpenBLAS threads spin on the other core
    p_xy = 2.0 * p.sum(axis=2) - p[:, :, 0] - p[:, :, -1]  # the zweights sum over m3
    p_z = g.zweights * p.sum(axis=(0, 1))
    return (
        g.volume * float(p_z.sum()),
        g.volume * float(np.sum(g.k2h[:, :, 0] * p_xy)),
        g.volume * float(np.sum(g.kz[0, 0] ** 2 * p_z)),
    )


def grad_h_norm_sq(f: SpectralField) -> float:
    return _weighted_sums(f)[1]


def _weighted_totals(horizontal, vertical, eps: float, alpha: float) -> tuple[float, float, float]:
    """Energy, anisotropic dissipation rate and squared H1 norm of horizontal
    and vertical components.  A vertical component's energy and H1 terms carry
    eps^2; the dissipation weighs dz by eps^(alpha-2) on horizontal components,
    and grad_H by eps^2 and dz by eps^alpha on vertical ones."""
    h = np.sum([_weighted_sums(f) for f in horizontal], axis=0)
    v = np.sum([_weighted_sums(f) for f in vertical], axis=0)
    energy = h[0] + eps**2 * v[0]
    diss = h[1] + eps ** (alpha - 2.0) * h[2] + eps**2 * v[1] + eps**alpha * v[2]
    return float(energy), float(diss), float(h.sum() + eps**2 * v.sum())


def gamma_of_alpha(alpha: float) -> float:
    """Convergence-rate exponent min{2, alpha - 2} for alpha > 2."""
    if not alpha > 2:
        raise ValueError(f"alpha must exceed 2, got {alpha}")
    return min(2.0, alpha - 2.0)


# ---------------------------------------------------------------------------
# energy ledger

@dataclass
class DiagnosticsRecord:
    t: float
    e_l2: float
    dissipation_accum: float
    parity_defect: float = 0.0
    div_defect: float = 0.0


def shmhd_energy(a: VectorState, b: VectorState, eps: float) -> float:
    """E = ||A_h||^2 + ||B_h||^2 + eps^2 ||A3||^2 + eps^2 ||B3||^2."""
    return pehm_energy((a.h1, a.h2), (b.h1, b.h2)) + eps**2 * (l2_norm(a.v) ** 2 + l2_norm(b.v) ** 2)


def shmhd_dissipation_rate(a: VectorState, b: VectorState, eps: float, alpha: float) -> float:
    """Instantaneous integrand of the anisotropically weighted dissipation."""
    return _weighted_totals((a.h1, a.h2, b.h1, b.h2), (a.v, b.v), eps, alpha)[1]


def pehm_energy(a_h, b_h) -> float:
    return sum(l2_norm(f) ** 2 for f in (*a_h, *b_h))


def pehm_dissipation_rate(a_h, b_h) -> float:
    return sum(grad_h_norm_sq(f) for f in (*a_h, *b_h))


@dataclass
class LedgerReport:
    lhs: list[float]
    rhs: float
    residuals: list[float]
    passed: bool


def energy_ledger(records: list[DiagnosticsRecord], slack: float = 1e-4) -> LedgerReport:
    """Check the discrete energy inequality E(t) + 2*int(dissipation) <= E(0).

    Verdict is PASS iff the left-hand side never exceeds the initial energy by
    more than the relative slack.
    """
    if not records:
        raise ValueError("empty trajectory")
    rhs = records[0].e_l2
    lhs = [r.e_l2 + 2.0 * r.dissipation_accum for r in records]
    residuals = [(v - rhs) / rhs if rhs > 0 else v - rhs for v in lhs]
    passed = all(v <= rhs * (1.0 + slack) + (0.0 if rhs > 0 else slack) for v in lhs)
    return LedgerReport(lhs, rhs, residuals, passed)


def trapezoid_accumulate(times, rates) -> list[float]:
    """Running trapezoid integral of sampled rates, for trajectories that do
    not carry solver-accumulated dissipation."""
    acc = [0.0]
    for i in range(1, len(times)):
        acc.append(acc[-1] + 0.5 * (times[i] - times[i - 1]) * (rates[i] + rates[i - 1]))
    return acc


# ---------------------------------------------------------------------------
# difference metrics (SHMHD state minus hydrostatically lifted PEHM state)

@dataclass
class DiffRecord:
    t: float
    d_l2: float
    d_diss_rate: float
    d_diss_accum: float
    d_h1: float


def difference_metrics(s_eps, s_lim, eps: float, alpha: float, d_diss_accum: float = 0.0) -> DiffRecord:
    """Weighted norms of the difference between an SHMHD state and a PEHM
    state with diagnosed vertical components: the vertical parts carry the
    eps weights of the energy functional."""
    if s_eps.a.grid is not s_lim.a_h[0].grid and s_eps.a.grid != s_lim.a_h[0].grid:
        raise ValueError("grid mismatch between states")
    if abs(s_eps.t - s_lim.t) > 1e-12 * max(1.0, abs(s_eps.t)):
        raise ValueError(f"time mismatch: {s_eps.t} vs {s_lim.t}")
    # generators: each difference field is formed once and freed after its sums
    horizontal = (f - g for f, g in zip((s_eps.a.h1, s_eps.a.h2, s_eps.b.h1, s_eps.b.h2),
                                        (*s_lim.a_h, *s_lim.b_h)))
    vertical = (v - hydrostatic_reconstruct(h) for v, h in ((s_eps.a.v, s_lim.a_h), (s_eps.b.v, s_lim.b_h)))
    d_l2, d_diss_rate, d_h1 = _weighted_totals(horizontal, vertical, eps, alpha)
    return DiffRecord(s_eps.t, d_l2, d_diss_rate, d_diss_accum, d_h1)


# ---------------------------------------------------------------------------
# tri-linear reporter

@dataclass
class TrilinearReport:
    lhs: float
    rhs_a: float
    rhs_b: float
    implied_c: float


def _half_bracket(f: SpectralField) -> float:
    """||f||^(1/2) * (||f||^(1/2) + ||grad_H f||^(1/2))."""
    n = l2_norm(f)
    gh = float(np.sqrt(grad_h_norm_sq(f)))
    return np.sqrt(n) * (np.sqrt(n) + np.sqrt(gh))


def trilinear_check(f: SpectralField, g: SpectralField, h: SpectralField) -> TrilinearReport:
    """Evaluate both sides of the anisotropic tri-linear estimate without the
    unquantified constant; reports the constant the data implies.

    The left side is evaluated by collocation quadrature with the absolute
    values taken pointwise; no dealiasing is involved.
    """
    grid = f.grid
    fa = np.abs(to_physical(f))
    gh_prod = np.abs(to_physical(g) * to_physical(h))
    int_f = np.sum(fa, axis=2) * grid.dz
    int_gh = np.sum(gh_prod, axis=2) * grid.dz
    lhs = float(np.sum(int_f * int_gh) * grid.dx * grid.dy)
    rhs_a = _half_bracket(f) * l2_norm(h) * _half_bracket(g)
    rhs_b = l2_norm(f) * _half_bracket(g) * _half_bracket(h)
    denom = min(rhs_a, rhs_b)
    implied_c = lhs / denom if denom > 0 else 0.0
    return TrilinearReport(lhs, rhs_a, rhs_b, implied_c)
