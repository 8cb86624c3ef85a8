"""Norms, energy ledgers, difference metrics, and the tri-linear reporter.

All spectral norms are Parseval-exact over Omega = (0,l1) x (0,l2) x (-1,1).
"""

from dataclasses import dataclass

import numpy as np

from .constraints import hydrostatic_reconstruct
from .grid import GridSpec
from .spectral import l2_norm, parseval_sum, to_physical


def _weighted_sums(grid: GridSpec, c: np.ndarray) -> tuple[float, float, float]:
    """||f||^2, ||grad_H f||^2 and ||dz f||^2 of the field whose band block is
    c, as Parseval sums volume * sum_k w(k) |c_k|^2 with w = 1, kx^2 + ky^2
    and kz^2; each weight also carries ``zweights``.  The weights are
    separable, so |c|^2 is reduced to its (x, y) and z marginals before it is
    weighted."""
    # hypot is 4x faster here than squaring the strided .real and .imag views
    p = np.abs(c) ** 2
    # plain reductions, never BLAS (dot, vdot, @): OpenBLAS threads spin on the other core
    p_xy = 2.0 * p.sum(axis=2) - p[:, :, 0]  # the zweights sum over m3
    p_z = grid.zweights * p.sum(axis=(0, 1))
    return (
        grid.volume * float(p_z.sum()),
        grid.volume * float(np.sum(grid.k2h[:, :, 0] * p_xy)),
        grid.volume * float(np.sum(grid.kz[0, 0] ** 2 * p_z)),
    )


def _weighted_totals(grid: GridSpec, horizontal, vertical, eps: float, alpha: float) -> tuple[float, float, float]:
    """Energy, anisotropic dissipation rate and squared H1 norm of the band
    blocks of horizontal and vertical components.  A vertical component's
    energy and H1 terms carry eps^2; the dissipation weighs dz by eps^(alpha-2)
    on horizontal components, and grad_H by eps^2 and dz by eps^alpha on
    vertical ones."""
    h = np.sum([_weighted_sums(grid, c) for c in horizontal], axis=0)
    v = np.sum([_weighted_sums(grid, c) for c in vertical], axis=0)
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
    parity_defect: float
    div_defect: float


def shmhd_energy(grid: GridSpec, a, b, eps: float) -> float:
    """E = ||A_h||^2 + ||B_h||^2 + eps^2 ||A3||^2 + eps^2 ||B3||^2 of the
    Elsaesser fields whose components have the band blocks a and b (the
    vertical blocks a[2:], b[2:] summed as ``pehm_energy`` sums pairs)."""
    return pehm_energy(grid, a[:2], b[:2]) + eps**2 * pehm_energy(grid, a[2:], b[2:])


def shmhd_dissipation_rate(grid: GridSpec, a, b, eps: float, alpha: float) -> float:
    """Instantaneous integrand of the anisotropically weighted dissipation of
    the Elsaesser fields whose components have the band blocks a and b."""
    return _weighted_totals(grid, (a[0], a[1], b[0], b[1]), (a[2], b[2]), eps, alpha)[1]


def pehm_energy(grid: GridSpec, a_h, b_h) -> float:
    """||A_h||^2 + ||B_h||^2 of the pairs whose band blocks are a_h and b_h,
    Parseval-exact."""
    return grid.volume * sum(parseval_sum(grid, c) for c in (*a_h, *b_h))


def pehm_dissipation_rate(grid: GridSpec, a_h, b_h) -> float:
    """Horizontal dissipation of the pairs whose band blocks are a_h and b_h."""
    return sum(_weighted_sums(grid, c)[1] for c in (*a_h, *b_h))


@dataclass
class LedgerReport:
    residuals: list[float]
    passed: bool


LEDGER_SLACK = 1e-4


def energy_ledger(records: list[DiagnosticsRecord]) -> LedgerReport:
    """Check the discrete energy inequality E(t) + 2*int(dissipation) <= E(0).

    Verdict is PASS iff the left-hand side never exceeds the initial energy by
    more than the relative ``LEDGER_SLACK``.
    """
    if not records:
        raise ValueError("empty trajectory")
    rhs = records[0].e_l2
    lhs = [r.e_l2 + 2.0 * r.dissipation_accum for r in records]
    residuals = [(v - rhs) / rhs if rhs > 0 else v - rhs for v in lhs]
    passed = all(v <= rhs * (1.0 + LEDGER_SLACK) + (0.0 if rhs > 0 else LEDGER_SLACK) for v in lhs)
    return LedgerReport(residuals, passed)


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
    d_l2: float
    d_diss_rate: float
    d_h1: float


def difference_metrics(grid: GridSpec, c_eps, c_lim, eps: float, alpha: float) -> DiffRecord:
    """Weighted norms of the difference between an SHMHD state and a PEHM
    state with diagnosed vertical components, given the band blocks c_eps of
    the six SHMHD fields and c_lim of the four PEHM fields, in ``FIELD_NAMES``
    order: the vertical parts carry the eps weights of the energy functional."""
    a_h, b_h = c_lim[:2], c_lim[2:]
    # generators: each difference block is formed once and freed after its sums
    horizontal = (f - g for f, g in zip((*c_eps[0:2], *c_eps[3:5]), (*a_h, *b_h)))
    vertical = (v - hydrostatic_reconstruct(grid, h) for v, h in ((c_eps[2], a_h), (c_eps[5], b_h)))
    return DiffRecord(*_weighted_totals(grid, horizontal, vertical, eps, alpha))


# ---------------------------------------------------------------------------
# tri-linear reporter

@dataclass
class TrilinearReport:
    lhs: float
    rhs_a: float
    rhs_b: float
    implied_c: float


def _half_bracket(grid: GridSpec, c: np.ndarray) -> float:
    """||f||^(1/2) * (||f||^(1/2) + ||grad_H f||^(1/2)) of the field whose band block is c."""
    n, gh = np.sqrt(_weighted_sums(grid, c)[:2])
    return np.sqrt(n) * (np.sqrt(n) + np.sqrt(gh))


def trilinear_check(grid: GridSpec, f: np.ndarray, g: np.ndarray, h: np.ndarray) -> TrilinearReport:
    """Both sides of the anisotropic tri-linear estimate for the band blocks f,
    g and h, without its unquantified constant, and the constant the data implies.

    The left side is evaluated by collocation quadrature with the absolute
    values taken pointwise; no dealiasing is involved.
    """
    fa, ga, ha = (to_physical(grid, c) for c in (f, g, h))
    int_f = np.sum(np.abs(fa), axis=2) * grid.dz
    int_gh = np.sum(np.abs(ga * ha), axis=2) * grid.dz
    lhs = float(np.sum(int_f * int_gh) * grid.dx * grid.dy)
    rhs_a = _half_bracket(grid, f) * l2_norm(grid, h) * _half_bracket(grid, g)
    rhs_b = l2_norm(grid, f) * _half_bracket(grid, g) * _half_bracket(grid, h)
    denom = min(rhs_a, rhs_b)
    implied_c = lhs / denom if denom > 0 else 0.0
    return TrilinearReport(lhs, rhs_a, rhs_b, implied_c)
