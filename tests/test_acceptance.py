"""Acceptance suite: the nine gate criteria at their stated tolerances.

Each test prints a single PASS/FAIL verdict line (bypassing capture) so the
whole gate reads at a glance.  The expensive ladder sweeps are module-scoped
fixtures shared across criteria.  The two alpha=4 sweeps differ in mode and
in worker count: a cell's results and its sweep.csv line depend on neither,
only the rate fit depends on the mode.
"""

import math
import time

import numpy as np
import pytest

from hydrolimit.constraints import SpectrumParams, generate_initial_data
from hydrolimit.diagnostics import energy_ledger, trilinear_check
from hydrolimit.grid import GridSpec
from hydrolimit.pehm import PehmState
from hydrolimit.pehm import run as pehm_run
from hydrolimit.shmhd import ElsasserState, ShmhdParams
from hydrolimit.shmhd import run as shmhd_run
from hydrolimit.integrator import Sample
from hydrolimit.spectral import band_from_physical, gather, l2_norm
from hydrolimit.sweep import SweepConfig, initial_states, run_sweep, sweep_csv_text
from hydrolimit.verify import run_battery
from conftest import field_from_full

REFERENCE = dict(
    n1=32, n2=32, n3=32, eps_ladder=(0.2, 0.1, 0.05, 0.025),
    dt=2e-3, t_end=0.5, seed=7,
)


def _verdict(capsys, number, passed, detail):
    with capsys.disabled():
        print(f"\nACCEPTANCE {number}: {'PASS' if passed else 'FAIL'} — {detail}")
    assert passed, detail


@pytest.fixture(scope="module")
def alpha4_parallel():
    t0 = time.perf_counter()
    result = run_sweep(SweepConfig(alpha=4.0, mode="h1", **REFERENCE), jobs=4)
    return result, time.perf_counter() - t0


@pytest.fixture(scope="module")
def alpha4_serial():
    return run_sweep(SweepConfig(alpha=4.0, **REFERENCE), jobs=1)


def test_criterion_1_constraint_battery(capsys):
    t0 = time.perf_counter()
    grid = GridSpec(32, 32, 32)
    results = run_battery(grid, range(7, 27))
    elapsed = time.perf_counter() - t0
    all_pass = all(r.passed for r in results)
    worst = max(r.worst / r.tol for r in results)
    _verdict(
        capsys, 1, all_pass and elapsed < 30.0,
        f"20-state battery at 32^3: worst/tol ratio {worst:.2e}, {elapsed:.1f}s (< 30s)",
    )


def test_criterion_2_energy_inequality(capsys):
    cfg = SweepConfig(alpha=3.0, dt=1e-3, t_end=0.5, n1=32, n2=32, n3=32, seed=7)
    s0, _ = initial_states(cfg)
    t0 = time.perf_counter()
    nonlinear = shmhd_run(s0, ShmhdParams(eps=0.1, alpha=3.0, dt=1e-3, t_end=0.5), 50)
    linear = shmhd_run(
        s0, ShmhdParams(eps=0.1, alpha=3.0, dt=1e-3, t_end=0.5, advect=False), 50
    )
    elapsed = time.perf_counter() - t0
    ledger = energy_ledger([s.record for s in nonlinear])
    lin_resid = max(abs(r) for r in energy_ledger([s.record for s in linear]).residuals)
    passed = ledger.passed and lin_resid <= 1e-6 and elapsed < 120.0
    _verdict(
        capsys, 2, passed,
        f"500-step ledger {'PASS' if ledger.passed else 'FAIL'} (slack 1e-4), "
        f"linearized residual {lin_resid:.2e} (<= 1e-6), {elapsed:.0f}s (< 2min)",
    )


def test_criterion_3_pehm_energy_identity(capsys):
    cfg = SweepConfig(alpha=3.0, dt=1e-3, t_end=1.0, n1=32, n2=32, n3=32, seed=7)
    _, s0 = initial_states(cfg)
    traj = pehm_run(s0, 1e-3, 1.0, sample_every=100)
    resid = max(abs(r) for r in energy_ledger([s.record for s in traj]).residuals)
    _verdict(
        capsys, 3, resid <= 1e-4,
        f"identity residual over unit time {resid:.2e} (<= 1e-4)",
    )


def test_criterion_4_temporal_order(capsys):
    grid = GridSpec(8, 8, 8, 1.0, 1.0)
    x = np.arange(grid.n1).reshape(-1, 1, 1) * grid.dx
    f = band_from_physical(grid, np.sin(2 * np.pi * x) * np.ones(grid.shape))
    zero = np.zeros_like(f)
    t_end = 0.02
    exact = math.exp(-4 * np.pi**2 * t_end)

    def shmhd_error(dt):
        s = Sample(ElsasserState, grid, 0.0, [zero, f, zero, zero, f, zero], None)
        params = ShmhdParams(eps=0.1, alpha=3.0, dt=dt, t_end=t_end, advect=False)
        final = shmhd_run(s, params, 10**6)[-1].blocks[1]  # a_h2
        return l2_norm(grid, final - exact * f)

    def pehm_error(dt):
        s = Sample(PehmState, grid, 0.0, [zero, f, zero, f], None)
        final = pehm_run(s, dt, t_end, sample_every=10**6, advect=False)[-1].blocks[1]  # a_h2
        return l2_norm(grid, final - exact * f)

    orders = {}
    for name, err in (("shmhd", shmhd_error), ("pehm", pehm_error)):
        e1, e2, e4 = err(4e-3), err(2e-3), err(1e-3)
        orders[name] = min(math.log2(e1 / e2), math.log2(e2 / e4))
    passed = all(o >= 1.8 for o in orders.values())
    _verdict(
        capsys, 4, passed,
        f"observed orders shmhd {orders['shmhd']:.2f}, pehm {orders['pehm']:.2f} (>= 1.8)",
    )


def test_criterion_5_rate_saturated_branch(capsys, alpha4_serial, alpha4_parallel):
    fit = alpha4_serial.fit
    _, elapsed = alpha4_parallel
    passed = (
        fit is not None and fit.slope >= 0.85 and fit.r_squared >= 0.98 and elapsed < 900.0
    )
    _verdict(
        capsys, 5, passed,
        f"alpha=4 slope {fit.slope:.3f} (>= 0.85), r^2 {fit.r_squared:.4f} (>= 0.98), "
        f"{elapsed:.0f}s on 4 workers (< 15min)",
    )


def test_criterion_6_rate_linear_branch(capsys):
    result = run_sweep(SweepConfig(alpha=3.0, **REFERENCE), jobs=4)
    fit = result.fit
    passed = fit is not None and fit.slope >= 0.4 and fit.r_squared >= 0.95
    exceeds = fit.slope > fit.gamma_half_predicted
    _verdict(
        capsys, 6, passed,
        f"alpha=3 slope {fit.slope:.3f} (>= 0.4), r^2 {fit.r_squared:.4f} (>= 0.95)"
        + (", exceeds the predicted 0.5 (upper bound: pass)" if exceeds else ""),
    )


def test_criterion_7_h1_mode(capsys, alpha4_parallel):
    result, _ = alpha4_parallel
    fit = result.fit
    worst_defect = 0.0
    for cell in result.cells:
        for row in cell.rows:
            worst_defect = max(worst_defect, row.parity_defect, row.div_defect)
    passed = fit is not None and fit.slope >= 0.85 and worst_defect < 1e-9
    _verdict(
        capsys, 7, passed,
        f"h1-mode slope {fit.slope:.3f} (>= 0.85), "
        f"worst parity/divergence defect {worst_defect:.2e} (< 1e-9)",
    )


def _band_limited_scalar(seed: int, grid: GridSpec, band: int = 5) -> np.ndarray:
    """The band block of a resolution-independent band-limited random scalar:
    the same coefficient block is drawn per seed and embedded into any grid
    that can hold it."""
    rng = np.random.default_rng(seed)
    size = 2 * band + 1
    block = rng.standard_normal((size, size, size)) + 1j * rng.standard_normal(
        (size, size, size)
    )
    coeffs = np.zeros(grid.shape, dtype=np.complex128)
    for i, m1 in enumerate(range(-band, band + 1)):
        for j, m2 in enumerate(range(-band, band + 1)):
            for k, m3 in enumerate(range(-band, band + 1)):
                coeffs[m1 % grid.n1, m2 % grid.n2, m3 % grid.n3] = block[i, j, k]
    r1, r2, r3 = ((-np.arange(n)) % n for n in grid.shape)
    coeffs = 0.5 * (coeffs + np.conj(coeffs[np.ix_(r1, r2, r3)]))
    return gather([field_from_full(grid, coeffs)])[0]


def test_criterion_8_trilinear_stability(capsys):
    max_c = {}
    for n in (32, 48):
        grid = GridSpec(n, n, n, 1.0, 1.0)
        worst = 0.0
        for triple in range(100):
            f = _band_limited_scalar(1000 + 3 * triple, grid)
            g = _band_limited_scalar(1001 + 3 * triple, grid)
            h = _band_limited_scalar(1002 + 3 * triple, grid)
            worst = max(worst, trilinear_check(grid, f, g, h).implied_c)
        max_c[n] = worst
    change = abs(max_c[48] - max_c[32]) / max_c[32]
    _verdict(
        capsys, 8, math.isfinite(max_c[32]) and change < 0.05,
        f"max implied constant {max_c[32]:.5f} at 32^3 vs {max_c[48]:.5f} at 48^3, "
        f"relative change {change:.2e} (< 5%)",
    )


def test_criterion_9_determinism(capsys, alpha4_parallel, alpha4_serial):
    parallel, _ = alpha4_parallel
    text_parallel = sweep_csv_text(parallel)
    text_serial = sweep_csv_text(alpha4_serial)
    identical = text_parallel.encode() == text_serial.encode()
    _verdict(
        capsys, 9, identical,
        f"sweep.csv byte-identical across --jobs 1 (l2 mode) and --jobs 4 (h1 mode) "
        f"({len(text_serial.encode())} bytes)",
    )
