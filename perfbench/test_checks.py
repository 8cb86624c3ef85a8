"""Each benchmark check accepts a valid output and rejects a corrupted one.

Run with: python3 -m pytest perfbench/test_checks.py
The outputs are synthetic; nothing here runs the program.
"""

import math

import numpy as np
import pytest

import checks
from checks import CheckFailed

LADDER = (0.2, 0.1, 0.05, 0.025)
ALPHA = 4.0


def sweep_text(errors_l2, errors_h1=None, statuses=None, ladder=LADDER):
    errors_h1 = errors_h1 or [3.0 * e for e in errors_l2]
    statuses = statuses or ["ok"] * len(ladder)
    rows = ["eps,sup_err_l2,sup_err_h1,status"]
    rows += [f"{e!r},{a!r},{b!r},{s}" for e, a, b, s in zip(ladder, errors_l2, errors_h1, statuses)]
    return "\n".join(rows) + "\n"


def summary_for(errors_l2, ladder=LADDER):
    slope, _, r2 = checks.least_squares_slope([math.log(e) for e in ladder],
                                              [math.log(v) for v in errors_l2])
    return f"fitted slope={slope:.6f} (predicted gamma/2=1) r_squared={r2:.6f}\n"


GOOD = [0.3 * e**2 for e in LADDER]


def expect(prop, fn, *args, **kwargs):
    with pytest.raises(CheckFailed) as info:
        fn(*args, **kwargs)
    assert info.value.prop == prop, str(info.value)


class TestSweep:
    def test_valid_report_passes(self):
        slope = checks.check_sweep(sweep_text(GOOD), summary_for(GOOD), LADDER, ALPHA)
        assert slope == pytest.approx(2.0)

    def test_failed_cell(self):
        text = sweep_text(GOOD, statuses=["ok", "blowup:x", "ok", "ok"])
        expect("cell_status_ok", checks.check_sweep, text, summary_for(GOOD), LADDER, ALPHA)

    def test_missing_cell(self):
        expect("ladder_cells", checks.check_sweep, sweep_text(GOOD[:3], ladder=LADDER[:3]),
               summary_for(GOOD), LADDER, ALPHA)

    def test_errors_not_decreasing(self):
        bad = [GOOD[0], GOOD[2], GOOD[1], GOOD[3]]
        expect("errors_strictly_decrease", checks.check_sweep, sweep_text(bad), summary_for(bad), LADDER, ALPHA)

    def test_h1_below_l2(self):
        h1 = [3.0 * e for e in GOOD]
        h1[2] = 0.5 * GOOD[2]
        expect("h1_dominates_l2", checks.check_sweep, sweep_text(GOOD, h1), summary_for(GOOD), LADDER, ALPHA)

    def test_rate_below_gamma_half(self):
        slow = [0.3 * e**0.8 for e in LADDER]
        expect("rate_at_least_gamma_half", checks.check_sweep, sweep_text(slow), summary_for(slow), LADDER, ALPHA)

    def test_points_off_a_line(self):
        bent = [0.3 * e**2 for e in LADDER]
        bent[1] *= 3.0
        bent[2] /= 3.0
        expect("rate_r_squared", checks.check_sweep, sweep_text(bent), summary_for(bent), LADDER, ALPHA)

    def test_summary_disagrees(self):
        expect("summary_slope_matches", checks.check_sweep, sweep_text(GOOD),
               "fitted slope=1.900000 (predicted gamma/2=1) r_squared=1.000000\n", LADDER, ALPHA)


def runs_text(n_cells=2, samples=3, energy_bump=0.0, parity=0.0, div=0.0):
    rows = ["run_id,system,eps,alpha,t,e_l2,dissipation_accum,d_l2,d_diss_accum,d_h1,parity_defect,div_defect"]
    for c in range(n_cells):
        for system in ("shmhd", "pehm"):
            for i in range(samples):
                t = 0.01 * i
                d = 0.5 * i
                e = 10.0 - 2.0 * d - 0.01 * i + (energy_bump if i == samples - 1 else 0.0)
                rows.append(f"cell{c},{system},0.1,4.0,{t!r},{e!r},{d!r},,,,{parity!r},{div!r}")
    return "\n".join(rows) + "\n"


class TestRuns:
    def test_valid_runs_pass(self):
        assert checks.check_runs(runs_text(), 2, 3) == 4

    def test_energy_grows(self):
        expect("energy_inequality", checks.check_runs, runs_text(energy_bump=0.1), 2, 3)

    def test_parity_defect(self):
        expect("parity_defect_small", checks.check_runs, runs_text(parity=1e-6), 2, 3)

    def test_divergence_defect(self):
        expect("div_defect_small", checks.check_runs, runs_text(div=1e-6), 2, 3)

    def test_missing_samples(self):
        expect("runs_complete", checks.check_runs, runs_text(samples=2), 2, 3)


def linear_case(shape=(8, 8, 8), weight=0.1, dt=1e-3, steps=20, seed=0):
    rng = np.random.default_rng(seed)
    c0 = [0.1 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) for _ in range(2)]
    lam = checks.decay_rates(shape, 8, 2 * math.pi, 2 * math.pi, weight)
    factor = ((1 - 0.5 * dt * lam) / (1 + 0.5 * dt * lam)) ** steps
    return c0, [c * factor for c in c0], steps * dt, dt


class TestLinearDecay:
    def test_crank_nicolson_evolution_passes(self):
        c0, cn, t, dt = linear_case()
        assert checks.check_linear_decay(c0, cn, t, dt, 8, 2 * math.pi, 2 * math.pi, 0.1) < 1.0

    def test_real_fft_layout_passes(self):
        c0, cn, t, dt = linear_case(shape=(8, 8, 5))
        assert checks.check_linear_decay(c0, cn, t, dt, 8, 2 * math.pi, 2 * math.pi, 0.1) < 1.0

    def test_wrong_decay_rate(self):
        c0, cn, t, dt = linear_case(weight=0.0)
        expect("linear_decay", checks.check_linear_decay, c0, cn, t, dt, 8, 2 * math.pi, 2 * math.pi, 0.1)

    def test_perturbed_coefficient(self):
        c0, cn, t, dt = linear_case()
        cn[1][1, 0, 0] *= 1.0 + 1e-6
        expect("linear_decay", checks.check_linear_decay, c0, cn, t, dt, 8, 2 * math.pi, 2 * math.pi, 0.1)

    def test_linear_ledger(self):
        recs = [{"t": 0.0, "e_l2": 1.0, "dissipation_accum": 0.0},
                {"t": 0.1, "e_l2": 0.8, "dissipation_accum": 0.1}]
        assert checks.check_linear_ledger(recs) == 0.0
        recs[1]["e_l2"] = 0.8 + 1e-5
        expect("linear_ledger_residual", checks.check_linear_ledger, recs)


def solenoidal_pair(n=16, seed=3):
    """Two real, band-limited, divergence-free fields as curls of random
    potentials, in the coefficient normalization of the program.  n is not a
    multiple of 3, so products of kept modes alias outside the kept band."""
    rng = np.random.default_rng(seed)
    shape = (n, n, n)
    m = [np.fft.fftfreq(n, 1.0 / n)] * 3
    mask = ((3 * np.abs(m[0]) <= n)[:, None, None] & (3 * np.abs(m[1]) <= n)[None, :, None]
            & (3 * np.abs(m[2]) <= n)[None, None, :])
    k = (m[0][:, None, None], m[1][None, :, None], np.pi * m[2][None, None, :])

    def curl():
        psi = [np.fft.fftn(rng.standard_normal(shape)) / n**3 * mask for _ in range(3)]
        return [1j * (k[1] * psi[2] - k[2] * psi[1]),
                1j * (k[2] * psi[0] - k[0] * psi[2]),
                1j * (k[0] * psi[1] - k[1] * psi[0])]

    return curl(), curl(), k, mask


def advective_form(f, w, k, mask):
    """-(w . grad) f_i, the form the program evaluates."""
    npts = f[0].size
    wp = [np.fft.ifftn(c * npts).real for c in w]
    out = []
    for c in f:
        grads = [np.fft.ifftn(1j * kj * c * npts).real for kj in k]
        out.append(-np.fft.fftn(sum(a * g for a, g in zip(wp, grads))) / npts * mask)
    return out


class TestTendency:
    def test_advective_form_agrees(self):
        a, b, k, mask = solenoidal_pair()
        ref_a, ref_b = checks.divergence_form_tendency(a, b, 2 * math.pi, 2 * math.pi)
        got_a, got_b = advective_form(a, b, k, mask), advective_form(b, a, k, mask)
        assert checks.check_tendency(got_a, got_b, ref_a, ref_b) < 1e-13

    def test_corrupted_tendency(self):
        a, b, k, mask = solenoidal_pair()
        ref_a, ref_b = checks.divergence_form_tendency(a, b, 2 * math.pi, 2 * math.pi)
        got_a, got_b = advective_form(a, b, k, mask), advective_form(b, a, k, mask)
        got_b[2][1, 2, 1] += 1e-9 * np.max(np.abs(got_b[2]))
        expect("nonlinear_tendency_matches_divergence_form", checks.check_tendency, got_a, got_b, ref_a, ref_b)
