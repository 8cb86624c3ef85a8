"""Correctness checks on the program's outputs, made apart from the program.

Nothing here imports ``hydrolimit``: every property is recomputed from the
written reports (``sweep.csv``, ``summary.txt``, ``runs.csv``) or from raw
coefficient arrays with numpy alone.  A failed check raises ``CheckFailed``
whose message starts with the name of the violated property.
"""

import csv
import io
import math
import re

import numpy as np

# Stated tolerances.  Each is a property of the method, not of one seed.
RATE_SLACK = 0.05          # fitted slope may fall this far below gamma/2
MIN_R_SQUARED = 0.99       # the log-log points must lie on a line
SUMMARY_SLOPE_TOL = 5e-6   # summary.txt prints the slope with 6 decimals
LEDGER_SLACK = 1e-4        # E(t) + 2 int D <= E(0) (1 + slack)
LINEAR_LEDGER_TOL = 1e-6   # Crank-Nicolson closes the linear ledger exactly
DEFECT_TOL = 1e-9          # parity and divergence defects per sample row
DECAY_SAFETY = 2.0         # times the leading Crank-Nicolson error term
TENDENCY_RTOL = 1e-12      # advective vs divergence form, relative to max |t|


class CheckFailed(AssertionError):
    """An output violates a property the method must have."""

    def __init__(self, prop: str, detail: str):
        super().__init__(f"{prop}: {detail}")
        self.prop = prop


def gamma_of_alpha(alpha: float) -> float:
    return min(2.0, alpha - 2.0)


# ---------------------------------------------------------------------------
# ladder reports

def parse_sweep_csv(text: str) -> list[dict]:
    rows = []
    for r in csv.DictReader(io.StringIO(text)):
        rows.append({
            "eps": float(r["eps"]),
            "sup_err_l2": float(r["sup_err_l2"]),
            "sup_err_h1": float(r["sup_err_h1"]),
            "status": r["status"],
        })
    return rows


def least_squares_slope(x, y) -> tuple[float, float, float]:
    """Slope, intercept and r^2 of the straight line through (x, y)."""
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    sxx = sum((a - mx) ** 2 for a in x)
    sxy = sum((a - mx) * (b - my) for a, b in zip(x, y))
    syy = sum((b - my) ** 2 for b in y)
    slope = sxy / sxx
    intercept = my - slope * mx
    ss_res = sum((b - (slope * a + intercept)) ** 2 for a, b in zip(x, y))
    r2 = 1.0 - ss_res / syy if syy > 0 else 1.0
    return slope, intercept, r2


def check_sweep(sweep_text: str, summary_text: str, ladder, alpha: float) -> float:
    """Cells, ladder monotonicity, the l2-mode rate refitted from sweep.csv and
    its agreement with the summary.  Returns the refitted slope."""
    rows = parse_sweep_csv(sweep_text)
    got = [r["eps"] for r in rows]
    if got != list(ladder):
        raise CheckFailed("ladder_cells", f"sweep.csv eps column {got} != ladder {list(ladder)}")
    for r in rows:
        if r["status"] != "ok":
            raise CheckFailed("cell_status_ok", f"eps={r['eps']:g} has status {r['status']!r}")
    for r in rows:
        if not (math.isfinite(r["sup_err_l2"]) and r["sup_err_l2"] > 0):
            raise CheckFailed("errors_positive", f"eps={r['eps']:g} sup_err_l2={r['sup_err_l2']!r}")
        if not r["sup_err_h1"] >= r["sup_err_l2"]:
            raise CheckFailed(
                "h1_dominates_l2",
                f"eps={r['eps']:g}: sup_err_h1={r['sup_err_h1']!r} < sup_err_l2={r['sup_err_l2']!r}",
            )
    for col in ("sup_err_l2", "sup_err_h1"):
        for a, b in zip(rows, rows[1:]):
            if not b[col] < a[col]:
                raise CheckFailed(
                    "errors_strictly_decrease",
                    f"{col} at eps={b['eps']:g} ({b[col]!r}) >= at eps={a['eps']:g} ({a[col]!r})",
                )
    x = [math.log(r["eps"]) for r in rows]
    y = [math.log(r["sup_err_l2"]) for r in rows]
    slope, _, r2 = least_squares_slope(x, y)
    gamma_half = gamma_of_alpha(alpha) / 2.0
    if slope < gamma_half - RATE_SLACK:
        raise CheckFailed("rate_at_least_gamma_half",
                          f"refitted slope {slope:.6f} < gamma/2 {gamma_half:g} - {RATE_SLACK:g}")
    if r2 < MIN_R_SQUARED:
        raise CheckFailed("rate_r_squared", f"refitted r^2 {r2:.6f} < {MIN_R_SQUARED:g}")
    m = re.search(r"fitted slope=([-+0-9.eE]+)", summary_text)
    if m is None:
        raise CheckFailed("summary_slope_matches", "summary.txt has no 'fitted slope=' line")
    reported = float(m.group(1))
    if abs(reported - slope) > SUMMARY_SLOPE_TOL:
        raise CheckFailed("summary_slope_matches",
                          f"summary.txt slope {reported!r} != refitted {slope:.8f}")
    return slope


def parse_runs_csv(text: str) -> dict:
    """Trajectories keyed by (run_id, system), rows in file order."""
    out: dict = {}
    for r in csv.DictReader(io.StringIO(text)):
        row = {k: float(r[k]) for k in ("t", "e_l2", "dissipation_accum", "parity_defect", "div_defect")}
        out.setdefault((r["run_id"], r["system"]), []).append(row)
    return out


def check_ledger(records, label: str = "") -> float:
    """Energy inequality E(t) + 2 int D <= E(0)(1 + slack); returns the worst
    relative residual (E(t) + 2 int D - E(0)) / E(0) after the first sample."""
    if not records:
        raise CheckFailed("energy_inequality", f"{label}: empty trajectory")
    e0 = records[0]["e_l2"]
    if not (math.isfinite(e0) and e0 > 0):
        raise CheckFailed("energy_inequality", f"{label}: initial energy {e0!r}")
    residuals = []
    for r in records:
        lhs = r["e_l2"] + 2.0 * r["dissipation_accum"]
        if not (math.isfinite(lhs) and lhs <= e0 * (1.0 + LEDGER_SLACK)):
            raise CheckFailed("energy_inequality", f"{label} t={r['t']:g}: E+2D={lhs!r} > "
                              f"E(0)(1+{LEDGER_SLACK:g})={e0 * (1 + LEDGER_SLACK)!r}")
        residuals.append((lhs - e0) / e0)
    return max(residuals[1:], default=0.0)


def check_defects(records, label: str = "") -> None:
    for r in records:
        for key in ("parity_defect", "div_defect"):
            if not abs(r[key]) < DEFECT_TOL:
                raise CheckFailed(f"{key}_small", f"{label} t={r['t']:g}: {key}={r[key]!r} >= {DEFECT_TOL:g}")


def check_runs(runs_text: str, n_cells: int, samples_per_run: int) -> int:
    """Every trajectory in runs.csv: ledger inequality and defects.  Returns
    the number of trajectories."""
    trajs = parse_runs_csv(runs_text)
    if len(trajs) != 2 * n_cells:
        raise CheckFailed("runs_complete", f"{len(trajs)} trajectories in runs.csv, expected {2 * n_cells}")
    for (run_id, system), rows in trajs.items():
        label = f"{run_id}/{system}"
        if len(rows) != samples_per_run:
            raise CheckFailed("runs_complete", f"{label}: {len(rows)} samples, expected {samples_per_run}")
        check_ledger(rows, label)
        check_defects(rows, label)
    return len(trajs)


# ---------------------------------------------------------------------------
# linear decay against the closed form

def decay_rates(shape, n3: int, l1: float, l2: float, weight: float) -> np.ndarray:
    """lambda_k = kx^2 + ky^2 + weight * kz^2 for coefficient arrays whose
    trailing axes are (n1, n2, n3) in FFT order, or (n1, n2, n3//2 + 1) in
    real-FFT order.  The z-period is 2, so kz = pi * m3."""
    n1, n2, m3 = shape[-3:]
    kx = 2.0 * np.pi * np.fft.fftfreq(n1, 1.0 / n1) / l1
    ky = 2.0 * np.pi * np.fft.fftfreq(n2, 1.0 / n2) / l2
    if m3 == n3:
        kz = np.pi * np.fft.fftfreq(n3, 1.0 / n3)
    elif m3 == n3 // 2 + 1:
        kz = np.pi * np.fft.rfftfreq(n3, 1.0 / n3)
    else:
        raise CheckFailed("linear_decay", f"coefficient shape {shape} does not fit n3={n3}")
    return kx[:, None, None] ** 2 + ky[None, :, None] ** 2 + weight * kz[None, None, :] ** 2


def check_linear_decay(initial, final, t: float, dt: float, n3: int, l1: float, l2: float,
                       weight: float, label: str = "") -> float:
    """Each coefficient of a linear run must decay as exp(-lambda_k t) up to
    the Crank-Nicolson error, whose leading term is |c0| t lambda^3 dt^2 / 12.
    Returns the worst error as a share of the tolerance."""
    if len(initial) != len(final) or not initial:
        raise CheckFailed("linear_decay", f"{label}: {len(initial)} initial vs {len(final)} final arrays")
    scale = max(float(np.max(np.abs(c))) for c in initial)
    worst = 0.0
    for i, (c0, cn) in enumerate(zip(initial, final)):
        if c0.shape != cn.shape:
            raise CheckFailed("linear_decay", f"{label} field {i}: shape {c0.shape} -> {cn.shape}")
        lam = decay_rates(c0.shape, n3, l1, l2, weight)
        exact = c0 * np.exp(-lam * t)
        tol = DECAY_SAFETY * np.abs(c0) * t * lam**3 * dt**2 / 12.0 + 1e-13 * scale
        ratio = np.abs(cn - exact) / tol
        k = int(np.argmax(ratio))
        if not ratio.flat[k] <= 1.0:
            raise CheckFailed(
                "linear_decay",
                f"{label} field {i} mode {np.unravel_index(k, ratio.shape)}: |c - c0 exp(-lambda t)| "
                f"= {np.abs(cn - exact).flat[k]:.3e} exceeds tolerance {tol.flat[k]:.3e}",
            )
        worst = max(worst, float(ratio.flat[k]))
    return worst


def check_linear_ledger(records, label: str = "") -> float:
    """|E(t) + 2 int D - E(0)| / E(0) <= LINEAR_LEDGER_TOL on a linear run."""
    e0 = records[0]["e_l2"]
    worst = max(abs(r["e_l2"] + 2.0 * r["dissipation_accum"] - e0) / e0 for r in records)
    if not worst <= LINEAR_LEDGER_TOL:
        raise CheckFailed("linear_ledger_residual", f"{label}: residual {worst:.3e} > {LINEAR_LEDGER_TOL:g}")
    return worst


# ---------------------------------------------------------------------------
# nonlinear tendency in divergence form

def divergence_form_tendency(a, b, l1: float, l2: float):
    """Tendencies tA_i = -d_j(B_j A_i), tB_i = -d_j(A_j B_i) from spectral
    coefficients (forward FFT divided by the lattice size), with 2/3-rule
    truncation of the products.  For divergence-free, band-limited A and B
    this equals the advective form -(B . grad) A to rounding."""
    shape = a[0].shape
    n1, n2, n3 = shape
    npts = n1 * n2 * n3
    m = [np.fft.fftfreq(n, 1.0 / n) for n in shape]
    mask = ((3 * np.abs(m[0]) <= n1)[:, None, None]
            & (3 * np.abs(m[1]) <= n2)[None, :, None]
            & (3 * np.abs(m[2]) <= n3)[None, None, :])
    k = (
        (2.0 * np.pi * m[0] / l1)[:, None, None],
        (2.0 * np.pi * m[1] / l2)[None, :, None],
        (np.pi * m[2])[None, None, :],
    )
    pa = [np.fft.ifftn(c * npts).real for c in a]
    pb = [np.fft.ifftn(c * npts).real for c in b]

    def family(f, w):
        out = []
        for i in range(3):
            acc = np.zeros(shape, dtype=np.complex128)
            for j in range(3):
                acc -= 1j * k[j] * (np.fft.fftn(w[j] * f[i]) / npts)
            out.append(acc * mask)
        return out

    return family(pa, pb), family(pb, pa)


def check_tendency(ta, tb, ref_a, ref_b) -> float:
    """Largest |difference| over max |reference|; must be at rounding level."""
    scale = max(float(np.max(np.abs(c))) for c in (*ref_a, *ref_b))
    diff = max(float(np.max(np.abs(x - y))) for x, y in zip((*ta, *tb), (*ref_a, *ref_b)))
    rel = diff / scale if scale > 0 else diff
    if not rel <= TENDENCY_RTOL:
        raise CheckFailed("nonlinear_tendency_matches_divergence_form",
                          f"relative difference {rel:.3e} > {TENDENCY_RTOL:g}")
    return rel
